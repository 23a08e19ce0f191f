import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opdense.errors import DimensionMismatch, NormalizedPolyZeroNorm, SchemaMismatch
from opdense.kernels import KernelSpec, gram_matrix
from kernel_oracle import kernel_eval

FAMILIES = ("poly", "normalized_poly", "rbf", "puk")


def spec_for(family, **kw):
    return KernelSpec(family=family, **kw)


def test_poly_is_dot_product_at_exponent_one():
    assert kernel_eval(spec_for("poly"), [1.0, 2.0], [3.0, 4.0]) == 11.0


def test_poly_lower_order_adds_one_inside_power():
    s = spec_for("poly", exponent=2.0, use_lower_order=True)
    assert kernel_eval(s, [1.0], [2.0]) == 9.0  # (2 + 1)^2


def test_normalized_poly_self_is_one():
    s = spec_for("normalized_poly", exponent=3.0)
    x = np.array([0.2, 0.7])
    assert kernel_eval(s, x, x) == pytest.approx(1.0, abs=1e-15)


def test_normalized_poly_zero_norm_errors():
    with pytest.raises(NormalizedPolyZeroNorm):
        kernel_eval(spec_for("normalized_poly"), [0.0, 0.0], [1.0, 0.0])


def test_rbf_unit_distance():
    s = spec_for("rbf", gamma=1.0)
    assert kernel_eval(s, [0.0], [1.0]) == pytest.approx(math.exp(-1), rel=1e-15)


def test_puk_zero_distance_and_half_point():
    s = spec_for("puk")  # sigma = omega = 1, so the factor 2*sqrt(2-1) = 2
    assert kernel_eval(s, [0.3, 0.4], [0.3, 0.4]) == 1.0
    assert kernel_eval(s, [0.0], [0.5]) == pytest.approx(0.5, rel=1e-15)


def test_kernel_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        kernel_eval(spec_for("rbf"), [1.0], [1.0, 2.0])


def test_invalid_family_rejected():
    with pytest.raises(SchemaMismatch):
        KernelSpec(family="sigmoid")


def test_invalid_parameters_rejected():
    with pytest.raises(SchemaMismatch):
        KernelSpec(family="rbf", gamma=0.0)
    with pytest.raises(SchemaMismatch):
        KernelSpec(family="puk", sigma=-1.0)
    with pytest.raises(SchemaMismatch):
        KernelSpec(C=0.0)
    with pytest.raises(SchemaMismatch):
        KernelSpec(family="puk", sigma=float("nan"))
    with pytest.raises(SchemaMismatch):
        KernelSpec(C=float("inf"))
    with pytest.raises(SchemaMismatch):
        KernelSpec(family="poly", exponent=float("nan"))
    with pytest.raises(SchemaMismatch):
        KernelSpec(family="poly", exponent=0.0)
    with pytest.raises(SchemaMismatch):
        KernelSpec(family="normalized_poly", exponent=-1.0)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_kernel_symmetry_all_families(seed):
    rng = np.random.RandomState(seed)
    x = rng.rand(5)
    y = rng.rand(5)
    for family in FAMILIES:
        kw = {}
        if family in ("poly", "normalized_poly"):
            kw = dict(exponent=float(rng.choice([1.0, 2.0, 3.0])),
                      use_lower_order=bool(rng.rand() < 0.5))
        k_xy = kernel_eval(spec_for(family, **kw), x, y)
        k_yx = kernel_eval(spec_for(family, **kw), y, x)
        assert abs(k_xy - k_yx) <= 1e-12


def test_self_kernel_is_one_for_distance_kernels():
    rng = np.random.RandomState(9)
    for _ in range(50):
        x = rng.rand(6)
        assert kernel_eval(spec_for("rbf", gamma=0.7), x, x) == 1.0
        assert kernel_eval(spec_for("puk", sigma=0.5, omega=2.0), x, x) == 1.0
        assert kernel_eval(spec_for("normalized_poly", exponent=2.0), x, x) == pytest.approx(1.0, abs=1e-14)


def test_gram_matrix_matches_scalar_eval():
    rng = np.random.RandomState(11)
    X = rng.rand(4, 3)
    Y = rng.rand(5, 3)
    for family in FAMILIES:
        s = spec_for(family, exponent=2.0)
        g = gram_matrix(s, X, Y)
        assert g.shape == (4, 5)
        for i in range(4):
            for j in range(5):
                assert g[i, j] == pytest.approx(kernel_eval(s, X[i], Y[j]), rel=1e-12, abs=1e-12)


def test_gram_psd_for_rbf_and_integer_poly():
    rng = np.random.RandomState(13)
    for _ in range(200):
        X = rng.rand(8, 4)
        for s in (spec_for("rbf", gamma=float(rng.choice([0.1, 1.0, 10.0]))),
                  spec_for("poly", exponent=float(rng.choice([1.0, 2.0, 3.0]))),
                  spec_for("puk")):
            g = gram_matrix(s, X)
            assert np.linalg.eigvalsh((g + g.T) / 2).min() >= -1e-8


@pytest.mark.parametrize("family", FAMILIES)
def test_gram_matrix_is_exactly_symmetric(family):
    # SMO's curvature K_ii + K_jj - 2K_ij takes K_ij = K_ji
    rng = np.random.RandomState(2)
    spec = spec_for(family, exponent=2.0, use_lower_order=True)
    for n in (5, 42, 210, 420):
        g = gram_matrix(spec, rng.rand(n, 30))
        assert np.array_equal(g, g.T)
