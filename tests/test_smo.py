import numpy as np
import pytest

from conftest import make_dataset
from opdense.errors import SchemaMismatch
from opdense.kernels import KernelSpec, gram_matrix
from opdense.smo import TrainerConfig, smo_solve
from opdense.svm import train_multiclass
from qp_oracle import kkt_violation, qp_oracle

LINEAR = KernelSpec(family="poly", C=100.0)


def test_analytic_two_point_problem():
    X = np.array([[0.0], [1.0]])
    y = np.array([-1.0, 1.0])
    sol = smo_solve(gram_matrix(LINEAR, X), y, 100.0, tolerance=1e-8)
    assert sol.alphas == pytest.approx([2.0, 2.0], abs=1e-6)
    assert sol.bias == pytest.approx(-1.0, abs=1e-6)
    # decision function is 2x - 1: boundary at 0.5
    f = lambda x: 2.0 * x - 1.0
    assert f(0.9) == pytest.approx(0.8)


def test_xor_with_rbf_fits_training_data():
    X = np.array([[0, 0], [1, 1], [0, 1], [1, 0]], dtype=float)
    y = np.array([-1.0, -1.0, 1.0, 1.0])
    spec = KernelSpec(family="rbf", gamma=1.0, C=100.0)
    g = gram_matrix(spec, X)
    sol = smo_solve(g, y, 100.0, tolerance=1e-8)
    f = g @ (sol.alphas * y) + sol.bias
    assert np.all(np.sign(f) == y)
    assert abs(sol.objective - qp_oracle(g, y, 100.0)) <= 1e-6 * max(1.0, sol.objective)


def test_model_invariants_on_trained_binary():
    rng = np.random.RandomState(4)
    X = np.vstack([rng.rand(12, 3) * 0.4, rng.rand(12, 3) * 0.4 + 0.6])
    labels = ["good"] * 12 + ["malware"] * 12
    ds = make_dataset(np.clip(X, 0, 1), labels)
    model = train_multiclass(ds, KernelSpec(family="puk", C=10.0)).machines[0]
    # multiplier sign balance carries over to the retained support vectors
    assert abs(float(model.alphas @ model.labels)) <= 1e-8
    assert np.all(model.alphas > 0)
    assert np.all(model.alphas <= 10.0 + 1e-12)
    # positive side of the pair is the later class in scheme order
    assert model.class_pair == ("good", "malware")
    decisions = model.decision_function(ds.X)
    predicted = np.where(decisions >= 0, "malware", "good")
    assert list(predicted) == labels


def test_determinism_same_data_same_model():
    rng = np.random.RandomState(8)
    X = rng.rand(20, 4)
    y = np.where(rng.rand(20) < 0.5, 1.0, -1.0)
    y[0], y[1] = 1.0, -1.0
    g = gram_matrix(KernelSpec(family="rbf", gamma=0.5, C=5.0), X)
    a = smo_solve(g, y, 5.0)
    b = smo_solve(g, y, 5.0)
    assert np.array_equal(a.alphas, b.alphas)
    assert a.bias == b.bias


def test_iteration_cap_returns_flagged_best_effort():
    rng = np.random.RandomState(3)
    X = rng.rand(30, 3)
    y = np.where(rng.rand(30) < 0.5, 1.0, -1.0)
    y[0], y[1] = 1.0, -1.0
    g = gram_matrix(KernelSpec(family="rbf", gamma=1.0, C=100.0), X)
    sol = smo_solve(g, y, 100.0, max_iterations=3)
    assert sol.hit_iteration_cap
    assert sol.iterations == 3


def _random_problem(rng):
    n = int(rng.randint(2, 7))
    d = int(rng.randint(1, 4))
    X = rng.rand(n, d)
    y = np.where(rng.rand(n) < 0.5, 1.0, -1.0)
    if np.all(y == y[0]):
        y[0] = -y[0]
    return X, y


def _random_spec(rng, family, C):
    kw = dict(family=family, C=C)
    if family in ("poly", "normalized_poly"):
        kw["exponent"] = float(rng.choice([1.0, 2.0]))
        kw["use_lower_order"] = bool(rng.rand() < 0.5)
    elif family == "rbf":
        kw["gamma"] = float(rng.choice([0.5, 1.0]))
    else:
        kw["sigma"] = float(rng.choice([0.5, 1.0]))
        kw["omega"] = float(rng.choice([0.5, 1.0, 2.0]))
    return KernelSpec(**kw)


def test_oracle_equivalence_sample():
    # a small slice of the full acceptance sweep, for fast feedback
    rng = np.random.RandomState(999)
    for rep in range(6):
        X, y = _random_problem(rng)
        for k, family in enumerate(("poly", "normalized_poly", "rbf", "puk")):
            C = 1.0 if (rep + k) % 2 == 0 else 100.0
            g = gram_matrix(_random_spec(rng, family, C), X)
            sol = smo_solve(g, y, C, tolerance=1e-6, max_iterations=200_000)
            oracle = qp_oracle(g, y, C)
            assert abs(sol.objective - oracle) <= 1e-6 * max(1.0, abs(oracle))
            assert kkt_violation(g, y, sol.alphas, sol.bias, C) <= 1e-6 + 1e-9


def test_bias_meets_tolerance_on_criterion_3_case():
    # criterion 3's generator at rep 5, rbf, C=100: averaging y - g over the
    # interior points reported a bias that violated the margins by 1.096e-6
    rng = np.random.RandomState(12345)
    for rep in range(6):
        X, y = _random_problem(rng)
        specs = {family: _random_spec(rng, family, 1.0 if (rep + k) % 2 == 0 else 100.0)
                 for k, family in enumerate(("poly", "normalized_poly", "rbf", "puk"))}
    spec = specs["rbf"]
    assert spec.C == 100.0
    g = gram_matrix(spec, X)
    sol = smo_solve(g, y, spec.C, tolerance=1e-6, max_iterations=200_000)
    assert not sol.hit_iteration_cap
    assert kkt_violation(g, y, sol.alphas, sol.bias, spec.C) <= 1e-6 + 1e-9


def test_bias_with_all_multipliers_at_a_bound_lies_in_kkt_interval():
    rng = np.random.RandomState(6)
    X = rng.rand(8, 2)
    y = np.array([1.0, -1.0] * 4)
    g = gram_matrix(KernelSpec(family="rbf", gamma=1.0, C=0.01), X)
    sol = smo_solve(g, y, 0.01, tolerance=1e-6)
    assert np.all((sol.alphas == 0.0) | (sol.alphas == 0.01))
    t = y - g @ (sol.alphas * y)
    lower = (sol.alphas == 0.0) == (y > 0)  # b >= t here, b <= t elsewhere
    assert t[lower].max() <= sol.bias <= t[~lower].min()


@pytest.mark.parametrize("spec", [
    KernelSpec(family="poly", exponent=2.0, use_lower_order=True, C=10.0),
    KernelSpec(family="rbf", gamma=1.0, C=10.0),
    KernelSpec(family="puk", C=10.0),
], ids=lambda spec: spec.family)
def test_pair_without_curvature_steps_to_the_box(spec):
    # rows 0 and 1 coincide with opposite labels, so K_00 + K_11 - 2K_01 = 0
    # and the first working pair is cut only by the box
    X = np.array([[0.2, 0.3], [0.2, 0.3], [0.8, 0.1], [0.5, 0.9], [0.9, 0.7]])
    y = np.array([1.0, -1.0, 1.0, -1.0, 1.0])
    g = gram_matrix(spec, X)
    assert g[0, 0] + g[1, 1] - 2.0 * g[0, 1] == 0.0
    sol = smo_solve(g, y, spec.C, tolerance=1e-6, max_iterations=200_000)
    assert not sol.hit_iteration_cap
    assert kkt_violation(g, y, sol.alphas, sol.bias, spec.C) <= 1e-6 + 1e-9
    oracle = qp_oracle(g, y, spec.C)
    assert abs(sol.objective - oracle) <= 1e-6 * max(1.0, abs(oracle))


def test_oracle_sign_agreement_excluding_boundary_points():
    rng = np.random.RandomState(321)
    for _ in range(10):
        X, y = _random_problem(rng)
        spec = _random_spec(rng, "rbf", 10.0)
        g = gram_matrix(spec, X)
        sol = smo_solve(g, y, 10.0, tolerance=1e-8, max_iterations=200_000)
        f = g @ (sol.alphas * y) + sol.bias
        # decisions must match the sign structure of a (near) optimal
        # solution; points essentially on the boundary are excluded
        margins = y * f
        for i in range(len(y)):
            if sol.alphas[i] <= 1e-9:
                assert margins[i] >= 1 - 1e-6
            elif sol.alphas[i] >= 10.0 - 1e-9:
                assert margins[i] <= 1 + 1e-6
            else:
                assert margins[i] == pytest.approx(1.0, abs=1e-6)


def test_trainer_config_validation():
    with pytest.raises(SchemaMismatch):
        TrainerConfig(tolerance=0.0)
    with pytest.raises(SchemaMismatch):
        TrainerConfig(epsilon=-1.0)
    with pytest.raises(SchemaMismatch):
        TrainerConfig(tolerance=float("nan"))
    with pytest.raises(SchemaMismatch):
        TrainerConfig(max_iterations=-1)
