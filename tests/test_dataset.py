import math
from dataclasses import replace
from decimal import ROUND_HALF_UP, Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_dataset
from opdense.dataset import (
    DENSITY_DECIMALS,
    Dataset,
    ScalingParams,
    assemble,
    build_master_list,
    iqr_flag,
    minmax_scale,
    project,
    quantile,
    shuffle,
    sort_attributes_by_mean_density,
    split_percentage,
)
from opdense.errors import (
    EmptyResult,
    SchemaMismatch,
    TooFewInstances,
    UnknownAttribute,
    UnknownMnemonic,
)
from opdense.labels import ClassLabel, LabelScheme
from opdense.reports import LabeledHistogram, OpcodeHistogram
from opdense.rng import permutation
from opdense.rounding import round_half_up_fractions


def lh(sample_id, counts, label="good", total=None, scheme=LabelScheme.binary):
    h = OpcodeHistogram(sample_id=sample_id, counts=counts,
                        total=total or sum(counts.values()), source="report")
    return LabeledHistogram(h, ClassLabel(scheme, label))


# --- density -----------------------------------------------------------------

def test_density_eight_decimals_half_up():
    assert round_half_up_fractions([2368], 7215, DENSITY_DECIMALS) == [0.32820513]  # displays as 33%
    assert round_half_up_fractions([0], 1_000_000, DENSITY_DECIMALS) == [0.0]
    assert round_half_up_fractions([5], 1_192_874, DENSITY_DECIMALS) == [0.00000419]  # nonzero, unlike 2 decimals


def test_density_half_up_rounding_mode():
    # 1/8000 = 0.000125 -> half-up at 8 decimals keeps 0.0001250...
    assert round_half_up_fractions([1], 80_000_000, DENSITY_DECIMALS) == [0.00000001]  # 1.25e-8 rounds down
    assert round_half_up_fractions([3], 200_000_000, DENSITY_DECIMALS) == [0.00000002]  # exactly 1.5e-8 rounds up


def decimal_half_up(numerator: int, denominator: int, places: int) -> float:
    """Reference rule: the quotient to 50 significant digits, quantized
    half-up with the decimal module."""
    with localcontext() as ctx:
        ctx.prec = 50
        q = Decimal(numerator) / Decimal(denominator)
        return float(q.quantize(Decimal(1).scaleb(-places), rounding=ROUND_HALF_UP))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 10**12), max_size=6), st.integers(1, 10**12), st.sampled_from([2, 8]))
def test_round_half_up_fraction_matches_decimal_reference(numerators, denominator, places):
    assert round_half_up_fractions(numerators, denominator, places) == \
        [decimal_half_up(n, denominator, places) for n in numerators]


@pytest.mark.parametrize("numerator, denominator, places, expected", [
    (1, 8, 2, 0.13),  # 0.125: the tie rounds up
    (5, 10**9, 8, 1e-8),  # 0.000000005: the tie rounds up
    (0, 7, 8, 0.0),
    (3, 8, 2, 0.38),
    (1, 3, 8, 0.33333333),
])
def test_round_half_up_fraction_ties(numerator, denominator, places, expected):
    assert round_half_up_fractions([numerator], denominator, places) == [expected]
    assert decimal_half_up(numerator, denominator, places) == expected


@pytest.mark.parametrize("numerators, denominator, places, expected", [
    ([], 7, 8, []),
    ([7], 7, 8, [1.0]),  # a count equal to the total
    ([700], 7, 2, [100.0]),  # a report percentage of a count equal to the total
    ([1, 3, 0, 8], 8, 2, [0.13, 0.38, 0.0, 1.0]),  # each cell of the row rounds alone
], ids=["empty row", "count equal to total", "percent of the total", "ties in one row"])
def test_round_half_up_fractions_of_a_row(numerators, denominator, places, expected):
    assert round_half_up_fractions(numerators, denominator, places) == expected
    assert [decimal_half_up(n, denominator, places) for n in numerators] == expected


# --- master list / assemble ----------------------------------------------------

def test_master_list_sorted_union():
    hs = [lh("a", {"mov": 1, "push": 1}), lh("b", {"mov": 2, "xor": 1})]
    assert build_master_list(hs) == ["mov", "push", "xor"]


def test_master_list_single():
    assert build_master_list([lh("a", {"ret": 3})]) == ["ret"]


def test_assemble_fills_missing_with_zero():
    hs = [lh("a", {"mov": 1, "ret": 1})]
    ds = assemble(hs, ["mov", "push", "ret"])
    assert ds.attributes == ("mov", "push", "ret")
    assert np.allclose(ds.X[0], [0.5, 0.0, 0.5])


def test_assemble_orders_by_sample_id():
    hs = [lh("b", {"mov": 1}, "malware"), lh("a", {"mov": 1}, "good")]
    ds = assemble(hs, ["mov"])
    assert ds.labels == ("good", "malware")


def test_assemble_disjoint_rows_zero_elsewhere():
    hs = [lh("a", {"mov": 2}), lh("b", {"xor": 3}, "malware")]
    ds = assemble(hs, ["mov", "xor"])
    assert ds.X[0, 1] == 0.0 and ds.X[1, 0] == 0.0


def test_assemble_equal_densities_despite_total_scale():
    hs = [lh("a", {"mov": 2368}, total=7215),
          lh("b", {"mov": 398332}, "malware", total=1192874)]
    ds = assemble(hs, ["mov"])
    assert abs(ds.X[0, 0] - ds.X[1, 0]) < 6e-3  # both about 0.33


def test_master_list_and_assembly_refuse_no_histograms():
    with pytest.raises(EmptyResult):
        build_master_list([])
    with pytest.raises(EmptyResult):
        assemble([], ["mov"])


def test_assemble_unknown_mnemonic():
    with pytest.raises(UnknownMnemonic):
        assemble([lh("a", {"mov": 1})], ["push"])


def test_assemble_dedupe():
    hs = [lh("a", {"mov": 1, "ret": 1}), lh("b", {"mov": 1, "ret": 1}),
          lh("c", {"mov": 3, "ret": 1})]
    ds = assemble(hs, ["mov", "ret"], dedupe=True)
    assert ds.n_instances == 2


def test_assemble_dedupe_keeps_the_first_of_each_row_in_sample_order():
    hs = [lh("d", {"mov": 3, "ret": 1}, "malware"), lh("c", {"mov": 1, "ret": 1}, "malware"),
          lh("b", {"mov": 1, "ret": 1}), lh("a", {"mov": 3, "ret": 1})]
    ds = assemble(hs, ["mov", "ret"], dedupe=True)
    assert ds.X.tolist() == [[0.75, 0.25], [0.5, 0.5]]
    assert ds.labels == ("good", "good")


@given(st.lists(st.tuples(st.dictionaries(st.sampled_from(["mov", "push", "ret", "xor"]),
                                          st.integers(0, 10**30), min_size=1),
                          st.integers(0, 10**30)), min_size=1, max_size=6))
@settings(max_examples=100, deadline=None)
def test_assemble_cells_are_density_bit_for_bit(samples):
    hs = [lh(f"s{i}", counts, total=sum(counts.values()) + extra) for i, (counts, extra) in enumerate(samples)
          if sum(counts.values()) + extra > 0]
    if not hs:
        return
    master = ["mov", "push", "ret", "xor"]
    ds = assemble(hs, master)
    for row, item in zip(ds.X.tolist(), hs):
        h = item.histogram
        densities = dict(zip(h.counts, round_half_up_fractions(h.counts.values(), h.total, DENSITY_DECIMALS)))
        assert row == [densities.get(name, 0.0) for name in master]


def test_assemble_density_sum_conservation():
    rng = np.random.RandomState(3)
    hs = []
    for i in range(10):
        counts = {f"op{j}": int(rng.randint(0, 1000)) + 1 for j in range(20)}
        hs.append(lh(f"s{i:02d}", counts))
    master = build_master_list(hs)
    ds = assemble(hs, master)
    for row, item in zip(ds.X, sorted(hs, key=lambda x: x.histogram.sample_id)):
        expected = sum(item.histogram.counts.values()) / item.histogram.total
        assert abs(row.sum() - expected) <= len(master) * 5e-9


# --- attribute ordering ---------------------------------------------------------

def test_sort_by_mean_density():
    ds = make_dataset([[0.1, 0.5], [0.1, 0.5]], ["good", "malware"], ("a", "b"))
    out = sort_attributes_by_mean_density(ds)
    assert out.attributes == ("b", "a")
    assert np.allclose(out.X, [[0.5, 0.1], [0.5, 0.1]])


def test_sort_ties_alphabetical():
    ds = make_dataset([[0.3, 0.3, 0.3]], ["good"], ("c", "a", "b"))
    out = sort_attributes_by_mean_density(ds)
    assert out.attributes == ("a", "b", "c")


# --- scaling ---------------------------------------------------------------------

def test_minmax_scale_basic():
    ds = make_dataset([[0.2], [0.4], [0.6]], ["good", "good", "malware"])
    scaled, params = minmax_scale(ds)
    assert np.allclose(scaled.X[:, 0], [0.0, 0.5, 1.0])
    assert params.mins == (0.2,) and params.maxs == (0.6,)


def test_minmax_constant_column_maps_to_zero():
    ds = make_dataset([[0.3], [0.3]], ["good", "malware"])
    scaled, _ = minmax_scale(ds)
    assert np.all(scaled.X == 0.0)


def test_apply_scaling_clamps():
    train = make_dataset([[0.2], [0.6]], ["good", "malware"])
    _, params = minmax_scale(train)
    test = make_dataset([[0.8]], ["good"])
    out = replace(test, X=params.apply(test.X), scaling=params)
    assert out.X[0, 0] == 1.0


def test_apply_scaling_reproduces_training_exactly():
    rng = np.random.RandomState(0)
    ds = make_dataset(rng.rand(7, 4), ["good", "malware"] * 3 + ["good"])
    scaled, params = minmax_scale(ds)
    again = replace(ds, X=params.apply(ds.X), scaling=params)
    assert np.array_equal(scaled.X, again.X)


def test_scaling_refuses_a_matrix_of_another_width():
    params = ScalingParams.fit(np.array([[0.2, 0.1], [0.6, 0.3]]))
    with pytest.raises(SchemaMismatch, match="scaling width does not match dataset"):
        params.apply(np.array([[0.5, 0.5, 0.5]]))


def test_minmax_output_in_unit_interval():
    rng = np.random.RandomState(1)
    ds = make_dataset(rng.rand(20, 6) * 0.05, ["good", "malware"] * 10)
    scaled, _ = minmax_scale(ds)
    assert scaled.X.min() >= 0.0 and scaled.X.max() <= 1.0


# --- quantiles / IQR ---------------------------------------------------------------

def test_quantile_interpolation_rule():
    # position (n+1)*q over the order statistics, clamped to [1, n]
    values = list(range(1, 101)) + [10000]
    assert quantile(values, [0.25]).tolist() == [25.5]
    assert quantile(values, [0.75]).tolist() == [76.5]
    assert quantile([1.0, 2.0], [0.25]).tolist() == [1.0]  # clamped at the low end


def _per_level_quantile(values, q):
    """The quantile rule as one sort per level: the oracle of the
    many-level form."""
    data = np.sort(np.asarray(values, dtype=float))
    n = data.size
    pos = min(max((n + 1) * q, 1.0), float(n))
    lo = int(math.floor(pos))
    frac = pos - lo
    if lo >= n:
        return float(data[-1])
    return float(data[lo - 1] + frac * (data[lo] - data[lo - 1]))


_QUANTILE_VALUE = st.floats(-1e6, 1e6, allow_nan=False) | st.sampled_from([0.0, -0.0, 0.5, 1.0])


@settings(max_examples=300, deadline=None)
@given(st.lists(_QUANTILE_VALUE, min_size=1, max_size=40), st.integers(2, 11))
def test_quantile_of_many_levels_equals_the_per_level_rule_bit_for_bit(values, bins):
    levels = [k / bins for k in range(1, bins)] + [0.0, 0.25, 0.75, 1.0]
    many = quantile(values, levels)
    assert many.tobytes() == np.array([_per_level_quantile(values, q) for q in levels]).tobytes()
    for q, value in zip(levels, many):
        assert quantile(values, [q])[0].tobytes() == value.tobytes()


def test_quantile_of_no_values_raises_for_any_levels():
    with pytest.raises(EmptyResult):
        quantile([], (0.25, 0.75))


def test_iqr_flags_far_outlier_as_extreme():
    # Q1=25.5, Q3=76.5, IQR=51: 10000 exceeds both the 3x and 6x fences
    col = np.array(list(range(1, 101)) + [10000], dtype=float) / 10001.0
    labels = ["good", "malware"] * 50 + ["good"]
    ds = make_dataset(col.reshape(-1, 1), labels)
    flags = iqr_flag(ds)
    assert flags.outlier.sum() == 1 and flags.extreme.sum() == 1
    assert flags.outlier[100] and flags.extreme[100]


def test_iqr_no_flags_for_constant_column():
    ds = make_dataset([[0.5]] * 8, ["good", "malware"] * 4)
    flags = iqr_flag(ds)
    assert not flags.outlier.any() and not flags.extreme.any()


def test_iqr_symmetric_column_unflagged():
    ds = make_dataset([[0.0], [1.0]] * 10, ["good", "malware"] * 10)
    flags = iqr_flag(ds)
    assert not flags.outlier.any()


def test_iqr_extreme_implies_outlier_always():
    rng = np.random.RandomState(5)
    ds = make_dataset(rng.rand(30, 3) ** 4, ["good", "malware"] * 15)
    flags = iqr_flag(ds)
    assert not (flags.extreme & ~flags.outlier).any()


def test_iqr_too_few_instances():
    ds = make_dataset([[0.1], [0.2], [0.3]], ["good", "good", "malware"])
    with pytest.raises(TooFewInstances):
        iqr_flag(ds)


# --- shuffle / split -----------------------------------------------------------------

GOLDEN_PERMUTATION_5_SEED_42 = permutation(5, 42)
GOLDEN_PERMUTATION_5_SEED_43 = permutation(5, 43)


def test_shuffle_deterministic_and_seed_sensitive():
    ds = make_dataset(np.arange(10).reshape(5, 2) / 10.0,
                      ["good", "good", "good", "malware", "malware"])
    a = shuffle(ds, 42)
    b = shuffle(ds, 42)
    c = shuffle(ds, 43)
    assert np.array_equal(a.X, b.X) and a.labels == b.labels
    assert GOLDEN_PERMUTATION_5_SEED_42 != GOLDEN_PERMUTATION_5_SEED_43
    assert not np.array_equal(a.X, c.X)


def test_shuffle_is_permutation():
    ds = make_dataset(np.arange(12).reshape(6, 2) / 12.0, ["good", "malware"] * 3)
    out = shuffle(ds, 7)
    assert sorted(map(tuple, out.X)) == sorted(map(tuple, ds.X))
    assert sorted(out.labels) == sorted(ds.labels)


def test_shuffle_single_instance_unchanged():
    ds = make_dataset([[0.5, 0.5]], ["good"])
    out = shuffle(ds, 42)
    assert np.array_equal(out.X, ds.X)


def test_split_counts_use_ceiling():
    ds = make_dataset(np.arange(10).reshape(10, 1) / 10.0, ["good", "malware"] * 5)
    train = split_percentage(ds, 30.0, invert=False)
    test = split_percentage(ds, 30.0, invert=True)
    assert train.n_instances == 7 and test.n_instances == 3
    assert np.array_equal(test.X[:, 0], ds.X[:3, 0])
    assert np.array_equal(train.X[:, 0], ds.X[3:, 0])


def test_split_partitions_dataset():
    ds = make_dataset(np.arange(14).reshape(7, 2) / 14.0,
                      ["good", "malware", "good", "malware", "good", "malware", "good"])
    train = split_percentage(ds, 30.0, invert=False)
    test = split_percentage(ds, 30.0, invert=True)
    combined = sorted(map(tuple, np.vstack([train.X, test.X])))
    assert combined == sorted(map(tuple, ds.X))


def test_split_empty_side_rejected():
    ds = make_dataset([[0.1], [0.2]], ["good", "malware"])
    with pytest.raises(EmptyResult):
        split_percentage(ds, 99.0, invert=False)  # ceil(1.98) = 2 removed, nothing left
    with pytest.raises(SchemaMismatch):
        split_percentage(ds, 0.0, invert=False)


# --- dataset validation ---------------------------------------------------------------

def test_dataset_rejects_mismatched_labels():
    with pytest.raises(SchemaMismatch):
        make_dataset([[0.1]], ["good", "malware"])


def test_dataset_rejects_duplicate_attributes():
    with pytest.raises(SchemaMismatch):
        make_dataset([[0.1, 0.2]], ["good"], ("mov", "mov"))


@pytest.mark.parametrize("X, attributes, scaling, message", [
    ([0.1, 0.2], ("mov", "push"), None, "two dimensional"),
    ([[0.1, 0.2]], ("mov",), None, "attribute count does not match"),
    ([[0.1, 0.2]], ("mov", "push"), ScalingParams((0.0,), (1.0,)), "scaling width"),
], ids=["1-D matrix", "wrong width", "wrong scaling width"])
def test_dataset_refuses_a_matrix_or_scaling_of_the_wrong_shape(X, attributes, scaling, message):
    with pytest.raises(SchemaMismatch, match=message):
        Dataset(attributes=attributes, X=np.array(X), labels=("good",), scheme=LabelScheme.binary, scaling=scaling)


@pytest.mark.parametrize("name", ["", "a b", "a,b", "mov\t", "\u3000mov", "ret\x85"])
def test_dataset_rejects_a_name_a_csv_or_arff_header_cannot_carry(name):
    with pytest.raises(SchemaMismatch, match="attribute name"):
        make_dataset([[0.1, 0.2]], ["good"], ("mov", name))


def test_project_slices_the_scaling_in_the_requested_column_order():
    ds = make_dataset([[0.1, 0.2, 0.9], [0.5, 0.6, 0.3]], ["good", "malware"], ("mov", "push", "xor"))
    scaled, params = minmax_scale(ds)
    projected = project(scaled, ["xor", "mov"])
    assert projected.attributes == ("xor", "mov")
    assert np.array_equal(projected.X, scaled.X[:, [2, 0]])
    assert projected.scaling.mins == (params.mins[2], params.mins[0]) == (0.3, 0.1)
    assert projected.scaling.maxs == (params.maxs[2], params.maxs[0]) == (0.9, 0.5)


def test_project_onto_a_missing_attribute():
    with pytest.raises(UnknownAttribute, match="'xor'"):
        project(make_dataset([[0.1]], ["good"], ("mov",)), ["mov", "xor"])


def test_dataset_rejects_negative_entries():
    with pytest.raises(SchemaMismatch):
        make_dataset([[-0.1]], ["good"])


def test_dataset_rejects_unknown_label():
    with pytest.raises(SchemaMismatch):
        make_dataset([[0.1]], ["virus"])


def test_dataset_names_the_first_bad_label():
    with pytest.raises(SchemaMismatch, match="label 'virus' not valid"):
        make_dataset([[0.1]] * 4, ["good", "malware", "virus", "worm"])


def test_dataset_rejects_an_unhashable_label():
    with pytest.raises(SchemaMismatch, match=r"label \['good'\] not valid"):
        make_dataset([[0.1], [0.2]], ["good", ["good"]])


def test_dataset_matrix_is_frozen():
    ds = make_dataset([[0.1]], ["good"])
    with pytest.raises(ValueError):
        ds.X[0, 0] = 0.5
