import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_dataset
from opdense.errors import DegenerateMatrix, EmptyResult, ListTooLong, SchemaMismatch, UnknownAttribute, WrongListCount
from opdense.featsel import (
    CfsMeritScorer,
    aggregate_rank,
    correlation_eval,
    discretize_equal_frequency,
    gain_ratio,
    info_gain,
    load_selection,
    merit_from_correlations,
    one_r_eval,
    pca_eval,
    rank_attributes,
    ranker_select,
    reduce_dataset,
    relieff_scores,
    save_selection,
    search_best_first,
    search_greedy_stepwise,
    symm_uncert,
    tune_threshold,
)
from opdense.featsel.evaluators import _entropy_from_codes
from opdense.featsel.selection import AttributeScore
from opdense.kernels import KernelSpec
from opdense.svm import train_multiclass
from opdense.evaluation import holdout_evaluate

# hand-derived values for the four-instance case: classes (+,+,-,-),
# attribute bins (0,0,0,1) isolating one minus instance
IG_4 = 1.0 - 0.75 * (math.log2(3.0) - 2.0 / 3.0)          # 0.311278...
H_SPLIT_4 = 2.0 - 0.75 * math.log2(3.0)                    # 0.811278...
LABELS_4 = ["malware", "malware", "good", "good"]
BINS_4 = np.array([0, 0, 0, 1])


# --- discretization -----------------------------------------------------------

def test_equal_frequency_two_bins():
    d = discretize_equal_frequency(np.arange(1.0, 11.0), bins=2)
    assert list(d) == [0] * 5 + [1] * 5


def test_equal_frequency_constant_column():
    d = discretize_equal_frequency(np.full(8, 0.3), bins=10)
    assert set(d) == {0}


def test_equal_frequency_outlier_in_top_bin():
    values = np.array([1, 2, 3, 4, 5, 6, 7, 8, 9, 1000.0])
    d = discretize_equal_frequency(values, bins=2)
    assert d[-1] == 1
    assert list(d[:5]) == [0] * 5


# --- entropy family -----------------------------------------------------------

def _entropy_from_unique_counts(codes):
    """Entropy of the values (or, for a 2-d array, the rows) of ``codes``."""
    n = len(codes)
    if n == 0:
        return 0.0
    _, counts = np.unique(codes, axis=0, return_counts=True)
    p = counts / n
    return float(-(p * np.log2(p)).sum())


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 40), max_size=80))
@example([])
@example([7])
def test_entropy_from_codes_equals_the_unique_count_formula_bit_for_bit(values):
    codes = np.array(values, dtype=np.int64)
    assert _entropy_from_codes(codes).hex() == _entropy_from_unique_counts(codes).hex()


def _label_codes_by_definition(labels):
    return np.unique(np.array(labels, dtype=str), return_inverse=True)[1].reshape(-1)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 12), st.sampled_from(["good", "Locky", "Cerber", "malware"])),
                max_size=80))
@example([])
@example([(3, "good")] * 5)
def test_entropy_scores_equal_their_formulas_bit_for_bit(rows):
    codes = np.array([c for c, _ in rows], dtype=np.int64)
    labels = [lab for _, lab in rows]
    label_codes = _label_codes_by_definition(labels)
    h_a = _entropy_from_unique_counts(codes)
    h_b = _entropy_from_unique_counts(label_codes)
    h_ab = _entropy_from_unique_counts(np.column_stack([codes, label_codes]))
    gain = h_a + h_b - h_ab
    assert info_gain(codes, labels).hex() == gain.hex()
    assert gain_ratio(codes, labels).hex() == (0.0 if h_a == 0.0 else gain / h_a).hex()
    assert symm_uncert(codes, labels).hex() == (0.0 if h_a + h_b == 0.0 else 2.0 * gain / (h_a + h_b)).hex()


def test_info_gain_perfect_predictor():
    attr = np.array([0, 0, 1, 1])
    assert info_gain(attr, ["malware", "malware", "good", "good"]) == pytest.approx(1.0, abs=1e-12)


def test_info_gain_single_bin_is_zero():
    attr = np.zeros(4, dtype=int)
    assert info_gain(attr, LABELS_4) == 0.0


def test_info_gain_four_instance_case():
    assert info_gain(BINS_4, LABELS_4) == pytest.approx(IG_4, abs=1e-9)
    assert IG_4 == pytest.approx(0.3113, abs=5e-5)


def test_gain_ratio_four_instance_case():
    assert gain_ratio(BINS_4, LABELS_4) == pytest.approx(IG_4 / H_SPLIT_4, abs=1e-9)
    assert IG_4 / H_SPLIT_4 == pytest.approx(0.3837, abs=5e-5)


def test_gain_ratio_perfect_balanced_predictor():
    attr = np.array([0, 0, 1, 1])
    assert gain_ratio(attr, ["malware", "malware", "good", "good"]) == pytest.approx(1.0, abs=1e-12)


def test_gain_ratio_zero_split_info():
    attr = np.zeros(4, dtype=int)
    assert gain_ratio(attr, LABELS_4) == 0.0


def test_symm_uncert_four_instance_case():
    expected = 2.0 * IG_4 / (H_SPLIT_4 + 1.0)
    assert symm_uncert(BINS_4, LABELS_4) == pytest.approx(expected, abs=1e-9)
    assert expected == pytest.approx(0.3437, abs=5e-5)


def test_symm_uncert_bounds_and_independence():
    perfect = np.array([0, 0, 1, 1])
    assert symm_uncert(perfect, ["malware", "malware", "good", "good"]) == pytest.approx(1.0)
    indep = np.zeros(4, dtype=int)
    assert symm_uncert(indep, LABELS_4) == 0.0


def test_symm_uncert_is_symmetric():
    rng = np.random.RandomState(6)
    a = rng.randint(0, 3, size=30)
    b = rng.randint(0, 2, size=30)
    forward = symm_uncert(a, [str(v) for v in b])
    backward = symm_uncert(b, [str(v) for v in a])
    assert forward == pytest.approx(backward, abs=1e-12)


# --- correlation -----------------------------------------------------------------

def test_correlation_hand_computed():
    r = correlation_eval(np.array([1.0, 2.0, 3.0, 4.0]), ["0", "0", "1", "1"])
    assert r == pytest.approx(2.0 / math.sqrt(5.0), abs=1e-9)
    assert r == pytest.approx(0.8944, abs=5e-5)


def test_correlation_indicator_column_is_one():
    col = np.array([0.0, 0.0, 1.0, 1.0])
    assert correlation_eval(col, ["good", "good", "malware", "malware"]) == pytest.approx(1.0)


def test_correlation_constant_column_is_zero():
    assert correlation_eval(np.full(4, 0.2), LABELS_4) == 0.0


def test_correlation_affine_invariance_and_sign_flip():
    rng = np.random.RandomState(7)
    col = rng.rand(20)
    labels = ["good", "malware"] * 10
    base = correlation_eval(col, labels)
    assert correlation_eval(3.0 * col + 1.0, labels) == pytest.approx(base, abs=1e-12)
    assert correlation_eval(-col, labels) == pytest.approx(base, abs=1e-12)


def test_correlation_multiclass_support_weighted():
    col = np.array([0.0, 0.0, 1.0, 1.0, 2.0, 2.0])
    labels = ["good", "good", "Locky", "Locky", "Cerber", "Cerber"]
    r = correlation_eval(col, labels)
    # one-vs-rest |r| is sqrt(3)/2 for the ends and 0 for the middle class
    assert r == pytest.approx((2 / 6) * math.sqrt(3) / 2 * 2, abs=1e-9)


# --- OneR ------------------------------------------------------------------------

def test_one_r_perfect_split_twelve_instances():
    col = np.array([1, 2, 3, 4, 5, 6, 11, 12, 13, 14, 15, 16], dtype=float)
    labels = ["good"] * 6 + ["malware"] * 6
    assert one_r_eval(col, labels, min_bucket=6) == 1.0


def test_one_r_constant_attribute_majority_rate():
    col = np.zeros(10)
    labels = ["good"] * 7 + ["malware"] * 3
    assert one_r_eval(col, labels, min_bucket=6) == 0.7


def test_one_r_independent_attribute_bounded():
    rng = np.random.RandomState(11)
    col = rng.rand(60)
    labels = (["good", "malware"] * 30)
    score = one_r_eval(col, labels, min_bucket=6)
    # bucket-majority training accuracy on noise hovers above chance but
    # stays well below a real signal
    assert 0.5 <= score <= 0.75
    assert score == one_r_eval(col, labels, min_bucket=6)  # deterministic


@pytest.mark.parametrize("min_bucket", [0, -3])
def test_one_r_refuses_a_bucket_size_below_one(min_bucket):
    with pytest.raises(SchemaMismatch):
        one_r_eval(np.array([0.1, 0.2]), ["good", "malware"], min_bucket=min_bucket)
    with pytest.raises(SchemaMismatch):
        one_r_eval(np.array([]), [], min_bucket=min_bucket)


def _one_r_with_merge_pass(column, labels, min_bucket):
    """OneR as WEKA builds its rule: buckets, then adjacent buckets with
    the same majority label merged, then the merged rule's accuracy."""
    values = np.asarray(labels, dtype=object)
    n = len(column)
    order = sorted(range(n), key=lambda i: (column[i], i))
    buckets: list[list[int]] = []
    current: list[int] = []
    for pos, i in enumerate(order):
        current.append(i)
        full = len(current) >= min_bucket
        boundary = pos + 1 < n and column[order[pos + 1]] != column[i]
        if full and boundary:
            buckets.append(current)
            current = []
    if current:
        if buckets and len(current) < min_bucket:
            buckets[-1].extend(current)
        else:
            buckets.append(current)

    def majority(idx):
        counts: dict[str, int] = {}
        for i in idx:
            counts[str(values[i])] = counts.get(str(values[i]), 0) + 1
        top = max(counts.values())
        return sorted(lab for lab, c in counts.items() if c == top)[0]

    merged: list[tuple[list[int], str]] = []
    for bucket in buckets:
        lab = majority(bucket)
        if merged and merged[-1][1] == lab:
            merged[-1][0].extend(bucket)
        else:
            merged.append((bucket, lab))
    correct = sum(1 for bucket, lab in merged for i in bucket if str(values[i]) == lab)
    return correct / n if n else 0.0


ONE_R_LABELS = ("good", "Torrentlocker", "TeslaCrypt", "Locky", "CryptoWall", "Cerber")


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(st.one_of(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0)),
                          st.integers(0, 5)), max_size=60),
       st.integers(1, 11), st.integers(1, 6))
@example([], 6, 2)
@example([(0.5, i % 3) for i in range(20)], 6, 3)  # a constant column
@example([(-0.0 if i % 2 else 0.0, i % 2) for i in range(9)], 1, 2)  # -0.0 ties with 0.0
@example([(i / 12, i // 6 % 2) for i in range(12)] + [(0.99, 1)], 6, 2)  # a short tail joins its neighbour
def test_one_r_equals_the_rule_with_its_merge_pass_bit_for_bit(rows, min_bucket, n_labels):
    column = np.array([v for v, _ in rows], dtype=float)
    labels = [ONE_R_LABELS[c % n_labels] for _, c in rows]
    assert one_r_eval(column, labels, min_bucket).hex() == _one_r_with_merge_pass(column, labels, min_bucket).hex()


# --- ReliefF ---------------------------------------------------------------------

def test_relieff_exact_four_point_configuration():
    X = np.array([[0.0, 0.5], [0.0, 0.5], [1.0, 0.5], [1.0, 0.5]])
    labels = ["good", "good", "malware", "malware"]
    scores = {s.attribute: s.score for s in relieff_scores(X, labels, ["ind", "const"], k=10)}
    assert scores["ind"] == pytest.approx(1.0, abs=1e-12)
    assert scores["const"] == 0.0


def test_relieff_indicator_vs_noise_golden():
    rng = np.random.RandomState(42)
    n_each = 10
    good = np.column_stack([np.zeros(n_each), np.full(n_each, 0.5), rng.rand(n_each)])
    mal = np.column_stack([np.ones(n_each), np.full(n_each, 0.5), rng.rand(n_each)])
    X = np.vstack([good, mal])
    labels = ["good"] * n_each + ["malware"] * n_each
    scores = {s.attribute: s.score for s in relieff_scores(X, labels, ["ind", "const", "noise"], k=3)}
    assert scores["ind"] > 0.9
    assert scores["const"] == 0.0
    assert abs(scores["noise"]) < 0.2
    assert scores["noise"] == pytest.approx(-0.020947827572208, abs=1e-12)


def test_relieff_duplicating_instances_keeps_order():
    rng = np.random.RandomState(5)
    n_each = 8
    good = np.column_stack([np.zeros(n_each), rng.rand(n_each)])
    mal = np.column_stack([np.ones(n_each), rng.rand(n_each)])
    X = np.vstack([good, mal])
    labels = ["good"] * n_each + ["malware"] * n_each
    base = relieff_scores(X, labels, ["ind", "noise"], k=3)
    doubled = relieff_scores(np.vstack([X, X]), labels * 2, ["ind", "noise"], k=3)
    order = lambda ss: [s.attribute for s in sorted(ss, key=lambda s: -s.score)]
    assert order(base) == order(doubled) == ["ind", "noise"]


def test_relieff_single_instance_class_truncates_k():
    X = np.array([[0.0], [0.1], [1.0]])
    labels = ["good", "good", "malware"]
    scores = relieff_scores(X, labels, ["a"], k=10)
    assert np.isfinite(scores[0].score)


# --- PCA -------------------------------------------------------------------------

def test_pca_perfectly_correlated_columns():
    base = np.array([0.1, 0.2, 0.5, 0.7, 0.9])
    ds = make_dataset(np.column_stack([base, base]), ["good", "malware"] * 2 + ["good"])
    result = pca_eval(ds, matrix="correlation", variance_cover=0.95)
    assert result.pca.eigenvalues[0] == pytest.approx(2.0, abs=1e-12)
    assert len(result.pca.eigenvalues) == 1
    assert result.retained == ("pc1",)


def test_pca_equal_eigenvalues_need_ceiling_share():
    hadamard = np.array([
        [1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1],
        [-1, 1, 1, -1], [-1, -1, 1, 1], [-1, 1, -1, 1], [-1, -1, -1, -1],
    ], dtype=float)
    ds = make_dataset((hadamard + 1.0) / 2.0, ["good", "malware"] * 4)
    result = pca_eval(ds, matrix="correlation", variance_cover=0.95)
    assert np.allclose(result.pca.eigenvalues, 1.0)
    assert len(result.retained) == 4  # ceil(0.95 * 4)


def test_pca_covariance_reduces_harder_on_unequal_scales():
    rng = np.random.RandomState(3)
    big = rng.rand(40) * 0.9
    small = rng.rand(40, 4) * 1e-4
    ds = make_dataset(np.column_stack([big, small]), ["good", "malware"] * 20)
    corr_result = pca_eval(ds, matrix="correlation")
    cov_result = pca_eval(ds, matrix="covariance")
    assert len(cov_result.retained) < len(corr_result.retained)
    assert len(cov_result.retained) == 1


def test_pca_needs_two_attributes():
    ds = make_dataset([[0.1], [0.2]], ["good", "malware"])
    with pytest.raises(DegenerateMatrix):
        pca_eval(ds)


def test_pca_refuses_an_unknown_matrix_kind():
    ds = make_dataset([[0.1, 0.5], [0.2, 0.3]], ["good", "malware"])
    with pytest.raises(SchemaMismatch, match="unknown matrix kind 'x'"):
        pca_eval(ds, matrix="x")


def test_attribute_score_refuses_nan():
    with pytest.raises(SchemaMismatch, match="score for 'mov' is not finite"):
        AttributeScore("mov", float("nan"))


def test_pca_reduce_projects_and_rescales():
    rng = np.random.RandomState(8)
    ds = make_dataset(rng.rand(12, 5), ["good", "malware"] * 6)
    result = pca_eval(ds, variance_cover=0.99)
    reduced = reduce_dataset(ds, result)
    assert reduced.attributes == result.retained
    assert reduced.X.min() >= 0.0 and reduced.X.max() <= 1.0


def test_pca_reduce_maps_a_row_alone_as_inside_the_full_set():
    rng = np.random.RandomState(5)
    ds = make_dataset(rng.rand(40, 6), ["good", "malware"] * 20)
    result = pca_eval(ds)
    full = reduce_dataset(ds, result)
    for i in (0, 13, 39):
        alone = reduce_dataset(make_dataset(ds.X[i:i + 1], ds.labels[i:i + 1]), result)
        assert np.allclose(alone.X[0], full.X[i], rtol=0.0, atol=1e-12), i


# --- CFS -------------------------------------------------------------------------

def test_cfs_formula_values():
    assert merit_from_correlations(1, 0.8, 0.0) == pytest.approx(0.8, abs=1e-12)
    assert merit_from_correlations(2, 0.8, 1.0) == pytest.approx(0.8, abs=1e-12)
    assert merit_from_correlations(2, 0.8, 0.0) == pytest.approx(1.6 / math.sqrt(2.0), abs=1e-12)
    assert merit_from_correlations(0, 0.5, 0.5) == 0.0


def test_cfs_single_attribute_equals_class_correlation():
    ds = make_dataset(
        np.array([[0.1, 0.3], [0.2, 0.4], [0.8, 0.2], [0.9, 0.1]]),
        ["good", "good", "malware", "malware"],
        ("sig", "noise"),
    )
    scorer = CfsMeritScorer(ds)
    assert scorer.merit(("sig",)) == pytest.approx(scorer.class_correlation("sig"), abs=1e-12)
    assert CfsMeritScorer(ds).merit(("sig",)) == pytest.approx(scorer.merit(("sig",)), abs=1e-12)


def test_cfs_duplicate_attribute_adds_nothing():
    base = np.array([0.0, 0.0, 1.0, 1.0])
    ds = make_dataset(np.column_stack([base, base]),
                      ["good", "good", "malware", "malware"], ("a", "b"))
    scorer = CfsMeritScorer(ds)
    solo = scorer.merit(("a",))
    both = scorer.merit(("a", "b"))
    assert solo == pytest.approx(1.0, abs=1e-12)  # perfect predictor
    assert both <= solo + 1e-12


def test_cfs_empty_subset_zero():
    ds = make_dataset([[0.1], [0.9]], ["good", "malware"])
    assert CfsMeritScorer(ds).merit(()) == 0.0


# --- searches --------------------------------------------------------------------

def _signal_noise_dataset(n=40, noise_attrs=3, seed=2):
    rng = np.random.RandomState(seed)
    labels = ["good", "malware"] * (n // 2)
    indicator = np.array([0.0 if l == "good" else 1.0 for l in labels])
    cols = [indicator] + [rng.rand(n) for _ in range(noise_attrs)]
    names = ["sig"] + [f"noise{i}" for i in range(noise_attrs)]
    return make_dataset(np.column_stack(cols), labels, tuple(names))


def test_best_first_finds_the_predictive_attribute():
    ds = _signal_noise_dataset()
    scorer = CfsMeritScorer(ds)
    result = search_best_first(ds.attributes, scorer)
    assert result.retained == ("sig",)


def test_best_first_constant_merit_returns_empty():
    ds = _signal_noise_dataset()
    result = search_best_first(ds.attributes, lambda subset: 0.0)
    assert result.retained == ()


def test_best_first_terminates_on_parity_style_merit():
    # a merit the greedy walk cannot climb: only the full pair scores
    attrs = ("a", "b", "c")
    def merit(subset):
        return 1.0 if set(subset) == {"a", "b"} else 0.0
    result = search_best_first(attrs, merit, backtrack_limit=2)
    assert isinstance(result.retained, tuple)  # termination is the contract


def test_greedy_stepwise_matches_best_first_singleton():
    ds = _signal_noise_dataset()
    scorer = CfsMeritScorer(ds)
    greedy = search_greedy_stepwise(ds.attributes, scorer)
    assert greedy.retained == ("sig",)


def test_greedy_ranking_cutoffs():
    ds = _signal_noise_dataset()
    scorer = CfsMeritScorer(ds)
    ranked = search_greedy_stepwise(ds.attributes, scorer, generate_ranking=True,
                                    num_to_select=3)
    assert len(ranked.retained) == 3
    assert ranked.retained[0] == "sig"
    assert ranked.scores is not None and len(ranked.scores) == len(ds.attributes)


def test_ranker_zero_threshold_drops_zero_scores():
    scores = [AttributeScore("a", 0.5), AttributeScore("b", -0.1), AttributeScore("c", 0.0)]
    result = ranker_select(scores, threshold=0.0)
    assert result.retained == ("a",)


def test_ranker_num_to_select_truncates():
    scores = [AttributeScore("a", 0.5), AttributeScore("b", 0.4), AttributeScore("c", 0.3)]
    result = ranker_select(scores, threshold=0.0, num_to_select=2)
    assert result.retained == ("a", "b")


@pytest.mark.parametrize("num_to_select", [-1, 0, True])
def test_num_to_select_must_be_a_positive_integer(num_to_select):
    scores = [AttributeScore("a", 0.5), AttributeScore("b", 0.4), AttributeScore("c", 0.3)]
    with pytest.raises(SchemaMismatch):
        ranker_select(scores, threshold=0.0, num_to_select=num_to_select)
    ds = _signal_noise_dataset()
    with pytest.raises(SchemaMismatch):
        search_greedy_stepwise(ds.attributes, CfsMeritScorer(ds), generate_ranking=True,
                               num_to_select=num_to_select)


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
def test_a_threshold_that_is_not_finite_is_refused_by_both_searches(threshold):
    scores = [AttributeScore("a", 0.5), AttributeScore("b", 0.4)]
    with pytest.raises(SchemaMismatch):
        ranker_select(scores, threshold=threshold)
    ds = _signal_noise_dataset()
    with pytest.raises(SchemaMismatch):
        search_greedy_stepwise(ds.attributes, CfsMeritScorer(ds), threshold=threshold, generate_ranking=True)


def test_ranker_equal_scores_alphabetical():
    scores = [AttributeScore(n, 0.5) for n in ("c", "a", "b")]
    result = ranker_select(scores, threshold=0.0)
    assert result.retained == ("a", "b", "c")


def test_ranker_idempotent():
    scores = [AttributeScore("a", 0.5), AttributeScore("b", 0.2), AttributeScore("c", -0.5)]
    first = ranker_select(scores, threshold=0.0)
    again = ranker_select(list(first.scores), threshold=0.0)
    assert again.retained == first.retained


def test_reduce_dataset_projection():
    ds = _signal_noise_dataset()
    result = ranker_select([AttributeScore("sig", 1.0)], threshold=0.0)
    reduced = reduce_dataset(ds, result)
    assert reduced.attributes == ("sig",)
    assert reduced.n_instances == ds.n_instances


def test_reduce_dataset_identity():
    ds = _signal_noise_dataset()
    scores = [AttributeScore(a, 1.0) for a in ds.attributes]
    reduced = reduce_dataset(ds, ranker_select(scores, threshold=0.0))
    assert set(reduced.attributes) == set(ds.attributes)


def test_reduce_dataset_unknown_attribute():
    ds = _signal_noise_dataset()
    bad = ranker_select([AttributeScore("missing", 1.0)], threshold=0.0)
    with pytest.raises(UnknownAttribute):
        reduce_dataset(ds, bad)


def test_rank_attributes_all_rankers_run():
    ds = _signal_noise_dataset()
    for evaluator in ("info_gain", "gain_ratio", "symm_uncert", "correlation", "one_r", "relieff"):
        scores = rank_attributes(ds, evaluator)
        assert len(scores) == ds.n_attributes
        by_name = {s.attribute: s.score for s in scores}
        assert by_name["sig"] == max(by_name.values())


@pytest.mark.parametrize("evaluator", ["pca", "cfs_subset", "nonsense"])
def test_non_ranking_evaluator_rejected(evaluator):
    X = np.random.RandomState(9).rand(10, 2)
    with pytest.raises(SchemaMismatch):
        rank_attributes(make_dataset(X, ["good", "malware"] * 5), evaluator)


def test_entropy_scores_respect_bounds():
    rng = np.random.RandomState(21)
    labels = [str(v) for v in rng.randint(0, 2, size=50)]
    for _ in range(30):
        attr = discretize_equal_frequency(rng.rand(50), bins=10)
        ig = info_gain(attr, labels)
        assert 0.0 <= ig <= 1.0 + 1e-12  # bounded by the binary class entropy
        assert 0.0 <= gain_ratio(attr, labels) <= 1.0 + 1e-12
        assert 0.0 <= symm_uncert(attr, labels) <= 1.0 + 1e-12


# --- threshold tuning --------------------------------------------------------------

def test_tune_threshold_prunes_noise_without_precision_loss():
    rng = np.random.RandomState(9)
    n = 60
    labels = ["good", "malware"] * (n // 2)
    indicator = np.array([0.0 if l == "good" else 1.0 for l in labels])
    cols = [indicator + rng.rand(n) * 0.05, 1.0 - indicator + rng.rand(n) * 0.05]
    cols += [rng.rand(n) for _ in range(18)]
    names = ["sig0", "sig1"] + [f"n{i:02d}" for i in range(18)]
    ds = make_dataset(np.clip(np.column_stack(cols), 0, 1), labels, tuple(names))
    train = make_dataset(ds.X[: n // 2], ds.labels[: n // 2], ds.attributes)
    test = make_dataset(ds.X[n // 2:], ds.labels[n // 2:], ds.attributes)

    scores = rank_attributes(train, "correlation")
    spec = KernelSpec(family="poly", C=10.0)

    def classifier_fn(tr, te):
        return holdout_evaluate(train_multiclass(tr, spec), te)

    threshold, best, sweep = tune_threshold(train, test, scores, classifier_fn)
    assert len(best.retained) <= 5
    baseline = sweep[0]["metric"]
    chosen = [e for e in sweep if e["retained"] == len(best.retained)][0]
    assert chosen["metric"] >= baseline - 1e-12


def test_tune_threshold_falls_back_to_full_set():
    ds = _signal_noise_dataset(n=20, noise_attrs=2)
    scores = rank_attributes(ds, "correlation")

    calls = {"n": 0}
    def decreasing_metric(tr, te):
        # fabricate a classifier whose quality strictly degrades whenever
        # any attribute is dropped
        from opdense.evaluation import class_metrics, confusion_matrix
        calls["n"] += 1
        good = tr.n_attributes == ds.n_attributes
        predicted = list(te.labels) if good else ["good"] * te.n_instances
        cm = confusion_matrix(list(te.labels), predicted, ("good", "malware"))
        return class_metrics(cm)

    threshold, best, sweep = tune_threshold(ds, ds, scores, decreasing_metric)
    assert set(best.retained) == set(ds.attributes)
    assert threshold < min(s.score for s in scores)


def test_tune_threshold_stops_at_the_first_step_whose_classifier_finds_nothing():
    ds = _signal_noise_dataset(n=20, noise_attrs=3)
    scores = [AttributeScore(name, float(4 - k)) for k, name in enumerate(ds.attributes)]
    seen = []

    def classifier_fn(tr, te):
        from opdense.evaluation import class_metrics, confusion_matrix
        seen.append(tr.n_attributes)
        if tr.n_attributes == 2:
            raise EmptyResult("nothing to evaluate")
        return class_metrics(confusion_matrix(list(te.labels), list(te.labels), ("good", "malware")))

    threshold, best, sweep = tune_threshold(ds, ds, scores, classifier_fn)
    assert seen == [4, 3, 2]  # the 1-attribute step after the stop is never trained
    assert [(e["threshold"], e["retained"]) for e in sweep] == [(0.0, 4), (1.0, 3)]
    assert threshold == 1.0 and best.retained == ("sig", "noise0", "noise1")


def test_tune_threshold_with_no_scores_trains_nothing():
    ds = _signal_noise_dataset(n=20, noise_attrs=2)

    def classifier_fn(tr, te):
        raise AssertionError("no baseline training without scores to sweep")

    with pytest.raises(EmptyResult):
        tune_threshold(ds, ds, [], classifier_fn)


def test_tune_threshold_rejects_fpr():
    # lower is better for fpr, so "not below the baseline" would keep the worse steps
    ds = _signal_noise_dataset(n=20, noise_attrs=2)

    def classifier_fn(tr, te):
        raise AssertionError("no training for a metric the sweep cannot tune")

    with pytest.raises(SchemaMismatch):
        tune_threshold(ds, ds, rank_attributes(ds, "correlation"), classifier_fn, metric="fpr")


# --- aggregation --------------------------------------------------------------------

def test_aggregate_weights_and_ordering():
    lists = [
        ["a", "b", "c"],
        ["b", "a"],
        ["a"],
        ["c", "b"],
        ["a", "c"],
        ["b"],
        ["a"],
    ]
    ranking = aggregate_rank(lists)
    totals = dict(ranking)
    assert totals["a"] == 21 + 20 + 21 + 21 + 21
    assert totals["b"] == 20 + 21 + 20 + 21
    assert ranking[0][0] == "a"


def test_aggregate_absent_attribute_scores_zero():
    lists = [["a"]] + [[] for _ in range(6)]
    totals = dict(aggregate_rank(lists))
    assert totals.get("zzz", 0) == 0


def test_aggregate_requires_seven_lists():
    with pytest.raises(WrongListCount):
        aggregate_rank([["a"]] * 6)


def test_aggregate_rejects_long_lists():
    with pytest.raises(ListTooLong):
        aggregate_rank([["x"] * 22] + [[] for _ in range(6)])


def test_aggregate_is_permutation_invariant():
    lists = [["a", "b"], ["b"], ["c", "a"], [], ["a"], ["b", "c"], ["c"]]
    fwd = aggregate_rank(lists)
    rev = aggregate_rank(list(reversed(lists)))
    assert fwd == rev


# --- selection files -----------------------------------------------------------------

def test_selection_round_trip():
    scores = [AttributeScore("mov", 0.5), AttributeScore("ret", 0.25)]
    result = ranker_select(scores, threshold=0.1, num_to_select=None, evaluator="info_gain")
    text = save_selection(result)
    again = load_selection(text)
    assert again.retained == result.retained
    assert again.evaluator == "info_gain"
    assert save_selection(again) == text


def test_pca_selection_round_trip_projects_identically():
    rng = np.random.RandomState(12)
    ds = make_dataset(rng.rand(10, 4), ["good", "malware"] * 5)
    result = pca_eval(ds)
    again = load_selection(save_selection(result))
    a = reduce_dataset(ds, result)
    b = reduce_dataset(ds, again)
    assert np.allclose(a.X, b.X, atol=1e-15)
