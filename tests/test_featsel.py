import math

import numpy as np
import pytest

from conftest import make_dataset
from opdense.errors import DegenerateMatrix, ListTooLong, SchemaMismatch, UnknownMnemonic, WrongListCount
from opdense.featsel import (
    CfsMeritScorer,
    aggregate_rank,
    cfs_merit,
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
from opdense.featsel.evaluators import DiscretizedAttribute
from opdense.featsel.selection import AttributeScore
from opdense.kernels import KernelSpec
from opdense.svm import train_multiclass
from opdense.evaluation import holdout_evaluate

# hand-derived values for the four-instance case: classes (+,+,-,-),
# attribute bins (0,0,0,1) isolating one minus instance
IG_4 = 1.0 - 0.75 * (math.log2(3.0) - 2.0 / 3.0)          # 0.311278...
H_SPLIT_4 = 2.0 - 0.75 * math.log2(3.0)                    # 0.811278...
LABELS_4 = ["malware", "malware", "good", "good"]
BINS_4 = DiscretizedAttribute(edges=(0.5,), indices=np.array([0, 0, 0, 1]))


# --- discretization -----------------------------------------------------------

def test_equal_frequency_two_bins():
    d = discretize_equal_frequency(np.arange(1.0, 11.0), bins=2)
    assert list(d.indices) == [0] * 5 + [1] * 5


def test_equal_frequency_constant_column():
    d = discretize_equal_frequency(np.full(8, 0.3), bins=10)
    assert set(d.indices) == {0}


def test_equal_frequency_outlier_in_top_bin():
    values = np.array([1, 2, 3, 4, 5, 6, 7, 8, 9, 1000.0])
    d = discretize_equal_frequency(values, bins=2)
    assert d.indices[-1] == 1
    assert list(d.indices[:5]) == [0] * 5


# --- entropy family -----------------------------------------------------------

def test_info_gain_perfect_predictor():
    attr = DiscretizedAttribute(edges=(0.5,), indices=np.array([0, 0, 1, 1]))
    assert info_gain(attr, ["malware", "malware", "good", "good"]) == pytest.approx(1.0, abs=1e-12)


def test_info_gain_single_bin_is_zero():
    attr = DiscretizedAttribute(edges=(), indices=np.zeros(4, dtype=int))
    assert info_gain(attr, LABELS_4) == 0.0


def test_info_gain_four_instance_case():
    assert info_gain(BINS_4, LABELS_4) == pytest.approx(IG_4, abs=1e-9)
    assert IG_4 == pytest.approx(0.3113, abs=5e-5)


def test_gain_ratio_four_instance_case():
    assert gain_ratio(BINS_4, LABELS_4) == pytest.approx(IG_4 / H_SPLIT_4, abs=1e-9)
    assert IG_4 / H_SPLIT_4 == pytest.approx(0.3837, abs=5e-5)


def test_gain_ratio_perfect_balanced_predictor():
    attr = DiscretizedAttribute(edges=(0.5,), indices=np.array([0, 0, 1, 1]))
    assert gain_ratio(attr, ["malware", "malware", "good", "good"]) == pytest.approx(1.0, abs=1e-12)


def test_gain_ratio_zero_split_info():
    attr = DiscretizedAttribute(edges=(), indices=np.zeros(4, dtype=int))
    assert gain_ratio(attr, LABELS_4) == 0.0


def test_symm_uncert_four_instance_case():
    expected = 2.0 * IG_4 / (H_SPLIT_4 + 1.0)
    assert symm_uncert(BINS_4, LABELS_4) == pytest.approx(expected, abs=1e-9)
    assert expected == pytest.approx(0.3437, abs=5e-5)


def test_symm_uncert_bounds_and_independence():
    perfect = DiscretizedAttribute(edges=(0.5,), indices=np.array([0, 0, 1, 1]))
    assert symm_uncert(perfect, ["malware", "malware", "good", "good"]) == pytest.approx(1.0)
    indep = DiscretizedAttribute(edges=(), indices=np.zeros(4, dtype=int))
    assert symm_uncert(indep, LABELS_4) == 0.0


def test_symm_uncert_is_symmetric():
    rng = np.random.RandomState(6)
    a = rng.randint(0, 3, size=30)
    b = rng.randint(0, 2, size=30)
    attr_a = DiscretizedAttribute(edges=(), indices=a)
    attr_b = DiscretizedAttribute(edges=(), indices=b)
    forward = symm_uncert(attr_a, [str(v) for v in b])
    backward = symm_uncert(attr_b, [str(v) for v in a])
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
    model, result = pca_eval(ds, matrix="correlation", variance_cover=0.95)
    assert model.eigenvalues[0] == pytest.approx(2.0, abs=1e-12)
    assert len(model.eigenvalues) == 1
    assert result.retained == ("pc1",)


def test_pca_equal_eigenvalues_need_ceiling_share():
    hadamard = np.array([
        [1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1],
        [-1, 1, 1, -1], [-1, -1, 1, 1], [-1, 1, -1, 1], [-1, -1, -1, -1],
    ], dtype=float)
    ds = make_dataset((hadamard + 1.0) / 2.0, ["good", "malware"] * 4)
    model, result = pca_eval(ds, matrix="correlation", variance_cover=0.95)
    assert np.allclose(model.eigenvalues, 1.0)
    assert len(result.retained) == 4  # ceil(0.95 * 4)


def test_pca_covariance_reduces_harder_on_unequal_scales():
    rng = np.random.RandomState(3)
    big = rng.rand(40) * 0.9
    small = rng.rand(40, 4) * 1e-4
    ds = make_dataset(np.column_stack([big, small]), ["good", "malware"] * 20)
    _, corr_result = pca_eval(ds, matrix="correlation")
    _, cov_result = pca_eval(ds, matrix="covariance")
    assert len(cov_result.retained) < len(corr_result.retained)
    assert len(cov_result.retained) == 1


def test_pca_needs_two_attributes():
    ds = make_dataset([[0.1], [0.2]], ["good", "malware"])
    with pytest.raises(DegenerateMatrix):
        pca_eval(ds)


def test_pca_reduce_projects_and_rescales():
    rng = np.random.RandomState(8)
    ds = make_dataset(rng.rand(12, 5), ["good", "malware"] * 6)
    _, result = pca_eval(ds, variance_cover=0.99)
    reduced = reduce_dataset(ds, result)
    assert reduced.attributes == result.retained
    assert reduced.X.min() >= 0.0 and reduced.X.max() <= 1.0


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
    assert cfs_merit(("sig",), ds) == pytest.approx(scorer.merit(("sig",)), abs=1e-12)


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
    assert cfs_merit((), ds) == 0.0


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
    result = ranker_select(scores, threshold=float("-inf"), num_to_select=2)
    assert result.retained == ("a", "b")


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
    with pytest.raises(UnknownMnemonic):
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


def test_best_first_backward_direction():
    ds = _signal_noise_dataset(noise_attrs=2)
    scorer = CfsMeritScorer(ds)
    result = search_best_first(ds.attributes, scorer, direction="backward")
    assert "sig" in result.retained
    assert len(result.retained) <= ds.n_attributes


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
    totals = ranking.totals()
    assert totals["a"] == 21 + 20 + 21 + 21 + 21
    assert totals["b"] == 20 + 21 + 20 + 21
    assert ranking.entries[0][0] == "a"


def test_aggregate_absent_attribute_scores_zero():
    lists = [["a"]] + [[] for _ in range(6)]
    totals = aggregate_rank(lists).totals()
    assert totals.get("zzz", 0) == 0


def test_aggregate_requires_seven_lists():
    with pytest.raises(WrongListCount):
        aggregate_rank([["a"]] * 6)


def test_aggregate_rejects_long_lists():
    with pytest.raises(ListTooLong):
        aggregate_rank([["x"] * 22] + [[] for _ in range(6)])


def test_aggregate_is_permutation_invariant():
    lists = [["a", "b"], ["b"], ["c", "a"], [], ["a"], ["b", "c"], ["c"]]
    fwd = aggregate_rank(lists).totals()
    rev = aggregate_rank(list(reversed(lists))).totals()
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
    _, result = pca_eval(ds)
    again = load_selection(save_selection(result))
    a = reduce_dataset(ds, result)
    b = reduce_dataset(ds, again)
    assert np.allclose(a.X, b.X, atol=1e-15)
