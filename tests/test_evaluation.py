from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_dataset
from opdense.errors import EmptyTestSet, KTooLarge, LengthMismatch, SchemaMismatch, UnknownLabel
from opdense.evaluation import (
    ClassMetrics,
    ConfusionMatrix,
    class_metrics,
    confusion_matrix,
    cross_validate,
    default_grid,
    grid_search,
    holdout_evaluate,
    make_trainer,
    render_report,
    report_metric,
    report_to_json,
    stratified_folds,
)
from opdense.kernels import KernelSpec
from opdense.labels import LabelScheme
from opdense.smo import TrainerConfig
from opdense.svm import train_multiclass

LINEAR = KernelSpec(family="poly", C=100.0)

# six-class hold-out fixture: rows = actual, columns = predicted
SIX_CLASSES = ("good", "Torrentlocker", "TeslaCrypt", "Locky", "CryptoWall", "Cerber")
SIX_CLASS_CELLS = np.array([
    [51, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, 0, 0],
    [0, 0, 22, 0, 0, 0],
    [0, 0, 0, 13, 0, 2],
    [0, 0, 0, 0, 8, 0],
    [0, 0, 0, 0, 0, 6],
])


def six_class_matrix():
    return confusion_matrix(
        [c for c, row in zip(SIX_CLASSES, SIX_CLASS_CELLS) for _ in range(int(row.sum()))],
        [p for row in SIX_CLASS_CELLS for p, n in zip(SIX_CLASSES, row) for _ in range(int(n))],
        SIX_CLASSES,
    )


def pct(x):
    return round(x * 100, 1)


def test_matrix_row_sums_and_total():
    cm = six_class_matrix()
    assert [int(cm.cells[i].sum()) for i in range(6)] == [51, 1, 22, 15, 8, 6]
    assert cm.total == 103
    assert np.array_equal(cm.cells, SIX_CLASS_CELLS)


def test_six_class_per_class_metrics():
    report = class_metrics(six_class_matrix())
    m = report.per_class
    assert pct(m["good"].tpr) == 100.0 and pct(m["good"].precision) == 100.0
    assert pct(m["good"].fpr) == 0.0
    assert pct(m["Torrentlocker"].tpr) == 0.0
    assert pct(m["Torrentlocker"].precision) == 0.0  # 0/0 defines to 0
    assert pct(m["Torrentlocker"].f_measure) == 0.0
    assert pct(m["TeslaCrypt"].precision) == 100.0
    assert pct(m["Locky"].tpr) == 86.7
    assert pct(m["Locky"].precision) == 92.9
    assert pct(m["Locky"].f_measure) == 89.7
    assert pct(m["Locky"].fpr) == 1.1
    assert pct(m["CryptoWall"].precision) == 100.0
    assert pct(m["Cerber"].precision) == 75.0
    assert pct(m["Cerber"].tpr) == 100.0
    assert pct(m["Cerber"].fpr) == 2.1


def test_six_class_weighted_metrics():
    report = class_metrics(six_class_matrix())
    w = report.weighted
    assert pct(w.precision) == 96.5
    assert pct(w.tpr) == 97.1
    assert pct(w.recall) == 97.1
    assert pct(w.fpr) == 0.3
    # consistent recomputation from the cells gives 96.7 for weighted F
    assert pct(w.f_measure) == 96.7


def test_weighted_recall_equals_accuracy():
    cm = six_class_matrix()
    report = class_metrics(cm)
    assert report.weighted.recall == pytest.approx(cm.accuracy(), abs=1e-12)


def test_fpr_plus_tnr_is_one_where_defined():
    cm = six_class_matrix()
    for i, label in enumerate(cm.classes):
        fp = int(cm.cells[:, i].sum() - cm.cells[i, i])
        tn = cm.total - int(cm.cells[i].sum()) - fp
        if fp + tn:
            tnr = tn / (fp + tn)
            fpr = class_metrics(cm).per_class[label].fpr
            assert fpr + tnr == pytest.approx(1.0, abs=1e-12)


def _recount(cells):
    """(tp, fp, fn, tn) of each class, summed cell by cell from their definitions."""
    k = len(cells)
    counts = []
    for i in range(k):
        tp = int(cells[i][i])
        fp = sum(int(cells[r][i]) for r in range(k) if r != i)
        fn = sum(int(cells[i][c]) for c in range(k) if c != i)
        tn = sum(int(cells[r][c]) for r in range(k) for c in range(k) if i not in (r, c))
        counts.append((tp, fp, fn, tn))
    return counts


@st.composite
def confusion_cells(draw):
    """A k x k matrix, k = 1..6, mostly zeros so that empty rows, empty
    columns and all-zero matrices come up often."""
    k = draw(st.integers(1, 6))
    cell = st.one_of(st.just(0), st.integers(0, 40))
    return np.array(draw(st.lists(st.lists(cell, min_size=k, max_size=k), min_size=k, max_size=k)))


@settings(max_examples=300, deadline=None)
@given(confusion_cells())
@example(np.zeros((3, 3), dtype=int))
@example(np.array([[0, 4], [0, 0]]))
def test_class_metrics_equal_the_rates_of_a_per_class_recount(cells):
    classes = tuple(f"c{i}" for i in range(len(cells)))
    report = class_metrics(ConfusionMatrix(classes, cells))
    ratio = lambda num, den: num / den if den else 0.0
    expected: dict[str, ClassMetrics] = {}
    supports = []
    for label, (tp, fp, fn, tn) in zip(classes, _recount(cells)):
        tpr, precision = ratio(tp, tp + fn), ratio(tp, tp + fp)
        expected[label] = ClassMetrics(tpr, ratio(fp, fp + tn), precision, tpr,
                                       ratio(2.0 * precision * tpr, precision + tpr))
        supports.append(tp + fn)
    assert report.per_class == expected
    assert report.weighted == ClassMetrics(**{
        name: ratio(sum(getattr(expected[c], name) * s for c, s in zip(classes, supports)), sum(supports))
        for name in ("tpr", "fpr", "precision", "recall", "f_measure")})


def test_all_correct_binary_matrix():
    cm = confusion_matrix(["good", "malware"], ["good", "malware"], ("good", "malware"))
    report = class_metrics(cm)
    for label in ("good", "malware"):
        m = report.per_class[label]
        assert (m.tpr, m.precision, m.recall, m.f_measure) == (1.0, 1.0, 1.0, 1.0)
        assert m.fpr == 0.0


def test_zero_length_inputs_allowed():
    cm = confusion_matrix([], [], ("good", "malware"))
    assert cm.total == 0
    report = class_metrics(cm)
    assert report.weighted.precision == 0.0


def test_confusion_matrix_errors():
    with pytest.raises(LengthMismatch):
        confusion_matrix(["good"], [], ("good",))
    with pytest.raises(UnknownLabel):
        confusion_matrix(["weird"], ["good"], ("good", "malware"))


# --- cross validation ------------------------------------------------------------

def separable_dataset(n_each=8, seed=0):
    rng = np.random.RandomState(seed)
    good = np.clip(rng.randn(n_each, 2) * 0.04 + (0.2, 0.2), 0, 1)
    mal = np.clip(rng.randn(n_each, 2) * 0.04 + (0.8, 0.8), 0, 1)
    return make_dataset(np.vstack([good, mal]), ["good"] * n_each + ["malware"] * n_each)


def test_leave_one_out_on_separable_points():
    ds = make_dataset([[0.0, 0.0], [0.1, 0.0], [1.0, 1.0], [0.9, 1.0]],
                      ["good", "good", "malware", "malware"])
    report = cross_validate(ds, k=4, seed=1, trainer_fn=make_trainer(LINEAR))
    assert report.matrix.accuracy() == 1.0


def test_cv_deterministic_for_fixed_seed():
    ds = separable_dataset()
    a = cross_validate(ds, k=4, seed=42, trainer_fn=make_trainer(LINEAR))
    b = cross_validate(ds, k=4, seed=42, trainer_fn=make_trainer(LINEAR))
    assert np.array_equal(a.matrix.cells, b.matrix.cells)
    assert report_to_json(a) == report_to_json(b)


def test_stratified_fold_sizes_differ_by_at_most_one_per_class():
    ds = separable_dataset(n_each=11)
    folds = stratified_folds(ds, 4, seed=3)
    for label in ("good", "malware"):
        sizes = [sum(1 for i in fold if ds.labels[i] == label) for fold in folds]
        assert max(sizes) - min(sizes) <= 1
    all_idx = sorted(i for fold in folds for i in fold)
    assert all_idx == list(range(ds.n_instances))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(["good", "malware"]), min_size=2, max_size=40), st.data())
def test_stratified_folds_are_non_empty_and_partition_the_rows(labels, data):
    ds = make_dataset(np.zeros((len(labels), 1)), labels)
    k = data.draw(st.integers(2, len(labels)), label="k")
    folds = stratified_folds(ds, k, seed=data.draw(st.integers(0, 2**32), label="seed"))
    assert len(folds) == k and all(folds)
    assert sorted(i for fold in folds for i in fold) == list(range(len(labels)))


def test_cv_k_too_large():
    ds = separable_dataset(n_each=3)
    with pytest.raises(KTooLarge):
        cross_validate(ds, k=7, seed=42, trainer_fn=make_trainer(LINEAR))


def test_cv_report_names_the_kernel_of_the_trainer_models():
    ds = separable_dataset()
    spec = KernelSpec(family="rbf", C=10.0, gamma=0.5)
    report = cross_validate(ds, k=4, seed=42, trainer_fn=make_trainer(spec))
    assert report.description == f"4-fold cross-validation [{spec.describe()}]"
    assert "rbf" in render_report(report).splitlines()[0]


def test_cv_pooled_accuracy_is_trace_over_total():
    ds = separable_dataset(n_each=10, seed=5)
    report = cross_validate(ds, k=5, seed=7, trainer_fn=make_trainer(LINEAR))
    cm = report.matrix
    assert cm.accuracy() == pytest.approx(np.trace(cm.cells) / cm.total)


# --- hold-out ----------------------------------------------------------------------

def test_holdout_separable_puk_defaults():
    train = separable_dataset(n_each=12, seed=1)
    test = separable_dataset(n_each=6, seed=2)
    model = train_multiclass(train, KernelSpec(family="puk"))
    report = holdout_evaluate(model, test)
    assert report.weighted.precision == 1.0
    assert report.per_class["malware"].fpr == 0.0
    assert report.n_attributes == 2


def test_holdout_majority_predictor_metrics():
    from opdense.svm import MulticlassSvmModel, BinarySvmModel
    # a machine with no support vectors and negative bias always votes "good"
    machine = BinarySvmModel(
        support_vectors=np.zeros((0, 2)), coef=np.zeros(0),
        bias=-1.0, class_pair=("good", "malware"))
    model = MulticlassSvmModel(machines=[machine], classes=("good", "malware"),
                               attributes=("a00", "a01"), scheme=LabelScheme.binary,
                               kernel=LINEAR)
    test = separable_dataset(n_each=5)
    report = holdout_evaluate(model, test)
    assert report.per_class["good"].precision == 0.5
    assert report.per_class["malware"].precision == 0.0


def test_holdout_empty_test_set_rejected():
    train = separable_dataset()
    model = train_multiclass(train, LINEAR)
    empty = make_dataset(np.zeros((0, 2)), [], train.attributes)
    with pytest.raises(EmptyTestSet):
        holdout_evaluate(model, empty)


# --- grid search --------------------------------------------------------------------

def test_default_grid_cardinalities():
    assert len(default_grid(["poly"])) == 12
    assert len(default_grid(["rbf"])) == 16
    assert len(default_grid(["normalized_poly"])) == 12


def test_grid_of_one_matches_holdout():
    train = separable_dataset(n_each=8, seed=3)
    test = separable_dataset(n_each=4, seed=4)
    spec = KernelSpec(family="rbf", gamma=1.0, C=10.0)
    cells = grid_search(train, test, [spec])
    direct = holdout_evaluate(train_multiclass(train, spec), test)
    assert cells[0].report.weighted.precision == direct.weighted.precision


def test_grid_on_xor_rbf_beats_linear():
    X = np.array([[0, 0], [1, 1], [0, 1], [1, 0]] * 3, dtype=float)
    labels = (["good", "good", "malware", "malware"] * 3)
    ds = make_dataset(X, labels)
    specs = [KernelSpec(family="poly", exponent=1.0, C=100.0),
             KernelSpec(family="rbf", gamma=1.0, C=100.0)]
    cells = grid_search(ds, ds, specs, TrainerConfig())
    by_family = {c.spec.family: c.report.matrix.accuracy() for c in cells}
    assert by_family["rbf"] > by_family["poly"]
    assert by_family["rbf"] == 1.0


def test_grid_results_sorted_by_precision():
    train = separable_dataset(n_each=10, seed=6)
    test = separable_dataset(n_each=5, seed=7)
    specs = default_grid(["rbf", "puk"])
    cells = grid_search(train, test, specs)
    precisions = [c.report.weighted.precision for c in cells if c.report]
    assert precisions == sorted(precisions, reverse=True)


def test_grid_records_failures_without_aborting():
    train = separable_dataset()
    test = separable_dataset(n_each=2, seed=9)
    single = make_dataset(train.X[:4], ["good"] * 4)
    cells = grid_search(single, test, [LINEAR])
    assert cells[0].report is None and cells[0].error is not None


def test_grid_lets_a_programming_error_propagate(monkeypatch):
    def broken(*args):
        raise TypeError("not an input error")
    monkeypatch.setattr("opdense.evaluation.train_multiclass", broken)
    with pytest.raises(TypeError):
        grid_search(separable_dataset(), separable_dataset(n_each=2, seed=9), [LINEAR])


# --- rendering --------------------------------------------------------------------

def test_report_metric_refuses_an_unknown_metric():
    report = class_metrics(confusion_matrix(["good", "malware"], ["good", "good"], ("good", "malware")))
    assert report_metric(report, "precision") == report.weighted.precision
    with pytest.raises(SchemaMismatch, match="unknown metric 'accuracy'"):
        report_metric(report, "accuracy")


def test_render_report_contains_columns_and_rows():
    text = render_report(class_metrics(six_class_matrix(), n_attributes=444))
    assert "TPR" in text and "F-Measure" in text
    assert "Weighted avg." in text
    assert "Attributes: 444" in text
    assert "96.5%" in text


def test_report_json_is_machine_readable():
    import json
    doc = json.loads(report_to_json(class_metrics(six_class_matrix())))
    # (51 + 22 + 8 + 6*3/4 + 15*13/14) / 103, exactly
    assert doc["weighted"]["precision"] == pytest.approx((85.5 + 195 / 14) / 103, abs=1e-15)
    assert doc["matrix"][3][5] == 2


def test_a_report_with_a_non_finite_metric_is_refused_not_written():
    report = class_metrics(six_class_matrix())
    report.weighted = replace(report.weighted, precision=float("nan"))
    with pytest.raises(ValueError, match="JSON"):
        report_to_json(report)
