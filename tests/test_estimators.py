import numpy as np
import pytest

from conftest import make_dataset
from opdense.errors import SchemaMismatch, SingleClass
from opdense.estimators import MinMaxDensityScaler, RankedAttributeSelector, SmoSvmClassifier
from opdense.featsel import rank_attributes
from opdense.smo import TrainerConfig
from opdense.svm import load_model, predict_matrix, save_model, train_pairwise


def blobs(seed=0, n_each=15):
    rng = np.random.RandomState(seed)
    good = rng.randn(n_each, 3) * 0.05 + (0.2, 0.2, 0.5)
    mal = rng.randn(n_each, 3) * 0.05 + (0.8, 0.8, 0.5)
    X = np.clip(np.vstack([good, mal]), 0, 1)
    y = np.array(["good"] * n_each + ["malware"] * n_each, dtype=object)
    return X, y


def test_classifier_fit_predict_binary():
    X, y = blobs()
    clf = SmoSvmClassifier(kernel="puk", C=10.0).fit(X, y)
    assert clf.classes_ == ("good", "malware")
    assert clf.score(X, y) == 1.0
    assert set(clf.predict(X)) <= {"good", "malware"}


def test_classifier_decision_function_sign_convention():
    X, y = blobs()
    clf = SmoSvmClassifier(kernel="poly", C=100.0).fit(X, y)
    f = clf.decision_function(X)
    assert np.all((f >= 0) == (clf.predict(X) == "malware"))


def test_classifier_multiclass_votes():
    rng = np.random.RandomState(1)
    X = np.vstack([rng.randn(10, 2) * 0.04 + c for c in [(0.1, 0.1), (0.9, 0.1), (0.5, 0.9)]])
    y = np.array(["a"] * 10 + ["b"] * 10 + ["c"] * 10, dtype=object)
    clf = SmoSvmClassifier(kernel="poly", C=100.0).fit(np.clip(X, 0, 1), y)
    assert len(clf.model_.machines) == 3
    assert clf.score(np.clip(X, 0, 1), y) == 1.0


def test_classifier_single_class_rejected():
    X = np.random.RandomState(0).rand(5, 2)
    with pytest.raises(SingleClass):
        SmoSvmClassifier().fit(X, ["good"] * 5)


def test_get_set_params_round_trip():
    clf = SmoSvmClassifier(kernel="rbf", gamma=0.5, C=7.0)
    params = clf.get_params()
    assert params["gamma"] == 0.5 and params["C"] == 7.0
    clone = SmoSvmClassifier(**params)
    assert clone.get_params() == params
    clone.set_params(gamma=1.0)
    assert clone.gamma == 1.0
    with pytest.raises(SchemaMismatch):
        clone.set_params(nonsense=1)


def test_calibrated_classifier_exposes_probabilities():
    X, y = blobs(seed=3)
    clf = SmoSvmClassifier(kernel="poly", C=10.0, calibrate=True).fit(X, y)
    machine = clf.model_.machines[0]
    probs = machine.probability(X)
    assert probs.shape == (len(y),)
    assert np.all((probs >= 0) & (probs <= 1))
    assert probs[y == "malware"].mean() > probs[y == "good"].mean()


def test_calibrated_classifier_matches_shared_pairwise_trainer():
    rng = np.random.RandomState(7)
    X = np.clip(np.vstack([rng.randn(8, 2) * 0.1 + c for c in [(0.2, 0.2), (0.8, 0.3), (0.5, 0.8)]]), 0, 1)
    y = np.array(["a"] * 8 + ["b"] * 8 + ["c"] * 8, dtype=object)
    clf = SmoSvmClassifier(kernel="puk", C=10.0, calibrate=True).fit(X, y)
    expected, _ = train_pairwise(X, y, ("a", "b", "c"), clf._spec(),
                                 TrainerConfig(calibrate=True))
    assert len(clf.model_.machines) == len(expected) == 3
    for got, want in zip(clf.model_.machines, expected):
        assert got.class_pair == want.class_pair
        assert np.array_equal(got.alphas, want.alphas)
        assert got.bias == want.bias
        assert got.sigmoid is not None and got.sigmoid == want.sigmoid


def test_classifier_model_save_load_round_trip():
    X, y = blobs()
    model = SmoSvmClassifier(kernel="puk", C=10.0).fit(X, y).model_
    loaded = load_model(save_model(model))
    assert loaded.scheme is None
    assert predict_matrix(loaded, X, already_scaled=True) == predict_matrix(model, X, already_scaled=True)


def test_scaler_matches_dataset_semantics():
    X = np.array([[0.2, 1.0], [0.4, 1.0], [0.6, 1.0]])
    scaler = MinMaxDensityScaler().fit(X)
    out = scaler.transform(X)
    assert np.allclose(out[:, 0], [0.0, 0.5, 1.0])
    assert np.all(out[:, 1] == 0.0)  # constant column maps to zero
    assert scaler.transform(np.array([[0.8, 1.0]]))[0, 0] == 1.0  # clamped


def test_scaler_pipeline_with_classifier():
    rng = np.random.RandomState(2)
    raw = np.vstack([rng.rand(12, 4) * 0.01, rng.rand(12, 4) * 0.01 + 0.02])
    y = np.array(["good"] * 12 + ["malware"] * 12, dtype=object)
    scaler = MinMaxDensityScaler()
    clf = SmoSvmClassifier(kernel="puk", C=10.0)
    clf.fit(scaler.fit_transform(raw), y)
    assert clf.score(scaler.transform(raw), y) == 1.0


def test_selector_keeps_informative_columns():
    rng = np.random.RandomState(4)
    n = 40
    y = np.array(["good", "malware"] * (n // 2), dtype=object)
    indicator = (y == "malware").astype(float)
    X = np.column_stack([indicator, rng.rand(n), rng.rand(n), rng.rand(n)])
    sel = RankedAttributeSelector(evaluator="correlation", threshold=0.5).fit(X, y)
    assert list(sel.get_support()) == [True, False, False, False]
    assert sel.transform(X).shape == (n, 1)


def test_selector_num_to_select():
    rng = np.random.RandomState(5)
    X = rng.rand(30, 6)
    y = np.array(["good", "malware"] * 15, dtype=object)
    sel = RankedAttributeSelector(evaluator="info_gain", threshold=float("-inf"),
                                  num_to_select=2).fit(X, y)
    assert sel.get_support().sum() == 2


def test_selector_relieff_path():
    X = np.array([[0.0, 0.5], [0.0, 0.5], [1.0, 0.5], [1.0, 0.5]])
    y = np.array(["good", "good", "malware", "malware"], dtype=object)
    sel = RankedAttributeSelector(evaluator="relieff", threshold=0.5).fit(X, y)
    assert list(sel.get_support()) == [True, False]


def test_selector_transform_width_check():
    X = np.random.RandomState(6).rand(10, 3)
    y = np.array(["good", "malware"] * 5, dtype=object)
    sel = RankedAttributeSelector(evaluator="correlation", threshold=-1.0).fit(X, y)
    with pytest.raises(SchemaMismatch):
        sel.transform(X[:, :2])


@pytest.mark.parametrize("evaluator", ["info_gain", "gain_ratio", "symm_uncert", "correlation", "one_r", "relieff"])
def test_selector_scores_match_rank_attributes(evaluator):
    rng = np.random.RandomState(8)
    y = np.array(["good", "malware"] * 12, dtype=object)
    X = np.column_stack([(y == "malware") * 0.6 + rng.rand(24) * 0.4, rng.rand(24), rng.rand(24)])
    ds = make_dataset(X, y)
    sel = RankedAttributeSelector(evaluator=evaluator).fit(X, y)
    assert list(sel.scores_) == [s.score for s in rank_attributes(ds, evaluator)]


@pytest.mark.parametrize("evaluator", ["pca", "cfs_subset", "nonsense"])
def test_non_ranking_evaluator_rejected(evaluator):
    X = np.random.RandomState(9).rand(10, 2)
    y = np.array(["good", "malware"] * 5, dtype=object)
    with pytest.raises(SchemaMismatch):
        RankedAttributeSelector(evaluator=evaluator).fit(X, y)
    with pytest.raises(SchemaMismatch):
        rank_attributes(make_dataset(X, y), evaluator)
