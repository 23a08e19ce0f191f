import numpy as np
import pytest

from conftest import make_dataset
from opdense.dataset import minmax_scale
from opdense.errors import DimensionMismatch, SingleClass
from opdense.kernels import KernelSpec
from opdense.labels import LabelScheme
from opdense.svm import (
    load_model,
    predict,
    predict_dataset,
    save_model,
    train_multiclass,
)

LINEAR = KernelSpec(family="poly", C=100.0)


def gaussian_balls(rng, centers, n_each, labels, scheme):
    X, y = [], []
    for center, label in zip(centers, labels):
        pts = rng.randn(n_each, len(center)) * 0.03 + center
        X.append(np.clip(pts, 0.0, 1.0))
        y.extend([label] * n_each)
    return make_dataset(np.vstack(X), y, scheme=scheme)


def test_two_labels_yield_single_machine():
    ds = make_dataset([[0.0], [0.1], [0.9], [1.0]],
                      ["good", "good", "malware", "malware"])
    model = train_multiclass(ds, LINEAR)
    assert len(model.machines) == 1
    assert model.classes == ("good", "malware")
    label, votes, margins = predict(model, [0.95])
    assert label == "malware"
    assert votes == {"good": 0, "malware": 1}
    assert list(margins) == [("good", "malware")]


def test_six_labels_yield_fifteen_machines():
    rng = np.random.RandomState(0)
    labels = ("good", "Torrentlocker", "TeslaCrypt", "Locky", "CryptoWall", "Cerber")
    centers = [(i / 6.0 + 0.05, 1.0 - i / 6.0 - 0.05) for i in range(6)]
    ds = gaussian_balls(rng, centers, 5, labels, LabelScheme.family)
    model = train_multiclass(ds, LINEAR)
    assert len(model.machines) == 15
    assert model.classes == labels


def test_three_separated_balls_perfect_votes():
    rng = np.random.RandomState(1)
    ds = gaussian_balls(rng, [(0.1, 0.1), (0.9, 0.1), (0.5, 0.9)], 8,
                        ("good", "Locky", "Cerber"), LabelScheme.family)
    model = train_multiclass(ds, LINEAR)
    predictions = predict_dataset(model, ds)
    assert predictions == list(ds.labels)


def test_single_class_multiclass_rejected():
    ds = make_dataset([[0.1], [0.2]], ["good", "good"])
    with pytest.raises(SingleClass):
        train_multiclass(ds, LINEAR)


def test_boundary_tie_goes_to_positive_class():
    # symmetric two-point problem: f(0.5) == 0 exactly at the midpoint
    ds = make_dataset([[0.0], [1.0]], ["good", "malware"])
    model = train_multiclass(ds, LINEAR)
    label, _, margins = predict(model, [0.5])
    assert abs(margins[("good", "malware")]) < 1e-9
    assert label == "malware"


def test_predict_dimension_mismatch():
    ds = make_dataset([[0.0], [1.0]], ["good", "malware"])
    model = train_multiclass(ds, LINEAR)
    with pytest.raises(DimensionMismatch):
        predict(model, [0.5, 0.5])


def test_predict_applies_stored_scaling():
    raw = make_dataset([[0.2, 0.0], [0.6, 0.4]], ["good", "malware"], ("mov", "ret"))
    scaled, params = minmax_scale(raw)
    model = train_multiclass(scaled, LINEAR)
    assert model.scaling == params
    # raw instance gets scaled before evaluation
    label_raw, _, _ = predict(model, [0.6, 0.4])
    assert label_raw == "malware"
    # the same point given in model space
    label_scaled, _, _ = predict(model, [1.0, 1.0], already_scaled=True)
    assert label_scaled == "malware"


def test_margin_magnitude_on_analytic_problem():
    ds = make_dataset([[0.0], [1.0]], ["good", "malware"])
    model = train_multiclass(ds, LINEAR)
    _, _, margins = predict(model, [0.9])
    assert margins[("good", "malware")] == pytest.approx(0.8, abs=1e-6)


def test_model_round_trip_predictions_bit_identical():
    rng = np.random.RandomState(17)
    ds = gaussian_balls(rng, [(0.2, 0.2), (0.8, 0.8)], 10,
                        ("good", "malware"), LabelScheme.binary)
    model = train_multiclass(ds, KernelSpec(family="puk", C=10.0))
    text1 = save_model(model)
    m1 = load_model(text1)
    text2 = save_model(m1)
    m2 = load_model(text2)
    assert text1 == text2
    probe = rng.rand(25, 2)
    d1 = m1.machines[0].decision_function(probe)
    d2 = m2.machines[0].decision_function(probe)
    assert np.array_equal(d1, d2)
    assert predict_dataset(m1, ds) == predict_dataset(m2, ds)


def test_model_file_preserves_kernel_and_scheme():
    ds = make_dataset([[0.0], [0.1], [0.9], [1.0]],
                      ["good", "good", "malware", "malware"])
    spec = KernelSpec(family="puk", sigma=2.0, omega=0.5, C=3.0)
    loaded = load_model(save_model(train_multiclass(ds, spec)))
    assert loaded.kernel == spec
    assert loaded.scheme == LabelScheme.binary


def test_predict_dataset_aligns_attributes_by_name():
    ds = make_dataset([[0.0, 0.5], [1.0, 0.5]], ["good", "malware"], ("mov", "ret"))
    model = train_multiclass(ds, LINEAR)
    swapped = make_dataset([[0.5, 1.0]], ["malware"], ("ret", "mov"))
    assert predict_dataset(model, swapped) == ["malware"]
