import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_dataset
from opdense.dataset import minmax_scale, project
from opdense.errors import SchemaMismatch, SingleClass, UnknownAttribute
from opdense.kernels import KernelSpec
from opdense.labels import LabelScheme
from opdense.smo import TrainerConfig
from opdense.svm import (
    BinarySvmModel,
    MulticlassSvmModel,
    decision_values,
    load_model,
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
    probe = make_dataset([[0.95]], ["malware"])
    assert predict_dataset(model, probe) == ["malware"]
    f = decision_values(model, probe)
    assert f.shape == (1, 1) and f[0, 0] > 0  # the one machine votes malware
    assert model.machines[0].class_pair == ("good", "malware")


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
    probe = make_dataset([[0.5]], ["malware"])
    assert abs(decision_values(model, probe)[0, 0]) < 1e-9
    assert predict_dataset(model, probe) == ["malware"]


def test_predict_scores_a_wider_dataset_as_its_projection_and_refuses_a_narrower_one():
    ds = make_dataset([[0.0, 0.3], [1.0, 0.6]], ["good", "malware"], ("mov", "ret"))
    model = train_multiclass(ds, LINEAR)
    wider = make_dataset([[0.2, 0.6, 0.9], [0.7, 0.3, 0.1]], ["malware", "good"], ("push", "ret", "mov"))
    projected = project(wider, model.attributes)
    assert decision_values(model, wider).tobytes() == decision_values(model, projected).tobytes()
    assert predict_dataset(model, wider) == predict_dataset(model, projected) == ["malware", "good"]
    with pytest.raises(UnknownAttribute) as info:
        predict_dataset(model, project(wider, ("push", "mov")))
    assert info.value.name == "ret"


def test_predict_applies_stored_scaling():
    raw = make_dataset([[0.2, 0.0], [0.6, 0.4]], ["good", "malware"], ("mov", "ret"))
    scaled, params = minmax_scale(raw)
    model = train_multiclass(scaled, LINEAR)
    assert model.scaling == params
    # a raw dataset gets the stored scaling before evaluation
    raw_probe = make_dataset([[0.6, 0.4]], ["malware"], ("mov", "ret"))
    assert predict_dataset(model, raw_probe) == ["malware"]
    # a dataset carrying scaling is in model space and is not re-scaled:
    # (0.45, 0.3) lies on the good side, scaled again it would be
    # (0.625, 0.75) on the malware side
    scaled_probe = make_dataset([[0.45, 0.3]], ["good"], ("mov", "ret"))
    assert predict_dataset(model, replace(scaled_probe, scaling=params)) == ["good"]
    assert predict_dataset(model, scaled_probe) == ["malware"]


def test_margin_magnitude_on_analytic_problem():
    ds = make_dataset([[0.0], [1.0]], ["good", "malware"])
    model = train_multiclass(ds, LINEAR)
    f = decision_values(model, make_dataset([[0.9]], ["malware"]))
    assert f[0, 0] == pytest.approx(0.8, abs=1e-6)


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
    probe = make_dataset(rng.rand(25, 2), ["good"] * 25)
    assert np.array_equal(decision_values(m1, probe), decision_values(m2, probe))
    assert predict_dataset(m1, ds) == predict_dataset(m2, ds)


def test_rows_equal_at_8_decimals_are_stored_once():
    a, b = [0.25, 0.5], [0.75, 0.125]
    nudged = [0.25 + 1e-12, 0.5]  # another raw row, the same as a at 8 decimals
    pairs = [("good", "Locky"), ("good", "Cerber"), ("Locky", "Cerber")]
    machines = [BinarySvmModel(np.array(sv), np.array([-0.5, 0.25]), 0.1, pair)
                for sv, pair in zip([[a, b], [nudged, b], [b, nudged]], pairs)]
    model = MulticlassSvmModel(machines, ("good", "Locky", "Cerber"), ("mov", "ret"),
                               LabelScheme.family, KernelSpec())
    text = save_model(model)
    doc = json.loads(text)
    assert doc["support_vectors"] == [a, b]
    assert [m["rows"] for m in doc["machines"]] == [[0, 1], [0, 1], [1, 0]]
    assert [m["coef"] for m in doc["machines"]] == [[-0.5, 0.25]] * 3
    loaded = load_model(text)
    assert np.array_equal(loaded.machines[1].support_vectors, [a, b])
    assert save_model(loaded) == text


_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-9, -5e-9, 1.5e-8, 2.5e-8, 0.123456785, 1e-300, 1e300, -1e300])


@given(st.integers(0, 3).flatmap(lambda width: st.lists(
    st.lists(_FINITE, min_size=width, max_size=width), min_size=1, max_size=4)))
@settings(max_examples=200, deadline=None)
def test_support_vectors_are_stored_as_round_to_8_decimals_gives_them(rows):
    sv = np.array(rows).reshape(len(rows), -1 if rows[0] else 0)
    machine = BinarySvmModel(sv, np.full(len(rows), 0.5), 0.0, ("good", "malware"))
    attributes = tuple(f"a{j}" for j in range(sv.shape[1]))
    doc = json.loads(save_model(MulticlassSvmModel([machine], ("good", "malware"), attributes,
                                                   LabelScheme.binary, KernelSpec())))
    expected = list(dict.fromkeys(tuple(round(v, 8) for v in row) for row in sv.tolist()))
    assert [[v.hex() for v in row] for row in doc["support_vectors"]] == \
        [[v.hex() for v in row] for row in expected]


def test_model_file_holds_one_support_vector_or_machine_per_line():
    rng = np.random.RandomState(31)
    ds = gaussian_balls(rng, [(0.2, 0.2), (0.8, 0.2), (0.5, 0.8)], 6,
                        ("good", "Locky", "Cerber"), LabelScheme.family)
    text = save_model(train_multiclass(ds, KernelSpec(family="puk", C=10.0)))
    doc = json.loads(text)
    lines = text.splitlines()
    assert (lines[0], lines[-1], text[-1]) == ("{", "}", "\n")
    fields = [line.split(":", 1)[0] for line in lines if line.startswith('"')]
    assert fields == [json.dumps(key) for key in sorted(doc)]
    for key in ("support_vectors", "machines"):
        start = lines.index(f'"{key}":[') + 1
        items = lines[start:start + len(doc[key])]
        assert [json.loads(line.rstrip(",")) for line in items] == doc[key]
        assert lines[start + len(doc[key])].startswith("]")
    assert len(doc["machines"]) == 3 and len(doc["support_vectors"]) > 3
    # the same document in the earlier indented layout loads and saves as this text
    assert save_model(load_model(json.dumps(doc, indent=2, sort_keys=True) + "\n")) == text


def test_a_model_with_a_non_finite_number_is_refused_not_written():
    ds = make_dataset([[0.0], [0.1], [0.9], [1.0]], ["good", "good", "malware", "malware"])
    model = train_multiclass(ds, KernelSpec(family="puk"))
    model.machines[0] = replace(model.machines[0], bias=float("nan"))
    with pytest.raises(ValueError, match="JSON"):
        save_model(model)


def test_machines_keep_their_convergence_counts():
    rng = np.random.RandomState(29)
    ds = gaussian_balls(rng, [(0.2, 0.2), (0.8, 0.2), (0.5, 0.8)], 12,
                        ("good", "Locky", "Cerber"), LabelScheme.family)
    config = TrainerConfig(tolerance=1e-4)
    model = train_multiclass(ds, KernelSpec(family="puk", C=10.0), config)
    for m in model.machines:
        assert m.iterations > 0 and not m.hit_iteration_cap
        assert m.kkt_gap <= 2.0 * config.tolerance
    loaded = load_model(save_model(model))
    assert [(m.iterations, m.kkt_gap) for m in loaded.machines] == [(m.iterations, m.kkt_gap) for m in model.machines]
    capped = train_multiclass(ds, KernelSpec(family="puk", C=10.0), TrainerConfig(max_iterations=2))
    assert all(m.iterations == 2 and m.hit_iteration_cap and m.kkt_gap > 2e-3 for m in capped.machines)


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


def _bias_only_model(classes, biases):
    """A model file whose machines have no support vectors, so each
    machine's decision value is its bias on every row."""
    pairs = [(a, b) for i, a in enumerate(classes) for b in classes[i + 1:]]
    return load_model(json.dumps({
        "schema": 3, "scheme": "family", "classes": list(classes), "attributes": ["a00"],
        "kernel": {"family": "puk", "exponent": 1.0, "use_lower_order": False, "gamma": 0.01,
                   "sigma": 1.0, "omega": 1.0, "C": 1.0},
        "scaling": None, "warnings": [], "support_vectors": [],
        "machines": [{"pair": list(pair), "rows": [], "coef": [], "bias": bias, "hit_iteration_cap": False,
                      "iterations": 0, "kkt_gap": 0.0} for pair, bias in zip(pairs, biases)],
    }))


def test_vote_tie_breaks_by_confidence_then_class_order():
    classes = ("good", "Locky", "Cerber")
    row = make_dataset([[0.0]], ["good"], scheme=LabelScheme.family)
    # machines (good, Locky), (good, Cerber), (Locky, Cerber): every bias
    # below is a 1-1-1 cycle, so the summed |f| of each class decides
    assert predict_dataset(_bias_only_model(classes, [-0.5, 0.5, -1.0]), row) == ["Locky"]
    assert predict_dataset(_bias_only_model(classes, [-0.5, 1.0, -0.75]), row) == ["Cerber"]
    # equal summed |f|: the class earlier in model.classes wins
    assert predict_dataset(_bias_only_model(classes, [-1.0, 1.0, -1.0]), row) == ["good"]
    assert predict_dataset(_bias_only_model(classes, [1.0, -1.0, 1.0]), row) == ["good"]
    assert predict_dataset(_bias_only_model(classes, [-0.5, 1.0, -1.0]), row) == ["Locky"]


def test_load_model_requires_classes_in_scheme_order():
    # each machine matches the pairs of its class list, but training
    # never writes these class lists
    with pytest.raises(SchemaMismatch):
        _bias_only_model(("Locky", "good"), [1.0])
    with pytest.raises(SchemaMismatch):
        _bias_only_model(("good", "good"), [1.0])
