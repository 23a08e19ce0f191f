"""Binary and pairwise multiclass SVM models on top of the SMO solver.

Multiclass assembly is one-vs-one: one binary machine per unordered
class pair, prediction by majority vote. Within a pair the class coming
first in the scheme's canonical order takes the -1 side; a non-negative
decision value maps to the +1 side.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .dataio import NUMBER, json_field, json_floats, json_object, json_strings
from .dataset import Dataset, ScalingParams, _scale_matrix, project
from .errors import DimensionMismatch, SchemaMismatch, SingleClass
from .kernels import KernelSpec, gram_matrix
from .labels import LabelScheme, class_order
from .smo import SmoSolution, TrainerConfig, fit_sigmoid_scaling, smo_solve

MODEL_SCHEMA_VERSION = 1


@dataclass
class BinarySvmModel:
    support_vectors: np.ndarray
    alphas: np.ndarray
    labels: np.ndarray  # +-1 per support vector
    bias: float
    kernel: KernelSpec
    class_pair: tuple[str, str]  # (negative label, positive label)
    sigmoid: tuple[float, float] | None = None
    hit_iteration_cap: bool = False

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.shape[1] != self.support_vectors.shape[1]:
            raise DimensionMismatch(
                f"expected {self.support_vectors.shape[1]} features, got {X.shape[1]}")
        if len(self.alphas) == 0:
            return np.full(X.shape[0], self.bias)
        k = gram_matrix(self.kernel, self.support_vectors, X)
        return k.T @ (self.alphas * self.labels) + self.bias

    def probability(self, X: np.ndarray) -> np.ndarray:
        """P(positive class | x); requires a fitted sigmoid."""
        if self.sigmoid is None:
            raise SchemaMismatch("model has no calibration sigmoid")
        a, b = self.sigmoid
        z = a * self.decision_function(X) + b
        return np.where(z >= 0, np.exp(-z) / (1.0 + np.exp(-z)), 1.0 / (1.0 + np.exp(z)))


@dataclass
class MulticlassSvmModel:
    machines: list[BinarySvmModel]
    classes: tuple[str, ...]
    attributes: tuple[str, ...]
    scheme: LabelScheme | None  # None for a model fitted on bare arrays
    kernel: KernelSpec
    scaling: ScalingParams | None = None
    warnings: list[str] = field(default_factory=list)

    @property
    def n_support_vectors(self) -> int:
        return sum(len(m.alphas) for m in self.machines)


def _binary_from_solution(X, y, solution: SmoSolution, spec, pair, epsilon) -> BinarySvmModel:
    keep = solution.alphas > epsilon
    return BinarySvmModel(
        support_vectors=X[keep].copy(),
        alphas=solution.alphas[keep].copy(),
        labels=y[keep].copy(),
        bias=solution.bias,
        kernel=spec,
        class_pair=pair,
        hit_iteration_cap=solution.hit_iteration_cap,
    )


def train_binary_arrays(
    X: np.ndarray,
    y: np.ndarray,
    spec: KernelSpec,
    config: TrainerConfig,
    pair: tuple[str, str],
) -> BinarySvmModel:
    gram = gram_matrix(spec, X)
    solution = smo_solve(gram, y, spec.C, config.tolerance, config.epsilon, config.max_iterations)
    model = _binary_from_solution(X, y, solution, spec, pair, config.epsilon)
    if config.calibrate:
        decisions = model.decision_function(X)
        model.sigmoid = fit_sigmoid_scaling(decisions, y)
    return model


def smo_train_binary(ds: Dataset, spec: KernelSpec, config: TrainerConfig | None = None) -> BinarySvmModel:
    """Train one binary machine on a dataset carrying exactly two labels.

    Features are expected to be (0, 1)-scaled already; scaling is the
    caller's job and the trained model only stores whatever parameters
    the dataset carries."""
    config = config or TrainerConfig()
    present = class_order(ds.scheme, ds.labels)
    if len(present) < 2:
        raise SingleClass(f"need two classes, found {present}")
    if len(present) > 2:
        raise SchemaMismatch(f"binary training got {len(present)} classes: {present}")
    neg, pos = present
    y = np.where(np.array(ds.labels, dtype=object) == pos, 1.0, -1.0)
    return train_binary_arrays(ds.X, y, spec, config, (neg, pos))


def fit_sigmoid(model: BinarySvmModel, ds: Dataset) -> tuple[float, float]:
    """Fit and attach a logistic calibration sigmoid; voting is unchanged."""
    pos = model.class_pair[1]
    y = np.where(np.array(ds.labels, dtype=object) == pos, 1.0, -1.0)
    model.sigmoid = fit_sigmoid_scaling(model.decision_function(ds.X), y)
    return model.sigmoid


def train_pairwise(
    X: np.ndarray,
    labels: np.ndarray,
    classes: tuple[str, ...],
    spec: KernelSpec,
    config: TrainerConfig,
) -> tuple[list[BinarySvmModel], list[str]]:
    """One machine per unordered pair of ``classes``, the later class of
    each pair on the +1 side; returns the machines and any warnings."""
    labels = np.asarray(labels, dtype=object)
    machines: list[BinarySvmModel] = []
    warnings: list[str] = []
    for i in range(len(classes)):
        for j in range(i + 1, len(classes)):
            neg, pos = classes[i], classes[j]
            mask = (labels == neg) | (labels == pos)
            if not (labels == neg).any() or not (labels == pos).any():
                warnings.append(f"pair ({neg}, {pos}) skipped: a side has no instances")
                continue
            y = np.where(labels[mask] == pos, 1.0, -1.0)
            machine = train_binary_arrays(X[mask], y, spec, config, (neg, pos))
            if machine.hit_iteration_cap:
                warnings.append(f"pair ({neg}, {pos}) hit the iteration cap; best effort kept")
            machines.append(machine)
    return machines, warnings


def train_multiclass(ds: Dataset, spec: KernelSpec, config: TrainerConfig | None = None) -> MulticlassSvmModel:
    """One machine per unordered pair of classes present in the data."""
    config = config or TrainerConfig()
    classes = class_order(ds.scheme, ds.labels)
    if len(classes) < 2:
        raise SingleClass(f"need at least two classes, found {classes}")
    machines, warnings = train_pairwise(ds.X, ds.labels, tuple(classes), spec, config)
    return MulticlassSvmModel(
        machines=machines,
        classes=tuple(classes),
        attributes=ds.attributes,
        scheme=ds.scheme,
        kernel=spec,
        scaling=ds.scaling,
        warnings=warnings,
    )


def _model_space(model: MulticlassSvmModel, X: np.ndarray, already_scaled: bool) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != len(model.attributes):
        raise DimensionMismatch(
            f"expected {len(model.attributes)} features, got shape {X.shape}")
    if already_scaled or model.scaling is None:
        return X
    return _scale_matrix(X, model.scaling, clamp=True)


def _vote(model: MulticlassSvmModel, decisions: dict[tuple[str, str], float]) -> tuple[str, dict[str, int]]:
    votes = {c: 0 for c in model.classes}
    confidence = {c: 0.0 for c in model.classes}
    for (neg, pos), f in decisions.items():
        winner = pos if f >= 0 else neg
        votes[winner] += 1
        confidence[winner] += abs(f)
    best = max(votes.values())
    tied = [c for c in model.classes if votes[c] == best]
    if len(tied) > 1:
        top = max(confidence[c] for c in tied)
        tied = [c for c in tied if confidence[c] == top]
    return tied[0], votes


def predict(model: MulticlassSvmModel, instance, already_scaled: bool = False):
    """Classify one raw density vector.

    Returns (label, votes, margins) where votes maps class -> vote count
    and margins maps (negative, positive) pair -> decision value.
    """
    row = _model_space(model, np.asarray(instance, dtype=float).reshape(1, -1), already_scaled)
    margins = {m.class_pair: float(m.decision_function(row)[0]) for m in model.machines}
    label, votes = _vote(model, margins)
    return label, votes, margins


def predict_matrix(model: MulticlassSvmModel, X: np.ndarray, already_scaled: bool = False) -> list[str]:
    rows = _model_space(model, X, already_scaled)
    all_decisions = {m.class_pair: m.decision_function(rows) for m in model.machines}
    out = []
    for i in range(rows.shape[0]):
        label, _ = _vote(model, {pair: float(vals[i]) for pair, vals in all_decisions.items()})
        out.append(label)
    return out


def predict_dataset(model: MulticlassSvmModel, ds: Dataset) -> list[str]:
    """Predict every instance of a dataset, aligning attributes by name.

    A dataset that already carries scaling parameters is taken to be in
    model space; raw datasets get the model's stored scaling applied.
    """
    if set(ds.attributes) != set(model.attributes):
        raise DimensionMismatch("dataset attributes do not match the model")
    aligned = ds if ds.attributes == model.attributes else project(ds, model.attributes)
    return predict_matrix(model, aligned.X, already_scaled=aligned.scaling is not None)


# --- serialization --------------------------------------------------------

def _round8(values) -> list:
    return [round(float(v), 8) for v in values]


def save_model(model: MulticlassSvmModel) -> str:
    doc = {
        "schema": MODEL_SCHEMA_VERSION,
        "scheme": None if model.scheme is None else model.scheme.value,
        "classes": list(model.classes),
        "attributes": list(model.attributes),
        "kernel": {
            "family": model.kernel.family,
            "exponent": model.kernel.exponent,
            "use_lower_order": model.kernel.use_lower_order,
            "gamma": model.kernel.gamma,
            "sigma": model.kernel.sigma,
            "omega": model.kernel.omega,
            "C": model.kernel.C,
        },
        "scaling": None if model.scaling is None else {
            "min": list(model.scaling.mins),
            "max": list(model.scaling.maxs),
        },
        "machines": [
            {
                "pair": list(m.class_pair),
                "support_vectors": [_round8(row) for row in m.support_vectors],
                "alphas": [float(a) for a in m.alphas],
                "labels": [int(v) for v in m.labels],
                "bias": float(m.bias),
                "sigmoid": None if m.sigmoid is None else [float(m.sigmoid[0]), float(m.sigmoid[1])],
                "hit_iteration_cap": bool(m.hit_iteration_cap),
            }
            for m in model.machines
        ],
        "warnings": list(model.warnings),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def load_model(text: str) -> MulticlassSvmModel:
    doc = json_object(text, "model")
    if doc.get("schema") != MODEL_SCHEMA_VERSION:
        raise SchemaMismatch(f"unsupported model schema {doc.get('schema')!r}")
    classes = json_strings(doc, "classes", "model")
    attributes = json_strings(doc, "attributes", "model")
    scheme = json_field(doc, "scheme", (str, type(None)), "model")
    try:
        scheme = None if scheme is None else LabelScheme(scheme)
    except ValueError:
        raise SchemaMismatch(f"unknown label scheme {scheme!r}") from None
    k = json_field(doc, "kernel", dict, "model")
    kernel = KernelSpec(
        family=json_field(k, "family", str, "model kernel"),
        exponent=json_field(k, "exponent", NUMBER, "model kernel"),
        use_lower_order=json_field(k, "use_lower_order", bool, "model kernel"),
        gamma=json_field(k, "gamma", NUMBER, "model kernel"),
        sigma=json_field(k, "sigma", NUMBER, "model kernel"),
        omega=json_field(k, "omega", NUMBER, "model kernel"),
        C=json_field(k, "C", NUMBER, "model kernel"),
    )
    scaling = None
    if json_field(doc, "scaling", (dict, type(None)), "model") is not None:
        mins = json_floats(doc["scaling"], "min", "model scaling")
        maxs = json_floats(doc["scaling"], "max", "model scaling")
        if not len(mins) == len(maxs) == len(attributes):
            raise SchemaMismatch("model scaling does not cover the attributes")
        scaling = ScalingParams(mins=tuple(mins.tolist()), maxs=tuple(maxs.tolist()))
    machines = []
    for m in json_field(doc, "machines", list, "model"):
        pair = json_strings(m, "pair", "model machine")
        sv = json_floats(m, "support_vectors", "model machine", ndim=2)
        if sv.size == 0:
            sv = np.zeros((0, len(attributes)))
        alphas = json_floats(m, "alphas", "model machine")
        labels = json_floats(m, "labels", "model machine")
        sigmoid = json_field(m, "sigmoid", (list, type(None)), "model machine")
        if sigmoid is not None:
            sigmoid = tuple(json_floats(m, "sigmoid", "model machine").tolist())
        if len(pair) != 2 or not set(pair) <= set(classes):
            raise SchemaMismatch(f"model machine pair {pair} is not two of the classes")
        if sv.shape != (len(alphas), len(attributes)) or labels.shape != alphas.shape:
            raise SchemaMismatch("model machine arrays disagree in shape")
        if sigmoid is not None and len(sigmoid) != 2:
            raise SchemaMismatch("model machine sigmoid must hold two numbers")
        machines.append(BinarySvmModel(
            support_vectors=sv,
            alphas=alphas,
            labels=labels,
            bias=float(json_field(m, "bias", NUMBER, "model machine")),
            kernel=kernel,
            class_pair=pair,
            sigmoid=sigmoid,
            hit_iteration_cap=json_field(m, "hit_iteration_cap", bool, "model machine"),
        ))
    return MulticlassSvmModel(
        machines=machines,
        classes=classes,
        attributes=attributes,
        scheme=scheme,
        kernel=kernel,
        scaling=scaling,
        warnings=list(json_strings(doc, "warnings", "model")) if "warnings" in doc else [],
    )
