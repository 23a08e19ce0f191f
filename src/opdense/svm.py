"""Binary and pairwise multiclass SVM models on top of the SMO solver.

Multiclass assembly is one-vs-one: one binary machine per unordered
class pair, prediction by majority vote. Within a pair the class coming
first in the scheme's canonical order takes the -1 side; a non-negative
decision value maps to the +1 side.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .dataio import json_field, json_floats, json_number, json_object, json_strings
from .dataset import DENSITY_DECIMALS, Dataset, ScalingParams, project
from .errors import NonFiniteSolution, SchemaMismatch, SingleClass
from .kernels import FLOAT_FIELDS, KernelSpec, gram_matrix
from .labels import LabelScheme, class_order
from .smo import EPSILON, TrainerConfig, smo_solve_lockstep

MODEL_SCHEMA_VERSION = 3
_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False).encode  # no indent: the C encoder


@dataclass
class BinarySvmModel:
    """One pairwise machine: f(x) = sum_i coef_i K(sv_i, x) + bias, with
    ``coef`` = alpha*y per support vector, as the model file holds it."""
    support_vectors: np.ndarray
    coef: np.ndarray  # alpha*y per support vector, nonzero
    bias: float
    class_pair: tuple[str, str]  # (negative label, positive label)
    hit_iteration_cap: bool = False
    iterations: int = 0  # SMO steps taken
    kkt_gap: float = 0.0  # SmoSolution.kkt_gap at exit

    @property
    def alphas(self) -> np.ndarray:
        """The SMO multipliers, |coef|: exact, as every y is +-1."""
        return np.abs(self.coef)


@dataclass
class MulticlassSvmModel:
    machines: list[BinarySvmModel]
    classes: tuple[str, ...]
    attributes: tuple[str, ...]
    scheme: LabelScheme
    kernel: KernelSpec
    scaling: ScalingParams | None = None

    @property
    def n_support_vectors(self) -> int:
        return sum(len(m.coef) for m in self.machines)

    @property
    def warnings(self) -> list[str]:
        """One warning per machine that hit the iteration cap, in machine order."""
        return [f"pair ({', '.join(m.class_pair)}) hit the iteration cap; best effort kept"
                for m in self.machines if m.hit_iteration_cap]


def train_multiclass(ds: Dataset, spec: KernelSpec, config: TrainerConfig = TrainerConfig()) -> MulticlassSvmModel:
    """One machine per unordered pair of the classes present in the data,
    the later class of each pair (in scheme order) on the +1 side. Each
    pair is held as its row indices into ``ds.X``, and the pairs' SMO
    problems are solved together by ``smo_solve_lockstep``. A Gram or a
    solution with a value past the float range raises NonFiniteSolution,
    the Gram before SMO steps on it."""
    classes = tuple(class_order(ds.scheme, ds.labels))
    if len(classes) < 2:
        raise SingleClass(f"need at least two classes, found {list(classes)}")
    labels = np.asarray(ds.labels, dtype=object)
    pairs = _pairs(classes)
    problems = []
    for neg, pos in pairs:
        mask = (labels == neg) | (labels == pos)
        problems.append((np.flatnonzero(mask), np.where(labels[mask] == pos, 1.0, -1.0)))

    def grams():
        for (neg, pos), (index, _) in zip(pairs, problems):
            with np.errstate(over="ignore", invalid="ignore"):
                gram = gram_matrix(spec, ds.X[index])
            if not np.isfinite(gram).all():
                raise NonFiniteSolution(f"pair ({neg}, {pos}): the kernel took the Gram matrix past the float range")
            yield gram

    solutions = smo_solve_lockstep(grams(), [y for _, y in problems], spec.C, config)
    machines: list[BinarySvmModel] = []
    for (neg, pos), (index, y), solution in zip(pairs, problems, solutions):
        if not (np.isfinite(solution.alphas).all()
                and math.isfinite(solution.bias) and math.isfinite(solution.kkt_gap)):
            raise NonFiniteSolution(f"pair ({neg}, {pos}): the kernel or C took SMO past the float range")
        keep = solution.alphas > EPSILON
        machines.append(BinarySvmModel(
            support_vectors=ds.X[index[keep]],
            coef=solution.alphas[keep] * y[keep],
            bias=solution.bias,
            class_pair=(neg, pos),
            hit_iteration_cap=solution.hit_iteration_cap,
            iterations=solution.iterations,
            kkt_gap=solution.kkt_gap,
        ))
    return MulticlassSvmModel(
        machines=machines,
        classes=classes,
        attributes=ds.attributes,
        scheme=ds.scheme,
        kernel=spec,
        scaling=ds.scaling,
    )


def _pairs(classes: tuple[str, ...]) -> list[tuple[str, str]]:
    """Every unordered pair of ``classes``, earlier class first, in training order."""
    return [(a, b) for i, a in enumerate(classes) for b in classes[i + 1:]]


def decision_values(model: MulticlassSvmModel, ds: Dataset) -> np.ndarray:
    """Every machine's decision value on every row of ``ds`` (rows x machines).

    The model's attributes are taken by name, as ``project`` takes them:
    other columns are left out, and a missing one is an UnknownAttribute.
    A dataset that carries scaling parameters is taken to be in model
    space; a raw one gets the model's stored scaling, clipped into [0, 1].
    """
    ds = ds if ds.attributes == model.attributes else project(ds, model.attributes)
    X = model.scaling.apply(ds.X) if ds.scaling is None and model.scaling is not None else ds.X
    out = np.empty((len(X), len(model.machines)))
    for k, m in enumerate(model.machines):
        out[:, k] = gram_matrix(model.kernel, m.support_vectors, X).T @ m.coef + m.bias
    return out


def predict_dataset(model: MulticlassSvmModel, ds: Dataset) -> list[str]:
    """Label every row of ``ds`` by the machines' vote.

    A machine votes for the +1 side of its pair when f >= 0. The label is
    the class with the most votes, then the largest summed |f| of the
    machines that voted for it, then the earlier class in ``model.classes``.
    """
    f = decision_values(model, ds)
    index = {c: i for i, c in enumerate(model.classes)}
    rows = np.arange(f.shape[0])
    votes = np.zeros((f.shape[0], len(model.classes)), dtype=int)
    confidence = np.zeros(votes.shape)
    for k, m in enumerate(model.machines):
        neg, pos = m.class_pair
        winner = np.where(f[:, k] >= 0, index[pos], index[neg])
        votes[rows, winner] += 1
        confidence[rows, winner] += np.abs(f[:, k])
    tied = votes == votes.max(axis=1, keepdims=True)
    confidence = np.where(tied, confidence, -np.inf)
    best = tied & (confidence == confidence.max(axis=1, keepdims=True))
    return [model.classes[i] for i in best.argmax(axis=1)]


# --- serialization --------------------------------------------------------

def save_model(model: MulticlassSvmModel) -> str:
    """The model as JSON, in LIBSVM's layout (Chang & Lin 2011): one
    ``support_vectors`` table of the distinct rows at 8 decimals, and per
    machine the ``rows`` of that table it uses with one alpha*y ``coef``
    each. Rows are told apart by their rounded values, so load -> save
    writes the same text. Keys are sorted, and each top-level field,
    support vector and machine takes one line."""
    rounded: dict[bytes, tuple[float, ...]] = {}  # raw row -> its values at 8 decimals
    table: dict[tuple[float, ...], int] = {}  # rounded row -> its index in the table
    # At the CSV cells' precision, a loaded model predicts as the saved one
    # did. "%.nf" rounds as round(v, n) does: both take the correctly rounded
    # string. A comma ends each cell, so a row of no values splits to none.
    row_text = f"%.{DENSITY_DECIMALS}f," * len(model.attributes)
    machines = []
    for m in model.machines:
        rows = []
        for row in m.support_vectors:
            key = row.tobytes()
            if key not in rounded:
                rounded[key] = tuple(map(float, (row_text % tuple(row.tolist())).split(",")[:-1]))
            rows.append(table.setdefault(rounded[key], len(table)))
        machines.append({
            "pair": list(m.class_pair),
            "rows": rows,
            "coef": m.coef.tolist(),
            "bias": float(m.bias),
            "hit_iteration_cap": bool(m.hit_iteration_cap),
            "iterations": int(m.iterations),
            "kkt_gap": float(m.kkt_gap),
        })
    doc = {
        "schema": MODEL_SCHEMA_VERSION,
        "scheme": model.scheme.value,
        "classes": list(model.classes),
        "attributes": list(model.attributes),
        "kernel": asdict(model.kernel),
        "scaling": None if model.scaling is None else {
            "min": list(model.scaling.mins),
            "max": list(model.scaling.maxs),
        },
        "support_vectors": list(table),
        "machines": machines,
        "warnings": list(model.warnings),
    }
    fields = [_ENCODE(key) + ":" + (_ENCODE(value) if key not in ("machines", "support_vectors")
                                    else "[" + ",".join("\n" + _ENCODE(v) for v in value) + "\n]")
              for key, value in sorted(doc.items())]
    return "{\n" + ",\n".join(fields) + "\n}\n"


def load_model(text: str) -> MulticlassSvmModel:
    """A model saved by ``save_model``. Each machine's support vectors are
    its rows of the table, and its ``coef`` the file's. The ``warnings``
    must be those the machines' cap flags give. Each ``KernelSpec`` field
    is read with its default's type, a float field (``FLOAT_FIELDS``) as a
    finite number."""
    doc = json_object(text, "model")
    if doc.get("schema") != MODEL_SCHEMA_VERSION:
        raise SchemaMismatch(f"unsupported model schema {doc.get('schema')!r}")
    classes = json_strings(doc, "classes", "model")
    attributes = json_strings(doc, "attributes", "model")
    scheme = json_field(doc, "scheme", str, "model")
    try:
        scheme = LabelScheme(scheme)
    except ValueError:
        raise SchemaMismatch(f"unknown label scheme {scheme!r}") from None
    k = json_field(doc, "kernel", dict, "model")
    kernel = KernelSpec(**{f.name: json_number(k, f.name, "model kernel") if f.name in FLOAT_FIELDS
                           else json_field(k, f.name, type(f.default), "model kernel") for f in fields(KernelSpec)})
    scaling = None
    if json_field(doc, "scaling", (dict, type(None)), "model") is not None:
        mins = json_floats(doc["scaling"], "min", "model scaling")
        maxs = json_floats(doc["scaling"], "max", "model scaling")
        if not len(mins) == len(maxs) == len(attributes):
            raise SchemaMismatch("model scaling does not cover the attributes")
        scaling = ScalingParams(mins=tuple(mins.tolist()), maxs=tuple(maxs.tolist()))
    table = json_floats(doc, "support_vectors", "model", ndim=2)
    if len(table) == 0:
        table = np.zeros((0, len(attributes)))
    if table.shape[1] != len(attributes):
        raise SchemaMismatch("model support vectors are not as wide as the attribute list")
    machines = []
    for m in json_field(doc, "machines", list, "model"):
        pair = json_strings(m, "pair", "model machine")
        rows = json_field(m, "rows", list, "model machine")
        if not all(type(r) is int and 0 <= r < len(table) for r in rows):
            raise SchemaMismatch("model machine: 'rows' must be indices into the support vectors")
        coef = json_floats(m, "coef", "model machine")
        if len(coef) != len(rows) or not coef.all():
            raise SchemaMismatch("model machine: 'coef' must hold one nonzero number per row")
        iterations = json_field(m, "iterations", int, "model machine")
        if iterations < 0:
            raise SchemaMismatch("model machine: 'iterations' must not be negative")
        machines.append(BinarySvmModel(
            support_vectors=table[rows],
            coef=coef,
            bias=json_number(m, "bias", "model machine"),
            class_pair=pair,
            hit_iteration_cap=json_field(m, "hit_iteration_cap", bool, "model machine"),
            iterations=iterations,
            kkt_gap=json_number(m, "kkt_gap", "model machine"),
        ))
    if (len(classes) < 2 or list(classes) != class_order(scheme, classes)
            or [m.class_pair for m in machines] != _pairs(classes)):
        raise SchemaMismatch("model classes or machine pairs are not as training writes them")
    model = MulticlassSvmModel(
        machines=machines,
        classes=classes,
        attributes=attributes,
        scheme=scheme,
        kernel=kernel,
        scaling=scaling,
    )
    if list(json_strings(doc, "warnings", "model")) != model.warnings:
        raise SchemaMismatch("model warnings are not the machines' iteration-cap warnings")
    return model
