"""Confusion matrices, the five evaluation rates, cross validation,
hold-out evaluation and kernel grid search.

Per-class rates come straight from the matrix (rows = actual, columns =
predicted); 0/0 cells define to 0. Weighted averages weight each class
by its actual instance count, which makes weighted recall equal overall
accuracy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .dataset import Dataset, take_rows
from .errors import (
    EmptyTestSet,
    KTooLarge,
    LengthMismatch,
    OpdenseError,
    SchemaMismatch,
    UnknownLabel,
)
from .kernels import KernelSpec
from .labels import class_order
from .rng import permutation
from .smo import TrainerConfig
from .svm import MulticlassSvmModel, predict_dataset, train_multiclass


@dataclass(frozen=True)
class ConfusionMatrix:
    classes: tuple[str, ...]
    cells: np.ndarray  # rows = actual, columns = predicted

    def __post_init__(self):
        cells = np.array(self.cells, dtype=np.int64)
        if cells.shape != (len(self.classes), len(self.classes)):
            raise SchemaMismatch("confusion matrix shape does not match class list")
        if (cells < 0).any():
            raise SchemaMismatch("confusion matrix cells must be non-negative")
        cells.flags.writeable = False
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "classes", tuple(self.classes))

    @property
    def total(self) -> int:
        return int(self.cells.sum())

    def accuracy(self) -> float:
        return float(np.trace(self.cells)) / self.total if self.total else 0.0


def confusion_matrix(actual: Sequence[str], predicted: Sequence[str], classes: Sequence[str]) -> ConfusionMatrix:
    if len(actual) != len(predicted):
        raise LengthMismatch(f"{len(actual)} actual vs {len(predicted)} predicted labels")
    classes = tuple(classes)
    index = {c: i for i, c in enumerate(classes)}
    cells = np.zeros((len(classes), len(classes)), dtype=np.int64)
    for a, p in zip(actual, predicted):
        if a not in index:
            raise UnknownLabel(f"actual label {a!r} not in class list")
        if p not in index:
            raise UnknownLabel(f"predicted label {p!r} not in class list")
        cells[index[a], index[p]] += 1
    return ConfusionMatrix(classes=classes, cells=cells)


@dataclass(frozen=True)
class ClassMetrics:
    tpr: float
    fpr: float
    precision: float
    recall: float
    f_measure: float


@dataclass
class EvalReport:
    classes: tuple[str, ...]
    per_class: dict[str, ClassMetrics]
    weighted: ClassMetrics
    matrix: ConfusionMatrix
    n_attributes: int | None = None
    description: str = ""
    warnings: list[str] = field(default_factory=list)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def class_metrics(cm: ConfusionMatrix, n_attributes: int | None = None, description: str = "",
                  warnings: Sequence[str] = ()) -> EvalReport:
    hits = np.diag(cm.cells).tolist()  # tp per class
    supports = cm.cells.sum(axis=1).tolist()  # tp + fn
    predicted = cm.cells.sum(axis=0).tolist()  # tp + fp
    total = sum(supports)
    per_class: dict[str, ClassMetrics] = {}
    for label, tp, support, n_predicted in zip(cm.classes, hits, supports, predicted):
        tpr = _ratio(tp, support)
        fpr = _ratio(n_predicted - tp, total - support)  # fp / (fp + tn)
        precision = _ratio(tp, n_predicted)
        f_measure = _ratio(2.0 * precision * tpr, precision + tpr)
        per_class[label] = ClassMetrics(tpr, fpr, precision, tpr, f_measure)

    def weighted(attr: str) -> float:
        return _ratio(sum(getattr(per_class[c], attr) * s for c, s in zip(cm.classes, supports)), total)

    weighted_metrics = ClassMetrics(
        tpr=weighted("tpr"),
        fpr=weighted("fpr"),
        precision=weighted("precision"),
        recall=weighted("recall"),
        f_measure=weighted("f_measure"),
    )
    return EvalReport(
        classes=cm.classes,
        per_class=per_class,
        weighted=weighted_metrics,
        matrix=cm,
        n_attributes=n_attributes,
        description=description,
        warnings=list(warnings),
    )


def report_metric(report: EvalReport, metric: str) -> float:
    try:
        return getattr(report.weighted, metric)
    except AttributeError:
        raise SchemaMismatch(f"unknown metric {metric!r}") from None


TrainerFn = Callable[[Dataset], MulticlassSvmModel]


def make_trainer(spec: KernelSpec, config: TrainerConfig = TrainerConfig()) -> TrainerFn:
    return lambda ds: train_multiclass(ds, spec, config)


def stratified_folds(ds: Dataset, k: int, seed: int) -> list[list[int]]:
    """Fold assignment: shuffle all indices once, then deal per class in
    round-robin order with a fold counter that continues across classes
    (so k == n degenerates to leave-one-out). Per class, fold sizes
    differ by at most one."""
    if k < 2:
        raise SchemaMismatch("need at least 2 folds")
    if k > ds.n_instances:
        raise KTooLarge(f"k={k} exceeds {ds.n_instances} instances")
    shuffled = permutation(ds.n_instances, seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    counter = 0
    for label in class_order(ds.scheme, ds.labels):
        for idx in shuffled:
            if ds.labels[idx] != label:
                continue
            folds[counter % k].append(idx)
            counter += 1
    return folds


def cross_validate(ds: Dataset, k: int, seed: int, trainer_fn: TrainerFn) -> EvalReport:
    """Stratified k-fold cross validation pooling every held-out
    prediction into a single confusion matrix."""
    present = class_order(ds.scheme, ds.labels)
    folds = stratified_folds(ds, k, seed)
    actual: list[str] = []
    predicted: list[str] = []
    warnings: list[str] = []
    for i, fold in enumerate(folds):
        train_idx = [j for other in folds[:i] + folds[i + 1:] for j in other]
        train = take_rows(ds, sorted(train_idx))
        test = take_rows(ds, sorted(fold))
        model = trainer_fn(train)
        warnings.extend(model.warnings)
        predicted.extend(predict_dataset(model, test))
        actual.extend(test.labels)
    return class_metrics(confusion_matrix(actual, predicted, present), n_attributes=ds.n_attributes,
                         description=f"{k}-fold cross-validation [{model.kernel.describe()}]", warnings=warnings)


def holdout_evaluate(model: MulticlassSvmModel, test: Dataset) -> EvalReport:
    """The model scored on ``test``; the report carries the model's warnings."""
    if test.n_instances == 0:
        raise EmptyTestSet("test set is empty")
    predicted = predict_dataset(model, test)
    classes = class_order(test.scheme, set(model.classes) | set(test.labels))
    cm = confusion_matrix(list(test.labels), predicted, classes)
    return class_metrics(cm, n_attributes=len(model.attributes), description=model.kernel.describe(),
                         warnings=model.warnings)


DEFAULT_C_GRID = (0.1, 1.0, 10.0, 100.0)
DEFAULT_EXPONENT_GRID = (1.0, 2.0, 3.0)
DEFAULT_GAMMA_GRID = (0.01, 0.1, 1.0, 10.0)


def default_grid(families: Sequence[str]) -> list[KernelSpec]:
    specs: list[KernelSpec] = []
    for family in families:
        if family in ("poly", "normalized_poly"):
            for C in DEFAULT_C_GRID:
                for e in DEFAULT_EXPONENT_GRID:
                    specs.append(KernelSpec(family=family, C=C, exponent=e))
        elif family == "rbf":
            for C in DEFAULT_C_GRID:
                for g in DEFAULT_GAMMA_GRID:
                    specs.append(KernelSpec(family=family, C=C, gamma=g))
        elif family == "puk":
            for C in DEFAULT_C_GRID:
                specs.append(KernelSpec(family=family, C=C))
        else:
            raise SchemaMismatch(f"unknown kernel family {family!r}")
    return specs


@dataclass
class GridCell:
    spec: KernelSpec
    report: EvalReport | None
    error: Exception | None = None
    n_support_vectors: int = 0


def grid_search(ds_train: Dataset, ds_test: Dataset, grids: Sequence[KernelSpec],
                config: TrainerConfig = TrainerConfig()) -> list[GridCell]:
    """Exhaustive sweep; cells sort by weighted precision descending,
    then by fewer support vectors, then by grid order. Per-cell training
    failures are recorded, not fatal."""
    if not grids:
        raise SchemaMismatch("empty kernel grid")
    cells: list[GridCell] = []
    for spec in grids:
        try:
            model = train_multiclass(ds_train, spec, config)
            report = holdout_evaluate(model, ds_test)
            cells.append(GridCell(spec=spec, report=report,
                                  n_support_vectors=model.n_support_vectors))
        except OpdenseError as exc:
            cells.append(GridCell(spec=spec, report=None, error=exc))
    # a stable sort keeps grid order among ties
    cells.sort(key=lambda cell: (-(cell.report.weighted.precision if cell.report else -1.0),
                                 cell.n_support_vectors))
    return cells


# --- rendering --------------------------------------------------------------

def _pct(value: float) -> str:
    return f"{value * 100:.1f}%"


def render_report(report: EvalReport) -> str:
    headers = ["Class", "TPR", "FPR", "Precision", "Recall", "F-Measure"]
    rows = []
    for label in report.classes:
        m = report.per_class[label]
        rows.append([label, _pct(m.tpr), _pct(m.fpr), _pct(m.precision), _pct(m.recall), _pct(m.f_measure)])
    w = report.weighted
    rows.append(["Weighted avg.", _pct(w.tpr), _pct(w.fpr), _pct(w.precision), _pct(w.recall), _pct(w.f_measure)])
    widths = [max(len(h), max(len(r[i]) for r in rows)) for i, h in enumerate(headers)]
    lines = []
    if report.description:
        lines.append(f"Model: {report.description}")
    if report.n_attributes is not None:
        lines.append(f"Attributes: {report.n_attributes}")
    lines.append("  ".join(h.ljust(widths[i]) if i == 0 else h.rjust(widths[i]) for i, h in enumerate(headers)))
    for r in rows:
        lines.append("  ".join(r[0].ljust(widths[0]) if i == 0 else r[i].rjust(widths[i]) for i in range(len(r))))
    lines.append("")
    lines.append("Confusion matrix (rows = actual):")
    cw = max(len(c) for c in report.classes)
    num_w = max(2, len(str(int(report.matrix.cells.max()))) if report.matrix.total else 2)
    lines.append(" " * (cw + 2) + " ".join(c[:num_w].rjust(num_w) for c in report.classes))
    for i, label in enumerate(report.classes):
        lines.append(label.ljust(cw + 2) + " ".join(str(int(v)).rjust(num_w) for v in report.matrix.cells[i]))
    for warning in report.warnings:
        lines.append(f"warning: {warning}")
    return "\n".join(lines) + "\n"


def report_to_json(report: EvalReport) -> str:
    doc = {
        "description": report.description,
        "attributes": report.n_attributes,
        "classes": list(report.classes),
        "per_class": {
            label: vars(report.per_class[label]) for label in report.classes
        },
        "weighted": vars(report.weighted),
        "matrix": [[int(v) for v in row] for row in report.matrix.cells],
        "warnings": list(report.warnings),
    }
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
