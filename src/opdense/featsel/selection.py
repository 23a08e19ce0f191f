"""Selection result container and its on-disk form."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ..dataio import NUMBER, json_field, json_floats, json_number, json_object, json_strings
from ..dataset import ScalingParams
from ..errors import SchemaMismatch

EVALUATORS = (
    "cfs_subset",
    "correlation",
    "gain_ratio",
    "info_gain",
    "one_r",
    "pca",
    "relieff",
    "symm_uncert",
)
SEARCHES = ("best_first", "greedy_stepwise", "ranker")
SELECTION_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class AttributeScore:
    attribute: str
    score: float

    def __post_init__(self):
        if not np.isfinite(self.score):
            raise SchemaMismatch(f"score for {self.attribute!r} is not finite")


@dataclass
class PcaModel:
    """Enough of a principal-component decomposition to project new data."""

    means: tuple[float, ...]
    stds: tuple[float, ...] | None  # None for the covariance matrix variant
    eigenvalues: tuple[float, ...]
    loadings: list[list[float]]  # attributes x retained components
    source_attributes: tuple[str, ...]
    scaling: ScalingParams  # each component's training-set (min, max)

    def transform_matrix(self, X: np.ndarray) -> np.ndarray:
        Z = X - np.array(self.means)
        if self.stds is not None:
            Z = Z / np.array(self.stds)
        return Z @ np.array(self.loadings)


@dataclass
class SelectionResult:
    evaluator: str
    search: str
    retained: tuple[str, ...]
    scores: tuple[AttributeScore, ...] | None = None
    threshold: float | None = None
    num_to_select: int | None = None
    params: dict = field(default_factory=dict)
    pca: PcaModel | None = None

    def __post_init__(self):
        if self.evaluator not in EVALUATORS:
            raise SchemaMismatch(f"unknown evaluator {self.evaluator!r}")
        if self.search not in SEARCHES:
            raise SchemaMismatch(f"unknown search {self.search!r}")
        if self.threshold is not None and not np.isfinite(self.threshold):
            raise SchemaMismatch(f"threshold must be a finite number, not {self.threshold!r}")
        n = self.num_to_select
        if n is not None and (isinstance(n, bool) or not isinstance(n, int) or n < 1):
            raise SchemaMismatch(f"num_to_select must be a positive integer, not {n!r}")


def save_selection(result: SelectionResult) -> str:
    doc = {
        "schema": SELECTION_SCHEMA_VERSION,
        "evaluator": result.evaluator,
        "search": result.search,
        "retained": list(result.retained),
        "scores": None if result.scores is None else [
            {"attribute": s.attribute, "score": round(float(s.score), 8)} for s in result.scores
        ],
        "threshold": result.threshold,
        "num_to_select": result.num_to_select,
        "params": result.params,
        "pca": None if result.pca is None else {
            "means": list(result.pca.means),
            "stds": None if result.pca.stds is None else list(result.pca.stds),
            "eigenvalues": list(result.pca.eigenvalues),
            "loadings": result.pca.loadings,
            "source_attributes": list(result.pca.source_attributes),
            "component_mins": list(result.pca.scaling.mins),
            "component_maxs": list(result.pca.scaling.maxs),
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def load_selection(text: str) -> SelectionResult:
    doc = json_object(text, "selection")
    if doc.get("schema") != SELECTION_SCHEMA_VERSION:
        raise SchemaMismatch(f"unsupported selection schema {doc.get('schema')!r}")
    retained = json_strings(doc, "retained", "selection")
    scores = None
    if json_field(doc, "scores", (list, type(None)), "selection") is not None:
        scores = tuple(AttributeScore(json_field(s, "attribute", str, "selection score"),
                                      json_number(s, "score", "selection score"))
                       for s in doc["scores"])
    threshold = None
    if json_field(doc, "threshold", (*NUMBER, type(None)), "selection") is not None:
        threshold = json_number(doc, "threshold", "selection")
    pca = None
    if json_field(doc, "pca", (dict, type(None)), "selection") is not None:
        p = doc["pca"]
        source = json_strings(p, "source_attributes", "selection pca")
        means = json_floats(p, "means", "selection pca")
        stds = None
        if json_field(p, "stds", (list, type(None)), "selection pca") is not None:
            stds = json_floats(p, "stds", "selection pca")
        loadings = json_floats(p, "loadings", "selection pca", ndim=2)
        mins = json_floats(p, "component_mins", "selection pca")
        maxs = json_floats(p, "component_maxs", "selection pca")
        if len(means) != len(source) or (stds is not None and len(stds) != len(source)) \
                or loadings.shape != (len(source), len(retained)) or len(mins) != len(retained):
            raise SchemaMismatch("selection pca arrays do not match its attributes")
        pca = PcaModel(
            means=tuple(means.tolist()),
            stds=None if stds is None else tuple(stds.tolist()),
            eigenvalues=tuple(json_floats(p, "eigenvalues", "selection pca").tolist()),
            loadings=p["loadings"],
            source_attributes=source,
            scaling=ScalingParams(tuple(mins.tolist()), tuple(maxs.tolist())),
        )
    return SelectionResult(
        evaluator=json_field(doc, "evaluator", str, "selection"),
        search=json_field(doc, "search", str, "selection"),
        retained=retained,
        scores=scores,
        threshold=threshold,
        num_to_select=json_field(doc, "num_to_select", (int, type(None)), "selection"),
        params=json_field(doc, "params", dict, "selection") if "params" in doc else {},
        pca=pca,
    )
