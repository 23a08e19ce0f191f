"""Attribute evaluators.

The entropy family (info gain, gain ratio, symmetrical uncertainty) and
the CFS subset merit work on equal-frequency discretized columns; the
correlation, OneR and ReliefF evaluators use the raw numeric columns.
No score draws a random number: each is a function of the dataset alone.
"""

from __future__ import annotations

import math

import numpy as np

from ..dataset import Dataset, ScalingParams, quantile
from ..errors import DegenerateMatrix, EmptyResult, SchemaMismatch
from .selection import AttributeScore, PcaModel, SelectionResult


def discretize_equal_frequency(values, bins: int = 10) -> np.ndarray:
    """Each value's bin code. Cut points sit at the empirical quantiles
    k/bins, a value equal to a cut stays in the lower bin, and duplicate
    cut points collapse, so constant data ends up in a single bin."""
    if bins < 2:
        raise SchemaMismatch("need at least 2 bins")
    values = np.asarray(values, dtype=float)
    cuts = np.unique(quantile(values, np.arange(1, bins) / bins))
    return np.searchsorted(cuts, values, side="left")


def _entropy_from_codes(codes: np.ndarray) -> float:
    n = codes.size
    if n == 0:
        return 0.0
    counts = np.bincount(codes)  # codes are non-negative ints
    p = counts[counts > 0] / n
    return float(-(p * np.log2(p)).sum())


def _label_codes(labels) -> np.ndarray:
    values = np.asarray(labels, dtype=object)
    _, codes = np.unique(values.astype(str), return_inverse=True)
    return codes


def _entropies(a: np.ndarray, b: np.ndarray) -> tuple[float, float, float]:
    """H(a), H(b) and the joint H(a, b), in bits, of two code arrays."""
    joint = a.astype(np.int64) * (b.max() + 1 if b.size else 1) + b
    return _entropy_from_codes(a), _entropy_from_codes(b), _entropy_from_codes(joint)


def info_gain(codes: np.ndarray, labels) -> float:
    """H(class) - H(class | attr), in bits, from the attribute's bin codes."""
    h_a, h_b, h_ab = _entropies(codes, _label_codes(labels))
    return h_a + h_b - h_ab


def gain_ratio(codes: np.ndarray, labels) -> float:
    """Information gain over the attribute's own entropy; 0 when the
    attribute carries no split at all."""
    h_a, h_b, h_ab = _entropies(codes, _label_codes(labels))
    if h_a == 0.0:
        return 0.0
    return (h_a + h_b - h_ab) / h_a


def _symmetric_uncertainty(a: np.ndarray, b: np.ndarray) -> float:
    """2 * I(a; b) / (H(a) + H(b)), in [0, 1]; 0 when both are constant."""
    h_a, h_b, h_ab = _entropies(a, b)
    denom = h_a + h_b
    if denom == 0.0:
        return 0.0
    return 2.0 * (h_a + h_b - h_ab) / denom


def symm_uncert(codes: np.ndarray, labels) -> float:
    """2 * IG / (H(attr) + H(class)), in [0, 1], from the attribute's bin codes."""
    return _symmetric_uncertainty(codes, _label_codes(labels))


def _pearson_abs(cx: np.ndarray, sx: float, indicator: np.ndarray) -> float:
    """|Pearson r| of a centred column ``cx`` of norm ``sx`` and an indicator."""
    cy = indicator - indicator.mean()
    sy = math.sqrt(float(cy @ cy))
    if sx == 0.0 or sy == 0.0:
        return 0.0
    return abs(float(cx @ cy) / (sx * sy))


def correlation_eval(column, labels) -> float:
    """|Pearson r| against the class; with more than two classes, the
    support-weighted mean of |r| against each one-vs-rest indicator."""
    column = np.asarray(column, dtype=float)
    values = np.asarray(labels, dtype=object)
    classes = sorted(set(values))
    n = len(values)
    if len(classes) <= 1:
        return 0.0
    cx = column - column.mean()
    sx = math.sqrt(float(cx @ cx))
    if len(classes) == 2:
        return _pearson_abs(cx, sx, (values == classes[1]).astype(float))
    total = 0.0
    for cls in classes:
        indicator = (values == cls).astype(float)
        total += indicator.sum() / n * _pearson_abs(cx, sx, indicator)
    return total


def one_r_eval(column, labels, min_bucket: int = 6) -> float:
    """Training accuracy of a one-attribute rule: sort by value, cut into
    buckets of at least ``min_bucket`` instances (never splitting equal
    values; a shorter tail joins the bucket before it), and score the
    fraction of instances that carry their bucket's majority label.

    WEKA then merges adjacent buckets that share a majority label, which
    shortens the printed rule but cannot change this score: the merged
    bucket's majority is the label its members share, and counting it
    over the merged bucket sums the members' majority counts."""
    if min_bucket < 1:
        raise SchemaMismatch(f"OneR needs a minimum bucket size of at least 1, not {min_bucket}")
    column = np.asarray(column, dtype=float)
    n = len(column)
    if not n:
        return 0.0
    order = np.argsort(column, kind="stable")
    ordered = column[order]
    codes = _label_codes(labels)[order]
    cuts = [0]
    for end in np.flatnonzero(ordered[1:] != ordered[:-1]) + 1:
        if end - cuts[-1] >= min_bucket:
            cuts.append(int(end))
    if len(cuts) > 1 and n - cuts[-1] < min_bucket:
        cuts.pop()
    correct = sum(int(np.bincount(codes[a:b]).max()) for a, b in zip(cuts, cuts[1:] + [n]))
    return correct / n


def relieff_scores(X: np.ndarray, labels, attribute_names, k: int = 10) -> list[AttributeScore]:
    """ReliefF weights over every instance: reward attributes that differ
    on nearest misses and agree on nearest hits. Distances are Euclidean
    over all columns; per-attribute differences are range-normalized. k
    is truncated for classes with fewer members."""
    if k < 1:
        raise SchemaMismatch("ReliefF needs at least 1 neighbour")
    X = np.asarray(X, dtype=float)
    values = np.asarray(labels, dtype=object)
    n, d = X.shape
    ranges = X.max(axis=0) - X.min(axis=0) if n else np.zeros(d)
    safe = np.where(ranges == 0, 1.0, ranges)  # a constant column's diffs are 0 either way

    classes = sorted(set(values))
    members = {c: np.flatnonzero(values == c) for c in classes}
    priors = {c: len(members[c]) / n for c in classes}

    weights = np.zeros(d)
    for r in range(n):
        diffs = np.abs(X - X[r]) / safe
        dist = np.sqrt((diffs * diffs).sum(axis=1))

        def nearest(pool: np.ndarray, count: int) -> np.ndarray:
            order = np.lexsort((pool, dist[pool]))
            return pool[order][:count]

        own = values[r]
        hits_pool = members[own][members[own] != r]
        k_hit = min(k, len(hits_pool))
        if k_hit:
            hit_idx = nearest(hits_pool, k_hit)
            weights -= diffs[hit_idx].sum(axis=0) / (n * k_hit)
        denom = 1.0 - priors[own]
        for other in classes:
            if other == own:
                continue
            pool = members[other]
            k_miss = min(k, len(pool))
            if not k_miss:
                continue
            miss_idx = nearest(pool, k_miss)
            weights += (priors[other] / denom) * diffs[miss_idx].sum(axis=0) / (n * k_miss)

    return [AttributeScore(name, float(w)) for name, w in zip(attribute_names, weights)]


def pca_eval(
    ds: Dataset,
    matrix: str = "correlation",
    variance_cover: float = 0.95,
) -> SelectionResult:
    """Eigendecompose the correlation or covariance matrix of the feature
    columns and keep the smallest eigenvalue-descending prefix covering
    the requested share of total variance. The result's ``pca`` holds the
    decomposition that ``reduce_dataset`` projects with.

    Per-attribute ranking does not survive the transformation, so the
    result is excluded from rank aggregation; projected datasets name
    their columns pc1, pc2, ...
    """
    if not 0 < variance_cover <= 1:
        raise SchemaMismatch("the variance to cover must be in (0, 1]")
    if ds.n_attributes < 2:
        raise DegenerateMatrix("principal components need at least 2 attributes")
    if ds.n_instances == 0:
        raise EmptyResult("principal components need at least one instance")
    if matrix not in ("correlation", "covariance"):
        raise SchemaMismatch(f"unknown matrix kind {matrix!r}")
    X = ds.X
    means = X.mean(axis=0)
    centred = X - means
    stds = None
    if matrix == "correlation":
        # sample standard deviation, so the matrix has a unit diagonal
        raw_std = np.sqrt((centred * centred).sum(axis=0) / max(ds.n_instances - 1, 1))
        stds = np.where(raw_std == 0, 1.0, raw_std)
        centred = centred / stds
    cov = centred.T @ centred / max(ds.n_instances - 1, 1)
    eigenvalues, vectors = np.linalg.eigh(cov)
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues = np.maximum(eigenvalues[order], 0.0)
    vectors = vectors[:, order]
    # deterministic sign: largest-magnitude loading is positive
    for j in range(vectors.shape[1]):
        col = vectors[:, j]
        lead = np.argmax(np.abs(col))
        if col[lead] < 0:
            vectors[:, j] = -col

    total = eigenvalues.sum()
    retained = len(eigenvalues)
    if total > 0:
        cum = np.cumsum(eigenvalues) / total
        retained = int(np.searchsorted(cum, variance_cover - 1e-12) + 1)
        retained = min(retained, len(eigenvalues))
    loadings = [[float(v) for v in row] for row in vectors[:, :retained]]
    Z = centred @ np.array(loadings)  # the training set as transform_matrix maps it
    pca = PcaModel(
        means=tuple(float(v) for v in means),
        stds=None if stds is None else tuple(float(v) for v in stds),
        eigenvalues=tuple(float(v) for v in eigenvalues[:retained]),
        loadings=loadings,
        source_attributes=ds.attributes,
        scaling=ScalingParams.fit(Z),
    )
    names = tuple(f"pc{j + 1}" for j in range(retained))
    scores = tuple(AttributeScore(name, float(eigenvalues[j])) for j, name in enumerate(names))
    return SelectionResult(
        evaluator="pca",
        search="ranker",
        retained=names,
        scores=scores,
        threshold=None,
        params={"matrix": matrix, "variance_cover": variance_cover},
        pca=pca,
    )


class CfsMeritScorer:
    """CFS merit over a dataset: k * mean(attr-class correlation) divided
    by sqrt(k + k(k-1) * mean(attr-attr correlation)), correlations being
    symmetrical uncertainty over discretized columns. Caches pairwise
    terms so subset searches stay cheap."""

    def __init__(self, ds: Dataset, bins: int = 10):
        self.attributes = ds.attributes
        self._codes = {
            name: discretize_equal_frequency(ds.X[:, j], bins)
            for j, name in enumerate(ds.attributes)
        }
        self._labels = _label_codes(ds.labels)
        self._cf: dict[str, float] = {}
        self._ff: dict[tuple[str, str], float] = {}

    def class_correlation(self, name: str) -> float:
        if name not in self._cf:
            self._cf[name] = _symmetric_uncertainty(self._codes[name], self._labels)
        return self._cf[name]

    def pair_correlation(self, a: str, b: str) -> float:
        key = (a, b) if a <= b else (b, a)
        if key not in self._ff:
            self._ff[key] = _symmetric_uncertainty(self._codes[key[0]], self._codes[key[1]])
        return self._ff[key]

    def merit(self, subset) -> float:
        subset = list(subset)
        k = len(subset)
        r_cf = sum(self.class_correlation(a) for a in subset) / max(k, 1)
        pairs = [(subset[i], subset[j]) for i in range(k) for j in range(i + 1, k)]
        r_ff = sum(self.pair_correlation(a, b) for a, b in pairs) / max(len(pairs), 1)
        return merit_from_correlations(k, r_cf, r_ff)

    __call__ = merit


def merit_from_correlations(k: int, mean_class_corr: float, mean_pair_corr: float) -> float:
    """The CFS merit formula itself."""
    if k == 0:
        return 0.0
    return k * mean_class_corr / math.sqrt(k + k * (k - 1) * mean_pair_corr)


# evaluator -> score of one column, given (column, labels, bins, min_bucket)
_COLUMN_SCORERS = {
    "info_gain": lambda col, labels, bins, _: info_gain(discretize_equal_frequency(col, bins), labels),
    "gain_ratio": lambda col, labels, bins, _: gain_ratio(discretize_equal_frequency(col, bins), labels),
    "symm_uncert": lambda col, labels, bins, _: symm_uncert(discretize_equal_frequency(col, bins), labels),
    "correlation": lambda col, labels, *_: correlation_eval(col, labels),
    "one_r": lambda col, labels, _, min_bucket: one_r_eval(col, labels, min_bucket=min_bucket),
}


def rank_attributes(
    ds: Dataset,
    evaluator: str,
    bins: int = 10,
    min_bucket: int = 6,
    relieff_k: int = 10,
    seed: int = 42,
) -> list[AttributeScore]:
    """Per-attribute scores of a dataset for the ranker search. Every
    evaluator is deterministic; nothing reads ``seed``."""
    if ds.n_instances == 0:
        raise EmptyResult(f"{evaluator} needs at least one instance")
    if evaluator == "relieff":
        return relieff_scores(ds.X, ds.labels, ds.attributes, k=relieff_k)
    if evaluator not in _COLUMN_SCORERS:
        raise SchemaMismatch(f"evaluator {evaluator!r} does not produce a per-attribute ranking")
    score = _COLUMN_SCORERS[evaluator]
    return [AttributeScore(name, float(score(ds.X[:, j], ds.labels, bins, min_bucket)))
            for j, name in enumerate(ds.attributes)]
