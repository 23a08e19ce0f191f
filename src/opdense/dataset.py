"""Instance matrix assembly and preprocessing.

A Dataset is an immutable (attributes, matrix, labels) triple where
every cell is an opcode density: count / total, rounded half-up to 8
decimals. Eight decimals keep a count of 5 among a million instructions
distinguishable from a true zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    EmptyResult,
    SchemaMismatch,
    TooFewInstances,
    UnknownAttribute,
    UnknownMnemonic,
)
from .labels import ClassLabel, LabelScheme, infer_scheme, scheme_labels
from .reports import NAME_BREAK_RE, LabeledHistogram
from .rng import permutation
from .rounding import round_half_up_fractions

DENSITY_DECIMALS = 8


@dataclass(frozen=True)
class ScalingParams:
    """Per-attribute (min, max) pairs captured from a training set."""

    mins: tuple[float, ...]
    maxs: tuple[float, ...]

    def __post_init__(self):
        if len(self.mins) != len(self.maxs):
            raise SchemaMismatch("scaling min/max lengths differ")
        for lo, hi in zip(self.mins, self.maxs):
            if lo > hi:
                raise SchemaMismatch("scaling has min > max")

    @classmethod
    def fit(cls, X: np.ndarray) -> ScalingParams:
        """Each column's (min, max) over the rows of ``X``."""
        return cls(tuple(X.min(axis=0).tolist()), tuple(X.max(axis=0).tolist()))

    def apply(self, X: np.ndarray) -> np.ndarray:
        """(X - min) / (max - min) clipped into [0, 1]; constant columns map to 0."""
        if X.shape[1] != len(self.mins):
            raise SchemaMismatch("scaling width does not match dataset")
        mins = np.array(self.mins)
        span = np.array(self.maxs) - mins
        out = (X - mins) / np.where(span == 0, 1.0, span)
        out[:, span == 0] = 0.0
        return np.clip(out, 0.0, 1.0)

    def take(self, cols: Sequence[int]) -> ScalingParams:
        """The pairs of columns ``cols``, in that order."""
        return ScalingParams(tuple(self.mins[j] for j in cols), tuple(self.maxs[j] for j in cols))


@dataclass(frozen=True)
class Dataset:
    attributes: tuple[str, ...]
    X: np.ndarray
    labels: tuple[str, ...]
    scheme: LabelScheme
    scaling: ScalingParams | None = None

    def __post_init__(self):
        X = np.array(self.X, dtype=float)
        if X.ndim != 2:
            raise SchemaMismatch("instance matrix must be two dimensional")
        if X.shape[0] != len(self.labels):
            raise SchemaMismatch("label count does not match instance count")
        if X.shape[1] != len(self.attributes):
            raise SchemaMismatch("attribute count does not match matrix width")
        if len(set(self.attributes)) != len(self.attributes):
            raise SchemaMismatch("attribute names must be unique")
        if "" in self.attributes or NAME_BREAK_RE.search("".join(self.attributes)):
            bad = next(n for n in self.attributes if not n or NAME_BREAK_RE.search(n))
            raise SchemaMismatch(f"attribute name must be nonempty without whitespace or comma: {bad!r}")
        if X.size and (not np.isfinite(X).all() or (X < 0).any()):
            raise SchemaMismatch("matrix entries must be finite and non-negative")
        # one pass over the labels; the per-label check only to name the first bad one
        if not all(map(scheme_labels(self.scheme).__contains__, self.labels)):
            for value in self.labels:
                ClassLabel(self.scheme, value)
        if self.scaling is not None and len(self.scaling.mins) != len(self.attributes):
            raise SchemaMismatch("scaling width does not match attribute count")
        X.flags.writeable = False
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "attributes", tuple(self.attributes))
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def n_instances(self) -> int:
        return self.X.shape[0]

    @property
    def n_attributes(self) -> int:
        return self.X.shape[1]


def build_master_list(histograms: Sequence[LabeledHistogram]) -> list[str]:
    """Union of all mnemonics, deduplicated and sorted A to Z."""
    if not histograms:
        raise EmptyResult("no histograms to build a master list from")
    names: set[str] = set()
    for lh in histograms:
        names.update(lh.histogram.counts)
    return sorted(names)


def assemble(
    histograms: Sequence[LabeledHistogram],
    master_list: Sequence[str],
    dedupe: bool = False,
) -> Dataset:
    """One density row per histogram, in sample_id order, over the master
    attribute list; opcodes a sample never used get density zero."""
    if not histograms:
        raise EmptyResult("no histograms to assemble")
    master = list(master_list)
    index = {name: i for i, name in enumerate(master)}
    ordered = sorted(histograms, key=lambda lh: lh.histogram.sample_id)

    X = np.zeros((len(ordered), len(master)))
    for i, lh in enumerate(ordered):
        # the histogram holds 0 <= count <= total and total > 0
        counts = lh.histogram.counts
        try:
            columns = [index[name] for name in counts]
        except KeyError as exc:
            raise UnknownMnemonic(exc.args[0]) from None
        X[i, columns] = round_half_up_fractions(counts.values(), lh.histogram.total, DENSITY_DECIMALS)
    labels = [lh.label.value for lh in ordered]
    if dedupe:  # the first row of each distinct value
        keep = np.sort(np.unique(X, axis=0, return_index=True)[1])
        X, labels = X[keep], [labels[i] for i in keep]
    return Dataset(attributes=tuple(master), X=X, labels=tuple(labels), scheme=infer_scheme(labels))


def sort_attributes_by_mean_density(ds: Dataset) -> Dataset:
    """Reorder columns by descending column mean, ties alphabetical."""
    means = ds.X.mean(axis=0) if ds.n_instances else np.zeros(ds.n_attributes)
    return project(ds, [name for _, name in sorted(zip((-means).tolist(), ds.attributes))])


def minmax_scale(ds: Dataset) -> tuple[Dataset, ScalingParams]:
    """Linear (0, 1) scaling per attribute; constant columns map to 0."""
    if ds.n_instances == 0:
        raise EmptyResult("cannot scale an empty dataset")
    params = ScalingParams.fit(ds.X)
    return replace(ds, X=params.apply(ds.X), scaling=params), params


def quantile(values: Sequence[float] | np.ndarray, levels: Sequence[float] | np.ndarray) -> np.ndarray:
    """Each level q by linear interpolation between order statistics at
    position (n+1)*q, clamped to [1, n]. This is the one quantile rule used
    everywhere; the values are sorted once for all the levels."""
    data = np.sort(np.asarray(values, dtype=float))
    n = data.size
    if n == 0:
        raise EmptyResult("quantile of empty data")
    pos = np.clip((n + 1) * np.asarray(levels, dtype=float), 1.0, float(n))
    lo = np.floor(pos).astype(np.intp)
    below, above = data[lo - 1], data[np.minimum(lo, n - 1)]
    return np.where(lo < n, below + (pos - lo) * (above - below), data[-1])


@dataclass(frozen=True)
class IqrFlags:
    outlier: np.ndarray
    extreme: np.ndarray


def iqr_flag(ds: Dataset, outlier_factor: float = 3.0, extreme_factor: float = 6.0) -> IqrFlags:
    """Interquartile-range flags, information only; nothing is removed.

    A cell beyond [Q1 - f*IQR, Q3 + f*IQR] flags its instance, with f the
    outlier factor (3) or the extreme factor (6).
    """
    if not (0 < outlier_factor < math.inf and 0 < extreme_factor < math.inf):
        raise SchemaMismatch("IQR factors must be positive and finite")
    if ds.n_instances < 4:
        raise TooFewInstances("need at least 4 instances for quartiles")
    outlier = np.zeros(ds.n_instances, dtype=bool)
    extreme = np.zeros(ds.n_instances, dtype=bool)
    for j in range(ds.n_attributes):
        col = ds.X[:, j]
        q1, q3 = quantile(col, (0.25, 0.75))
        iqr = q3 - q1
        out_mask = (col < q1 - outlier_factor * iqr) | (col > q3 + outlier_factor * iqr)
        ext_mask = (col < q1 - extreme_factor * iqr) | (col > q3 + extreme_factor * iqr)
        outlier |= out_mask
        extreme |= ext_mask
    outlier |= extreme
    return IqrFlags(outlier=outlier, extreme=extreme)


def take_rows(ds: Dataset, idx: Sequence[int]) -> Dataset:
    """The instances at ``idx``, in that order; everything else kept."""
    idx = list(idx)
    return replace(ds, X=ds.X[idx], labels=tuple(ds.labels[i] for i in idx))


def shuffle(ds: Dataset, seed: int = 42) -> Dataset:
    """Fisher-Yates permutation of the instances driven by SplitMix64."""
    return take_rows(ds, permutation(ds.n_instances, seed))


def split_percentage(ds: Dataset, percent: float, invert: bool) -> Dataset:
    """Drop (or, inverted, keep) the first ceil(n*percent/100) instances.

    The plain call yields the training side, the inverted call the test
    side; together they partition the dataset.
    """
    if not 0 < percent < 100:
        raise SchemaMismatch("percent must be strictly between 0 and 100")
    n_removed = math.ceil(ds.n_instances * percent / 100.0)
    idx = range(n_removed) if invert else range(n_removed, ds.n_instances)
    if not idx:
        raise EmptyResult("split leaves one side empty")
    return take_rows(ds, idx)


def project(ds: Dataset, attribute_order: Iterable[str]) -> Dataset:
    """Columns restricted (and reordered) to ``attribute_order``."""
    names = list(attribute_order)
    index = {name: j for j, name in enumerate(ds.attributes)}
    try:
        cols = [index[name] for name in names]
    except KeyError as exc:
        raise UnknownAttribute(exc.args[0]) from None
    return Dataset(
        attributes=tuple(names),
        X=ds.X[:, cols],
        labels=ds.labels,
        scheme=ds.scheme,
        scaling=None if ds.scaling is None else ds.scaling.take(cols),
    )
