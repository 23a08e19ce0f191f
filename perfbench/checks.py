"""Correctness checks made apart from the program.

Each check returns a list of problems; an empty list means the output
passed. None of them calls back into opdense for the quantity it checks.
"""

from __future__ import annotations

import math

import numpy as np

DENSITY_DECIMALS = 8


def check_counts(sample_id: str, expected: dict[str, int], decoded: dict[str, int],
                 unknown_bytes: int, random_bytes: int) -> list[str]:
    """Code-only files must decode to exactly the generated counts. A file
    with a random section decodes at least those, and cannot report more
    unknown bytes than the random section holds."""
    if random_bytes == 0:
        if decoded != expected or unknown_bytes:
            diff = sorted(k for k in set(expected) | set(decoded) if expected.get(k) != decoded.get(k))
            return [f"{sample_id}: decoded counts differ from the generator on {diff[:5]}, "
                    f"{unknown_bytes} unknown bytes"]
        return []
    problems = [f"{sample_id}: {name} decoded {decoded.get(name, 0)} < generated {count}"
                for name, count in expected.items() if decoded.get(name, 0) < count]
    if unknown_bytes > random_bytes:
        problems.append(f"{sample_id}: {unknown_bytes} unknown bytes > random section of {random_bytes}")
    return problems


def check_density_rows(X: np.ndarray) -> list[str]:
    """Each raw density row sums to 1 within the half-up rounding of its
    nonzero cells (each off by at most half a unit in the 8th decimal)."""
    X = np.asarray(X, dtype=float)
    slack = (X > 0).sum(axis=1) * 0.5 * 10.0 ** -DENSITY_DECIMALS + 1e-12
    bad = np.flatnonzero(np.abs(X.sum(axis=1) - 1.0) > slack)
    return [f"density row {i} sums to {X[i].sum():.10f}" for i in bad[:5]]


def check_same_predictions(first: list[str], second: list[str], what: str) -> list[str]:
    if len(first) != len(second):
        return [f"{what}: {len(first)} vs {len(second)} predictions"]
    diff = [i for i, (a, b) in enumerate(zip(first, second)) if a != b]
    return [f"{what}: predictions differ at rows {diff[:5]}"] if diff else []


def weighted_precision(actual: list[str], predicted: list[str]) -> float:
    """Per-class precision weighted by each class's actual support; a
    class never predicted has precision 0."""
    total = len(actual)
    out = 0.0
    for label in set(actual):
        support = sum(1 for a in actual if a == label)
        hits = sum(1 for a, p in zip(actual, predicted) if p == label)
        correct = sum(1 for a, p in zip(actual, predicted) if p == label and a == label)
        out += (correct / hits if hits else 0.0) * support / total
    return out


def puk_gram(X: np.ndarray, sigma: float = 1.0, omega: float = 1.0) -> np.ndarray:
    """Pearson VII kernel, 1 / (1 + (2 sqrt(2^(1/omega) - 1) |x - y| / sigma)^2)^omega,
    with distances summed coordinate by coordinate."""
    X = np.asarray(X, dtype=float)
    d2 = np.empty((len(X), len(X)))
    for i in range(len(X)):
        diff = X - X[i]
        d2[i] = (diff * diff).sum(axis=1)
    factor = (2.0 * math.sqrt(2.0 ** (1.0 / omega) - 1.0) / sigma) ** 2
    return (1.0 + factor * d2) ** (-omega)


def check_machine(X: np.ndarray, y: np.ndarray, support_vectors: np.ndarray, alphas: np.ndarray,
                  bias: float, C: float, tolerance: float, what: str) -> list[str]:
    """Dual feasibility and KKT conditions of one binary machine, on its
    training rows X (labels y = +-1) and a recomputed PUK Gram.

    Support vectors are matched back to training rows in order; rows that
    are not support vectors have alpha = 0. An SMO step conserves
    sum(alpha*y) except when it snaps a multiplier onto a bound, which
    moves it by under 1e-8; one snap per multiplier is allowed."""
    problems = []
    full = np.zeros(len(X))
    j = 0
    for i in range(len(X)):
        if j < len(support_vectors) and np.array_equal(X[i], support_vectors[j]):
            full[i] = alphas[j]
            j += 1
    if j != len(support_vectors):
        return [f"{what}: {len(support_vectors) - j} support vectors match no training row"]
    if (alphas < 0).any() or (alphas > C).any():
        problems.append(f"{what}: alpha outside [0, {C}] (min {alphas.min()}, max {alphas.max()})")
    drift = abs(float(full @ y))
    if drift > 1e-8 * len(X):
        problems.append(f"{what}: |sum(alpha*y)| = {drift:.3e} over {len(X)} rows")
    margin = y * (puk_gram(X) @ (full * y) + bias) - 1.0
    interior = (full > 0) & (full < C)
    violation = np.where(full == 0, np.maximum(-margin, 0.0),
                         np.where(full >= C, np.maximum(margin, 0.0), np.abs(margin)))
    worst = float(violation.max()) if len(violation) else 0.0
    if worst > tolerance + 1e-9:
        kind = "interior" if interior[int(np.argmax(violation))] else "bound"
        problems.append(f"{what}: KKT violation {worst:.3e} > {tolerance} at a {kind} point")
    return problems


def correlation_scores(X: np.ndarray, labels) -> np.ndarray:
    """Support-weighted mean over classes of |Pearson r| between each
    column and the one-vs-rest class indicator (plain |r| for two
    classes); a constant column scores 0."""
    X = np.asarray(X, dtype=float)
    labels = np.asarray(labels, dtype=object)
    classes = sorted(set(labels))
    centred = X - X.mean(axis=0)
    sx = np.sqrt((centred ** 2).sum(axis=0))

    def abs_r(indicator):
        ci = indicator - indicator.mean()
        si = math.sqrt(float(ci @ ci))
        denom = sx * si
        return np.where(denom > 0, np.abs(centred.T @ ci) / np.where(denom > 0, denom, 1.0), 0.0)

    if len(classes) == 2:
        return abs_r((labels == classes[1]).astype(float))
    return sum((labels == c).mean() * abs_r((labels == c).astype(float)) for c in classes)


def check_correlation(attributes, scores: dict[str, float], X: np.ndarray, labels) -> list[str]:
    reference = correlation_scores(X, labels)
    bad = [a for a, r in zip(attributes, reference) if abs(scores[a] - r) > 1e-9]
    return [f"correlation scores differ from numpy on {bad[:5]}"] if bad else []


def check_kept(retained, scores: dict[str, float], threshold: float) -> list[str]:
    above = {a for a, s in scores.items() if s > threshold}
    if set(retained) != above:
        return [f"kept {sorted(retained)} but {sorted(above)} score above {threshold}"]
    return []


def check_cv_matrix(cells: np.ndarray, classes, train_labels) -> list[str]:
    """Every training row lands in the pooled matrix once, in its own row."""
    cells = np.asarray(cells)
    want = [sum(1 for lab in train_labels if lab == c) for c in classes]
    got = [int(v) for v in cells.sum(axis=1)]
    if got != want or int(cells.sum()) != len(train_labels):
        return [f"cv matrix row sums {got} != class supports {want}"]
    return []
