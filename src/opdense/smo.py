"""Sequential minimal optimization for the soft-margin SVM dual.

In the box form of the dual (Bottou & Lin, "Support Vector Machine
Solvers", 2007) the variables are b = y*a. SMO maximizes
W(b) = sum(y*b) - 1/2 b'Kb subject to sum(b) = 0 and
lower_i <= b_i <= upper_i, with upper = C and lower = 0 where y = +1 and
upper = 0 and lower = -C where y = -1; the multipliers are a = |b|.

With t = y - Kb, a point with b < upper can still move up and so bounds
the bias from below (the set I_up); a point with b > lower can move down
and bounds it from above (I_low). The multipliers are optimal to
``tolerance`` exactly when the gap max_{I_up} t - min_{I_low} t is at
most 2*tolerance (Keerthi et al., Neural Computation 2001). Both solvers
take ``tolerance`` and the step cap ``max_iterations`` only through their
``config`` argument, a ``TrainerConfig``.

Each step takes the maximal violator i = argmax_{I_up} t and, among the
points of I_low below it, the j with the largest second-order gain
(t_i - t_j)^2 / a_ij, where a_ij = K_ii + K_jj - 2K_ij is floored at
``EPSILON`` (Fan, Chen & Lin, JMLR 2005, "WSS2"). b_i rises and b_j falls
by the Newton step, cut at the room each has left in its box; a variable
that reaches its bound is set exactly to it. t is updated from the two
Gram columns touched. When the gap closes, t is recomputed exactly from
the Gram matrix and the gap tested again, so rounding drift in the
updates cannot end a solve early.

The stopping test and the reported bias are the same interval: the bias
is the midpoint of [max_{I_up} t, min_{I_low} t], the bias that
minimises the worst box/margin violation. So, unless
``hit_iteration_cap`` is set, the returned ``(alphas, bias)`` meet the
box/margin conditions to ``tolerance``. The solution carries the final
gap as ``kkt_gap`` (0 when one side is empty).

``smo_solve_lockstep`` solves many independent problems (a model's
pairwise machines) in one loop, to the same bits as ``smo_solve`` on
each. The problems are stacked, padded to the longest; a padded point
has upper = lower = 0, so it is in neither I_up nor I_low and is never
picked. Each problem picks its own i, j and step, but every numpy call
of a step covers the whole stack, and on problems of a few dozen rows
the calls, not the arithmetic, are the cost. Every pass steps every
live problem, so the live problems have all taken the same number of
steps. When a pass finds some gaps closed or the cap reached, only those
problems get t recomputed exactly, each on its own block of the padded
stack, the one copy of its Gram (before the first step t = y is exact
already), and are tested again. The ones still closed or at the cap
leave the stack; the others step in the same pass, as ``smo_solve``
steps after its own recompute. Stacks are cut in training order under
``STACK_CELLS`` padded Gram cells, a fixed memory budget as LIBSVM's
kernel cache is (Chang & Lin 2011): 15 pairs of up to 264 rows, a
six-class model of about 130 rows a class, share one stack. A stack of
one problem (a binary model, or a pair too large to share) goes to
``smo_solve``, whose per-step cost is lower.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import SchemaMismatch


# WEKA's round-off epsilon: the floor of a_ij, and the multiplier at or
# below which a point is no support vector
EPSILON = 1e-12


@dataclass(frozen=True)
class TrainerConfig:
    tolerance: float = 1e-3
    max_iterations: int = 1_000_000

    def __post_init__(self):
        if not 0 < self.tolerance < math.inf:
            raise SchemaMismatch("tolerance must be positive and finite")
        if (isinstance(self.max_iterations, bool) or not isinstance(self.max_iterations, numbers.Integral)
                or self.max_iterations < 0):
            raise SchemaMismatch("max_iterations must be a non-negative integer")


# padded Gram cells in one lockstep stack (8 MB of float64)
STACK_CELLS = 1 << 20


@dataclass
class SmoSolution:
    alphas: np.ndarray
    bias: float
    iterations: int
    hit_iteration_cap: bool
    kkt_gap: float  # max_{I_up} t - min_{I_low} t at exit; optimal to tolerance when <= 2*tolerance


def smo_solve(gram: np.ndarray, y: np.ndarray, C: float, config: TrainerConfig = TrainerConfig()) -> SmoSolution:
    tolerance, max_iterations = config.tolerance, config.max_iterations
    gram = np.asarray(gram, dtype=float)
    y = np.asarray(y, dtype=float)
    C = float(C)
    upper = np.where(y > 0, C, 0.0)
    lower = upper - C
    diag = gram.diagonal()
    beta = np.zeros(len(y))
    t = y.copy()  # y - K beta, exact at beta = 0
    exact, steps = True, 0
    while True:
        t_up = np.where(beta < upper, t, -np.inf)
        t_low = np.where(beta > lower, t, np.inf)
        i = int(np.argmax(t_up))
        gap = t_up[i] - t_low.min()
        if not gap > 2.0 * tolerance or steps == max_iterations:
            if exact:
                break
            t, exact = y - gram @ beta, True
            continue
        diff = t_up[i] - t_low
        curvature = np.maximum(diag[i] + diag - 2.0 * gram[:, i], EPSILON)
        j = int(np.argmax(np.where(diff > 0, diff * diff / curvature, -1.0)))
        room_i = upper[i] - beta[i]
        room_j = beta[j] - lower[j]
        delta = min(diff[j] / curvature[j], room_i, room_j)
        beta[i] = upper[i] if delta == room_i else beta[i] + delta
        beta[j] = lower[j] if delta == room_j else beta[j] - delta
        t -= delta * (gram[:, i] - gram[:, j])
        exact = False
        steps += 1
    return _solution(len(y), beta, t_up[i], t_low.min(), steps, gap > 2.0 * tolerance)


def smo_solve_lockstep(grams: Iterable[np.ndarray], ys: Sequence[np.ndarray], C: float,
                       config: TrainerConfig = TrainerConfig()) -> list[SmoSolution]:
    """``smo_solve`` on every ``(gram, y)`` pair, in one lockstep loop per
    stack. ``grams`` is read one stack at a time, so a generator computes
    each Gram only when its stack is built, and an exception it raises
    ends the solve before any problem of that stack steps. Each Gram must
    be finite and exactly symmetric, as every finite ``gram_matrix(spec,
    X)`` is: the stack holds only its transpose, and recomputes t from
    that."""
    grams = iter(grams)
    solutions: list[SmoSolution] = []
    start = 0
    while start < len(ys):
        stop, width = start + 1, len(ys[start])
        while stop < len(ys) and (stop + 1 - start) * max(width, len(ys[stop])) ** 2 <= STACK_CELLS:
            width = max(width, len(ys[stop]))
            stop += 1
        if stop - start == 1:
            solutions.append(smo_solve(next(grams), ys[start], C, config))
        else:
            solutions += _solve_stack(grams, [np.asarray(y, dtype=float) for y in ys[start:stop]],
                                      width, float(C), config)
        start = stop
    return solutions


def _solve_stack(grams, ys, width, C, config) -> list[SmoSolution]:
    """The lockstep loop on ``ys`` and the next ``len(ys)`` of ``grams``."""
    tolerance, max_iterations = config.tolerance, config.max_iterations
    count = len(ys)
    gram_rows = np.zeros((count, width, width))  # row i is column i of the problem's Gram
    t = np.zeros((count, width))
    upper = np.zeros((count, width))
    lower = np.zeros((count, width))
    for p, y in enumerate(ys):
        n = len(y)
        gram_rows[p, :n, :n] = np.asarray(next(grams), dtype=float).T
        t[p, :n] = y
        upper[p, :n] = np.where(y > 0, C, 0.0)
        lower[p, :n] = upper[p, :n] - C
    columns = gram_rows.reshape(count * width, width)  # row p*width + i is column i of problem p
    diag = gram_rows.diagonal(axis1=1, axis2=2).copy()
    beta = np.zeros((count, width))
    steps = 0  # every live problem has taken every step so far; t is exact only before the first
    live = np.arange(count)  # stack index of each row of the working arrays
    base = column_base = live * width  # each row's first flat index, in the working arrays and in columns
    solutions: list[SmoSolution | None] = [None] * count
    while True:
        t_low, i, top, bottom = _ends(beta, t, upper, lower, base)
        open_gap = top - bottom > 2.0 * tolerance
        if steps == max_iterations or not open_gap.all():
            stopped = np.flatnonzero(~open_gap | (steps == max_iterations))
            if steps:  # t has drifted: recompute it exactly and test the stopped rows again
                for r in stopped:
                    y = ys[live[r]]
                    t[r, :len(y)] = y - gram_rows[live[r], :len(y), :len(y)] @ beta[r, :len(y)].copy()
                t_low[stopped], i[stopped], top[stopped], bottom[stopped] = _ends(
                    beta[stopped], t[stopped], upper[stopped], lower[stopped], base[:len(stopped)])
                open_gap = top - bottom > 2.0 * tolerance
            done = ~open_gap | (steps == max_iterations)
            for r in np.flatnonzero(done):
                solutions[live[r]] = _solution(len(ys[live[r]]), beta[r], top[r], bottom[r], steps, open_gap[r])
            keep = ~done
            live, beta, t, upper, lower, diag, t_low, i, top = (
                a[keep] for a in (live, beta, t, upper, lower, diag, t_low, i, top))
            if not len(live):
                break
            base, column_base = np.arange(len(live)) * width, live * width
        # every live problem steps; per-row scalars are gathered through flat indices
        at_i = base + i
        column_i = columns.take(column_base + i, axis=0)
        curvature = np.maximum(diag.ravel()[at_i][:, None] + diag - 2.0 * column_i, EPSILON)
        diff = top[:, None] - t_low
        j = np.where(diff > 0, diff * diff / curvature, -1.0).argmax(axis=1)
        at_j = base + j
        flat_beta = beta.ravel()
        upper_i, beta_i = upper.ravel()[at_i], flat_beta[at_i]
        lower_j, beta_j = lower.ravel()[at_j], flat_beta[at_j]
        room_i = upper_i - beta_i
        room_j = beta_j - lower_j
        delta = np.minimum(np.minimum(diff.ravel()[at_j] / curvature.ravel()[at_j], room_i), room_j)
        flat_beta[at_i] = np.where(delta == room_i, upper_i, beta_i + delta)
        flat_beta[at_j] = np.where(delta == room_j, lower_j, beta_j - delta)
        t -= delta[:, None] * (column_i - columns.take(column_base + j, axis=0))
        steps += 1
    return solutions


def _ends(beta, t, upper, lower, base):
    """Per row of a stack: t over I_low, the maximal violator i, and the
    ends max_{I_up} t and min_{I_low} t of the bias interval. ``base``
    holds each row's first flat index."""
    t_up = np.where(beta < upper, t, -np.inf)
    t_low = np.where(beta > lower, t, np.inf)
    i = t_up.argmax(axis=1)
    return t_low, i, t_up.ravel()[base + i], t_low.ravel()[base + t_low.argmin(axis=1)]


def _solution(n, beta, lo, hi, steps, hit_cap) -> SmoSolution:
    """The result of a problem of ``n`` rows from its final ``beta``
    (padded or not), the ends ``lo``, ``hi`` of its bias interval and its
    step count."""
    # an empty side (a single-class problem) leaves the bias to the other
    if np.isinf(lo):
        lo = hi
    if np.isinf(hi):
        hi = lo
    return SmoSolution(
        alphas=np.abs(beta[:n]),
        bias=float(0.5 * (lo + hi)),
        iterations=steps,
        hit_iteration_cap=bool(hit_cap),
        kkt_gap=float(lo - hi),
    )
