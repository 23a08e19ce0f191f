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
most 2*tolerance (Keerthi et al., Neural Computation 2001).

Each step takes the maximal violator i = argmax_{I_up} t and, among the
points of I_low below it, the j with the largest second-order gain
(t_i - t_j)^2 / a_ij, where a_ij = K_ii + K_jj - 2K_ij is floored at
``epsilon`` (Fan, Chen & Lin, JMLR 2005, "WSS2"). b_i rises and b_j falls
by the Newton step, cut at the room each has left in its box; a variable
that reaches its bound is set exactly to it. t is updated from the two
Gram columns touched. When the gap closes, t is recomputed exactly from
the Gram matrix and the gap tested again, so rounding drift in the
updates cannot end a solve early.

The stopping test and the reported bias are the same interval: the bias
is the midpoint of [max_{I_up} t, min_{I_low} t], the bias that
minimises the worst box/margin violation. So, unless
``hit_iteration_cap`` is set, the returned ``(alphas, bias)`` meet the
box/margin conditions to ``tolerance``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SchemaMismatch


@dataclass
class TrainerConfig:
    tolerance: float = 1e-3
    epsilon: float = 1e-12
    max_iterations: int = 1_000_000

    def __post_init__(self):
        if not (0 < self.tolerance < math.inf and 0 < self.epsilon < math.inf):
            raise SchemaMismatch("tolerance and epsilon must be positive and finite")
        if self.max_iterations < 0:
            raise SchemaMismatch("max_iterations must not be negative")


@dataclass
class SmoSolution:
    alphas: np.ndarray
    bias: float
    iterations: int
    hit_iteration_cap: bool
    objective: float


def dual_objective(gram: np.ndarray, y: np.ndarray, alphas: np.ndarray) -> float:
    beta = alphas * y
    return float(alphas.sum() - 0.5 * beta @ gram @ beta)


def smo_solve(
    gram: np.ndarray,
    y: np.ndarray,
    C: float,
    tolerance: float = 1e-3,
    epsilon: float = 1e-12,
    max_iterations: int = 1_000_000,
) -> SmoSolution:
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
        curvature = np.maximum(diag[i] + diag - 2.0 * gram[:, i], epsilon)
        j = int(np.argmax(np.where(diff > 0, diff * diff / curvature, -1.0)))
        room_i = upper[i] - beta[i]
        room_j = beta[j] - lower[j]
        delta = min(diff[j] / curvature[j], room_i, room_j)
        beta[i] = upper[i] if delta == room_i else beta[i] + delta
        beta[j] = lower[j] if delta == room_j else beta[j] - delta
        t -= delta * (gram[:, i] - gram[:, j])
        exact = False
        steps += 1
    # an empty side (a single-class problem) leaves the bias to the other
    lo, hi = t_up[i], t_low.min()
    if np.isinf(lo):
        lo = hi
    if np.isinf(hi):
        hi = lo
    alphas = np.abs(beta)
    return SmoSolution(
        alphas=alphas,
        bias=float(0.5 * (lo + hi)),
        iterations=steps,
        hit_iteration_cap=bool(gap > 2.0 * tolerance),
        objective=dual_objective(gram, y, alphas),
    )
