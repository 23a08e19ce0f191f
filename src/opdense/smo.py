"""Sequential minimal optimization for the soft-margin SVM dual.

Maximizes W(a) = sum(a) - 1/2 sum_ij a_i a_j y_i y_j K_ij subject to
0 <= a_i <= C and sum(a_i y_i) = 0, two variables at a time.

With t = y - K(a*y), a point bounds the bias from below (b >= t) when it
is interior, or a=0 with y=+1, or a=C with y=-1 (the set I_up), and from
above (b <= t) when it is interior, or a=0 with y=-1, or a=C with y=+1
(the set I_low). The multipliers are optimal to ``tolerance`` exactly
when the gap max_{I_up} t - min_{I_low} t is at most 2*tolerance
(Keerthi et al., Neural Computation 2001).

Each step takes the maximal violator i = argmax_{I_up} t and, among the
points of I_low below it, the j with the largest second-order gain
(t_i - t_j)^2 / a_ij, where a_ij = K_ii + K_jj - 2K_ij is floored at
``epsilon`` (Fan, Chen & Lin, JMLR 2005, "WSS2"). The pair moves by the
Newton step, cut at the box; a multiplier that reaches a bound is set
exactly to it. t is updated from the two Gram columns touched. When the
gap closes, t is recomputed exactly from the Gram matrix and the gap
tested again, so rounding drift in the updates cannot end a solve early.

The stopping test and the reported bias are the same interval: the bias
is the midpoint of [max_{I_up} t, min_{I_low} t], the bias that
minimises the worst box/margin violation. So, unless
``hit_iteration_cap`` is set, the returned ``(alphas, bias)`` meet the
box/margin conditions to ``tolerance``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTargets


@dataclass
class TrainerConfig:
    tolerance: float = 1e-3
    epsilon: float = 1e-12
    max_iterations: int = 1_000_000
    calibrate: bool = False

    def __post_init__(self):
        if self.tolerance <= 0 or self.epsilon <= 0:
            raise ValueError("tolerance and epsilon must be positive")


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
    positive = y > 0
    diag = gram.diagonal()
    alpha = np.zeros(len(y))
    t = y.copy()  # y - K(alpha*y), exact at alpha = 0
    exact, steps = True, 0
    while True:
        t_up = np.where(np.where(positive, alpha < C, alpha > 0), t, -np.inf)
        t_low = np.where(np.where(positive, alpha > 0, alpha < C), t, np.inf)
        i = int(np.argmax(t_up))
        gap = t_up[i] - t_low.min()
        if not gap > 2.0 * tolerance or steps == max_iterations:
            if exact:
                break
            t, exact = y - gram @ (alpha * y), True
            continue
        diff = t_up[i] - t_low
        curvature = np.maximum(diag[i] + diag - 2.0 * gram[:, i], epsilon)
        j = int(np.argmax(np.where(diff > 0, diff * diff / curvature, -1.0)))
        room_i = C - alpha[i] if positive[i] else alpha[i]
        room_j = alpha[j] if positive[j] else C - alpha[j]
        delta = min(diff[j] / curvature[j], room_i, room_j)
        # beta = alpha*y moves by +delta at i and -delta at j
        alpha[i] = (C if positive[i] else 0.0) if delta == room_i else alpha[i] + y[i] * delta
        alpha[j] = (0.0 if positive[j] else C) if delta == room_j else alpha[j] - y[j] * delta
        t -= delta * (gram[:, i] - gram[:, j])
        exact = False
        steps += 1
    # an empty side (a single-class problem) leaves the bias to the other
    lo, hi = t_up[i], t_low.min()
    if np.isinf(lo):
        lo = hi
    if np.isinf(hi):
        hi = lo
    return SmoSolution(
        alphas=alpha,
        bias=float(0.5 * (lo + hi)),
        iterations=steps,
        hit_iteration_cap=bool(gap > 2.0 * tolerance),
        objective=dual_objective(gram, y, alpha),
    )


def fit_sigmoid_scaling(decisions: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Fit P(class=+1 | f) = 1 / (1 + exp(A*f + B)) by regularized maximum
    likelihood with smoothed targets (N+ + 1)/(N+ + 2) and 1/(N- + 2).

    Newton iteration with backtracking; for constant decision values the
    fit degenerates to the smoothed class prior: A = 0,
    B = log((N- + 1)/(N+ + 1)).
    """
    decisions = np.asarray(decisions, dtype=float)
    y = np.asarray(y, dtype=float)
    prior1 = int((y > 0).sum())
    prior0 = int((y <= 0).sum())
    if prior1 == 0 or prior0 == 0:
        raise DegenerateTargets("sigmoid fit needs both classes present")
    if np.ptp(decisions) < 1e-12:
        return 0.0, float(np.log((prior0 + 1.0) / (prior1 + 1.0)))

    hi_t = (prior1 + 1.0) / (prior1 + 2.0)
    lo_t = 1.0 / (prior0 + 2.0)
    t = np.where(y > 0, hi_t, lo_t)

    def negloglik(a: float, b: float) -> float:
        z = a * decisions + b
        # stable: t*z + log(1 + exp(-z)) for z >= 0, (t-1)*z + log(1+exp(z)) else
        pos = z >= 0
        val = np.empty_like(z)
        val[pos] = t[pos] * z[pos] + np.log1p(np.exp(-z[pos]))
        val[~pos] = (t[~pos] - 1.0) * z[~pos] + np.log1p(np.exp(z[~pos]))
        return float(val.sum())

    A, B = 0.0, float(np.log((prior0 + 1.0) / (prior1 + 1.0)))
    fval = negloglik(A, B)
    sigma_reg = 1e-12
    for _ in range(100):
        z = A * decisions + B
        p = np.where(z >= 0, np.exp(-z) / (1.0 + np.exp(-z)), 1.0 / (1.0 + np.exp(z)))
        d1 = t - p
        d2 = p * (1.0 - p)
        g_a = float((decisions * d1).sum())
        g_b = float(d1.sum())
        if abs(g_a) < 1e-10 and abs(g_b) < 1e-10:
            break
        h11 = float((decisions * decisions * d2).sum()) + sigma_reg
        h22 = float(d2.sum()) + sigma_reg
        h12 = float((decisions * d2).sum())
        det = h11 * h22 - h12 * h12
        dA = -(h22 * g_a - h12 * g_b) / det
        dB = -(h11 * g_b - h12 * g_a) / det
        step = 1.0
        g_dot_d = g_a * dA + g_b * dB
        while step >= 1e-10:
            new_f = negloglik(A + step * dA, B + step * dB)
            if new_f < fval + 1e-4 * step * g_dot_d:
                A, B, fval = A + step * dA, B + step * dB, new_f
                break
            step /= 2.0
        else:
            break
    return float(A), float(B)
