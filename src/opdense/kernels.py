"""Kernel functions for the SMO trainer.

Four families:

    poly             (x.y)^E, or (x.y + 1)^E with the lower-order term
    normalized_poly  poly(x,y) / sqrt(poly(x,x) * poly(y,y))
    rbf              exp(-gamma * ||x-y||^2)
    puk              Pearson VII universal kernel,
                     1 / (1 + (2*sqrt(2^(1/omega)-1) * ||x-y|| / sigma)^2)^omega
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NormalizedPolyZeroNorm, SchemaMismatch

KERNEL_FAMILIES = ("poly", "normalized_poly", "rbf", "puk")


@dataclass(frozen=True)
class KernelSpec:
    family: str = "puk"
    exponent: float = 1.0
    use_lower_order: bool = False
    gamma: float = 0.01
    sigma: float = 1.0
    omega: float = 1.0
    C: float = 1.0

    def __post_init__(self):
        if self.family not in KERNEL_FAMILIES:
            raise SchemaMismatch(f"unknown kernel family {self.family!r}")
        for name in ("exponent", "gamma", "sigma", "omega", "C"):
            if not math.isfinite(getattr(self, name)):
                raise SchemaMismatch(f"{name} must be finite")
        if self.C <= 0:
            raise SchemaMismatch("C must be positive")
        if self.family == "rbf" and self.gamma <= 0:
            raise SchemaMismatch("gamma must be positive")
        if self.family == "puk" and (self.sigma <= 0 or self.omega <= 0):
            raise SchemaMismatch("sigma and omega must be positive")

    def describe(self) -> str:
        if self.family in ("poly", "normalized_poly"):
            extra = f"E={self.exponent:g}{' lower-order' if self.use_lower_order else ''}"
        elif self.family == "rbf":
            extra = f"gamma={self.gamma:g}"
        else:
            extra = f"sigma={self.sigma:g} omega={self.omega:g}"
        return f"{self.family} C={self.C:g} {extra}"


def _sq_distances(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    xx = (X * X).sum(axis=1)[:, None]
    yy = (Y * Y).sum(axis=1)[None, :]
    d2 = xx + yy - 2.0 * (X @ Y.T)
    return np.maximum(d2, 0.0)


def _poly_raw(spec: KernelSpec, dots: np.ndarray) -> np.ndarray:
    base = dots + 1.0 if spec.use_lower_order else dots
    if spec.exponent == 1.0:
        return base
    return np.power(base, spec.exponent)


def puk_factor(spec: KernelSpec) -> float:
    return (2.0 * math.sqrt(2.0 ** (1.0 / spec.omega) - 1.0) / spec.sigma) ** 2


def gram_matrix(spec: KernelSpec, X: np.ndarray, Y: np.ndarray | None = None) -> np.ndarray:
    """Kernel matrix K[i, j] = K(X[i], Y[j]); Y defaults to X."""
    X = np.asarray(X, dtype=float)
    Y = X if Y is None else np.asarray(Y, dtype=float)
    if X.shape[1] != Y.shape[1]:
        raise DimensionMismatch(f"vector lengths differ: {X.shape[1]} vs {Y.shape[1]}")
    if spec.family == "rbf":
        return np.exp(-spec.gamma * _sq_distances(X, Y))
    if spec.family == "puk":
        return (1.0 + puk_factor(spec) * _sq_distances(X, Y)) ** (-spec.omega)
    dots = X @ Y.T
    if spec.family == "poly":
        return _poly_raw(spec, dots)
    # normalized_poly
    dx = _poly_raw(spec, (X * X).sum(axis=1))
    dy = _poly_raw(spec, (Y * Y).sum(axis=1))
    if (dx == 0).any() or (dy == 0).any():
        raise NormalizedPolyZeroNorm("normalized poly kernel undefined for a zero-norm vector")
    return _poly_raw(spec, dots) / np.sqrt(dx[:, None] * dy[None, :])


def kernel_eval(spec: KernelSpec, x, y) -> float:
    """Scalar kernel evaluation; exactly symmetric in x and y."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise DimensionMismatch(f"vector shapes differ: {x.shape} vs {y.shape}")
    if spec.family == "rbf":
        d = x - y
        return float(math.exp(-spec.gamma * float(d @ d)))
    if spec.family == "puk":
        d = x - y
        return float((1.0 + puk_factor(spec) * float(d @ d)) ** (-spec.omega))
    def poly(a, b):
        base = float(a @ b)
        if spec.use_lower_order:
            base += 1.0
        return base if spec.exponent == 1.0 else base ** spec.exponent
    if spec.family == "poly":
        return poly(x, y)
    kxx, kyy = poly(x, x), poly(y, y)
    if kxx == 0 or kyy == 0:
        raise NormalizedPolyZeroNorm("normalized poly kernel undefined for a zero-norm vector")
    return poly(x, y) / math.sqrt(kxx * kyy)
