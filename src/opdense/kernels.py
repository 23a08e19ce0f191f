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
from dataclasses import dataclass, fields

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
        for name in FLOAT_FIELDS:
            if not math.isfinite(getattr(self, name)):
                raise SchemaMismatch(f"{name} must be finite")
        if self.C <= 0:
            raise SchemaMismatch("C must be positive")
        if self.family == "rbf" and self.gamma <= 0:
            raise SchemaMismatch("gamma must be positive")
        if self.family == "puk":
            if self.sigma <= 0 or self.omega <= 0:
                raise SchemaMismatch("sigma and omega must be positive")
            try:
                factor = puk_factor(self)
            except OverflowError:  # a Python float power raises where numpy gives inf
                factor = math.inf
            if not math.isfinite(factor):
                raise SchemaMismatch("sigma and omega give a PUK factor past the float range")
        if self.family in ("poly", "normalized_poly") and self.exponent <= 0:
            raise SchemaMismatch("exponent must be positive")

    def describe(self) -> str:
        if self.family in ("poly", "normalized_poly"):
            extra = f"E={self.exponent:g}{' lower-order' if self.use_lower_order else ''}"
        elif self.family == "rbf":
            extra = f"gamma={self.gamma:g}"
        else:
            extra = f"sigma={self.sigma:g} omega={self.omega:g}"
        return f"{self.family} C={self.C:g} {extra}"


FLOAT_FIELDS = tuple(f.name for f in fields(KernelSpec) if f.type == "float")  # each finite, stored as a number


def _sq_distances(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    xx = (X * X).sum(axis=1)[:, None]
    yy = (Y * Y).sum(axis=1)[None, :]
    d2 = xx + yy - 2.0 * (X @ Y.T)
    return np.maximum(d2, 0.0)


def _poly_raw(spec: KernelSpec, dots: np.ndarray) -> np.ndarray:
    base = dots + 1.0 if spec.use_lower_order else dots
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
