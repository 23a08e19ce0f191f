"""Scalar kernel evaluation, one pair of vectors at a time.

The library computes kernels only as whole Gram matrices
(``opdense.kernels.gram_matrix``). This is the second, pair-by-pair
implementation of the four families, kept as the oracle the Gram
matrix is checked against.
"""

from __future__ import annotations

import math

import numpy as np

from opdense.errors import DimensionMismatch, NormalizedPolyZeroNorm
from opdense.kernels import KernelSpec, puk_factor


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
