"""Fixed-point helpers.

Density values are defined as exact decimal divisions rounded half-up,
so all of them go through the decimal module rather than binary floats.
"""

from __future__ import annotations

from decimal import ROUND_HALF_UP, Decimal, localcontext


def round_half_up_fraction(numerator: int, denominator: int, places: int) -> float:
    """Exact ``numerator / denominator`` rounded half-up to ``places`` decimals."""
    if denominator == 0:
        raise ZeroDivisionError("denominator must be nonzero")
    with localcontext() as ctx:
        ctx.prec = 50
        q = Decimal(numerator) / Decimal(denominator)
        exp = Decimal(1).scaleb(-places)
        return float(q.quantize(exp, rounding=ROUND_HALF_UP))


def fixed(value: float, places: int = 8) -> str:
    """Render with a fixed number of decimals (used by all text formats)."""
    return f"{value:.{places}f}"
