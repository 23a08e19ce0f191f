"""Fixed-point helpers.

Density values are defined as exact decimal divisions rounded half-up.
For ``numerator >= 0`` and ``denominator > 0`` that is integer
arithmetic: the rounded value is floor((2n*10^p + d) / 2d) units of
10^-p, and Python's int / int division turns it into the nearest float.
"""

from __future__ import annotations


def round_half_up_fraction(numerator: int, denominator: int, places: int) -> float:
    """Exact ``numerator / denominator`` rounded half-up to ``places``
    decimals, for ``numerator >= 0`` and ``denominator > 0``."""
    scale = 10**places
    return (2 * numerator * scale + denominator) // (2 * denominator) / scale


def fixed(value: float, places: int = 8) -> str:
    """Render with a fixed number of decimals (used by all text formats)."""
    return f"{value:.{places}f}"
