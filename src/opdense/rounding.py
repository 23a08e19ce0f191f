"""The one half-up rounding rule.

Densities are defined as exact decimal divisions rounded half-up: the
8-decimal dataset cells and the 2-decimal report percentages. For
``numerator >= 0`` and ``denominator > 0`` that is integer arithmetic:
the rounded value is floor((2n*10^p + d) / 2d) units of 10^-p, and
Python's int / int division turns it into the nearest float. The rule
takes a whole row at a time, so each caller makes one call per row.
"""

from __future__ import annotations

from typing import Iterable


def round_half_up_fractions(numerators: Iterable[int], denominator: int, places: int) -> list[float]:
    """Each exact ``numerator / denominator`` rounded half-up to ``places``
    decimals, for numerators ``>= 0`` and ``denominator > 0``."""
    scale = 10**places
    return [(2 * n * scale + denominator) // (2 * denominator) / scale for n in numerators]
