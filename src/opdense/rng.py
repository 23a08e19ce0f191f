"""Deterministic pseudo-random primitives.

Everything that needs reproducible randomness (instance shuffling and
fold assignment) goes through SplitMix64 so that a given seed produces
the same sequence on every platform and Python version.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 generator (Steele, Lea & Flood). 64-bit state, 64-bit output."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), bias-free via rejection."""
        if n <= 0:
            raise ValueError("n must be positive")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            v = self.next_u64()
            if v < limit:
                return v % n


def permutation(n: int, seed: int) -> list[int]:
    """``0 .. n-1`` permuted by the classic Fisher-Yates walk driven by
    SplitMix64(seed)."""
    out = list(range(n))
    rng = SplitMix64(seed)
    for i in range(n - 1, 0, -1):
        j = rng.below(i + 1)
        out[i], out[j] = out[j], out[i]
    return out

