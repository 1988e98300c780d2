"""Deterministic counter-based pseudo-randomness for sampled sweeps.

Every draw is a pure function of (seed, counter), so sampled experiments are
reproducible byte-for-byte across platforms and Python versions.
"""

from __future__ import annotations

MASK = (1 << 64) - 1


def splitmix64(state: int) -> int:
    z = (state + 0x9E3779B97F4A7C15) & MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


class SplitMix:
    """Minimal deterministic generator over a 64-bit counter stream."""

    def __init__(self, seed: int):
        self.seed = seed & MASK
        self.counter = 0

    def next_u64(self) -> int:
        value = splitmix64((self.seed << 1 | 1) * 0x9E3779B97F4A7C15 + self.counter & MASK)
        self.counter += 1
        return value

    def randrange(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi); span must be far below 2^64."""
        span = hi - lo
        return lo + self.next_u64() % span

    def strand(self, n: int) -> tuple[int, ...]:
        return tuple(self.randrange(1, 5) for _ in range(n))
