"""Clique-cover upper bound on single-known-defect codebooks.

Two strands are confusable when some single defective cycle maps them to the
same output; any code correcting one known defect is an independent set of
that graph, so its size is bounded by the size of any clique cover.  The
cover built here groups strands by a length-5 block pattern whose four
variants collapse under one shared cycle, leaving singletons elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .core import (ConstructionError, ParameterError, Strand, all_strands, apply_defects, as_int,
                   as_type, cycles)
from .kdcc import best_residues

PATTERN_A = ((1, 1, 2, 3, 4), (1, 2, 1, 3, 4), (1, 2, 3, 1, 4), (1, 2, 3, 4, 1))
PATTERN_B = ((2, 2, 3, 4, 1), (2, 3, 2, 4, 1), (2, 3, 4, 2, 1), (2, 3, 4, 1, 2))
PATTERN_C = ((3, 3, 4, 1, 2), (3, 4, 3, 1, 2), (3, 4, 1, 3, 2), (3, 4, 1, 2, 3))
PATTERN_D = ((4, 4, 1, 2, 3), (4, 1, 4, 2, 3), (4, 1, 2, 4, 3), (4, 1, 2, 3, 4))
BLOCKS = (PATTERN_A, PATTERN_B, PATTERN_C, PATTERN_D)
PATTERNED = frozenset(p for block in BLOCKS for p in block)


@dataclass(frozen=True)
class CliqueCover:
    """Materialised cover: a list of cliques (size four or singletons) whose
    union is the whole strand space."""

    n: int
    cliques: tuple[tuple[Strand, ...], ...]

    @property
    def size(self) -> int:
        return len(self.cliques)


def _plain_blocks():
    """Words over the length-5 alphabet blocks carrying no pattern."""
    return [p for p in product((1, 2, 3, 4), repeat=5) if p not in PATTERNED]


def build_clique_cover(n: int) -> CliqueCover:
    """Materialise the cover; exponential in n, intended for n <= 7."""
    as_int(n, "strand length n", 5)  # the cover needs one length-5 block
    plain = _plain_blocks()
    cliques: list[tuple[Strand, ...]] = []
    blocks_count = n // 5
    for i in range(blocks_count):
        for prefix in product(plain, repeat=i):
            p = tuple(s for word in prefix for s in word)
            for suffix in product((1, 2, 3, 4), repeat=n - 5 * i - 5):
                r = tuple(suffix)
                for block in BLOCKS:
                    cliques.append(tuple(p + q + r for q in block))
    for prefix in product(plain, repeat=blocks_count):
        p = tuple(s for word in prefix for s in word)
        for suffix in product((1, 2, 3, 4), repeat=n - 5 * blocks_count):
            cliques.append((p + tuple(suffix),))
    return CliqueCover(n=n, cliques=tuple(cliques))


def cover_size(n: int) -> tuple[int, Fraction]:
    """Cover cardinality, as the construction count and in closed form: with
    x = 63/64 and q = n // 5, 4z = 4^(n-1) (1 - x^q) and 1008^q 4^(n mod 5) =
    4^n x^q, so both are 4^(n-1) (1 + 3 x^q)."""
    as_int(n, "strand length n", 5)  # the cover needs one length-5 block
    plain = 4 ** 5 - 16
    z = sum(plain ** i * 4 ** (n - 5 * i - 5) for i in range(n // 5))
    exact = 4 * z + plain ** (n // 5) * 4 ** (n % 5)
    closed = 4 ** (n - 1) * (1 + 3 * Fraction(plain, 4 ** 5) ** (n // 5))
    return exact, closed


def _confusable(u: Strand, v: Strand) -> bool:
    """Adjacency in the confusability graph, computed on demand; a strand is
    confusable with itself under its first cycle."""
    for d in set(cycles(u)) | set(cycles(v)):
        if apply_defects(u, {d}) == apply_defects(v, {d}):
            return True
    return False


def verify_cover(n: int, cover: CliqueCover | None = None):
    """Exhaustively check that the cover spans the strand space and that each
    clique is pairwise confusable; returns (ok, witness)."""
    if as_int(n, "strand length n") > 7:
        raise ParameterError("exhaustive cover verification is capped at n = 7")
    cover = as_type(cover, CliqueCover) if cover else build_clique_cover(n)
    seen = set()
    for clique in cover.cliques:
        seen.update(clique)
        for i, u in enumerate(clique):
            for v in clique[i + 1:]:
                if not _confusable(u, v):
                    return False, ("not-a-clique", u, v)
    for x in all_strands(n):
        if x not in seen:
            return False, ("uncovered", x)
    return True, None


def block_collapse_cycle(prefix_len: int, block) -> int:
    """The defective cycle under which all four block variants agree: the
    cycle of the second symbol of the first variant."""
    try:
        probe = (1,) * as_int(prefix_len, "prefix length") + block[0]
        return cycles(probe)[prefix_len + 1]
    except (LookupError, TypeError):
        raise ParameterError(f"a block of strand variants expected, got {block!r}") from None


def kdcc_size_bounds(n: int) -> dict:
    """Sandwich for the best single-known-defect codebook: the even-position
    sum construction from below, the clique cover from above."""
    if as_int(n, "strand length n") > 10:
        raise ParameterError("exact lower bound is capped at n = 10")
    spec, lower = best_residues("sum1", n)
    upper, closed = cover_size(n)
    if lower > upper:
        raise ConstructionError("lower bound exceeded the clique-cover bound")
    report = {
        "n": n,
        "cover_size": upper,
        "closed_form": float(closed),
        "best_sum1_size": lower,
        "best_sum1_residues": spec.residues,
        "redundancy_bits_lower_bound": 2 * n - math.log2(upper),
        "redundancy_quaternary_lower_bound": n - math.log2(upper) / 2,
        "redundancy_bits_sum1": 2 * n - math.log2(lower),
    }
    return report
