"""Clique-cover bound tests."""

import re
from fractions import Fraction

import pytest

from syndef import bounds
from syndef.bounds import (
    BLOCKS,
    PATTERN_A,
    CliqueCover,
    block_collapse_cycle,
    build_clique_cover,
    cover_size,
    kdcc_size_bounds,
    verify_cover,
)
from syndef.core import ConstructionError, ParameterError, all_strands, apply_defects, cycles
from syndef.kdcc import best_residues, enumerate_codebook


class TestPatterns:
    def test_pattern_a_literal(self):
        assert set(PATTERN_A) == {(1, 1, 2, 3, 4), (1, 2, 1, 3, 4),
                                  (1, 2, 3, 1, 4), (1, 2, 3, 4, 1)}

    def test_sixteen_patterns(self):
        assert len({p for b in BLOCKS for p in b}) == 16

    def test_blocks_collapse_under_one_cycle(self):
        # all four variants of each block agree once the block's shared
        # cycle is defective, at any embedding offset
        for n in (5, 6, 7):
            for offset in range(n - 4):
                for block in BLOCKS:
                    d = block_collapse_cycle(offset, block)
                    prefix = tuple(1 for _ in range(offset))
                    suffix = tuple(2 for _ in range(n - offset - 5))
                    outs = {apply_defects(prefix + q + suffix, {d}) for q in block}
                    assert len(outs) == 1


class TestCoverSize:
    def test_n5_exact(self):
        exact, closed = cover_size(5)
        assert exact == 1012 and closed == 1012

    def test_n5_breakdown(self):
        cover = build_clique_cover(5)
        quads = [c for c in cover.cliques if len(c) == 4]
        singles = [c for c in cover.cliques if len(c) == 1]
        assert len(quads) == 4 and len(singles) == 1008
        assert {frozenset(q) for q in quads} == {frozenset(b) for b in BLOCKS}

    @pytest.mark.parametrize("n", range(5, 26))
    def test_construction_equals_closed_form(self, n):
        exact, closed = cover_size(n)
        assert Fraction(exact) == closed

    def test_construction_equals_closed_form_far_out(self):
        # cover_size computes both sides independently; they agree by algebra
        for n in range(5, 201):
            exact, closed = cover_size(n)
            assert closed.denominator == 1 and exact == closed

    def test_materialised_count_matches(self):
        for n in (5, 6, 7):
            assert build_clique_cover(n).size == cover_size(n)[0]

    def test_ratio_tends_to_quarter(self):
        ratios = [Fraction(cover_size(n)[0], 4 ** n) for n in (5, 10, 15, 20)]
        assert all(r1 > r2 for r1, r2 in zip(ratios, ratios[1:]))
        assert all(r > Fraction(1, 4) for r in ratios)
        # the decay rate is (63/64)^(n/5); the quarter limit shows far out
        assert Fraction(cover_size(2000)[0], 4 ** 2000) < Fraction(26, 100)

    def test_small_n_rejected(self):
        with pytest.raises(ParameterError):
            cover_size(4)
        with pytest.raises(ParameterError):
            build_clique_cover(3)


class TestVerifyCover:
    @pytest.mark.parametrize("n", [5, 6])
    def test_valid(self, n):
        ok, witness = verify_cover(n)
        assert ok and witness is None

    def test_corrupted_cover_detected(self):
        cover = build_clique_cover(5)
        broken = CliqueCover(n=5, cliques=cover.cliques[1:])
        ok, witness = verify_cover(5, broken)
        assert not ok and witness[0] == "uncovered"

    def test_fake_clique_detected(self):
        bad = CliqueCover(n=5, cliques=(((1, 1, 1, 1, 1), (4, 3, 2, 1, 4)),))
        ok, witness = verify_cover(5, bad)
        assert not ok and witness[0] == "not-a-clique"


class TestSizeBounds:
    def test_n5_sandwich(self):
        report = kdcc_size_bounds(5)
        assert report["best_sum1_size"] >= 256
        assert report["cover_size"] == 1012
        assert report["best_sum1_size"] <= report["cover_size"]

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_codebooks_below_cover(self, n):
        upper, _ = cover_size(n)
        for family in ("sum1", "svt1"):
            _, size = best_residues(family, n)
            assert size <= upper

    def test_independent_set_bound_direct(self):
        # the best even-sum codebook at n=5 is an independent set, so the
        # cover size must dominate it; check independence directly
        spec, _ = best_residues("sum1", 5)
        members = enumerate_codebook(spec)
        seen = {}
        for x in members:
            for d in cycles(x):
                key = (d, apply_defects(x, {d}))
                assert seen.setdefault(key, x) == x

    def test_report_fields(self):
        report = kdcc_size_bounds(6)
        for key in ("n", "cover_size", "closed_form", "best_sum1_size",
                    "redundancy_bits_lower_bound"):
            assert key in report
        assert report["redundancy_bits_lower_bound"] > 0

    def test_lower_bound_above_cover_is_a_construction_error(self, monkeypatch):
        # a sum1 code larger than the cover means a broken construction
        spec, _ = best_residues("sum1", 5)
        monkeypatch.setattr(bounds, "best_residues", lambda family, n: (spec, 1013))
        with pytest.raises(ConstructionError,
                           match="^lower bound exceeded the clique-cover bound$"):
            kdcc_size_bounds(5)


class TestParameterErrors:
    """One malformed input for each input check, with the text it raises."""

    @pytest.mark.parametrize("call, text", [
        (lambda: verify_cover(8), "exhaustive cover verification is capped at n = 7"),
        (lambda: kdcc_size_bounds(11), "exact lower bound is capped at n = 10"),
        (lambda: kdcc_size_bounds("3"), "strand length n must be an int, got '3'"),
        (lambda: verify_cover("2"), "strand length n must be an int, got '2'"),
        (lambda: cover_size(None), "strand length n must be an int >= 5, got None"),
        (lambda: build_clique_cover("3"), "strand length n must be an int >= 5, got '3'"),
        (lambda: verify_cover(5, 5), "CliqueCover expected, got int"),
        (lambda: block_collapse_cycle(1, 5), "a block of strand variants expected, got 5"),
    ], ids=["verify_cover", "kdcc_size_bounds", "kdcc_size_bounds string", "verify_cover string",
            "cover_size None", "build_clique_cover string", "verify_cover int cover",
            "block_collapse_cycle int block"])
    def test_rejected(self, call, text):
        with pytest.raises(ParameterError, match=f"^{re.escape(text)}$"):
            call()
