"""Tuple-code tests: cover selection, single- and double-defect decoding."""

import math
from itertools import combinations

import pytest

from syndef.core import (
    ConstructionError,
    DecodeFailure,
    ParameterError,
    all_strands,
    apply_defects,
    cycles,
    longest_run,
    shift_symbols,
    signature,
)
from syndef.rng import SplitMix
from syndef.sdcc import (
    C2dParams,
    CoverPlan,
    SdccCodeword,
    c2d_decode,
    c2d_membership,
    c2d_params_of,
    cover_group_size,
    default_cover_count,
    plan_covers,
    random_member_1sdcc,
    random_member_2sdcc,
    sdcc1_decode,
    sdcc1_params_of,
    sdcc2_decode,
    sdcc2_params_of,
    select_cover_shifts,
    template_strand,
)


def delete(word, *positions):
    drop = set(positions)
    return tuple(x for i, x in enumerate(word, start=1) if i not in drop)


class TestCoverSelection:
    def test_template_strands_cover_with_four(self):
        n = 16
        covers = [template_strand(n, c) for c in (1, 2, 3, 4)]
        plan = select_cover_shifts(covers, n)
        assert plan_covers(covers, plan)

    def test_random_strands_default_count(self):
        n = 16
        rng = SplitMix(3)
        strands = [rng.strand(n) for _ in range(default_cover_count(n))]
        plan = select_cover_shifts(strands, n)
        assert plan_covers(strands, plan)
        feasible = []
        for s, a in zip(strands, plan.shifts):
            sched = cycles(s)
            assert 1 - sched[0] <= a <= 4 * n - sched[-1]
            assert -3 <= a <= 3 * n + 1

    def test_contraction_instrumented(self):
        # uncovered set shrinks by >= 1/4 each greedy step
        n = 64
        rng = SplitMix(17)
        strands = [rng.strand(n) for _ in range(default_cover_count(n))]
        group = len(strands) // 4
        for block in range(4):
            t = block * n + 1
            uncovered = set(range(t, t + n))
            for c in strands[block * group:(block + 1) * group]:
                sched = cycles(c)
                lo, hi = 1 - sched[0], 4 * n - sched[-1]
                base = max(lo, min(t - sched[0], hi - 3))
                best = max(len(uncovered.intersection(x + a for x in sched))
                           for a in range(base, base + 4))
                assert best >= -(-len(uncovered) // 4)
                prev = len(uncovered)
                a_best = max(range(base, base + 4),
                             key=lambda a: len(uncovered.intersection(x + a for x in sched)))
                uncovered.difference_update(x + a_best for x in sched)
                assert len(uncovered) <= prev - -(-prev // 4) or prev == 0
            assert not uncovered

    def test_wrong_multiple_rejected(self):
        from syndef.core import ParameterError
        with pytest.raises(ParameterError):
            select_cover_shifts([template_strand(8, 1)] * 3, 8)


class TestSdcc1:
    def test_no_defect_identity(self):
        codeword, plan, params = random_member_1sdcc(16, 8, seed=5)
        out, window = sdcc1_decode(codeword.strands, plan, params)
        assert out == codeword.strands and window is None

    def test_decode_all_cycles(self):
        n, m = 16, 8
        codeword, plan, params = random_member_1sdcc(n, m, seed=7)
        for d in range(1, 4 * n + 1):
            received = codeword.channel({d})
            out, window = sdcc1_decode(received, plan, params)
            assert out == codeword.strands
            if any(len(r) < n for r in received):
                lo, hi = window
                assert lo <= d <= hi

    def test_window_bound_from_runs(self):
        # located window no wider than the run-length bound allows
        n, m = 16, 8
        codeword, plan, params = random_member_1sdcc(n, m, seed=11)
        run_bound = max(longest_run(signature(x)) for x in codeword.bases())
        for d in range(1, 4 * n + 1):
            received = codeword.channel({d})
            if all(len(r) == n for r in received):
                continue
            _, (lo, hi) = sdcc1_decode(received, plan, params)
            assert hi - lo <= 4 * run_bound + 4


def strand_pairs_ball(a, b, radius):
    from syndef.core import defect_ball
    return defect_ball((a, b), radius)


class TestSdcc1ToyDisjointness:
    def test_pairwise_disjoint_balls_n6(self):
        # toy codebook: both strands carry the full single-defect syndromes
        from syndef.binary import vt_syndrome
        from syndef.core import defect_ball
        n, picks = 6, []
        for x in all_strands(n):
            sig = signature(x)
            if sum(x) % 4 == 0 and vt_syndrome(sig) % (n + 1) == 0:
                picks.append(x)
        members = [(a, b) for a in picks[:6] for b in picks[:6]]
        balls = {c: defect_ball(c, 1) for c in members}
        for c1, c2 in combinations(members, 2):
            assert not (balls[c1] & balls[c2])


class TestC2d:
    def test_membership_witness(self):
        rng = SplitMix(23)
        x = rng.strand(24)
        params = c2d_params_of(x)
        assert c2d_membership(x, params)

    def test_membership_sensitivity(self):
        rng = SplitMix(29)
        x = rng.strand(24)
        params = c2d_params_of(x)
        flips = 0
        for i in range(24):
            for v in (1, 2, 3, 4):
                if v == x[i]:
                    continue
                y = x[:i] + (v,) + x[i + 1:]
                if not c2d_membership(y, params):
                    flips += 1
        assert flips > 0
        # every single-symbol change must break at least one syndrome
        assert flips == 24 * 3

    def test_minimal_length(self):
        x = (2, 1, 3)
        params = c2d_params_of(x, regular_window=4)
        assert c2d_decode(delete(x, 2), params) == x

    def test_full_length_identity(self):
        x = (2, 1, 3, 4, 2, 1)
        params = c2d_params_of(x)
        assert c2d_decode(x, params) == x

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_all_deletion_pairs_n12(self, seed):
        n = 12
        x = SplitMix(seed).strand(n)
        params = c2d_params_of(x)
        for d1, d2 in combinations(range(1, n + 1), 2):
            assert c2d_decode(delete(x, d1, d2), params) == x

    def test_single_deletions_n12(self):
        x = SplitMix(4).strand(12)
        params = c2d_params_of(x)
        for d in range(1, 13):
            assert c2d_decode(delete(x, d), params) == x

    def test_alternating_segment_case(self):
        # deletions inside a period-two segment, where the run-weighted sum
        # alone is blind and the position sums must resolve placement
        x = (3, 1, 2, 1, 2, 1, 2, 4, 3, 2, 4, 1)
        params = c2d_params_of(x)
        for d1, d2 in combinations(range(2, 8), 2):
            assert c2d_decode(delete(x, d1, d2), params) == x


class TestDoubleInsertionSearch:
    def test_matches_brute_force(self):
        # the corridor-pruned search must equal the unpruned enumeration
        from itertools import product
        from syndef.sdcc import _double_insertions_matching

        def brute(received, values, sig):
            n = len(received) + 2
            out = set()
            for v1, v2 in {(values[0], values[1]), (values[1], values[0])}:
                for p in range(1, n):
                    w1 = received[:p - 1] + (v1,) + received[p - 1:]
                    for q in range(p + 1, n + 1):
                        y = w1[:q - 1] + (v2,) + w1[q - 1:]
                        if signature(y) == sig:
                            out.add(y)
            return out

        rng = SplitMix(41)
        for _ in range(150):
            x = rng.strand(7)
            d1 = rng.randrange(1, 8)
            d2 = rng.randrange(1, 8)
            if d1 == d2:
                continue
            received = delete(x, d1, d2)
            values = [x[min(d1, d2) - 1], x[max(d1, d2) - 1]]
            got = _double_insertions_matching(received, values, signature(x))
            assert got == brute(received, values, signature(x))
            assert x in got


class TestSdcc2:
    def test_no_defect_identity(self):
        codeword, plan, params = random_member_2sdcc(32, 12, seed=2)
        assert sdcc2_decode(codeword.strands, plan, params) == codeword.strands

    def test_single_defect_paths(self):
        codeword, plan, params = random_member_2sdcc(32, 12, seed=3)
        for d in range(1, 129, 7):
            received = codeword.channel({d})
            assert sdcc2_decode(received, plan, params) == codeword.strands

    def test_double_defect_grid(self):
        n = 32
        codeword, plan, params = random_member_2sdcc(n, 12, seed=5)
        deltas = [(d1, d2) for d1 in range(1, 4 * n + 1, 11)
                  for d2 in range(d1 + 1, 4 * n + 1, 17)]
        for delta in deltas:
            received = codeword.channel(set(delta))
            assert sdcc2_decode(received, plan, params) == codeword.strands

    def test_adjacent_defects(self):
        codeword, plan, params = random_member_2sdcc(32, 12, seed=6)
        for d1 in (17, 40, 77, 100):
            received = codeword.channel({d1, d1 + 1})
            assert sdcc2_decode(received, plan, params) == codeword.strands

    def test_remaining_strand_whose_second_slots_move(self):
        # remaining strand 8 needs one array decode per first slot
        codeword, plan, params = random_member_2sdcc(32, 12, seed=290857749)
        received = codeword.channel({19, 30})
        assert sdcc2_decode(received, plan, params) == codeword.strands


class TestMemberSizes:
    def test_fewer_strands_than_covers_rejected(self):
        with pytest.raises(ParameterError):
            random_member_1sdcc(16, 3)
        with pytest.raises(ParameterError):
            random_member_2sdcc(16, 7)
        with pytest.raises(ParameterError):
            random_member_2sdcc(16, 11, cover_count=12)


class TestMalformedReceived:
    """A received tuple of the wrong size, or with a symbol outside the
    alphabet, is a usage error: never an IndexError, a DecodeFailure or a
    silently decoded tuple."""

    @pytest.mark.parametrize("count", [5, 9, 11])
    def test_sdcc2_strand_count(self, count):
        codeword, plan, params = random_member_2sdcc(16, 10, seed=1)
        received = codeword.channel({5, 9})
        with pytest.raises(ParameterError, match="strands"):
            sdcc2_decode((received * 2)[:count], plan, params)

    @pytest.mark.parametrize("count", [3, 6, 9])
    def test_sdcc1_strand_count(self, count):
        codeword, plan, params = random_member_1sdcc(16, 8, seed=1)
        received = codeword.channel({5})
        with pytest.raises(ParameterError, match="strands"):
            sdcc1_decode((received * 2)[:count], plan, params)

    @pytest.mark.parametrize("symbol", [0, 5])
    def test_symbol_outside_alphabet(self, symbol):
        for strand in (2, 9):  # a cover strand and a remaining strand
            codeword, plan, params = random_member_2sdcc(16, 10, seed=1)
            received = [list(r) for r in codeword.channel({5, 9})]
            received[strand][3] = symbol
            with pytest.raises(ParameterError, match="alphabet"):
                sdcc2_decode(received, plan, params)
            codeword, plan, params = random_member_1sdcc(16, 8, seed=1)
            received = [list(r) for r in codeword.channel({5})]
            received[strand % 8][3] = symbol
            with pytest.raises(ParameterError, match="alphabet"):
                sdcc1_decode(received, plan, params)


class TestCodewordJson:
    def test_roundtrip(self):
        codeword, _, _ = random_member_2sdcc(16, 10, seed=1)
        assert SdccCodeword.from_json(codeword.to_json()) == codeword

    def test_symbol_outside_alphabet(self):
        data = random_member_2sdcc(16, 10, seed=1)[0].to_json()
        data["strands"][9][3] = 5
        with pytest.raises(ParameterError):
            SdccCodeword.from_json(data)

    def test_more_shifts_than_strands(self):
        data = {"n": 4, "m": 1, "cover_count": 2, "shifts": [0, 1],
                "strands": [[1, 2, 3, 4]]}
        with pytest.raises(ParameterError):
            SdccCodeword.from_json(data)

    X = (1, 3, 2, 1, 1, 4, 3, 2, 3, 4)  # cycles 1, 3, ..., 24 of [1, 40]

    @staticmethod
    def _cover_json(base, a):
        return {"n": len(base), "m": 1, "cover_count": 1, "shifts": [a],
                "strands": [list(shift_symbols(base, a))]}

    def test_shift_out_of_feasible_range(self):
        lo, hi = 1 - cycles(self.X)[0], 4 * len(self.X) - cycles(self.X)[-1]
        assert (lo, hi) == (0, 16)
        for a in (lo, hi):
            assert SdccCodeword.from_json(self._cover_json(self.X, a)).shifts == (a,)
        for a in (lo - 1, hi + 1, 1000):
            with pytest.raises(ParameterError, match="feasible range"):
                SdccCodeword.from_json(self._cover_json(self.X, a))

    @pytest.mark.parametrize("shift", ["x", 1.0, True, None, [1]])
    def test_shift_not_an_integer(self, shift):
        data = self._cover_json(self.X, 0)
        data["shifts"] = [shift]
        with pytest.raises(ParameterError, match="not an integer"):
            SdccCodeword.from_json(data)


class TestSdcc2ToyDisjointness:
    def test_pairwise_disjoint_double_balls_n8(self):
        # tuples whose strands differ in their two-deletion syndromes must
        # have disjoint radius-2 defect balls; verified by direct intersection
        from syndef.core import ParameterError, defect_ball
        n = 8
        rng = SplitMix(31)
        strands, seen = [], set()
        tries = 0
        while len(strands) < 12 and tries < 4000:
            tries += 1
            x = rng.strand(n)
            try:
                px = c2d_params_of(x, regular_window=5)
            except ParameterError:
                continue
            if px in seen:
                continue
            seen.add(px)
            strands.append(x)
        assert len(strands) == 12
        members = [(strands[2 * i], strands[2 * i + 1]) for i in range(6)]
        balls = {c: defect_ball(c, 2) for c in members}
        for c1, c2 in combinations(members, 2):
            assert not (balls[c1] & balls[c2])


class TestWindowSoundness:
    @pytest.mark.parametrize("n", [6, 8])
    def test_single_defect_window_contains_truth(self, n):
        # the localisation lemma: true cycle within 4P+4 of any consistent one
        for x in list(all_strands(n))[3::257]:
            sig = signature(x)
            P = longest_run(sig)
            sched = cycles(x)
            for idx, d in enumerate(sched):
                received = apply_defects(x, {d})
                for p in range(1, n + 1):
                    y = x[:p - 1] + x[p:]
                    if y != received:
                        continue
                    for q in range(1, n + 1):
                        z = received[:q - 1] + (x[p - 1],) + received[q - 1:]
                        if len(z) == n and signature(z) == sig and \
                                received == tuple(
                                    s for i, s in enumerate(z, 1) if i != q):
                            d2 = cycles(z)[q - 1]
                            assert abs(d2 - d) <= 4 * P + 4
