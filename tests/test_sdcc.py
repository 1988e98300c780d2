"""Tuple-code tests: cover selection, single- and double-defect decoding."""

import hashlib
import math
import re
from itertools import combinations, combinations_with_replacement, product

import pytest

from syndef.core import (
    ALPHABET,
    ConstructionError,
    DecodeFailure,
    ParameterError,
    all_strands,
    apply_defects,
    apply_defects_shifted,
    cycles,
    deletion_positions,
    longest_run,
    pair_insertions,
    shift_symbols,
    signature,
)
from syndef.rng import SplitMix
from syndef.sdcc import (
    C2dParams,
    CoverPlan,
    Sdcc1Params,
    Sdcc2Params,
    SdccCodeword,
    _seeded_member,
    c2d_decode,
    c2d_membership,
    c2d_params_of,
    cover_group_size,
    default_cover_count,
    localization_window,
    plan_covers,
    position_sum_modulus,
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


def own(word):
    """The signature of ``word`` as the decoder holds it: empty below two symbols."""
    return signature(word) if len(word) >= 2 else ()


class TestCoverSelection:
    def test_template_strands_cover_with_four(self):
        n = 16
        covers = [template_strand(n, c) for c in (1, 2, 3, 4)]
        plan = select_cover_shifts(covers)
        assert plan_covers(covers, plan)

    def test_random_strands_default_count(self):
        n = 16
        rng = SplitMix(3)
        strands = [rng.strand(n) for _ in range(default_cover_count(n))]
        plan = select_cover_shifts(strands)
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
            select_cover_shifts([template_strand(8, 1)] * 3)

    def test_group_too_small_leaves_its_block_uncovered(self):
        # one strand of eight 1s covers eight cycles spread over 29
        with pytest.raises(ConstructionError, match=r"^block \[1, 8\] left uncovered$"):
            select_cover_shifts([(1,) * 8] * 4)

    @pytest.mark.parametrize("strands", [[(1, 2, 9, 4)] * 4,
                                         [(1, 2, 3, 4)] * 3 + [(1, 2, 3)]])
    def test_malformed_strands_rejected(self, strands):
        with pytest.raises(ParameterError):
            select_cover_shifts(strands)


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

    def test_outcomes_pinned(self):
        # sha256 of every outcome (strands and window, or the error) for eight
        # members, no defect and every single cycle, each also with one symbol
        # of a seeded strand rewritten and with one seeded strand cut short:
        # 1464 decodes, 566 of them errors.  Any change to what sdcc1_decode
        # returns shows here.
        digest = hashlib.sha256()
        rng = SplitMix(9)
        for n, m, seed in ((8, 6, 0), (8, 8, 1), (12, 8, 2), (12, 6, 3),
                           (16, 8, 4), (16, 10, 5), (24, 6, 6), (24, 8, 7)):
            codeword, plan, params = random_member_1sdcc(n, m, seed=seed)
            for delta in [()] + [(d,) for d in range(1, 4 * n + 1)]:
                received = codeword.channel(delta)
                j = rng.randrange(0, m)
                i = rng.randrange(0, len(received[j]))
                bad = list(received)
                bad[j] = bad[j][:i] + (bad[j][i] % 4 + 1,) + bad[j][i + 1:]
                j = rng.randrange(0, m)
                i = rng.randrange(0, len(received[j]))
                cut = list(received)
                cut[j] = cut[j][:i] + cut[j][i + 1:]
                for r in (received, bad, cut):
                    try:
                        out = repr(sdcc1_decode(r, plan, params))
                    except (DecodeFailure, ParameterError) as exc:
                        out = f"{type(exc).__name__}: {exc}"
                    digest.update(out.encode() + b"\n")
        assert digest.hexdigest() == \
            "04ed6a35b41536593aeac9306065fd303ca8272ea04a6deeec8f17488bc883aa"


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
        params = c2d_params_of(x)
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


class TestCoverDeltaOptions:
    """Every position set whose loss turns a cover into a shorter copy (the
    tuple decoders map each through the cover's schedule to a cycle set),
    against deleting every position set of the same size."""

    def test_matches_brute_force(self):
        for n in range(2, 7):
            for x in all_strands(n):
                expect: dict = {}
                for k in (0, 1, 2):
                    for pos in combinations(range(1, n + 1), k):
                        expect.setdefault(delete(x, *pos), []).append(pos)
                shorts = set(expect)
                if n <= 5:  # words that are no subsequence of x give no option
                    shorts.update(all_strands(n - 2))
                for short in shorts:
                    assert deletion_positions(x, short) == expect.get(short, [])


class TestDoubleInsertionSearch:
    """The corridor-pruned search of ``c2d_decode``, :func:`pair_insertions`
    over the two orders of the values, against inserting both values at every
    slot pair and filtering on the signature."""

    @staticmethod
    def search(received, values, sig):
        """The words ``c2d_decode`` keeps for one signature."""
        return set().union(*(pair_insertions(received, v1, v2, sig, own(received))
                             for v1, v2 in {tuple(values), tuple(values[::-1])}))

    @staticmethod
    def grown(received, values):
        """Every word reached by inserting both values, in either order."""
        n = len(received) + 2
        for v1, v2 in {(values[0], values[1]), (values[1], values[0])}:
            for p in range(1, n):
                w1 = received[:p - 1] + (v1,) + received[p - 1:]
                for q in range(p + 1, n + 1):
                    yield w1[:q - 1] + (v2,) + w1[q - 1:]

    @classmethod
    def by_signature(cls, received, values) -> dict:
        groups: dict = {}
        for y in cls.grown(received, values):
            groups.setdefault(signature(y), set()).add(y)
        return groups

    @classmethod
    def brute(cls, received, values, sig):
        return cls.by_signature(received, values).get(tuple(sig), set())

    def test_exhaustive_small(self):
        # every received word of length <= 3, value pair and target signature
        for m in range(1, 4):
            for received in all_strands(m):
                for values in combinations_with_replacement(ALPHABET, 2):
                    for sig in product((0, 1), repeat=m + 1):
                        assert self.search(received, values, sig) == \
                            self.brute(received, values, sig)

    def test_every_deletion_pair_up_to_six(self):
        # The (received, values, signature) triples of every strand of length
        # 4 to 6 and every pair of its deleted positions are exactly these:
        # each grown word is such a strand.  Each signature is also tried with
        # one bit flipped.
        for n in range(4, 7):
            for received in all_strands(n - 2):
                for values in combinations_with_replacement(ALPHABET, 2):
                    groups = self.by_signature(received, values)
                    i = sum(received) % (n - 1)
                    targets = set(groups).union(
                        sig[:i] + (1 - sig[i],) + sig[i + 1:] for sig in groups)
                    for target in targets:
                        assert self.search(received, values, target) \
                            == groups.get(target, set()), (received, values, target)

    def test_matches_brute_force(self):
        rng = SplitMix(41)
        for _ in range(150):
            x = rng.strand(7)
            d1 = rng.randrange(1, 8)
            d2 = rng.randrange(1, 8)
            if d1 == d2:
                continue
            received = delete(x, d1, d2)
            values = [x[min(d1, d2) - 1], x[max(d1, d2) - 1]]
            got = self.search(received, values, signature(x))
            assert got == self.brute(received, values, signature(x))
            assert x in got

    def test_long_strands(self):
        # long runs of matching signature bits on both sides of the deletions
        rng = SplitMix(43)
        for n in range(7, 41):
            for x in (rng.strand(n), template_strand(n, 1 + n % 4)):
                d1, d2 = rng.randrange(1, n + 1), rng.randrange(1, n)
                d1, d2 = sorted((d1, d2 + (d2 >= d1)))
                received = delete(x, d1, d2)
                values = [x[d1 - 1], x[d2 - 1]]
                groups = self.by_signature(received, values)
                sig = signature(x)
                i = rng.randrange(0, n - 1)
                for target in (sig, sig[:i] + (1 - sig[i],) + sig[i + 1:]):
                    assert self.search(received, values, target) \
                        == groups.get(target, set()), (x, d1, d2, target)


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

    def test_outcomes_pinned(self):
        # sha256 of every outcome (tuple or failure message) for four members,
        # every set of at most two cycles, each also with one symbol of a
        # seeded strand rewritten: 6112 decodes, 1548 of them failures.  Any
        # change to what sdcc2_decode returns shows here.
        digest = hashlib.sha256()
        rng = SplitMix(8)
        for n, m, seed in ((8, 12, 0), (8, 12, 1), (10, 12, 2), (12, 10, 3)):
            codeword, plan, params = random_member_2sdcc(n, m, seed=seed)
            span = range(1, 4 * n + 1)
            for delta in [()] + [(d,) for d in span] + list(combinations(span, 2)):
                received = codeword.channel(delta)
                j = rng.randrange(0, m)
                i = rng.randrange(0, len(received[j]))
                bad = list(received)
                bad[j] = bad[j][:i] + (bad[j][i] % 4 + 1,) + bad[j][i + 1:]
                for r in (received, bad):
                    try:
                        out = repr(sdcc2_decode(r, plan, params))
                    except DecodeFailure as exc:
                        out = f"DecodeFailure: {exc}"
                    digest.update(out.encode() + b"\n")
        assert digest.hexdigest() == \
            "6e77191ccfb72d9463acbf14faa530f859e8231f6bf9201348fcf1848641cd1a"


class TestDecodeFailureReasons:
    """An input for each guard of the tuple decoders that names why a decode
    fails, matched on its exact text.  Without a coverage guard or the
    disagreement guard, a later check rejects the same input for another
    reason; without the uniqueness guard, ``sdcc1_decode`` fails with a
    KeyError."""

    @staticmethod
    def reject(decode, received, plan, params, text):
        with pytest.raises(DecodeFailure, match=f"^{re.escape(text)}$"):
            decode(received, plan, params)

    def test_sdcc1_defect_missed_every_cover(self):
        codeword, plan, params = random_member_1sdcc(16, 8, seed=0)
        received = list(codeword.strands)
        received[5] = received[5][1:]  # only a remaining strand is short
        self.reject(sdcc1_decode, received, plan, params,
                    "a defect missed every cover strand; coverage is broken")

    def test_sdcc1_cover_reconstruction_not_unique(self):
        # cover 3 lost its symbol at cycle 50 and has one symbol rewritten:
        # no insertion gives the signature its syndrome decodes to
        codeword, plan, params = random_member_1sdcc(16, 8, seed=0)
        received = list(codeword.channel({50}))
        hit = received[3]
        received[3] = hit[:13] + (hit[13] % 4 + 1,) + hit[14:]
        self.reject(sdcc1_decode, received, plan, params,
                    "cover strand reconstruction is not unique")

    def test_sdcc1_covers_disagree(self):
        # covers 0 and 1 lost symbols at cycles 1 and 17, which share no run
        codeword, plan, params = random_member_1sdcc(16, 8, seed=0)
        received = list(codeword.strands)
        for i, d in ((0, 1), (1, 17)):
            received[i] = apply_defects_shifted(codeword.strands[i], plan.shifts[i], {d})
        self.reject(sdcc1_decode, received, plan, params,
                    "cover strands disagree on the defective cycle")

    def test_sdcc2_defects_missed_every_cover(self):
        codeword, plan, params = random_member_2sdcc(16, 10, seed=0)
        received = list(codeword.strands)
        received[9] = received[9][1:]  # only a remaining strand is short
        self.reject(sdcc2_decode, received, plan, params,
                    "defects missed every cover strand; coverage is broken")


class TestMemberSizes:
    def test_fewer_strands_than_covers_rejected(self):
        with pytest.raises(ParameterError):
            random_member_1sdcc(16, 3)
        with pytest.raises(ParameterError):
            random_member_2sdcc(16, 7)
        with pytest.raises(ParameterError):
            _seeded_member(16, 11, 0, 12)


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

    def test_no_strands(self):
        data = {"n": 4, "m": 0, "cover_count": 0, "shifts": [], "strands": []}
        with pytest.raises(ParameterError, match="at least one strand"):
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
        with pytest.raises(ParameterError, match="shift must be an int, got"):
            SdccCodeword.from_json(data)

    @pytest.mark.parametrize("symbol", [1.5, "1", True])
    def test_inexact_symbol_rejected(self, symbol):
        # a remaining strand, so no shift range catches it
        data = random_member_2sdcc(16, 10, seed=1)[0].to_json()
        data["strands"][9][3] = symbol
        with pytest.raises(ParameterError, match="alphabet"):
            SdccCodeword.from_json(data)

    @pytest.mark.parametrize("fault", ["n", "m", "cover_count", "shifts", "strands",
                                       "shifts not a list", "strands not a list",
                                       "a list", "null"])
    def test_malformed_rejected(self, fault):
        data = self._cover_json(self.X, 0)
        if fault in data:
            del data[fault]
        elif fault.endswith("not a list"):
            data[fault.split()[0]] = 5
        else:
            data = [1, 2] if fault == "a list" else None
        with pytest.raises(ParameterError, match="malformed"):
            SdccCodeword.from_json(data)


class TestSdcc2ToyDisjointness:
    def test_pairwise_disjoint_double_balls_n8(self):
        # tuples whose strands differ in their two-deletion syndromes must
        # have disjoint radius-2 defect balls; verified by direct intersection
        from syndef.core import defect_ball, is_regular
        n = 8
        rng = SplitMix(31)
        strands, seen = [], set()
        tries = 0
        while len(strands) < 12 and tries < 4000:
            tries += 1
            x = rng.strand(n)
            if not is_regular(signature(x), 5):
                continue
            px = c2d_params_of(x)
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


def irregular_cover_codeword():
    """One cover strand of 48 equal symbols, whose signature holds no 00, and
    one remaining strand."""
    return SdccCodeword(strands=((1,) * 48, (1, 2) * 24), shifts=(0,))


def shortened(member, i, k):
    """(received, plan, params) of a member whose strand ``i`` alone lost its
    first ``k`` symbols."""
    codeword, plan, params = member
    received = list(codeword.strands)
    received[i] = received[i][k:]
    return received, plan, params


def with_int_strand(member):
    """(received, plan, params) of a member whose last strand arrives as the
    int 5."""
    codeword, plan, params = member
    return (*codeword.strands[:-1], 5), plan, params


def with_str_arrays(member):
    """(received, plan, params) of a member whose last strand lost a symbol,
    under params whose array syndromes are strings."""
    codeword, plan, params = member
    received = codeword.channel({cycles(codeword.strands[-1])[2]})
    return received, plan, Sdcc2Params(params.n, params.cover, ("x",) * 2, params.position_sums)


class TestParameterErrors:
    """One malformed input for each input check, with the text it raises."""

    @pytest.mark.parametrize("call, text", [
        (lambda: select_cover_shifts(None),
         "cover strands must be a sequence of strands, got None"),
        (lambda: select_cover_shifts(5), "cover strands must be a sequence of strands, got 5"),
        (lambda: SdccCodeword.from_json(
            dict(random_member_1sdcc(16, 8, seed=1)[0].to_json(), n=17)),
         "tuple JSON header disagrees with payload"),
        (lambda: sdcc1_params_of(irregular_cover_codeword()),
         "cover signature is not regular at this window"),
        (lambda: random_member_1sdcc(2, 4), "single-defect tuple coding needs n >= 3"),
        (lambda: sdcc1_decode(*shortened(random_member_1sdcc(16, 8, seed=1), 0, 2)),
         "received lengths incompatible with one defect"),
        (lambda: c2d_params_of((1, 2)), "two-deletion coding needs n >= 3"),
        (lambda: c2d_params_of((1,) * 48), "signature is not regular at this window"),
        (lambda: c2d_params_of((1, 2, 9, 1)), "symbol 9 outside alphabet {1,2,3,4}"),
        (lambda: c2d_decode((2, 1, 3), c2d_params_of((2, 1, 3, 4, 2, 1))),
         "received length incompatible with two deletions"),
        (lambda: sdcc2_decode(*shortened(random_member_2sdcc(16, 10, seed=1), 0, 3)),
         "received lengths incompatible with two defects"),
        (lambda: sdcc1_decode(*with_int_strand(random_member_1sdcc(16, 8, seed=1))),
         "strand must be a sequence of symbols, got 5"),
        (lambda: sdcc2_decode(*with_int_strand(random_member_2sdcc(16, 10, seed=1))),
         "strand must be a sequence of symbols, got 5"),
        (lambda: random_member_1sdcc("8", 4), "n must be an int, got '8'"),
        (lambda: random_member_2sdcc(8, "9"), "m must be an int, got '9'"),
        (lambda: random_member_1sdcc(8, 4, seed="1"), "seed must be an int, got '1'"),
        (lambda: localization_window(0), "strand length must be an int >= 1, got 0"),
        (lambda: cover_group_size(0), "strand length must be an int >= 1, got 0"),
        (lambda: position_sum_modulus(0), "strand length must be an int >= 2, got 0"),
        (lambda: position_sum_modulus(1), "strand length must be an int >= 2, got 1"),
        (lambda: random_member_2sdcc(1, 8), "two-deletion coding needs n >= 3"),
        (lambda: template_strand(None, 1), "strand length must be an int, got None"),
        (lambda: c2d_decode((1, 2, 3), 5), "C2dParams expected, got int"),
        (lambda: c2d_membership((1, 2, 3), 5), "C2dParams expected, got int"),
        (lambda: sdcc1_decode((), 5, random_member_1sdcc(16, 8, seed=1)[2]),
         "CoverPlan expected, got int"),
        (lambda: sdcc2_decode((), random_member_1sdcc(16, 8, seed=1)[1],
                              random_member_2sdcc(16, 10, seed=1)[2]),
         "the plan has 4 covers, the params 8"),
        (lambda: sdcc1_decode(5, *random_member_1sdcc(16, 8, seed=1)[1:]),
         "a tuple of strands expected, got 5"),
        (lambda: sdcc1_params_of(5), "SdccCodeword expected, got int"),
        (lambda: plan_covers(5, CoverPlan(4, (0,))),
         "cover strands must be a sequence of strands, got 5"),
        (lambda: sdcc1_decode(random_member_1sdcc(16, 8, seed=1)[0].channel({3}),
                              CoverPlan(5, ("x",) * 4), random_member_1sdcc(16, 8, seed=1)[2]),
         "shift must be an int, got 'x'"),
        (lambda: CoverPlan(None, (1,)), "strand length must be an int >= 1, got None"),
        (lambda: CoverPlan(4, 5), "a collection of shifts expected, got 5"),
        (lambda: Sdcc1Params(16, ("0",) * 4, (0,) * 4, (), ()),
         "residue s must be an int >= 0, got '0'"),
        (lambda: Sdcc1Params(2, (), (), (), ()), "strand length must be an int >= 3, got 2"),
        (lambda: Sdcc1Params(16, (0,) * 4, (0,) * 3, (), ()),
         "residues s and b need one value per cover strand, d and e one per remaining strand"),
        (lambda: sdcc2_decode(*with_str_arrays(random_member_2sdcc(16, 10, seed=1))),
         "ArrayCodeParams expected, got str"),
        (lambda: Sdcc2Params(16, 5, (), ()),
         "cover, sig_arrays and position_sums must be sequences"),
        (lambda: Sdcc2Params(16, (), random_member_2sdcc(16, 10, seed=1)[2].sig_arrays, ()),
         "sig_arrays and position_sums need one entry per remaining strand"),
        (lambda: Sdcc2Params(16, (), (), ((0, 1, "2", 3),)),
         "position sum must be an int >= 0, got '2'"),
        (lambda: C2dParams(8, ("0",) * 5, 0, (0,) * 4, (0,) * 4),
         "sketch value must be an int >= 0, got '0'"),
        (lambda: C2dParams(8, (0,) * 5, None, (0,) * 4, (0,) * 4),
         "run-weighted sum must be an int >= 0, got None"),
        (lambda: C2dParams(8, (0,) * 5, 0, 4, (0,) * 4),
         "a collection of symbol counts expected, got 4"),
    ], ids=["cover None", "cover int", "json header", "irregular cover", "sdcc1 n", "sdcc1 lengths",
            "c2d length", "c2d irregular", "c2d symbol", "c2d received", "sdcc2 lengths",
            "sdcc1 int strand", "sdcc2 int strand", "member str n", "member str m",
            "member str seed", "localization_window 0", "cover_group_size 0",
            "position_sum_modulus 0", "position_sum_modulus 1", "sdcc2 n 1",
            "template_strand None", "c2d_decode int params", "c2d_membership int params",
            "sdcc1 int plan", "sdcc2 plan of another code", "sdcc1 int received",
            "sdcc1_params_of int", "plan_covers int strands", "sdcc1 str shift",
            "plan None n", "plan int shifts", "sdcc1 params str sum", "sdcc1 params n 2",
            "sdcc1 params b short", "sdcc2 params str arrays", "sdcc2 params int cover",
            "sdcc2 params sums short", "sdcc2 params str sum", "c2d params str sketch",
            "c2d params None run-weighted", "c2d params int counts"])
    def test_rejected(self, call, text):
        with pytest.raises(ParameterError, match=f"^{re.escape(text)}$"):
            call()
