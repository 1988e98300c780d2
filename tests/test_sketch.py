"""Sketch and composed-codec tests, all expected values oracle-computed."""

import hashlib
import json
import random
import re
from collections import Counter
from itertools import combinations, product
from math import comb

import pytest

from syndef.array_code import (
    array_bounded_decode,
    array_erasure_decode,
    array_single_bounded_decode,
    array_syndromes,
)
from syndef.binary import insertions
from syndef.core import ConstructionError, DecodeFailure, ParameterError
from syndef.sketch import (
    EParams,
    SketchBundle,
    XI_VERIFIED_MAX_LENGTH,
    _balls_meet,
    _completions,
    _compositions,
    _eparams,
    _pack,
    _sketch_bundle_cached,
    decode_E,
    e1_decode,
    e1_sketch,
    e1_windows,
    e2_decode,
    e2_sketch,
    encode_E,
    from_bits,
    moment,
    moment_collisions,
    moment_vector,
    prefix_codeword_length,
    prefix_decode_one,
    prefix_decode_two,
    prefix_encode,
    prefix_member,
    sketch_bundle,
    sketch_values,
    sketch_xi,
    to_bits,
    verify_sketch_injectivity,
    xi_bit_length,
    xi_budget,
    xi_decode,
    xi_field_widths,
    xi_value,
)


def b(text):
    return tuple(int(c) for c in text)


def all_words(n):
    return product((0, 1), repeat=n)


def delete(word, *positions):
    drop = set(positions)
    return tuple(x for i, x in enumerate(word, start=1) if i not in drop)


class TestXiSketch:
    def test_zero_word_all_pairs(self):
        n = 8
        x = (0,) * n
        sk = sketch_xi(x)
        for d1, d2 in combinations(range(1, n + 1), 2):
            assert xi_decode(delete(x, d1, d2), sk, n) == x

    def test_exhaustive_n10(self):
        n = 10
        for x in all_words(n):
            sk = sketch_xi(x)
            for d1, d2 in combinations(range(1, n + 1), 2):
                assert xi_decode(delete(x, d1, d2), sk, n) == x

    def test_single_deletion_also_covered(self):
        n = 9
        rng = random.Random(5)
        for _ in range(60):
            x = tuple(rng.randint(0, 1) for _ in range(n))
            sk = sketch_xi(x)
            for d in range(1, n + 1):
                assert xi_decode(delete(x, d), sk, n) == x

    def test_truncated_sketch_is_ambiguous(self):
        # with only the first two moments these words collide on a common
        # two-deletion subsequence; the full vector separates them
        x, y = b("0110001"), b("1000110")
        assert moment(x, 1) == moment(y, 1) and sum(x) == sum(y)
        common = ({delete(x, i, j) for i, j in combinations(range(1, 8), 2)}
                  & {delete(y, i, j) for i, j in combinations(range(1, 8), 2)})
        assert common
        assert moment(x, 2) == moment(y, 2)
        assert moment_vector(x) != moment_vector(y)
        assert xi_decode(common.pop(), sketch_xi(x), 7) == x

    @pytest.mark.parametrize("case", ["5 bits short", "3 bits long", "all 2s", "empty"])
    def test_malformed_sketch_rejected(self, case):
        x = b("1011001110")
        sk = sketch_xi(x)
        bad = {"5 bits short": sk[:-5], "3 bits long": sk + (0, 1, 0),
               "all 2s": (2,) * len(sk), "empty": ()}[case]
        with pytest.raises(ParameterError):
            xi_decode(delete(x, 3, 7), bad, len(x))

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_weight_field_of_three_rejected(self, k):
        # the weight field is two bits wide; 3 is no residue mod 3, and read
        # mod 3 it would alias 0, the true residue of this x
        x = b("1011001110")
        bad = (1, 1) + sketch_xi(x)[2:]
        received = {0: x, 1: delete(x, 3), 2: delete(x, 3, 7)}[k]
        with pytest.raises(DecodeFailure, match="^0 words consistent with the sketch$"):
            xi_decode(received, bad, len(x))

    def test_injectivity_audit_small(self):
        assert verify_sketch_injectivity(8)

    def test_injectivity_audit_at_16(self):
        # the first length at which two words share a moment vector, so the
        # audit's two-deletion intersection runs
        assert verify_sketch_injectivity(16)

    @pytest.mark.parametrize("length", [17, 18])
    def test_injectivity_audit_beyond_16(self, length):
        assert verify_sketch_injectivity(length)

    @pytest.mark.parametrize("length", [0, -1, 2.5, True])
    def test_audit_rejects_bad_length(self, length):
        with pytest.raises(ParameterError):
            verify_sketch_injectivity(length)

    def test_string_words_read_as_bits(self):
        # every character of a string is truthy, so a word read without
        # as_bits would count "0" as a 1
        word = b("1001101")
        assert moment_vector("1001101") == moment_vector(word)
        assert [moment("1001101", r) for r in range(5)] == [moment(word, r) for r in range(5)]
        assert xi_value("1001101", 9) == xi_value(word, 9)

    def test_budget_at_64(self):
        assert xi_bit_length(64) <= xi_budget(64)
        assert XI_VERIFIED_MAX_LENGTH >= 16


class TestMomentCollisions:
    """The whole-space sweep against ``moment_vector`` word by word: its
    packed values, the groups of words sharing a vector, and the audit's
    two-deletion check over those groups."""

    @staticmethod
    def ball(w):
        return {tuple(x for j, x in enumerate(w) if j not in pair)
                for pair in combinations(range(len(w)), 2)}

    @pytest.mark.parametrize("length", range(1, 17))
    def test_matches_moment_vector_grouping(self, length):
        widths = xi_field_widths(length)
        groups: dict = {}
        values = []
        for word in all_words(length):
            vector = moment_vector(word)
            groups.setdefault(vector, []).append(word)
            values.append(_pack(vector, widths))
        assert sketch_values(length) == values
        shared = [words for words in groups.values() if len(words) > 1]
        assert moment_collisions(length) == shared
        injective = not any(self.ball(u) & self.ball(v)
                            for words in shared for u, v in combinations(words, 2))
        assert verify_sketch_injectivity(length) == injective


class TestBallsMeet:
    """The banded common-subsequence test against the two-deletion balls it
    replaces."""

    @staticmethod
    def meet(u, v):
        return bool(TestMomentCollisions.ball(u) & TestMomentCollisions.ball(v))

    @pytest.mark.parametrize("length", range(2, 8))
    def test_every_pair_up_to_length_7(self, length):
        words = list(all_words(length))
        for u, v in combinations(words, 2):
            assert _balls_meet(u, v) == self.meet(u, v), (u, v)

    def test_random_near_pairs(self):
        # v is u with a few bits moved or flipped, so both outcomes occur
        rng = random.Random(22)
        outcomes = Counter()
        for _ in range(2000):
            length = rng.randint(8, 22)
            u = tuple(rng.randint(0, 1) for _ in range(length))
            v = list(u)
            for _ in range(rng.randint(1, 5)):
                i, j = rng.randrange(length), rng.randrange(length)
                if rng.random() < 0.7:
                    v.insert(j, v.pop(i))
                else:
                    v[i] = 1 - v[i]
            v = tuple(v)
            want = self.meet(u, v)
            assert _balls_meet(u, v) == want, (u, v)
            outcomes[want] += 1
        assert min(outcomes.values()) > 300, outcomes


def grown_words(word, k):
    """((p, q), z) for every way to insert k bits into ``word``: z holds them at
    the 1-based positions p < q of its own (unused positions are None)."""
    if k == 0:
        return [((None, None), word)]
    n = len(word) + k
    out = []
    for pos in combinations(range(1, n + 1), k):
        for values in product((0, 1), repeat=k):
            z = list(word)
            for p, v in zip(pos, values):
                z.insert(p - 1, v)
            out.append(((pos + (None,))[:2], tuple(z)))
    return out


class TestCompletions:
    """``_completions`` against brute-force insertion for every word of length
    at most 8: the words it returns are exactly the insertions, inside the
    position range, whose moment vector equals the targets."""

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_matches_brute_force(self, k):
        rng = random.Random(k)
        for m in range(9):
            n = m + k
            for word in all_words(m):
                grown = [(pq, z, moment_vector(z)) for pq, z in grown_words(word, k)]
                parent = rng.choice(grown)[1]
                stranger = tuple(rng.randint(0, 1) for _ in range(n))
                a = rng.randint(0, n + 1)
                clipped = range(a, a + rng.randint(0, 5))
                cases = [(moment_vector(parent), None), (moment_vector(word), None),
                         (moment_vector(stranger), None), (moment_vector(parent), clipped)]
                for targets, positions in cases:
                    want = {z for (p, q), z, vec in grown if vec == targets
                            and (positions is None or p is None or p in positions)
                            and (positions is None or q is None or q in positions)}
                    assert _completions(word, n, targets, positions) == want, \
                        (word, n, targets, positions)

    @pytest.mark.parametrize("k", [1, 2])
    def test_random_long_words(self, k):
        """Seeded words of 9 to 48 bits with true and perturbed targets.  A
        field at or above its width, or negative, gives no word, also where
        the packed fields alias a real word's moments."""
        rng = random.Random(40 + k)
        for m in rng.sample(range(9, 49), 20):
            n = m + k
            word = tuple(rng.randint(0, 1) for _ in range(m))
            grown = [(pq, z, moment_vector(z)) for pq, z in grown_words(word, k)]
            true = list(rng.choice(grown)[2])
            perturbed = true.copy()
            perturbed[rng.randint(1, 4)] += rng.choice((-2, -1, 1, 2))
            a, b = sorted((rng.randint(1, n), rng.randint(1, n)))
            clipped = range(a, b + 1)
            for targets, positions in [(true, None), (perturbed, None), (true, clipped)]:
                want = {z for (p, q), z, vec in grown if vec == tuple(targets)
                        and (positions is None or p in positions)
                        and (positions is None or q is None or q in positions)}
                assert _completions(word, n, tuple(targets), positions) == want, \
                    (word, n, targets, positions)
            widths = xi_field_widths(n)
            for r in range(1, 5):
                for bad in (1 << widths[r], true[r] + (1 << widths[r]), -1):
                    assert _completions(word, n, tuple(true[:r] + [bad] + true[r + 1:])) == set()
                if r < 4:
                    # one less in field r and a full width more in field r + 1
                    # packs to the true target's integer
                    aliased = true.copy()
                    aliased[r] -= 1
                    aliased[r + 1] += 1 << widths[r + 1]
                    assert _completions(word, n, tuple(aliased)) == set()

    def test_rejects_more_than_two_insertions(self):
        with pytest.raises(ParameterError):
            _completions((0, 1), 5, moment_vector((0, 1, 0, 1, 0)))
        with pytest.raises(ParameterError):
            _completions((0, 1), 1, moment_vector((0,)))


WITNESS = b("0110100111001010")


class TestE1:
    def test_windows_tile_with_overlap(self):
        for n in (9, 12, 17, 24):
            rho = 4
            ws = e1_windows(n, rho)
            assert ws[0][0] == 1 and ws[-1][1] == n
            for (s1, e1), (s2, e2) in zip(ws, ws[1:]):
                assert s2 == s1 + rho and e1 - s2 + 1 == rho

    def test_degenerate_single_window(self):
        assert e1_windows(4, 4) == [(1, 4)]

    @pytest.mark.parametrize("rho", [0, -2, 1.5, True])
    def test_bad_overlap_rejected(self, rho):
        with pytest.raises(ParameterError):
            e1_windows(10, rho)

    def test_deterministic(self):
        x = b("110100101011")
        assert e1_sketch(x, 2, 2) == e1_sketch(x, 2, 2)

    def test_adjacent_deletions_roundtrip(self):
        n, P1, P2 = 12, 2, 2
        for idx, x in enumerate(all_words(n)):
            if idx % 5:
                continue
            sk = e1_sketch(x, P1, P2)
            for d1 in range(1, n + 1):
                for d2 in range(d1 + 1, min(d1 + 3, n) + 1):
                    ivs = [(d1, 2) if d1 < n else (n - 1, 2),
                           (max(d2 - 1, 1), 2)]
                    got = e1_decode(delete(x, d1, d2), ivs, sk, n, P1, P2)
                    assert got == x

    def test_far_intervals_rejected(self):
        x = b("110100101011")
        sk = e1_sketch(x, 2, 2)
        with pytest.raises(DecodeFailure):
            e1_decode(delete(x, 1, 9), [(1, 2), (8, 2)], sk, 12, 2, 2)

    def test_union_wider_than_a_window_rejected(self):
        # deletions at 3 and 13 declared in [3, 4] and [12, 13]: the union
        # spans 11 positions, past the window overlap rho = 4
        x = WITNESS
        with pytest.raises(DecodeFailure, match="^interval union wider than one sketch window$"):
            e1_decode(delete(x, 3, 13), [(3, 2), (12, 2)], e1_sketch(x, 2, 2), 16, 2, 2)


class TestE2:
    def test_zero_word(self):
        assert e2_sketch((0,) * 12, 3, 3) == (0, 0, 0)

    def test_hand_evaluated(self):
        t0, t1, t2 = e2_sketch(b("1011"), 2, 2)
        assert (t0, t1, t2) == (0, 8 % 5, 9 % 8)

    def test_residue_ranges(self):
        n = 64
        rng = random.Random(11)
        for _ in range(200):
            x = tuple(rng.randint(0, 1) for _ in range(n))
            t0, t1, t2 = e2_sketch(x, 5, 9)
            assert 0 <= t0 < 3 and 0 <= t1 < n + 1 and 0 <= t2 < 9 * n

    def test_separated_deletions_roundtrip(self):
        n, P1, P2 = 12, 3, 3
        mixed_cases = 0
        for idx, x in enumerate(all_words(n)):
            if idx % 5:
                continue
            sk = e2_sketch(x, P1, P2)
            for d1 in range(1, n - 1):
                for d2 in range(d1 + 2, n + 1):
                    gap = d2 - d1 - 1
                    w1 = min(P1, gap)
                    i1 = (max(1, d1 - w1 + 1), w1)
                    i2 = (d2, min(P2, n - d2 + 1))
                    got = e2_decode(delete(x, d1, d2), [i1, i2], sk, n, P1, P2)
                    assert got == x
                    if x[d1 - 1] != x[d2 - 1]:
                        mixed_cases += 1
        assert mixed_cases > 0

    def test_adjacent_intervals_rejected(self):
        x = b("101101001010")
        sk = e2_sketch(x, 3, 3)
        with pytest.raises(DecodeFailure):
            e2_decode(delete(x, 4, 5), [(3, 3), (4, 3)], sk, 12, 3, 3)

    def test_touching_intervals_rejected(self):
        # [2, 3] and [4, 5] leave no position between them
        x = WITNESS
        with pytest.raises(DecodeFailure, match="^intervals are not separated$"):
            e2_decode(delete(x, 3, 13), [(2, 2), (4, 2)], e2_sketch(x, 2, 2), 16, 2, 2)

    @staticmethod
    def placement_search(received, intervals, sketch, n, P):
        """``e2_decode``'s outcome by a search over every placement pair and
        both bits, with the moments summed from their definition: the word
        whose residues all match; a spread (ConstructionError) if the
        placements of one bit pair that match the weight and first residue
        spread their second moments over P*n or more; else a failure with
        the number of matching words."""
        (s1, l1), (s2, l2) = intervals
        t0, t1, t2 = sketch
        stages: dict = {}
        found = set()
        for p in range(s1, s1 + l1):
            for q in range(s2, s2 + l2):
                for v1, v2 in product((0, 1), repeat=2):
                    z = received[:p - 1] + (v1,) + received[p - 1:q - 2] + (v2,) + received[q - 2:]
                    f1 = sum(i for i, bit in enumerate(z, start=1) if bit)
                    f2 = sum(comb(i, 2) for i, bit in enumerate(z, start=1) if bit)
                    if (sum(z) - t0) % 3 or f1 % (n + 1) != t1:
                        continue
                    stages.setdefault((v1, v2), []).append(f2)
                    if f2 % (P * n) == t2:
                        found.add(z)
        if any(max(f2s) - min(f2s) >= P * n for f2s in stages.values()):
            return ("spread",)
        return ("decoded", found.pop()) if len(found) == 1 else ("failed", len(found))

    def test_matches_placement_search(self):
        rng = random.Random(14)
        outcomes = Counter()
        for _ in range(1500):
            n = rng.randint(6, 14)
            P1, P2 = rng.randint(2, 4), rng.randint(2, 4)
            P = max(P1, P2)
            l1, l2 = rng.randint(1, P), rng.randint(1, P)
            if l1 + l2 + 1 > n:
                continue
            s1 = rng.randint(1, n - l1 - l2)
            s2 = rng.randint(s1 + l1 + 1, n - l2 + 1)
            x = tuple(rng.randint(0, 1) for _ in range(n))
            received = delete(x, rng.randint(s1, s1 + l1 - 1), rng.randint(s2, s2 + l2 - 1))
            sketch = list(e2_sketch(x, P1, P2))
            if rng.random() < 0.5:
                j = rng.randint(0, 2)
                sketch[j] = (sketch[j] + rng.choice((-1, 1))) % (3, n + 1, P * n)[j]
            intervals = [(s1, l1), (s2, l2)]
            want = self.placement_search(received, intervals, sketch, n, P)
            try:
                got = ("decoded", e2_decode(received, intervals, tuple(sketch), n, P1, P2))
            except ConstructionError:
                got = ("spread",)
            except DecodeFailure as failure:
                got = ("failed", int(str(failure).split()[0]))
            assert got == want, (received, intervals, sketch, n, P1, P2)
            outcomes[want[0]] += 1
        assert outcomes["decoded"] > 500 and outcomes["failed"] > 100


def stratified_pairs(params: EParams):
    """Deletion pairs touching every region combination of the composition."""
    n, L = params.n, params.total
    r12 = params.e1_bits + params.e2_bits
    cases = [
        ((1, 2), [(1, 2), (1, 2)]),
        ((2, 4), [(2, 2), (3, 2)]),
        ((n - 1, n), [(n - 2, 2), (n - 1, 2)]),
        ((2, n - 1), [(1, 2), (n - 2, 2)]),
        ((3, n), [(2, 2), (n - 1, 2)]),
        ((n, n + 1), [(n - 1, 2), (n + 1, 2)]),
        ((n - 1, n + 2), [(n - 1, 2), (n + 1, 2)]),
        ((n + 1, n + 2), [(n + 1, 2), (n + 1, 2)]),
        ((n + 3, n + r12), [(n + 2, 2), (n + r12 - 1, 2)]),
        ((n + r12, n + r12 + 1), [(n + r12 - 1, 2), (n + r12 + 1, 2)]),
        ((L - 1, L), [(L - 2, 2), (L - 1, 2)]),
        ((n + r12 + 2, L - 2), [(n + r12 + 1, 2), (L - 3, 2)]),
    ]
    for (d1, d2), ivs in cases:
        assert 1 <= d1 < d2 <= L
        assert any(s <= d1 <= s + l - 1 for s, l in [ivs[0]])
        assert any(s <= d2 <= s + l - 1 for s, l in [ivs[1]])
    return cases


class TestComposition:
    def test_length_matches_materialised_redundancy(self):
        for n, P1, P2 in [(10, 2, 2), (12, 3, 3), (20, 2, 3)]:
            params = EParams(n=n, P1=P1, P2=P2)
            for x in [(0,) * n, (1, 0) * (n // 2)]:
                assert len(encode_E(x, P1, P2)) - n == params.redundancy

    def test_systematic_prefix(self):
        x = b("1011010010")
        assert encode_E(x, 2, 2)[:10] == x

    def test_stratified_roundtrip_all_payloads(self):
        n, P1, P2 = 8, 2, 2
        params = EParams(n=n, P1=P1, P2=P2)
        cases = stratified_pairs(params)
        for x in all_words(n):
            word = encode_E(x, P1, P2)
            for (d1, d2), ivs in cases:
                assert decode_E(delete(word, d1, d2), ivs, n, P1, P2) == x

    def test_all_pairs_two_payloads(self):
        n, P1, P2 = 8, 2, 2
        for x in [b("10110100"), b("01011110")]:
            word = encode_E(x, P1, P2)
            L = len(word)
            for d1 in range(1, L + 1):
                for d2 in range(d1 + 1, min(d1 + 4, L) + 1):
                    ivs = [(max(1, min(d1, L - 1)), 2), (max(1, d2 - 1), 2)]
                    assert decode_E(delete(word, d1, d2), ivs, n, P1, P2) == x

    def test_zero_and_one_deletion_paths(self):
        n, P1, P2 = 8, 2, 2
        x = b("11010010")
        word = encode_E(x, P1, P2)
        ivs = [(1, 2), (4, 2)]
        assert decode_E(word, ivs, n, P1, P2) == x
        assert decode_E(delete(word, 5), ivs, n, P1, P2) == x

    def test_first_interval_reaching_past_the_prefix(self):
        # sorted by start, the first interval [15, 17] runs past n = 16 while
        # the second, [16, 16], ends inside: the deletions are decoded as past
        # the prefix, not handed to e1_decode with an interval outside [1, n]
        x = b("1011001110001011")
        word = encode_E(x, 3, 2)
        for d1, d2 in [(16, 17), (15, 16)]:
            assert decode_E(delete(word, d1, d2), [(15, 3), (16, 1)], 16, 3, 2) == x

    def test_bundle_serialization(self):
        x = b("1011010010")
        bundle = sketch_bundle(x, 2, 3)
        again = SketchBundle.from_json(bundle.to_json())
        assert again == bundle

    def test_float_length_rejected(self):
        with pytest.raises(ParameterError, match="must be an int"):
            EParams(16.0, 2, 2)

    def test_float_interval_bound_rejected(self):
        with pytest.raises(ParameterError, match="must be an int"):
            EParams(16, 2.5, 2)

    def test_encode_with_float_interval_bound_rejected(self):
        with pytest.raises(ParameterError, match="must be an int"):
            encode_E(b("1011010010110100"), 2.5, 2)

    @pytest.mark.parametrize("P1, P2", [(2.0, 2), (2, 2.0)])
    def test_integral_float_rejected_after_a_cached_int(self, P1, P2):
        # 2.0 == 2 and hashes alike: an untyped cache would return the int
        # call's codeword without ever checking the types
        w = b("101100111010")
        assert len(encode_E(w, 2, 2)) == EParams(len(w), 2, 2).total
        with pytest.raises(ParameterError, match="must be an int"):
            encode_E(w, P1, P2)
        with pytest.raises(ParameterError, match="must be an int"):
            sketch_bundle(w, P1, P2)


class TestBundleFromJson:
    """``from_json`` accepts exactly what ``to_json`` writes: every case below
    is a mutated bundle of one word and raises ParameterError naming what is
    wrong."""

    X, P1, P2 = b("1011010010"), 2, 3

    def data(self):
        return sketch_bundle(self.X, self.P1, self.P2).to_json()

    @staticmethod
    def reject(data, reason):
        with pytest.raises(ParameterError, match=reason):
            SketchBundle.from_json(data)

    def with_own_xi(self, data):
        """``data`` with the xi its own (possibly out-of-range) tail has."""
        params = EParams(n=len(self.X), P1=self.P1, P2=self.P2)
        tail = _pack(data["e1"] + data["e2"], params.tail_widths)
        data["xi"] = "".join(map(str, sketch_xi(to_bits(tail, sum(params.tail_widths)))))
        return data

    def test_one_e1_sum(self):
        data = self.data()
        data["e1"] = [1]
        self.reject(data, "e1")

    def test_e2_out_of_its_moduli(self):
        data = self.data()
        data["e2"] = [5, 99999, -1]
        self.reject(data, "e2")

    def test_xi_not_a_bit_string(self):
        data = self.data()
        data["xi"] = "012"
        self.reject(data, "xi")

    @pytest.mark.parametrize("key", ["rho", "P", "e1_modulus_bits", "f1_modulus", "f2_modulus"])
    def test_params_disagree(self, key):
        data = self.data()
        data["params"][key] += 1
        self.reject(data, "parameters")

    def test_e1_sum_wider_than_kappa(self):
        data = self.data()
        data["e1"][1] += 1 << data["params"]["e1_modulus_bits"]
        self.reject(data, "e1")

    @pytest.mark.parametrize("field", [1, 2])
    def test_e2_residue_at_its_modulus(self, field):
        # the residue still fits its width, and xi is the sketch of the
        # mutated tail: only the modulus rejects it
        data = self.data()
        data["e2"][field] = data["params"][["f1_modulus", "f2_modulus"][field - 1]]
        self.reject(self.with_own_xi(data), "e2")

    def test_xi_of_another_tail(self):
        data = self.data()
        data["xi"] = data["xi"][:-1] + str(1 - int(data["xi"][-1]))
        self.reject(data, "xi")


class TestPrefixCode:
    K, P1, P2 = 6, 2, 2

    def test_marker_position(self):
        word = prefix_encode((1, 0, 1, 1, 0, 0), self.P1, self.P2)
        assert word[self.K:self.K + 2] == (0, 1)
        assert prefix_member(word, self.K, self.P1, self.P2)

    def test_two_deletion_roundtrip(self):
        L = prefix_codeword_length(self.K, self.P1, self.P2)
        for x in all_words(self.K):
            word = prefix_encode(x, self.P1, self.P2)
            for d1, d2 in [(1, 2), (3, 9), (self.K, self.K + 1),
                           (self.K + 1, self.K + 2), (self.K + 2, self.K + 3),
                           (20, 21), (L - 1, L), (5, L - 3)]:
                ivs = [(max(1, d1 - 1), 2), (max(1, d2 - 1), 2)]
                got = prefix_decode_two(delete(word, d1, d2), ivs,
                                        self.K, self.P1, self.P2)
                assert got == x

    def test_single_deletion_roundtrip_exhaustive(self):
        L = prefix_codeword_length(self.K, self.P1, self.P2)
        for x in all_words(self.K):
            word = prefix_encode(x, self.P1, self.P2)
            for d in range(1, L + 1):
                assert prefix_decode_one(delete(word, d), self.K,
                                         self.P1, self.P2) == x

    def test_full_length_passthrough(self):
        x = (1, 0, 1, 0, 1, 0)
        word = prefix_encode(x, self.P1, self.P2)
        assert prefix_decode_one(word, self.K, self.P1, self.P2) == x

    def test_wrong_intervals_fail_closed(self):
        x = (1, 1, 0, 0, 1, 0)
        word = prefix_encode(x, self.P1, self.P2)
        received = delete(word, 1, 2)
        with pytest.raises((DecodeFailure, ParameterError)):
            got = prefix_decode_two(received, [(40, 2), (60, 2)],
                                    self.K, self.P1, self.P2)
            if got != x:
                raise DecodeFailure("decoded to a different payload")


class TestMalformedIntervals:
    """Every composition decoder checks its declared intervals the same way:
    exactly two, each inside the word and of length 1 to max(P1, P2)."""

    K, P1, P2 = 6, 2, 2
    X = (1, 0, 1, 1, 0, 0)

    def marked(self):
        return prefix_encode(self.X, self.P1, self.P2)

    @pytest.mark.parametrize("case", ["one", "three", "length 0", "start 0",
                                      "too long", "past the end"])
    def test_prefix_decode_two(self, case):
        word = self.marked()
        Lp = len(word)
        # the marker sits at K+1, K+2 = 7, 8; every case touches it
        intervals = {"one": [(7, 2)],
                     "three": [(6, 2), (7, 2), (9, 2)],
                     "length 0": [(7, 0), (8, 2)],
                     "start 0": [(0, 2), (7, 2)],
                     "too long": [(6, 3), (8, 2)],
                     "past the end": [(7, 2), (Lp, 2)]}[case]
        with pytest.raises(ParameterError):
            prefix_decode_two(delete(word, 7, 9), intervals, self.K, self.P1, self.P2)

    @pytest.mark.parametrize("intervals", [[(3, 2)], [(3, 2), (4, 2), (5, 2)]])
    def test_e1_decode_count(self, intervals):
        x = b("110100101011")
        with pytest.raises(ParameterError):
            e1_decode(delete(x, 3, 4), intervals, e1_sketch(x, 2, 2), 12, 2, 2)

    @pytest.mark.parametrize("intervals", [[(3, 2)], [(3, 2), (8, 2), (10, 2)]])
    def test_e2_decode_count(self, intervals):
        x = b("110100101011")
        with pytest.raises(ParameterError):
            e2_decode(delete(x, 3, 9), intervals, e2_sketch(x, 2, 2), 12, 2, 2)

    def test_e2_decode_negative_start(self):
        x = b("110100101011")
        with pytest.raises(ParameterError):
            e2_decode(delete(x, 3, 9), [(-3, 2), (8, 2)], e2_sketch(x, 2, 2), 12, 2, 2)

    def test_e1_decode_zero_length(self):
        x = b("110100101011")
        with pytest.raises(ParameterError):
            e1_decode(delete(x, 3, 4), [(3, 0), (4, 2)], e1_sketch(x, 2, 2), 12, 2, 2)

    @pytest.mark.parametrize("intervals", [[(2.0, 3), (7, 3)], [(2, 3, 1), (7, 3)],
                                           [(2, True), (7, 3)], 5])
    @pytest.mark.parametrize("decoder", ["decode_E", "e1_decode", "e2_decode",
                                         "prefix_decode_two", "array_bounded_decode",
                                         "array_single_bounded_decode"])
    def test_not_integer_pairs(self, decoder, intervals):
        # the sketch and array decoders share one check: these once ended in
        # a TypeError or ValueError, or (2, True) was read as (2, 1)
        x = b("110100101011")
        calls = {
            "decode_E": lambda: decode_E(delete(encode_E(x, 3, 3), 3, 8), intervals, 12, 3, 3),
            "e1_decode": lambda: e1_decode(delete(x, 3, 8), intervals, e1_sketch(x, 3, 3),
                                           12, 3, 3),
            "e2_decode": lambda: e2_decode(delete(x, 3, 8), intervals, e2_sketch(x, 3, 3),
                                           12, 3, 3),
            "prefix_decode_two": lambda: prefix_decode_two(
                delete(prefix_encode(x, 3, 3), 3, 8), intervals, 12, 3, 3),
            "array_bounded_decode": lambda: array_bounded_decode(
                delete(x, 3, 8), intervals, array_syndromes(x, 3)),
            "array_single_bounded_decode": lambda: array_single_bounded_decode(
                delete(x, 3), intervals if intervals == 5 else intervals[0],
                array_syndromes(x, 3)),
        }
        with pytest.raises(ParameterError):
            calls[decoder]()


class TestMalformedSketchParameters:
    """The interval sketch entry points take positive int bounds P1 and P2,
    and the decoders a sketch of exactly its own arity."""

    X = b("110100101011")

    @pytest.mark.parametrize("P1, P2", [(0, 0), (-2, 2), (2, 0), (2.0, 2), (2, True)])
    def test_bounds(self, P1, P2):
        x, n = self.X, len(self.X)
        for call in (lambda: e1_sketch(x, P1, P2), lambda: e2_sketch(x, P1, P2),
                     lambda: e1_decode(delete(x, 3, 4), [(3, 2), (4, 2)], (0, 0), n, P1, P2),
                     lambda: e2_decode(delete(x, 3, 9), [(3, 2), (8, 2)], (0, 0, 0), n, P1, P2)):
            with pytest.raises(ParameterError):
                call()

    @pytest.mark.parametrize("sketch", [(), (1,), (1, 2, 3)])
    def test_e1_sketch_arity(self, sketch):
        with pytest.raises(ParameterError):
            e1_decode(delete(self.X, 3, 4), [(3, 2), (4, 2)], sketch, 12, 2, 2)

    @pytest.mark.parametrize("sketch", [(), (1, 2), (1, 2, 3, 4)])
    def test_e2_sketch_arity(self, sketch):
        with pytest.raises(ParameterError):
            e2_decode(delete(self.X, 3, 9), [(3, 2), (8, 2)], sketch, 12, 2, 2)

    def test_well_formed_calls_unchanged(self):
        x = self.X
        assert e2_sketch(x, 5, 9) == e2_sketch(x, 9, 5)
        sk = list(e1_sketch(x, 2, 2))  # any sequence of the right arity
        assert e1_decode(delete(x, 3, 4), [(3, 2), (4, 2)], sk, 12, 2, 2) == x


def criterion_08_patterns(n: int, L: int, r12: int, marker: bool):
    """Criterion 08's two-deletion patterns, each with its declared intervals,
    for the composition (length L) or the marker code (length L + 2) of an
    n-bit payload; r12 is the bit length of both interval sketches."""
    if marker:
        Lp = L + 2
        pairs = [(1, 2), (4, 11), (n, n + 1), (n + 1, n + 2), (n + 2, n + 3), (25, 26),
                 (Lp - 1, Lp), (6, Lp - 4)]
        return [(pair, [(max(1, d - 1), 2) for d in pair]) for pair in pairs]
    return [((2, 4), [(2, 2), (3, 2)]), ((5, 6), [(4, 2), (5, 2)]),
            ((1, 2), [(1, 2), (1, 2)]), ((n - 1, n), [(n - 2, 2), (n - 1, 2)]),
            ((2, 7), [(1, 2), (6, 2)]), ((3, n), [(2, 2), (n - 1, 2)]),
            ((1, n), [(1, 2), (n - 1, 2)]), ((n, n + 1), [(n - 1, 2), (n + 1, 2)]),
            ((n - 1, n + 2), [(n - 1, 2), (n + 1, 2)]), ((n + 1, n + 2), [(n + 1, 2), (n + 1, 2)]),
            ((n + 3, n + r12), [(n + 2, 2), (n + r12 - 1, 2)]),
            ((L - 1, L), [(L - 2, 2), (L - 1, 2)])]


def criterion_08_sweep(L: int):
    """Criterion 08's sweep: every deletion pair at most four apart, and here
    every single deletion too, with intervals around each deleted bit."""
    for d1 in range(1, L + 1):
        yield (d1,), [(max(1, d1 - 1), 2), (max(1, d1 - 1), 2)]
        for d2 in range(d1 + 1, min(d1 + 4, L) + 1):
            yield (d1, d2), [(max(1, d1 - 1), 2), (max(1, d2 - 1), 2)]


def insert(word, p, value):
    return word[:p - 1] + (value,) + word[p - 1:]


def reinsert_in_intervals(word, intervals, length):
    """Every ``length``-bit word that leaves ``word`` by losing nothing, one
    bit inside either (start, length) interval, or two bits, one inside
    each; positions are 1-based in the longer word.  The decoders' candidate
    set, built word by word."""
    if length == len(word):
        return {word}
    if length - len(word) == 1:
        return set().union(*(insertions(word, range(s, s + l)) for s, l in intervals))
    (s1, l1), (s2, l2) = intervals
    return {insert(insert(word, min(p, q), v1), max(p, q), v2)
            for p in range(s1, s1 + l1) for q in range(s2, s2 + l2) if p != q
            for v1, v2 in product((0, 1), repeat=2)}


def sketch_workload_patterns(rng, n, L):
    """(deleted positions, intervals) of the benchmark's six decode kinds for
    an n-bit payload: composition length L, marker codeword length L + 2.
    The unknown-position single deletion gets an interval around it."""
    Lp = L + 2
    d1 = rng.randint(2, n - 2)
    yield False, (d1, d1 + 1), [(d1 - 1, 2), (d1, 2)]
    d1 = rng.randint(1, n - 4)
    d2 = rng.randint(d1 + 4, n)
    yield False, (d1, d2), [(d1, 2), (d2 - 1, 2)]
    d1, d2 = rng.randint(1, n), rng.randint(n + 1, L)
    yield False, (d1, d2), [(d1, 2), (d2 - 1, 2)]
    d = rng.randint(1, L)
    yield False, (d,), [(max(1, d - 1), 2), (rng.randint(1, L - 1), 2)]
    d1 = rng.randint(1, Lp - 1)
    d2 = rng.randint(d1 + 1, Lp)
    yield True, (d1, d2), [(max(1, d1 - 1), 2), (max(1, d2 - 1), 2)]
    d = rng.randint(1, Lp)
    yield True, (d,), [(max(1, d - 1), 2), (max(1, d - 1), 2)]


class TestCandidateCheck:
    """``_compositions``, the decoders' one candidate search, against the
    public encoders on every candidate word the received word and its
    intervals allow."""

    N, P1, P2 = 6, 2, 2

    def cases(self):
        """(n, received, intervals, marker) for every payload of length N
        under criterion 08's patterns, for two payloads under its sweep, and
        for seeded payloads of length 16 under the sketch workload's six
        patterns; each received word also with one bit flipped."""
        n, P1, P2 = self.N, self.P1, self.P2
        params = _eparams(n, P1, P2)
        r12 = params.e1_bits + params.e2_bits
        cases = []
        for i, x in enumerate(all_words(n)):
            for marker in (False, True):
                patterns = criterion_08_patterns(n, params.total, r12, marker)
                if i in (11, 45):
                    patterns += criterion_08_sweep(params.total + 2 * marker)
                cases += [(n, x, marker, deleted, ivs) for deleted, ivs in patterns]
        rng = random.Random(16)
        L = _eparams(16, P1, P2).total
        for _ in range(40):
            x = tuple(rng.randint(0, 1) for _ in range(16))
            cases += [(16, x, marker, deleted, ivs)
                      for marker, deleted, ivs in sketch_workload_patterns(rng, 16, L)]
        for n, x, marker, deleted, ivs in cases:
            word = prefix_encode(x, P1, P2) if marker else encode_E(x, P1, P2)
            received = delete(word, *deleted)
            j = sum(deleted) % len(received)
            flipped = received[:j] + (1 - received[j],) + received[j + 1:]
            for r in (received, flipped):
                yield n, r, ivs, marker

    def test_matches_the_public_encoders(self):
        P1, P2 = self.P1, self.P2
        sets = Counter()
        for n, received, ivs, marker in self.cases():
            params = _eparams(n, P1, P2)
            candidates = reinsert_in_intervals(received, ivs, params.total + 2 * marker)
            if marker:
                want = {c[:n] for c in candidates if prefix_member(c, n, P1, P2)}
            else:
                want = {c[:n] for c in candidates if c == encode_E(c[:n], P1, P2)}
            got = _compositions(received, ivs, n, params, (0, 1) if marker else ())
            assert got == want, (n, received, ivs, marker)
            sets[n, marker, len(want)] += 1
        assert min(sets[self.N, m, k] for m in (False, True) for k in (0, 1)) > 100, sets
        assert min(sets[16, m, k] for m in (False, True) for k in (0, 1)) > 10, sets

    def test_full_length_words(self):
        n, P1, P2 = self.N, self.P1, self.P2
        params = _eparams(n, P1, P2)
        for x in all_words(n):
            word, marked = encode_E(x, P1, P2), prefix_encode(x, P1, P2)
            assert _compositions(word, (), n, params) == {x}
            assert _compositions(marked, (), n, params, (0, 1)) == {x}
            assert _compositions(marked[:n] + (1, 0) + marked[n + 2:], (), n, params, (0, 1)) \
                == set()
            for j in range(n, len(word)):
                flipped = word[:j] + (1 - word[j],) + word[j + 1:]
                assert _compositions(flipped, (), n, params) == set()

    def test_decoders_leave_the_bundle_cache_alone(self):
        n, P1, P2 = 16, 2, 2
        x = b("1011001110001011")
        word, marked = encode_E(x, P1, P2), prefix_encode(x, P1, P2)
        L, Lp = len(word), len(marked)
        before = _sketch_bundle_cached.cache_info()
        assert decode_E(word, [(1, 2), (5, 2)], n, P1, P2) == x
        for d1, d2 in [(3, 4), (3, 9), (5, n + 4), (n + 2, L - 1), (L - 1, L)]:
            assert decode_E(delete(word, d1, d2), [(d1, 2), (d2 - 1, 2)], n, P1, P2) == x
        for d in (1, n, n + 1, L):
            assert decode_E(delete(word, d), [(max(1, d - 1), 2), (1, 2)], n, P1, P2) == x
        for d1, d2 in [(2, 9), (n, n + 1), (n + 2, n + 5), (Lp - 1, Lp)]:
            ivs = [(max(1, d1 - 1), 2), (d2 - 1, 2)]
            assert prefix_decode_two(delete(marked, d1, d2), ivs, n, P1, P2) == x
        assert prefix_decode_one(marked, n, P1, P2) == x
        for d in (1, n, n + 1, n + 2, Lp):
            assert prefix_decode_one(delete(marked, d), n, P1, P2) == x
        assert _sketch_bundle_cached.cache_info() == before


class TestCompositionOutcomesPinned:
    """Every outcome, exception texts included, of a fixed grid of well-formed
    composition decodes: zero, one and two deletions, declared intervals that
    cover the deletions and intervals that miss them, each also with one bit
    of the received word flipped."""

    GRID = ((3, 2, 2), (5, 2, 3), (8, 2, 2), (8, 3, 2), (12, 2, 2), (12, 3, 3),
            (16, 2, 2), (16, 2, 4))

    @staticmethod
    def outcome(decode, *args):
        try:
            return repr(decode(*args))
        except (DecodeFailure, ConstructionError) as exc:
            return f"{type(exc).__name__}: {exc}"

    @staticmethod
    def calls(rng, n, P1, P2, x):
        """(decoder, received, intervals or None) for one payload."""
        P = max(P1, P2)
        word, marked = encode_E(x, P1, P2), prefix_encode(x, P1, P2)
        L, Lp = len(word), len(marked)
        for _ in range(10):
            d = rng.randint(1, L)
            d1, d2 = sorted(rng.sample(range(1, L + 1), 2))
            e1, e2 = sorted(rng.sample(range(1, Lp + 1), 2))
            for hit in (True, False):
                def place(at, length=L):
                    """An interval around ``at`` if hit, else anywhere."""
                    l = rng.randint(1, P)
                    if not hit or at is None:
                        return (rng.randint(1, length - l + 1), l)
                    return (rng.randint(max(1, at - l + 1), min(at, length - l + 1)), l)
                yield decode_E, word, [place(d1), place(d2)]
                yield decode_E, delete(word, d), [place(d), place(None)]
                yield decode_E, delete(word, d1, d2), [place(d1), place(d2)]
                yield (prefix_decode_two, delete(marked, e1, e2),
                       [place(e1, Lp), place(e2, Lp)])
            yield prefix_decode_one, marked, None
            yield prefix_decode_one, delete(marked, rng.randint(1, Lp)), None

    def outcomes(self):
        rng = random.Random(2024)
        for n, P1, P2 in self.GRID:
            for _ in range(6):
                x = tuple(rng.randint(0, 1) for _ in range(n))
                for decode, received, ivs in self.calls(rng, n, P1, P2, x):
                    i = rng.randrange(len(received))
                    flipped = received[:i] + (1 - received[i],) + received[i + 1:]
                    for r in (received, flipped):
                        args = (r, n, P1, P2) if ivs is None else (r, ivs, n, P1, P2)
                        yield self.outcome(decode, *args)

    def test_outcomes_pinned(self):
        digest = hashlib.sha256()
        count = 0
        for out in self.outcomes():
            digest.update(out.encode() + b"\n")
            count += 1
        assert count == 9600
        assert digest.hexdigest() == \
            "f046599f71c775ca8414243dfcb6ae3236a781ddca78534d536859a0e4422f1e"


class TestEncodeOutputsPinned:
    """Every encoder output on a fixed grid of lengths, parameters and seeded
    payloads: the composition, its marker variant, the serialized bundle and
    each sketch on its own."""

    LENGTHS = (3, 5, 8, 12, 16, 23, 31)
    PARAMS = ((2, 2), (2, 3), (3, 2), (3, 3), (2, 5), (4, 4))

    def outputs(self):
        rng = random.Random(12)
        for n in self.LENGTHS:
            payloads = [(0,) * n, (1,) * n] + [
                tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(24)]
            for P1, P2 in self.PARAMS:
                for x in payloads:
                    yield repr(encode_E(x, P1, P2))
                    yield repr(prefix_encode(x, P1, P2))
                    yield json.dumps(sketch_bundle(x, P1, P2).to_json(), sort_keys=True)
                    yield repr(sketch_xi(x))
                    yield repr(e1_sketch(x, P1, P2))
                    yield repr(e2_sketch(x, P1, P2))

    def test_outputs_pinned(self):
        digest = hashlib.sha256()
        count = 0
        for out in self.outputs():
            digest.update(out.encode() + b"\n")
            count += 1
        assert count == 6552
        assert digest.hexdigest() == \
            "70bd7f64d82c00666370e486a26540badfd68bb5952d5b58592b082f53dcd48f"


BUNDLE = sketch_bundle(b("1011010010"), 2, 3).to_json()
COMPOSED_LENGTH = EParams(8, 2, 2).total
PREFIX_LENGTH = prefix_codeword_length(8, 2, 2)

# The decoders of declared intervals and bursts, each given a word its
# channel gives: (decode a declaration, what, count, length); the width is
# P = 3 throughout.
SPAN_X = b("110100101011")
SPAN_DECODERS = {
    "e1_decode": (lambda d: e1_decode(delete(SPAN_X, 3, 8), d, e1_sketch(SPAN_X, 3, 3), 12, 3, 3),
                  "deletion interval", 2, 12),
    "e2_decode": (lambda d: e2_decode(delete(SPAN_X, 3, 8), d, e2_sketch(SPAN_X, 3, 3), 12, 3, 3),
                  "deletion interval", 2, 12),
    "decode_E": (lambda d: decode_E(delete(encode_E(SPAN_X, 3, 3), 3, 8), d, 12, 3, 3),
                 "deletion interval", 2, EParams(12, 3, 3).total),
    "prefix_decode_two": (lambda d: prefix_decode_two(delete(prefix_encode(SPAN_X, 3, 3), 3, 8),
                                                      d, 12, 3, 3),
                          "deletion interval", 2, prefix_codeword_length(12, 3, 3)),
    "array_bounded_decode": (lambda d: array_bounded_decode(delete(SPAN_X, 3, 8), d,
                                                            array_syndromes(SPAN_X, 3)),
                             "deletion interval", 2, 12),
    "array_single_bounded_decode": (lambda d: array_single_bounded_decode(
        delete(SPAN_X, 3), d, array_syndromes(SPAN_X, 3)), "deletion interval", 1, 12),
    "array_erasure_decode": (lambda d: array_erasure_decode(list(SPAN_X), d,
                                                            array_syndromes(SPAN_X, 3)),
                             "erasure burst", 2, 12),
}
SPAN_FAULTS = ["count", "length 0", "too wide", "start 0", "past the end", "bool start"]


class TestParameterErrors:
    """One malformed input for each input check, with the text it raises."""

    @pytest.mark.parametrize("call, text", [
        (lambda: xi_value((1, 0, 1), 2), "word longer than its packing length"),
        (lambda: xi_decode((0,) * 5, (), 8),
         "received length incompatible with one or two deletions"),
        (lambda: e1_decode((0,) * 10, [(3, 2), (4, 2)], (0, 0), 16, 2, 2),
         "expected length 14, got 10"),
        (lambda: e2_decode((0,) * 10, [(3, 2), (8, 2)], (0, 0, 0), 16, 2, 2),
         "expected length 14, got 10"),
        (lambda: EParams(n=2, P1=2, P2=2), "payload length must be an int >= 3, got 2"),
        (lambda: SketchBundle.from_json({}), "malformed sketch bundle"),
        (lambda: SketchBundle.from_json(dict(BUNDLE, params=dict(BUNDLE["params"], P1="2"))),
         "sketch bundle field must be an int, got '2'"),
        (lambda: decode_E((0,) * (COMPOSED_LENGTH - 3), [(1, 1), (2, 1)], 8, 2, 2),
         f"received length {COMPOSED_LENGTH - 3} incompatible with <= 2 deletions"),
        (lambda: prefix_decode_two((0,) * 5, [(1, 1), (3, 1)], 8, 2, 2),
         f"expected length {PREFIX_LENGTH - 2}, got 5"),
        (lambda: prefix_decode_one((0,) * 5, 8, 2, 2),
         f"expected length {PREFIX_LENGTH} or {PREFIX_LENGTH - 1}, got 5"),
        (lambda: e2_sketch((), 2, 2), "word length n must be an int >= 1, got 0"),
        (lambda: xi_decode((1,), (0,), "2"), "word length n must be an int >= 1, got '2'"),
        (lambda: e1_decode((0,) * 10, [(3, 2), (4, 2)], (0, 0), "12", 2, 2),
         "word length n must be an int >= 1, got '12'"),
        (lambda: e2_decode((), [(1, 1), (3, 1)], (0, 0, 0), 0, 2, 2),
         "word length n must be an int >= 1, got 0"),
        (lambda: moment((1, 0), True), "moment order must be an int, got True"),
        (lambda: moment_vector("102"), "binary word expected"),
        (lambda: xi_value((1, 0, 1), "5"), "packing length must be an int, got '5'"),
        (lambda: to_bits("5", 3), "value and width must be ints with width >= 0, got '5' and 3"),
        (lambda: to_bits(5, "3"), "value and width must be ints with width >= 0, got 5 and '3'"),
        (lambda: xi_budget("3"), "word length must be an int >= 0, got '3'"),
        (lambda: xi_budget(-5), "word length must be an int >= 0, got -5"),
        (lambda: from_bits([2]), "a word of 0s and 1s expected, got [2]"),
        (lambda: from_bits("01"), "a word of 0s and 1s expected, got '01'"),
        (lambda: encode_E((0, 1, 1), [2], 2), "P1 must be an int, got [2]"),
        (lambda: decode_E((0,) * 5, [(1, 1), (2, 1)], 8, {2}, 2), "P1 must be an int, got {2}"),
        (lambda: prefix_codeword_length([16], 2, 2), "payload length must be an int, got [16]"),
        (lambda: sketch_bundle((0, 1), 2, {2}), "P2 must be an int, got {2}"),
        (lambda: xi_decode((1,), 5, 2), "sketch must be 7 bits, each 0 or 1"),
        (lambda: e1_decode((0,) * 10, [(3, 2), (4, 2)], 5, 12, 2, 2),
         "a collection of sketch values expected, got 5"),
        (lambda: e1_sketch((), 2, 2), "word length n must be an int >= 1, got 0"),
        (lambda: e2_decode((0,) * 4, [(1, 1), (3, 1)], (0, 0, 0), None, 2, 2),
         "word length n must be an int >= 1, got None"),
    ] + [(lambda n=n: e1_windows(n, 2), f"word length n must be an int >= 1, got {n!r}")
         for n in (0, -3, True, 2.5)],
        ids=["xi_value", "xi_decode", "e1_decode", "e2_decode", "EParams", "bundle keys",
             "bundle ints", "decode_E", "prefix_decode_two", "prefix_decode_one",
             "e2_sketch empty", "xi_decode n", "e1_decode n", "e2_decode n", "moment bool order",
             "moment_vector string", "xi_value packing length", "to_bits str value",
             "to_bits str width", "xi_budget str", "xi_budget negative", "from_bits 2",
             "from_bits str", "encode_E list P1", "decode_E set P1", "prefix length list",
             "bundle set P2", "xi_decode int sketch", "e1_decode int sketch", "e1_sketch empty",
             "e2_decode None n",
             "windows 0", "windows -3", "windows True", "windows 2.5"])
    def test_rejected(self, call, text):
        with pytest.raises(ParameterError, match=f"^{re.escape(text)}$"):
            call()

    @pytest.mark.parametrize("decoder, fault", [
        (decoder, fault) for decoder in SPAN_DECODERS for fault in SPAN_FAULTS
        if not (fault == "count" and SPAN_DECODERS[decoder][2] == 1)])
    def test_declared_spans_rejected(self, decoder, fault):
        """One malformed declaration gets one text from every decoder of
        declared spans: each reads them with ``core.as_spans``."""
        decode, what, count, length = SPAN_DECODERS[decoder]
        bad = {"count": (3, 2), "length 0": (3, 0), "too wide": (3, 4), "start 0": (0, 2),
               "past the end": (length, 2), "bool start": (True, 2)}[fault]
        declared = bad if count == 1 else [bad] if fault == "count" else [bad, (8, 2)]
        text = (f"expected 2 {what}s, got 1" if fault == "count"
                else f"{what} must be a (start, length) pair of integers, got {bad!r}"
                if fault == "bool start"
                else f"{what} {bad} must lie in [1, {length}] and span 1 to 3 positions")
        with pytest.raises(ParameterError, match=f"^{re.escape(text)}$"):
            decode(declared)
