"""Sketch and composed-codec tests, all expected values oracle-computed."""

import random
from itertools import combinations, product

import pytest

from syndef.core import ConstructionError, DecodeFailure, ParameterError
from syndef.sketch import (
    EParams,
    SketchBundle,
    XI_VERIFIED_MAX_LENGTH,
    _completions,
    decode_E,
    e1_decode,
    e1_sketch,
    e1_windows,
    e2_decode,
    e2_sketch,
    encode_E,
    moment,
    moment_vector,
    prefix_codeword_length,
    prefix_decode_one,
    prefix_decode_two,
    prefix_encode,
    prefix_member,
    sketch_bundle,
    sketch_xi,
    verify_sketch_injectivity,
    xi_bit_length,
    xi_budget,
    xi_decode,
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

    def test_injectivity_audit_small(self):
        assert verify_sketch_injectivity(8)

    def test_budget_at_64(self):
        assert xi_bit_length(64) <= xi_budget(64)
        assert XI_VERIFIED_MAX_LENGTH >= 16


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
    position ranges, whose moment vector equals the targets."""

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_matches_brute_force(self, k):
        rng = random.Random(k)
        for m in range(9):
            n = m + k
            for word in all_words(m):
                grown = [(pq, z, moment_vector(z)) for pq, z in grown_words(word, k)]
                parent = rng.choice(grown)[1]
                stranger = tuple(rng.randint(0, 1) for _ in range(n))
                a, b = rng.randint(0, n + 1), rng.randint(0, n + 1)
                clipped = (range(a, a + rng.randint(0, 4)), range(b, b + rng.randint(0, 4)))
                cases = [(moment_vector(parent), None, None),
                         (moment_vector(word), None, None),
                         (moment_vector(stranger), None, None),
                         (moment_vector(parent),) + clipped]
                for targets, range1, range2 in cases:
                    want = {z for (p, q), z, vec in grown if vec == targets
                            and (range1 is None or p is None or p in range1)
                            and (range2 is None or q is None or q in range2)}
                    assert _completions(word, n, targets, range1, range2) == want, \
                        (word, n, targets, range1, range2)

    def test_rejects_more_than_two_insertions(self):
        with pytest.raises(ParameterError):
            _completions((0, 1), 5, moment_vector((0, 1, 0, 1, 0)))
        with pytest.raises(ParameterError):
            _completions((0, 1), 1, moment_vector((0,)))


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

    def test_bundle_serialization(self):
        x = b("1011010010")
        bundle = sketch_bundle(x, 2, 3)
        again = SketchBundle.from_json(bundle.to_json())
        assert again == bundle


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
