"""Array-code tests: syndromes, burst-erasure decoding, bounded deletions."""

import hashlib
import random
import re
from dataclasses import FrozenInstanceError, replace
from itertools import combinations, combinations_with_replacement, product

import pytest

from syndef.array_code import (
    ArrayCodeParams,
    _column_word,
    _normalize_windows,
    _solve_rows,
    array_bounded_decode,
    array_erasure_decode,
    array_single_bounded_decode,
    array_syndromes,
    is_member,
)
from syndef.binary import vt_syndrome
from syndef.core import DecodeFailure, ParameterError


def b(text):
    return tuple(int(c) for c in text)


def all_words(n):
    return product((0, 1), repeat=n)


def erase(word, bursts):
    out = list(word)
    for s, l in bursts:
        for pos in range(s, s + l):
            out[pos - 1] = None
    return out


def delete2(word, d1, d2):
    lo, hi = sorted((d1, d2))
    return word[:lo - 1] + word[lo:hi - 1] + word[hi:]


class TestSyndromes:
    def test_hand_evaluated(self):
        p = array_syndromes(b("1010"), 2)
        assert p.row_sums == (2, 0)
        assert p.weighted_vt == 3
        assert p.modulus == 36

    def test_zero_word(self):
        p = array_syndromes((0,) * 9, 3)
        assert p.row_sums == (0, 0, 0)
        assert p.weighted_vt == 0

    def test_two_evaluation_paths_agree(self):
        # direct formula vs. materialised row extraction
        P = 2
        for x in all_words(8):
            p = array_syndromes(x, P)
            rows = [x[i::P] for i in range(P)]
            assert p.row_sums == tuple(sum(r) % 3 for r in rows)
            assert p.weighted_vt == sum(
                3 ** i * vt_syndrome(r) for i, r in enumerate(rows)) % (9 * 8)

    def test_padding(self):
        p = array_syndromes(b("10110"), 3)
        assert p.padded == 6 and p.cols == 2


class TestErasureDecode:
    def test_no_erasure_identity(self):
        x = b("10110100")
        p = array_syndromes(x, 2)
        assert array_erasure_decode(list(x), [(1, 2), (5, 2)], p) == x

    def test_exhaustive_roundtrip_n8_p2(self):
        P, n = 2, 8
        for x in all_words(n):
            p = array_syndromes(x, P)
            for s1 in range(1, n - P + 2):
                for s2 in range(s1, n - P + 2):
                    bursts = [(s1, P), (s2, P)]
                    assert array_erasure_decode(erase(x, bursts), bursts, p) == x

    def test_unique_ambiguous_assignment(self):
        # whenever rows are ambiguous, exactly one assignment matches the
        # weighted residue: every wrong assignment has a nonzero discriminant
        P, n = 2, 8
        checked = 0
        for x in all_words(n):
            p = array_syndromes(x, P)
            for s1 in range(1, n - P + 2):
                for s2 in range(s1 + P, n - P + 2):
                    windows = _normalize_windows([(s1, P), (s2, P)], P, p.padded)
                    erased = {pos for s, l in windows for pos in range(s, s + l)}
                    count = 0
                    for y in all_words(n):
                        if (all(yb == xb for i, (yb, xb) in enumerate(zip(y, x), 1)
                                if i not in erased) and is_member(y, p)):
                            count += 1
                    assert count == 1
                    checked += 1
            if checked > 400:
                break

    def test_widened_windows_keep_the_known_bits(self):
        # (1, 1) and (4, 1) widen to the windows [1, 2] and [3, 4], which
        # erase the known 0 at position 3; the row solve made it a 1
        p = ArrayCodeParams(rows=2, length=7, row_sums=(0, 0), weighted_vt=6)
        with pytest.raises(DecodeFailure, match="cannot reproduce the received bits"):
            array_erasure_decode([None, 0, 0, None, 1, 0, 0], [(1, 1), (4, 1)], p)

    def test_every_returned_word_keeps_the_known_bits(self):
        # The row solve fills only the two widened windows and meets every
        # syndrome of the padded word, so a class can return a word only if
        # it holds a word that agrees with the received bits and zero pads
        # outside the windows.  Each received word is decoded under every
        # such class; under any other the solve finds no fill (the returned
        # count is the one a decode under every class of n <= 6 gives).
        P, returned = 2, 0
        for n in range(3, 7):
            padded = -(-n // P) * P
            spans = [(s, l) for l in (1, 2) for s in range(1, n - l + 2)]
            for bursts in combinations_with_replacement(spans, 2):
                erased = erase((0,) * n, bursts)
                free = [i for s, l in _normalize_windows(sorted(bursts), P, padded)
                        for i in range(s - 1, s - 1 + l)]
                inside = [i for i in free if i < n and erased[i] is not None]
                outside = [i for i in range(n) if i not in free]
                for bits in product((0, 1), repeat=len(outside)):
                    z = [0] * padded
                    for i, v in zip(outside, bits):
                        z[i] = v
                    classes = set()
                    for fill in product((0, 1), repeat=len(free)):
                        for i, v in zip(free, fill):
                            z[i] = v
                        classes.add(replace(array_syndromes(z, P), length=n))
                    for kept in product((0, 1), repeat=len(inside)):
                        received = list(erased)
                        for i, v in zip(outside + inside, bits + kept):
                            received[i] = v
                        for p in classes:
                            try:
                                y = array_erasure_decode(received, bursts, p)
                            except DecodeFailure:
                                continue
                            returned += 1
                            assert all(v in (None, w) for v, w in zip(received, y))
        assert returned == 6232

    def test_short_bursts_widened(self):
        x = b("110101001011")
        p = array_syndromes(x, 3)
        bursts = [(2, 1), (7, 2)]
        assert array_erasure_decode(erase(x, bursts), bursts, p) == x

    def test_overlapping_bursts_merged(self):
        x = b("110101001011")
        p = array_syndromes(x, 3)
        bursts = [(4, 3), (5, 3)]
        assert array_erasure_decode(erase(x, bursts), bursts, p) == x

    def test_non_binary_known_symbol_rejected(self):
        # a 3 at a known position used to pass through into the decoded word
        x = b("00000100")
        p = array_syndromes(x, 2)
        bursts = [(1, 2), (5, 2)]
        for symbol in (3, 2, -1, "1"):
            received = erase(x, bursts)
            received[2] = symbol
            with pytest.raises(ParameterError):
                array_erasure_decode(received, bursts, p)
            with pytest.raises(ParameterError):  # nothing erased
                array_erasure_decode(x[:2] + (symbol,) + x[3:], bursts, p)

    def test_erasure_outside_burst_rejected(self):
        x = b("10110100")
        p = array_syndromes(x, 2)
        bad = erase(x, [(1, 2)])
        with pytest.raises(ParameterError):
            array_erasure_decode(bad, [(4, 2), (7, 2)], p)


class TestParamsValidation:
    @pytest.mark.parametrize("rows, length, row_sums, weighted_vt", [
        (2, 8, (0,), 0),
        (2, 8, (0, 0, 0), 0),
        (0, 8, (), 0),
        (2, 0, (0, 0), 0),
        (2, 8, (0, 3), 0),
        (2, 8, (-1, 0), 0),
        (2, 8, (0, 0), -1),
        (2, 8, (0, 0), 72),
    ])
    def test_rejected(self, rows, length, row_sums, weighted_vt):
        with pytest.raises(ParameterError):
            ArrayCodeParams(rows=rows, length=length, row_sums=row_sums,
                            weighted_vt=weighted_vt)

    @pytest.mark.parametrize("rows, length, row_sums, weighted_vt, fault", [
        (2.5, 8, (0, 0), 0, "rows must be an int >= 1, got 2.5"),
        ("2", 8, (0, 0), 0, "rows must be an int >= 1, got '2'"),
        (True, 8, (0,), 0, "rows must be an int >= 1, got True"),
        (2, 8.0, (0, 0), 0, "length must be an int >= 1, got 8.0"),
        (2, 8, (0, 0), 1.0, "weighted_vt must be an int, got 1.0"),
        (2, 8, (0, 1.0), 0, "row sums must be 2 values in {0, 1, 2}"),
    ])
    def test_non_integers_named(self, rows, length, row_sums, weighted_vt, fault):
        with pytest.raises(ParameterError, match=f"^{re.escape(fault)}$"):
            ArrayCodeParams(rows, length, row_sums, weighted_vt)

    def test_extremes_accepted(self):
        p = ArrayCodeParams(rows=2, length=7, row_sums=(2, 2), weighted_vt=71)
        assert p.modulus == 72
        assert ArrayCodeParams(rows=1, length=1, row_sums=(0,), weighted_vt=0).padded == 1


class TestParamsCaching:
    """``padded``, ``cols`` and ``modulus`` are computed once per instance;
    the instance still behaves as a frozen value of its four fields."""

    def test_read_instance_behaves_like_a_fresh_one(self):
        read = array_syndromes(b("1101001"), 9)
        assert (read.padded, read.cols, read.modulus) == (9, 1, 3 ** 9 * 9)
        fresh = ArrayCodeParams(read.rows, read.length, read.row_sums, read.weighted_vt)
        assert read == fresh and hash(read) == hash(fresh)
        assert repr(read) == repr(fresh) == (
            f"ArrayCodeParams(rows=9, length=7, row_sums={read.row_sums!r}, "
            f"weighted_vt={read.weighted_vt})")
        for name, value in (("rows", 3), ("padded", 10), ("modulus", 1)):
            with pytest.raises(FrozenInstanceError):
                setattr(read, name, value)
        assert read.padded == 9 and read.modulus == 3 ** 9 * 9

    def test_column_word_cache_hit_across_instances(self):
        read = array_syndromes(b("1101001"), 9)
        _column_word(read)  # reads modulus
        hits = _column_word.cache_info().hits
        fresh = ArrayCodeParams(read.rows, read.length, read.row_sums, read.weighted_vt)
        assert _column_word(fresh) == b("1101001") + (0, 0)  # the padded word
        assert _column_word.cache_info().hits == hits + 1


class TestIntegerChecks:
    """Non-integer row counts, interval starts and burst starts raise
    ``ParameterError`` naming the fault, not a ``TypeError``."""

    x = b("10110100")

    def test_row_count(self):
        for rows in ("2", 2.0, None):
            with pytest.raises(ParameterError, match="row count must be an int >= 1, got"):
                array_syndromes(self.x, rows)

    @pytest.mark.parametrize("span", [("1", 2), (1.0, 2), (1, 2.0), (None, 2), (1, 2, 3), 1])
    def test_interval(self, span):
        p = array_syndromes(self.x, 2)
        with pytest.raises(ParameterError, match="deletion interval must be a"):
            array_bounded_decode(self.x[2:], [span, (6, 2)], p)
        with pytest.raises(ParameterError, match="deletion interval must be a"):
            array_single_bounded_decode(self.x[1:], span, p)

    @pytest.mark.parametrize("span", [("1", 2), (1.5, 2), (1, "2")])
    def test_burst(self, span):
        p = array_syndromes(self.x, 2)
        with pytest.raises(ParameterError, match="erasure burst must be a"):
            array_erasure_decode(erase(self.x, [(1, 2), (6, 2)]), [span, (6, 2)], p)

    def test_bursts_not_a_sequence(self):
        p = array_syndromes(self.x, 2)
        with pytest.raises(ParameterError, match="pairs expected"):
            array_erasure_decode(erase(self.x, [(1, 2), (6, 2)]), 7, p)


class TestSolveRows:
    """The base-3 digit solve against every fill of the erased positions."""

    @staticmethod
    def fills(word, windows, params):
        """Every fill of the erased window positions (pads included) whose
        padded word has the syndromes of ``params``, by ``product``."""
        P, N = params.rows, params.padded
        padded = list(word) + [0] * (N - len(word))
        erased = [i for s, l in windows for i in range(s - 1, s - 1 + l)]
        out = []
        for bits in product((0, 1), repeat=len(erased)):
            for i, bit in zip(erased, bits):
                padded[i] = bit
            if (tuple(sum(padded[i::P]) % 3 for i in range(P)) == params.row_sums
                    and sum(3 ** (i % P) * (i // P + 1) for i, bit in enumerate(padded) if bit)
                    % params.modulus == params.weighted_vt):
                out.append(list(padded))
        return out

    def test_against_product_enumeration(self):
        # cols >= 4 lets a row's positions lie 3 columns apart, where both
        # orders pass the digit test and a later digit must decide.  No
        # window pair lets two fills match: the gaps e_i differ by at most 1
        # from row to row, and their sums over the subsets of rows are
        # distinct (checked for P <= 9 and gaps up to 40 columns).
        rng = random.Random(6)
        counts = set()
        for P in range(1, 5):
            for length in (4 * P, 5 * P - 1, 6 * P):
                N = -(-length // P) * P
                pairs = [((a1, P), (a2, P)) for a1 in range(1, N + 1)
                         for a2 in range(a1 + P, N - P + 2)]
                for windows in pairs:
                    x = tuple(rng.randint(0, 1) for _ in range(length))
                    true = array_syndromes(x, P)
                    foreign = replace(true, weighted_vt=rng.randrange(true.modulus))
                    for params in (true, foreign):
                        want = self.fills(x, windows, params)
                        counts.add(len(want))
                        if len(want) == 1:
                            assert _solve_rows(list(x), windows, params) == want[0]
                        else:
                            with pytest.raises(DecodeFailure, match=f"^{len(want)} row assign"):
                                _solve_rows(list(x), windows, params)
        assert counts == {0, 1}


class TestBoundedDecode:
    def test_exhaustive_roundtrip_n8_p2(self):
        P, n = 2, 8
        for x in all_words(n):
            p = array_syndromes(x, P)
            for d1 in range(1, n + 1):
                for d2 in range(d1 + 1, n + 1):
                    s1 = min(d1, n - P + 1)
                    s2 = min(d2, n - P + 1)
                    got = array_bounded_decode(
                        delete2(x, d1, d2), [(s1, P), (s2, P)], p)
                    assert got == x

    def test_interval_beyond_word_rejected(self):
        p = array_syndromes((0,) * 8, 2)
        with pytest.raises(ParameterError):
            array_bounded_decode((0,) * 6, [(1, 2), (8, 2)], p)

    def test_wrong_received_length(self):
        p = array_syndromes((0,) * 8, 2)
        with pytest.raises(ParameterError):
            array_bounded_decode((0,) * 5, [(1, 2), (4, 2)], p)

    @pytest.mark.parametrize("intervals", [[(1, 1), (1, 1)], [(3, 1), (3, 1)]])
    def test_two_deletions_at_one_position_rejected(self, intervals):
        # the merged block has one position for two deletions; the fault is
        # the intervals, not the received word's length
        p = array_syndromes((0, 0, 0, 1), 1)
        with pytest.raises(ParameterError, match=re.escape(str(intervals))):
            array_bounded_decode((0, 1), intervals, p)

    def test_best_residue_redundancy(self):
        # the largest syndrome class at n=12, P=2 meets the pigeonhole bound
        import math
        n, P = 12, 2
        counts = {}
        for x in all_words(n):
            p = array_syndromes(x, P)
            key = (p.row_sums, p.weighted_vt)
            counts[key] = counts.get(key, 0) + 1
        best = max(counts.values())
        redundancy = n - math.log2(best)
        assert redundancy <= math.log2(n) + 2 * P * math.log2(3) + 1e-9


class TestSingleBoundedDecode:
    def test_roundtrip_with_window(self):
        P, n = 3, 12
        for x in list(all_words(n))[::37]:
            p = array_syndromes(x, P)
            for d in range(1, n + 1):
                s = max(1, min(d - 1, n - P + 1))
                assert array_single_bounded_decode(
                    x[:d - 1] + x[d:], (s, P), p) == x

    def test_inconsistent_row_rejected(self):
        x = b("11111111")
        p = array_syndromes(x, 2)
        with pytest.raises(DecodeFailure):
            # received from a different strand family; rows cannot balance
            array_single_bounded_decode(b("0000000"), (1, 2), p)

    def test_row_short_of_two_ones(self):
        # each row of 1111 sums to 2, and the window erases one bit per row
        p = array_syndromes(b("1111"), 2)
        with pytest.raises(DecodeFailure,
                           match="^row sum inconsistent with a single missing bit$"):
            array_single_bounded_decode(b("000"), (1, 2), p)


class TestSingleColumnWord:
    """With one column the syndromes are the word: the row solve of one
    window over every position, derived once per params.  A failure must not
    be remembered as a success."""

    x = b("1101001")

    def test_word_recovered(self):
        p = array_syndromes(self.x, 9)
        for _ in range(2):
            assert array_bounded_decode(b("11010"), [(6, 1), (7, 1)], p) == self.x

    @pytest.mark.parametrize("case, message", [
        ("row sum 2", "row sum inconsistent with a single missing bit"),
        ("residue", "0 row assignments consistent with the weighted VT residue"),
        # the pad row's 1 moves the residue too
        ("pad row", "0 row assignments consistent with the weighted VT residue"),
        ("received", "recovered word cannot reproduce the received bits"),
    ])
    def test_failures_raise_on_every_call(self, case, message):
        p = array_syndromes(self.x, 9)
        received = b("11010")
        if case == "row sum 2":
            p = replace(p, row_sums=(1, 2) + p.row_sums[2:])
        elif case == "residue":
            p = replace(p, weighted_vt=(p.weighted_vt + 1) % p.modulus)
        elif case == "pad row":
            p = replace(p, row_sums=p.row_sums[:-1] + (1,))
        else:
            received = b("00000")
        for _ in range(2):
            with pytest.raises(DecodeFailure, match=f"^{message}$"):
                array_bounded_decode(received, [(6, 1), (7, 1)], p)


class TestBoundedDecodeFailsClosed:
    """A bounded decode returns a word only if deleting one of its bits per
    deletion, inside the union of the intervals, gives the received word.
    Widening the intervals into row windows erases known bits too, and the
    single-column shortcut ignores the intervals; neither may let a
    contradicting word through."""

    @staticmethod
    def reproduces(word, received, intervals, k):
        union = sorted({p for s, l in intervals for p in range(s, s + l)})
        return any(tuple(v for i, v in enumerate(word, start=1) if i not in drop) == received
                   for drop in combinations(union, k))

    @pytest.mark.parametrize("decode, received, intervals, x, rows", [
        (array_single_bounded_decode, "110", (4, 1), "1111", 2),
        (array_bounded_decode, "11", [(1, 1), (2, 1)], "1110", 2),
        (array_single_bounded_decode, "100", (3, 1), "0100", 4),  # one column
    ])
    def test_witnesses(self, decode, received, intervals, x, rows):
        message = "^recovered word cannot reproduce the received bits$"
        with pytest.raises(DecodeFailure, match=message):
            decode(b(received), intervals, array_syndromes(b(x), rows))

    def test_every_class_received_word_and_interval(self):
        # n 3-5 at rows 2 and 4; rows 4 at n up to 4 is the one-column case
        returned = raised = 0
        for k, decode in ((1, array_single_bounded_decode), (2, array_bounded_decode)):
            for n, rows in product(range(2 + k, 6), (2, 4)):
                spans = [(s, l) for l in range(1, rows + 1) for s in range(1, n - l + 2)]
                choices = spans if k == 1 else list(combinations(spans, 2))
                for p in {array_syndromes(x, rows) for x in all_words(n)}:
                    for received in all_words(n - k):
                        for intervals in choices:
                            try:
                                word = decode(received, intervals, p)
                            except DecodeFailure:
                                raised += 1
                                continue
                            except ParameterError:  # two deletions at one position
                                continue
                            returned += 1
                            ivs = [intervals] if k == 1 else intervals
                            assert self.reproduces(word, received, ivs, k), \
                                (p, received, intervals, word)
        # both counts pinned: a guard that ruled out both deletions inside one
        # interval would return fewer words
        assert (returned, raised) == (11670, 39370)

    def test_pad_bit_stays_zero(self):
        # the only fill that gives the received bits back sets the pad bit
        # to 1, so it is no word of the class
        p = ArrayCodeParams(rows=2, length=5, row_sums=(0, 1), weighted_vt=9)
        with pytest.raises(DecodeFailure, match="cannot reproduce"):
            array_bounded_decode(b("000"), [(3, 1), (4, 1)], p)


class TestBoundedOutcomesPinned:
    """Every outcome of both bounded decoders over a small grid, hashed: the
    returned word, or the class of the exception, so that a reworded
    message leaves the digest alone."""

    def test_outcomes_pinned(self):
        digest, count = hashlib.sha256(), 0
        for n, rows in product(range(2, 6), range(1, 5)):
            classes = sorted({array_syndromes(x, rows) for x in all_words(n)},
                             key=lambda p: (p.row_sums, p.weighted_vt))
            spans = [(s, l) for l in range(1, rows + 1) for s in range(1, n - l + 2)]
            for k, decode, choices in ((1, array_single_bounded_decode, spans),
                                       (2, array_bounded_decode, list(combinations(spans, 2)))):
                for p, received, intervals in product(classes, all_words(n - k), choices):
                    try:
                        out = "".join(map(str, decode(received, intervals, p)))
                    except (DecodeFailure, ParameterError) as exc:
                        out = type(exc).__name__
                    digest.update(out.encode() + b"\n")
                    count += 1
        assert count == 83640
        assert digest.hexdigest() == (
            "2282269d0db28b0f58c1e1484293727e23b6808cd869ce044f601126ebb63adb")


ROWS2 = ArrayCodeParams(rows=2, length=4, row_sums=(0, 0), weighted_vt=0)
ROWS3 = ArrayCodeParams(rows=3, length=3, row_sums=(0, 0, 0), weighted_vt=0)


class TestParameterErrors:
    """One malformed input for each input check, with the text it raises."""

    @pytest.mark.parametrize("call, text", [
        (lambda: array_syndromes((0, 1), 0), "row count must be an int >= 1, got 0"),
        (lambda: array_erasure_decode([None, 0, 0, 0], [(1, 1)], ROWS2),
         "expected 2 erasure bursts, got 1"),
        (lambda: array_erasure_decode([None, 0, 0, 0], [(1, 3), (4, 1)], ROWS2),
         "erasure burst (1, 3) must lie in [1, 4] and span 1 to 2 positions"),
        (lambda: array_erasure_decode([None, 0, 0, 0], [(0, 2), (3, 1)], ROWS2),
         "erasure burst (0, 2) must lie in [1, 4] and span 1 to 2 positions"),
        # declarations once read only when the word held an erasure, or with
        # empty bursts dropped
        (lambda: array_erasure_decode([0, 0, 0, 0], [(1, 1)], ROWS2),
         "expected 2 erasure bursts, got 1"),
        (lambda: array_erasure_decode([None, 0, 0, 0], [(1, 1), (3, 1), (4, 0)], ROWS2),
         "expected 2 erasure bursts, got 3"),
        # one column: the two bursts collide and the word holds no 2P block
        (lambda: array_erasure_decode([None, None, 0], [(1, 1), (2, 1)], ROWS3),
         "word too short to normalise overlapping bursts"),
        (lambda: array_erasure_decode([0, 0, 0], [(1, 1), (2, 1)], ROWS2),
         "received word has the wrong length"),
        (lambda: array_bounded_decode((0, 0), [(1, 3), (4, 1)], ROWS2),
         "deletion interval (1, 3) must lie in [1, 4] and span 1 to 2 positions"),
        # two deletions declared by one, none or three intervals
        (lambda: array_bounded_decode((0, 0), [(1, 1)], ROWS2),
         "expected 2 deletion intervals, got 1"),
        (lambda: array_bounded_decode((0, 0), [], ROWS2), "expected 2 deletion intervals, got 0"),
        (lambda: array_bounded_decode((0, 0), [(1, 1), (2, 1), (3, 1)], ROWS2),
         "expected 2 deletion intervals, got 3"),
        (lambda: array_syndromes((), 8), "an empty word has no array form"),
        (lambda: is_member((0, 1), 5), "ArrayCodeParams expected, got int"),
        (lambda: array_erasure_decode([None, 0], [(1, 1)], 5), "ArrayCodeParams expected, got int"),
        (lambda: array_bounded_decode((0, 0), [(1, 1), (2, 1)], 5),
         "ArrayCodeParams expected, got int"),
        (lambda: array_erasure_decode(5, [(1, 1), (2, 1)], ROWS2), "known symbols must be bits"),
        (lambda: ArrayCodeParams(2, 4, 5, 0), "row sums must be 2 values in {0, 1, 2}"),
    ], ids=["rows", "one burst", "long burst", "burst at 0", "no erasure",
            "empty third burst", "short word",
            "erasure length", "long interval", "one interval", "no interval",
            "three intervals", "empty word", "is_member int params", "erasure int params",
            "bounded int params", "erasure int word", "int row sums"])
    def test_rejected(self, call, text):
        with pytest.raises(ParameterError, match=f"^{re.escape(text)}$"):
            call()
