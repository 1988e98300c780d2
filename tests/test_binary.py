"""VT and shifted-VT tests against exhaustive insertion oracles."""

import re
from itertools import product

import numpy as np
import pytest

from syndef.binary import (
    SvtParams,
    as_bits,
    insertions,
    svt_decode,
    svt_member,
    vt_decode,
    vt_syndrome,
)
from syndef.core import DecodeFailure, ParameterError


def b(text):
    return tuple(int(c) for c in text)


def all_words(n):
    return product((0, 1), repeat=n)


class TestAsBits:
    """Entries equal to 0 or 1, and the strings "0" and "1", become ints;
    anything else raises ParameterError."""

    @pytest.mark.parametrize("bits, want", [
        ((0, 1, 1), (0, 1, 1)),
        ([1, 0], (1, 0)),
        ("0110", (0, 1, 1, 0)),
        (["1", "0"], (1, 0)),
        ((True, False), (1, 0)),
        ((1.0, 0.0), (1, 0)),
        ((np.int64(1), np.uint8(0), np.bool_(True)), (1, 0, 1)),
        (np.array([0, 1, 1]), (0, 1, 1)),
        ((), ()),
    ])
    def test_accepted(self, bits, want):
        got = as_bits(bits)
        assert got == want
        assert all(type(v) is int for v in got)

    @pytest.mark.parametrize("bits", [
        (1.5, 0), (2, 1), (-1,), (0, None), ("a",), ("01",), " 1", "012",
        b"01", ([0],), ({1},), 5, None,
    ])
    def test_rejected(self, bits):
        with pytest.raises(ParameterError):
            as_bits(bits)


class TestVtSyndrome:
    def test_zero_word(self):
        assert vt_syndrome(b("000000")) == 0

    def test_weighted_sum(self):
        assert vt_syndrome(b("110100")) == 7
        assert vt_syndrome(b("1011")) == 8


def oracle_vt_decode(received, a, n, m):
    return {w for w in insertions(received) if vt_syndrome(w) % m == a % m}


class TestVtDecode:
    def test_zero_residue(self):
        assert vt_decode(b("000"), 0, 4) == b("0000")

    def test_oracle_computed_case(self):
        # the only insertion into 010 with syndrome 4 mod 5 is 1010
        assert oracle_vt_decode(b("010"), 4, 4, 5) == {b("1010")}
        assert vt_decode(b("010"), 4, 4) == b("1010")

    def test_every_residue_reachable(self):
        # with modulus n+1 each residue class holds exactly one candidate, so
        # decoding is total on length n-1 inputs; checked exhaustively
        for n in (4, 5, 6):
            for received in all_words(n - 1):
                for a in range(n + 1):
                    assert {vt_decode(received, a, n)} == oracle_vt_decode(
                        received, a, n, n + 1)

    def test_roundtrip_exhaustive(self):
        n = 8
        for x in all_words(n):
            a = vt_syndrome(x) % (n + 1)
            for i in range(n):
                assert vt_decode(x[:i] + x[i + 1:], a, n) == x

    def test_failure_with_large_modulus(self):
        # modulus beyond n+1 can leave a residue class empty
        with pytest.raises(DecodeFailure):
            vt_decode(b("111"), 5, 4, modulus=40)

    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            vt_decode(b("11"), 0, 4)

    @pytest.mark.parametrize("modulus", [0, -5, 5.0])
    def test_modulus_not_a_positive_int(self, modulus):
        with pytest.raises(ParameterError):
            vt_decode(b("111"), 0, 4, modulus=modulus)


class TestDirectDecodersAgainstInsertions:
    """The direct VT and shifted-VT decoders against building every insertion,
    failure text included, for every received word whose codewords have
    length at most 10."""

    @staticmethod
    def check(decode_once, matches, message):
        if len(matches) == 1:
            assert decode_once() == matches[0]
        else:
            with pytest.raises(DecodeFailure) as err:
                decode_once()
            assert str(err.value) == message

    def test_vt_every_residue(self):
        # from n+1 on each residue has at most one candidate; moduli 1 and 2
        # leave several
        for length in range(10):
            n = length + 1
            for received in all_words(length):
                words = insertions(received)
                for m in (1, 2, n + 1, n + 2, n + 5):
                    by_residue = {}
                    for w in words:
                        by_residue.setdefault(vt_syndrome(w) % m, []).append(w)
                    for a in range(m):
                        matches = by_residue.get(a, [])
                        self.check(lambda: vt_decode(received, a, n, modulus=m), matches,
                                   f"{len(matches)} candidates consistent with VT residue "
                                   f"{a} mod {m}")

    @pytest.mark.parametrize("window, longest", [(1, 9), (2, 9), (5, 9), (6, 7), (9, 6)])
    def test_svt_every_residue_parity_and_start(self, window, longest):
        for length in range(longest + 1):
            for received in all_words(length):
                # starts off both ends: windows that miss the word, or meet
                # only its first or last slot
                for start in range(1 - window - 1, length + 3):
                    lo, hi = max(1, start), min(length + 1, start + window - 1)
                    by_key = {}
                    for w in insertions(received, range(lo, hi + 1)):
                        by_key.setdefault((vt_syndrome(w) % window, sum(w) % 2), []).append(w)
                    for a in range(window):
                        for parity in (0, 1):
                            matches = by_key.get((a, parity), [])
                            message = (f"{len(matches)} shifted-VT candidates in window "
                                       f"[{lo}, {hi}]" if lo <= hi else
                                       "deletion window does not meet the received word")
                            params = SvtParams(a, parity, window)
                            self.check(lambda: svt_decode(received, start, params),
                                       matches, message)


class TestSvt:
    @pytest.mark.parametrize("a, b, window, text", [
        pytest.param(0, 0, 1.5, "SVT window must be an int, got 1.5", id="0-0-1.5"),
        pytest.param(0, 0, 5.0, "SVT window must be an int, got 5.0", id="0-0-5.0"),
        pytest.param(0, 0, 0, "invalid shifted-VT parameters", id="0-0-0"),
        pytest.param(5, 0, 5, "invalid shifted-VT parameters", id="5-0-5"),
        pytest.param(0, 2, 5, "invalid shifted-VT parameters", id="0-2-5"),
        pytest.param(1.5, 0, 5, "SVT residue a must be an int, got 1.5", id="1.5-0-5"),
        pytest.param(1, True, 5, "SVT parity b must be an int, got True", id="1-True-5"),
        pytest.param(True, 0, 5, "SVT residue a must be an int, got True", id="True-0-5"),
    ])
    def test_malformed_params_rejected(self, a, b, window, text):
        with pytest.raises(ParameterError, match=f"^{re.escape(text)}$"):
            SvtParams(a, b, window)

    def test_all_zero(self):
        p = SvtParams(a=0, b=0, window=5)
        assert svt_decode(b("000000000"), 1, p) == b("0000000000")

    def test_windowed_roundtrip_exhaustive(self):
        n, P = 10, 5
        for x in all_words(n):
            p = SvtParams(a=vt_syndrome(x) % P, b=sum(x) % 2, window=P)
            for i in range(1, n + 1):
                received = x[:i - 1] + x[i:]
                start = max(1, min(i - P + 1, n - P + 1))
                for ws in range(start, min(i, n - P + 1) + 1):
                    assert svt_decode(received, ws, p) == x

    def test_no_close_collisions(self):
        # distinct codewords never collide under deletions < window apart
        n, P = 9, 5
        buckets = {}
        for x in all_words(n):
            key = (vt_syndrome(x) % P, sum(x) % 2)
            buckets.setdefault(key, []).append(x)
        for key, words in buckets.items():
            seen = {}
            for x in words:
                for i in range(1, n + 1):
                    rec = x[:i - 1] + x[i:]
                    for other, j in seen.get(rec, []):
                        if other != x:
                            assert abs(i - j) >= P
                    seen.setdefault(rec, []).append((x, i))

    def test_best_residue_size(self):
        # some (a, b) class holds at least 2^n / (2P) words
        n, P = 10, 5
        counts = {}
        for x in all_words(n):
            key = (vt_syndrome(x) % P, sum(x) % 2)
            counts[key] = counts.get(key, 0) + 1
        assert max(counts.values()) >= 2 ** n / (2 * P)

    def test_member_predicate(self):
        p = SvtParams(a=3, b=1, window=5)
        x = b("1001000100")
        assert svt_member(x, p) == (vt_syndrome(x) % 5 == 3 and sum(x) % 2 == 1)


class TestParameterErrors:
    """One malformed input for each input check, with the text it raises."""

    @pytest.mark.parametrize("call, text", [
        (lambda: vt_decode(b("01"), 0, "3"), "word length n must be an int >= 1, got '3'"),
        (lambda: vt_decode(b("01"), "0", 3), "VT residue a must be an int, got '0'"),
        (lambda: svt_decode(b("0110"), "1", SvtParams(a=0, b=0, window=3)),
         "window start must be an int, got '1'"),
        (lambda: svt_decode(b("0110"), 1.5, SvtParams(a=0, b=0, window=3)),
         "window start must be an int, got 1.5"),
        (lambda: svt_member(b("01"), 5), "SvtParams expected, got int"),
        (lambda: svt_decode(b("01"), 1, 5), "SvtParams expected, got int"),
        (lambda: insertions(5), "a word and integer insertion positions expected"),
        (lambda: insertions(b("01"), ["1"]), "a word and integer insertion positions expected"),
    ], ids=["vt_decode n", "vt_decode a", "svt_decode string start", "svt_decode float start",
            "svt_member int params", "svt_decode int params", "insertions int word",
            "insertions str position"])
    def test_rejected(self, call, text):
        with pytest.raises(ParameterError, match=f"^{re.escape(text)}$"):
            call()
