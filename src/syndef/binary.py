"""Binary Varshamov-Tenengolts machinery: plain VT codes and their shifted,
window-localised variant."""

from __future__ import annotations

from dataclasses import dataclass

from .core import Bits, DecodeFailure, ParameterError, as_int, as_type, unique


def vt_syndrome(bits) -> int:
    """Position-weighted sum over 1-based positions."""
    return sum(i * b for i, b in enumerate(bits, start=1))


def weight(bits) -> int:
    return sum(bits)


_BIT_OF = {0: 0, 1: 1, "0": 0, "1": 1}.__getitem__


def as_bits(bits) -> Bits:
    """``bits`` as a tuple of ints; each entry must equal 0 or 1, or be "0" or "1"."""
    try:
        return tuple(map(_BIT_OF, bits))
    except (KeyError, TypeError):
        raise ParameterError("binary word expected") from None


def insertions(word: Bits, position_range=None) -> set[Bits]:
    """Distinct single-bit insertions into ``word``; positions are 1-based
    final coordinates, optionally restricted."""
    try:
        word = tuple(word)
        positions = range(1, len(word) + 2) if position_range is None else position_range
        return {word[:p - 1] + (v,) + word[p - 1:]
                for p in positions if 1 <= p <= len(word) + 1 for v in (0, 1)}
    except TypeError:
        raise ParameterError("a word and integer insertion positions expected") from None


def _insertion_shifts(received: Bits, lo: int, hi: int):
    """(bit, final position, syndrome rise) of each distinct single-bit
    insertion into ``received`` at a final position in [lo, hi].

    Inserting v at final position p raises the VT syndrome by p*v plus the
    number of ones at or after p, which move one place right.  Positions
    inside a run of v's give one word, so only the first position of each
    run in the range counts."""
    ones = sum(received[lo - 1:])
    for p in range(lo, hi + 1):
        before = received[p - 2] if p > lo else -1
        if before != 0:
            yield 0, p, ones
        if before != 1:
            yield 1, p, p + ones
        if p <= len(received):
            ones -= received[p - 1]


def vt_decode(received, a: int, n: int, modulus: int | None = None) -> Bits:
    """Recover the unique word of length ``n`` with VT syndrome ``a`` (mod
    ``modulus``, default n+1) that yields ``received`` under one deletion.

    Levenshtein's direct decoder (V. I. Levenshtein, "Binary codes capable
    of correcting deletions, insertions and reversals", 1966): each
    insertion's syndrome follows from the received word's syndrome and
    suffix weight, so one O(n) pass counts the candidates and only the
    returned word is built.  :func:`insertions` is its test oracle."""
    received = as_bits(received)
    as_int(a, "VT residue a")
    if len(received) != as_int(n, "word length n", 1) - 1:
        raise ParameterError(f"expected length {n - 1}, got {len(received)}")
    m = as_int(n + 1 if modulus is None else modulus, "VT modulus", 1)
    target = (a - vt_syndrome(received)) % m
    matches = [(v, p) for v, p, rise in _insertion_shifts(received, 1, n)
               if rise % m == target]
    v, p = unique(matches, "candidates consistent with VT residue {} mod {}", a, m)
    return received[:p - 1] + (v,) + received[p - 1:]


@dataclass(frozen=True)
class SvtParams:
    """Residues of a shifted VT code correcting one deletion inside a known
    window of ``window`` consecutive positions."""

    a: int
    b: int
    window: int

    def __post_init__(self):
        if not (0 <= as_int(self.a, "SVT residue a") < as_int(self.window, "SVT window")
                and as_int(self.b, "SVT parity b") in (0, 1)):
            raise ParameterError("invalid shifted-VT parameters")


def svt_member(bits, params: SvtParams) -> bool:
    try:
        return (vt_syndrome(bits) % as_type(params, SvtParams).window == params.a
                and weight(bits) % 2 == params.b)
    except TypeError:
        raise ParameterError(f"a word of numbers expected, got {bits!r}") from None


def svt_decode(received, window_start: int, params: SvtParams) -> Bits:
    """Recover the unique shifted-VT codeword whose single deletion lies in
    [window_start, window_start + window - 1].

    The direct decoder of the shifted code (Schoeny, Wachter-Zeh, Gabrys,
    Yaakobi, "Codes correcting a burst of deletions or insertions", IEEE
    T-IT 2017): the weight parity fixes the lost bit, and each position's
    syndrome follows as in :func:`vt_decode`.  :func:`insertions` with
    :func:`svt_member` is its test oracle."""
    received = as_bits(received)
    lo = max(1, as_int(window_start, "window start"))
    hi = min(len(received) + 1, window_start + as_type(params, SvtParams).window - 1)
    if lo > hi:
        raise DecodeFailure("deletion window does not meet the received word")
    bit = (params.b - sum(received)) % 2
    target = (params.a - vt_syndrome(received)) % params.window
    matches = [p for v, p, rise in _insertion_shifts(received, lo, hi)
               if v == bit and rise % params.window == target]
    p = unique(matches, "shifted-VT candidates in window [{}, {}]", lo, hi)
    return received[:p - 1] + (bit,) + received[p - 1:]
