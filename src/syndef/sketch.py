"""Desk-scale deletion sketches and the interval-bounded two-deletion codec
built from them.

The core sketch of a binary word packs its weight mod 3 together with the
first four binomial-coefficient moments, stored exactly.  Exhaustive search
shows this vector separates every pair of words sharing a common two-deletion
subsequence for all lengths up to 22 (the first colliding pair appears at
length 23), so within that envelope a word is uniquely recoverable from the
sketch plus any two deletions.  Longer words are supported on a best-effort
basis: decoders enumerate every sketch-consistent candidate and fail closed
if more than one survives.

On top of the sketch sit the two interval decoders (one for a pair of
adjacent or overlapping deletion windows, one for separated windows), the
systematic composition that appends both plus a sketch of the sketches, and
the marker variant of that composition which additionally corrects one
deletion at an unknown position.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, combinations, compress, product
from math import comb

from .binary import as_bits, vt_decode, weight
from .core import (Bits, ConstructionError, DecodeFailure, ParameterError, as_int, as_ints,
                   as_spans, is_subsequence, unique)

MOMENT_ORDERS = (1, 2, 3, 4)

# The moment vector is injective on two-deletion balls at every length up to
# and including this bound; length 23 has a colliding pair.  Tier-1 audits
# lengths 17 and 18 with verify_sketch_injectivity.
XI_VERIFIED_MAX_LENGTH = 22


def _width(vmax: int) -> int:
    return max(1, int(vmax).bit_length())


@lru_cache(maxsize=512, typed=True)
def _moment_table(length: int):
    """(column, shifts, masks) of the moment kernel for words of ``length``
    bits.  column[p - 1] packs C(p, r) for r = 0..4 in the xi field layout of
    ``length``, order 0 on top.  Order r >= 1 has the width of
    C(length + 1, r + 1), the largest sum of C(p, r) over positions
    p <= length, so a sum over any set of positions carries into no other
    field; the weight on top needs no bound."""
    widths = xi_field_widths(length)
    shifts = tuple(sum(widths[r + 1:]) for r in range(5))
    column = tuple(sum(comb(p, r) << shift for r, shift in enumerate(shifts))
                   for p in range(1, length + 1))
    return column, shifts, tuple((1 << w) - 1 for w in widths)


def _moment_sums(bits: Bits) -> tuple[int, int, int, int, int]:
    """(weight, f1, f2, f3, f4) of a checked word, f_r the sum of C(p, r) over
    its 1-based 1-positions p: one pass sums the packed table entries of
    those positions, and each field of the total is one sum."""
    column, (s0, s1, s2, s3, _), (_, m1, m2, m3, m4) = _moment_table(len(bits))
    total = sum(compress(column, bits))
    return total >> s0, total >> s1 & m1, total >> s2 & m2, total >> s3 & m3, total & m4


def moment(bits, order: int) -> int:
    """Sum of C(p, ``order``) over the 1-based positions p holding a 1, for
    order 0 (the weight) to 4."""
    if as_int(order, "moment order") not in range(5):
        raise ParameterError(f"moment order must be 0 to 4, got {order!r}")
    return _moment_sums(as_bits(bits))[order]


def moment_vector(bits) -> tuple[int, ...]:
    """(weight mod 3, f1, f2, f3, f4) with the moments stored exactly."""
    w, f1, f2, f3, f4 = _moment_sums(as_bits(bits))
    return w % 3, f1, f2, f3, f4


@lru_cache(maxsize=512, typed=True)
def xi_field_widths(length: int) -> tuple[int, ...]:
    return (2,) + tuple(_width(comb(length + 1, r + 1)) for r in MOMENT_ORDERS)


@lru_cache(maxsize=512, typed=True)
def xi_bit_length(length: int) -> int:
    return sum(xi_field_widths(length))


def xi_budget(length: int) -> int:
    """Materialised sketch-length budget for this scheme."""
    return 10 * math.ceil(math.log2(as_int(length, "word length", 0) + 1)) + 6


_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")
# Bytes 0 and 1 become the digits; any other byte a character int() rejects.
_BIT_DIGITS = b"01" + b"x" * 254


def to_bits(value: int, width: int) -> Bits:
    """The ``width`` binary digits of ``value``, top first, as 0s and 1s."""
    try:
        fits = value >= 0 and not value >> width
    except (TypeError, ValueError):  # no int, or a negative width
        raise ParameterError(
            f"value and width must be ints with width >= 0, got {value!r} and {width!r}") from None
    if not fits:
        raise ParameterError(f"value {value} does not fit in {width} bits")
    # The 1 set above the top bit keeps the leading zeros, also at width 0.
    return tuple(bin(value | 1 << width)[3:].encode().translate(_BIT_BYTES))


def from_bits(bits) -> int:
    """The integer whose binary digits, top first, are the 0/1 word ``bits``."""
    try:
        return int(b"0" + bytes(bits).translate(_BIT_DIGITS), 2)
    except (TypeError, ValueError):
        raise ParameterError(f"a word of 0s and 1s expected, got {bits!r}") from None


def _pack(values, widths) -> int:
    """``values`` packed one after another at ``widths``; each fits its width."""
    out = 0
    for v, w in zip(values, widths):
        out = (out << w) | v
    return out


def _unpack(value: int, widths) -> tuple[int, ...]:
    out = []
    for w in reversed(widths):
        out.append(value & ((1 << w) - 1))
        value >>= w
    return tuple(reversed(out))


def xi_value(bits, pack_length: int) -> int:
    """Sketch of ``bits`` packed as one integer at the field widths of
    ``pack_length`` (which must be at least ``len(bits)``)."""
    bits = as_bits(bits)
    if len(bits) > as_int(pack_length, "packing length"):
        raise ParameterError("word longer than its packing length")
    return _xi(bits, pack_length)


def _xi(bits: Bits, pack_length: int) -> int:
    """:func:`xi_value` of a checked word, a tuple or bytes of 0s and 1s: the
    moment table of pack_length has the xi field layout, so the packed
    moments are one sum whose fields do not overflow, and only the weight on
    top is reduced mod 3."""
    column, (top, *_), _ = _moment_table(pack_length)
    total = sum(compress(column, bits))
    return (total >> top) % 3 << top | total & (1 << top) - 1


def sketch_xi(bits) -> Bits:
    """Two-deletion sketch of a binary word, as a bit string."""
    bits = as_bits(bits)
    return to_bits(_xi(bits, len(bits)), xi_bit_length(len(bits)))


def _insertion_positions(intervals, count: int) -> set[tuple[int, ...]]:
    """Every set of ``count`` positions, 1-based in the longer word and
    increasing, at which lost bits can go back: none, one inside either
    (start, length) interval, or two, one inside each."""
    if count == 0:
        return {()}
    if count == 1:
        return {(p,) for s, l in intervals for p in range(s, s + l)}
    (s1, l1), (s2, l2) = intervals
    return {(min(p, q), max(p, q))
            for p in range(s1, s1 + l1) for q in range(s2, s2 + l2) if p != q}


def _with(word: Bits, positions, bits) -> Bits:
    """``word`` with ``bits`` put in at the increasing 1-based ``positions``
    of the longer word."""
    for p, v in zip(positions, bits):
        word = word[:p - 1] + (v,) + word[p - 1:]
    return word


def _without(word: Bits, positions, origin: int = 0) -> Bits:
    """``word`` with its bits at the increasing ``positions`` taken out, each
    counted 1-based from position ``origin`` + 1."""
    for p in reversed(positions):
        word = word[:p - origin - 1] + word[p - origin:]
    return word


def _checked_intervals(intervals, length: int, P: int) -> list[tuple[int, int]]:
    """The two declared deletion intervals, sorted; each must lie inside
    [1, ``length``] and span at most ``P`` positions."""
    intervals = sorted(as_spans(intervals, "an interval"))
    for s, l in intervals:
        if l < 1 or s < 1 or s + l - 1 > length:
            raise ParameterError("malformed deletion interval")
    if len(intervals) != 2 or intervals[0][1] > P or intervals[1][1] > P:
        raise ParameterError("two intervals of length at most max(P1, P2) expected")
    return intervals


def _value_options(word: Bits, k: int, weight_mod3: int):
    d = (weight_mod3 - weight(word)) % 3
    if k == 1:
        return [(d,)] if d in (0, 1) else []
    if d == 0:
        return [(0, 0)]
    if d == 2:
        return [(1, 1)]
    return [(0, 1), (1, 0)]


def _growth_terms(word: Bits, n: int):
    """(col, head, tail) of ``word`` grown to ``n`` = len + 1 or len + 2 bits,
    packed in the moment table layout of ``n`` and indexed by 1-based
    position: col[p] packs C(p, 0..4).  Bit b inserted at p gives a word
    whose packed moments are head[p] + b * col[p]; a second bit c inserted at
    q > p adds tail[q] + c * col[q] (``tail`` is None for one insertion).

    A 1 of ``word`` at s stays at s before p, moves to s + 1 up to q - 2 and
    to s + 2 from q - 1 on, and each move by one place adds a rise
    col[s + 1] - col[s].  So head is the word's own moments plus a suffix sum
    of rises, tail a suffix sum of the next rises, and the total is the packed
    moment vector of the grown word: its fields fit, nothing carries."""
    col = (0,) + _moment_table(n)[0]
    rise = [b - a for a, b in zip(col, col[1:])]

    def moved_from(shift: int, start: int) -> list[int]:
        # item t - 1: start plus rise[s + shift - 1] over the 1-positions s >= t
        terms = [r if b else 0 for b, r in zip(word, rise[shift:])]
        return list(accumulate(reversed(terms), initial=start))[::-1]

    head = [0] + moved_from(1, sum(compress(col[1:], word)))
    tail = [0, 0] + moved_from(2, 0) if n - len(word) == 2 else None
    return col, head, tail


def _completions(word: Bits, n: int, targets, positions=None) -> set[Bits]:
    """All words of length ``n`` containing ``word`` as an (n - len)-deletion
    subsequence whose moment vector equals ``targets``.

    The optional 1-based position range confines every insertion.  Each
    candidate is accepted on one comparison of its packed moments
    (:func:`_growth_terms`) with the packed targets.
    """
    m = len(word)
    k = n - m
    if k < 0 or k > 2:
        raise ParameterError("completion supports at most two insertions")
    if k == 0:
        w, *moments = _moment_sums(word)
        return {word} if (w % 3, *moments) == tuple(targets) else set()
    _, shifts, masks = _moment_table(n)
    fields = tuple(targets[1:])
    # A weight residue outside 0..2 or a field outside its width is no word's
    # moment; packed or reduced, it could alias the moments of another word.
    if len(fields) != 4 or targets[0] not in (0, 1, 2) \
            or not all(0 <= f <= mask for f, mask in zip(fields, masks[1:])):
        return set()
    top = shifts[0]
    want = sum(f << shift for f, shift in zip(fields, shifts[1:])) + (weight(word) << top)
    col, head, tail = _growth_terms(word, n)
    if positions is None:
        positions = range(1, n + 1)
    out: set[Bits] = set()

    if k == 1:
        for (b,) in _value_options(word, 1, targets[0]):
            key = want + (b << top)
            out.update(word[:p - 1] + (b,) + word[p - 1:] for p in positions
                       if 1 <= p <= m + 1 and head[p] + b * col[p] == key)
        return out

    # The pair's packed moments split as A(p) + B(q): key the q's by B(q) and
    # look up key - A(p) for each p.
    p_list = [p for p in positions if 1 <= p <= m + 1]
    q_list = [q for q in positions if 2 <= q <= n]
    for b1, b2 in _value_options(word, 2, targets[0]):
        by_term: dict[int, list[int]] = {}
        for q in q_list:
            by_term.setdefault(tail[q] + b2 * col[q], []).append(q)
        key = want + (b1 + b2 << top)
        for p in p_list:
            for q in by_term.get(key - head[p] - b1 * col[p], ()):
                if q > p:
                    out.add(_with(word, (p, q), (b1, b2)))
    return out


def xi_decode(received, sketch, n: int) -> Bits:
    """Recover a word of length ``n`` from its sketch and a copy missing one
    or two bits."""
    received = as_bits(received)
    as_int(n, "word length n", 1)
    if len(received) not in (n - 1, n - 2, n):
        raise ParameterError("received length incompatible with one or two deletions")
    try:
        sketch = tuple(sketch)
        binary = set(sketch) <= {0, 1}
    except TypeError:  # no sequence, or an unhashable entry
        binary = False
    if not binary or len(sketch) != xi_bit_length(n):
        raise ParameterError(f"sketch must be {xi_bit_length(n)} bits, each 0 or 1")
    targets = _unpack(from_bits(sketch), xi_field_widths(n))
    return unique(_completions(received, n, targets), "words consistent with the sketch")


def sketch_values(length: int) -> list[int]:
    """:func:`xi_value` of every word of ``length`` bits at its own length, in
    lexicographic order, built for the whole word space at once.

    The field widths of ``length`` hold every moment sum without a carry, so
    the list doubles once per position s: the half whose bit s is 1 adds
    C(s, r) into each field r.  The weight mod 3 goes on top at the end.
    """
    column, (top, *_), _ = _moment_table(as_int(length, "word length", 1))
    orders = (1 << top) - 1  # the fields of orders 1-4, without the weight
    values = [0]
    # Position s ends up as bit length - s of a word's index, first bit on top.
    for s in range(length, 0, -1):
        step = column[s - 1] & orders
        values += [v + step for v in values]
    return [v | (i.bit_count() % 3) << top for i, v in enumerate(values)]


def moment_collisions(length: int) -> list[list[Bits]]:
    """Every group of two or more words of ``length`` bits that share a moment
    vector; the words of a group, and the groups by their first word, in
    lexicographic order.  Only the :func:`sketch_values` that two or more
    words share become groups."""
    values = sketch_values(length)
    shared = {v for v, count in Counter(values).items() if count > 1}
    groups: dict[int, list[Bits]] = {}
    for i, v in enumerate(values):
        if v in shared:
            groups.setdefault(v, []).append(to_bits(i, length))
    return list(groups.values())


def verify_sketch_injectivity(length: int) -> bool:
    """Exhaustively confirm that no two distinct words of this length share a
    sketch and a common two-deletion subsequence.

    Only the words of :func:`moment_collisions` need the two-deletion check;
    at lengths up to 15 every word has a sketch of its own."""
    return not any(_balls_meet(u, v) for words in moment_collisions(length)
                   for u, v in combinations(words, 2))


def _balls_meet(u: Bits, v: Bits) -> bool:
    """Do two words of one length L share a two-deletion subsequence, that
    is, a common subsequence of length L - 2?

    Such a subsequence drops at most two positions of each word, so the
    t-th positions it uses in u and in v differ by at most 2: the longest
    common subsequence DP needs only the band |i - j| <= 2.  A cell outside
    the band stays 0, a lower bound, so no cell overstates."""
    n = len(u)
    row = [0] * (n + 1)
    for i in range(1, n + 1):
        prev, row = row, [0] * (n + 1)
        for j in range(max(1, i - 2), min(n, i + 2) + 1):
            row[j] = prev[j - 1] + 1 if u[i - 1] == v[j - 1] else max(prev[j], row[j - 1])
    return row[n] >= n - 2


# ---------------------------------------------------------------------------
# Interval sketches E1 (adjacent/overlapping windows) and E2 (separated).


def e1_windows(n: int, rho: int) -> list[tuple[int, int]]:
    """Overlapping windows of width 2*rho tiling [1, n] with overlap rho; the
    last window is clipped at n.  Degenerates to one full window for n <= 2*rho."""
    return _e1_windows(as_int(n, "word length n", 1), as_int(rho, "window overlap rho", 1))


def _e1_windows(n: int, rho: int) -> list[tuple[int, int]]:
    """:func:`e1_windows` of checked n and rho."""
    count = -(-n // rho) - 1
    if count < 1:
        return [(1, n)]
    return [((i - 1) * rho + 1, (i + 1) * rho if i < count else n)
            for i in range(1, count + 1)]


def _checked_inputs(bits, P1, P2, sketch=(), arity: int = 0) -> tuple[Bits, tuple]:
    """``bits`` through ``as_bits`` and ``sketch`` as a tuple of exactly
    ``arity`` ints, for interval bounds P1 and P2 that are positive ints."""
    as_int(P1, "P1", 1)
    as_int(P2, "P2", 1)
    sketch = as_ints(sketch, "sketch value")
    if len(sketch) != arity:
        raise ParameterError(f"a sketch of {arity} values expected, got {len(sketch)}")
    return as_bits(bits), sketch


def _word_to_sketch(bits, P1, P2) -> Bits:
    """A non-empty word to sketch under :func:`_checked_inputs`."""
    bits = _checked_inputs(bits, P1, P2)[0]
    as_int(len(bits), "word length n", 1)
    return bits


def e1_sketch(bits, P1: int, P2: int) -> tuple[int, int]:
    """Sums of packed window sketches over odd- and even-indexed windows."""
    return _e1_sums(_word_to_sketch(bits, P1, P2), P1 + P2)


def _e1_sums(bits: Bits, rho: int) -> tuple[int, int]:
    pack_len = 2 * rho
    totals = [0, 0]
    for j, (ws, we) in enumerate(_e1_windows(len(bits), rho)):
        totals[j % 2] += _xi(bits[ws - 1:we], pack_len)
    mask = (1 << xi_bit_length(pack_len)) - 1
    return totals[0] & mask, totals[1] & mask


def e1_decode(received, intervals, sketch: tuple[int, int], n: int, P1: int, P2: int) -> Bits:
    """Recover a word from two deletions confined to adjacent or overlapping
    intervals whose union spans at most P1 + P2 positions."""
    received, sketch = _checked_inputs(received, P1, P2, sketch, 2)
    if len(received) != as_int(n, "word length n", 1) - 2:
        raise ParameterError(f"expected length {n - 2}, got {len(received)}")
    return _e1_decode(received, _checked_intervals(intervals, n, max(P1, P2)), sketch, n, P1 + P2)


def _e1_decode(received: Bits, intervals, sketch, n: int, rho: int) -> Bits:
    """:func:`e1_decode` of checked inputs, with sorted intervals."""
    pack_len = 2 * rho
    kappa = xi_bit_length(pack_len)
    windows = _e1_windows(n, rho)
    (s1, l1), (s2, l2) = intervals
    lo, hi = s1, max(s1 + l1 - 1, s2 + l2 - 1)
    if hi - lo + 1 > rho:
        raise DecodeFailure("interval union wider than one sketch window")
    # [lo, hi] in [1, n] spans at most rho: window ceil(lo / rho) or the last holds it.
    j = next(i for i, (ws, we) in enumerate(windows, start=1) if ws <= lo and hi <= we)
    ws, we = windows[j - 1]

    total_other = 0
    for jj, (os, oe) in enumerate(windows, start=1):
        if jj == j or (jj - 1) % 2 != (j - 1) % 2:
            continue
        content = received[os - 1:oe] if oe < ws else received[os - 3:oe - 2]
        total_other += _xi(content, pack_len)
    packed = (sketch[(j - 1) % 2] - total_other) % (1 << kappa)
    targets = _unpack(packed, xi_field_widths(pack_len))

    body = received[ws - 1:we - 2]
    local = range(lo - ws + 1, hi - ws + 2)
    found = _completions(body, we - ws + 1, targets, local)
    content = unique(found, "window contents consistent with the sketch")
    return received[:ws - 1] + content + received[we - 2:]


def e2_sketch(bits, P1: int, P2: int) -> tuple[int, int, int]:
    """(weight mod 3, f1 mod n+1, f2 mod P*n) with P = max(P1, P2)."""
    return _e2_residues(_word_to_sketch(bits, P1, P2), max(P1, P2))


def _e2_residues(bits: Bits, P: int) -> tuple[int, int, int]:
    n = len(bits)
    w, f1, f2, _, _ = _moment_sums(bits)
    return w % 3, f1 % (n + 1), f2 % (P * n)


def e2_decode(received, intervals, sketch: tuple[int, int, int], n: int, P1: int, P2: int) -> Bits:
    """Recover a word from two deletions confined to intervals separated by at
    least one position."""
    received, sketch = _checked_inputs(received, P1, P2, sketch, 3)
    if len(received) != as_int(n, "word length n", 1) - 2:
        raise ParameterError(f"expected length {n - 2}, got {len(received)}")
    P = max(P1, P2)
    return _e2_decode(received, _checked_intervals(intervals, n, P), sketch, n, P)


def _e2_decode(received: Bits, intervals, sketch, n: int, P: int) -> Bits:
    """:func:`e2_decode` of checked inputs, with sorted intervals."""
    t0, t1, t2 = sketch
    (s1, l1), (s2, l2) = intervals
    e1, e2 = s1 + l1 - 1, s2 + l2 - 1
    if s2 <= e1 + 1:
        raise DecodeFailure("intervals are not separated")
    col, head, tail = _growth_terms(received, n)
    _, (_, at1, at2, _, _), (_, mask1, mask2, _, _) = _moment_table(n)
    out: set[Bits] = set()
    for b1, b2 in _value_options(received, 2, t0):
        stage = []
        for p in range(s1, e1 + 1):
            for q in range(s2, e2 + 1):
                total = head[p] + tail[q] + b1 * col[p] + b2 * col[q]
                if (total >> at1 & mask1) % (n + 1) == t1:
                    stage.append((total >> at2 & mask2, p, q))
        if stage:
            spread = max(v for v, _, _ in stage) - min(v for v, _, _ in stage)
            if spread >= P * n:
                raise ConstructionError(
                    "second-moment spread exceeds its modulus across feasible placements")
        for v2, p, q in stage:
            if v2 % (P * n) == t2:
                out.add(_with(received, (p, q), (b1, b2)))
    return unique(out, "placements consistent with the interval sketch")


# ---------------------------------------------------------------------------
# Systematic composition: word, E1, E2, sketch of (E1, E2).


@dataclass(frozen=True)
class EParams:
    """Materialised layout of the composed codeword for given (n, P1, P2).

    The layout fields are computed once, on construction, and the codec
    shares one instance per parameter set."""

    n: int
    P1: int
    P2: int
    kappa: int = field(init=False, repr=False, compare=False)
    e2_widths: tuple[int, int, int] = field(init=False, repr=False, compare=False)
    tail_widths: tuple[int, ...] = field(init=False, repr=False, compare=False)
    xi_bits: int = field(init=False, repr=False, compare=False)
    total: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        as_int(self.n, "payload length", 3)
        as_int(self.P1, "P1", 2)
        as_int(self.P2, "P2", 2)
        kappa = xi_bit_length(self.window_pack_len)
        e2_widths = (2, _width(self.n), _width(self.P * self.n - 1))
        # E1's two sums followed by E2's three residues.
        tail_widths = (kappa, kappa) + e2_widths
        xi_bits = xi_bit_length(sum(tail_widths))
        for name, value in (("kappa", kappa), ("e2_widths", e2_widths),
                            ("tail_widths", tail_widths), ("xi_bits", xi_bits),
                            ("total", self.n + sum(tail_widths) + xi_bits)):
            object.__setattr__(self, name, value)

    @property
    def rho(self) -> int:
        return self.P1 + self.P2

    @property
    def P(self) -> int:
        return max(self.P1, self.P2)

    @property
    def window_pack_len(self) -> int:
        return 2 * self.rho

    @property
    def e1_bits(self) -> int:
        return 2 * self.kappa

    @property
    def e2_bits(self) -> int:
        return sum(self.e2_widths)

    @property
    def redundancy(self) -> int:
        return self.total - self.n


@lru_cache(maxsize=256, typed=True)
def _eparams(n: int, P1: int, P2: int) -> EParams:
    return EParams(n=n, P1=P1, P2=P2)


def _layout(n, P1, P2) -> EParams:
    """The shared :class:`EParams` of (n, P1, P2), each read by :func:`as_int`
    before the cache, which hashes them."""
    return _eparams(as_int(n, "payload length"), as_int(P1, "P1"), as_int(P2, "P2"))


@dataclass(frozen=True)
class SketchBundle:
    """Serializable sketch material of one word: interval sketches plus the
    sketch of their concatenation, with self-describing parameters."""

    e1: tuple[int, int]
    e2: tuple[int, int, int]
    xi: Bits
    params: EParams

    def to_json(self) -> dict:
        return {"e1": list(self.e1), "e2": list(self.e2),
                "xi": "".join(str(b) for b in self.xi), "params": _params_json(self.params)}

    @staticmethod
    def from_json(data) -> "SketchBundle":
        """The bundle ``to_json`` wrote; raises ParameterError unless the
        parameter block, both interval sketches and ``xi`` are exactly what
        that bundle would hold."""
        try:
            p, e1, e2, xi = data["params"], tuple(data["e1"]), tuple(data["e2"]), data["xi"]
            n, P1, P2 = p["n"], p["P1"], p["P2"]
        except (KeyError, TypeError):
            raise ParameterError("malformed sketch bundle") from None
        as_ints((n, P1, P2) + e1 + e2, "sketch bundle field")
        params = _eparams(n, P1, P2)
        if p != _params_json(params):
            raise ParameterError("sketch bundle parameters disagree with n, P1 and P2")
        if len(e1) != 2 or not all(0 <= v < 1 << params.kappa for v in e1):
            raise ParameterError("e1 must be two sums of e1_modulus_bits bits")
        moduli = (3, p["f1_modulus"], p["f2_modulus"])
        if len(e2) != 3 or not all(0 <= v < m for v, m in zip(e2, moduli)):
            raise ParameterError("e2 must be three residues inside their moduli")
        if xi != "".join(map(str, sketch_xi(_tail_bits(e1, e2, params)))):
            raise ParameterError("xi is not the sketch of the bundle's own tail")
        return SketchBundle(e1=e1, e2=e2, xi=tuple(map(int, xi)), params=params)


def _params_json(p: EParams) -> dict:
    return {"n": p.n, "P1": p.P1, "P2": p.P2, "rho": p.rho, "P": p.P,
            "e1_modulus_bits": p.kappa, "f1_modulus": p.n + 1, "f2_modulus": p.P * p.n}


def _tail_bits(e1, e2, params: EParams) -> Bits:
    """Both interval sketches packed at their fixed widths."""
    widths = params.tail_widths
    return to_bits(_pack(e1 + e2, widths), sum(widths))


def _redundancy(bits: Bits, params: EParams) -> Bits:
    """E1 and E2 of a checked word packed at their widths (the tail), then the
    tail's sketch: what every codeword appends to its payload."""
    tail = _tail_bits(_e1_sums(bits, params.rho), _e2_residues(bits, params.P), params)
    return tail + to_bits(_xi(tail, len(tail)), params.xi_bits)


# Only sketch_bundle reads this cache.  It stays, at this size, only because
# perfbench/workloads.py sizes the sketch payload pool at twice its maxsize and
# perfbench/run.py reports its hit ratio, both through cache_info().
@lru_cache(maxsize=8192, typed=True)
def _sketch_bundle_cached(bits: Bits, P1: int, P2: int) -> SketchBundle:
    """The bundle of a word ``as_bits`` has already checked."""
    params = _eparams(len(bits), P1, P2)
    redundancy = _redundancy(bits, params)
    e1, e2 = _parse_tail(redundancy, params)
    return SketchBundle(e1, e2, redundancy[sum(params.tail_widths):], params)


def sketch_bundle(bits, P1: int, P2: int) -> SketchBundle:
    return _sketch_bundle_cached(as_bits(bits), as_int(P1, "P1"), as_int(P2, "P2"))


def encode_E(bits, P1: int, P2: int) -> Bits:
    """Systematic composition: the word, both interval sketches, then a
    deletion sketch protecting those sketches."""
    bits = as_bits(bits)
    return bits + _redundancy(bits, _layout(len(bits), P1, P2))


def _parse_tail(tail: Bits, params: EParams):
    """(E1, E2) read from the start of a composition's tail."""
    widths = params.tail_widths
    values = _unpack(from_bits(tail[:sum(widths)]), widths)
    return values[:2], values[2:]


def _compositions(received: Bits, intervals, n: int, params: EParams, gap: Bits = ()) -> set[Bits]:
    """The payloads z of every codeword c = z + gap + _redundancy(z) that
    leaves ``received`` by losing its extra bits inside the declared
    intervals (see :func:`_insertion_positions`): compositions, or marker
    codewords with ``gap`` (0, 1).

    No candidate word is built.  A codeword lost the bits at some positions;
    the bits it lost in the payload z are tried, and those it lost past z
    are whatever z's redundancy holds there.  So z + gap + _redundancy(z) is
    such a codeword exactly when taking those later positions out of
    gap + _redundancy(z) leaves the rest of ``received``.  Each distinct
    payload is built once, with its E2 field from one moment pass; that field
    is checked the same way against the slice of ``received`` it would land
    on, and only a payload that passes gets the rest of its redundancy
    built and compared."""
    length = params.total + len(gap)
    at = n + len(gap) + params.e1_bits
    end = at + params.e2_bits
    payloads, rest_of, found = {}, {}, set()
    for positions in _insertion_positions(intervals, length - len(received)):
        j = bisect_right(positions, n)
        shift = bisect_right(positions, at)
        inside = positions[shift:bisect_right(positions, end)]
        field = received[at - shift:end - shift - len(inside)]
        for head in product((0, 1), repeat=j):
            early = positions[:j], head
            if early not in payloads:
                z = _with(received[:n - j], *early)
                e2 = _pack(_e2_residues(z, params.P), params.e2_widths)
                payloads[early] = z, to_bits(e2, params.e2_bits)
            z, want = payloads[early]
            if _without(want, inside, at) != field:
                continue
            if z not in rest_of:
                rest_of[z] = gap + _redundancy(z, params)
            if _without(rest_of[z], positions[j:], n) == received[n - j:]:
                found.add(z)
    return found


def decode_E(received, intervals, n: int, P1: int, P2: int) -> Bits:
    """Recover the systematic prefix from up to two deletions, each confined
    to its declared interval."""
    received = as_bits(received)
    params = _layout(n, P1, P2)
    L = params.total
    intervals = _checked_intervals(intervals, L, params.P)
    if not L - 2 <= len(received) <= L:
        raise ParameterError(f"received length {len(received)} incompatible with <= 2 deletions")
    return _decode_E(received, intervals, params)


def _decode_E(received: Bits, intervals, params: EParams) -> Bits:
    """:func:`decode_E` of a checked word of length L - 2 to L, with sorted
    intervals."""
    n, L = params.n, params.total
    if len(received) == L:
        if not _compositions(received, intervals, n, params):
            raise DecodeFailure("full-length word is not a valid composition")
        return received[:n]
    if len(received) == L - 1:
        found = _compositions(received, intervals, n, params)
        return unique(found, "single-deletion completions are consistent")

    (s1, l1), (s2, l2) = intervals
    e1_end, e2_end = s1 + l1 - 1, s2 + l2 - 1
    if s1 > n:
        return received[:n]
    if max(e1_end, e2_end) <= n:
        e1_sk, e2_sk = _parse_tail(received[n - 2:], params)
        body = received[:n - 2]
        if s2 <= e1_end + 1:
            return _e1_decode(body, intervals, e1_sk, n, params.rho)
        return _e2_decode(body, intervals, e2_sk, n, params.P)

    # An interval reaches past the systematic prefix: reconstruct by direct
    # hypothesis over the two deletion positions and verify the composition.
    found = _compositions(received, intervals, n, params)
    return unique(found, "completions are consistent with the composition")


# ---------------------------------------------------------------------------
# Marker variant: corrects two interval-confined deletions and also a single
# deletion at an unknown position.


def prefix_codeword_length(k: int, P1: int, P2: int) -> int:
    return _layout(k, P1, P2).total + 2


def prefix_encode(payload, P1: int, P2: int) -> Bits:
    """Insert the 0,1 marker after the systematic payload of the composition."""
    payload = as_bits(payload)
    return payload + (0, 1) + _redundancy(payload, _layout(len(payload), P1, P2))


def prefix_member(word, k: int, P1: int, P2: int) -> bool:
    word = as_bits(word)
    return (len(word) == prefix_codeword_length(k, P1, P2)
            and word == prefix_encode(word[:k], P1, P2))


def prefix_decode_two(received, intervals, k: int, P1: int, P2: int) -> Bits:
    """Recover the payload from two deletions confined to declared intervals."""
    received = as_bits(received)
    params = _layout(k, P1, P2)
    L = params.total + 2
    if len(received) != L - 2:
        raise ParameterError(f"expected length {L - 2}, got {len(received)}")
    intervals = _checked_intervals(intervals, L, params.P)
    if not any(s <= k + 2 and s + l > k + 1 for s, l in intervals):
        # Neither interval touches the marker at k + 1, k + 2.
        before = sum(1 for s, l in intervals if s + l - 1 < k + 1)
        at = k - before  # 0-based index of the marker inside received
        if received[at:at + 2] != (0, 1):
            raise DecodeFailure("marker bits not found where the intervals imply")
        stripped = received[:at] + received[at + 2:]
        # An interval before the marker stays and one after it moves back by
        # two: the pair stays sorted and inside the composition.
        mapped = [(s if s + l - 1 <= k else s - 2, l) for s, l in intervals]
        return _decode_E(stripped, mapped, params)

    found = _compositions(received, intervals, k, params, (0, 1))
    return unique(found, "payloads consistent with the marker code")


def prefix_decode_one(received, k: int, P1: int, P2: int) -> Bits:
    """Recover the payload from at most one deletion at an unknown position.

    The bit observed at position k+1 decides the branch: a 0 means the payload
    survived intact, a 1 means the deletion hit the payload (or the marker's
    own 0) and the position-weighted residue stored in the tail pins it down.
    """
    received = as_bits(received)
    params = _layout(k, P1, P2)
    L = params.total + 2
    if len(received) == L:
        if not _compositions(received, (), k, params, (0, 1)):
            raise DecodeFailure("full-length word is not a marker codeword")
        return received[:k]
    if len(received) != L - 1:
        raise ParameterError(f"expected length {L} or {L - 1}, got {len(received)}")

    # Under a 1 the payload also survived if the marker's own 0 was deleted.
    candidates = {received[:k]}
    if received[k] == 1:
        _, (_, f1_residue, _) = _parse_tail(received[k + 1:], params)
        # VT codes are perfect: each residue mod k + 1 has one insertion (Levenshtein).
        candidates.add(vt_decode(received[:k - 1], f1_residue, k, modulus=k + 1))
    verified = {z for z in candidates
                if is_subsequence(received, z + (0, 1) + _redundancy(z, params))}
    return unique(verified, "payloads consistent with one deletion")
