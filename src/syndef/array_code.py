"""Interleaved array code correcting two bursts of erasures, and through them
one or two deletions confined to known intervals.

A binary word of length n is laid out column-major into a P x (n/P) array
(zero-padded when P does not divide n; pads sit at fixed tail positions and
are never part of an error window).  Per-row sums mod 3 plus a single
3-weighted VT sum resolve one or two erasures per row.  One solver,
:func:`_solve_rows`, serves every decode: a row's sum fixes its one erased
bit, or its two unless they hold one 1 and one 0, and then the weighted VT
residue picks the order of these ambiguous rows.

Every decode works on the padded word as a list with ``None`` at erasures.
0-based position p sits in row p mod P, so the row sums of the known bits are
counts of 1 over stride-P slices, and their weighted VT sum adds up a cached
table of position weights 3^row * column over the positions holding a 1.  The
solve then touches only the P or 2P erased positions.

The ambiguous rows are ordered by digits, not by trying their 2^k orders.
Row i's erased positions lie in the two disjoint windows, e_i >= 1 columns
apart, so putting its 1 second adds 3^i * e_i.  Those additions total at most
(cols - 1)(3^P - 1)/2 < 3^P * padded, the modulus, so the residue is their
exact sum, whose base-3 digits from row 0 up fix each row.  A row keeps both
orders only when 3 divides e_i: the match count a failure reports is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from itertools import compress

from .binary import as_bits
from .core import (Bits, DecodeFailure, ParameterError, as_int, as_ints, as_spans, as_type,
                   is_subsequence, unique)

Interval = tuple[int, int]  # (start, length), 1-based start

_KNOWN = frozenset((0, 1, None))


@dataclass(frozen=True)
class ArrayCodeParams:
    """Syndromes of the array form: per-row sums mod 3 and the 3-weighted VT
    residue mod 3^rows * padded_length."""

    rows: int
    length: int
    row_sums: tuple[int, ...]
    weighted_vt: int

    def __post_init__(self):
        as_int(self.rows, "rows", 1)
        as_int(self.length, "length", 1)
        try:
            sums = as_ints(self.row_sums, "row sum", 0)
        except ParameterError:  # no collection, or a value that is no int or below 0
            sums = ()
        if len(sums) != self.rows or max(sums) > 2:
            raise ParameterError(f"row sums must be {self.rows} values in {{0, 1, 2}}")
        if not 0 <= as_int(self.weighted_vt, "weighted_vt") < self.modulus:
            raise ParameterError(f"weighted VT residue must lie in [0, {self.modulus})")

    # Cached in the instance dict, which equality, hashing and repr ignore.
    @cached_property
    def padded(self) -> int:
        return self.cols * self.rows

    @cached_property
    def cols(self) -> int:
        return -(-self.length // self.rows)

    @cached_property
    def modulus(self) -> int:
        return 3 ** self.rows * self.padded


@cache
def _weights(rows: int, cols: int) -> tuple[int, ...]:
    """Weight 3^row * column of each 0-based position of the padded word."""
    return tuple(3 ** r * c for c in range(1, cols + 1) for r in range(rows))


def _weighted(word, rows: int) -> int:
    """Weighted VT sum of the 1s of a padded word, unreduced."""
    return sum(compress(_weights(rows, len(word) // rows), word))


def array_syndromes(word, rows: int) -> ArrayCodeParams:
    """Compute the array-code syndromes of a binary word."""
    as_int(rows, "row count", 1)
    word = as_bits(word)
    if not word:
        raise ParameterError("an empty word has no array form")
    padded = word + (0,) * (-len(word) % rows)
    return ArrayCodeParams(
        rows=rows, length=len(word),
        row_sums=tuple(padded[i::rows].count(1) % 3 for i in range(rows)),
        weighted_vt=_weighted(padded, rows) % (3 ** rows * len(padded)))


def is_member(word, params: ArrayCodeParams) -> bool:
    return array_syndromes(word, as_type(params, ArrayCodeParams).rows) == params


def _normalize_windows(bursts, rows: int, padded: int) -> list[Interval]:
    """Widen up to two erasure bursts into exactly two length-``rows`` windows
    (merging into one aligned 2P block when they collide) so that every row of
    the array sees exactly two erasures."""
    P = rows
    bursts = sorted(((s, l) for s, l in bursts if l > 0))
    if len(bursts) != 2:
        raise ParameterError("exactly two nonempty erasure bursts expected")
    (s1, l1), (s2, l2) = bursts
    e1, e2 = s1 + l1 - 1, s2 + l2 - 1
    if l1 > P or l2 > P:
        raise ParameterError("burst longer than the row count")
    if s1 < 1 or max(e1, e2) > padded:
        raise ParameterError("burst outside the padded word")
    # Anchor each widened window at its burst's right end.
    w1 = (max(1, e1 - P + 1), P)
    w2 = (max(1, e2 - P + 1), P)
    if w1[0] + P <= w2[0]:
        return [w1, w2]
    # Collision: cover both bursts with one aligned block of 2P positions.  Both
    # end by s1 + 2P - 2, and the block starts at s1 or ends at padded.
    if 2 * P > padded:
        raise ParameterError("word too short to normalise overlapping bursts")
    t = min(s1, padded - 2 * P + 1)
    return [(t, P), (t + P, P)]


def _solve_rows(word: list, windows, params: ArrayCodeParams) -> list:
    """Fill a length-``params.length`` list of bits with erasures (``None``)
    inside ``windows``: one length-P window, where each row has one erased
    position, or two disjoint ones from :func:`_normalize_windows`, the first
    before the second, where each row has two.  Pad the word with zeros,
    clear the windows to 0 (a row short of no 1 is then solved), fill each
    row short of as many 1s as it has erasures and order the rest by digits.
    Returns the padded word."""
    P = params.rows
    word = word + [0] * (params.padded - params.length)
    for s, l in windows:
        word[s - 1:s - 1 + l] = [0] * l
    weights = _weights(P, params.cols)
    base = _weighted(word, P)  # weighted VT of all determined bits
    ambiguous = []  # (p_k, p_l, row) with one 1 and one 0 in unknown order
    single = len(windows) == 1
    a1, a2 = windows[0][0] - 1, windows[-1][0] - 1
    for i, row_sum in enumerate(params.row_sums):
        d = (row_sum - word[i::P].count(1)) % 3
        if d:
            # Each window holds one position of every row.
            p_k, p_l = a1 + (i - a1) % P, a2 + (i - a2) % P
            if single:
                if d == 2:
                    raise DecodeFailure("row sum inconsistent with a single missing bit")
                word[p_k] = 1
                base += weights[p_k]
            elif d == 2:
                word[p_k] = word[p_l] = 1
                base += weights[p_k] + weights[p_l]
            else:
                ambiguous.append((p_k, p_l, i))
                base += weights[p_k]

    # (what the second choices still have to add, choices so far)
    fills = [((params.weighted_vt - base) % params.modulus, ())]
    for p_k, p_l, i in ambiguous:
        step, digit = weights[p_l] - weights[p_k], 3 ** (i + 1)
        kept = []
        for rest, choice in fills:
            if rest % digit == 0:
                kept.append((rest, choice + (0,)))
            if (rest - step) % digit == 0:
                kept.append((rest - step, choice + (1,)))
        fills = kept
    matches = [choice for rest, choice in fills if rest == 0]
    choice = unique(matches, "row assignments consistent with the weighted VT residue")
    for c, (p_k, p_l, _) in zip(choice, ambiguous):
        word[p_k], word[p_l] = (1, 0) if c == 0 else (0, 1)
    return word


def array_erasure_decode(received, burst_positions, params: ArrayCodeParams) -> Bits:
    """Recover a codeword from two bursts of erasures.

    ``received`` has length ``params.length``, bits at known positions and
    ``None`` at erased ones; every ``None`` must lie inside one of the
    declared bursts.  Widening them into row windows also erases the known
    bits and pads there, so a word is returned only if it keeps them.
    """
    try:
        received = list(received)
        known = set(received) <= _KNOWN
    except TypeError:  # no sequence, or an unhashable symbol
        raise ParameterError("known symbols must be bits") from None
    if len(received) != as_type(params, ArrayCodeParams).length:
        raise ParameterError("received word has the wrong length")
    if not known:
        raise ParameterError("known symbols must be bits")
    burst_positions = as_spans(burst_positions, "a burst")
    declared = set()
    for s, l in burst_positions:
        declared.update(range(s, s + l))
    nones = {i + 1 for i, b in enumerate(received) if b is None}
    if not nones <= declared:
        raise ParameterError("erasure outside the declared bursts")
    if not nones:
        return tuple(int(b) for b in received)
    windows = _normalize_windows(burst_positions, params.rows, params.padded)
    filled = _solve_rows(received, windows, params)
    # The windows also erase known bits and pads; each must come back.
    n = params.length
    for s, l in windows:
        for i in range(s - 1, s - 1 + l):
            if (received[i] if i < n else 0) not in (None, filled[i]):
                raise DecodeFailure("recovered word cannot reproduce the received bits")
    return tuple(filled[:n])


@lru_cache(maxsize=64, typed=True)
def _column_word(params: ArrayCodeParams) -> Bits:
    """The padded word of a one-column array: its one window erases every
    position, so the syndromes alone pin it down.  A raise is not cached, so
    failing params raise on every call; each entry keeps its params alive,
    and a tuple decode reuses only its own few, so the cache stays small."""
    return tuple(_solve_rows([0] * params.length, [(1, params.rows)], params))


def _deletions_to_erasures(received: Bits, intervals, params: ArrayCodeParams):
    """Re-express ``k`` deletions at known intervals as ``k`` bursts of
    erasures, one deletion each: bits outside the bursts return to their true
    positions, the bursts themselves are treated as unknown.  Overlapping
    intervals make one block, split into two halves."""
    n = params.length
    intervals = sorted(intervals)
    for s, l in intervals:
        if l < 1 or l > params.rows:
            raise ParameterError("interval length must be in [1, rows]")
        if s < 1 or s + l - 1 > n:
            raise ParameterError("deletion interval outside the word")
    if len(intervals) == 2 and intervals[1][0] <= intervals[0][0] + intervals[0][1] - 1:
        (s1, l1), (s2, l2) = intervals
        hi = max(s1 + l1 - 1, s2 + l2 - 1)
        if hi == s1:
            raise ParameterError(
                f"two deletions cannot share the one position of intervals {intervals}")
        half = (hi - s1 + 2) // 2
        intervals = [(s1, half), (s1 + half, hi - s1 + 1 - half)]

    word: list[int | None] = [None] * n
    cursor = 0
    pos = 1
    for s, l in intervals:
        take = s - pos
        word[pos - 1:pos - 1 + take] = received[cursor:cursor + take]
        cursor += take + l - 1
        pos = s + l
    word[pos - 1:] = received[cursor:]
    return word, intervals


def array_bounded_decode(received, intervals, params: ArrayCodeParams) -> Bits:
    """Recover a codeword from two deletions, each confined to a declared
    interval of length at most ``params.rows``."""
    return _bounded_decode(received, intervals, params, 2)


def array_single_bounded_decode(received, interval: Interval, params: ArrayCodeParams) -> Bits:
    """Recover a codeword from one deletion confined to a declared interval.

    Each array row loses at most one bit, so the row sums determine every
    missing bit outright; the weighted VT residue is checked as a guard.
    """
    return _bounded_decode(received, [interval], params, 1)


def _bounded_decode(received, intervals, params: ArrayCodeParams, k: int) -> Bits:
    """Recover a codeword from ``k`` (one or two) deletions confined to the
    declared intervals.  Widening them into row windows also erases known
    bits, pads included, so a word is returned only if its pads are 0 and it
    loses ``k`` bits inside the intervals to give ``received``."""
    received = as_bits(received)
    if len(received) != as_type(params, ArrayCodeParams).length - k:
        raise ParameterError(f"expected length {params.length - k}, got {len(received)}")
    intervals = as_spans(intervals, "an interval")
    if len(intervals) != k:
        raise ParameterError(f"expected {k} deletion intervals, got {len(intervals)}")
    word, blocks = _deletions_to_erasures(received, intervals, params)
    P = params.rows
    if params.padded == P:
        filled = _column_word(params)
    elif k == 1:
        # One length-P window around the block holds one position of every row.
        (s, l), = blocks
        filled = _solve_rows(word, [(max(1, s + l - P), P)], params)
    else:
        filled = _solve_rows(word, _normalize_windows(blocks, P, params.padded), params)
    decoded = tuple(filled[:params.length])
    # One deletion per block, or both deletions inside one block.
    if any(filled[params.length:]) or not (
            _fits(decoded, received, blocks, 1)
            or k == 2 and any(_fits(decoded, received, [b], 2) for b in blocks if b[1] > 1)):
        raise DecodeFailure("recovered word cannot reproduce the received bits")
    return decoded


def _fits(word: Bits, received: Bits, blocks, lost: int) -> bool:
    """Does ``word`` give ``received`` when each of ``blocks`` loses ``lost``
    of its bits and every other bit stays?"""
    pos = cursor = 0
    for s, l in blocks:
        end = cursor + s - 1 - pos
        if word[pos:s - 1] != received[cursor:end] or not is_subsequence(
                received[end:end + l - lost], word[s - 1:s - 1 + l]):
            return False
        cursor, pos = end + l - lost, s - 1 + l
    return word[pos:] == received[cursor:]
