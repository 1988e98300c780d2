"""Interleaved array code correcting two bursts of erasures, and through them
two deletions confined to known intervals.

A binary word of length n is laid out column-major into a P x (n/P) array
(zero-padded when P does not divide n; pads sit at fixed tail positions and
are never part of an error window).  Per-row sums mod 3 plus a single
3-weighted VT sum resolve two erasures per row, including the ordering of the
ambiguous (1, 0) rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .binary import _is_subsequence, as_bits, vt_syndrome
from .core import Bits, DecodeFailure, ParameterError

Interval = tuple[int, int]  # (start, length), 1-based start


@dataclass(frozen=True)
class ArrayCodeParams:
    """Syndromes of the array form: per-row sums mod 3 and the 3-weighted VT
    residue mod 3^rows * padded_length."""

    rows: int
    length: int
    row_sums: tuple[int, ...]
    weighted_vt: int

    @property
    def padded(self) -> int:
        return -(-self.length // self.rows) * self.rows

    @property
    def cols(self) -> int:
        return self.padded // self.rows

    @property
    def modulus(self) -> int:
        return 3 ** self.rows * self.padded


def _pad(word: Bits, rows: int) -> Bits:
    extra = (-len(word)) % rows
    return tuple(word) + (0,) * extra


def _row(word: Bits, rows: int, i: int) -> Bits:
    """Row i (1-based) of the column-major array form of a padded word."""
    return word[i - 1::rows]


_ROW_POSITIONS: dict = {}


def _row_positions(rows: int, padded: int):
    """Cached 1-based positions of each row in the padded word."""
    key = (rows, padded)
    if key not in _ROW_POSITIONS:
        _ROW_POSITIONS[key] = [tuple(range(i, padded + 1, rows))
                               for i in range(1, rows + 1)]
    return _ROW_POSITIONS[key]


def array_syndromes(word, rows: int) -> ArrayCodeParams:
    """Compute the array-code syndromes of a binary word."""
    if rows < 1:
        raise ParameterError("row count must be positive")
    word = as_bits(word)
    padded = _pad(word, rows)
    sums = tuple(sum(_row(padded, rows, i)) % 3 for i in range(1, rows + 1))
    weighted = sum(3 ** (i - 1) * vt_syndrome(_row(padded, rows, i))
                   for i in range(1, rows + 1))
    modulus = 3 ** rows * len(padded)
    return ArrayCodeParams(rows=rows, length=len(word), row_sums=sums,
                           weighted_vt=weighted % modulus)


def is_member(word, params: ArrayCodeParams) -> bool:
    other = array_syndromes(word, params.rows)
    return (other.row_sums == params.row_sums
            and other.weighted_vt == params.weighted_vt
            and other.length == params.length)


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
    # Collision: cover both bursts with one aligned block of 2P positions.
    if 2 * P > padded:
        raise ParameterError("word too short to normalise overlapping bursts")
    t = max(1, min(s1, padded - 2 * P + 1))
    hi = max(e1, e2)
    if t + 2 * P - 1 < hi:
        raise ParameterError("bursts span more than two row-length windows")
    return [(t, P), (t + P, P)]


def _solve_rows(known: dict[int, int], windows, params: ArrayCodeParams) -> Bits:
    """Fill two length-P erasure windows from the row syndromes.

    ``known`` maps 1-based positions (outside the windows) to bits.
    """
    P, N = params.rows, params.padded
    erased = set()
    for s, l in windows:
        erased.update(range(s, s + l))
    word = [None] * N
    for pos, bit in known.items():
        if pos not in erased:
            word[pos - 1] = bit

    per_row: dict[int, list[int]] = {i: [] for i in range(1, P + 1)}
    for pos in sorted(erased):
        per_row[(pos - 1) % P + 1].append(pos)
    if any(len(v) != 2 for v in per_row.values()):
        raise ParameterError("window normalisation did not give two erasures per row")

    positions = _row_positions(P, N)
    base = 0          # weighted VT of all determined bits
    ambiguous = []    # (p_k, p_l) with one 1 and one 0 in unknown order
    deltas = []       # weighted contribution of either placement
    for i in range(1, P + 1):
        row = positions[i - 1]
        row_known = sum(word[pos - 1] for pos in row if word[pos - 1] is not None)
        d = (params.row_sums[i - 1] - row_known) % 3
        p_k, p_l = per_row[i]
        if d == 0:
            word[p_k - 1] = word[p_l - 1] = 0
        elif d == 2:
            word[p_k - 1] = word[p_l - 1] = 1
        else:
            ambiguous.append((p_k, p_l))
            scale = 3 ** (i - 1)
            deltas.append((scale * ((p_k - 1) // P + 1), scale * ((p_l - 1) // P + 1)))
    for i in range(1, P + 1):
        base += 3 ** (i - 1) * sum(col * word[pos - 1]
                                   for col, pos in enumerate(positions[i - 1], start=1)
                                   if word[pos - 1] is not None)

    target = params.weighted_vt
    M = params.modulus
    matches = _assignments_matching(deltas, (target - base) % M, M)
    if len(matches) != 1:
        raise DecodeFailure(
            f"{len(matches)} row assignments consistent with the weighted VT residue")
    for c, (p_k, p_l) in zip(matches[0], ambiguous):
        word[p_k - 1], word[p_l - 1] = (1, 0) if c == 0 else (0, 1)
    return tuple(word)


def _assignments_matching(deltas, target: int, modulus: int):
    """Binary choices (one weighted contribution per ambiguous row) summing to
    ``target`` mod ``modulus``; meet-in-the-middle beyond a few rows."""
    k = len(deltas)
    if k <= 6:
        return [choice for choice in product((0, 1), repeat=k)
                if sum(dk if c == 0 else dl
                       for c, (dk, dl) in zip(choice, deltas)) % modulus == target]
    half = k // 2
    left: dict[int, list] = {}
    for choice in product((0, 1), repeat=half):
        s = sum(dk if c == 0 else dl
                for c, (dk, dl) in zip(choice, deltas[:half])) % modulus
        left.setdefault(s, []).append(choice)
    matches = []
    for choice in product((0, 1), repeat=k - half):
        s = sum(dk if c == 0 else dl
                for c, (dk, dl) in zip(choice, deltas[half:])) % modulus
        for lchoice in left.get((target - s) % modulus, []):
            matches.append(lchoice + choice)
    return matches


def array_erasure_decode(received, burst_positions, params: ArrayCodeParams) -> Bits:
    """Recover a codeword from two bursts of erasures.

    ``received`` has length ``params.length`` with ``None`` at erased
    positions; every ``None`` must lie inside one of the declared bursts.
    """
    received = list(received)
    if len(received) != params.length:
        raise ParameterError("received word has the wrong length")
    declared = set()
    for s, l in burst_positions:
        declared.update(range(s, s + l))
    nones = {i + 1 for i, b in enumerate(received) if b is None}
    if not nones <= declared:
        raise ParameterError("erasure outside the declared bursts")
    if not nones:
        return tuple(int(b) for b in received)

    padded_known = {i + 1: int(b) for i, b in enumerate(received) if b is not None}
    for pos in range(params.length + 1, params.padded + 1):
        padded_known[pos] = 0
    windows = _normalize_windows(burst_positions, params.rows, params.padded)
    word = _solve_rows(padded_known, windows, params)
    return word[:params.length]


def _single_column_word(params: ArrayCodeParams) -> Bits:
    """With one column the row sums are the bits themselves, so the syndromes
    pin down the whole word."""
    bits = params.row_sums[:params.length]
    if any(b not in (0, 1) for b in bits):
        raise DecodeFailure("single-column row sums are not bits")
    word = tuple(bits)
    if not is_member(word, params):
        raise DecodeFailure("single-column word contradicts the weighted residue")
    return word


def _deletions_to_erasures(received: Bits, intervals, params: ArrayCodeParams):
    """Re-express ``k`` deletions at known intervals as ``k`` bursts of
    erasures: bits outside the intervals return to their true positions, the
    intervals themselves are treated as unknown."""
    n = params.length
    intervals = sorted((s, l) for s, l in intervals)
    for s, l in intervals:
        if l < 1 or l > params.rows:
            raise ParameterError("interval length must be in [1, rows]")
        if s < 1 or s + l - 1 > n:
            raise ParameterError("deletion interval outside the word")
    k = len(intervals)
    if len(received) != n - k:
        raise ParameterError(f"expected length {n - k}, got {len(received)}")

    if k == 2 and intervals[1][0] <= intervals[0][0] + intervals[0][1] - 1:
        # Overlapping intervals collapse to one unknown block.
        (s1, l1), (s2, l2) = intervals
        hi = max(s1 + l1 - 1, s2 + l2 - 1)
        blocks = [(s1, hi - s1 + 1)]
        drops = [hi - s1 + 1 - 2]
    else:
        blocks = intervals
        drops = [l - 1 for s, l in intervals]

    word: list[int | None] = [None] * n
    cursor = 0
    pos = 1
    shifted = list(received)
    for (s, l), drop in zip(blocks, drops):
        take = s - pos
        word[pos - 1:pos - 1 + take] = shifted[cursor:cursor + take]
        cursor += take + drop
        pos = s + l
    word[pos - 1:] = shifted[cursor:]
    return word, blocks


def array_bounded_decode(received, intervals, params: ArrayCodeParams) -> Bits:
    """Recover a codeword from two deletions, each confined to a declared
    interval of length at most ``params.rows``."""
    received = as_bits(received)
    if len(received) != params.length - 2:
        raise ParameterError(f"expected length {params.length - 2}, got {len(received)}")
    if params.padded == params.rows:
        word = _single_column_word(params)
        if not _is_subsequence(received, word):
            raise DecodeFailure("recovered word cannot reproduce the received bits")
        return word
    word, blocks = _deletions_to_erasures(received, intervals, params)
    if len(blocks) == 1:
        s, l = blocks[0]
        half = (l + 1) // 2
        bursts = [(s, half), (s + half, l - half)]
    else:
        bursts = blocks
    decoded = array_erasure_decode(word, bursts, params)
    lo = min(s for s, l in blocks)
    hi = max(s + l - 1 for s, l in blocks)
    if not _is_subsequence(received[lo - 1:hi - 1 - 1], decoded[lo - 1:hi]):
        raise DecodeFailure("recovered word cannot reproduce the received bits")
    return decoded


def array_single_bounded_decode(received, interval: Interval, params: ArrayCodeParams) -> Bits:
    """Recover a codeword from one deletion confined to a declared interval.

    Each array row loses at most one bit, so the row sums determine every
    missing bit outright; the weighted VT residue is checked as a guard.
    """
    received = as_bits(received)
    if len(received) != params.length - 1:
        raise ParameterError(f"expected length {params.length - 1}, got {len(received)}")
    if params.padded == params.rows:
        word = _single_column_word(params)
        if not _is_subsequence(received, word):
            raise DecodeFailure("recovered word cannot reproduce the received bits")
        return word
    word, blocks = _deletions_to_erasures(received, [interval], params)
    (s, l) = blocks[0]
    P, N = params.rows, params.padded
    window = (max(1, min(s + l - 1, N) - P + 1), P)
    known = {i + 1: b for i, b in enumerate(word) if b is not None}
    for pos in range(params.length + 1, N + 1):
        known[pos] = 0
    erased = set(range(window[0], window[0] + P)) | {i + 1 for i, b in enumerate(word) if b is None}
    filled = [known.get(pos) if pos not in erased else None for pos in range(1, N + 1)]
    out = list(filled)
    for i in range(1, P + 1):
        row_positions = list(range(i, N + 1, P))
        missing = [pos for pos in row_positions if out[pos - 1] is None]
        if not missing:
            continue
        if len(missing) != 1:
            raise ParameterError("single-deletion window hits a row twice")
        d = (params.row_sums[i - 1] - sum(out[pos - 1] for pos in row_positions
                                          if out[pos - 1] is not None)) % 3
        if d not in (0, 1):
            raise DecodeFailure("row sum inconsistent with a single missing bit")
        out[missing[0] - 1] = d
    candidate = tuple(out[:params.length])
    if not is_member(candidate, params):
        raise DecodeFailure("weighted VT residue mismatch after single-deletion fill")
    if not _is_subsequence(received[s - 1:s + l - 2], candidate[s - 1:s + l - 1]):
        raise DecodeFailure("recovered word cannot reproduce the received bits")
    return candidate
