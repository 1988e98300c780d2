"""Synthesis-channel primitives: strands, cycle schedules, defects, and derived views.

A strand is a quaternary word over {1,2,3,4} synthesised against the fixed
template 1234 1234 ... ; each symbol consumes one template cycle carrying its
value, so a length-n strand occupies a strictly increasing schedule of cycles
inside [1, 4n] with consecutive gaps of at most 4.  A defect is a cycle at
which the machine appends nothing: every strand scheduled at that cycle loses
that symbol.
"""

from __future__ import annotations

import math
from itertools import combinations, product

ALPHABET = (1, 2, 3, 4)
_SYMBOLS = frozenset(ALPHABET)

Strand = tuple[int, ...]
Bits = tuple[int, ...]


class ParameterError(ValueError):
    """An operation was invoked outside its supported parameter range."""


class DecodeFailure(ValueError):
    """A decoder found no unique consistent codeword."""


class ConstructionError(RuntimeError):
    """A construction step violated a guarantee it is supposed to satisfy."""


def smod4(value: int) -> int:
    """Reduce an integer mod 4 onto {1, 2, 3, 4}."""
    return (value - 1) % 4 + 1


def as_strand(symbols) -> Strand:
    """Validate and normalise a quaternary word."""
    word = tuple(map(int, symbols))
    if not word:
        raise ParameterError("empty strand")
    if not set(word) <= _SYMBOLS:
        bad = next(s for s in word if s not in _SYMBOLS)
        raise ParameterError(f"symbol {bad!r} outside alphabet {{1,2,3,4}}")
    return word


def all_strands(n: int):
    """Iterate over all of Sigma^n in lexicographic order."""
    return (tuple(p) for p in product(ALPHABET, repeat=n))


def diff(strand: Strand) -> Strand:
    """Difference sequence: first symbol, then successive shifted-mod-4 gaps."""
    out = [strand[0]]
    for prev, cur in zip(strand, strand[1:]):
        out.append(smod4(cur - prev))
    return tuple(out)


def inverse_diff(d: Strand) -> Strand:
    """Invert :func:`diff` by shifted-mod-4 prefix sums."""
    out = [d[0]]
    for step in d[1:]:
        out.append(smod4(out[-1] + step))
    return tuple(out)


def cycles(strand: Strand) -> tuple[int, ...]:
    """Synthesis cycle of each symbol: plain prefix sums of the difference
    sequence, in one pass.  Each symbol lands on the first cycle past the
    previous one that carries its value (the step of :func:`landing_cycles`)."""
    out = []
    c = 0
    for s in strand:
        c += (s - c - 1) % 4 + 1
        out.append(c)
    return tuple(out)


def apply_defects(strand: Strand, delta) -> Strand:
    """Drop every symbol whose synthesis cycle lies in ``delta``.

    Cycles in ``delta`` that no symbol occupies delete nothing, so the result
    may equal the input.
    """
    hit = set(delta)
    sched = cycles(strand)
    return tuple(s for s, c in zip(strand, sched) if c not in hit)


def apply_defects_tuple(strands, delta) -> tuple[Strand, ...]:
    """Apply the same defect set to every strand of an ordered tuple."""
    return tuple(apply_defects(s, delta) for s in strands)


def landing_cycles(word: Strand, value: int) -> list[int]:
    """Cycle at which ``value`` inserted into ``word`` would be synthesised,
    for each 1-based slot in [1, len(word) + 1].

    The inserted symbol's cycle is the smallest value congruent to it mod 4
    beyond the previous symbol's cycle, so each slot costs O(1).
    """
    return [prev + (value - prev - 1) % 4 + 1
            for prev in (0,) + cycles(word)]


def _insert_slot_positions(word: Strand, delta: int) -> list[int]:
    """1-based positions at which a symbol inserted into ``word`` would be
    synthesised exactly at cycle ``delta``; at most four, and consecutive
    because landing cycles never decrease from slot to slot.

    A slot after a symbol at cycle c lands on the one cycle in [c + 1, c + 4]
    congruent to ``delta`` mod 4: exactly ``delta`` when c lies in
    [delta - 4, delta - 1], past it once c >= delta, so the scan runs the
    recurrence of :func:`cycles` and stops there.
    """
    out = []
    c = 0
    for pos, s in enumerate(word, start=1):
        if c >= delta:
            return out
        if c >= delta - 4:
            out.append(pos)
        c += (s - c - 1) % 4 + 1
    if delta - 4 <= c < delta:
        out.append(len(word) + 1)
    return out


def _insertions_at_cycle(word: Strand, delta: int) -> list[Strand]:
    """All words obtained by inserting one symbol into ``word`` so that the new
    symbol is synthesised exactly at cycle ``delta``."""
    value = smod4(delta)
    return [word[:pos - 1] + (value,) + word[pos - 1:]
            for pos in _insert_slot_positions(word, delta)]


def reinsertions(word: Strand, delta) -> set[Strand]:
    """Every word reached by reinstating a symbol at each cycle of ``delta``,
    in increasing cycle order."""
    frontier = {word}
    for d in sorted(set(delta)):
        frontier = {y for w in frontier for y in _insertions_at_cycle(w, d)}
    return frontier


def confusable_ball(strand: Strand, delta) -> set[Strand]:
    """Exact set of length-n words indistinguishable from ``strand`` once the
    cycles in ``delta`` are defective.

    Candidates are generated by constrained insertion in increasing cycle
    order (each defect either misses the word or re-inserts its symbol at the
    defective cycle) and then filtered against the defining equation.
    """
    n = len(strand)
    target = apply_defects(strand, delta)
    frontier: set[Strand] = {target}
    for d in sorted(set(delta)):
        grown: set[Strand] = set()
        for w in frontier:
            grown.add(w)
            if len(w) < n:
                grown.update(_insertions_at_cycle(w, d))
        frontier = grown
    hit = set(delta)
    return {w for w in frontier if len(w) == n and apply_defects(w, hit) == target}


def defect_ball(strands, radius: int) -> set[tuple[Strand, ...]]:
    """All outputs of the channel on an ordered tuple under at most ``radius``
    defective cycles, deduplicated."""
    n = len(strands[0])
    if radius > n:
        raise ParameterError("defect radius exceeds strand length")
    outputs = {tuple(strands)}
    span = range(1, 4 * n + 1)
    for size in range(1, radius + 1):
        for delta in combinations(span, size):
            outputs.add(apply_defects_tuple(strands, delta))
    return outputs


def signature(strand: Strand) -> Bits:
    """Binary comparison sequence: bit i is 1 iff the strand does not decrease
    from position i to i+1."""
    if len(strand) < 2:
        raise ParameterError("signature needs a strand of length >= 2")
    return tuple(1 if b >= a else 0 for a, b in zip(strand, strand[1:]))


def run_sequence(bits) -> tuple[int, ...]:
    """Cumulative run index of a binary word; the last entry is the run count."""
    bits = tuple(bits)
    if not bits:
        raise ParameterError("empty word has no run sequence")
    out = [1]
    for prev, cur in zip(bits, bits[1:]):
        out.append(out[-1] + (1 if cur != prev else 0))
    return tuple(out)


def longest_run(bits) -> int:
    """Length of the longest constant run of a binary word."""
    runs = run_sequence(bits)
    best = cur = 1
    for a, b in zip(runs, runs[1:]):
        cur = cur + 1 if a == b else 1
        best = max(best, cur)
    return best


def symbol_positions(strand: Strand, sigma: int) -> tuple[int, tuple[int, ...]]:
    """Count of ``sigma`` in the strand and its sorted 1-based positions."""
    if sigma not in (1, 2, 3, 4):
        raise ParameterError(f"symbol {sigma!r} outside alphabet")
    pos = tuple(i for i, s in enumerate(strand, start=1) if s == sigma)
    return len(pos), pos


def shift_symbols(strand: Strand, a: int) -> Strand:
    """Symbols transmitted for a base strand re-timed by ``a`` cycles.

    The machine synthesises the base schedule moved by ``a``, which adds ``a``
    to every symbol shifted-mod 4.  The symbols alone do not reveal the shift,
    so a re-timed strand travels with ``a`` as metadata."""
    return tuple(smod4(s + a) for s in strand)


def unshift_symbols(symbols: Strand, a: int) -> Strand:
    """Recover the base strand of a shifted strand from its symbols."""
    return tuple(smod4(s - a) for s in symbols)


def apply_defects_shifted(symbols: Strand, a: int, delta) -> Strand:
    """Defect application against the re-timed schedule of a shifted strand:
    the base strand's cycles moved by ``a``.  That schedule is the landing
    recurrence of :func:`cycles` run on the transmitted symbols from cycle
    ``a`` instead of 0."""
    hit = set(delta)
    out = []
    c = a
    for s in symbols:
        c += (s - c - 1) % 4 + 1
        if c not in hit:
            out.append(s)
    return tuple(out)


def is_regular(bits, window: int) -> bool:
    """True iff every length-``window`` contiguous substring contains both 00
    and 11.  Vacuously true when the word is shorter than the window."""
    if window < 4:
        raise ParameterError("regularity window must be at least 4")
    bits = tuple(bits)
    for start in range(len(bits) - window + 1):
        chunk = bits[start:start + window]
        has00 = any(a == b == 0 for a, b in zip(chunk, chunk[1:]))
        has11 = any(a == b == 1 for a, b in zip(chunk, chunk[1:]))
        if not (has00 and has11):
            return False
    return True


def default_regular_window(n: int) -> int:
    """Default regularity window: ceil(7 log2 n), floored at the minimum of 4."""
    if n < 2:
        raise ParameterError("window undefined for n < 2")
    return max(4, math.ceil(7 * math.log2(n)))
