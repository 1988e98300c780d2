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


def unique(found, what: str, *fields):
    """The one member of ``found``, a list or set of a decoder's survivors:
    every decoder ends here.  Otherwise a DecodeFailure giving their count,
    then ``what`` with ``fields`` put in its braces; the message is built
    only when it is raised."""
    if len(found) != 1:
        raise DecodeFailure(f"{len(found)} {what.format(*fields)}")
    return next(iter(found))


def smod4(value: int) -> int:
    """Reduce an integer mod 4 onto {1, 2, 3, 4}."""
    return (value - 1) % 4 + 1


def as_strand(symbols, empty: bool = False) -> Strand:
    """Validate and normalise a quaternary word: a sequence of the ints 1 to
    4, where a float, a string or a bool is no symbol, non-empty unless
    ``empty`` allows it."""
    try:
        word = tuple(symbols)
    except TypeError:
        raise ParameterError(f"strand must be a sequence of symbols, got {symbols!r}") from None
    if not word:
        if not empty:
            raise ParameterError("empty strand")
    elif set(map(type, word)) != {int} or not _SYMBOLS.issuperset(word):
        bad = next(s for s in word if type(s) is not int or s not in _SYMBOLS)
        raise ParameterError(f"symbol {bad!r} outside alphabet {{1,2,3,4}}")
    return word


def as_int(value, what: str, least: int | None = None) -> int:
    """``value`` checked to be an int, not a bool, and at least ``least`` when
    that is given: the one integer reader of the package."""
    if type(value) is int and (least is None or value >= least):
        return value
    floor = "" if least is None else f" >= {least}"
    raise ParameterError(f"{what} must be an int{floor}, got {value!r}")


def as_ints(values, what: str, least: int | None = None) -> tuple[int, ...]:
    """``values`` as a tuple, each value read by :func:`as_int`."""
    try:
        values = tuple(values)
    except TypeError:
        raise ParameterError(f"a collection of {what}s expected, got {values!r}") from None
    for value in values:
        as_int(value, what, least)
    return values


def as_type(value, cls):
    """``value`` checked to be exactly a ``cls``: the one test of a params
    object, spec or plan at a public entry."""
    if type(value) is not cls:
        raise ParameterError(f"{cls.__name__} expected, got {type(value).__name__}")
    return value


def as_spans(spans, what: str, count: int, length: int, width: int) -> list[tuple[int, int]]:
    """``spans`` checked to be ``count`` (start, length) pairs of integers
    (not bools), each inside [1, ``length``] and 1 to ``width`` positions
    long, and returned sorted: the one reader of declared intervals and
    bursts.  ``what`` names one pair in the errors."""
    try:
        spans = list(spans)
    except TypeError:
        raise ParameterError(f"(start, length) pairs expected, got {spans!r}") from None
    for span in spans:
        if not (isinstance(span, (tuple, list)) and len(span) == 2
                and type(span[0]) is type(span[1]) is int):
            raise ParameterError(f"{what} must be a (start, length) pair of integers, got {span!r}")
    if len(spans) != count:
        raise ParameterError(f"expected {count} {what}s, got {len(spans)}")
    spans = sorted(map(tuple, spans))
    length, width = as_int(length, "span bound"), as_int(width, "span width")
    for s, l in spans:
        if s < 1 or not 1 <= l <= width or s + l - 1 > length:
            raise ParameterError(f"{what} {(s, l)} must lie in [1, {length}] "
                                 f"and span 1 to {width} positions")
    return spans


def all_strands(n: int):
    """Iterate over all of Sigma^n in lexicographic order."""
    return product(ALPHABET, repeat=as_int(n, "strand length", 0))


def is_subsequence(short, long) -> bool:
    """Does ``short`` occur in ``long`` with gaps allowed?"""
    it = iter(long)
    return all(s in it for s in short)


def common_prefix(u, v) -> int:
    """Length of the longest common prefix of two sequences."""
    k, top = 0, min(len(u), len(v))
    while k < top and u[k] == v[k]:
        k += 1
    return k


def common_suffix(u, v) -> int:
    """Length of the longest common suffix of two sequences."""
    k, top = 0, min(len(u), len(v))
    while k < top and u[-1 - k] == v[-1 - k]:
        k += 1
    return k


def deletion_positions(full, short) -> list[tuple[int, ...]]:
    """Every ascending tuple of 1-based positions whose deletion from ``full``
    yields ``short``, in lexicographic order, for a ``short`` 0 to 2 symbols
    shorter (any other length gives none).  Deleting p < q leaves
    ``full[:p-1]`` inside the words' common prefix, ``full[q:]`` inside their
    common suffix and the middle equal to ``short`` one place left, so q stops
    at the first position past p where the two differ under that shift."""
    n, k = len(full), len(full) - len(short)
    prefix, q_min = common_prefix(full, short), n - common_suffix(full, short)
    if k == 0:
        return [()] if prefix == n else []
    if k == 1:
        return [(p,) for p in range(q_min, prefix + 2)]
    if k != 2:
        return []
    out = []
    for p in range(1, min(prefix + 1, n - 1) + 1):
        for q in range(p + 1, n + 1):
            if q > p + 1 and full[q - 2] != short[q - 3]:
                break
            if q >= q_min:
                out.append((p, q))
    return out


def diff(strand: Strand) -> Strand:
    """Difference sequence: first symbol, then successive shifted-mod-4 gaps."""
    strand = as_strand(strand)
    out = [strand[0]]
    for prev, cur in zip(strand, strand[1:]):
        out.append(smod4(cur - prev))
    return tuple(out)


def inverse_diff(d: Strand) -> Strand:
    """Invert :func:`diff` by shifted-mod-4 prefix sums."""
    d = as_strand(d)
    out = [d[0]]
    for step in d[1:]:
        out.append(smod4(out[-1] + step))
    return tuple(out)


def cycles(strand: Strand, start: int = 0) -> tuple[int, ...]:
    """Synthesis cycle of each symbol: plain prefix sums of the difference
    sequence, in one pass.  Each symbol lands on the first cycle past the
    previous one that carries its value.

    Started at ``start`` on the symbols of a strand re-timed by ``start``
    (:func:`shift_symbols`), the recurrence gives the base schedule moved by
    ``start``."""
    out = []
    c = start
    for s in strand:
        c += (s - c - 1) % 4 + 1
        out.append(c)
    return tuple(out)


def apply_defects(strand: Strand, delta) -> Strand:
    """Drop every symbol whose synthesis cycle lies in ``delta``.

    Cycles in ``delta`` that no symbol occupies delete nothing, so the result
    may equal the input.
    """
    return apply_defects_shifted(strand, 0, delta)


def apply_defects_tuple(strands, delta) -> tuple[Strand, ...]:
    """Apply the same defect set to every strand of an ordered tuple."""
    try:
        return tuple(apply_defects(s, delta) for s in strands)
    except TypeError:  # no tuple of strands, a symbol that is no number, or no set of cycles
        raise ParameterError(
            f"strands and a set of defect cycles expected, got {strands!r}, {delta!r}") from None


def _insert_slot_positions(word: Strand, delta: int, start: int = 1, c: int = 0) -> list[int]:
    """1-based positions at which a symbol inserted into ``word`` would be
    synthesised exactly at cycle ``delta``; at most four, and consecutive
    because landing cycles never decrease from slot to slot.

    A slot after a symbol at cycle c lands on the one cycle in [c + 1, c + 4]
    congruent to ``delta`` mod 4: exactly ``delta`` when c lies in
    [delta - 4, delta - 1], past it once c >= delta, so the scan runs the
    recurrence of :func:`cycles` and stops there.  Resumed at position
    ``start``, with ``c`` the cycle of symbol start - 1, it gives the slots
    from ``start`` on.
    """
    out = []
    for pos, s in enumerate(word[start - 1:] if start > 1 else word, start):
        if c >= delta:
            return out
        if c >= delta - 4:
            out.append(pos)
        c += (s - c - 1) % 4 + 1
    if delta - 4 <= c < delta:
        out.append(len(word) + 1)
    return out


def reinsertions(word: Strand, delta) -> set[Strand]:
    """Every word reached by reinstating a symbol at each cycle of ``delta``,
    in increasing cycle order, each synthesised exactly at its cycle: a
    superset of the channel's preimages, which :func:`confusable_ball`,
    ``kdcc.algorithm1_recover`` and the tests filter by ``apply_defects``."""
    frontier = {word}
    for d in sorted(set(delta)):
        value = smod4(d)
        frontier = {w[:p - 1] + (value,) + w[p - 1:]
                    for w in frontier for p in _insert_slot_positions(w, d)}
    return frontier


def matching_slots(word: Strand, value: int, sig: Bits, own: Bits, slots=None) -> list[int]:
    """1-based slots, among ``slots`` (default every slot), at which inserting
    ``value`` into ``word`` (whose own signature is ``own``) gives a word whose
    signature is exactly ``sig``: the one-insertion signature slot kernel, as
    :func:`pair_slots` is the two-insertion one.

    An insertion at slot p rewrites only signature bits p-1 and p (1-based):
    the bits before them are the word's own and the bits after them the word's
    moved one place right.  So slot p needs the common prefix of the word's
    signature and ``sig`` to reach p-2, their common suffix to reach back to
    p+1, and two bit comparisons.
    """
    n = len(word)
    if len(sig) != n:
        return []
    lo, hi = n - common_suffix(own, sig), common_prefix(own, sig) + 2
    return [p for p in (range(lo, hi + 1) if slots is None else slots)
            if lo <= p <= hi
            and (p == 1 or (value >= word[p - 2]) == sig[p - 2])
            and (p == n + 1 or (word[p - 1] >= value) == sig[p - 1])]


def matching_insertions(word: Strand, value: int, sig: Bits, own: Bits, slots=None) -> set[Strand]:
    """Every distinct word whose signature is ``sig`` that inserting ``value``
    into ``word`` gives, at the slots of :func:`matching_slots`."""
    return {word[:p - 1] + (value,) + word[p - 1:]
            for p in matching_slots(word, value, sig, own, slots)}


def pair_slots(word: Strand, v1: int, v2: int, sig: Bits, own: Bits, table=None):
    """Slot pairs (p, q), q > p, at which inserting ``v1`` into ``word`` (whose
    own signature is ``own``) at p, then ``v2`` at q of the grown word, gives
    the signature ``sig``.

    The bits before p-1 are the word's own, those from q on are its own two
    places right, and those between are its own one place right; the four
    bits around v1 and v2 take one comparison each.  Given a slot ``table``
    ({p: (grown word, second slots q > p)}, p ascending), only its pairs are
    tried, the three runs compared as slices.  Otherwise the alignment of
    ``own`` against ``sig`` bounds every pair: p by their common prefix, q by
    their common suffix, and the middle run by ahead[j], the run length of
    ``own[i] == sig[i + 1]`` from i = j.
    """
    n = len(word) + 2
    if table is None:
        prefix, suffix = common_prefix(own, sig), common_suffix(own, sig)
        ahead = [0] * (len(own) + 2)
        for j in range(len(own) - 1, -1, -1):
            if own[j] == sig[j + 1]:
                ahead[j] = ahead[j + 1] + 1
    for p in range(1, n) if table is None else table:
        if p > 2 and (p > prefix + 2 if table is None else own[:p - 2] != sig[:p - 2]):
            return
        if p > 1 and (v1 >= word[p - 2]) != sig[p - 2]:
            continue  # the rewritten bit before v1 already differs
        # Past q = p + 1 the bit after v1 is rewritten against word[p - 1].
        run = p < n - 1 and (word[p - 1] >= v1) == sig[p - 1]
        for q in (range(max(n - 1 - suffix, p + 1), p + 2 + (1 + ahead[p - 1] if run else 0))
                  if table is None else table[p][1]):
            if table is not None and not (own[q - 2:] == sig[q:] and (
                    q == p + 1 or run and own[p - 1:q - 3] == sig[p:q - 2])):
                continue
            before = v1 if q == p + 1 else word[q - 3]
            if (v2 >= before) == sig[q - 2] and (q == n or (word[q - 2] >= v2) == sig[q - 1]):
                yield p, q


def pair_insertions(word: Strand, v1: int, v2: int, sig: Bits, own: Bits,
                    table=None) -> set[Strand]:
    """Every distinct word whose signature is ``sig`` that inserting ``v1``
    and then ``v2`` into ``word`` gives, at the pairs of :func:`pair_slots`:
    the two-insertion twin of :func:`matching_insertions`.  Given a slot
    ``table``, each pair grows the word the table already holds for its p."""
    out = set()
    for p, q in pair_slots(word, v1, v2, sig, own, table):
        grown = word[:p - 1] + (v1,) + word[p - 1:] if table is None else table[p][0]
        out.add(grown[:q - 1] + (v2,) + grown[q - 1:])
    return out


def confusable_ball(strand: Strand, delta) -> set[Strand]:
    """Exact set of length-n words indistinguishable from ``strand`` once the
    cycles in ``delta`` are defective.

    Such a word lost as many symbols as ``strand`` did, at some set of that
    many cycles of ``delta``, so it is among the :func:`reinsertions` of the
    channel output at one such set; those are filtered against the defining
    equation.
    """
    strand = as_strand(strand)
    hit = set(as_ints(delta, "defect cycle"))
    target = apply_defects(strand, hit)
    return {w for lost in combinations(sorted(hit), len(strand) - len(target))
            for w in reinsertions(target, lost) if apply_defects(w, hit) == target}


def defect_ball(strands, radius: int) -> set[tuple[Strand, ...]]:
    """All outputs of the channel on an ordered tuple under at most ``radius``
    defective cycles, deduplicated."""
    try:
        n = len(strands[0])
    except (LookupError, TypeError):
        raise ParameterError(f"a tuple of strands expected, got {strands!r}") from None
    if as_int(radius, "defect radius") > n:
        raise ParameterError("defect radius exceeds strand length")
    outputs = {tuple(strands)}
    for size in range(1, radius + 1):
        for delta in combinations(range(1, 4 * n + 1), size):
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
    try:
        bits = tuple(bits)
    except TypeError:
        raise ParameterError(f"binary word expected, got {bits!r}") from None
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
    if as_int(sigma, "symbol") not in _SYMBOLS:
        raise ParameterError(f"symbol {sigma!r} outside alphabet")
    try:
        pos = tuple(i for i, s in enumerate(strand, start=1) if s == sigma)
    except TypeError:
        raise ParameterError(f"strand must be a sequence of symbols, got {strand!r}") from None
    return len(pos), pos


def shift_symbols(strand: Strand, a: int) -> Strand:
    """Symbols transmitted for a base strand re-timed by ``a`` cycles.

    The machine synthesises the base schedule moved by ``a``, which adds ``a``
    to every symbol shifted-mod 4.  The symbols alone do not reveal the shift,
    so a re-timed strand travels with ``a`` as metadata, and
    ``shift_symbols(symbols, -a)`` recovers the base strand."""
    return tuple(smod4(s + a) for s in strand)


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
    as_int(window, "regularity window", 4)
    try:
        bits = tuple(bits)
    except TypeError:
        raise ParameterError(f"binary word expected, got {bits!r}") from None
    for start in range(len(bits) - window + 1):
        chunk = bits[start:start + window]
        has00 = any(a == b == 0 for a, b in zip(chunk, chunk[1:]))
        has11 = any(a == b == 1 for a, b in zip(chunk, chunk[1:]))
        if not (has00 and has11):
            return False
    return True


def default_regular_window(n: int) -> int:
    """Default regularity window: ceil(7 log2 n), floored at the minimum of 4."""
    return max(4, math.ceil(7 * math.log2(as_int(n, "strand length", 2))))
