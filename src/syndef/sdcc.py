"""Synthesis-defect correcting codes over ordered strand tuples.

The defect locations are unknown here.  A small set of cover strands is
re-timed so their schedules jointly occupy every cycle in [1, 4n]: any defect
shortens at least one of them.  Decoding a shortened cover strand localises
the defective cycle to a window (the tighter the signature's runs, the
tighter the window) and reveals the lost symbol value; the remaining strands
then only need codes correcting deletions confined to known windows.

Cover strands use one-deletion machinery (symbol sum plus a VT-coded regular
signature) for single defects, and the quaternary two-deletion code for
double defects.  Remaining strands use shifted-VT signatures (single defect)
or array-coded signatures plus per-symbol position sums (double defects).

This module owns the covers and the defect hypotheses they give.  Each
remaining strand is then a known-defect instance, decoded through the
known-cycle recovery of :mod:`syndef.kdcc`; only the position-sum filter of
the double-defect code is applied here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

from .array_code import ArrayCodeParams, array_syndromes
from .binary import SvtParams, vt_decode, vt_syndrome, weight
from .core import (
    ALPHABET,
    ConstructionError,
    DecodeFailure,
    ParameterError,
    Strand,
    apply_defects_shifted,
    as_int,
    as_ints,
    as_strand,
    as_type,
    cycles,
    default_regular_window,
    deletion_positions,
    is_regular,
    matching_insertions,
    pair_insertions,
    run_sequence,
    shift_symbols,
    signature,
    smod4,
    unique,
)
from .kdcc import array_candidates, svt1_candidates
from .rng import SplitMix
from .sketch import _completions, moment_vector

LOG43 = 2 - math.log2(3)


def cover_group_size(n: int) -> int:
    """Strands per template block needed to cover it for arbitrary content."""
    return math.ceil(math.log2(as_int(n, "strand length", 1)) / LOG43) + 1


def default_cover_count(n: int) -> int:
    return 4 * cover_group_size(n)


def localization_window(n: int) -> int:
    """Defect-window bound once cover signatures are regular."""
    return math.ceil(28 * math.log2(as_int(n, "strand length", 1))) + 5


def position_sum_modulus(n: int) -> int:
    # n = 1 would give modulus 0
    return math.ceil(14 * math.log2(as_int(n, "strand length", 2)))


def position_sums(strand, m: int) -> tuple[int, ...]:
    """Sum of the 1-based positions of each symbol, mod ``m``."""
    sums = dict.fromkeys(ALPHABET, 0)
    for i, s in enumerate(strand, start=1):
        if s in sums:
            sums[s] += i
    return tuple(v % m for v in sums.values())


def symbol_counts_mod3(strand) -> tuple[int, ...]:
    """Count of each symbol, mod 3."""
    return tuple(strand.count(v) % 3 for v in ALPHABET)


@dataclass(frozen=True)
class CoverPlan:
    """Shifts assigned to the cover strands, one template block at a time."""

    n: int
    shifts: tuple[int, ...]

    def __post_init__(self):
        as_int(self.n, "strand length", 1)
        object.__setattr__(self, "shifts", as_ints(self.shifts, "shift"))

    @property
    def cover_count(self) -> int:
        return len(self.shifts)


def plan_covers(strands, plan: CoverPlan) -> bool:
    """Do the shifted cover schedules occupy every cycle of [1, 4n]?"""
    covered = set()
    try:
        for base, a in zip(strands, as_type(plan, CoverPlan).shifts):
            covered.update(c + a for c in cycles(base))
    except TypeError:
        raise ParameterError(
            f"cover strands must be a sequence of strands, got {strands!r}") from None
    return set(range(1, 4 * plan.n + 1)) <= covered


def _shift_range(sched, n: int) -> tuple[int, int]:
    """Least and greatest shift keeping schedule ``sched`` inside [1, 4n]."""
    return 1 - sched[0], 4 * n - sched[-1]


def select_cover_shifts(strands) -> CoverPlan:
    """Greedy shift selection: each of the four template blocks is covered by
    its own group of strands, every step claiming at least a quarter of the
    still-uncovered cycles of the block window [t, t + n - 1].

    Cycles at most 4 apart put the shifts base .. base + 3, with base =
    min(t - sched[0], hi - 3), in the feasible range [lo, hi] and make them
    cover [sched[0] + base, sched[-1] + base + 3], which holds the window: the
    best of them claims a quarter of the uncovered cycles.
    """
    try:
        strands = [as_strand(s) for s in strands]
    except TypeError:  # no sequence of strands
        raise ParameterError(
            f"cover strands must be a sequence of strands, got {strands!r}") from None
    if not strands or len(strands) % 4 != 0:
        raise ParameterError("cover strands must split into four block groups")
    n = len(strands[0])
    if any(len(s) != n for s in strands):
        raise ParameterError("cover strands must all have one length")
    group = len(strands) // 4
    shifts: list[int] = []
    for block in range(4):
        t = block * n + 1
        uncovered = set(range(t, t + n))
        for c in strands[block * group:(block + 1) * group]:
            sched = cycles(c)
            base = min(t - sched[0], _shift_range(sched, n)[1] - 3)
            best_a, best_cover = None, -1
            for a in range(base, base + 4):
                got = len(uncovered.intersection(x + a for x in sched))
                if got > best_cover:
                    best_a, best_cover = a, got
            shifts.append(best_a)
            uncovered.difference_update(x + best_a for x in sched)
        if uncovered:
            raise ConstructionError(f"block [{t}, {t + n - 1}] left uncovered")
    # The four block windows tile [1, 4n], so the plan covers every cycle.
    return CoverPlan(n=n, shifts=tuple(shifts))


@dataclass(frozen=True)
class SdccCodeword:
    """Transmitted tuple: cover strands carry their shift as metadata visible
    to the decoder; remaining strands are sent as-is."""

    strands: tuple[Strand, ...]
    shifts: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.strands[0])

    @property
    def cover_count(self) -> int:
        return len(self.shifts)

    def bases(self) -> tuple[Strand, ...]:
        """Cover strands before re-timing."""
        return tuple(shift_symbols(s, -a) for s, a in zip(self.strands, self.shifts))

    def channel(self, delta) -> tuple[Strand, ...]:
        out = []
        for i, s in enumerate(self.strands):
            a = self.shifts[i] if i < len(self.shifts) else 0
            out.append(apply_defects_shifted(s, a, delta))
        return tuple(out)

    def to_json(self) -> dict:
        return {"n": self.n, "m": len(self.strands),
                "cover_count": self.cover_count,
                "shifts": list(self.shifts),
                "strands": [list(s) for s in self.strands]}

    @staticmethod
    def from_json(data) -> "SdccCodeword":
        try:
            n, m, cover_count = data["n"], data["m"], data["cover_count"]
            cw = SdccCodeword(strands=tuple(map(as_strand, data["strands"])),
                              shifts=tuple(data["shifts"]))
        except (KeyError, TypeError):
            raise ParameterError("malformed tuple codeword") from None
        if not cw.strands:
            raise ParameterError("a tuple needs at least one strand")
        if len(cw.strands) != m or cw.cover_count != cover_count \
                or any(len(s) != n for s in cw.strands):
            raise ParameterError("tuple JSON header disagrees with payload")
        if cw.cover_count > len(cw.strands):
            raise ParameterError("more shifts than strands")
        for s, a in zip(cw.strands, cw.shifts):
            as_int(a, "shift")
            # The re-timed schedule is the base one moved by a.
            lo, hi = (a + v for v in _shift_range(cycles(s, a), len(s)))
            if not lo <= a <= hi:
                raise ParameterError(f"shift {a} outside feasible range [{lo}, {hi}]")
        return cw


# ---------------------------------------------------------------------------
# Single-defect tuples.


@dataclass(frozen=True)
class Sdcc1Params:
    """Residues for a single-defect tuple: cover strands carry symbol sums
    mod 4 and VT-coded regular signatures, remaining strands shifted-VT
    signatures over the localisation window."""

    n: int
    s: tuple[int, ...]
    b: tuple[int, ...]
    d: tuple[int, ...]
    e: tuple[int, ...]

    def __post_init__(self):
        as_int(self.n, "strand length", 3)
        for name in "sbde":
            object.__setattr__(self, name, as_ints(getattr(self, name), f"residue {name}", 0))
        if len(self.b) != len(self.s) or len(self.e) != len(self.d):
            raise ParameterError("residues s and b need one value per cover strand, "
                                 "d and e one per remaining strand")

    @property
    def window(self) -> int:
        return _svt_window(self.n)


def _svt_window(n: int) -> int:
    return min(localization_window(n), n - 2)


def sdcc1_params_of(codeword: SdccCodeword) -> Sdcc1Params:
    """Read the residues off a tuple, making it a member of its own class."""
    n = as_type(codeword, SdccCodeword).n
    if n < 3:
        raise ParameterError("single-defect tuple coding needs n >= 3")
    window = _svt_window(n)
    s, b, d, e = [], [], [], []
    for x in codeword.bases():
        s.append(sum(x) % 4)
        sig = signature(x)
        if not is_regular(sig, default_regular_window(n)):
            raise ParameterError("cover signature is not regular at this window")
        b.append(vt_syndrome(sig) % (n + 1))
    for strand in codeword.strands[codeword.cover_count:]:
        sig = signature(strand)
        d.append(vt_syndrome(sig) % (window + 1))
        e.append(weight(sig) % 2)
    return Sdcc1Params(n=n, s=tuple(s), b=tuple(b), d=tuple(d), e=tuple(e))


def _received_strands(received, count: int) -> tuple[Strand, ...]:
    """A received tuple checked to hold ``count`` strands over {1, 2, 3, 4}."""
    try:
        received = tuple(received)
    except TypeError:
        raise ParameterError(f"a tuple of strands expected, got {received!r}") from None
    if len(received) != count:
        raise ParameterError(f"received {len(received)} strands, the code has {count}")
    return tuple(as_strand(r) for r in received)


def _cover_count(plan: CoverPlan, count: int) -> int:
    """The cover count of ``plan``, checked to be the ``count`` of the params."""
    if as_type(plan, CoverPlan).cover_count != count:
        raise ParameterError(f"the plan has {plan.cover_count} covers, the params {count}")
    return count


def sdcc1_decode(received, plan: CoverPlan, params: Sdcc1Params):
    """Recover the tuple from at most one defective cycle.

    Returns (strands, window) where window is the [lo, hi] cycle interval the
    defect was confined to, or None when nothing was hit.
    """
    n = as_type(params, Sdcc1Params).n
    cover_count = _cover_count(plan, len(params.s))
    received = _received_strands(received, cover_count + len(params.d))
    lengths = {len(r) for r in received}
    if not lengths <= {n, n - 1}:
        raise ParameterError("received lengths incompatible with one defect")
    shortened = [i for i, r in enumerate(received) if len(r) == n - 1]
    if not shortened:
        return received, None
    if all(i >= cover_count for i in shortened):
        raise DecodeFailure("a defect missed every cover strand; coverage is broken")

    out = list(received)
    delta_candidates: set[int] | None = None
    for i in [i for i in shortened if i < cover_count]:
        a = plan.shifts[i]
        x_short = shift_symbols(received[i], -a)
        own = signature(x_short)
        sig = vt_decode(own, params.b[i], n - 1, modulus=n + 1)
        value = smod4(params.s[i] - sum(x_short))
        words = matching_insertions(x_short, value, sig, own)
        if len(words) != 1:
            raise DecodeFailure("cover strand reconstruction is not unique")
        x = words.pop()
        out[i] = shift_symbols(x, a)
        sched = cycles(out[i], a)
        cands = {sched[p - 1] for p, in deletion_positions(x, x_short)}
        delta_candidates = cands if delta_candidates is None else delta_candidates & cands
    if not delta_candidates:
        raise DecodeFailure("cover strands disagree on the defective cycle")
    # Each cover's candidates are the cycles of one run of equal symbols: one
    # symbol value, four cycles apart.  So is their intersection.
    candidates = sorted(delta_candidates)
    for j in [i for i in shortened if i >= cover_count]:
        svt = SvtParams(a=params.d[j - cover_count], b=params.e[j - cover_count],
                        window=params.window + 1)
        words = svt1_candidates(received[j], candidates, svt)
        if len(words) != 1:
            raise DecodeFailure("remaining strand reconstruction is not unique")
        out[j] = words.pop()

    result = tuple(out)
    if not any(SdccCodeword(result, plan.shifts).channel({d}) == received
               for d in candidates):
        raise DecodeFailure("no candidate cycle reproduces the received tuple")
    return result, (candidates[0], candidates[-1])


# ---------------------------------------------------------------------------
# Quaternary two-deletion code for cover strands.


@dataclass(frozen=True)
class C2dParams:
    """Syndromes of the quaternary two-deletion code: a signature sketch, the
    run-weighted symbol sum, and per-symbol counts and position sums."""

    n: int
    sketch: tuple[int, ...]
    run_weighted: int
    counts: tuple[int, ...]
    position_sums: tuple[int, ...]
    pos_modulus: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "pos_modulus", position_sum_modulus(self.n))
        as_int(self.run_weighted, "run-weighted sum", 0)
        for name, what in (("sketch", "sketch value"), ("counts", "symbol count"),
                           ("position_sums", "position sum")):
            object.__setattr__(self, name, as_ints(getattr(self, name), what, 0))


def _run_weighted(strand, runs) -> int:
    """Symbols weighted by the run index of their signature position, mod 4n;
    ``runs`` is the run sequence of the signature."""
    return sum(v * r for v, r in zip(strand, runs)) % (4 * len(strand))


def c2d_params_of(strand) -> C2dParams:
    strand = as_strand(strand)
    n = len(strand)
    if n < 3:
        raise ParameterError("two-deletion coding needs n >= 3")
    sig = signature(strand)
    if not is_regular(sig, default_regular_window(n)):
        raise ParameterError("signature is not regular at this window")
    return C2dParams(
        n=n,
        sketch=moment_vector(sig),
        run_weighted=_run_weighted(strand, run_sequence(sig)),
        counts=symbol_counts_mod3(strand),
        position_sums=position_sums(strand, position_sum_modulus(n)),
    )


def c2d_membership(strand, params: C2dParams) -> bool:
    """Is the strand a codeword of ``params``: its length, a regular
    signature, then the syndromes :func:`c2d_params_of` reads off it."""
    strand = as_strand(strand, empty=True)
    return (len(strand) == as_type(params, C2dParams).n
            and is_regular(signature(strand), default_regular_window(params.n))
            and c2d_params_of(strand) == params)


def _deleted_values(received, counts) -> list[int]:
    out = []
    for v, want, have in zip(ALPHABET, counts, symbol_counts_mod3(received)):
        d = (want - have) % 3
        if d == 2 and len(out) >= 2:
            raise DecodeFailure("symbol counts inconsistent with two deletions")
        out.extend([v] * d)
    return out


def c2d_decode(received, params: C2dParams) -> Strand:
    """Recover a codeword from at most two deletions.

    The signature comes back through the sketch; the deleted symbol values
    through the counts.  Placement is resolved by the run-weighted sum, and,
    for deletions inside alternating signature segments where that sum is
    blind, by the per-symbol position sums.
    """
    received = as_strand(received, empty=True)
    n = as_type(params, C2dParams).n
    k = n - len(received)
    if k not in (0, 1, 2):
        raise ParameterError("received length incompatible with two deletions")
    if k == 0:
        return received

    sig_short = signature(received) if len(received) >= 2 else ()
    sig_candidates = _completions(sig_short, n - 1, params.sketch)
    values = _deleted_values(received, params.counts)
    if len(values) != k:
        raise DecodeFailure("symbol counts disagree with the received length")

    window = default_regular_window(n)
    # Two lost values go back in either order; equal values give one order.
    orders = {tuple(values), tuple(values[::-1])} if k == 2 else ()
    survivors: set[Strand] = set()
    for sig in sig_candidates:
        if not is_regular(sig, window):
            continue
        words = matching_insertions(received, values[0], sig, sig_short) if k == 1 else set()
        for v1, v2 in orders:
            words |= pair_insertions(received, v1, v2, sig, sig_short)
        if words:
            runs = run_sequence(sig)
            survivors.update(y for y in words if _run_weighted(y, runs) == params.run_weighted
                             and params.position_sums == position_sums(y, params.pos_modulus))
    return unique(survivors, "strands consistent with all syndromes")


# ---------------------------------------------------------------------------
# Double-defect tuples.


@dataclass(frozen=True)
class Sdcc2Params:
    """Residues for a double-defect tuple: cover strands in the quaternary
    two-deletion code, remaining signatures in the array code plus per-symbol
    position sums."""

    n: int
    cover: tuple[C2dParams, ...]
    sig_arrays: tuple[ArrayCodeParams, ...]
    position_sums: tuple[tuple[int, ...], ...]
    pos_modulus: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "pos_modulus", position_sum_modulus(self.n))
        try:
            fields = (tuple(as_type(c, C2dParams) for c in self.cover),
                      tuple(as_type(a, ArrayCodeParams) for a in self.sig_arrays),
                      tuple(as_ints(s, "position sum", 0) for s in self.position_sums))
        except TypeError:  # a field that is no collection
            raise ParameterError("cover, sig_arrays and position_sums must be sequences") from None
        for name, value in zip(("cover", "sig_arrays", "position_sums"), fields):
            object.__setattr__(self, name, value)
        if len(self.position_sums) != len(self.sig_arrays):
            raise ParameterError("sig_arrays and position_sums need one entry per remaining strand")


def sdcc2_params_of(codeword: SdccCodeword) -> Sdcc2Params:
    n = as_type(codeword, SdccCodeword).n
    # first, so that n < 3 raises the two-deletion code's own message
    cover = tuple(c2d_params_of(x) for x in codeword.bases())
    rows = min(localization_window(n), n - 1)
    m = position_sum_modulus(n)
    rest = codeword.strands[codeword.cover_count:]
    arrays = tuple(array_syndromes(signature(s), rows) for s in rest)
    sums = tuple(position_sums(s, m) for s in rest)
    return Sdcc2Params(n=n, cover=cover, sig_arrays=arrays, position_sums=sums)


def _remaining_strand_decode(r, delta, arr: ArrayCodeParams, sums, modulus: int):
    """Decode one hit remaining strand under a fixed defective-cycle hypothesis;
    ``arr`` holds the syndromes of its n - 1 signature bits."""
    lost = arr.length + 1 - len(r)
    try:
        words = array_candidates(r, delta, lost, arr) if lost <= len(delta) else set()
    except DecodeFailure:
        return set()
    return {y for y in words if position_sums(y, modulus) == sums}


def sdcc2_decode(received, plan: CoverPlan, params: Sdcc2Params) -> tuple[Strand, ...]:
    """Recover the tuple from at most two defective cycles."""
    n = as_type(params, Sdcc2Params).n
    cover_count = _cover_count(plan, len(params.cover))
    received = _received_strands(received, cover_count + len(params.sig_arrays))
    shortfalls = [n - len(r) for r in received]
    if any(not 0 <= s <= 2 for s in shortfalls):
        raise ParameterError("received lengths incompatible with two defects")
    if not any(shortfalls):
        return received
    if all(shortfalls[i] == 0 for i in range(cover_count)):
        raise DecodeFailure("defects missed every cover strand; coverage is broken")

    transmitted = []
    schedules = []
    per_cover_options = []
    for i in range(cover_count):
        a = plan.shifts[i]
        if not shortfalls[i]:
            # An unhit cover arrives as sent; its re-timed schedule is the
            # landing recurrence on its symbols started at its shift.
            transmitted.append(received[i])
            schedules.append(frozenset(cycles(received[i], a)))
            per_cover_options.append({frozenset()})
            continue
        short = shift_symbols(received[i], -a)
        x = c2d_decode(short, params.cover[i])
        transmitted.append(shift_symbols(x, a))
        sched = cycles(transmitted[i], a)
        schedules.append(frozenset(sched))
        per_cover_options.append({frozenset(sched[p - 1] for p in pos)
                                  for pos in deletion_positions(x, short)})

    # A set of one or two cycles the hit covers could have lost is a
    # hypothesis exactly when the cycles it shares with each cover's schedule
    # are one of that cover's options.
    pool = set().union(*(o for options in per_cover_options for o in options))
    hypotheses = [h for k in (1, 2) for h in map(frozenset, combinations(pool, k))
                  if all(h & sched in options
                         for sched, options in zip(schedules, per_cover_options))]
    if not hypotheses:
        raise DecodeFailure("no defective-cycle set explains all cover strands")

    # An untouched remaining strand rules out a hypothesis that meets its
    # schedule; a hit one decodes to preimages under the hypothesis.
    rest = range(cover_count, len(received))
    untouched = set().union(*(cycles(received[j]) for j in rest if not shortfalls[j]))
    outcomes: set[tuple[Strand, ...]] = set()
    for delta in hypotheses:
        if delta & untouched:
            continue
        out = transmitted + list(received[cover_count:])
        for j in (j for j in rest if shortfalls[j]):
            words = _remaining_strand_decode(
                received[j], delta, params.sig_arrays[j - cover_count],
                params.position_sums[j - cover_count], params.pos_modulus)
            if len(words) != 1:
                break
            out[j] = words.pop()
        else:
            outcomes.add(tuple(out))
    return unique(outcomes, "tuples consistent with the channel")


# ---------------------------------------------------------------------------
# Witness construction for tests and experiments.


def template_strand(n: int, start: int) -> Strand:
    """Gap-one schedule: symbols step through the template from ``start``."""
    as_int(start, "template start")
    return tuple(smod4(start + i) for i in range(as_int(n, "strand length")))


def random_member_1sdcc(n: int, m: int, seed: int = 0):
    """A deterministic member tuple with four template cover strands (one per
    block) and seeded random remaining strands, together with its plan and
    derived residues."""
    codeword, plan = _seeded_member(n, m, seed, 4)
    return codeword, plan, sdcc1_params_of(codeword)


def random_member_2sdcc(n: int, m: int, seed: int = 0):
    """As above for the double-defect code, with eight cover strands, two per
    block: one template strand and one seeded random."""
    codeword, plan = _seeded_member(n, m, seed, 8)
    return codeword, plan, sdcc2_params_of(codeword)


def _seeded_member(n: int, m: int, seed: int, cover_count: int):
    """(codeword, plan) of a seeded tuple: per block one template strand and
    cover_count / 4 - 1 random ones, then m - cover_count random strands."""
    for name, value in (("n", n), ("m", m), ("seed", seed)):
        as_int(value, name)
    if m < cover_count:
        raise ParameterError(f"m={m} is below the cover count {cover_count}")
    rng = SplitMix(seed)
    per_block = cover_count // 4
    covers = []
    for _ in range(4):
        covers.append(template_strand(n, 1 + rng.randrange(0, 4)))
        for _ in range(per_block - 1):
            covers.append(rng.strand(n))
    rest = [rng.strand(n) for _ in range(m - cover_count)]
    plan = select_cover_shifts(covers)
    strands = tuple(shift_symbols(x, a) for x, a in zip(covers, plan.shifts))
    return SdccCodeword(strands=strands + tuple(rest), shifts=plan.shifts), plan
