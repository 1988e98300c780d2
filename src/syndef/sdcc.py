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
from dataclasses import dataclass

from .array_code import ArrayCodeParams, array_syndromes
from .binary import SvtParams, vt_decode, vt_syndrome, weight
from .core import (
    ALPHABET,
    ConstructionError,
    DecodeFailure,
    ParameterError,
    Strand,
    apply_defects_shifted,
    as_strand,
    cycles,
    default_regular_window,
    is_regular,
    run_sequence,
    shift_symbols,
    signature,
    smod4,
    symbol_positions,
    unshift_symbols,
)
from .kdcc import array1_candidates, array2_candidates, svt1_candidates
from .rng import SplitMix
from .sketch import _completions, moment_vector

LOG43 = 2 - math.log2(3)


def cover_group_size(n: int) -> int:
    """Strands per template block needed to cover it for arbitrary content."""
    return math.ceil(math.log2(n) / LOG43) + 1


def default_cover_count(n: int) -> int:
    return 4 * cover_group_size(n)


def localization_window(n: int) -> int:
    """Defect-window bound once cover signatures are regular."""
    return math.ceil(28 * math.log2(n)) + 5


def position_sum_modulus(n: int) -> int:
    return math.ceil(14 * math.log2(n))


def position_sums(strand, m: int) -> tuple[int, ...]:
    """Sum of the 1-based positions of each symbol, mod ``m``."""
    return tuple(sum(symbol_positions(strand, v)[1]) % m for v in ALPHABET)


def symbol_counts_mod3(strand) -> tuple[int, ...]:
    """Count of each symbol, mod 3."""
    return tuple(symbol_positions(strand, v)[0] % 3 for v in ALPHABET)


@dataclass(frozen=True)
class CoverPlan:
    """Shifts assigned to the cover strands, one template block at a time."""

    n: int
    shifts: tuple[int, ...]

    @property
    def cover_count(self) -> int:
        return len(self.shifts)


def plan_covers(strands, plan: CoverPlan) -> bool:
    """Do the shifted cover schedules occupy every cycle of [1, 4n]?"""
    covered = set()
    for base, a in zip(strands, plan.shifts):
        covered.update(c + a for c in cycles(base))
    return set(range(1, 4 * plan.n + 1)) <= covered


def select_cover_shifts(strands, n: int | None = None) -> CoverPlan:
    """Greedy shift selection: each of the four template blocks is covered by
    its own group of strands, every step claiming at least a quarter of the
    still-uncovered cycles of the block window.

    The alignment base is clamped into the strand's feasible shift range; the
    four candidate shifts above the base jointly cover the whole block window,
    which is what the quarter-per-step pigeonhole needs.
    """
    strands = [tuple(s) for s in strands]
    if n is None:
        n = len(strands[0])
    if len(strands) % 4 != 0:
        raise ParameterError("cover strands must split into four block groups")
    group = len(strands) // 4
    shifts: list[int] = []
    for block in range(4):
        t = block * n + 1
        window = set(range(t, t + n))
        uncovered = set(window)
        for c in strands[block * group:(block + 1) * group]:
            sched = cycles(c)
            lo, hi = 1 - sched[0], 4 * n - sched[-1]
            base = max(lo, min(t - sched[0], hi - 3))
            if base + 3 > hi:
                raise ConstructionError("no feasible shift candidates for a cover strand")
            best_a, best_cover = None, -1
            for a in range(base, base + 4):
                got = len(uncovered.intersection(x + a for x in sched))
                if got > best_cover:
                    best_a, best_cover = a, got
            if uncovered and best_cover < -(-len(uncovered) // 4):
                raise ConstructionError("cover step claimed less than a quarter")
            shifts.append(best_a)
            uncovered.difference_update(x + best_a for x in sched)
        if uncovered:
            raise ConstructionError(f"block [{t}, {t + n - 1}] left uncovered")
    plan = CoverPlan(n=n, shifts=tuple(shifts))
    if not plan_covers(strands, plan):
        raise ConstructionError("selected shifts do not cover all cycles")
    return plan


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
        return tuple(unshift_symbols(s, a) for s, a in zip(self.strands, self.shifts))

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
        cw = SdccCodeword(strands=tuple(as_strand(s) for s in data["strands"]),
                          shifts=tuple(data["shifts"]))
        if len(cw.strands) != data["m"] or cw.cover_count != data["cover_count"] \
                or any(len(s) != data["n"] for s in cw.strands):
            raise ParameterError("tuple JSON header disagrees with payload")
        if cw.cover_count > len(cw.strands):
            raise ParameterError("more shifts than strands")
        for s, a in zip(cw.strands, cw.shifts):
            if type(a) is not int:
                raise ParameterError(f"shift {a!r} is not an integer")
            sched = cycles(unshift_symbols(s, a))
            lo, hi = 1 - sched[0], 4 * len(s) - sched[-1]
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
    window: int
    regular_window: int


def sdcc1_params_of(codeword: SdccCodeword, regular_window: int | None = None) -> Sdcc1Params:
    """Read the residues off a tuple, making it a member of its own class."""
    n = codeword.n
    window = min(localization_window(n), n - 2)
    regular_window = regular_window or default_regular_window(n)
    s, b, d, e = [], [], [], []
    for x in codeword.bases():
        s.append(sum(x) % 4)
        sig = signature(x)
        if not is_regular(sig, regular_window):
            raise ParameterError("cover signature is not regular at this window")
        b.append(vt_syndrome(sig) % (n + 1))
    for strand in codeword.strands[codeword.cover_count:]:
        sig = signature(strand)
        d.append(vt_syndrome(sig) % (window + 1))
        e.append(weight(sig) % 2)
    return Sdcc1Params(n=n, s=tuple(s), b=tuple(b), d=tuple(d), e=tuple(e),
                       window=window, regular_window=regular_window)


def _common_prefix(u, v) -> int:
    """Length of the longest common prefix of two sequences."""
    k, top = 0, min(len(u), len(v))
    while k < top and u[k] == v[k]:
        k += 1
    return k


def _common_suffix(u, v) -> int:
    """Length of the longest common suffix of two sequences."""
    k, top = 0, min(len(u), len(v))
    while k < top and u[-1 - k] == v[-1 - k]:
        k += 1
    return k


def _matching_slots(word, value: int, sig) -> list[int]:
    """1-based slots at which inserting ``value`` into ``word`` gives a word
    whose signature is exactly ``sig``.

    An insertion at slot p rewrites only signature bits p-1 and p (1-based):
    the bits before them are the word's own and the bits after them the word's
    moved one place right.  So slot p needs the common prefix of the word's
    signature and ``sig`` to reach p-2, their common suffix to reach back to
    p+1, and two bit comparisons.
    """
    n = len(word)
    if len(sig) != n:
        return []
    own = () if n == 1 else signature(word)
    first, last = n - _common_suffix(own, sig), _common_prefix(own, sig) + 2
    return [p for p in range(first, last + 1)
            if (p == 1 or (value >= word[p - 2]) == sig[p - 2])
            and (p == n + 1 or (word[p - 1] >= value) == sig[p - 1])]


def _insert_matching_signature(word, value: int, sig) -> set[Strand]:
    """Words obtained by inserting ``value`` into ``word`` whose signature is
    exactly ``sig``."""
    return {word[:p - 1] + (value,) + word[p - 1:]
            for p in _matching_slots(word, value, sig)}


def _deleted_positions(full: Strand, short: Strand) -> list[int]:
    """All 1-based positions whose deletion from ``full`` yields ``short``:
    the positions p with ``full[:p-1]`` inside the words' common prefix and
    ``full[p:]`` inside their common suffix."""
    if len(short) != len(full) - 1:
        return []
    return list(range(len(full) - _common_suffix(full, short),
                      _common_prefix(full, short) + 2))


def _received_strands(received, count: int) -> tuple[Strand, ...]:
    """A received tuple checked to hold ``count`` strands over {1, 2, 3, 4}."""
    received = tuple(received)
    if len(received) != count:
        raise ParameterError(f"received {len(received)} strands, the code has {count}")
    return tuple(as_strand(r) for r in received)


def sdcc1_decode(received, plan: CoverPlan, params: Sdcc1Params):
    """Recover the tuple from at most one defective cycle.

    Returns (strands, window) where window is the [lo, hi] cycle interval the
    defect was confined to, or None when nothing was hit.
    """
    n = params.n
    cover_count = plan.cover_count
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
        x_short = unshift_symbols(received[i], a)
        sig = vt_decode(signature(x_short), params.b[i], n - 1, modulus=n + 1)
        value = smod4(params.s[i] - sum(x_short))
        words = _insert_matching_signature(x_short, value, sig)
        if len(words) != 1:
            raise DecodeFailure("cover strand reconstruction is not unique")
        x = words.pop()
        sched = cycles(x)
        cands = {sched[p - 1] + a for p in _deleted_positions(x, x_short)}
        delta_candidates = cands if delta_candidates is None else delta_candidates & cands
        out[i] = shift_symbols(x, a)
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
    pos_modulus: int
    regular_window: int


def run_weighted_sum(strand) -> int:
    """Symbols weighted by the run index of their signature position, mod 4n."""
    sig = signature(strand)
    runs = run_sequence(sig)
    return sum(v * r for v, r in zip(strand, runs)) % (4 * len(strand))


def c2d_params_of(strand, regular_window: int | None = None) -> C2dParams:
    strand = tuple(strand)
    n = len(strand)
    if n < 3:
        raise ParameterError("two-deletion coding needs n >= 3")
    sig = signature(strand)
    regular_window = regular_window or default_regular_window(n)
    if not is_regular(sig, regular_window):
        raise ParameterError("signature is not regular at this window")
    m = position_sum_modulus(n)
    return C2dParams(
        n=n,
        sketch=moment_vector(sig),
        run_weighted=run_weighted_sum(strand),
        counts=symbol_counts_mod3(strand),
        position_sums=position_sums(strand, m),
        pos_modulus=m,
        regular_window=regular_window,
    )


def c2d_membership(strand, params: C2dParams) -> bool:
    strand = tuple(strand)
    if len(strand) != params.n:
        return False
    sig = signature(strand)
    if not is_regular(sig, params.regular_window):
        return False
    if moment_vector(sig) != params.sketch:
        return False
    if run_weighted_sum(strand) != params.run_weighted:
        return False
    return (params.counts == symbol_counts_mod3(strand)
            and params.position_sums == position_sums(strand, params.pos_modulus))


def _deleted_values(received, counts) -> list[int]:
    out = []
    for v, want, have in zip(ALPHABET, counts, symbol_counts_mod3(received)):
        d = (want - have) % 3
        if d == 2 and len(out) >= 2:
            raise DecodeFailure("symbol counts inconsistent with two deletions")
        out.extend([v] * d)
    return out


def _strand_checks(y, params: C2dParams) -> bool:
    if run_weighted_sum(y) != params.run_weighted:
        return False
    return params.position_sums == position_sums(y, params.pos_modulus)


def c2d_decode(received, params: C2dParams, n: int | None = None) -> Strand:
    """Recover a codeword from at most two deletions.

    The signature comes back through the sketch; the deleted symbol values
    through the counts.  Placement is resolved by the run-weighted sum, and,
    for deletions inside alternating signature segments where that sum is
    blind, by the per-symbol position sums.
    """
    received = tuple(received)
    n = n or params.n
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

    survivors: set[Strand] = set()
    for sig in sig_candidates:
        if not is_regular(sig, params.regular_window):
            continue
        if k == 1:
            for y in _insert_matching_signature(received, values[0], sig):
                if _strand_checks(y, params):
                    survivors.add(y)
        else:
            for y in _double_insertions_matching(received, values, sig):
                if _strand_checks(y, params):
                    survivors.add(y)
    if len(survivors) != 1:
        raise DecodeFailure(f"{len(survivors)} strands consistent with all syndromes")
    return survivors.pop()


def _double_insertions_matching(received, values, sig) -> set[Strand]:
    """Words reached by inserting the two values (in either order) whose
    signature equals ``sig``.

    The search corridor comes from aligning the received signature against
    the target: the first insertion cannot sit past the leftmost signature
    mismatch and the second cannot sit before the rightmost one.  Each first
    placement then leaves a one-insertion slot test.
    """
    n = len(received) + 2
    sr = signature(received) if len(received) >= 2 else ()
    p_max = min(_common_prefix(sr, sig) + 3, n - 1)
    q_min = max(2, len(sig) - _common_suffix(sr, sig) - 1)
    orders = {(values[0], values[1]), (values[1], values[0])}
    out: set[Strand] = set()
    for v1, v2 in orders:
        for p in range(1, p_max + 1):
            w1 = received[:p - 1] + (v1,) + received[p - 1:]
            for q in _matching_slots(w1, v2, sig):
                if q > p and q >= q_min:
                    out.add(w1[:q - 1] + (v2,) + w1[q - 1:])
    return out


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
    pos_modulus: int
    sig_rows: int


def sdcc2_params_of(codeword: SdccCodeword, regular_window: int | None = None,
                    sig_rows: int | None = None) -> Sdcc2Params:
    n = codeword.n
    rows = sig_rows or min(localization_window(n), n - 1)
    m = position_sum_modulus(n)
    cover = tuple(c2d_params_of(x, regular_window) for x in codeword.bases())
    rest = codeword.strands[codeword.cover_count:]
    arrays = tuple(array_syndromes(signature(s), rows) for s in rest)
    sums = tuple(position_sums(s, m) for s in rest)
    return Sdcc2Params(n=n, cover=cover, sig_arrays=arrays,
                       position_sums=sums, pos_modulus=m, sig_rows=rows)


def _cover_delta_options(x: Strand, short: Strand, sched) -> set[frozenset]:
    """Every set of cycles of ``sched`` (the cover's re-timed schedule) whose
    loss turns ``x`` into ``short``."""
    k = len(x) - len(short)
    if k == 0:
        return {frozenset()}
    if k == 1:
        return {frozenset({sched[p - 1]}) for p in _deleted_positions(x, short)}
    options = set()
    for p in range(1, len(x) + 1):
        once = x[:p - 1] + x[p:]
        for q in _deleted_positions(once, short):
            qq = q if q < p else q + 1
            options.add(frozenset({sched[p - 1], sched[qq - 1]}))
    return options


def _remaining_strand_decode(r, delta, arr: ArrayCodeParams, sums, m, n):
    """Decode one remaining strand under a fixed defective-cycle hypothesis."""
    k = n - len(r)
    if k == 0:
        return {r}
    if k == 1:
        words = {y for d in delta for y in array1_candidates(r, d, arr)}
    elif len(delta) != 2:
        return set()
    else:
        try:
            words = array2_candidates(r, delta, arr)
        except DecodeFailure:
            return set()
    return {y for y in words if position_sums(y, m) == sums}


def sdcc2_decode(received, plan: CoverPlan, params: Sdcc2Params) -> tuple[Strand, ...]:
    """Recover the tuple from at most two defective cycles."""
    n = params.n
    cover_count = plan.cover_count
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
        short = unshift_symbols(received[i], a)
        x = c2d_decode(short, params.cover[i], n)
        sched = tuple(c + a for c in cycles(x))
        transmitted.append(shift_symbols(x, a))
        schedules.append(frozenset(sched))
        per_cover_options.append(_cover_delta_options(x, short, sched))

    # Assemble global hypotheses for the defective-cycle set.
    singles = set()
    pair_sets = None
    for options in per_cover_options:
        if any(len(o) == 2 for o in options):
            pair_sets = options if pair_sets is None else pair_sets
        for o in options:
            singles.update(o)
    hypotheses: set[frozenset] = set()
    if pair_sets is not None:
        hypotheses.update(pair_sets)
    else:
        hypotheses.update(frozenset({d}) for d in singles)
        sorted_singles = sorted(singles)
        hypotheses.update(frozenset({u, v})
                          for ui, u in enumerate(sorted_singles)
                          for v in sorted_singles[ui + 1:])

    # A hypothesis explains a cover exactly when the cycles it shares with the
    # cover's schedule are one of the cover's options.
    hypotheses = [h for h in hypotheses
                  if all(h & sched in options
                         for sched, options in zip(schedules, per_cover_options))]
    if not hypotheses:
        raise DecodeFailure("no defective-cycle set explains all cover strands")

    outcomes: set[tuple[Strand, ...]] = set()
    for delta in hypotheses:
        out = list(received)
        for i in range(cover_count):
            out[i] = transmitted[i]
        ok = True
        for j in range(cover_count, len(received)):
            if shortfalls[j] == 0:
                continue
            idx = j - cover_count
            words = _remaining_strand_decode(
                received[j], delta, params.sig_arrays[idx],
                params.position_sums[idx], params.pos_modulus, n)
            if len(words) != 1:
                ok = False
                break
            out[j] = words.pop()
        if not ok:
            continue
        # The cover filter has proven the covers; a remaining strand, hit or
        # not, still rejects a hypothesis whose cycles it does not explain.
        if all(apply_defects_shifted(out[j], 0, delta) == received[j]
               for j in range(cover_count, len(received))):
            outcomes.add(tuple(out))
    if len(outcomes) != 1:
        raise DecodeFailure(f"{len(outcomes)} tuples consistent with the channel")
    return outcomes.pop()


# ---------------------------------------------------------------------------
# Witness construction for tests and experiments.


def template_strand(n: int, start: int) -> Strand:
    """Gap-one schedule: symbols step through the template from ``start``."""
    return tuple(smod4(start + i) for i in range(n))


def random_member_1sdcc(n: int, m: int, seed: int = 0,
                        regular_window: int | None = None):
    """A deterministic member tuple with four template cover strands (one per
    block) and seeded random remaining strands, together with its plan and
    derived residues."""
    if m < 4:
        raise ParameterError(f"m={m} is below the cover count 4")
    rng = SplitMix(seed)
    covers = [template_strand(n, 1 + rng.randrange(0, 4)) for _ in range(4)]
    rest = [rng.strand(n) for _ in range(m - 4)]
    plan = select_cover_shifts(covers, n)
    strands = tuple(shift_symbols(x, a) for x, a in zip(covers, plan.shifts))
    codeword = SdccCodeword(strands=strands + tuple(rest), shifts=plan.shifts)
    params = sdcc1_params_of(codeword, regular_window)
    return codeword, plan, params


def random_member_2sdcc(n: int, m: int, seed: int = 0, cover_count: int = 8,
                        regular_window: int | None = None,
                        sig_rows: int | None = None):
    """As above for the double-defect code; two template strands per block."""
    if cover_count % 4 != 0:
        raise ParameterError("cover count must split into four blocks")
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
    plan = select_cover_shifts(covers, n)
    strands = tuple(shift_symbols(x, a) for x, a in zip(covers, plan.shifts))
    codeword = SdccCodeword(strands=strands + tuple(rest), shifts=plan.shifts)
    params = sdcc2_params_of(codeword, regular_window, sig_rows)
    return codeword, plan, params
