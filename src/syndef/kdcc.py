"""Known-defect correcting codes: the defective cycles are side information,
and each family pins down the lost symbols through a different syndrome.

Three families are implemented.  ``sum1`` constrains the sum of even-position
symbols mod 4 and corrects one defect.  ``svt1`` sends the signature into a
shifted VT code with window 5, again for one defect.  ``array2`` sends the
signature into the 9-row array code and corrects two defects.

This module owns known-cycle strand recovery: the signature window an
insertion slot confines, the windowed shifted-VT and array decodes, and
Algorithm 1's reinsertion.  The tuple codes in :mod:`syndef.sdcc` decode their
remaining strands through :func:`svt1_candidates` and :func:`array_candidates`
once the cover strands localise the defect.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, cycle, product

from .array_code import (
    ArrayCodeParams,
    array_bounded_decode,
    array_single_bounded_decode,
    array_syndromes,
)
from .binary import SvtParams, as_bits, svt_decode, vt_syndrome, weight
from .core import (
    ALPHABET,
    DecodeFailure,
    ParameterError,
    Strand,
    _insert_slot_positions,
    all_strands,
    apply_defects,
    as_int,
    as_ints,
    as_strand,
    as_type,
    matching_insertions,
    pair_insertions,
    reinsertions,
    signature,
    smod4,
    unique,
)

FAMILIES = ("sum1", "svt1", "array2")
ARRAY2_ROWS = 9
# _STEP_BITS[last - 1]: the signature bit that each next symbol adds after ``last``.
_STEP_BITS = tuple(tuple(int(v >= last) for v in ALPHABET) for last in ALPHABET)


@dataclass(frozen=True)
class KdccSpec:
    """Codebook descriptor: family name, strand length, residue vector."""

    family: str
    n: int
    residues: dict

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ParameterError(f"unknown family {self.family!r}")
        as_int(self.n, "strand length", 1 if self.family == "sum1" else 3)
        r = self.residues
        keys = {"a"} if self.family == "sum1" else {"a", "b"}
        if not isinstance(r, dict) or set(r) != keys:
            raise ParameterError(
                f"{self.family} residues must be an object with keys {sorted(keys)}")
        if self.family == "sum1":
            ok = as_int(r["a"], "residue", 0) < 4
        elif self.family == "svt1":
            ok = as_int(r["a"], "residue", 0) < 5 and as_int(r["b"], "residue", 0) < 2
        else:
            ok = (isinstance(r["a"], (list, tuple)) and len(r["a"]) == ARRAY2_ROWS
                  and all(as_int(v, "residue", 0) < 3 for v in r["a"])
                  and as_int(r["b"], "residue", 0) < array2_params(self).modulus)
        if not ok:
            raise ParameterError(f"residues {r!r} out of range for family {self.family}")

    def to_json(self) -> dict:
        return {"family": self.family, "n": self.n, "residues": self.residues}

    @staticmethod
    def from_json(data) -> "KdccSpec":
        try:
            family, n, residues = data["family"], data["n"], data["residues"]
        except (KeyError, TypeError):
            raise ParameterError("malformed codebook spec") from None
        return KdccSpec(family=family, n=n, residues=residues)


@dataclass(frozen=True)
class KnownDefectInstance:
    """Decoder input: the shortened strand, the defective cycles, and the
    original length.  The strand is normalised to a tuple of symbols in
    {1, 2, 3, 4}, and may be empty when every symbol can have been lost; the
    defective cycles to a tuple of distinct positive ints."""

    received: Strand
    delta: tuple[int, ...]
    n: int

    def __post_init__(self):
        as_int(self.n, "strand length", 1)
        delta = as_ints(self.delta, "defective cycle", 1)
        if len(set(delta)) != len(delta):
            raise ParameterError(f"defective cycles must be distinct, got {self.delta!r}")
        object.__setattr__(self, "delta", delta)
        try:
            received = as_strand(self.received, empty=True)
        except ParameterError:  # a symbol outside the alphabet, or no strand
            raise ParameterError("received strand must hold symbols of {1,2,3,4}, "
                                 f"got {self.received!r}") from None
        object.__setattr__(self, "received", received)
        if len(self.received) < self.n - len(self.delta):
            raise ParameterError("received strand shorter than the defect count allows")


def _shortfall(instance: KnownDefectInstance, family: str, size: int) -> int:
    """Symbols the instance lost, once it is checked against a family that
    corrects ``size`` known defective cycles."""
    if len(instance.delta) != size:
        raise ParameterError(f"{family} corrects exactly {size} defective cycle(s)")
    if family != "sum1" and instance.n < 3:
        raise ParameterError(f"{family} needs n >= 3")
    k = instance.n - len(instance.received)
    if not 0 <= k <= size:
        raise ParameterError(f"received length incompatible with {size} defect(s)")
    return k


def even_position_sum(strand) -> int:
    return sum(as_strand(strand)[1::2])


def array2_params(spec: KdccSpec) -> ArrayCodeParams:
    if as_type(spec, KdccSpec).family != "array2":
        raise ParameterError(f"family {spec.family} has no array code")
    return ArrayCodeParams(rows=ARRAY2_ROWS, length=spec.n - 1,
                           row_sums=tuple(spec.residues["a"]),
                           weighted_vt=spec.residues["b"])


def syndrome_key(family: str, strand):
    """The family's syndromes of a strand, as a hashable key."""
    if family == "sum1":
        return even_position_sum(strand) % 4
    return _signature_key(family, signature(strand))


def _signature_key(family: str, sig):
    """The syndromes of a signature family, from the strand's signature."""
    if family == "svt1":
        return vt_syndrome(sig) % 5, weight(sig) % 2
    p = array_syndromes(sig, ARRAY2_ROWS)
    return p.row_sums, p.weighted_vt


@lru_cache(maxsize=1, typed=True)
def _sweep_keys(family: str, n: int) -> list:
    """:func:`syndrome_key` of every strand of length ``n``, in
    :func:`all_strands` order.  The last sweep is kept, so a task that picks
    the best residues and then lists that codebook sweeps once; no caller
    mutates the list.

    The keys are built by prefix extension, one symbol at a time.  ``sum1``
    extends each prefix's even-position sum.  The signature families extend
    each prefix's signature as an int (first bit on top) and then look it up
    in a table that holds the key of every signature, so each of the
    2^(n-1) keys is computed once."""
    if family == "sum1":
        sums = [0]
        for pos in range(1, n + 1):
            step = ALPHABET if pos % 2 == 0 else (0,) * len(ALPHABET)
            sums = [(t + v) % 4 for t in sums for v in step]
        return sums
    table = [_signature_key(family, sig) for sig in product((0, 1), repeat=n - 1)]
    # A prefix's last symbol is its index mod 4, plus one.
    sigs = [0] * len(ALPHABET)
    for _ in range(n - 2):
        sigs = [2 * s + b for s, bits in zip(sigs, cycle(_STEP_BITS)) for b in bits]
    return [table[2 * s + b] for s, bits in zip(sigs, cycle(_STEP_BITS)) for b in bits]


def _residues_of(family: str, key) -> dict:
    if family == "sum1":
        return {"a": key}
    if family == "svt1":
        return {"a": key[0], "b": key[1]}
    return {"a": list(key[0]), "b": key[1]}


def _key_of(spec: KdccSpec):
    """Inverse of :func:`_residues_of`."""
    r = spec.residues
    if spec.family == "sum1":
        return r["a"]
    if spec.family == "svt1":
        return r["a"], r["b"]
    return tuple(r["a"]), r["b"]


def membership(spec: KdccSpec, strand) -> bool:
    """Does the strand satisfy the family's syndrome constraints?"""
    strand = as_strand(strand)
    return (len(strand) == as_type(spec, KdccSpec).n
            and syndrome_key(spec.family, strand) == _key_of(spec))


def spec_for_strand(family: str, strand) -> KdccSpec:
    """The residue class containing a given strand."""
    strand = as_strand(strand)
    return KdccSpec(family, len(strand), _residues_of(family, syndrome_key(family, strand)))


def decode_sum1(instance: KnownDefectInstance, a: int) -> Strand:
    """Single known defect: at most four cycle-consistent insertions exist and
    the even-position sum mod 4 separates them."""
    as_int(a, "sum1 residue a")
    if _shortfall(as_type(instance, KnownDefectInstance), "sum1", 1) == 0:
        return instance.received
    return _sum1_hit(instance.received, instance.delta[0], a)


def _sum1_hit(received, d: int, a: int) -> Strand:
    """:func:`decode_sum1` once the symbol at cycle ``d`` is known lost.

    Inserting at slot p keeps the prefix's even positions, puts the symbol at
    p, and moves the suffix's odd positions (0-based even) onto even ones, so
    each slot's sum takes two slice sums and only the returned word is built.
    """
    value = smod4(d)
    found = [p for p in _insert_slot_positions(received, d)
             if (sum(received[1:p - 1:2]) + (0 if p % 2 else value)
                 + sum(received[p - 1 + (p - 1) % 2::2])) % 4 == a % 4]
    p = unique(found, "insertions match the even-position sum")
    return received[:p - 1] + (value,) + received[p - 1:]


def algorithm1_recover(received, delta, sig) -> Strand:
    """Reinstate defect-deleted symbols one cycle at a time, guided by the
    original signature.

    Candidate slots per defect come from the cycle structure (at most four,
    consecutive); the monotonicity pattern recorded in the signature singles
    out one completion, which is verified against the inputs before returning.

    This is the multi-cycle reference: it builds every reinsertion and checks
    its whole signature and channel output.  The decoders take the one-cycle
    case by the slot test of :func:`_recover_each` and the two-cycle case by
    :func:`pair_insertions` over the slot table; the tests hold both against
    this function.
    """
    received, sig = as_strand(received, empty=True), as_bits(sig)
    delta = tuple(sorted(set(as_ints(delta, "defective cycle"))))
    if not delta:
        return received
    frontier = reinsertions(received, delta)
    hit = set(delta)
    final = {y for y in frontier
             if signature(y) == sig and apply_defects(y, hit) == received}
    if not final:
        raise DecodeFailure("no signature-consistent reinsertion exists")
    if len(final) > 1:
        raise DecodeFailure("signature does not single out one reinsertion")
    return final.pop()


def _signature_window(first: int, last: int, sig_len: int):
    """(start, width) of the signature bits that a symbol reinstated at a
    1-based slot in [first, last] can remove: bits first-1 to last, clipped to
    a signature of ``sig_len`` bits."""
    lo, hi = max(1, first - 1), min(last, sig_len)
    return lo, hi - lo + 1


def _recover_each(received, own, sig, cycle_slots) -> set[Strand]:
    """Algorithm 1's one-cycle case, once per (cycle, insertion slots) pair
    of ``cycle_slots``, where ``own`` is the signature of ``received``: a
    cycle's word is kept exactly when one of its slots gives the signature
    ``sig`` (:func:`matching_insertions`).

    Distinct slots give distinct words, and the one symbol a single-cycle
    reinsertion puts at that cycle is the inserted one, so Algorithm 1's
    channel re-check holds by construction."""
    found = set()
    for d, slots in cycle_slots:
        words = matching_insertions(received, smod4(d), sig, own, slots)
        if len(words) == 1:
            found.update(words)
    return found


def svt1_candidates(received, cycles, params: SvtParams) -> set[Strand]:
    """One known defect at one of ``cycles``: the shifted VT code recovers the
    signature over the window of every cycle's insertion slots, and
    Algorithm 1's slot test reinstates each cycle under it."""
    cycle_slots = [(d, _insert_slot_positions(received, d)) for d in cycles]
    slots = [p for _, ps in cycle_slots for p in ps]
    if not slots:
        raise DecodeFailure("no cycle-consistent insertion for the defective cycle")
    start, width = _signature_window(min(slots), max(slots), len(received))
    if width > params.window:
        raise DecodeFailure("defect window wider than the shifted-VT code tolerates")
    own = signature(received)
    return _recover_each(received, own, svt_decode(own, start, params), cycle_slots)


def decode_svt1(instance: KnownDefectInstance, a: int, b: int) -> Strand:
    """Single known defect via the signature: the defect confines the missing
    signature bit to a five-wide window, which the shifted VT code corrects."""
    if _shortfall(as_type(instance, KnownDefectInstance), "svt1", 1) == 0:
        return instance.received
    return _svt1_hit(instance.received, instance.delta, SvtParams(a=a, b=b, window=5))


def _svt1_hit(received, delta, params: SvtParams) -> Strand:
    """:func:`decode_svt1` once a symbol at a cycle of ``delta`` is known lost."""
    found = svt1_candidates(received, delta, params)
    return unique(found, "insertions match the signature")


def hit_decoder(spec: KdccSpec):
    """The ``sum1`` or ``svt1`` decoder of a strand that lost its symbol at a
    known cycle, as a function of (received, cycle) that returns the strand or
    raises :class:`DecodeFailure`.

    It skips the instance checks of :func:`decode`, which then takes the same
    path, so ``received`` must be a strand over {1, 2, 3, 4} of length n - 1,
    as a sweep over the codebook makes them."""
    r = as_type(spec, KdccSpec).residues
    if spec.family == "sum1":
        return lambda received, d: _sum1_hit(received, d, r["a"])
    if spec.family == "svt1":
        params = SvtParams(a=r["a"], b=r["b"], window=5)
        return lambda received, d: _svt1_hit(received, (d,), params)
    raise ParameterError(f"family {spec.family} corrects two defective cycles")


def _slot_table(received, d1: int, d2: int) -> dict[int, tuple[Strand, list[int]]]:
    """Each slot p at which a symbol reinstated into ``received`` lands at
    cycle ``d1``, with the once-grown word and its slots q > p at ``d2``, the
    scan resumed after symbol p at cycle d1.  No slot q <= p gives a preimage:
    the symbols ahead of q sit below d1, so the first symbol would land past
    d2 and nothing on d1; the channel would drop one symbol, not two."""
    value = smod4(d1)
    table = {}
    for p in _insert_slot_positions(received, d1):
        grown = received[:p - 1] + (value,) + received[p - 1:]
        table[p] = grown, _insert_slot_positions(grown, d2, p + 1, d1)
    return table


def _signature_windows(table, sig_len: int):
    """Pairs of intervals in signature coordinates covering the two missing
    signature bits, derived from the slot table of :func:`_slot_table`.

    The first symbol reinserts at index i1 within a run of at most four
    consecutive slots and removes signature bit i1-1 or i1; the second lands
    at i2 in the once-grown word and removes a bit in [i2-2, i2].  Over all
    first slots the windows are at most 5 and 9 wide unless the second slots
    move with the first (for example from 8-11 to 12-15); then each first
    slot gets its own pair of windows.  The first slots ascend, and so does
    each list of second slots, so the ends of each list bound its window.
    """
    seconds = [(p, qs) for p, (_, qs) in table.items() if qs]
    if not seconds:
        return []
    firsts = list(table)
    union = (_signature_window(firsts[0], firsts[-1], sig_len),
             _signature_window(min(qs[0] for _, qs in seconds) - 1,
                               max(qs[-1] for _, qs in seconds), sig_len))
    if union[0][1] <= 5 and union[1][1] <= 9:
        return [union]
    return [(_signature_window(p, p, sig_len), _signature_window(qs[0] - 1, qs[-1], sig_len))
            for p, qs in seconds]


def array_candidates(received, delta, lost: int, params: ArrayCodeParams) -> set[Strand]:
    """The reinsertions of ``received`` that the channel maps back onto it once
    it ``lost`` symbols to ``delta`` and whose signature the array code
    recovers.

    Two lost, both cycles hit: the words of the slot table
    (:func:`pair_insertions`) whose signature the array code recovers from
    the insertion windows.  Each is a preimage under the cycles d1 < d2: the
    symbols before slot p sit below d1, the middle lies between d1 and d2, and
    the rest above them.  With one pair of windows a decode failure
    propagates; with one pair per first slot, each decode that fails rules out
    its slot.  One lost: a word at any cycle whose insertion window decodes,
    leaving the others empty.
    """
    found = set()
    if lost == 2:
        d1, d2 = sorted(delta)
        table = _slot_table(received, d1, d2)
        pairs = _signature_windows(table, len(received) + 1)
        own = signature(received) if len(received) >= 2 else ()
        sigs = set()
        for pair in pairs:
            try:
                sigs.add(array_bounded_decode(own, pair, params))
            except DecodeFailure:
                if len(pairs) == 1:
                    raise
        for sig in sigs:
            found |= pair_insertions(received, smod4(d1), smod4(d2), sig, own, table)
        return found
    own = signature(received)
    for d in delta:
        slots = _insert_slot_positions(received, d)
        if slots:
            window = _signature_window(min(slots), max(slots), len(received))
            try:
                sig = array_single_bounded_decode(own, window, params)
            except DecodeFailure:
                continue
            found |= {y for y in _recover_each(received, own, sig, [(d, slots)])
                      if apply_defects(y, delta) == received}
    return found


def decode_array2(instance: KnownDefectInstance, params: ArrayCodeParams) -> Strand:
    """Two known defects: signature windows of widths 5 and 9 feed the array
    code, and the cycle structure reinstates the symbols.

    With one missed cycle, each is tried as the only hit.  Every candidate is a
    preimage (:func:`array_candidates`), so the channel is not re-run.  A twin
    in the confusable ball makes the decode fail closed: 3,910 of 172,800
    one-hit decodes at n = 24 (``TestDecodeArray2`` checks n = 4 and 5).
    """
    k = _shortfall(as_type(instance, KnownDefectInstance), "array2", 2)
    if k == 0:
        return instance.received
    found = array_candidates(instance.received, tuple(sorted(instance.delta)), k,
                             as_type(params, ArrayCodeParams))
    hits = "one hit" if k == 1 else "two hits"
    return unique(found, "strands consistent with {}", hits)


def decode(spec: KdccSpec, instance: KnownDefectInstance) -> Strand:
    if as_type(spec, KdccSpec).family == "sum1":
        return decode_sum1(instance, spec.residues["a"])
    if spec.family == "svt1":
        return decode_svt1(instance, spec.residues["a"], spec.residues["b"])
    return decode_array2(instance, array2_params(spec))


def best_residues(family: str, n: int):
    """Residues maximising the codebook size, and that size: exhaustive over
    Sigma^n, counting the keys of :func:`_sweep_keys`.  Ties go to the larger
    key string."""
    if family not in FAMILIES:
        raise ParameterError(f"unknown family {family!r}")
    as_int(n, "strand length", 1 if family == "sum1" else 3)
    counts = Counter(_sweep_keys(family, n))
    key, size = max(counts.items(), key=lambda kv: (kv[1], str(kv[0])))
    return KdccSpec(family, n, _residues_of(family, key)), size


def enumerate_codebook(spec: KdccSpec) -> list[Strand]:
    """All members of the residue class, in lexicographic order: the strands
    whose :func:`_sweep_keys` entry is the spec's key."""
    target = _key_of(as_type(spec, KdccSpec))
    keys = _sweep_keys(spec.family, spec.n)
    return list(compress(all_strands(spec.n), [k == target for k in keys]))
