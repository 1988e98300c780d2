"""Known-defect correcting codes: the defective cycles are side information,
and each family pins down the lost symbols through a different syndrome.

Three families are implemented.  ``sum1`` constrains the sum of even-position
symbols mod 4 and corrects one defect.  ``svt1`` sends the signature into a
shifted VT code with window 5, again for one defect.  ``array2`` sends the
signature into the 9-row array code and corrects two defects.
"""

from __future__ import annotations

from dataclasses import dataclass

from .array_code import (
    ArrayCodeParams,
    array_bounded_decode,
    array_single_bounded_decode,
    array_syndromes,
)
from .binary import SvtParams, svt_decode, vt_syndrome, weight
from .core import (
    DecodeFailure,
    ParameterError,
    Strand,
    _insert_slot_positions,
    _insertions_at_cycle,
    all_strands,
    apply_defects,
    as_strand,
    reinsertions,
    signature,
    smod4,
)

FAMILIES = ("sum1", "svt1", "array2")
ARRAY2_ROWS = 9


@dataclass(frozen=True)
class KdccSpec:
    """Codebook descriptor: family name, strand length, residue vector."""

    family: str
    n: int
    residues: dict

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ParameterError(f"unknown family {self.family!r}")
        if self.family in ("svt1", "array2") and self.n < 3:
            raise ParameterError(f"family {self.family} needs n >= 3")

    def to_json(self) -> dict:
        return {"family": self.family, "n": self.n, "residues": self.residues}

    @staticmethod
    def from_json(data) -> "KdccSpec":
        return KdccSpec(family=data["family"], n=data["n"], residues=data["residues"])


@dataclass(frozen=True)
class KnownDefectInstance:
    """Decoder input: the shortened strand, the defective cycles, and the
    original length."""

    received: Strand
    delta: tuple[int, ...]
    n: int

    def __post_init__(self):
        if len(self.received) < self.n - len(self.delta):
            raise ParameterError("received strand shorter than the defect count allows")


def even_position_sum(strand) -> int:
    return sum(strand[1::2])


def array2_params(spec: KdccSpec) -> ArrayCodeParams:
    return ArrayCodeParams(rows=ARRAY2_ROWS, length=spec.n - 1,
                           row_sums=tuple(spec.residues["a"]),
                           weighted_vt=spec.residues["b"])


def syndrome_key(family: str, strand):
    """The family's syndromes of a strand, as a hashable key."""
    if family == "sum1":
        return even_position_sum(strand) % 4
    sig = signature(strand)
    if family == "svt1":
        return vt_syndrome(sig) % 5, weight(sig) % 2
    p = array_syndromes(sig, ARRAY2_ROWS)
    return p.row_sums, p.weighted_vt


def _residues_of(family: str, key) -> dict:
    if family == "sum1":
        return {"a": key}
    if family == "svt1":
        return {"a": key[0], "b": key[1]}
    return {"a": list(key[0]), "b": key[1]}


def _key_of(spec: KdccSpec):
    """Inverse of :func:`_residues_of`, validating the residues on the way."""
    r = spec.residues
    if spec.family == "sum1":
        return r["a"] % 4
    if spec.family == "svt1":
        p = SvtParams(a=r["a"], b=r["b"], window=5)
        return p.a, p.b
    p = array2_params(spec)
    return p.row_sums, p.weighted_vt


def membership(spec: KdccSpec, strand) -> bool:
    """Does the strand satisfy the family's syndrome constraints?"""
    strand = as_strand(strand)
    return len(strand) == spec.n and syndrome_key(spec.family, strand) == _key_of(spec)


def spec_for_strand(family: str, strand) -> KdccSpec:
    """The residue class containing a given strand."""
    strand = as_strand(strand)
    return KdccSpec(family, len(strand), _residues_of(family, syndrome_key(family, strand)))


def decode_sum1(instance: KnownDefectInstance, a: int) -> Strand:
    """Single known defect: at most four cycle-consistent insertions exist and
    the even-position sum mod 4 separates them."""
    if len(instance.delta) != 1:
        raise ParameterError("sum1 corrects exactly one defective cycle")
    received, n = instance.received, instance.n
    if len(received) == n:
        return received
    if len(received) != n - 1:
        raise ParameterError("received length incompatible with one defect")
    (d,) = instance.delta
    found = {y for y in _insertions_at_cycle(received, d)
             if even_position_sum(y) % 4 == a % 4}
    if len(found) != 1:
        raise DecodeFailure(f"{len(found)} insertions match the even-position sum")
    return found.pop()


def algorithm1_recover(received, delta, sig) -> Strand:
    """Reinstate defect-deleted symbols one cycle at a time, guided by the
    original signature.

    Candidate slots per defect come from the cycle structure (at most four,
    consecutive); the monotonicity pattern recorded in the signature singles
    out one completion, which is verified against the inputs before returning.
    """
    received = as_strand(received) if received else tuple(received)
    delta = tuple(sorted(set(delta)))
    sig = tuple(sig)
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


def decode_svt1(instance: KnownDefectInstance, a: int, b: int) -> Strand:
    """Single known defect via the signature: the defect confines the missing
    signature bit to a five-wide window, which the shifted VT code corrects."""
    if len(instance.delta) != 1:
        raise ParameterError("svt1 corrects exactly one defective cycle")
    received, n = instance.received, instance.n
    if n < 3:
        raise ParameterError("svt1 needs n >= 3")
    if len(received) == n:
        return received
    if len(received) != n - 1:
        raise ParameterError("received length incompatible with one defect")
    (d,) = instance.delta
    slots = _insert_slot_positions(received, d)
    if not slots:
        raise DecodeFailure("no cycle-consistent insertion for the defective cycle")
    window_start = max(1, min(slots) - 1)
    sig = svt_decode(signature(received), window_start,
                     SvtParams(a=a, b=b, window=5))
    return algorithm1_recover(received, (d,), sig)


def _signature_windows(received, d1: int, d2: int, sig_len: int):
    """Pairs of intervals in signature coordinates covering the two missing
    signature bits, derived from the cycle-consistent insertion slots.

    The first symbol reinserts at index i1 within a run of at most four
    consecutive slots and removes signature bit i1-1 or i1; the second lands
    at i2 in the once-grown word and removes a bit in [i2-2, i2].  Over all
    first slots the windows are at most 5 and 9 wide unless the second slots
    move with the first (for example from 8-11 to 12-15); then each first
    slot gets its own pair of windows.
    """
    value = smod4(d1)
    second = {p: _insert_slot_positions(received[:p - 1] + (value,) + received[p - 1:], d2)
              for p in _insert_slot_positions(received, d1)}

    def window(lo, hi):
        lo, hi = max(1, lo), min(hi, sig_len)
        return lo, hi - lo + 1

    def windows(first):
        slots = [q for p in first for q in second[p]]
        if not slots:
            return None
        return window(min(first) - 1, max(first)), window(min(slots) - 2, max(slots))

    union = windows(second)
    if union is None:
        return []
    if union[0][1] <= 5 and union[1][1] <= 9:
        return [union]
    return [w for w in (windows([p]) for p in second) if w is not None]


def array2_candidates(received, delta, params: ArrayCodeParams) -> set[Strand]:
    """Two known defects that both hit: every reinsertion of ``received``
    whose signature the array code recovers from the insertion windows.

    With one pair of windows a decode failure propagates; with one pair per
    first slot, each decode that fails rules out its slot.
    """
    d1, d2 = sorted(delta)
    pairs = _signature_windows(received, d1, d2, len(received) + 1)
    sigs = []
    for pair in pairs:
        try:
            sigs.append(array_bounded_decode(signature(received), pair, params))
        except DecodeFailure:
            if len(pairs) == 1:
                raise
    if not sigs:
        return set()
    return {y for y in reinsertions(received, (d1, d2)) if signature(y) in sigs}


def decode_array2(instance: KnownDefectInstance, params: ArrayCodeParams) -> Strand:
    """Two known defects: signature windows of widths 5 and 9 feed the array
    code, and the cycle structure reinstates the symbols.

    Defective cycles that missed the strand are dispatched by trying every
    subset of the right size; the code property guarantees a unique outcome.
    """
    if len(instance.delta) != 2:
        raise ParameterError("array2 corrects exactly two defective cycles")
    received, n = instance.received, instance.n
    if n < 3:
        raise ParameterError("array2 needs n >= 3")
    k = n - len(received)
    if k not in (0, 1, 2):
        raise ParameterError("received length incompatible with two defects")
    if k == 0:
        return received
    received = as_strand(received)
    delta = tuple(sorted(instance.delta))
    full = set(delta)

    if k == 1:
        found = set()
        for d in delta:
            slots = _insert_slot_positions(received, d)
            if not slots:
                continue
            width = min(5, len(signature(received)) + 1)
            start = max(1, min(min(slots) - 1, len(signature(received)) - width + 2))
            try:
                sig = array_single_bounded_decode(
                    signature(received), (start, width), params)
                y = algorithm1_recover(received, (d,), sig)
            except DecodeFailure:
                continue
            if apply_defects(y, full) == received:
                found.add(y)
        if len(found) != 1:
            raise DecodeFailure(f"{len(found)} strands consistent with one hit")
        return found.pop()

    found = {y for y in array2_candidates(received, delta, params)
             if apply_defects(y, full) == received}
    if len(found) != 1:
        raise DecodeFailure(f"{len(found)} strands consistent with two hits")
    return found.pop()


def decode(spec: KdccSpec, instance: KnownDefectInstance) -> Strand:
    if spec.family == "sum1":
        return decode_sum1(instance, spec.residues["a"])
    if spec.family == "svt1":
        return decode_svt1(instance, spec.residues["a"], spec.residues["b"])
    return decode_array2(instance, array2_params(spec))


def best_residues(family: str, n: int, sample=None, seed: int = 0):
    """Residues maximising the codebook size.

    Exhaustive over Sigma^n by default; with ``sample`` given, scans that many
    seeded random strands instead and reports the best observed class size.
    """
    if family not in FAMILIES:
        raise ParameterError(f"unknown family {family!r}")
    if family != "sum1" and n < 3:
        raise ParameterError(f"family {family} needs n >= 3")
    counts: dict = {}
    if sample is None:
        for x in all_strands(n):
            key = syndrome_key(family, x)
            counts[key] = counts.get(key, 0) + 1
    else:
        from .rng import SplitMix
        rng = SplitMix(seed)
        for i in range(sample):
            x = tuple(rng.randrange(1, 5) for _ in range(n))
            key = syndrome_key(family, x)
            counts[key] = counts.get(key, 0) + 1
    key, size = max(counts.items(), key=lambda kv: (kv[1], str(kv[0])))
    return KdccSpec(family, n, _residues_of(family, key)), size


def enumerate_codebook(spec: KdccSpec) -> list[Strand]:
    """All members of the residue class, in lexicographic order."""
    return [x for x in all_strands(spec.n) if membership(spec, x)]
