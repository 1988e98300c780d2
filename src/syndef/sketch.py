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
from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .binary import _is_subsequence, as_bits, vt_decode, weight
from .core import Bits, ConstructionError, DecodeFailure, ParameterError

MOMENT_ORDERS = (1, 2, 3, 4)

# Exhaustively audited: the moment vector is injective on two-deletion balls
# for every length below this bound (see verify_sketch_injectivity).
XI_VERIFIED_MAX_LENGTH = 22


def _width(vmax: int) -> int:
    return max(1, int(vmax).bit_length())


def moment(bits, order: int) -> int:
    return sum(comb(i, order) * b for i, b in enumerate(bits, start=1))


def moment_vector(bits) -> tuple[int, ...]:
    """(weight mod 3, f1, f2, f3, f4) with the moments stored exactly."""
    bits = tuple(bits)
    return (weight(bits) % 3,) + tuple(moment(bits, r) for r in MOMENT_ORDERS)


def xi_field_widths(length: int) -> tuple[int, ...]:
    return (2,) + tuple(_width(comb(length + 1, r + 1)) for r in MOMENT_ORDERS)


def xi_bit_length(length: int) -> int:
    return sum(xi_field_widths(length))


def xi_budget(length: int) -> int:
    """Materialised sketch-length budget for this scheme."""
    return 10 * math.ceil(math.log2(length + 1)) + 6


def to_bits(value: int, width: int) -> Bits:
    if value < 0 or value >> width:
        raise ParameterError(f"value {value} does not fit in {width} bits")
    return tuple((value >> (width - 1 - i)) & 1 for i in range(width))


def from_bits(bits) -> int:
    out = 0
    for b in bits:
        out = (out << 1) | b
    return out


def _pack(values, widths) -> int:
    out = 0
    for v, w in zip(values, widths):
        if v >> w:
            raise ParameterError("field overflows its width")
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
    if len(bits) > pack_length:
        raise ParameterError("word longer than its packing length")
    return _pack(moment_vector(bits), xi_field_widths(pack_length))


def sketch_xi(bits) -> Bits:
    """Two-deletion sketch of a binary word, as a bit string."""
    bits = as_bits(bits)
    return to_bits(xi_value(bits, len(bits)), xi_bit_length(len(bits)))


_COMB_COLUMNS: dict = {}


def _comb_column(r: int, size: int):
    """Cached [C(0,r), C(1,r), ..., C(size,r)]."""
    key = (r, size)
    col = _COMB_COLUMNS.get(key)
    if col is None:
        col = [comb(p, r) for p in range(size + 1)]
        _COMB_COLUMNS[key] = col
    return col


def _suffix_tables(word: Bits, max_order: int):
    """tables[r][t] = sum of C(s, r) over 1-based positions s >= t holding a 1
    (r = 0 counts them); indexed for t in [1, len+2]."""
    m = len(word)
    tables = []
    for r in range(max_order):
        row = [0] * (m + 3)
        col = _comb_column(r, m)
        for s in range(m, 0, -1):
            row[s] = row[s + 1] + (col[s] if word[s - 1] else 0)
        tables.append(row)
    return tables


def _insert1_moments(base, tables, p: int, b: int) -> list[int]:
    return [base[r] + b * comb(p, r) + tables[r - 1][p] for r in MOMENT_ORDERS]


def _insert2_moments(base, tables, p: int, q: int, b1: int, b2: int, orders) -> list[int]:
    out = []
    for r in orders:
        v = (base[r] + b1 * comb(p, r) + b2 * comb(q, r)
             + tables[r - 1][p] + tables[r - 1][q - 1])
        if r >= 2:
            v += tables[r - 2][q - 1]
        out.append(v)
    return out


def _insert_pair(word: Bits, p: int, q: int, b1: int, b2: int) -> Bits:
    return word[:p - 1] + (b1,) + word[p - 1:q - 2] + (b2,) + word[q - 2:]


def _value_options(word: Bits, k: int, weight_mod3: int):
    d = (weight_mod3 - weight(word)) % 3
    if k == 1:
        return [(d,)] if d in (0, 1) else []
    if d == 0:
        return [(0, 0)]
    if d == 2:
        return [(1, 1)]
    return [(0, 1), (1, 0)]


def _completions(word: Bits, n: int, targets, range1=None, range2=None) -> set[Bits]:
    """All words of length ``n`` containing ``word`` as an (n - len)-deletion
    subsequence whose moment vector equals ``targets``.

    The optional 1-based position ranges confine the first and second insertion.
    """
    m = len(word)
    k = n - m
    if k < 0 or k > 2:
        raise ParameterError("completion supports at most two insertions")
    base = moment_vector(word)
    if k == 0:
        return {word} if base == tuple(targets) else set()

    want = list(targets[1:])
    tables = _suffix_tables(word, MOMENT_ORDERS[-1])
    r1 = range(1, n + 1) if range1 is None else range1
    r2 = range(1, n + 1) if range2 is None else range2
    out: set[Bits] = set()

    if k == 1:
        for (b,) in _value_options(word, 1, targets[0]):
            for p in r1:
                if 1 <= p <= m + 1 and _insert1_moments(base, tables, p, b) == want:
                    out.add(word[:p - 1] + (b,) + word[p - 1:])
        return out

    # Scan every position pair against the first moment (C(p, 1) = p) with
    # pure table lookups, then confirm the survivors on the whole vector.
    t1 = targets[1]
    s_hi = tables[0]
    p_list = [p for p in r1 if 1 <= p <= n]
    q_list = [q for q in r2 if 1 <= q <= n]
    for b1, b2 in _value_options(word, 2, targets[0]):
        for p in p_list:
            head = base[1] + b1 * p + s_hi[p]
            for q in q_list:
                if q <= p or head + b2 * q + s_hi[q - 1] != t1:
                    continue
                if _insert2_moments(base, tables, p, q, b1, b2, MOMENT_ORDERS) == want:
                    out.add(_insert_pair(word, p, q, b1, b2))
    return out


def xi_decode(received, sketch, n: int) -> Bits:
    """Recover a word of length ``n`` from its sketch and a copy missing one
    or two bits."""
    received = as_bits(received)
    if len(received) not in (n - 1, n - 2, n):
        raise ParameterError("received length incompatible with one or two deletions")
    targets = _unpack(from_bits(sketch), xi_field_widths(n))
    found = _completions(received, n, targets)
    if len(found) != 1:
        raise DecodeFailure(f"{len(found)} words consistent with the sketch")
    return found.pop()


def verify_sketch_injectivity(length: int) -> bool:
    """Exhaustively confirm that no two distinct words of this length share a
    sketch and a common two-deletion subsequence."""
    from itertools import combinations, product

    groups: dict[tuple, list[Bits]] = {}
    for word in product((0, 1), repeat=length):
        groups.setdefault(moment_vector(word), []).append(word)

    def ball(w):
        n = len(w)
        return {tuple(b for j, b in enumerate(w) if j not in pair)
                for pair in combinations(range(n), 2)}

    for words in groups.values():
        for a, b in combinations(words, 2):
            if ball(a) & ball(b):
                return False
    return True


# ---------------------------------------------------------------------------
# Interval sketches E1 (adjacent/overlapping windows) and E2 (separated).


def e1_windows(n: int, rho: int) -> list[tuple[int, int]]:
    """Overlapping windows of width 2*rho tiling [1, n] with overlap rho; the
    last window is clipped at n.  Degenerates to one full window for n <= 2*rho."""
    count = -(-n // rho) - 1
    if count < 1:
        return [(1, n)]
    return [((i - 1) * rho + 1, (i + 1) * rho if i < count else n)
            for i in range(1, count + 1)]


def e1_sketch(bits, P1: int, P2: int) -> tuple[int, int]:
    """Sums of packed window sketches over odd- and even-indexed windows."""
    bits = as_bits(bits)
    rho = P1 + P2
    pack_len = 2 * rho
    kappa = xi_bit_length(pack_len)
    totals = [0, 0]
    for j, (ws, we) in enumerate(e1_windows(len(bits), rho), start=1):
        totals[(j - 1) % 2] += xi_value(bits[ws - 1:we], pack_len)
    return totals[0] % (1 << kappa), totals[1] % (1 << kappa)


def e1_decode(received, intervals, sketch: tuple[int, int], n: int, P1: int, P2: int) -> Bits:
    """Recover a word from two deletions confined to adjacent or overlapping
    intervals whose union spans at most P1 + P2 positions."""
    received = as_bits(received)
    if len(received) != n - 2:
        raise ParameterError(f"expected length {n - 2}, got {len(received)}")
    rho = P1 + P2
    pack_len = 2 * rho
    kappa = xi_bit_length(pack_len)
    windows = e1_windows(n, rho)
    (s1, l1), (s2, l2) = sorted(intervals)
    lo, hi = s1, max(s1 + l1 - 1, s2 + l2 - 1)
    if hi - lo + 1 > rho:
        raise DecodeFailure("interval union wider than one sketch window")
    try:
        j = next(i for i, (ws, we) in enumerate(windows, start=1) if ws <= lo and hi <= we)
    except StopIteration:
        raise DecodeFailure("no sketch window contains both deletion intervals") from None
    ws, we = windows[j - 1]

    total_other = 0
    for jj, (os, oe) in enumerate(windows, start=1):
        if jj == j or (jj - 1) % 2 != (j - 1) % 2:
            continue
        content = received[os - 1:oe] if oe < ws else received[os - 3:oe - 2]
        total_other += xi_value(content, pack_len)
    packed = (sketch[(j - 1) % 2] - total_other) % (1 << kappa)
    targets = _unpack(packed, xi_field_widths(pack_len))

    body = received[ws - 1:we - 2]
    local = range(lo - ws + 1, hi - ws + 2)
    found = _completions(body, we - ws + 1, targets, range1=local, range2=local)
    if len(found) != 1:
        raise DecodeFailure(f"{len(found)} window contents consistent with the sketch")
    return received[:ws - 1] + found.pop() + received[we - 2:]


def e2_sketch(bits, P1: int, P2: int) -> tuple[int, int, int]:
    """(weight mod 3, f1 mod n+1, f2 mod P*n) with P = max(P1, P2)."""
    bits = as_bits(bits)
    n = len(bits)
    P = max(P1, P2)
    return weight(bits) % 3, moment(bits, 1) % (n + 1), moment(bits, 2) % (P * n)


def e2_decode(received, intervals, sketch: tuple[int, int, int], n: int, P1: int, P2: int) -> Bits:
    """Recover a word from two deletions confined to intervals separated by at
    least one position."""
    received = as_bits(received)
    if len(received) != n - 2:
        raise ParameterError(f"expected length {n - 2}, got {len(received)}")
    (s1, l1), (s2, l2) = sorted(intervals)
    e1, e2 = s1 + l1 - 1, s2 + l2 - 1
    if s2 <= e1 + 1:
        raise DecodeFailure("intervals are not separated")
    P = max(P1, P2)
    t0, t1, t2 = sketch
    base = moment_vector(received)
    tables = _suffix_tables(received, 2)
    out: set[Bits] = set()
    for b1, b2 in _value_options(received, 2, t0):
        stage = []
        for p in range(s1, min(e1, n) + 1):
            for q in range(s2, min(e2, n) + 1):
                v1, v2 = _insert2_moments(base, tables, p, q, b1, b2, (1, 2))
                if v1 % (n + 1) == t1:
                    stage.append((v2, p, q))
        if stage:
            spread = max(v for v, _, _ in stage) - min(v for v, _, _ in stage)
            if spread >= P * n:
                raise ConstructionError(
                    "second-moment spread exceeds its modulus across feasible placements")
        for v2, p, q in stage:
            if v2 % (P * n) == t2:
                out.add(_insert_pair(received, p, q, b1, b2))
    if len(out) != 1:
        raise DecodeFailure(f"{len(out)} placements consistent with the interval sketch")
    return out.pop()


# ---------------------------------------------------------------------------
# Systematic composition: word, E1, E2, sketch of (E1, E2).


@dataclass(frozen=True)
class EParams:
    """Materialised layout of the composed codeword for given (n, P1, P2)."""

    n: int
    P1: int
    P2: int

    def __post_init__(self):
        if self.P1 < 2 or self.P2 < 2 or self.n < 3:
            raise ParameterError("composition requires P1, P2 >= 2 and n >= 3")

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
    def kappa(self) -> int:
        return xi_bit_length(self.window_pack_len)

    @property
    def e1_bits(self) -> int:
        return 2 * self.kappa

    @property
    def e2_widths(self) -> tuple[int, int, int]:
        return (2, _width(self.n), _width(self.P * self.n - 1))

    @property
    def e2_bits(self) -> int:
        return sum(self.e2_widths)

    @property
    def xi_bits(self) -> int:
        return xi_bit_length(self.e1_bits + self.e2_bits)

    @property
    def redundancy(self) -> int:
        return self.e1_bits + self.e2_bits + self.xi_bits

    @property
    def total(self) -> int:
        return self.n + self.redundancy


@dataclass(frozen=True)
class SketchBundle:
    """Serializable sketch material of one word: interval sketches plus the
    sketch of their concatenation, with self-describing parameters."""

    e1: tuple[int, int]
    e2: tuple[int, int, int]
    xi: Bits
    params: EParams

    def to_json(self) -> dict:
        p = self.params
        return {"e1": list(self.e1), "e2": list(self.e2),
                "xi": "".join(str(b) for b in self.xi),
                "params": {"n": p.n, "P1": p.P1, "P2": p.P2, "rho": p.rho, "P": p.P,
                           "e1_modulus_bits": p.kappa,
                           "f1_modulus": p.n + 1, "f2_modulus": p.P * p.n}}

    @staticmethod
    def from_json(data) -> "SketchBundle":
        p = data["params"]
        return SketchBundle(e1=tuple(data["e1"]), e2=tuple(data["e2"]),
                            xi=tuple(int(c) for c in data["xi"]),
                            params=EParams(n=p["n"], P1=p["P1"], P2=p["P2"]))


def _tail_bits(e1, e2, params: EParams) -> Bits:
    """Both interval sketches packed at their fixed widths."""
    return (to_bits(e1[0], params.kappa) + to_bits(e1[1], params.kappa)
            + tuple(b for v, w in zip(e2, params.e2_widths) for b in to_bits(v, w)))


@lru_cache(maxsize=8192)
def _sketch_bundle_cached(bits: Bits, P1: int, P2: int) -> SketchBundle:
    params = EParams(n=len(bits), P1=P1, P2=P2)
    s1 = e1_sketch(bits, P1, P2)
    s2 = e2_sketch(bits, P1, P2)
    return SketchBundle(e1=s1, e2=s2, xi=sketch_xi(_tail_bits(s1, s2, params)), params=params)


def sketch_bundle(bits, P1: int, P2: int) -> SketchBundle:
    return _sketch_bundle_cached(as_bits(bits), P1, P2)


def encode_E(bits, P1: int, P2: int) -> Bits:
    """Systematic composition: the word, both interval sketches, then a
    deletion sketch protecting those sketches."""
    bundle = sketch_bundle(bits, P1, P2)
    return as_bits(bits) + _tail_bits(bundle.e1, bundle.e2, bundle.params) + bundle.xi


def _parse_tail(tail: Bits, params: EParams):
    kappa = params.kappa
    e1 = (from_bits(tail[:kappa]), from_bits(tail[kappa:2 * kappa]))
    rest = tail[2 * kappa:]
    e2 = []
    at = 0
    for w in params.e2_widths:
        e2.append(from_bits(rest[at:at + w]))
        at += w
    return e1, tuple(e2)


def _consistent(word: Bits, params: EParams) -> bool:
    return word[params.n:] == encode_E(word[:params.n], params.P1, params.P2)[params.n:]


def decode_E(received, intervals, n: int, P1: int, P2: int) -> Bits:
    """Recover the systematic prefix from up to two deletions, each confined
    to its declared interval."""
    received = as_bits(received)
    params = EParams(n=n, P1=P1, P2=P2)
    L = params.total
    intervals = sorted((s, l) for s, l in intervals)
    for s, l in intervals:
        if l < 1 or s < 1 or s + l - 1 > L:
            raise ParameterError("malformed deletion interval")
    if len(intervals) != 2 or intervals[0][1] > max(P1, P2) or intervals[1][1] > max(P1, P2):
        raise ParameterError("two intervals of length at most max(P1, P2) expected")

    if len(received) == L:
        if not _consistent(received, params):
            raise DecodeFailure("full-length word is not a valid composition")
        return received[:n]

    if len(received) == L - 1:
        candidates = set()
        for s, l in intervals:
            for p in range(s, min(s + l - 1, L) + 1):
                for v in (0, 1):
                    candidates.add(received[:p - 1] + (v,) + received[p - 1:])
        found = {c[:n] for c in candidates if _consistent(c, params)}
        if len(found) != 1:
            raise DecodeFailure(f"{len(found)} single-deletion completions are consistent")
        return found.pop()

    if len(received) != L - 2:
        raise ParameterError(f"received length {len(received)} incompatible with <= 2 deletions")

    (s1, l1), (s2, l2) = intervals
    e1_end, e2_end = s1 + l1 - 1, s2 + l2 - 1
    if s1 > n:
        return received[:n]
    if e2_end <= n:
        tail = received[n - 2:]
        e1_sk, e2_sk = _parse_tail(tail[:params.e1_bits + params.e2_bits], params)
        body = received[:n - 2]
        if s2 <= e1_end + 1:
            return e1_decode(body, intervals, e1_sk, n, P1, P2)
        return e2_decode(body, intervals, e2_sk, n, P1, P2)

    # An interval reaches past the systematic prefix: reconstruct by direct
    # hypothesis over the two deletion positions and verify the composition.
    candidates = set()
    for d1 in range(s1, min(e1_end, L) + 1):
        for d2 in range(s2, min(e2_end, L) + 1):
            if d1 == d2:
                continue
            lo, hi = min(d1, d2), max(d1, d2)
            for v1 in (0, 1):
                for v2 in (0, 1):
                    candidates.add(_insert_pair(received, lo, hi, v1, v2))
    found = {c[:n] for c in candidates if _consistent(c, params)}
    if len(found) != 1:
        raise DecodeFailure(f"{len(found)} completions are consistent with the composition")
    return found.pop()


# ---------------------------------------------------------------------------
# Marker variant: corrects two interval-confined deletions and also a single
# deletion at an unknown position.


def prefix_codeword_length(k: int, P1: int, P2: int) -> int:
    return EParams(n=k, P1=P1, P2=P2).total + 2


def prefix_encode(payload, P1: int, P2: int) -> Bits:
    """Insert the 0,1 marker after the systematic payload of the composition."""
    payload = as_bits(payload)
    word = encode_E(payload, P1, P2)
    k = len(payload)
    return word[:k] + (0, 1) + word[k:]


def prefix_member(word, k: int, P1: int, P2: int) -> bool:
    word = as_bits(word)
    return (len(word) == prefix_codeword_length(k, P1, P2)
            and word == prefix_encode(word[:k], P1, P2))


def prefix_decode_two(received, intervals, k: int, P1: int, P2: int) -> Bits:
    """Recover the payload from two deletions confined to declared intervals."""
    received = as_bits(received)
    L = prefix_codeword_length(k, P1, P2)
    if len(received) != L - 2:
        raise ParameterError(f"expected length {L - 2}, got {len(received)}")
    intervals = sorted((s, l) for s, l in intervals)
    marker = {k + 1, k + 2}
    touches = any(set(range(s, s + l)) & marker for s, l in intervals)
    if not touches:
        before = sum(1 for s, l in intervals if s + l - 1 < k + 1)
        at = k - before  # 0-based index of the marker inside received
        if received[at:at + 2] != (0, 1):
            raise DecodeFailure("marker bits not found where the intervals imply")
        stripped = received[:at] + received[at + 2:]
        mapped = [(s if s + l - 1 <= k else s - 2, l) for s, l in intervals]
        return decode_E(stripped, mapped, k, P1, P2)

    candidates = set()
    for d1 in range(intervals[0][0], min(intervals[0][0] + intervals[0][1] - 1, L) + 1):
        for d2 in range(intervals[1][0], min(intervals[1][0] + intervals[1][1] - 1, L) + 1):
            if d1 == d2:
                continue
            lo, hi = min(d1, d2), max(d1, d2)
            for v1 in (0, 1):
                for v2 in (0, 1):
                    candidates.add(_insert_pair(received, lo, hi, v1, v2))
    found = {c[:k] for c in candidates if prefix_member(c, k, P1, P2)}
    if len(found) != 1:
        raise DecodeFailure(f"{len(found)} payloads consistent with the marker code")
    return found.pop()


def prefix_decode_one(received, k: int, P1: int, P2: int) -> Bits:
    """Recover the payload from at most one deletion at an unknown position.

    The bit observed at position k+1 decides the branch: a 0 means the payload
    survived intact, a 1 means the deletion hit the payload (or the marker's
    own 0) and the position-weighted residue stored in the tail pins it down.
    """
    received = as_bits(received)
    params = EParams(n=k, P1=P1, P2=P2)
    L = params.total + 2
    if len(received) == L:
        if not prefix_member(received, k, P1, P2):
            raise DecodeFailure("full-length word is not a marker codeword")
        return received[:k]
    if len(received) != L - 1:
        raise ParameterError(f"expected length {L} or {L - 1}, got {len(received)}")

    candidates = set()
    if received[k] == 0:
        candidates.add(received[:k])
    else:
        candidates.add(received[:k])  # the marker's own 0 was deleted
        tail = received[k + 1:]
        f1_at = params.e1_bits + 2
        f1_residue = from_bits(tail[f1_at:f1_at + _width(k)])
        try:
            candidates.add(vt_decode(received[:k - 1], f1_residue, k, modulus=k + 1))
        except DecodeFailure:
            pass
    verified = {z for z in candidates
                if _is_subsequence(received, prefix_encode(z, P1, P2))}
    if len(verified) != 1:
        raise DecodeFailure(f"{len(verified)} payloads consistent with one deletion")
    return verified.pop()
