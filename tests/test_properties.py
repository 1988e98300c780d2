"""Round-trip properties, encode -> channel -> decode, on inputs drawn by
Hypothesis beyond the fixed grids of the other tests."""

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from syndef.binary import SvtParams, svt_decode, vt_decode, vt_syndrome
from syndef.core import DecodeFailure, apply_defects, confusable_ball, cycles
from syndef.kdcc import (
    KnownDefectInstance,
    array2_params,
    decode_array2,
    decode_sum1,
    decode_svt1,
    spec_for_strand,
)
from syndef.rng import SplitMix
from syndef.sdcc import (
    SdccCodeword,
    c2d_decode,
    c2d_params_of,
    random_member_1sdcc,
    random_member_2sdcc,
    sdcc1_decode,
    sdcc2_decode,
)
from syndef.sketch import decode_E, encode_E, prefix_decode_one, prefix_decode_two, prefix_encode

SEEDS = st.integers(0, 2**31 - 1)
LENGTHS = st.sampled_from([12, 16])
WORDS = st.lists(st.integers(0, 1), min_size=2, max_size=40).map(tuple)


@settings(max_examples=300, deadline=None)
@given(x=WORDS, data=st.data())
def test_vt_corrects_any_single_deletion(x, data):
    # any modulus of at least n + 1 leaves one insertion per residue class
    n = len(x)
    i = data.draw(st.integers(0, n - 1), label="deleted index")
    modulus = data.draw(st.one_of(st.none(), st.integers(n + 1, 3 * n)), label="modulus")
    a = vt_syndrome(x) % (n + 1 if modulus is None else modulus)
    assert vt_decode(x[:i] + x[i + 1:], a, n, modulus=modulus) == x


@settings(max_examples=300, deadline=None)
@given(x=WORDS, data=st.data())
def test_svt_corrects_a_deletion_inside_its_window(x, data):
    n = len(x)
    window = data.draw(st.integers(2, 8), label="window")
    i = data.draw(st.integers(1, n), label="deleted position")
    start = data.draw(st.integers(i - window + 1, i), label="window start")
    params = SvtParams(a=vt_syndrome(x) % window, b=sum(x) % 2, window=window)
    assert svt_decode(x[:i - 1] + x[i:], start, params) == x


@settings(max_examples=150, deadline=None)
@given(n=LENGTHS, seed=SEEDS, data=st.data())
def test_sdcc1_corrects_any_single_cycle(n, seed, data):
    codeword, plan, params = random_member_1sdcc(n, 8, seed=seed)
    d = data.draw(st.integers(1, 4 * n), label="defect")
    out, _ = sdcc1_decode(codeword.channel({d}), plan, params)
    assert out == codeword.strands


@settings(max_examples=150, deadline=None)
@given(n=LENGTHS, seed=SEEDS, data=st.data())
def test_sdcc2_corrects_any_two_cycles(n, seed, data):
    codeword, plan, params = random_member_2sdcc(n, 10, seed=seed)
    delta = data.draw(st.sets(st.integers(1, 4 * n), max_size=2), label="defects")
    assert sdcc2_decode(codeword.channel(delta), plan, params) == codeword.strands


def test_tuple_decoders_fail_closed_without_a_shared_defect():
    # Two kinds of input that no set of at most t defective cycles need
    # explain: every strand of a member loses up to t positions of its own;
    # or (t = 2) the channel of one or two cycles runs, then one strand that
    # lost fewer than two symbols loses one more.  A decode must then raise,
    # or return a tuple that some set of at most t cycles maps to the
    # received one.
    own_rng, near_rng = SplitMix(19), SplitMix(23)

    def own_losses(codeword, n, t):
        received = []
        for x in codeword.strands:
            lost = {own_rng.randrange(1, n + 1) for _ in range(own_rng.randrange(0, t + 1))}
            received.append(tuple(v for i, v in enumerate(x, start=1) if i not in lost))
        return tuple(received)

    def near_miss(codeword, n, t):
        delta = {near_rng.randrange(1, 4 * n + 1) for _ in range(near_rng.randrange(1, 3))}
        received = list(codeword.channel(delta))
        spare = [j for j, r in enumerate(received) if len(r) > n - 2]
        j = spare[near_rng.randrange(0, len(spare))]
        p = near_rng.randrange(0, len(received[j]))
        received[j] = received[j][:p] + received[j][p + 1:]
        return tuple(received)

    returned = {}
    for t, member, decode, m, draw in ((1, random_member_1sdcc, sdcc1_decode, 8, own_losses),
                                       (2, random_member_2sdcc, sdcc2_decode, 10, own_losses),
                                       (2, random_member_2sdcc, sdcc2_decode, 10, near_miss)):
        for n in (8, 10, 12):
            codeword, plan, params = member(n, m, seed=n)
            for _ in range(400):
                received = draw(codeword, n, t)
                try:
                    out = decode(received, plan, params)
                except DecodeFailure:
                    continue
                returned[draw] = returned.get(draw, 0) + 1
                sent = SdccCodeword(out[0] if t == 1 else out, plan.shifts)
                # Dropping every cycle that no shortened strand occupies from a
                # consistent set leaves one, so the search runs over theirs.
                shifts = plan.shifts + (0,) * (len(received) - len(plan.shifts))
                span = set().union(*(cycles(x, a) for x, a, r in
                                     zip(sent.strands, shifts, received) if len(r) < n))
                assert any(sent.channel(delta) == received
                           for size in range(t + 1) for delta in combinations(span, size))
    assert returned[own_losses] and returned[near_miss]


@settings(max_examples=300, deadline=None)
@given(x=st.lists(st.integers(1, 4), min_size=16, max_size=16).map(tuple),
       data=st.data())
def test_c2d_corrects_any_two_deletions(x, data):
    # at n=16 the default regularity window (28) is longer than the
    # signature, so every strand is a regular codeword of its own class
    params = c2d_params_of(x)
    d1, d2 = data.draw(st.lists(st.integers(1, 16), min_size=2, max_size=2,
                                unique=True).map(sorted), label="deletions")
    received = x[:d1 - 1] + x[d1:d2 - 1] + x[d2:]
    assert c2d_decode(received, params) == x


@settings(max_examples=200, deadline=None)
@given(x=st.lists(st.integers(1, 4), min_size=3, max_size=24).map(tuple),
       data=st.data())
def test_array2_corrects_any_two_own_cycles(x, data):
    spec = spec_for_strand("array2", x)
    delta = tuple(data.draw(st.lists(st.sampled_from(cycles(x)), min_size=2, max_size=2,
                                     unique=True).map(sorted), label="defects"))
    inst = KnownDefectInstance(apply_defects(x, delta), delta, len(x))
    try:
        assert decode_array2(inst, array2_params(spec)) == x
    except DecodeFailure:
        # giving up is right only when another member of the class has the
        # same channel output
        assert any(y != x and spec_for_strand("array2", y) == spec
                   for y in confusable_ball(x, delta))


STRANDS = st.lists(st.integers(1, 4), min_size=3, max_size=40).map(tuple)


@settings(max_examples=300, deadline=None)
@given(x=STRANDS, data=st.data())
def test_sum1_corrects_any_single_cycle(x, data):
    # a cycle outside the strand's schedule deletes nothing
    d = data.draw(st.integers(1, 4 * len(x)), label="defect")
    inst = KnownDefectInstance(apply_defects(x, (d,)), (d,), len(x))
    assert decode_sum1(inst, spec_for_strand("sum1", x).residues["a"]) == x


@settings(max_examples=300, deadline=None)
@given(x=STRANDS, data=st.data())
def test_svt1_corrects_any_single_cycle(x, data):
    d = data.draw(st.integers(1, 4 * len(x)), label="defect")
    inst = KnownDefectInstance(apply_defects(x, (d,)), (d,), len(x))
    r = spec_for_strand("svt1", x).residues
    assert decode_svt1(inst, r["a"], r["b"]) == x


# The composition's interval lengths: the first at most P1, the second at most
# P2, so adjacent intervals span at most one sketch window's overlap P1 + P2.
COMPOSITIONS = st.tuples(st.sampled_from([3, 5, 8, 12, 16]),
                         st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]))


def draw_composed(data, n, P1, P2, encode, min_deleted=0):
    """(payload, received, intervals): ``min_deleted`` to two deletions, the
    i-th inside the i-th declared interval, which has length at most Pi."""
    x = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n).map(tuple),
                  label="payload")
    word = encode(x, P1, P2)
    L = len(word)
    deleted = data.draw(st.lists(st.integers(1, L), min_size=min_deleted, max_size=2,
                                 unique=True).map(sorted), label="deleted")
    intervals = []
    for i, cap in enumerate((P1, P2)):
        l = data.draw(st.integers(1, cap))
        at = deleted[i] if i < len(deleted) else data.draw(st.integers(1, L))
        intervals.append((data.draw(st.integers(max(1, at - l + 1), min(at, L - l + 1))), l))
    received = tuple(bit for i, bit in enumerate(word, start=1) if i not in deleted)
    return x, received, intervals


@settings(max_examples=150, deadline=None)
@given(params=COMPOSITIONS, data=st.data())
def test_decode_E_corrects_deletions_inside_intervals(params, data):
    n, (P1, P2) = params
    x, received, intervals = draw_composed(data, n, P1, P2, encode_E)
    assert decode_E(received, intervals, n, P1, P2) == x


@settings(max_examples=150, deadline=None)
@given(params=COMPOSITIONS, data=st.data())
def test_prefix_decode_two_corrects_deletions_inside_intervals(params, data):
    n, (P1, P2) = params
    x, received, intervals = draw_composed(data, n, P1, P2, prefix_encode, min_deleted=2)
    assert prefix_decode_two(received, intervals, n, P1, P2) == x


@settings(max_examples=150, deadline=None)
@given(params=COMPOSITIONS, data=st.data())
def test_prefix_decode_one_corrects_any_single_deletion(params, data):
    n, (P1, P2) = params
    x = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n).map(tuple),
                  label="payload")
    word = prefix_encode(x, P1, P2)
    d = data.draw(st.integers(0, len(word)), label="deleted (0 for none)")
    assert prefix_decode_one(word[:d - 1] + word[d:] if d else word, n, P1, P2) == x
