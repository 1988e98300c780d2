"""Known-defect code tests: constructions, decoders, and the code property."""

import hashlib
import json
import re
from itertools import combinations

import pytest

from syndef.binary import SvtParams
from syndef.core import (
    DecodeFailure,
    ParameterError,
    all_strands,
    apply_defects,
    confusable_ball,
    cycles,
    signature,
)
from syndef.kdcc import (
    KdccSpec,
    KnownDefectInstance,
    algorithm1_recover,
    array2_params,
    best_residues,
    decode,
    decode_array2,
    decode_sum1,
    decode_svt1,
    enumerate_codebook,
    even_position_sum,
    hit_decoder,
    membership,
    spec_for_strand,
    svt1_candidates,
    syndrome_key,
)
from syndef.rng import SplitMix


def s(text):
    return tuple(int(c) for c in text)


class TestMembership:
    def test_sum1_hand_case(self):
        x = s("12341")
        assert even_position_sum(x) == 6
        assert membership(KdccSpec("sum1", 5, {"a": 2}), x)
        assert not membership(KdccSpec("sum1", 5, {"a": 1}), x)

    def test_svt1_nondecreasing_strand(self):
        from syndef.binary import vt_syndrome
        n = 6
        x = (1, 2, 3, 4, 4, 4)
        sig = signature(x)
        assert sig == (1,) * (n - 1)
        a = vt_syndrome(sig) % 5
        assert membership(KdccSpec("svt1", n, {"a": a, "b": (n - 1) % 2}), x)

    def test_sum1_n1_vacuous(self):
        assert membership(KdccSpec("sum1", 1, {"a": 0}), (3,))
        assert not membership(KdccSpec("sum1", 1, {"a": 1}), (3,))

    def test_small_n_rejected_for_signature_families(self):
        with pytest.raises(ParameterError):
            KdccSpec("svt1", 2, {"a": 0, "b": 0})
        with pytest.raises(ParameterError):
            KdccSpec("array2", 1, {"a": [0] * 9, "b": 0})


class TestDecodeSum1:
    def test_paper_single_option(self):
        # 2231 with cycle 5 defective admits exactly one reinsertion 21231
        x = s("21231")
        spec = spec_for_strand("sum1", x)
        inst = KnownDefectInstance(received=s("2231"), delta=(5,), n=5)
        assert decode_sum1(inst, spec.residues["a"]) == x

    def test_full_length_identity(self):
        inst = KnownDefectInstance(received=s("12341"), delta=(9,), n=5)
        assert decode_sum1(inst, 2) == s("12341")

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_roundtrip_exhaustive(self, n):
        for x in all_strands(n):
            spec = spec_for_strand("sum1", x)
            for d in cycles(x):
                inst = KnownDefectInstance(apply_defects(x, {d}), (d,), n)
                assert decode_sum1(inst, spec.residues["a"]) == x


class TestAlgorithm1:
    def test_paper_two_defect_walkthrough(self):
        x = tuple((i % 4) + 1 if (i % 4) + 1 <= 4 else 0 for i in range(18))
        x = tuple((i % 4) + 1 for i in range(18))
        assert cycles(x) == tuple(range(1, 19))
        delta = (5, 17)
        received = apply_defects(x, set(delta))
        assert len(received) == 16
        assert algorithm1_recover(received, delta, signature(x)) == x

    def test_empty_delta_identity(self):
        assert algorithm1_recover(s("1234"), (), (1, 1, 1)) == s("1234")

    @pytest.mark.parametrize("n", [3, 4])
    def test_exhaustive_small(self, n):
        # single defects always recover; interacting double defects can be
        # ambiguous even with the full signature in hand (see the twin test)
        for x in all_strands(n):
            sig = signature(x)
            sched = cycles(x)
            for t in (1, 2):
                for delta in combinations(sched, t):
                    received = apply_defects(x, set(delta))
                    if t == 1 or two_defect_twins(x, delta) == {x}:
                        assert algorithm1_recover(received, delta, sig) == x
                    else:
                        with pytest.raises(DecodeFailure):
                            algorithm1_recover(received, delta, sig)

    def test_inconsistent_input_fails(self):
        # the only cycle-1 insertion into 11 gives 111 with signature 11
        with pytest.raises(DecodeFailure):
            algorithm1_recover(s("11"), (1,), (0, 0))


class TestDecodeSvt1:
    def test_full_length_identity(self):
        x = (1, 2, 4, 1, 3)
        spec = spec_for_strand("svt1", x)
        inst = KnownDefectInstance(x, (12,), 5)
        assert decode_svt1(inst, spec.residues["a"], spec.residues["b"]) == x

    @pytest.mark.parametrize("n", [4, 5])
    def test_roundtrip_exhaustive(self, n):
        for x in all_strands(n):
            spec = spec_for_strand("svt1", x)
            a, bb = spec.residues["a"], spec.residues["b"]
            for d in cycles(x):
                inst = KnownDefectInstance(apply_defects(x, {d}), (d,), n)
                assert decode_svt1(inst, a, bb) == x

    def test_code_size_bound(self):
        spec, size = best_residues("svt1", 6)
        assert size >= 4 ** 6 / 10

    def test_candidate_cycles_wider_than_the_window_rejected(self):
        # slots at cycles 3 and 20 of 1234... span 18 signature bits, past
        # the shifted-VT window of 5
        with pytest.raises(DecodeFailure,
                           match="^defect window wider than the shifted-VT code tolerates$"):
            svt1_candidates((1, 2, 3, 4) * 6, [3, 20], SvtParams(0, 0, 5))


def two_defect_twins(x, delta):
    """Oracle: all strands indistinguishable from x under delta even given the
    full signature (the code's syndromes are signature-bound).  Built on the
    confusable ball, which test_core checks against a full alphabet scan."""
    from syndef.core import confusable_ball
    sig = signature(x)
    return {y for y in confusable_ball(x, set(delta)) if signature(y) == sig}


def test_twin_oracle_matches_full_scan_n4():
    for x in list(all_strands(4))[17::41]:
        sig = signature(x)
        for delta in combinations(cycles(x), 2):
            target = apply_defects(x, set(delta))
            full = {y for y in all_strands(4)
                    if signature(y) == sig and apply_defects(y, set(delta)) == target}
            assert two_defect_twins(x, delta) == full


class TestDecodeArray2:
    @pytest.mark.parametrize("n", [4, 5])
    def test_roundtrip_where_information_permits(self, n):
        # two interacting defects can be information-theoretically ambiguous
        # (distinct strands sharing signature and channel output); the decoder
        # must recover exactly the unambiguous cases and fail closed otherwise
        ambiguous_seen = 0
        for x in all_strands(n):
            spec = spec_for_strand("array2", x)
            params = array2_params(spec)
            sched = cycles(x)
            for delta in combinations(range(1, 4 * n + 1), 2):
                if not (set(delta) & set(sched)):
                    continue
                inst = KnownDefectInstance(apply_defects(x, set(delta)), delta, n)
                twins = two_defect_twins(x, delta)
                if twins == {x}:
                    assert decode_array2(inst, params) == x
                else:
                    ambiguous_seen += 1
                    with pytest.raises(DecodeFailure):
                        decode_array2(inst, params)
        if n == 4:
            assert ambiguous_seen > 0  # the flaw is real, not hypothetical

    def test_known_ambiguous_twin_pair(self):
        # 1212 and 2211 share signature 101 and the same output under
        # defects {2, 6}; no signature-based syndrome can separate them
        x, y, delta = s("1212"), s("2211"), (2, 6)
        assert signature(x) == signature(y) == (1, 0, 1)
        assert apply_defects(x, set(delta)) == apply_defects(y, set(delta)) == (1, 1)
        assert array2_params(spec_for_strand("array2", x)) == \
            array2_params(spec_for_strand("array2", y))

    @pytest.mark.parametrize("text, delta", [
        ("112212412341423333234234", (14, 24)),
        ("232233111234212341114332", (10, 30)),
    ])
    def test_second_slots_move_with_the_first(self, text, delta):
        # the second defect's slots depend on which first slot is taken, so
        # their union is wider than the array code's 9-wide window
        x = s(text)
        assert two_defect_twins(x, delta) == {x}
        inst = KnownDefectInstance(apply_defects(x, set(delta)), delta, len(x))
        assert decode_array2(inst, array2_params(spec_for_strand("array2", x))) == x

    def test_outcomes_pinned(self):
        # sha256 of every outcome (strand or failure message) over 16 seeded
        # n=24 strands and every pair of their cycles: 4416 decodes, 15 of
        # them failures.  Any change to what decode_array2 returns shows here.
        digest = hashlib.sha256()
        rng = SplitMix(2024)
        for _ in range(16):
            x = rng.strand(24)
            params = array2_params(spec_for_strand("array2", x))
            for delta in combinations(cycles(x), 2):
                inst = KnownDefectInstance(apply_defects(x, delta), delta, 24)
                try:
                    out = repr(decode_array2(inst, params))
                except DecodeFailure as exc:
                    out = f"DecodeFailure: {exc}"
                digest.update(out.encode() + b"\n")
        assert digest.hexdigest() == \
            "e2be8170126078450908af2dfdd512b3003fa15f4d8659849c571f99b6f7633e"

    def test_both_defects_missing_identity(self):
        x = (1, 1, 1, 1)  # cycles 1, 5, 9, 13
        spec = spec_for_strand("array2", x)
        inst = KnownDefectInstance(x, (2, 3), 4)
        assert decode_array2(inst, array2_params(spec)) == x

    def test_partial_hit_dispatch(self):
        x = (2, 3, 1, 4, 1)
        sched = cycles(x)
        spec = spec_for_strand("array2", x)
        d_hit = sched[2]
        d_miss = next(d for d in range(1, 21) if d not in sched)
        delta = tuple(sorted((d_hit, d_miss)))
        inst = KnownDefectInstance(apply_defects(x, set(delta)), delta, 5)
        assert decode_array2(inst, array2_params(spec)) == x


class TestHitDecoder:
    """The sweep's decoder without the instance checks agrees with
    :func:`decode`, failure text included."""

    @staticmethod
    def outcome(f):
        try:
            return f()
        except DecodeFailure as exc:
            return str(exc)

    @pytest.mark.parametrize("family", ["sum1", "svt1"])
    def test_agrees_with_decode(self, family):
        for x in all_strands(4):
            for spec in (spec_for_strand(family, x), spec_for_strand(family, x[::-1])):
                recover = hit_decoder(spec)
                for i, d in enumerate(cycles(x)):
                    y = x[:i] + x[i + 1:]
                    inst = KnownDefectInstance(y, (d,), 4)
                    assert self.outcome(lambda: recover(y, d)) == \
                        self.outcome(lambda: decode(spec, inst)), (x, d)

    def test_two_defect_family_rejected(self):
        with pytest.raises(ParameterError):
            hit_decoder(spec_for_strand("array2", s("1234")))


class TestInstanceValidation:
    """Malformed defective cycles or lengths are rejected when the instance is
    built, before any decoder sees them."""

    @pytest.mark.parametrize("delta, text", [
        # a float cycle once decoded to a strand holding 2.0
        pytest.param((2.0, 3), "defective cycle must be an int >= 1, got 2.0", id="delta0"),
        # once a TypeError traceback
        pytest.param(("a", 3), "defective cycle must be an int >= 1, got 'a'", id="delta1"),
        # once two cycles, ending in "0 strands consistent"
        pytest.param((3, 3), "defective cycles must be distinct, got (3, 3)", id="delta2"),
        pytest.param((True, 3), "defective cycle must be an int >= 1, got True", id="delta3"),
        pytest.param((0, 3), "defective cycle must be an int >= 1, got 0", id="delta4"),
        pytest.param((-1, 3), "defective cycle must be an int >= 1, got -1", id="delta5"),
    ])
    def test_malformed_cycles_rejected(self, delta, text):
        with pytest.raises(ParameterError, match=f"^{re.escape(text)}$"):
            KnownDefectInstance((1, 2, 3), delta, 5)

    @pytest.mark.parametrize("n", [5.0, "5", True, 0])
    def test_malformed_length_rejected(self, n):
        with pytest.raises(ParameterError, match="strand length must be an int >= 1, got"):
            KnownDefectInstance((1, 2, 3), (2, 3), n)

    @pytest.mark.parametrize("received", [
        (5, 1, 2),        # once decoded under sum1 to (3, 5, 1, 2)
        ("a", "b", "c"),  # once a TypeError traceback
        (1.5, 2, 3),      # once decoded under svt1
        (0, 1, 2),
        ([1], 2, 3),
        "123",
        None,
    ])
    def test_malformed_received_rejected(self, received):
        with pytest.raises(ParameterError, match="symbols of"):
            KnownDefectInstance(received, (3,), 4)

    def test_received_normalised_to_a_tuple(self):
        # a list once raised TypeError under sum1
        x = s("2123")
        d = cycles(x)[1]
        inst = KnownDefectInstance(list(apply_defects(x, {d})), (d,), 4)
        assert inst.received == apply_defects(x, {d})
        assert decode_sum1(inst, spec_for_strand("sum1", x).residues["a"]) == x
        assert decode_svt1(inst, **spec_for_strand("svt1", x).residues) == x

    def test_empty_strand_when_every_symbol_can_be_lost(self):
        # n = 1 and one defective cycle: the empty strand is a valid output
        assert KnownDefectInstance((), (3,), 1).received == ()
        assert decode_sum1(KnownDefectInstance((), (3,), 1), 0) == (3,)
        with pytest.raises(ParameterError, match="shorter"):
            KnownDefectInstance((), (3,), 2)


class TestAgainstConfusableBall:
    """Differential check of the known-defect decoders against the exact
    confusable ball: each returns x exactly when x is the only member of its
    residue class in the ball, and otherwise fails closed."""

    @staticmethod
    def expect(decode_once, x, family, delta):
        spec = spec_for_strand(family, x)
        unique = [y for y in confusable_ball(x, delta) if membership(spec, y)] == [x]
        try:
            got = decode_once()
        except DecodeFailure:
            assert not unique, (family, x, delta)
        else:
            assert unique and got == x, (family, x, delta, got)

    @pytest.mark.parametrize("n", [3, 4])
    def test_every_strand(self, n):
        for x in all_strands(n):
            sched = cycles(x)
            params = array2_params(spec_for_strand("array2", x))
            for delta in combinations(range(1, 4 * n + 1), 2):
                if set(delta).isdisjoint(sched):
                    continue
                inst = KnownDefectInstance(apply_defects(x, delta), delta, n)
                self.expect(lambda: decode_array2(inst, params), x, "array2", delta)
            r = spec_for_strand("svt1", x).residues
            for d in sched:
                inst = KnownDefectInstance(apply_defects(x, {d}), (d,), n)
                self.expect(lambda: decode_svt1(inst, r["a"], r["b"]), x, "svt1", (d,))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_sum1_every_strand(self, n):
        for x in all_strands(n):
            a = spec_for_strand("sum1", x).residues["a"]
            for d in cycles(x):
                inst = KnownDefectInstance(apply_defects(x, {d}), (d,), n)
                self.expect(lambda: decode_sum1(inst, a), x, "sum1", (d,))


class TestResidueValidation:
    @pytest.mark.parametrize("family, residues", [
        ("sum1", {}),
        ("sum1", [1, 2]),
        ("sum1", {"a": 4}),
        ("sum1", {"a": -1}),
        ("sum1", {"a": 1, "b": 0}),
        ("sum1", {"a": True}),
        ("svt1", {"a": 5, "b": 0}),
        ("svt1", {"a": 0, "b": 2}),
        ("svt1", {"a": 1.0, "b": 0}),
        ("svt1", {"a": 0}),
        ("array2", {"a": [0], "b": 0}),
        ("array2", {"a": [0] * 8 + [3], "b": 0}),
        ("array2", {"a": [0] * 9, "b": -1}),
        ("array2", {"a": [0] * 9, "b": 3 ** 9 * 9}),
        ("array2", {"a": 0, "b": 0}),
    ])
    def test_rejected(self, family, residues):
        with pytest.raises(ParameterError):
            KdccSpec(family, 5, residues)
        with pytest.raises(ParameterError):
            KdccSpec.from_json({"family": family, "n": 5, "residues": residues})

    def test_largest_array2_residue_accepted(self):
        # n = 11 gives a 10-bit signature, padded to 18 bits in 9 rows
        spec = KdccSpec("array2", 11, {"a": [2] * 9, "b": 3 ** 9 * 18 - 1})
        assert array2_params(spec).modulus == 3 ** 9 * 18


class TestSpecJson:
    @pytest.mark.parametrize("family", ["sum1", "svt1", "array2"])
    def test_roundtrip(self, family):
        rng = SplitMix(5)
        for n in (3, 8, 17):
            spec = spec_for_strand(family, rng.strand(n))
            data = json.loads(json.dumps(spec.to_json()))
            assert data == {"family": family, "n": n, "residues": spec.residues}
            assert KdccSpec.from_json(data) == spec

    @pytest.mark.parametrize("data", [
        {"family": "sum1", "residues": {"a": 0}},
        {"n": 5, "residues": {"a": 0}},
        {"family": "sum1", "n": 5},
        [1, 2],
        "sum1",
        None,
    ])
    def test_malformed_rejected(self, data):
        with pytest.raises(ParameterError, match="malformed"):
            KdccSpec.from_json(data)

    @pytest.mark.parametrize("symbol", [1.5, "1", True])
    def test_inexact_symbol_rejected(self, symbol):
        for family in ("sum1", "svt1", "array2"):
            with pytest.raises(ParameterError, match="alphabet"):
                spec_for_strand(family, (2, symbol, 3, 4))
            with pytest.raises(ParameterError, match="alphabet"):
                membership(spec_for_strand(family, (2, 1, 3, 4)), (2, symbol, 3, 4))


class TestBestResidues:
    def test_sum1_partition(self):
        n = 3
        sizes = []
        for a in range(4):
            sizes.append(len(enumerate_codebook(KdccSpec("sum1", n, {"a": a}))))
        assert sum(sizes) == 4 ** n
        assert max(sizes) >= 4 ** n // 4

    def test_sum1_n1_partition(self):
        sizes = [len(enumerate_codebook(KdccSpec("sum1", 1, {"a": a})))
                 for a in range(4)]
        assert sum(sizes) == 4

    def test_best_sum1(self):
        spec, size = best_residues("sum1", 3)
        assert size >= 16

    @pytest.mark.parametrize("n", [0, -1])
    def test_bad_length_rejected(self, n):
        with pytest.raises(ParameterError):
            best_residues("sum1", n)

    @pytest.mark.parametrize("n", [0, -1])
    def test_spec_length_rejected(self, n):
        with pytest.raises(ParameterError):
            KdccSpec("sum1", n, {"a": 0})


class TestSweepAgainstPerWord:
    """The table-driven sweeps of ``best_residues`` and ``enumerate_codebook``
    against the per-word ``syndrome_key`` over ``all_strands``."""

    @pytest.mark.parametrize("family, n", [
        (family, n) for family in ("sum1", "svt1", "array2")
        for n in range(1 if family == "sum1" else 3, 7)])
    def test_every_class(self, family, n):
        classes: dict = {}
        for x in all_strands(n):
            classes.setdefault(syndrome_key(family, x), []).append(x)
        _, best = max(classes.items(), key=lambda kv: (len(kv[1]), str(kv[0])))
        assert best_residues(family, n) == (spec_for_strand(family, best[0]), len(best))
        for members in classes.values():
            spec = spec_for_strand(family, members[0])
            assert enumerate_codebook(spec) == members
            assert all(membership(spec, x) for x in members)


class TestCodeProperty:
    @pytest.mark.parametrize("family", ["sum1", "svt1"])
    def test_single_defect_disjointness(self, family):
        # no two codewords may look alike after any one defective cycle
        n = 5 if family == "sum1" else 5
        spec, _ = best_residues(family, n)
        members = enumerate_codebook(spec)
        seen = {}
        for x in members:
            for d in cycles(x):
                key = (d, apply_defects(x, {d}))
                assert key not in seen or seen[key] == x
                seen[key] = x

    def test_decode_is_left_inverse(self):
        n = 5
        spec, _ = best_residues("svt1", n)
        for x in enumerate_codebook(spec)[::7]:
            for d in cycles(x):
                inst = KnownDefectInstance(apply_defects(x, {d}), (d,), n)
                assert decode(spec, inst) == x


class TestParameterErrors:
    """One malformed input for each input check, with the text it raises."""

    @pytest.mark.parametrize("call, text", [
        (lambda: KdccSpec("sum2", 4, {"a": 0}), "unknown family 'sum2'"),
        (lambda: decode_sum1(KnownDefectInstance((1, 2, 3), (1, 2), 4), 0),
         "sum1 corrects exactly 1 defective cycle(s)"),
        (lambda: decode_svt1(KnownDefectInstance((1,), (1,), 2), 0, 0), "svt1 needs n >= 3"),
        (lambda: decode_sum1(KnownDefectInstance((1, 2, 3, 4, 1), (1,), 4), 0),
         "received length incompatible with 1 defect(s)"),
        (lambda: best_residues("sum2", 4), "unknown family 'sum2'"),
        (lambda: spec_for_strand("sum1", 5), "strand must be a sequence of symbols, got 5"),
        (lambda: membership(spec_for_strand("sum1", (1, 2, 3)), 5),
         "strand must be a sequence of symbols, got 5"),
        (lambda: decode_sum1(KnownDefectInstance((1, 2, 3), (1,), 4), "1"),
         "sum1 residue a must be an int, got '1'"),
        (lambda: decode_array2(5, array2_params(spec_for_strand("array2", (1, 2, 3, 4)))),
         "KnownDefectInstance expected, got int"),
        (lambda: decode(5, KnownDefectInstance((1, 2), (2,), 3)), "KdccSpec expected, got int"),
        (lambda: decode_sum1(5, 0), "KnownDefectInstance expected, got int"),
        (lambda: KnownDefectInstance((1, 2), 5, 3),
         "a collection of defective cycles expected, got 5"),
        (lambda: algorithm1_recover((1, 2), 5, (1,)),
         "a collection of defective cycles expected, got 5"),
        (lambda: array2_params(spec_for_strand("sum1", (1, 2, 3))),
         "family sum1 has no array code"),
        (lambda: hit_decoder(5), "KdccSpec expected, got int"),
        (lambda: enumerate_codebook(5), "KdccSpec expected, got int"),
        (lambda: membership(5, (1, 2)), "KdccSpec expected, got int"),
        (lambda: even_position_sum(5), "strand must be a sequence of symbols, got 5"),
    ], ids=["spec family", "cycle count", "svt1 length", "longer received", "best family",
            "spec strand int", "membership strand int", "sum1 string residue",
            "decode_array2 int instance", "decode int spec", "decode_sum1 int instance",
            "instance int cycles", "algorithm1 int cycles", "array2_params sum1 spec",
            "hit_decoder int spec", "enumerate int spec", "membership int spec",
            "even_position_sum int strand"])
    def test_rejected(self, call, text):
        with pytest.raises(ParameterError, match=f"^{re.escape(text)}$"):
            call()
