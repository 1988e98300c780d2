"""Shared channel kernels against brute force, and the benchmark's bindings."""

import importlib
import importlib.util
from itertools import accumulate, combinations
from pathlib import Path

import pytest

from syndef import kdcc, sdcc
from syndef.core import (
    _insert_slot_positions,
    all_strands,
    apply_defects,
    apply_defects_shifted,
    cycles,
    diff,
    landing_cycles,
    reinsertions,
    shift_symbols,
    signature,
    smod4,
    unshift_symbols,
)
from syndef.sdcc import _deleted_positions, _matching_slots, position_sums, symbol_counts_mod3

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def words_up_to(length):
    for n in range(length + 1):
        yield from all_strands(n)


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchmarkBindings:
    def test_every_layer_function_resolves(self):
        for _, module, path, _ in load_tracer().LAYER_FUNCTIONS:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            assert callable(vars(owner).get(attr)), f"{module}.{path}"

    def test_decoders_call_through_the_traced_kernels(self):
        tracer_module = load_tracer()
        x = tuple(int(c) for c in "112212412341423333234234")
        params = kdcc.array2_params(kdcc.spec_for_strand("array2", x))
        codeword, plan, tuple_params = sdcc.random_member_2sdcc(16, 10, seed=4)
        one, one_plan, one_params = sdcc.random_member_1sdcc(16, 8, seed=7)
        svt1 = kdcc.spec_for_strand("svt1", x).residues
        one_hit = codeword.channel({2})
        assert len(one_hit[plan.cover_count]) == 15  # a remaining strand lost one symbol
        tracer = tracer_module.Tracer()
        tracer.install()
        try:
            # reached through the modules, whose bindings the tracer rebinds
            received = apply_defects(x, (14, 24))
            kdcc.decode_array2(kdcc.KnownDefectInstance(received, (14, 24), 24), params)
            sdcc.sdcc2_decode(codeword.channel({9, 30}), plan, tuple_params)
            # one-hit decodes: the known-cycle step reached from both tuple codes
            kdcc.decode_svt1(kdcc.KnownDefectInstance(apply_defects(x, {14}), (14,), 24),
                             svt1["a"], svt1["b"])
            sdcc.sdcc1_decode(one.channel({21}), one_plan, one_params)
            sdcc.sdcc2_decode(one_hit, plan, tuple_params)
        finally:
            tracer.uninstall()
        assert tracer_module.wrapped_bindings() == []
        calls, _ = tracer.metrics(1)
        for name in ("core.insert_slot_positions", "core.apply_defects_shifted",
                     "kdcc.decode_array2", "array_code.array_bounded_decode",
                     "sdcc.channel", "sdcc.c2d_decode", "sketch.completions",
                     "kdcc.decode_svt1", "sdcc.sdcc1_decode", "kdcc.algorithm1_recover",
                     "binary.svt_decode", "array_code.array_single_bounded_decode"):
            assert calls[f"{name}.calls"] > 0, name


def schedule(x):
    """Reference schedule: prefix sums of the difference sequence."""
    return tuple(accumulate(diff(x)))


def insert(word, p, value):
    return word[:p - 1] + (value,) + word[p - 1:]


class TestScheduleRecurrence:
    def test_cycles_are_prefix_sums_of_diff(self):
        for x in words_up_to(6):
            assert cycles(x) == (schedule(x) if x else ())

    def test_shifted_defects_against_unshift_then_cycles(self):
        for y in words_up_to(6):
            n = len(y)
            for a in range(-3, 4 * n) if y else ():  # every shift feasible for some base
                ref = schedule(unshift_symbols(y, a))
                if not 1 - ref[0] <= a <= 4 * n - ref[-1]:
                    continue
                # each cycle alone must drop exactly its own symbol: that pins
                # the whole re-timed schedule
                for i, c in enumerate(ref):
                    assert apply_defects_shifted(y, a, {c + a}) == y[:i] + y[i + 1:], (y, a, c)


class TestMatchingSlots:
    def test_against_insert_then_signature(self):
        for w in words_up_to(6):
            if not w:
                continue
            for value in (1, 2, 3, 4):
                sigs = [signature(insert(w, p, value)) for p in range(1, len(w) + 2)]
                got = {}
                for p, sig in enumerate(sigs, start=1):
                    got.setdefault(sig, []).append(p)
                # every one-bit change of the outermost slots' targets, mostly
                # unreachable
                targets = {sig[:i] + (1 - sig[i],) + sig[i + 1:]
                           for sig in (sigs[0], sigs[-1]) for i in range(len(sig))}
                for sig in targets | set(got):
                    assert _matching_slots(w, value, sig) == got.get(sig, []), (w, value, sig)
                assert _matching_slots(w, value, (1,) * (len(w) + 1)) == []


class TestDeletedPositions:
    def test_against_slice_comparison(self):
        for full in words_up_to(6):
            shorts = {full[:p - 1] + full[p:] for p in range(1, len(full) + 1)}
            shorts.update(s[:i] + (smod4(s[i] + 1),) + s[i + 1:]
                          for s in list(shorts) for i in range(len(s)))
            shorts.update({full, full[:-2]})
            for short in shorts:
                assert _deleted_positions(full, short) == [
                    p for p in range(1, len(full) + 1) if full[:p - 1] + full[p:] == short]


class TestSlotKernel:
    def test_against_insert_then_cycles(self):
        for w in words_up_to(5):
            for delta in range(1, 4 * (len(w) + 1) + 5):
                value = smod4(delta)
                grown = [w[:p - 1] + (value,) + w[p - 1:] for p in range(1, len(w) + 2)]
                landed = [cycles(y)[p - 1] for p, y in enumerate(grown, start=1)]
                assert landing_cycles(w, value) == landed
                assert _insert_slot_positions(w, delta) == \
                    [p for p, c in enumerate(landed, start=1) if c == delta]

    def test_reinsertions_recover_the_strand(self):
        for x in all_strands(4):
            for delta in combinations(cycles(x), 2):
                assert x in reinsertions(apply_defects(x, delta), delta)


class TestSyndromes:
    @pytest.mark.parametrize("m", [3, 7, 100])
    def test_position_sums_and_counts(self, m):
        for x in words_up_to(6):
            assert position_sums(x, m) == tuple(
                sum(i for i, s in enumerate(x, start=1) if s == v) % m for v in (1, 2, 3, 4))
            assert symbol_counts_mod3(x) == tuple(x.count(v) % 3 for v in (1, 2, 3, 4))


class TestShiftPair:
    def test_round_trips(self):
        for x in words_up_to(4):
            for a in range(-9, 10):
                assert unshift_symbols(shift_symbols(x, a), a) == x
                assert shift_symbols(unshift_symbols(x, a), a) == x

    def test_defects_hit_the_shifted_schedule(self):
        for x in all_strands(4):
            sched = cycles(x)
            for a in range(1 - sched[0], 16 - sched[-1] + 1):
                symbols = shift_symbols(x, a)
                schedule = [c + a for c in sched]
                for delta in combinations(range(1, 17), 2):
                    assert apply_defects_shifted(symbols, a, delta) == tuple(
                        v for v, c in zip(symbols, schedule) if c not in delta)
