"""The declared API surface.  Every public function and class of the package
outside ``cli`` and ``rng`` is a checked entry unless :data:`UNCHECKED` names
it with the reason.  Two tests hold every checked entry to its contract,
that whatever it is given it returns or raises ParameterError, DecodeFailure
or ConstructionError: a sweep that puts each pool value in place of each
argument of one declared valid call, and a fuzz that draws whole argument
lists from the same pool."""

import importlib.util
import inspect
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from syndef import array_code, binary, bounds, core, kdcc, reports, sdcc, sketch
from syndef.core import ConstructionError, DecodeFailure, ParameterError

MODULES = (core, binary, array_code, kdcc, sdcc, sketch, bounds, reports)

PER_OP = "a benchmark workload calls it per operation or per candidate, on checked input"
READER = "an input reader: its other arguments are the calling code's constants"
RECORD = "a record the package builds: the entry that takes it tests its class, not its fields"

# The public names that take their input unchecked, each with the reason.
UNCHECKED = {
    "core.as_int": READER,
    "core.as_ints": READER,
    "core.as_type": READER,
    "core.unique": PER_OP,
    "core.smod4": PER_OP,
    "core.is_subsequence": PER_OP,
    "core.common_prefix": PER_OP,
    "core.common_suffix": PER_OP,
    "core.deletion_positions": PER_OP,
    "core.cycles": PER_OP,
    "core.apply_defects": PER_OP,
    "core.apply_defects_shifted": PER_OP,
    "core.reinsertions": "known2's twin check calls it, through confusable_ball, "
                         "once per set of lost cycles",
    "core.matching_slots": PER_OP,
    "core.matching_insertions": PER_OP,
    "core.pair_insertions": PER_OP,
    "core.pair_slots": PER_OP,
    "core.signature": PER_OP,
    "core.shift_symbols": PER_OP,
    "binary.vt_syndrome": PER_OP,
    "binary.weight": PER_OP,
    "kdcc.syndrome_key": "known2's twin check calls it, through spec_for_strand, "
                         "once per strand of a confusable ball",
    "kdcc.svt1_candidates": PER_OP,
    "kdcc.array_candidates": PER_OP,
    "sdcc.position_sums": PER_OP,
    "sdcc.symbol_counts_mod3": PER_OP,
    "sketch.xi_bit_length": PER_OP,
    "sketch.xi_field_widths": PER_OP,
    "bounds.CliqueCover": RECORD,
    "reports.Report": "a task's result record: no entry takes it as input",
    "sdcc.SdccCodeword": RECORD,
    "sketch.SketchBundle": "an encoder's result record: no entry takes it as input",
}


def public_names():
    """{module.name: callable} of every public function (``lru_cache``d ones
    too) and class the modules define, with each public static method of a
    class as class.method; exception classes are left out."""
    out = {}
    for module in MODULES:
        prefix = module.__name__.split(".")[-1]
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(inspect.unwrap(obj)):
                out[f"{prefix}.{name}"] = obj
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                out[f"{prefix}.{name}"] = obj
                out.update((f"{prefix}.{name}.{attr}", getattr(obj, attr))
                           for attr, member in vars(obj).items()
                           if isinstance(member, staticmethod) and not attr.startswith("_"))
    return out


CHECKED = sorted((name, f) for name, f in public_names().items() if name not in UNCHECKED)


def test_every_unchecked_name_is_public():
    assert set(UNCHECKED) <= set(public_names())


def test_code_lines_counts_these_names():
    """``tools/code_lines.py`` reads the same public names off the source."""
    path = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
    spec = importlib.util.spec_from_file_location("code_lines", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    read = {f"{module.__name__.split('.')[-1]}.{name}" for module in MODULES
            for name in tool.public_names(Path(module.__file__).read_text())}
    assert read == set(public_names())


def build_pools():
    """Arguments by parameter name, valid or nearly so, and a pool of every
    kind of value for any parameter.  Ints stay at most 6 and strands at
    most 6 long, so an exhaustive entry (a sweep of Sigma^n) stays quick."""
    x = (2, 1, 3, 4, 2, 1)
    word = (0, 1, 1, 0, 1, 0)
    one, plan1, params1 = sdcc.random_member_1sdcc(4, 5, seed=1)
    two, plan2, params2 = sdcc.random_member_2sdcc(4, 9, seed=1)
    array = array_code.array_syndromes(word[:5], 2)
    bundle = sketch.sketch_bundle(word, 2, 2)
    composed = sketch.encode_E(word[:3], 2, 2)
    marked = sketch.prefix_encode(word[:3], 2, 2)
    ints = [-1, 0, 1, 2, 3, 4, 5, 6]
    strands = [x, (1, 2, 3), (4,), [3, 1, 2, 4, 4], core.apply_defects(x, {4})]
    words = [word, (1, 0), [1, 1, 0], (), composed, composed[:-2], marked[1:], marked[:-2]]
    cycle_sets = [{2}, {3, 7}, (1, 2), (4,), frozenset(), [9, 14]]
    spans = [[(1, 1), (3, 1)], [(2, 2), (3, 2)], [(1, 2)], [(4, 2), (9, 2)], [(1, 1)]]
    params = [array, binary.SvtParams(a=1, b=0, window=5), params1, params2, params2.cover[0]]
    by_name = {
        "strand": strands, "symbols": strands, "full": strands, "short": strands,
        "bits": words, "sig": words, "own": words, "payload": words, "word": words + strands,
        "received": words + strands + [one.channel({3}), two.channel({3, 9}),
                                       (0, None, 1, 1, None), (None, 1, 1, 0, 1)],
        "strands": [one.strands[:4], ((1, 2, 3), (2, 3, 4)), [(1, 2, 3, 4)]],
        "delta": cycle_sets, "cycles": cycle_sets,
        "intervals": spans, "burst_positions": spans, "spans": spans, "interval": [(1, 2)],
        "sketch": [(0, 0), (0, 0, 0), bundle.xi, bundle.e1, bundle.e2],
        "params": params, "plan": [plan1, plan2], "codeword": [one, two],
        "spec": [kdcc.spec_for_strand(f, x) for f in kdcc.FAMILIES],
        "instance": [kdcc.KnownDefectInstance(core.apply_defects(x, d), d, 6)
                     for d in ((5,), (5, 10))],
        "cover": [bounds.build_clique_cover(5)], "block": [bounds.PATTERN_A],
        "family": list(kdcc.FAMILIES), "kind": list(reports.CEILINGS),
        "data": [bundle.to_json(), one.to_json(), kdcc.spec_for_strand("svt1", x).to_json()],
    }
    by_name.update(dict.fromkeys(
        ("n", "k", "m", "length", "rows", "rho", "P1", "P2", "a", "b", "window", "start",
         "window_start", "radius", "prefix_len", "order", "modulus", "pack_length", "count",
         "seed", "width", "value", "sigma", "lost"), ints))
    pool = ints + [True, 2.5, 3.0, "3", "01", None, (1, 5, 2), ("1", "2"), ("0", "1"),
                   {"1"}, {1.5}, [(0, 1), (2, 1)], [("1", 1)], [(1,)], ((),), {"a": 0},
                   {"a": 0, "b": 1}, {"a": [0] * 9, "b": 0}, {}]
    for values in by_name.values():
        pool += [v for v in values if not any(v is p for p in pool)]
    return by_name, pool


def valid_calls():
    """{entry: arguments} of one call of each checked entry that returns:
    small sizes again, and for each decoder a word its channel gives."""
    x = (2, 1, 3, 4, 2, 1, 3, 3)
    w = (0, 1, 1, 0, 1, 0, 0, 1)
    one, plan1, params1 = sdcc.random_member_1sdcc(4, 5, seed=1)
    two, plan2, params2 = sdcc.random_member_2sdcc(4, 9, seed=1)
    array = array_code.array_syndromes(w, 3)
    svt = binary.SvtParams(binary.vt_syndrome(w) % 5, sum(w) % 2, 5)
    specs = {f: kdcc.spec_for_strand(f, x) for f in kdcc.FAMILIES}
    one_hit = kdcc.KnownDefectInstance(core.apply_defects(x, (5,)), (5,), 8)
    two_hit = kdcc.KnownDefectInstance(core.apply_defects(x, (5, 10)), (5, 10), 8)
    c2 = sdcc.c2d_params_of(x)
    composed = sketch.encode_E(w, 2, 2)
    marked = sketch.prefix_encode(w, 2, 2)
    return {
        "array_code.ArrayCodeParams": (3, 8, array.row_sums, array.weighted_vt),
        "array_code.array_bounded_decode": (w[:1] + w[2:4] + w[5:], [(1, 2), (4, 2)], array),
        "array_code.array_erasure_decode":
            ([None, None, 1, 0, 1, None, 0, 1], [(1, 2), (6, 1)], array),
        "array_code.array_single_bounded_decode": (w[1:], (1, 2), array),
        "array_code.array_syndromes": (w, 3),
        "array_code.is_member": (w, array),
        "binary.SvtParams": (1, 0, 5),
        "binary.as_bits": (w,),
        "binary.insertions": (w, range(1, 4)),
        "binary.svt_decode": (w[1:], 1, svt),
        "binary.svt_member": (w, svt),
        "binary.vt_decode": (w[1:], binary.vt_syndrome(w) % 9, 8, 9),
        "bounds.block_collapse_cycle": (2, bounds.PATTERN_B),
        "bounds.build_clique_cover": (5,),
        "bounds.cover_size": (5,),
        "bounds.kdcc_size_bounds": (5,),
        "bounds.verify_cover": (5, bounds.build_clique_cover(5)),
        "core.all_strands": (2,),
        "core.apply_defects_tuple": ((x[:4], x[4:]), {2, 7}),
        "core.as_spans": ([(1, 2)], "span", 1, 4, 2),
        "core.as_strand": (x, True),
        "core.confusable_ball": (x, {4, 9}),
        "core.default_regular_window": (8,),
        "core.defect_ball": ((x[:3], x[3:6]), 1),
        "core.diff": (x,),
        "core.inverse_diff": (x,),
        "core.is_regular": (w, 4),
        "core.longest_run": (w,),
        "core.run_sequence": (w,),
        "core.symbol_positions": (x, 3),
        "kdcc.KdccSpec": ("array2", 8, specs["array2"].residues),
        "kdcc.KdccSpec.from_json": (specs["array2"].to_json(),),
        "kdcc.KnownDefectInstance": (two_hit.received, (5, 10), 8),
        "kdcc.algorithm1_recover": (two_hit.received, (5, 10), core.signature(x)),
        "kdcc.array2_params": (specs["array2"],),
        "kdcc.best_residues": ("sum1", 4),
        "kdcc.decode": (specs["array2"], two_hit),
        "kdcc.decode_array2": (two_hit, kdcc.array2_params(specs["array2"])),
        "kdcc.decode_sum1": (one_hit, specs["sum1"].residues["a"]),
        "kdcc.decode_svt1": (one_hit, *specs["svt1"].residues.values()),
        "kdcc.enumerate_codebook": (kdcc.spec_for_strand("sum1", x[:4]),),
        "kdcc.even_position_sum": (x,),
        "kdcc.hit_decoder": (specs["svt1"],),
        "kdcc.membership": (specs["array2"], x),
        "kdcc.spec_for_strand": ("svt1", x),
        "reports.check_ceiling": ("strand_sweep", 4),
        "reports.stratified_delta_pairs": (4, 10, 1),
        "sdcc.C2dParams": (c2.n, c2.sketch, c2.run_weighted, c2.counts, c2.position_sums),
        "sdcc.CoverPlan": (plan1.n, plan1.shifts),
        "sdcc.Sdcc1Params": (params1.n, params1.s, params1.b, params1.d, params1.e),
        "sdcc.Sdcc2Params": (params2.n, params2.cover, params2.sig_arrays, params2.position_sums),
        "sdcc.SdccCodeword.from_json": (two.to_json(),),
        "sdcc.c2d_decode": (core.apply_defects(x, (5, 10)), c2),
        "sdcc.c2d_membership": (x, c2),
        "sdcc.c2d_params_of": (x,),
        "sdcc.cover_group_size": (5,),
        "sdcc.default_cover_count": (5,),
        "sdcc.localization_window": (5,),
        "sdcc.plan_covers": (one.bases()[:4], plan1),
        "sdcc.position_sum_modulus": (5,),
        "sdcc.random_member_1sdcc": (4, 5, 1),
        "sdcc.random_member_2sdcc": (4, 9, 1),
        "sdcc.sdcc1_decode": (one.channel({3}), plan1, params1),
        "sdcc.sdcc1_params_of": (one,),
        "sdcc.sdcc2_decode": (two.channel({3, 9}), plan2, params2),
        "sdcc.sdcc2_params_of": (two,),
        "sdcc.select_cover_shifts": (one.bases()[:4],),
        "sdcc.template_strand": (5, 2),
        "sketch.EParams": (8, 2, 2),
        "sketch.SketchBundle.from_json": (sketch.sketch_bundle(w, 2, 2).to_json(),),
        "sketch.decode_E": (composed[:2] + composed[4:], [(1, 2), (4, 2)], 8, 2, 2),
        "sketch.e1_decode": (w[:2] + w[4:], [(1, 2), (3, 2)], sketch.e1_sketch(w, 2, 2), 8, 2, 2),
        "sketch.e1_sketch": (w, 2, 2),
        "sketch.e1_windows": (8, 2),
        "sketch.e2_decode": (w[:1] + w[2:5] + w[6:], [(1, 2), (6, 2)],
                             sketch.e2_sketch(w, 2, 2), 8, 2, 2),
        "sketch.e2_sketch": (w, 2, 2),
        "sketch.encode_E": (w, 2, 2),
        "sketch.from_bits": (w,),
        "sketch.moment": (w, 2),
        "sketch.moment_collisions": (4,),
        "sketch.moment_vector": (w,),
        "sketch.prefix_codeword_length": (3, 2, 2),
        "sketch.prefix_decode_one": (marked[1:], 8, 2, 2),
        "sketch.prefix_decode_two": (marked[:2] + marked[4:], [(1, 2), (4, 2)], 8, 2, 2),
        "sketch.prefix_encode": (w, 2, 2),
        "sketch.prefix_member": (marked, 8, 2, 2),
        "sketch.sketch_bundle": (w, 2, 2),
        "sketch.sketch_values": (4,),
        "sketch.sketch_xi": (w,),
        "sketch.to_bits": (5, 4),
        "sketch.verify_sketch_injectivity": (4,),
        "sketch.xi_budget": (4,),
        "sketch.xi_decode": (w[1:], sketch.sketch_xi(w), 8),
        "sketch.xi_value": (w, 9),
    }


BY_NAME, POOL = build_pools()
VALID = valid_calls()
ANY = st.sampled_from(POOL)
# A value for a parameter of each name: one meant for it, now and then anything.
ARGUMENT = {name: st.one_of(st.sampled_from(values), ANY) for name, values in BY_NAME.items()}


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=st.data())
def test_checked_entries_raise_only_their_own_errors(data):
    """Each checked entry, called with drawn arguments (its optional ones
    left out now and then), returns or raises ParameterError, DecodeFailure
    or ConstructionError."""
    for name, f in CHECKED:
        args = []
        for p in inspect.signature(f).parameters.values():
            if p.default is not p.empty and data.draw(st.booleans()):
                break
            args.append(data.draw(ARGUMENT.get(p.name, ANY)))
        try:
            f(*args)
        except (ParameterError, DecodeFailure, ConstructionError):
            pass
        except Exception as exc:
            raise AssertionError(f"{name}{tuple(args)!r:.300} raised {exc!r}") from exc


@pytest.mark.parametrize("name", [name for name, _ in CHECKED])
def test_each_argument_of_a_valid_call_swept_over_the_pool(name):
    """The entry's declared valid call returns, and so does each call made
    from it by putting one pool value in place of one argument, or it raises
    ParameterError, DecodeFailure or ConstructionError: every (argument,
    value) pair is tried, whatever the fuzz happens to draw."""
    assert name in VALID, f"{name} is checked but declares no valid call"
    f, args = dict(CHECKED)[name], VALID[name]
    f(*args)
    for i in range(len(args)):
        for value in POOL:
            swept = args[:i] + (value,) + args[i + 1:]
            try:
                f(*swept)
            except (ParameterError, DecodeFailure, ConstructionError):
                pass
            except Exception as exc:
                raise AssertionError(f"{name}{swept!r:.300} raised {exc!r}") from exc
