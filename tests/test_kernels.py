"""Shared channel kernels against brute force, and the benchmark's bindings."""

import ast
import importlib
import importlib.util
import random
from itertools import accumulate, combinations, product
from math import comb
from pathlib import Path

import pytest

from syndef import kdcc, sdcc, sketch
from syndef.array_code import array_syndromes
from syndef.core import (
    _insert_slot_positions,
    all_strands,
    apply_defects,
    apply_defects_shifted,
    common_prefix,
    common_suffix,
    cycles,
    deletion_positions,
    diff,
    matching_slots,
    pair_insertions,
    pair_slots,
    reinsertions,
    shift_symbols,
    signature,
    smod4,
)
from syndef.core import DecodeFailure, ParameterError
from syndef.sdcc import position_sums, symbol_counts_mod3
from syndef.sketch import EParams, from_bits, moment, moment_vector, to_bits, xi_value

ROOT = Path(__file__).resolve().parents[1]
TRACER_PATH = ROOT / "perfbench" / "tracer.py"


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
                     "kdcc.decode_svt1", "sdcc.sdcc1_decode",
                     "binary.svt_decode", "array_code.array_single_bounded_decode"):
            assert calls[f"{name}.calls"] > 0, name

    def test_sketch_bundle_cache_size(self):
        assert sketch._sketch_bundle_cached.cache_info().maxsize == 8192, (
            "perfbench sizes the sketch workload's payload pool from this value "
            "(twice the cache), so changing it changes the workload")


class TestModuleBoundaries:
    def test_no_private_name_crosses_a_module(self):
        """A module of the package imports no other module's ``_private``
        name, except the kernels the benchmark's tracer binds by name."""
        bound = {path for _, _, path, _ in load_tracer().LAYER_FUNCTIONS
                 if path.startswith("_")}
        assert bound <= {"_insert_slot_positions", "_completions"}
        crossings = []
        for path in sorted((ROOT / "src" / "syndef").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                    crossings += [f"{path.name}: {alias.name}" for alias in node.names
                                  if alias.name.startswith("_") and alias.name not in bound]
        assert crossings == []

    @staticmethod
    def loaded_names(trees) -> set[str]:
        """Every name the modules of ``trees`` load, read as an attribute or
        import."""
        loaded = set()
        for tree in trees:
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    loaded.add(node.id)
                elif isinstance(node, ast.Attribute):
                    loaded.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    loaded.update(alias.name for alias in node.names)
        return loaded

    def test_every_private_name_is_used(self):
        """Every module-level private function, class or constant of the
        package is loaded somewhere in the package."""
        trees = [(path.name, ast.parse(path.read_text()))
                 for path in sorted((ROOT / "src" / "syndef").glob("*.py"))]
        loaded = self.loaded_names(tree for _, tree in trees)
        unused = []
        for name, tree in trees:
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    defined = [node.name]
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    defined = [t.id for t in targets if isinstance(t, ast.Name)]
                else:
                    continue
                unused += [f"{name}: {d}" for d in defined
                           if d.startswith("_") and not d.startswith("__") and d not in loaded]
        assert unused == []

    def test_every_public_name_is_used(self):
        """Every module-level public function or class of the package is
        loaded somewhere in the package, its tests or the benchmark, where
        the tracer's dotted paths count as uses: a removed kernel leaves no
        public orphan behind."""
        sources = [ROOT / "src", ROOT / "tests", ROOT / "perfbench"]
        loaded = self.loaded_names(ast.parse(path.read_text())
                                   for root in sources for path in sorted(root.rglob("*.py")))
        for _, _, path, _ in load_tracer().LAYER_FUNCTIONS:
            loaded.update(path.split("."))
        unused = [f"{path.name}: {node.name}"
                  for path in sorted((ROOT / "src" / "syndef").glob("*.py"))
                  for node in ast.parse(path.read_text()).body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and not node.name.startswith("_") and node.name not in loaded]
        assert unused == []

    @staticmethod
    def sites(paths, keep) -> list[tuple[str, str, ast.AST]]:
        """(module, enclosing function, node) of every node in ``paths`` that
        ``keep`` accepts, in source order."""
        def walk(node, module, function):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.FunctionDef):
                    yield from walk(child, module, child.name)
                    continue
                if keep(child):
                    yield module, function, child
                yield from walk(child, module, function)

        return [site for path in paths
                for site in walk(ast.parse(path.read_text()), path.stem, None)]

    @classmethod
    def raise_sites(cls, paths, *exceptions) -> list[tuple[str, str, str]]:
        """(module, enclosing function, message) of every ``raise E(...)`` in
        ``paths`` with E one of ``exceptions``, in source order; an f-string
        message reads as its template, each field in braces as written.  For
        DecodeFailure, each ``unique(found, what, *fields)`` call is a site
        too, whose message reads as the f-string it raises: ``{len(found)}``,
        then ``what`` with each field in braces as written."""
        def text(node):
            if isinstance(node, ast.Constant):
                return node.value
            return "".join(v.value if isinstance(v, ast.Constant)
                           else "{" + ast.unparse(v.value) + "}" for v in node.values)

        def unique_text(call):
            found, what, *fields = call.args
            return (f"{{len({ast.unparse(found)})}} "
                    + what.value.format(*("{" + ast.unparse(f) + "}" for f in fields)))

        def is_unique(node):
            return (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "unique"
                    and "DecodeFailure" in exceptions)

        def keep(node):
            return is_unique(node) or (
                isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                and getattr(node.exc.func, "id", None) in exceptions)

        return [(module, function,
                 unique_text(node) if is_unique(node) else text(node.exc.args[0]))
                for module, function, node in cls.sites(paths, keep)]

    @classmethod
    def int_type_tests(cls, paths) -> list[tuple[str, str]]:
        """(module, enclosing function) of every ``type(...) is int`` or
        ``type(...) is not int`` comparison in ``paths``, chained ones too."""
        def keep(node):
            if not isinstance(node, ast.Compare):
                return False
            operands = [node.left, *node.comparators]
            return (any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
                    and any(isinstance(o, ast.Name) and o.id == "int" for o in operands)
                    and any(isinstance(o, ast.Call) and getattr(o.func, "id", None) == "type"
                            for o in operands))

        return [(module, function) for module, function, _ in cls.sites(paths, keep)]

    def test_one_integer_reader(self):
        """An int (not a bool) is told apart only by ``core.as_int`` and the
        readers listed in ``INT_TYPE_TESTS``; everything else calls them."""
        paths = sorted((ROOT / "src" / "syndef").glob("*.py"))
        assert {f"{m}.{f}" for m, f in self.int_type_tests(paths)} == set(INT_TYPE_TESTS)

    def test_decode_failure_inventory(self):
        """Every guard that raises DecodeFailure, listed: one added, deleted
        or reworded shows in this test's diff."""
        paths = sorted((ROOT / "src" / "syndef").glob("*.py"))
        assert self.raise_sites(paths, "DecodeFailure") == DECODE_FAILURES

    def test_construction_check_inventory(self):
        """Every self-check of a construction (ConstructionError or
        ArithmeticError), listed in the same way."""
        paths = sorted((ROOT / "src" / "syndef").glob("*.py"))
        assert self.raise_sites(paths, "ConstructionError", "ArithmeticError") \
            == CONSTRUCTION_CHECKS


# The functions that test ``type(x) is int`` themselves, each with the reason.
INT_TYPE_TESTS = {
    "core.as_int": "the integer reader",
    "core.as_strand": "reads every symbol of a strand in one pass, on every checked call",
    "core.as_spans": "reads both ints of each (start, length) pair in one test",
}


# (module, function, message) of each ``raise DecodeFailure(...)`` and each
# ``unique(...)`` call in the package.
DECODE_FAILURES = [
    ("array_code", "_solve_rows", "row sum inconsistent with a single missing bit"),
    ("array_code", "_solve_rows",
     "{len(matches)} row assignments consistent with the weighted VT residue"),
    ("array_code", "array_erasure_decode", "recovered word cannot reproduce the received bits"),
    ("array_code", "_bounded_decode", "recovered word cannot reproduce the received bits"),
    ("binary", "vt_decode", "{len(matches)} candidates consistent with VT residue {a} mod {m}"),
    ("binary", "svt_decode", "deletion window does not meet the received word"),
    ("binary", "svt_decode", "{len(matches)} shifted-VT candidates in window [{lo}, {hi}]"),
    ("core", "unique", "{len(found)} {what.format(*fields)}"),
    ("kdcc", "_sum1_hit", "{len(found)} insertions match the even-position sum"),
    ("kdcc", "algorithm1_recover", "no signature-consistent reinsertion exists"),
    ("kdcc", "algorithm1_recover", "signature does not single out one reinsertion"),
    ("kdcc", "svt1_candidates", "no cycle-consistent insertion for the defective cycle"),
    ("kdcc", "svt1_candidates", "defect window wider than the shifted-VT code tolerates"),
    ("kdcc", "_svt1_hit", "{len(found)} insertions match the signature"),
    ("kdcc", "decode_array2", "{len(found)} strands consistent with {hits}"),
    ("sdcc", "sdcc1_decode", "a defect missed every cover strand; coverage is broken"),
    ("sdcc", "sdcc1_decode", "cover strand reconstruction is not unique"),
    ("sdcc", "sdcc1_decode", "cover strands disagree on the defective cycle"),
    ("sdcc", "sdcc1_decode", "remaining strand reconstruction is not unique"),
    ("sdcc", "sdcc1_decode", "no candidate cycle reproduces the received tuple"),
    ("sdcc", "_deleted_values", "symbol counts inconsistent with two deletions"),
    ("sdcc", "c2d_decode", "symbol counts disagree with the received length"),
    ("sdcc", "c2d_decode", "{len(survivors)} strands consistent with all syndromes"),
    ("sdcc", "sdcc2_decode", "defects missed every cover strand; coverage is broken"),
    ("sdcc", "sdcc2_decode", "no defective-cycle set explains all cover strands"),
    ("sdcc", "sdcc2_decode", "{len(outcomes)} tuples consistent with the channel"),
    ("sketch", "xi_decode",
     "{len(_completions(received, n, targets))} words consistent with the sketch"),
    ("sketch", "_e1_decode", "interval union wider than one sketch window"),
    ("sketch", "_e1_decode", "{len(found)} window contents consistent with the sketch"),
    ("sketch", "_e2_decode", "intervals are not separated"),
    ("sketch", "_e2_decode", "{len(out)} placements consistent with the interval sketch"),
    ("sketch", "_decode_E", "full-length word is not a valid composition"),
    ("sketch", "_decode_E", "{len(found)} single-deletion completions are consistent"),
    ("sketch", "_decode_E", "{len(found)} completions are consistent with the composition"),
    ("sketch", "prefix_decode_two", "marker bits not found where the intervals imply"),
    ("sketch", "prefix_decode_two", "{len(found)} payloads consistent with the marker code"),
    ("sketch", "prefix_decode_one", "full-length word is not a marker codeword"),
    ("sketch", "prefix_decode_one", "{len(verified)} payloads consistent with one deletion"),
]


# (module, function, message) of each ``raise ConstructionError(...)`` or
# ``raise ArithmeticError(...)`` in the package: the checks no proof retires.
CONSTRUCTION_CHECKS = [
    ("bounds", "kdcc_size_bounds", "lower bound exceeded the clique-cover bound"),
    ("sdcc", "select_cover_shifts", "block [{t}, {t + n - 1}] left uncovered"),
    ("sketch", "_e2_decode",
     "second-moment spread exceeds its modulus across feasible placements"),
]

# Unbounded ``functools.cache`` is kept to these, each with why its keys
# stay few.
UNBOUNDED_CACHES = {
    "array_code._weights": "keyed on (rows, cols) of params that were validated",
}


def memo_name(node):
    """``lru_cache`` or ``cache`` when ``node`` names or calls that memoiser."""
    node = node.func if isinstance(node, ast.Call) else node
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    return name if name in ("lru_cache", "cache") else None


def memo_decorators():
    """(module.function, decorator) of every memoiser decorator in the
    package, and every other use of a memoiser."""
    found, stray = [], []
    for path in sorted((ROOT / "src" / "syndef").glob("*.py")):
        tree = ast.parse(path.read_text())
        decorators = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in node.decorator_list:
                    if memo_name(dec):
                        found.append((f"{path.stem}.{node.name}", dec))
                        decorators.update(ast.walk(dec))
        stray += [f"{path.stem}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, (ast.Name, ast.Attribute)) and memo_name(node)
                  and node not in decorators]
    return found, stray


class TestMemoisation:
    def test_caches_are_typed_and_bounded(self):
        """An untyped cache answers f(2.0) with f(2)'s result, skipping the
        type checks inside f; an unbounded one grows with its callers."""
        found, stray = memo_decorators()
        assert stray == []
        unbounded, loose = set(), []
        for where, dec in found:
            if memo_name(dec) == "cache":
                unbounded.add(where)
                continue
            kw = {k.arg: k.value for k in getattr(dec, "keywords", ())}
            maxsize = kw.get("maxsize", dec.args[0] if getattr(dec, "args", None) else None)
            typed = kw.get("typed")
            if not (isinstance(typed, ast.Constant) and typed.value is True
                    and isinstance(maxsize, ast.Constant) and type(maxsize.value) is int):
                loose.append(where)
        assert loose == []
        assert unbounded == set(UNBOUNDED_CACHES)


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
                ref = schedule(shift_symbols(y, -a))
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
                own = signature(w) if len(w) > 1 else ()
                for sig in targets | set(got):
                    assert matching_slots(w, value, sig, own) == got.get(sig, []), \
                        (w, value, sig)
                    # restricted to a run of slots, as Algorithm 1's one-cycle
                    # case asks about one cycle's slots
                    for lo in range(1, len(w) + 2 if len(w) <= 5 else 1):
                        slots = range(lo, lo + 4)
                        assert matching_slots(w, value, sig, own, slots) == [
                            p for p in got.get(sig, []) if p in slots], (w, value, sig)
                assert matching_slots(w, value, (1,) * (len(w) + 1), own) == []


class TestDeletedPositions:
    def test_against_slice_comparison(self):
        for full in words_up_to(6):
            shorts = {full[:p - 1] + full[p:] for p in range(1, len(full) + 1)}
            shorts.update(s[:i] + (smod4(s[i] + 1),) + s[i + 1:]
                          for s in list(shorts) for i in range(len(s)))
            shorts.update({full, full[:-2]})
            for short in shorts:
                k = len(full) - len(short)
                assert deletion_positions(full, short) == [
                    pos for pos in combinations(range(1, len(full) + 1), k)
                    if tuple(v for i, v in enumerate(full, 1) if i not in pos) == short]

    def test_other_lengths_give_none(self):
        for full in words_up_to(5):
            for short in (full + (1,), full[3:]):
                if len(full) - len(short) not in (0, 1, 2):
                    assert deletion_positions(full, short) == [], (full, short)


class TestSlotKernel:
    def test_against_insert_then_cycles(self):
        for w in words_up_to(5):
            for delta in range(1, 4 * (len(w) + 1) + 5):
                value = smod4(delta)
                grown = [w[:p - 1] + (value,) + w[p - 1:] for p in range(1, len(w) + 2)]
                landed = [cycles(y)[p - 1] for p, y in enumerate(grown, start=1)]
                assert _insert_slot_positions(w, delta) == \
                    [p for p, c in enumerate(landed, start=1) if c == delta]

    def test_reinsertions_recover_the_strand(self):
        for x in all_strands(4):
            for delta in combinations(cycles(x), 2):
                assert x in reinsertions(apply_defects(x, delta), delta)

    def test_resumed_scan_against_a_scan_from_position_1(self):
        # every resume point (start, cycle of symbol start - 1) gives the
        # slots from start on of the scan from position 1
        for w in words_up_to(5):
            sched = (0,) + cycles(w)
            for delta in range(1, 4 * len(w) + 9):
                slots = _insert_slot_positions(w, delta)
                for start in range(1, len(w) + 2):
                    assert _insert_slot_positions(w, delta, start, sched[start - 1]) == \
                        [q for q in slots if q >= start]

    @staticmethod
    def check_table(r, d1, d2):
        """Each second scan of the slot table, resumed after its first slot,
        against the slots past it of a scan of the grown word from position 1."""
        table = kdcc._slot_table(r, d1, d2)
        assert list(table) == _insert_slot_positions(r, d1)
        for p, (grown, seconds) in table.items():
            assert grown == insert(r, p, smod4(d1))
            assert seconds == [q for q in _insert_slot_positions(grown, d2) if q > p], \
                (r, d1, d2, p)

    def test_slot_table_resumes_at_the_first_slot(self):
        for w in words_up_to(4):
            for d1, d2 in combinations(range(1, 4 * len(w) + 9), 2):
                self.check_table(w, d1, d2)
        for x in words_up_to(6):
            for d1, d2 in combinations(cycles(x), 2):
                self.check_table(apply_defects(x, (d1, d2)), d1, d2)
        rng = random.Random(24)
        for n in (24, 32):
            for _ in range(300):
                x = tuple(rng.randint(1, 4) for _ in range(n))
                d1, d2 = sorted(rng.sample(cycles(x), 2))
                self.check_table(apply_defects(x, (d1, d2)), d1, d2)
                d2 = rng.randint(d1 + 1, 4 * n + 4)
                self.check_table(apply_defects(x, (d1,)), d1, d2)


class TestPairReinsertions:
    """The signature-guided pair kernel of the array2 decode,
    :func:`pair_insertions` over the slot table, against building every
    reinsertion at the two cycles, keeping those the channel maps back onto
    the received word, and comparing their signatures."""

    @staticmethod
    def check(r, d1, d2, sigs):
        by_sig = {}
        for y in reinsertions(r, (d1, d2)):
            if apply_defects(y, (d1, d2)) == r:
                by_sig.setdefault(signature(y), set()).add(y)
        table = kdcc._slot_table(r, d1, d2)
        own = signature(r) if len(r) >= 2 else ()
        for sig in sigs:
            got = pair_insertions(r, smod4(d1), smod4(d2), sig, own, table)
            assert got == by_sig.get(sig, set()), (r, d1, d2, sig)

    @staticmethod
    def flipped(sig, i):
        i %= len(sig)
        return sig[:i] + (1 - sig[i],) + sig[i + 1:]

    def test_every_strand_up_to_length_6(self):
        # each pair of the strand's own cycles, and up to length 5 also the
        # first cycle paired with the next cycle that misses the strand; the
        # true signature and one with a bit flipped
        for x in words_up_to(6):
            sched = cycles(x)
            sig = signature(x) if len(x) >= 2 else ()
            for d1, d2 in combinations(sched, 2):
                r = apply_defects(x, (d1, d2))
                pairs = [(d1, d2)]
                if len(x) <= 5:
                    pairs.append((d1, next(d for d in range(d1 + 1, 4 * len(x) + 2)
                                           if d not in sched)))
                for e1, e2 in pairs:
                    self.check(r, e1, e2, [sig, self.flipped(sig, e1 + e2)])

    def test_random_strands(self):
        rng = random.Random(17)
        for _ in range(2000):
            x = tuple(rng.randint(1, 4) for _ in range(rng.randint(7, 30)))
            d1, d2 = sorted(rng.sample(cycles(x), 2))
            sig = signature(x)
            self.check(apply_defects(x, (d1, d2)), d1, d2,
                       [sig, self.flipped(sig, rng.randrange(len(sig)))])

    def test_second_slot_at_the_first(self):
        # 2 reinstated at cycle 2 lands at slot 1 of 41143; 3 at cycle 3 then
        # fits at slot 1 or 2 of 241143.  At slot 1 it pushes the 2 to cycle 6,
        # so that word has no symbol at cycle 2: the channel drops only the 3,
        # it is no preimage, and the table holds only the slot past the first.
        r = (4, 1, 1, 4, 3)
        y = (3, 2, 4, 1, 1, 4, 3)
        assert y in reinsertions(r, (2, 3))
        assert cycles(y)[:2] == (3, 6)
        assert apply_defects(y, (2, 3)) == (2, 4, 1, 1, 4, 3) != r
        assert kdcc._slot_table(r, 2, 3) == {1: ((2, 4, 1, 1, 4, 3), [2])}
        assert pair_insertions(r, 2, 3, signature(y), signature(r),
                               kdcc._slot_table(r, 2, 3)) == set()
        self.check(r, 2, 3, [signature(y), signature((2, 3, 4, 1, 1, 4, 3))])


class TestArrayCandidatesArePreimages:
    """Every word ``kdcc.array_candidates`` returns is mapped by the channel
    onto the received word, so no decoder runs the channel on it again: under
    two of the strand's own cycles (two lost), and under one own cycle and
    one that misses the strand (one lost), with the strand's own array-code
    class and the class of its signature with a bit flipped.  A decode
    failure returns no word."""

    @staticmethod
    def check(x, delta, rows):
        received = apply_defects(x, delta)
        sig = signature(x)
        for bits in (sig, TestPairReinsertions.flipped(sig, sum(delta))):
            params = array_syndromes(bits, rows)
            try:
                found = kdcc.array_candidates(received, delta, len(x) - len(received), params)
            except DecodeFailure:  # one pair of windows that does not decode
                continue
            for y in found:
                assert apply_defects(y, delta) == received, (x, delta, bits, y)

    @staticmethod
    def deltas(sched):
        """Each pair of own cycles, then each own cycle with one that misses."""
        missed = [d for d in range(1, sched[-1] + 6) if d not in sched]
        return list(combinations(sched, 2)) + [
            tuple(sorted((d, missed[d % len(missed)]))) for d in sched]

    def test_every_strand_up_to_length_6(self):
        for x in words_up_to(6):
            if len(x) >= 3:
                for delta in self.deltas(cycles(x)):
                    self.check(x, delta, kdcc.ARRAY2_ROWS)

    def test_random_strands(self):
        # four two-lost and four one-lost cycle sets per strand; at n = 32
        # the tuple code's one-column array of n - 1 rows
        rng = random.Random(26)
        for n in (24, 32):
            for _ in range(300):
                x = tuple(rng.randint(1, 4) for _ in range(n))
                deltas = self.deltas(cycles(x))
                for delta in rng.sample(deltas[:-n], 4) + rng.sample(deltas[-n:], 4):
                    self.check(x, delta, kdcc.ARRAY2_ROWS if n == 24 else n - 1)


def alignment_pair_slots(word, v1, v2, sig, own, firsts):
    """The pair kernel before slot tables: ``ahead`` filled over the whole
    signature, then every second slot of each first slot searched."""
    ahead = [0] * (len(own) + 2)
    for j in range(len(own) - 1, -1, -1):
        if own[j] == sig[j + 1]:
            ahead[j] = ahead[j + 1] + 1
    prefix, suffix = common_prefix(own, sig), common_suffix(own, sig)
    n = len(word) + 2
    for p in firsts:
        if p > prefix + 2:
            return
        if p > 1 and (v1 >= word[p - 2]) != sig[p - 2]:
            continue
        last = p + 1
        if p < n - 1 and (word[p - 1] >= v1) == sig[p - 1]:
            last += 1 + ahead[p - 1]
        for q in range(max(n - 1 - suffix, p + 1), last + 1):
            before = v1 if q == p + 1 else word[q - 3]
            if (v2 >= before) == sig[q - 2] and (q == n or (word[q - 2] >= v2) == sig[q - 1]):
                yield p, q


class TestPairSlots:
    """``pair_slots`` over a slot table, and over every slot pair, against the
    alignment kernel it replaced on the slot table's path."""

    @staticmethod
    def check(r, d1, d2, sigs):
        v1, v2 = smod4(d1), smod4(d2)
        own = signature(r) if len(r) >= 2 else ()
        table = kdcc._slot_table(r, d1, d2)
        for sig in sigs:
            want = [(p, q) for p, q in alignment_pair_slots(r, v1, v2, sig, own, table)
                    if q in table[p][1]]
            assert list(pair_slots(r, v1, v2, sig, own, table)) == want, (r, d1, d2, sig)
            assert list(pair_slots(r, v1, v2, sig, own)) == list(
                alignment_pair_slots(r, v1, v2, sig, own, range(1, len(r) + 2)))

    def test_every_strand_up_to_length_6(self):
        # every target signature up to length 4; beyond, the true one and
        # one with a bit flipped
        for x in words_up_to(6):
            sched = cycles(x)
            for d1, d2 in combinations(sched, 2):
                r = apply_defects(x, (d1, d2))
                if len(x) <= 4:
                    sigs = list(product((0, 1), repeat=len(x) - 1))
                else:
                    sig = signature(x)
                    sigs = [sig, TestPairReinsertions.flipped(sig, d1 + d2)]
                self.check(r, d1, d2, sigs)

    def test_random_strands(self):
        rng = random.Random(32)
        for n in (24, 32):
            for _ in range(500):
                x = tuple(rng.randint(1, 4) for _ in range(n))
                d1, d2 = sorted(rng.sample(cycles(x), 2))
                sig = signature(x)
                flips = [rng.randrange(len(sig)) for _ in range(3)]
                self.check(apply_defects(x, (d1, d2)), d1, d2,
                           [sig] + [TestPairReinsertions.flipped(sig, i) for i in flips])


class TestOneCycleRecovery:
    """Algorithm 1's one-cycle case by the slot test, against
    ``algorithm1_recover`` once per cycle: every strand of length 3-6 under
    each of its own cycles, with lists of one to four cycles around the true
    one, under the true signature and one with a bit flipped."""

    @staticmethod
    def oracle(r, d, sig):
        try:
            return {kdcc.algorithm1_recover(r, (d,), sig)}
        except DecodeFailure:
            return set()

    def test_every_strand_of_length_3_to_6(self):
        for n in range(3, 7):
            for x in all_strands(n):
                sched = cycles(x)
                sig = signature(x)
                for i, d0 in enumerate(sched):
                    r = x[:i] + x[i + 1:]
                    own = signature(r)
                    # the run's cycles four apart, as sdcc1 lists them, and the
                    # next cycle, which carries another symbol
                    near = [d for d in (d0 - 4, d0, d0 + 1, d0 + 4) if d >= 1]
                    lists = [(d,) for d in near] + [
                        tuple(d for d in (d0 - 4, d0, d0 + 4) if d >= 1), tuple(near)]
                    j = min(i, n - 2)  # a bit next to the lost symbol
                    slots = {d: _insert_slot_positions(r, d) for d in near}
                    for target in (sig, sig[:j] + (1 - sig[j],) + sig[j + 1:]):
                        want = {d: self.oracle(r, d, target) for d in near}
                        for ds in lists:
                            got = kdcc._recover_each(r, own, target, [(d, slots[d]) for d in ds])
                            assert got == set().union(*(want[d] for d in ds)), (r, ds, target)


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
                assert shift_symbols(shift_symbols(x, a), -a) == x
                assert shift_symbols(shift_symbols(x, -a), a) == x

    def test_cycles_started_at_the_shift(self):
        # on a re-timed strand's symbols, starting the recurrence at the shift
        # gives the base schedule moved by the shift
        for x in words_up_to(5):
            sched = cycles(x)
            for a in range(-4, 4 * len(x) + 5):
                assert cycles(shift_symbols(x, a), a) == tuple(c + a for c in sched)

    def test_defects_hit_the_shifted_schedule(self):
        for x in all_strands(4):
            sched = cycles(x)
            for a in range(1 - sched[0], 16 - sched[-1] + 1):
                symbols = shift_symbols(x, a)
                schedule = [c + a for c in sched]
                for delta in combinations(range(1, 17), 2):
                    assert apply_defects_shifted(symbols, a, delta) == tuple(
                        v for v, c in zip(symbols, schedule) if c not in delta)


def textbook_moment(bits, r):
    return sum(comb(i, r) * b for i, b in enumerate(bits, start=1))


def textbook_xi_widths(length):
    return (2,) + tuple(max(1, comb(length + 1, r + 1).bit_length()) for r in (1, 2, 3, 4))


def textbook_to_bits(value, width):
    return tuple((value >> (width - 1 - i)) & 1 for i in range(width))


class TestSketchKernels:
    """The table-driven sketch encoder kernels against their textbook forms:
    per-order binomial sums, fields packed one after another, and one shift
    per bit."""

    @staticmethod
    def words():
        for length in range(13):
            yield from product((0, 1), repeat=length)
        rng = random.Random(64)
        for _ in range(400):
            yield tuple(rng.randint(0, 1) for _ in range(rng.randint(13, 64)))

    def test_moments_and_xi_values(self):
        for word in self.words():
            orders = [textbook_moment(word, r) for r in range(5)]
            vector = (orders[0] % 3,) + tuple(orders[1:])
            packed = {}
            for pack_length in (len(word), len(word) + 7):
                packed[pack_length] = 0
                for value, width in zip(vector, textbook_xi_widths(pack_length)):
                    packed[pack_length] = packed[pack_length] << width | value
            for form in (tuple, list, iter):
                assert moment_vector(form(word)) == vector, word
                assert [moment(form(word), r) for r in range(5)] == orders, word
                for pack_length, value in packed.items():
                    assert xi_value(form(word), pack_length) == value, (word, pack_length)

    @pytest.mark.parametrize("order", [-1, 5, 1.5])
    def test_moment_order_outside_the_table(self, order):
        with pytest.raises(ParameterError):
            moment((1, 0, 1), order)

    def test_to_bits(self):
        rng = random.Random(80)
        for width in range(81):
            values = {0, (1 << width) - 1} | {rng.randrange(1 << width) for _ in range(30)}
            for value in values:
                assert to_bits(value, width) == textbook_to_bits(value, width), (value, width)
                assert from_bits(to_bits(value, width)) == value
            for bad in (1 << width, (1 << width) + rng.randrange(1 << 8), -1, -(1 << width)):
                with pytest.raises(ParameterError):
                    to_bits(bad, width)

    def test_composition_layout(self):
        for n, P1, P2 in product(range(3, 41), range(2, 7), range(2, 7)):
            params = EParams(n=n, P1=P1, P2=P2)
            kappa = sum(textbook_xi_widths(2 * (P1 + P2)))
            e2_widths = (2, max(1, n.bit_length()), max(1, (max(P1, P2) * n - 1).bit_length()))
            xi_bits = sum(textbook_xi_widths(2 * kappa + sum(e2_widths)))
            assert params.kappa == kappa
            assert params.e2_widths == e2_widths
            assert params.tail_widths == (kappa, kappa) + e2_widths
            assert params.xi_bits == xi_bits
            assert params.total == n + 2 * kappa + sum(e2_widths) + xi_bits
