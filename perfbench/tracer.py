"""Span tracer for the traced benchmark run.

Every module binding of each function in ``LAYER_FUNCTIONS`` is replaced by a
wrapper that records one span per call: function, start, end, parent span and
the benchmark's current op id.  Rebinding every module attribute matters
because calls inside a module resolve through that module's globals, while an
importer such as ``from .core import cycles`` holds its own binding.  Nothing
under ``src/`` is edited; ``uninstall`` restores the original objects.

Spans live in flat arrays while the run is traced and are aggregated (and
optionally written to disk) only after the traced phase ends.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

MARK = "__perfbench_span__"

# (metric prefix, module, attribute path, is a decoder whose raises count as .fail)
LAYER_FUNCTIONS = (
    ("core.cycles", "syndef.core", "cycles", False),
    ("core.signature", "syndef.core", "signature", False),
    ("core.apply_defects", "syndef.core", "apply_defects", False),
    ("core.apply_defects_shifted", "syndef.core", "apply_defects_shifted", False),
    ("core.insert_slot_positions", "syndef.core", "_insert_slot_positions", False),
    ("binary.vt_decode", "syndef.binary", "vt_decode", True),
    ("binary.svt_decode", "syndef.binary", "svt_decode", True),
    ("array_code.array_syndromes", "syndef.array_code", "array_syndromes", False),
    ("array_code.array_erasure_decode", "syndef.array_code", "array_erasure_decode", True),
    ("array_code.array_bounded_decode", "syndef.array_code", "array_bounded_decode", True),
    ("array_code.array_single_bounded_decode", "syndef.array_code",
     "array_single_bounded_decode", True),
    ("sketch.completions", "syndef.sketch", "_completions", False),
    ("sketch.moment_vector", "syndef.sketch", "moment_vector", False),
    ("sketch.encode_E", "syndef.sketch", "encode_E", False),
    ("sketch.decode_E", "syndef.sketch", "decode_E", True),
    ("sketch.e1_decode", "syndef.sketch", "e1_decode", True),
    ("sketch.e2_decode", "syndef.sketch", "e2_decode", True),
    ("sketch.prefix_decode_one", "syndef.sketch", "prefix_decode_one", True),
    ("sketch.prefix_decode_two", "syndef.sketch", "prefix_decode_two", True),
    ("sketch.verify_sketch_injectivity", "syndef.sketch", "verify_sketch_injectivity", False),
    ("kdcc.spec_for_strand", "syndef.kdcc", "spec_for_strand", False),
    ("kdcc.decode_array2", "syndef.kdcc", "decode_array2", True),
    ("kdcc.algorithm1_recover", "syndef.kdcc", "algorithm1_recover", True),
    ("kdcc.decode_svt1", "syndef.kdcc", "decode_svt1", True),
    ("kdcc.best_residues", "syndef.kdcc", "best_residues", False),
    ("kdcc.enumerate_codebook", "syndef.kdcc", "enumerate_codebook", False),
    ("sdcc.random_member_2sdcc", "syndef.sdcc", "random_member_2sdcc", False),
    ("sdcc.select_cover_shifts", "syndef.sdcc", "select_cover_shifts", False),
    ("sdcc.sdcc2_params_of", "syndef.sdcc", "sdcc2_params_of", False),
    ("sdcc.channel", "syndef.sdcc", "SdccCodeword.channel", False),
    ("sdcc.c2d_decode", "syndef.sdcc", "c2d_decode", True),
    ("sdcc.sdcc2_decode", "syndef.sdcc", "sdcc2_decode", True),
    ("sdcc.sdcc1_decode", "syndef.sdcc", "sdcc1_decode", True),
    ("bounds.kdcc_size_bounds", "syndef.bounds", "kdcc_size_bounds", False),
    ("bounds.verify_cover", "syndef.bounds", "verify_cover", False),
    ("bounds.build_clique_cover", "syndef.bounds", "build_clique_cover", False),
)

# The function whose result size is recorded, for sketch.completions.yield.
YIELD_FUNCTION = "sketch.completions"


def per_layer_names() -> list[tuple[str, str]]:
    """(metric name, unit) of every span-derived per-layer metric."""
    out = []
    for name, _, _, decoder in LAYER_FUNCTIONS:
        out.append((f"{name}.calls", "calls/op"))
        out.append((f"{name}.self_ms", "ms/op"))
        if decoder:
            out.append((f"{name}.fail", "calls/op"))
    out.append((f"{YIELD_FUNCTION}.yield", "words/call"))
    return out


def _syndef_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "syndef" or name.startswith("syndef."))]


def _resolve(module: str, path: str):
    owner = sys.modules[module]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, vars(owner)[attr]


def wrapped_bindings() -> list[str]:
    """Names of syndef module or class attributes that are tracer wrappers."""
    found = []
    for module in _syndef_modules():
        for name, value in vars(module).items():
            if getattr(value, MARK, False):
                found.append(f"{module.__name__}.{name}")
            elif isinstance(value, type) and value.__module__ == module.__name__:
                found += [f"{module.__name__}.{name}.{attr}"
                          for attr, member in vars(value).items()
                          if getattr(member, MARK, False)]
    return found


class Tracer:
    """Records spans for the layer functions while installed."""

    def __init__(self):
        self.func = array("H")
        self.parent = array("i")
        self.op_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.yield_words = 0
        self.op = 0
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def _wrapper(self, index: int, fn, count_yield: bool):
        func, parent, op_of = self.func.append, self.parent.append, self.op_of.append
        start, end, raised = self.start, self.end, self.raised
        stack = self._stack
        tracer = self

        def span(*args, **kwargs):
            sid = len(start)
            func(index)
            parent(stack[-1])
            op_of(tracer.op)
            raised.append(0)
            end.append(0.0)
            stack.append(sid)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[sid] = 1
                raise
            finally:
                end[sid] = perf_counter()
                stack.pop()
            if count_yield:
                tracer.yield_words += len(result)
            return result

        span.__name__ = fn.__name__
        span.__qualname__ = fn.__qualname__
        span.__doc__ = fn.__doc__
        span.__wrapped__ = fn
        setattr(span, MARK, True)
        return span

    def install(self):
        """Rebind every syndef module attribute (and class attribute) that
        refers to a layer function."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        originals = {}
        for index, (name, module, path, _) in enumerate(LAYER_FUNCTIONS):
            owner, attr, fn = _resolve(module, path)
            wrapper = self._wrapper(index, fn, name == YIELD_FUNCTION)
            originals[id(fn)] = (fn, wrapper)
            if isinstance(owner, type):
                self._restore.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
        for module in _syndef_modules():
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def metrics(self, ops: int) -> tuple[dict, float]:
        """Per-op calls, self time and raises of each layer function, plus
        the summed self time over all spans in seconds."""
        n = len(self.start)
        covered = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for sid in range(n):
            p = parent[sid]
            if p >= 0:
                covered[p] += end[sid] - start[sid]
        k = len(LAYER_FUNCTIONS)
        calls, self_s, fails = [0] * k, [0.0] * k, [0] * k
        for sid, f in enumerate(self.func):
            calls[f] += 1
            self_s[f] += end[sid] - start[sid] - covered[sid]
            fails[f] += self.raised[sid]
        out = {}
        for f, (name, _, _, decoder) in enumerate(LAYER_FUNCTIONS):
            out[f"{name}.calls"] = calls[f] / ops
            out[f"{name}.self_ms"] = self_s[f] * 1e3 / ops
            if decoder:
                out[f"{name}.fail"] = fails[f] / ops
            if name == YIELD_FUNCTION:
                out[f"{name}.yield"] = self.yield_words / calls[f] if calls[f] else 0.0
        return out, sum(self_s)

    def write(self, path):
        """Write the spans: one JSON header line, then the raw columns."""
        header = {"functions": [name for name, *_ in LAYER_FUNCTIONS],
                  "spans": len(self.start), "byteorder": sys.byteorder,
                  "columns": [["func", "H"], ["parent", "i"], ["op", "i"],
                              ["start", "d"], ["end", "d"], ["raised", "b"]]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for column in (self.func, self.parent, self.op_of,
                           self.start, self.end, self.raised):
                column.tofile(fh)
