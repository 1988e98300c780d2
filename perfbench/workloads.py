"""The four benchmark workloads.

Each workload is a closed loop: one caller in one process, no threads, and
the next operation starts only after the previous one returned.  Inputs come
from ``random.Random(seed)`` owned by the benchmark; the program only ever
receives the generated values.  Work is grouped in units (a tuple member, a
strand, a pass over the sketch pool, a cycle of CLI tasks); the runner times
whole units, so every run measures complete units.

Program functions are always reached through their module (``sdcc.sdcc2_decode``
rather than an imported name), so the tracer's rebinding sees every call the
benchmark makes.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import random
import shutil
from contextlib import redirect_stdout
from itertools import combinations
from pathlib import Path
from time import perf_counter

from syndef import cli, core, kdcc, sdcc, sketch


class Recorder:
    """Per-op timings, outcome counts and problems of a phase.

    ``violations`` are wrong outputs and make the run incorrect; ``failures``
    are ops that failed without a wrong output (a decoder gave up where it
    should not have).  Both count in ``failed``.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.ops = 0
        self.failed = 0
        self.busy = 0.0
        self.op_ms: list[float] = []
        self.encode_ms: list[float] = []
        self.decode_ms: list[float] = []
        self.task_ms: dict[str, list[float]] = {}
        self.violations: list[str] = []
        self.failures: list[str] = []

    def tag(self, op: int):
        """Op id carried by the spans of the calls that follow."""
        if self.tracer is not None:
            self.tracer.op = op

    def encode(self, seconds: float):
        self.busy += seconds
        self.encode_ms.append(seconds * 1e3)

    def op(self, seconds: float, ok: bool, decode_s: float | None = None,
           problem: str = "", gave_up: bool = False):
        """One completed op: channel, decode and compare.  Its encode is
        recorded separately, because tuple2 and known2 share one encode
        across many ops.  ``gave_up`` marks a decoder that raised
        ``DecodeFailure``: a failed op, but no wrong output."""
        self.busy += seconds
        self.ops += 1
        self.op_ms.append(seconds * 1e3)
        if decode_s is not None:
            self.decode_ms.append(decode_s * 1e3)
        if gave_up:
            self.failed += 1
            self.failures.append(problem)
        elif not ok:
            self.failed += 1
            self.violations.append(problem)


def _outcome(call):
    """Run one decoder call; a raise is an outcome, not a benchmark error."""
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - every raise is a failed op
        return exc


class Tuple2:
    """Double-defect tuple codec at n=32, m=12 (acceptance criterion 12).

    Each unit builds one member and decodes it under defect pairs stratified
    by their distance (adjacent, near, mid, far) plus single defects.
    """

    name = "tuple2"
    N, M = 32, 12
    UNITS = 256
    UNITS_PER_SECOND = 9  # a member and its 32 decodes take about 0.1 s
    GAPS = ((1, 1), (2, 4), (5, 16), (17, 4 * N - 1))
    PAIRS_PER_GAP, SINGLES = 6, 8
    TRACE_UNITS = 8

    def __init__(self, seed: int):
        rng = random.Random(seed)
        top = 4 * self.N
        self.units = []
        for _ in range(self.UNITS):
            deltas = []
            for lo, hi in self.GAPS:
                for _ in range(self.PAIRS_PER_GAP):
                    gap = rng.randint(lo, hi)
                    d1 = rng.randint(1, top - gap)
                    deltas.append(frozenset((d1, d1 + gap)))
            deltas += [frozenset((rng.randint(1, top),)) for _ in range(self.SINGLES)]
            self.units.append((rng.randrange(1 << 31), deltas))

    def warm_up(self):
        member_seed, deltas = self.units[0]
        codeword, plan, params = sdcc.random_member_2sdcc(self.N, self.M, seed=member_seed)
        for delta in deltas[:2]:
            sdcc.sdcc2_decode(codeword.channel(delta), plan, params)

    def run_unit(self, k: int, rec: Recorder):
        member_seed, deltas = self.units[k % len(self.units)]
        rec.tag(rec.ops)
        t0 = perf_counter()
        codeword, plan, params = sdcc.random_member_2sdcc(self.N, self.M, seed=member_seed)
        rec.encode(perf_counter() - t0)
        for delta in deltas:
            rec.tag(rec.ops)
            t0 = perf_counter()
            received = codeword.channel(delta)
            t1 = perf_counter()
            out = _outcome(lambda: sdcc.sdcc2_decode(received, plan, params))
            t2 = perf_counter()
            ok = out == codeword.strands
            t3 = perf_counter()
            rec.op(t3 - t0, ok, t2 - t1,
                   f"tuple2 member seed {member_seed} delta {sorted(delta)}: {out!r:.200}",
                   isinstance(out, core.DecodeFailure))

    def check(self, rec: Recorder):
        pass  # every decode is compared inside its op


class Known2:
    """Two-known-defect family array2 at n=24 (acceptance criterion 07).

    Each unit is one strand, decoded under every pair of its own scheduled
    cycles.  A DecodeFailure is the correct outcome exactly when the
    brute-force oracle shows a twin: another member of the same residue class
    inside the confusable ball.  That is checked after the timed phase; a
    DecodeFailure without a twin is a failed op (the decoder gave up on a
    uniquely decodable word), a returned wrong strand a violation.
    """

    name = "known2"
    N = 24
    UNITS = 768
    UNITS_PER_SECOND = 13  # a strand and its 276 decodes take about 75 ms
    TRACE_UNITS = 16

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.units = [tuple(rng.randint(1, 4) for _ in range(self.N))
                      for _ in range(self.UNITS)]
        self.schedules = [core.cycles(x) for x in self.units]
        self.pending: list[tuple[tuple, tuple]] = []
        self.twins = 0

    def warm_up(self):
        x = self.units[0]
        params = kdcc.array2_params(kdcc.spec_for_strand("array2", x))
        for d1, d2 in list(combinations(self.schedules[0], 2))[:8]:
            received = core.apply_defects(x, (d1, d2))
            _outcome(lambda: kdcc.decode_array2(
                kdcc.KnownDefectInstance(received, (d1, d2), self.N), params))

    def run_unit(self, k: int, rec: Recorder):
        k %= len(self.units)
        x = self.units[k]
        rec.tag(rec.ops)
        t0 = perf_counter()
        params = kdcc.array2_params(kdcc.spec_for_strand("array2", x))
        rec.encode(perf_counter() - t0)
        for delta in combinations(self.schedules[k], 2):
            rec.tag(rec.ops)
            t0 = perf_counter()
            received = core.apply_defects(x, delta)
            t1 = perf_counter()
            out = _outcome(lambda: kdcc.decode_array2(
                kdcc.KnownDefectInstance(received, delta, self.N), params))
            t2 = perf_counter()
            ok = out == x
            t3 = perf_counter()
            if isinstance(out, core.DecodeFailure):
                self.pending.append((x, delta))
                ok = True
            rec.op(t3 - t0, ok, t2 - t1, f"known2 strand {x} delta {delta}: {out!r:.200}")

    def check(self, rec: Recorder):
        for x, delta in self.pending:
            spec = kdcc.spec_for_strand("array2", x)
            twins = sum(1 for y in core.confusable_ball(x, delta)
                        if kdcc.spec_for_strand("array2", y) == spec)
            if twins >= 2:
                self.twins += 1
            else:
                rec.failed += 1
                rec.failures.append(
                    f"known2 strand {x} delta {delta}: DecodeFailure without a twin")
        self.pending.clear()


class Sketch:
    """Binary composition codec at n=16, P1=P2=2 (acceptance criterion 08).

    A unit is one pass over a payload pool twice the size of the program's
    sketch-bundle cache: an encode phase over the pool, then a decode phase
    in a seeded shuffled order.  Each payload carries one of six deletion
    patterns, one per decoder path.
    """

    name = "sketch"
    N, P1, P2 = 16, 2, 2
    UNITS_PER_SECOND = 1 / 11  # a pass takes about 11 s
    TRACE_UNITS = 1
    KINDS = ("adjacent", "separated", "past_prefix", "single", "prefix_two", "prefix_one")

    def __init__(self, seed: int):
        rng = random.Random(seed)
        n = self.N
        self.L = sketch.EParams(n=n, P1=self.P1, P2=self.P2).total
        self.Lp = sketch.prefix_codeword_length(n, self.P1, self.P2)
        size = 2 * sketch._sketch_bundle_cached.cache_info().maxsize
        kinds = [self.KINDS[i % len(self.KINDS)] for i in range(size)]
        rng.shuffle(kinds)
        self.items = []
        for value, kind in zip(rng.sample(range(1 << n), size), kinds):
            payload = tuple((value >> (n - 1 - i)) & 1 for i in range(n))
            self.items.append((payload, kind) + self._pattern(rng, kind))
        self.order = list(range(size))
        rng.shuffle(self.order)

    def _pattern(self, rng, kind):
        """(deleted 1-based positions, declared intervals) for one payload."""
        n, L, Lp = self.N, self.L, self.Lp
        if kind == "adjacent":
            d1 = rng.randint(2, n - 2)
            if rng.random() < 0.5:
                return (d1, d1 + 1), ((d1 - 1, 2), (d1, 2))
            return (d1, d1 + 2), ((d1, 2), (d1 + 1, 2))
        if kind == "separated":
            d1 = rng.randint(1, n - 4)
            d2 = rng.randint(d1 + 4, n)
            return (d1, d2), ((d1, 2), (d2 - 1, 2))
        if kind == "past_prefix":
            d1 = rng.randint(1, n)
            d2 = rng.randint(n + 1, L)
            return (d1, d2), ((d1, 2), (d2 - 1, 2))
        if kind == "single":
            d = rng.randint(1, L)
            return (d,), ((max(1, d - 1), 2), (rng.randint(1, L - 1), 2))
        if kind == "prefix_two":
            d1 = rng.randint(1, Lp - 1)
            d2 = rng.randint(d1 + 1, Lp)
            return (d1, d2), ((max(1, d1 - 1), 2), (max(1, d2 - 1), 2))
        return (rng.randint(1, Lp),), None

    def _decode(self, kind, received, intervals):
        n, P1, P2 = self.N, self.P1, self.P2
        if kind == "prefix_two":
            return sketch.prefix_decode_two(received, intervals, n, P1, P2)
        if kind == "prefix_one":
            return sketch.prefix_decode_one(received, n, P1, P2)
        return sketch.decode_E(received, intervals, n, P1, P2)

    def warm_up(self):
        for payload, kind, deleted, intervals in self.items[:2 * len(self.KINDS)]:
            word = self._encode(kind, payload)
            received = tuple(b for i, b in enumerate(word, 1) if i not in deleted)
            self._decode(kind, received, intervals)

    def _encode(self, kind, payload):
        if kind.startswith("prefix"):
            return sketch.prefix_encode(payload, self.P1, self.P2)
        return sketch.encode_E(payload, self.P1, self.P2)

    def run_unit(self, k: int, rec: Recorder):
        base = rec.ops
        words = []
        for i, (payload, kind, _, _) in enumerate(self.items):
            rec.tag(base + i)
            t0 = perf_counter()
            words.append(self._encode(kind, payload))
            rec.encode(perf_counter() - t0)
        for i in self.order:
            payload, kind, deleted, intervals = self.items[i]
            rec.tag(base + i)
            t0 = perf_counter()
            received = tuple(b for j, b in enumerate(words[i], 1) if j not in deleted)
            t1 = perf_counter()
            out = _outcome(lambda: self._decode(kind, received, intervals))
            t2 = perf_counter()
            ok = out == payload
            t3 = perf_counter()
            rec.op(t3 - t0, ok, t2 - t1,
                   f"sketch {kind} payload {payload} deleted {deleted}: {out!r:.200}",
                   isinstance(out, core.DecodeFailure))

    def check(self, rec: Recorder):
        pass  # every decode is compared inside its op


def call_cli(argv, out: Path) -> tuple[int, str]:
    """``syndef.cli.main(argv)`` writing its report to ``out``; returns the
    exit code and what the CLI printed."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli.main(argv + ["--out", str(out)])
    return rc, buf.getvalue()


class Cli:
    """In-process ``syndef.cli.main`` calls, each writing its report to a
    scratch directory inside the checkout.  A unit is one cycle of tasks.

    Task reports must match the sha256 digests in ``cli_digests.json``; the
    simulate seeds are drawn from the recorded range.
    """

    name = "cli"
    UNITS_PER_SECOND = 0.25  # a cycle takes about 3.6 s
    TRACE_UNITS = 1
    # Five simulate runs per cycle put the median op inside the simulate
    # group, away from the rank boundary with the bounds tasks.
    SIMULATE_SEEDS = 5
    FIXED_TASKS = (
        ("verify-kdcc-sum1-n7", ["verify-kdcc", "--family", "sum1", "--n", "7"]),
        ("verify-kdcc-svt1-n7", ["verify-kdcc", "--family", "svt1", "--n", "7"]),
        ("enumerate-svt1-n8", ["enumerate", "--family", "svt1", "--n", "8",
                               "--params", "best"]),
        ("bounds-n6", ["bounds", "--n", "6"]),
        ("bounds-n8", ["bounds", "--n", "8"]),
        ("sketch-audit-n15", ["sketch-audit", "--n", "15"]),
    )
    SIMULATE = ("simulate-t1-n16-m8", ["simulate", "--t", "1", "--n", "16", "--m", "8"])
    DIGESTS = Path(__file__).with_name("cli_digests.json")

    @classmethod
    def task_names(cls) -> list[str]:
        return [name for name, _ in cls.FIXED_TASKS] + [cls.SIMULATE[0]]

    @classmethod
    def tasks_for(cls, simulate_seeds):
        """(metric task name, report key, argv) of one cycle."""
        out = [(name, name, argv) for name, argv in cls.FIXED_TASKS]
        name, argv = cls.SIMULATE
        out += [(name, f"{name}-seed{s}", argv + ["--seed", str(s)])
                for s in simulate_seeds]
        return out

    def __init__(self, seed: int, workdir: Path):
        self.digests = json.loads(self.DIGESTS.read_text())
        recorded = sorted(int(key.rsplit("seed", 1)[1]) for key in self.digests
                          if key.startswith(self.SIMULATE[0] + "-seed"))
        seeds = sorted(random.Random(seed).sample(recorded, self.SIMULATE_SEEDS))
        self.tasks = self.tasks_for(seeds)
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def warm_up(self):
        call_cli(["bounds", "--n", "6"], self.workdir / "warm.json")

    def run_unit(self, k: int, rec: Recorder):
        for name, key, argv in self.tasks:
            out = self.workdir / f"{key}.json"
            # Each real CLI call is a fresh process; collecting the previous
            # task's garbage here keeps it from being charged to this one.
            gc.collect()
            rec.tag(rec.ops)
            t0 = perf_counter()
            result = _outcome(lambda: call_cli(argv, out))
            seconds = perf_counter() - t0
            problem = f"raised {result!r}" if isinstance(result, Exception) \
                else self._verify(key, *result, out)
            rec.task_ms.setdefault(name, []).append(seconds * 1e3)
            rec.op(seconds, not problem, None, f"cli {key}: {problem}")

    def _verify(self, key, rc, printed, out: Path) -> str:
        if rc != 0:
            return f"exit code {rc}"
        if not printed.startswith("[pass]"):
            return f"summary {printed.strip()!r}"
        data = out.read_bytes()
        report = json.loads(data)
        if "passed" in report and report["passed"] is not True:
            return "report says passed: false"
        digest = hashlib.sha256(data).hexdigest()
        if digest != self.digests.get(key):
            return f"report digest {digest} differs from the recorded one"
        return ""

    def check(self, rec: Recorder):
        pass  # every task is verified right after it returns, outside its timing


WORKLOADS = {w.name: w for w in (Tuple2, Known2, Sketch, Cli)}
