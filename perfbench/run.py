#!/usr/bin/env python3
"""syndef benchmark: four seeded closed-loop workloads over the library and
its CLI, with a separate traced run for per-layer numbers.

Run one workload (from the repository root)::

    python3 perfbench/run.py --workload tuple2 --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics.  ``--workload all`` runs every workload, each in its own process, at
``--seed`` and at a second seed, prints every metric by name and unit, and
exits nonzero if any run does.  The last line of standard output is always
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A run exits with code 1 after printing that line when an output
is wrong, and with an error and no result when the sources are missing.  An op
that fails without a wrong output (a decoder giving up on a word it should
decode) counts in ``failed`` and is listed on stderr; the exit code stays 0.

Each run does a fixed amount of work per second of ``--seconds``, sized on
the reference machine, so a seed always runs the same ops.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
# Fresh processes timed from spawn to their first timed op, spread over the
# timed phase so they see the host as the ops do; setup_s is the median.
SETUP_REPEATS = 9


def import_program():
    """Import syndef from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "syndef" / "__init__.py").is_file():
        sys.exit(f"perfbench: no syndef sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import syndef

    if not Path(syndef.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: syndef was imported from {syndef.__file__}, not {SRC}")


def environment() -> dict:
    from syndef import sketch

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu_model": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "git_commit": git_commit(),
            "bundle_cache_maxsize": sketch._sketch_bundle_cached.cache_info().maxsize}


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def tail(values) -> tuple[float, float]:
    """p99, or below 1000 samples the highest percentile that still has ten
    samples beyond it; returns (value, percentile).  Below 21 samples no
    percentile above the median has ten beyond it, and the maximum is used."""
    ordered = sorted(values)
    n = len(ordered)
    index = min(math.ceil(0.99 * n) - 1, n - 11)
    if index < n // 2:
        index = n - 1
    return ordered[index], 100.0 * (index + 1) / n


def segmented_tail(values) -> tuple[float, float, int]:
    """``tail`` of each of up to ten equal segments of the ops in time order,
    one per 1000 ops, and the median over the segments; returns (value,
    percentile, segments).  On this kind of shared host a burst of a second
    or two slows a few percent of one run's ops and would set a whole-run
    p99; the median over segments keeps one burst from doing so."""
    n = len(values)
    k = max(1, min(10, n // 1000))
    tails = [tail(values[i * n // k:(i + 1) * n // k]) for i in range(k)]
    return statistics.median(t[0] for t in tails), tails[0][1], k


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def units_for(workload, seconds: float) -> int:
    """Fixed work per second of budget, sized on the reference machine: every
    run of a seed does the same ops, so counts repeat exactly and percentiles
    fall on the same ranks."""
    return max(1, round(seconds * workload.UNITS_PER_SECOND))


def measure(workload, rec, units: range) -> float:
    """Run the given units; returns their wall time."""
    t0 = perf_counter()
    for k in units:
        workload.run_unit(k, rec)
    return perf_counter() - t0


def make_workload(name: str, seed: int):
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    if name == "cli":
        return cls(seed, OUT_DIR / f"cli-{os.getpid()}")
    return cls(seed)


def measure_setup(name: str, seed: int) -> float:
    """One fresh process, timed from spawn to the point where its first timed
    op would start."""
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, str(Path(__file__).resolve()),
                           "--workload", name, "--seed", str(seed), "--setup-only"],
                          stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
        line = child.stdout.readline()
        seconds = perf_counter() - t0
        child.stdout.read()
    if line.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"set-up process for {name} failed: {line!r}")
    return seconds


def untraced(workload, seconds: float, seed: int):
    import tracer as tr
    from workloads import Recorder

    problems = [f"wrapper present before the run: {b}" for b in tr.wrapped_bindings()]
    rec = Recorder()
    units = units_for(workload, seconds)
    # Set-up samples before, between and after the timed units, outside
    # every timed bracket.
    marks = [round(i * units / (SETUP_REPEATS - 1)) for i in range(SETUP_REPEATS)]
    setup, done = [], 0
    for mark in marks:
        measure(workload, rec, range(done, mark))
        done = mark
        setup.append(measure_setup(workload.name, seed))
    workload.check(rec)
    problems += [f"wrapper present after the run: {b}" for b in tr.wrapped_bindings()]
    p99, pct, segments = segmented_tail(rec.op_ms)
    values = {
        "ops_per_s": rec.ops / rec.busy,
        "op_p50_ms": statistics.median(rec.op_ms),
        "op_p99_ms": p99,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [f"op_p99_ms is the median over {segments} segments of the p{pct:.2f} "
             f"of each, {len(rec.op_ms)} ops in all",
             f"setup_s samples {[round(s, 4) for s in setup]}"]
    return rec, problems, values, dict(END_TO_END), notes


def traced(workload, seconds: float):
    import tracer as tr
    from syndef import sketch
    from workloads import Cli, Recorder

    plain = Recorder()
    measure(workload, plain, range(units_for(workload, seconds / 2)))
    workload.check(plain)

    spans = tr.Tracer()
    rec = Recorder(spans)
    cache = sketch._sketch_bundle_cached.cache_info
    before = cache()
    spans.install()
    try:
        wall = measure(workload, rec, range(workload.TRACE_UNITS))
    finally:
        spans.uninstall()
    after = cache()
    workload.check(rec)
    problems = [f"wrapper left after uninstall: {b}" for b in tr.wrapped_bindings()]

    values, self_total = spans.metrics(rec.ops)
    if self_total > wall:
        problems.append(f"summed self time {self_total:.4f}s exceeds traced wall {wall:.4f}s")
    unit_of = dict(tr.per_layer_names())
    lookups = (after.hits - before.hits) + (after.misses - before.misses)
    values["sketch.bundle_cache.hit_ratio"] = \
        (after.hits - before.hits) / lookups if lookups else 0.0
    values["trace.overhead"] = (plain.ops / plain.busy) / (rec.ops / rec.busy)
    values["codec.encode_p50_ms"] = median_or_zero(plain.encode_ms)
    values["codec.decode_p50_ms"] = median_or_zero(plain.decode_ms)
    values["codec.decode_p99_ms"] = tail(plain.decode_ms)[0] if plain.decode_ms else 0.0
    unit_of.update({"sketch.bundle_cache.hit_ratio": "ratio", "trace.overhead": "x",
                    "codec.encode_p50_ms": "ms", "codec.decode_p50_ms": "ms",
                    "codec.decode_p99_ms": "ms"})
    for task in Cli.task_names():
        name = f"cli.{task}.wall_ms"
        values[name] = median_or_zero(plain.task_ms.get(task, ()))
        unit_of[name] = "ms"

    OUT_DIR.mkdir(exist_ok=True)
    spans.write(OUT_DIR / f"spans-{workload.name}.bin")
    notes = [f"traced {rec.ops} ops in {wall:.3f}s ({len(spans.start)} spans), "
             f"untraced {plain.ops} ops in {plain.busy:.3f}s busy",
             f"summed self time {self_total:.4f}s of traced wall {wall:.4f}s",
             f"bundle cache lookups in the traced phase: {lookups}"]
    for field in ("ops", "failed", "violations", "failures"):
        setattr(plain, field, getattr(plain, field) + getattr(rec, field))
    return plain, problems, values, unit_of, notes


def run_one(args) -> int:
    import_program()
    workload = make_workload(args.workload, args.seed)
    try:
        workload.warm_up()
        if args.setup_only:
            print("ready", flush=True)
            return 0
        if args.trace:
            rec, problems, values, unit_of, notes = traced(workload, args.seconds)
        else:
            rec, problems, values, unit_of, notes = untraced(workload, args.seconds, args.seed)
    finally:
        if hasattr(workload, "close"):
            workload.close()
    if getattr(workload, "twins", 0):
        notes.append(f"{workload.twins} DecodeFailures confirmed as twins by confusable_ball")
    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{rec.ops} ops attempted, {rec.failed} failed")
    for note in notes:
        print("  " + note)
    for name, value in values.items():
        print(f"  {name:<48} {value:>14.6g} {unit_of[name]}")
    violations = rec.violations + problems
    for problem in violations[:20]:
        print(f"VIOLATION {problem}", file=sys.stderr)
    for failure in rec.failures[:20]:
        print(f"FAILED OP {failure}", file=sys.stderr)
    correct = not violations
    print(json.dumps({"correct": correct, "attempted": rec.ops, "failed": rec.failed,
                      "metrics": {name: {"value": value, "unit": unit_of[name]}
                                  for name, value in values.items()}}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload at ``--seed`` and at a second seed, one process each."""
    ok, attempted, failed, metrics = True, 0, 0, {}
    for seed in (args.seed, args.seed + 1):
        for name in ("tuple2", "known2", "sketch", "cli"):
            child = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, cwd=ROOT)
            sys.stdout.write(child.stdout)
            sys.stderr.write(child.stderr)
            lines = child.stdout.strip().splitlines()
            if child.returncode != 0 or not lines:
                ok = False
                print(f"workload {name} seed {seed} exited with {child.returncode}")
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for metric, entry in result["metrics"].items():
                metrics[f"{name}.seed{seed}.{metric}"] = entry
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("tuple2", "known2", "sketch", "cli", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
