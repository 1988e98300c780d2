"""Verification CLI binding every code family to deterministic drivers.

Usage: ``syndef <task> [--n INT --m INT --t INT --family STR --seed INT
--mode exhaustive|sampled:COUNT --out PATH --params JSON]``.

Exit codes: 0 all checks passed, 1 a check failed (report carries the
counterexamples), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from itertools import combinations

from .bounds import kdcc_size_bounds, verify_cover
from .core import DecodeFailure, ParameterError, all_strands, apply_defects, cycles
from .kdcc import (
    KdccSpec,
    KnownDefectInstance,
    array2_params,
    best_residues,
    decode,
    enumerate_codebook,
    spec_for_strand,
)
from .reports import Report, check_ceiling, stratified_delta_pairs
from .rng import SplitMix
from .sdcc import (
    random_member_1sdcc,
    random_member_2sdcc,
    sdcc1_decode,
    sdcc2_decode,
)
from .sketch import verify_sketch_injectivity, xi_bit_length, xi_budget


def _parse_mode(mode: str):
    if mode == "exhaustive":
        return "exhaustive", None
    if mode.startswith("sampled:"):
        try:
            count = int(mode.split(":", 1)[1])
        except ValueError:
            count = 0
        if count < 1:
            raise ParameterError(f"mode {mode!r} needs a positive sample count")
        return "sampled", count
    raise ParameterError(f"unknown mode {mode!r}")


def run_simulate(args) -> Report:
    n, m, t = args.n, args.m, args.t
    report = Report(task="simulate",
                    params={"n": n, "m": m, "t": t, "seed": args.seed,
                            "mode": args.mode})
    kind, count = _parse_mode(args.mode)
    failures = 0
    if t == 1:
        if kind == "sampled":
            raise ParameterError("--t 1 decodes every single cycle; it has no sampled mode")
        codeword, plan, params = random_member_1sdcc(n, m, seed=args.seed)
        deltas = [frozenset({d}) for d in range(1, 4 * n + 1)]
    elif t == 2:
        span = range(1, 4 * n + 1)
        if kind == "exhaustive":
            check_ceiling("defect_sweep", n)
            deltas = [frozenset({d}) for d in span]
            deltas += [frozenset(p) for p in combinations(span, 2)]
        else:
            # max(2n, count) pairs that between them touch every cycle
            deltas = [frozenset(p) for p in stratified_delta_pairs(n, count, args.seed + 1)]
            deltas += [frozenset({d}) for d in span[::5]]
        codeword, plan, params = random_member_2sdcc(n, m, seed=args.seed)
    else:
        raise ParameterError("simulate supports t in {1, 2}")
    for delta in deltas:
        received = codeword.channel(delta)
        try:
            if t == 1:
                out, _ = sdcc1_decode(received, plan, params)
            else:
                out = sdcc2_decode(received, plan, params)
            failure = None if out == codeword.strands else {"delta": sorted(delta)}
        except DecodeFailure as exc:
            failure = {"delta": sorted(delta), "error": str(exc)}
        if failure is not None:
            failures += 1
            if len(report.counterexamples) < 10:
                report.counterexamples.append(failure)
    report.metrics = {"cases": len(deltas), "failures": failures,
                      "success_rate": 1.0 - failures / len(deltas)}
    report.passed = failures == 0
    return report


def _verify_single_defect_family(family: str, n: int, report: Report):
    spec, size = best_residues(family, n)
    members = enumerate_codebook(spec)
    seen: dict = {}
    disjoint = True
    for x in members:
        for d in cycles(x):
            key = (d, apply_defects(x, {d}))
            if seen.setdefault(key, x) != x:
                disjoint = False
                report.counterexamples.append(
                    {"strands": [list(seen[key]), list(x)], "delta": [d]})
    failures = 0
    for x in members:
        for d in cycles(x):
            inst = KnownDefectInstance(apply_defects(x, {d}), (d,), n)
            try:
                ok = decode(spec, inst) == x
            except DecodeFailure:
                ok = False
            if not ok:
                failures += 1
                if len(report.counterexamples) < 10:
                    report.counterexamples.append(
                        {"strand": list(x), "delta": [d]})
    report.metrics = {
        "family": family, "n": n, "residues": spec.residues,
        "code_size": size,
        "redundancy_bits": round(2 * n - math.log2(size), 4),
        "disjoint": disjoint, "decode_failures": failures,
    }
    report.rows = [dict(report.metrics, verified=disjoint and failures == 0)]
    report.passed = disjoint and failures == 0


def _verify_array2(n: int, strands, report: Report):
    cases = failures = 0
    for x in strands:
        spec = spec_for_strand("array2", x)
        params = array2_params(spec)
        sched = cycles(x)
        for i, d1 in enumerate(sched):
            for d2 in sched[i + 1:]:
                cases += 1
                inst = KnownDefectInstance(
                    apply_defects(x, {d1, d2}), (d1, d2), n)
                try:
                    ok = decode(spec, inst) == x
                except DecodeFailure as exc:
                    ok = False
                    if len(report.counterexamples) < 10:
                        report.counterexamples.append(
                            {"strand": list(x), "delta": [d1, d2],
                             "error": str(exc)})
                if not ok:
                    failures += 1
    report.metrics = {"family": "array2", "n": n, "cases": cases,
                      "decode_failures": failures,
                      "failure_rate": round(failures / cases, 6) if cases else 0.0}
    report.rows = [dict(family="array2", n=n, cases=cases,
                        decode_failures=failures, verified=failures == 0)]
    report.passed = failures == 0


def run_verify_kdcc(args) -> Report:
    family = args.family
    report = Report(task="verify-kdcc",
                    params={"family": family, "n": args.n, "seed": args.seed,
                            "mode": args.mode})
    kind, count = _parse_mode(args.mode)
    if family in ("sum1", "svt1"):
        if kind == "sampled":
            raise ParameterError(f"family {family} sweeps its whole codebook; "
                                 "it has no sampled mode")
        check_ceiling("strand_sweep", args.n)
        _verify_single_defect_family(family, args.n, report)
    elif family == "array2":
        if kind == "exhaustive":
            check_ceiling("strand_sweep", args.n)
            strands = all_strands(args.n)
        else:
            rng = SplitMix(args.seed)
            strands = (rng.strand(args.n) for _ in range(count))
        _verify_array2(args.n, strands, report)
    else:
        raise ParameterError(f"unknown family {family!r}")
    return report


def run_verify_sdcc(args) -> Report:
    report = Report(task="verify-sdcc",
                    params={"t": args.t, "n": args.n, "m": args.m,
                            "seed": args.seed, "mode": args.mode})
    sim = run_simulate(args)
    report.metrics = sim.metrics
    report.counterexamples = sim.counterexamples
    report.passed = sim.passed
    return report


def run_enumerate(args) -> Report:
    check_ceiling("enumerate", args.n)
    if args.params and args.params != "best":
        residues = json.loads(args.params)
        spec = KdccSpec(args.family, args.n, residues)
    else:
        spec, _ = best_residues(args.family, args.n)
    members = enumerate_codebook(spec)
    report = Report(task="enumerate",
                    params={"family": args.family, "n": args.n,
                            "residues": spec.residues})
    report.metrics = {"size": len(members)}
    if args.out:
        payload = {"family": spec.family, "n": spec.n, "residues": spec.residues,
                   "size": len(members), "strands": [list(x) for x in members]}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True)
            fh.write("\n")
        report.owns_output = True
    report.passed = True
    return report


def run_bounds(args) -> Report:
    report = Report(task="bounds", params={"n": args.n})
    data = kdcc_size_bounds(args.n)
    if args.n <= 6:
        ok, witness = verify_cover(args.n)
        data["cover_verified"] = ok
        if not ok:
            report.counterexamples.append(list(map(str, witness)))
    report.metrics = data
    report.passed = data.get("cover_verified", True) and \
        data["best_sum1_size"] <= data["cover_size"]
    return report


def run_sketch_audit(args) -> Report:
    if args.n < 3:
        raise ParameterError("sketch-audit needs --n >= 3")
    check_ceiling("sketch_audit", args.n)
    report = Report(task="sketch-audit", params={"n": args.n})
    all_ok = True
    for length in range(3, args.n + 1):
        injective = verify_sketch_injectivity(length)
        bits, budget = xi_bit_length(length), xi_budget(length)
        ok = injective and bits <= budget
        all_ok = all_ok and ok
        report.rows.append({"length": length, "sketch_bits": bits,
                            "budget_bits": budget, "injective": injective})
        if not ok:
            report.counterexamples.append({"length": length})
    report.metrics = {"verified_lengths": args.n - 2, "all_ok": all_ok}
    report.passed = all_ok
    return report


TASKS = {
    "simulate": run_simulate,
    "verify-kdcc": run_verify_kdcc,
    "verify-sdcc": run_verify_sdcc,
    "enumerate": run_enumerate,
    "bounds": run_bounds,
    "sketch-audit": run_sketch_audit,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="syndef",
        description="Verification drivers for synthesis-defect correcting codes.")
    sub = parser.add_subparsers(dest="task", required=True)
    for name in TASKS:
        p = sub.add_parser(name)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--m", type=int, default=8)
        p.add_argument("--t", type=int, default=1)
        p.add_argument("--family", type=str, default="sum1")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--mode", type=str, default="exhaustive")
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--params", type=str, default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        if args.n < 1:
            raise ParameterError(f"--n must be at least 1, got {args.n}")
        report = TASKS[args.task](args)
    except (ParameterError, json.JSONDecodeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    report.wall_time_s = time.perf_counter() - started
    if not report.owns_output:
        report.write(args.out)
    print(report.summary())
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
