"""Verification CLI binding every code family to deterministic drivers.

Usage: ``syndef <task> --n INT [--out PATH]`` plus the options of the task
in :data:`TASKS`; a flag the task does not read is a usage error.

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
    best_residues,
    decode,
    enumerate_codebook,
    hit_decoder,
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
        count = mode[len("sampled:"):]
        # one spelling per count: int() also reads "07", "3_0", " 4", "+5" and "\u0663"
        if not (count.isascii() and count.isdigit()) or count[0] == "0":
            raise ParameterError(f"mode {mode!r} needs a positive sample count")
        return "sampled", int(count)
    raise ParameterError(f"unknown mode {mode!r}")


def _tally(report: Report, cases, decode, record):
    """Run ``decode(*args)`` on each ``(want, args)`` of ``cases``; a case
    fails when the decode raises DecodeFailure or returns other than ``want``.
    The report keeps the first ten failures, each ``record(want, args)`` plus
    the ``"error"`` text when the decode raised.  Returns (cases, failures)."""
    count = failures = 0
    for count, (want, args) in enumerate(cases, 1):
        try:
            if decode(*args) == want:
                continue
            failure = {}
        except DecodeFailure as exc:
            failure = {"error": str(exc)}
        failures += 1
        if len(report.counterexamples) < 10:
            report.counterexamples.append(dict(record(want, args), **failure))
    return count, failures


def run_simulate(args) -> Report:
    n, m, t = args.n, args.m, args.t
    report = Report(task=args.task,
                    params={"n": n, "m": m, "t": t, "seed": args.seed,
                            "mode": args.mode})
    kind, count = _parse_mode(args.mode)
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

    def tuple_decode(delta):
        received = codeword.channel(delta)
        if t == 1:
            return sdcc1_decode(received, plan, params)[0]
        return sdcc2_decode(received, plan, params)

    cases, failures = _tally(report, ((codeword.strands, (d,)) for d in deltas), tuple_decode,
                             lambda _, case: {"delta": sorted(case[0])})
    report.metrics = {"cases": cases, "failures": failures,
                      "success_rate": 1.0 - failures / cases}
    report.passed = failures == 0
    return report


def _verify_single_defect_family(family: str, n: int, report: Report):
    spec, size = best_residues(family, n)
    clashes = []

    def cases():
        # Each member under each of its own cycles, for both the disjointness
        # check and the decode check.  A schedule is strictly increasing, so
        # each cycle holds exactly one symbol and the channel drops just that one.
        seen = {}
        for x in enumerate_codebook(spec):
            for i, d in enumerate(cycles(x)):
                y = x[:i] + x[i + 1:]
                other = seen.setdefault((d, y), x)
                if other != x and len(clashes) < 10:
                    clashes.append({"strands": [list(other), list(x)], "delta": [d]})
                yield x, (y, d)

    _, failures = _tally(report, cases(), hit_decoder(spec),
                         lambda x, case: {"strand": list(x), "delta": [case[1]]})
    disjoint = not clashes
    report.counterexamples = (clashes + report.counterexamples)[:10]
    report.metrics = {
        "family": family, "n": n, "residues": spec.residues,
        "code_size": size,
        "redundancy_bits": round(2 * n - math.log2(size), 4),
        "disjoint": disjoint, "decode_failures": failures,
    }
    report.rows = [dict(report.metrics, verified=disjoint and failures == 0)]
    report.passed = disjoint and failures == 0


def _verify_array2(n: int, strands, report: Report):
    specs = ((x, spec_for_strand("array2", x)) for x in strands)
    cases, failures = _tally(
        report,
        ((x, (spec, KnownDefectInstance(apply_defects(x, pair), pair, n)))
         for x, spec in specs for pair in combinations(cycles(x), 2)),
        decode, lambda x, case: {"strand": list(x), "delta": list(case[1].delta)})
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
        # dumps, unlike dump, runs the C encoder; the bytes are the same.
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(payload, sort_keys=True) + "\n")
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


# Each option's type and default.
OPTIONS = {"m": (int, 8), "t": (int, 1), "family": (str, "sum1"), "seed": (int, 0),
           "mode": (str, "exhaustive"), "params": (str, None)}

# Each task's runner and the options it reads besides --n and --out.
TASKS = {
    "simulate": (run_simulate, ("m", "t", "seed", "mode")),
    "verify-kdcc": (run_verify_kdcc, ("family", "seed", "mode")),
    "verify-sdcc": (run_simulate, ("m", "t", "seed", "mode")),
    "enumerate": (run_enumerate, ("family", "params")),
    "bounds": (run_bounds, ()),
    "sketch-audit": (run_sketch_audit, ()),
}


class _TaskParser(argparse.ArgumentParser):
    """A task's parser: an argument it does not take is its own usage error,
    reported under the task's usage rather than the top level's."""

    def parse_known_args(self, args=None, namespace=None):
        args, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return args, extra


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="syndef",
        description="Verification drivers for synthesis-defect correcting codes.")
    sub = parser.add_subparsers(dest="task", required=True, parser_class=_TaskParser)
    for name, (_, options) in TASKS.items():
        # no abbreviations: --m must not stand for --mode where --m is foreign
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--n", type=int, required=True)
        for option in options:
            kind, default = OPTIONS[option]
            p.add_argument(f"--{option}", type=kind, default=default)
        p.add_argument("--out", type=str, default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse printed a usage error (2) or --help (0)
        return exc.code
    started = time.perf_counter()
    try:
        if args.n < 1:
            raise ParameterError(f"--n must be at least 1, got {args.n}")
        report = TASKS[args.task][0](args)
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
