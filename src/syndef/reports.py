"""Report plumbing for the verification CLI.

JSON reports are byte-deterministic for a given (config, seed): keys are
sorted and no timing or environment data is embedded.  CSV tables carry a
wall-time column as operator information; it is not part of the determinism
contract.
"""

from __future__ import annotations

import csv
import json
import os
import sys
from dataclasses import dataclass, field

from .core import ParameterError, as_int
from .rng import SplitMix

CEILINGS = {
    "strand_sweep": 7,   # exhaustive Sigma^n sweeps
    "enumerate": 10,     # codebook materialisation
    "sketch_audit": 16,  # exhaustive sketch injectivity
    "defect_sweep": 32,  # every defect set of at most two cycles, simulate --t 2
}


def check_ceiling(kind: str, n: int):
    """Refuse an exhaustive ``kind`` of sweep beyond its ceiling in
    :data:`CEILINGS`, or beyond ``SYNDEF_MAX_EXHAUSTIVE_N`` when that is set."""
    if kind not in tuple(CEILINGS):  # compared, not hashed: a list is no kind either
        raise ParameterError(f"unknown sweep kind {kind!r}")
    cap = CEILINGS[kind]
    override = os.environ.get("SYNDEF_MAX_EXHAUSTIVE_N")
    if override:
        try:
            cap = int(override)
        except ValueError:
            raise ParameterError(
                f"SYNDEF_MAX_EXHAUSTIVE_N={override!r} is not an integer") from None
        print(f"warning: exhaustive ceiling for {kind} overridden to {cap}",
              file=sys.stderr)
    if as_int(n, "n") > cap:
        raise ParameterError(
            f"{kind} refuses n={n} beyond its ceiling {cap}; "
            "set SYNDEF_MAX_EXHAUSTIVE_N to override")


@dataclass
class Report:
    task: str
    params: dict
    metrics: dict = field(default_factory=dict)
    passed: bool = True
    counterexamples: list = field(default_factory=list)
    rows: list = field(default_factory=list)
    wall_time_s: float = 0.0
    owns_output: bool = False  # the task already wrote --out itself

    def to_json(self) -> dict:
        return {"task": self.task, "params": self.params, "metrics": self.metrics,
                "passed": self.passed, "counterexamples": self.counterexamples}

    def write(self, path: str | None):
        if not path:
            return
        if path.endswith(".csv"):
            self.write_csv(path)
        else:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(self.to_json(), fh, sort_keys=True, indent=2)
                fh.write("\n")

    def write_csv(self, path: str):
        rows = self.rows or [dict(self.params, **self.metrics,
                                  passed=self.passed)]
        rows = [dict(r, wall_time=round(self.wall_time_s, 3)) for r in rows]
        fields = sorted({k for r in rows for k in r})
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=fields)
            writer.writeheader()
            for r in sorted(rows, key=lambda r: json.dumps(r, sort_keys=True, default=str)):
                writer.writerow(r)

    def summary(self) -> str:
        state = "pass" if self.passed else "FAIL"
        return (f"[{state}] {self.task} {json.dumps(self.params, sort_keys=True)} "
                f"({self.wall_time_s:.2f}s)")


def stratified_delta_pairs(n: int, count: int, seed: int):
    """Deterministic defect pairs: every cycle of [1, 4n] occurs in at least
    one pair, then seeded extras fill the requested count, or every pair when
    fewer exist."""
    top = 4 * as_int(n, "strand length", 0)
    count = min(as_int(count, "pair count"), top * (top - 1) // 2)
    pairs = [(d, d + 1) for d in range(1, top, 2)]
    rng = SplitMix(as_int(seed, "seed"))
    seen = set(pairs)
    while len(pairs) < count:
        d1 = rng.randrange(1, top + 1)
        d2 = rng.randrange(1, top + 1)
        if d1 == d2:
            continue
        pair = (min(d1, d2), max(d1, d2))
        if pair not in seen:
            seen.add(pair)
            pairs.append(pair)
    return pairs
