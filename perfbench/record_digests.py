#!/usr/bin/env python3
"""Record the sha256 of every report the cli workload checks.

Run from the repository root when a change is meant to alter report bytes::

    python3 perfbench/record_digests.py

It rewrites ``perfbench/cli_digests.json`` from the current ``src/``.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys

import run

SIMULATE_SEEDS = range(32)


def main() -> int:
    run.import_program()
    from workloads import Cli, call_cli

    workdir = run.OUT_DIR / "record-digests"
    workdir.mkdir(parents=True, exist_ok=True)
    digests = {}
    try:
        for _, key, argv in Cli.tasks_for(SIMULATE_SEEDS):
            out = workdir / f"{key}.json"
            rc, printed = call_cli(argv, out)
            if rc != 0 or not printed.startswith("[pass]"):
                print(f"{key}: exit code {rc}, {printed.strip()}", file=sys.stderr)
                return 1
            digests[key] = hashlib.sha256(out.read_bytes()).hexdigest()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    Cli.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests in {Cli.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
