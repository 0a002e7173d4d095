#!/usr/bin/env python3
"""Check one untraced benchmark smoke run, read from standard input.

    python3 bench/run.py --workload W --seed S --seconds 1 --trace 0 \\
        | python3 ci/check_bench_smoke.py W S

The run's last line must report its outputs correct and no operation
failed.  At seed 1 the output_digest of its "# meta" line must also equal
the trace0 output_digest of workload W in the newest BENCH_*.json at the
root of the repository, so a change of any workload output fails; a change
that alters outputs on purpose records the new digests in its own
BENCH_*.json.  Exits nonzero with a message naming the workload on any
mismatch.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def newest_results() -> Path:
    """The BENCH_<n>.json of largest n."""
    return max(ROOT.glob("BENCH_*.json"), key=lambda p: int(p.stem[len("BENCH_"):]))


def check(lines: list, workload: str, seed: str, recorded: Path) -> str | None:
    """The reason the run fails, or None."""
    result = json.loads(lines[-1])
    if result["correct"] is not True or result["failed"] != 0:
        return f"{workload} at seed {seed}: outputs not correct"
    if seed != "1":
        return None
    meta = next(json.loads(l[len("# meta "):]) for l in lines if l.startswith("# meta "))
    found = meta["output_digest"]
    expected = json.loads(recorded.read_text())["workloads"][workload]["trace0"]["output_digest"]
    if found != expected:
        return f"{workload}: output_digest {found} differs from {expected} in {recorded.name}"
    return None


def main(argv: list) -> int:
    workload, seed = argv
    reason = check(sys.stdin.read().splitlines(), workload, seed, newest_results())
    if reason is not None:
        print(reason, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
