#!/usr/bin/env python3
"""Benchmark of the folres command line, end to end and layer by layer.

One run of one workload, from the root of the repository:

    python3 bench/run.py --workload driver-walk --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer ones
(see README.md in this directory).  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

Every workload, untraced and traced, each in its own process, with the git
SHA, Python version, nproc and seed recorded beside the results:

    python3 bench/run.py --all --seed 1 --seconds 30 --out bench/history/NAME.json

``--compare OLD.json`` then prints each end-to-end metric against an earlier
results file and flags any change worse than the metric's bound in
BENCHMARK.json.

The benchmark drives ``folres.cli.main(argv)`` in process, in a closed loop
with one client.  It imports the package from ``src/`` next to this
directory and refuses to run without it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Ten latency samples must lie beyond the 90th percentile.
MIN_SAMPLES = 100
SETUP_RUNS = 15
# A shared host's speed drifts by a fifth or more over tens of seconds.  Each
# timed call follows one calibration loop, and each time is scaled by
# NOMINAL_CALIBRATION_S over the median loop time among the
# 2 * CALIBRATION_WINDOW + 1 loops around it.  The reported times are those
# of a machine on which the loop takes NOMINAL_CALIBRATION_S, about its
# median time on the 2-vCPU VM (Python 3.11) where the first baseline in
# history/ was recorded.
NOMINAL_CALIBRATION_S = 0.0015
CALIBRATION_WINDOW = 4
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from folres.cli import main; sys.exit(main(['classify', '[x, y, z]']))"
)


class Abort(Exception):
    """The run cannot give a trustworthy result, so it prints none."""


def load_cli():
    if not (SRC / "folres" / "cli.py").is_file():
        raise Abort(f"no folres sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from folres import cli

    if Path(cli.__file__).resolve().parent != (SRC / "folres").resolve():
        raise Abort(f"folres was imported from {cli.__file__}, not from {SRC}")
    return cli


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "folres").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        sha, _, name = line.partition(" ")
        if name == ref:
            return sha
    return None


def environment() -> dict:
    return {
        "git": git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def calibration_loop() -> float:
    """Seconds taken by a fixed Fraction recurrence: exact arithmetic of the
    package's kind, run by code outside the package."""
    start = time.perf_counter()
    acc, x = Fraction(0), Fraction(3, 7)
    for k in range(1, 250):
        acc = acc * x + Fraction(k, k + 1)
    return time.perf_counter() - start


def scale(times, loops):
    """Each time at nominal speed, from the calibration loops around it."""
    w = CALIBRATION_WINDOW
    return [
        t * NOMINAL_CALIBRATION_S / statistics.median(loops[max(0, k - w):k + w + 1])
        for k, t in enumerate(times)
    ]


def measure_setup() -> float:
    """Median time, at nominal speed, of a fresh interpreter that imports
    folres.cli and classifies one field.  Bytecode caching is on, as for a
    user, whatever the caller's setting, and one unmeasured run first writes
    the cache."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    times, loops = [], []
    for k in range(SETUP_RUNS + 1):
        # a spawn disturbs the loop that follows it, so take several
        loop = statistics.median(calibration_loop() for _ in range(5))
        start = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env, timeout=60)
        elapsed = time.perf_counter() - start
        if proc.returncode:
            raise Abort(f"set-up run failed: {proc.stderr.decode()[-300:]}")
        if k:
            times.append(elapsed)
            loops.append(loop)
    return statistics.median(scale(times, loops))


class Session:
    """The item list of one seed, run pass after pass.

    Every pass must print exactly what the first one printed; the first
    pass's outputs are kept for the checks.
    """

    def __init__(self, cli, items):
        self.cli = cli
        self.items = items
        self.outputs = None
        self.output_digest = None
        self.passes = 0
        self.loops = []

    def warm_up(self, count=5):
        """Run the first items once, untimed, so that lazy set-up is done."""
        for item in self.items[:count]:
            with contextlib.redirect_stdout(io.StringIO()):
                try:
                    self.cli.main(list(item.argv))
                except (Exception, SystemExit):
                    pass  # the timed passes record the failure

    def run_pass(self):
        """Call main once per item, each call after one calibration loop.

        Returns the item times at nominal speed, and the factor that takes
        this pass's times to nominal speed.
        """
        clock = time.perf_counter
        times, loops, outputs = [], [], []
        for item in self.items:
            loops.append(calibration_loop())
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                start = clock()
                try:
                    code = self.cli.main(list(item.argv))
                except SystemExit as exc:
                    code = exc.code
                except Exception:
                    code = None
                    buf.write(traceback.format_exc())
                times.append(clock() - start)
            outputs.append((code, buf.getvalue()))
        found = digest(outputs)
        if self.outputs is None:
            self.outputs, self.output_digest = outputs, found
        elif found != self.output_digest:
            raise Abort("two passes over the same inputs printed different outputs")
        self.passes += 1
        self.loops.extend(loops)
        return scale(times, loops), NOMINAL_CALIBRATION_S / statistics.median(loops)


def repeat(round_fn, seconds, samples_per_round):
    """Run rounds until ``seconds`` are used up and MIN_SAMPLES samples are
    taken, but stop before a round would end past three times ``seconds``."""
    durations = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        round_fn()
        durations.append(time.perf_counter() - round_start)
        next_end = time.perf_counter() - start + statistics.median(durations)
        if next_end > 3 * seconds:
            return
        if len(durations) * samples_per_round >= MIN_SAMPLES and next_end > seconds:
            return


def check(workload, session):
    """Check the first pass's outputs; return (failed items, notes)."""
    failed, notes = 0, []
    for k, (item, (code, text)) in enumerate(zip(session.items, session.outputs)):
        problem = workloads.check_output(workload, item, code, text)
        if problem:
            failed += 1
            if failed <= 5:
                notes.append(f"failed item {k}: {problem} (argv {list(item.argv)})")
    return failed, notes


def resolve_stats(session):
    """Steps, matched steps and items that lost a match, from resolve reports."""
    steps = matched = lost = 0
    for code, text in session.outputs:
        if code != 0:
            continue
        out = json.loads(text)
        if out.get("command") != "resolve":
            continue
        flags = [s["matched"] for s in out["steps"]]
        steps += len(flags)
        matched += sum(flags)
        lost += workloads.lost_match(out)
    return steps, matched, lost


def run_untraced(session, seconds):
    setup_s = measure_setup()
    passes = []
    session.warm_up()
    repeat(lambda: passes.append(session.run_pass()[0]), seconds, len(session.items))
    pooled = [t for times in passes for t in times]
    return {
        "items_per_s": (len(session.items) / statistics.median(sum(p) for p in passes), "1/s"),
        "latency_p50_ms": (statistics.median(pooled) * 1e3, "ms"),
        "latency_p90_ms": (statistics.quantiles(pooled, n=10)[8] * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }, []


def run_traced(session, seconds):
    """Untraced and traced passes alternate; one counting pass follows."""
    plain, traced, self_s = [], [], []
    calls = {}
    missing = set()

    def one_round():
        tracer = tracing.Tracer()

        def traced_pass():
            with tracer.installed() as patch:
                times, factor = session.run_pass()
            missing.update(patch.missing)
            traced.append(sum(times))
            self_s.append({name: s * factor for name, s in tracer.self_s.items()})

        def plain_pass():
            plain.append(sum(session.run_pass()[0]))

        # alternate which kind of pass goes first
        for run in (traced_pass, plain_pass) if len(plain) % 2 else (plain_pass, traced_pass):
            run()
        if calls and calls != dict(tracer.calls):
            raise Abort("span call counts differ between passes of one seed")
        calls.update(tracer.calls)

    session.warm_up()
    repeat(one_round, seconds, MIN_SAMPLES)  # traced rounds need no latency samples
    counter = tracing.OpCounter()
    with counter.installed() as patch:
        session.run_pass()
    missing.update(patch.missing)

    metrics = {}
    for module, attr in tracing.SPANS:
        name = f"{module}.{attr}"
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
        metrics[f"{name}.self_ms"] = (statistics.median(s.get(name, 0.0) for s in self_s) * 1e3, "ms")
    for name in tracing.COUNTED:
        metrics[f"{name}.calls"] = (counter.counts[name], "count")
    degrees = counter.counts["separatrix.solve_graph_separatrix.degrees"]
    solve_ms = metrics["separatrix.solve_graph_separatrix.self_ms"][0]
    metrics["separatrix.solve_graph_separatrix.degrees"] = (degrees, "count")
    metrics["separatrix.solve_graph_separatrix.ms_per_degree"] = (solve_ms / degrees if degrees else 0.0, "ms")
    metrics["separatrix.max_coeff_bits"] = (counter.max_bits, "bits")
    metrics["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(plain), "ratio")
    return metrics, [f"not in folres, so its metrics read 0: {name}" for name in sorted(missing)]


def declared_metrics(trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(args) -> int:
    workload = workloads.WORKLOADS[args.workload]
    cli = load_cli()
    items = workload.generate(args.seed)
    argv_digest = digest([item.argv for item in items])
    if digest([item.argv for item in workload.generate(args.seed)]) != argv_digest:
        raise Abort("one seed generated two different input lists")
    session = Session(cli, items)
    runner = run_traced if args.trace else run_untraced
    metrics, notes = runner(session, args.seconds)
    steps, matched, lost = resolve_stats(session)
    if args.trace:
        metrics["resolve.steps"] = (steps, "count")
        metrics["resolve.matched_step_ratio"] = (matched / steps if steps else 0.0, "ratio")
    declared = declared_metrics(args.trace)
    if {k: unit for k, (_, unit) in metrics.items() if k in declared} != declared:
        raise Abort("measured metrics do not match BENCHMARK.json")
    failed_items, failures = check(workload, session)
    notes += failures
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        **environment(),
        "items": len(items),
        "passes": session.passes,
        "failed_items": failed_items,
        "lost_match_items": lost,
        "argv_digest": argv_digest,
        "output_digest": session.output_digest,
        "src_digest": source_digest(),
        "speed": statistics.median(session.loops) / NOMINAL_CALIBRATION_S,
    }
    for note in notes:
        print("#", note)
    if lost:
        print(f"# {lost} of {len(items)} items lose a normal-form match at a later step (ROADMAP item 1)")
    print("# meta " + json.dumps(meta))
    for name in declared:
        value, unit = metrics[name]
        print(f"{name:<52} {value:>16.6f} {unit}")
    print(json.dumps({
        "correct": failed_items == 0,
        "attempted": len(items) * session.passes,
        "failed": failed_items * session.passes,
        "metrics": {name: {"value": metrics[name][0], "unit": declared[name]} for name in declared},
    }))
    return 0


def run_all(args) -> int:
    results = {**environment(), "seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for name in workloads.WORKLOADS:
        entry = results["workloads"][name] = {}
        for trace in (0, 1):
            cmd = [
                sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            if proc.returncode:
                raise Abort(f"{name} --trace {trace} failed: {proc.stderr[-500:]}")
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            meta = next(json.loads(line[len("# meta "):]) for line in lines if line.startswith("# meta "))
            entry["per_layer" if trace else "end_to_end"] = result["metrics"]
            entry[f"trace{trace}"] = {**meta, **{k: result[k] for k in ("correct", "attempted", "failed")}}
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n")
    if args.compare:
        compare(results, json.loads(Path(args.compare).read_text()))
    return 0


def compare(new, old) -> None:
    """Print new against old per end-to-end metric; abort when one seed gave
    different inputs, or one source gave different outputs."""
    spec = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    print("workload       metric                 before ->        after  change (+ is better)")
    for name, entry in new["workloads"].items():
        before = old["workloads"].get(name)
        if before is None:
            continue
        for trace in ("trace0", "trace1"):
            a, b = before[trace], entry[trace]
            if a["seed"] == b["seed"] and a["argv_digest"] != b["argv_digest"]:
                raise Abort(f"{name}: seed {a['seed']} generated different inputs")
            if a["src_digest"] == b["src_digest"] and a["output_digest"] != b["output_digest"]:
                raise Abort(f"{name}: the same sources printed different outputs")
        for metric, m in spec.items():
            x, y = before["end_to_end"][metric]["value"], entry["end_to_end"][metric]["value"]
            worse = (y - x) / x if m["better"] == "lower" else (x - y) / x
            flag = "  WORSE THAN BOUND" if worse > m["bound"] else ""
            print(f"{name:<14} {metric:<16} {x:>12.4f} -> {y:>12.4f}  {-worse:+.1%}{flag}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --all: write the results to this JSON file")
    parser.add_argument("--compare", help="with --all: an earlier results file to compare against")
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    try:
        return run_all(args) if args.all else run_one(args)
    except Abort as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
