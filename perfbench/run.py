#!/usr/bin/env python3
"""Run one workload of the end-to-end benchmark and report its metrics.

    python3 perfbench/run.py --workload campus --seed 1 --seconds 20 --trace 0

Untraced runs (``--trace 0``) repeat set-up + measured window until
``--seconds`` are used (at least three times), check every repetition's
outputs, and end with one JSON line holding the end-to-end metrics.
Traced runs (``--trace 1``) spend half the time on untraced repetitions
and then trace one more, and end with the per-layer metrics instead.
Everything else printed before that last line is a human-readable
report of every metric with its unit.  See ``perfbench/README.md``.
"""

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("campus", "federation", "wire")
MIN_REPS = 3
MIN_REPS_TRACED = 2
MAX_REPS = 40


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="workload size; 'tiny' is for smoke tests")
    return parser.parse_args(argv)


def code_hash() -> str:
    """Digest of the program and benchmark sources in this checkout."""
    digest = hashlib.sha256()
    for base in (os.path.join(ROOT, "src", "repro"),
                 os.path.join(ROOT, "perfbench")):
        paths = []
        for folder, _dirs, files in os.walk(base):
            paths.extend(os.path.join(folder, f) for f in files
                         if f.endswith(".py"))
        for path in sorted(paths):
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def check_stored_digest(key: str, digest: str) -> bool:
    """The outcome digest must match every earlier run of the same code,
    workload and seed in this checkout; the first run records it."""
    path = os.path.join(OUT_DIR, "digests.json")
    try:
        with open(path) as handle:
            stored = json.load(handle)
    except (OSError, ValueError):
        stored = {}
    if key in stored:
        return stored[key] == digest
    stored[key] = digest
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(stored, handle, indent=1, sort_keys=True)
    return True


def run_rep(workload, seed, size, recorder=None, trace_path=""):
    gc.collect()
    if workload == "wire":
        from perfbench import wire
        return wire.run_rep(seed, size, recorder, trace_path)
    from perfbench import grid_workloads
    return grid_workloads.run_rep(workload, seed, size, recorder)


def measure(args):
    """Untraced repetitions until the time budget is used, then (with
    ``--trace 1``) one traced repetition; returns ``(reps, traced)``."""
    budget = args.seconds * (0.5 if args.trace else 1.0)
    min_reps = MIN_REPS_TRACED if args.trace else MIN_REPS
    reps = []
    traced = None
    started = perf_counter()
    while len(reps) < MAX_REPS:
        reps.append(run_rep(args.workload, args.seed, args.size))
        elapsed = perf_counter() - started
        if len(reps) >= min_reps and elapsed * (1 + 1 / len(reps)) > budget:
            break
    if args.trace:
        from perfbench import tracing
        recorder = tracing.SpanRecorder()
        uninstall = tracing.install(recorder)
        trace_path = os.path.join(
            OUT_DIR, f"trace-{args.workload}-seed{args.seed}.npz")
        try:
            traced = run_rep(args.workload, args.seed, args.size, recorder,
                             trace_path.replace(".npz", "-server.npz"))
        finally:
            uninstall()
        traced.timings["attribution"] = tracing.attribute(recorder)
        traced.timings["nesting"] = tracing.check_nesting(recorder)
        traced.timings["recorder"] = recorder
        traced.timings["spans"] = recorder.export(trace_path)
    return reps, traced


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    # The checkout root (for ``perfbench``) and its sources (for
    # ``repro``) replace the script directory on the import path.
    sys.path[0:1] = [ROOT, os.path.join(ROOT, "src")]
    from perfbench import report

    reps, traced = measure(args)
    measured = reps + ([traced] if traced is not None else [])
    checks = {}
    for rep in measured:
        for name, ok in rep.checks.items():
            checks[name] = checks.get(name, True) and bool(ok)
    checks["digest_same_every_repetition"] = (
        len({rep.digest for rep in measured}) == 1)
    checks["digest_same_as_earlier_runs"] = check_stored_digest(
        f"{args.workload}:{args.seed}:{args.size}:{code_hash()}",
        reps[0].digest,
    )
    if args.workload == "wire":
        peak_rss_mb = max(rep.outcomes["peak_rss_mb"] for rep in reps)
    else:
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e = {
        "setup_s": statistics.median(
            s for rep in reps for s in rep.setup_rounds_s or [rep.setup_s]),
        "node_hours_per_s": statistics.median(
            rep.node_hours / rep.window_s for rep in reps),
        "peak_rss_mb": peak_rss_mb,
    }
    per_layer = None
    if traced is not None:
        per_layer = report.per_layer_metrics(args.workload, reps, traced)
        checks.update(report.trace_checks(traced))
    report.print_report(args, reps, traced, e2e, per_layer, checks)
    metrics = per_layer if args.trace else {
        name: {"value": value, "unit": report.E2E_UNITS[name]}
        for name, value in e2e.items()
    }
    print(json.dumps({
        "correct": all(checks.values()),
        "attempted": sum(rep.outcomes["attempted"] for rep in measured),
        "failed": sum(rep.outcomes["failed"] for rep in measured),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
