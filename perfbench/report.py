"""Metric definitions and the human-readable report.

:data:`PER_LAYER` is the one list of per-layer metrics (name, unit,
which direction is better); ``BENCHMARK.json`` mirrors it and the
benchmark's tests keep the two in step.
"""

import statistics

from perfbench import tracing
from perfbench.stats import timing_summary

E2E_UNITS = {
    "setup_s": "s",
    "node_hours_per_s": "node-h/s",
    "peak_rss_mb": "MB",
}

E2E_BETTER = {
    "setup_s": "lower",
    "node_hours_per_s": "higher",
    "peak_rss_mb": "lower",
}

#: (name, unit, better).  Metrics a workload does not exercise read 0.
PER_LAYER = (
    ("sim.events", "count", "lower"),
    ("sim.events_cancelled", "count", "lower"),
    ("sim.self_s", "s", "lower"),
    ("lrm.updates_sent", "count", "lower"),
    ("lrm.updates_delta", "count", "lower"),
    ("lrm.updates_suppressed", "count", "lower"),
    ("lrm.useful_update_ratio", "ratio", "higher"),
    ("lrm.evictions", "count", "lower"),
    ("lrm.self_s", "s", "lower"),
    ("grm.updates_received", "count", "lower"),
    ("grm.negotiation_rounds", "count", "lower"),
    ("grm.reservations_refused", "count", "lower"),
    ("grm.placement_ratio", "ratio", "higher"),
    ("grm.self_s", "s", "lower"),
    ("scheduler.order_calls", "count", "lower"),
    ("scheduler.candidates", "count", "lower"),
    ("scheduler.self_s", "s", "lower"),
    ("trader.queries", "count", "lower"),
    ("trader.offers_returned", "count", "lower"),
    ("trader.query_us.p50", "us", "lower"),
    ("trader.query_us.p99", "us", "lower"),
    ("trader.self_s", "s", "lower"),
    ("prediction.uploads", "count", "lower"),
    ("prediction.self_s", "s", "lower"),
    ("orb.calls", "count", "lower"),
    ("orb.fast_local_calls", "count", "higher"),
    ("orb.frames", "count", "lower"),
    ("orb.wire_bytes", "bytes", "lower"),
    ("orb.dispatch_us.p50", "us", "lower"),
    ("orb.dispatch_us.p99", "us", "lower"),
    ("orb.self_s", "s", "lower"),
    ("checkpoint.saves", "count", "lower"),
    ("checkpoint.skipped", "count", "higher"),
    ("checkpoint.bytes_written", "bytes", "lower"),
    ("checkpoint.restores", "count", "higher"),
    ("checkpoint.restore_ratio", "ratio", "higher"),
    ("checkpoint.save_us.p50", "us", "lower"),
    ("checkpoint.save_us.p99", "us", "lower"),
    ("checkpoint.self_s", "s", "lower"),
    ("bsp.supersteps", "count", "higher"),
    ("bsp.rollbacks", "count", "lower"),
    ("bsp.program_runs", "count", "higher"),
    ("bsp.self_s", "s", "lower"),
    ("hierarchy.summaries", "count", "lower"),
    ("hierarchy.summary_deltas", "count", "lower"),
    ("hierarchy.remote_submissions", "count", "higher"),
    ("hierarchy.escalations", "count", "lower"),
    ("hierarchy.placement_ratio", "ratio", "higher"),
    ("hierarchy.submit_remote_us.p50", "us", "lower"),
    ("hierarchy.submit_remote_us.p99", "us", "lower"),
    ("hierarchy.self_s", "s", "lower"),
    ("obs.journal_events", "count", "lower"),
    ("obs.self_s", "s", "lower"),
    ("other.self_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("wire.generator_late_ms.p99", "ms", "lower"),
    # What a user of each workload sees, beyond the three end-to-end
    # metrics every workload reports (see README: "Metrics").
    ("jobs_completed", "count", "higher"),
    ("turnaround_h.p50", "h", "lower"),
    ("turnaround_h.p90", "h", "lower"),
    ("harvested_cpu_h", "cpu-h", "higher"),
    ("wasted_cpu_h", "cpu-h", "lower"),
    ("owner_slowdown_pct", "%", "lower"),
    ("failed_ratio", "ratio", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("call_ms.p50", "ms", "lower"),
    ("call_ms.p99", "ms", "lower"),
)

UNITS = dict(E2E_UNITS, **{name: unit for name, unit, _ in PER_LAYER})

#: Traced boundaries whose span durations become timing metrics.
TIMED_SPANS = {
    "trader.query_us": ("trader:TradingService.query",),
    "orb.dispatch_us": ("orb:Orb.handle_request_bytes",
                        "orb:Orb.handle_request_direct"),
    "checkpoint.save_us": ("checkpoint:MemoryCheckpointStore.save",
                           "checkpoint:FileCheckpointStore.save"),
    "hierarchy.submit_remote_us": ("hierarchy:ParentGrm.submit_remote",),
}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def user_metrics(workload: str, reps) -> tuple:
    """User-facing outcomes per workload (see README for which apply),
    and the timing summaries behind their tails, keyed by metric base."""
    first = reps[0].outcomes
    out = {"failed_ratio": first["failed_ratio"]}
    if workload == "wire":
        call = timing_summary(
            [t for rep in reps for t in rep.timings["call_s"]])
        late = timing_summary(
            [t for rep in reps for t in rep.timings["generator_late_s"]])
        out.update({
            "ops_per_s": sustainable_rate(reps),
            "call_ms.p50": call["p50"] * 1e3,
            "call_ms.p99": call["tail"] * 1e3,
            "wire.generator_late_ms.p99": late["tail"] * 1e3,
        })
        return out, {"call_ms": call, "wire.generator_late_ms": late}
    turnaround = timing_summary(first["turnaround_h"], wanted=90.0)
    out.update({
        "jobs_completed": first["jobs_completed"],
        "turnaround_h.p50": turnaround["p50"],
        "turnaround_h.p90": turnaround["tail"],
        "harvested_cpu_h": first["harvested_cpu_h"],
        "wasted_cpu_h": first["wasted_cpu_h"],
        "owner_slowdown_pct": first["owner_slowdown_pct"],
    })
    return out, {"turnaround_h": turnaround}


def sustainable_rate(reps) -> float:
    """The highest ladder rate whose two-way latencies, pooled over the
    repetitions, have a real p99 within the limit, and whose backlog
    did not grow in any repetition; 0 when no rate passes."""
    passing = [0.0]
    for level, (rate, _lat, _growing) in enumerate(reps[0].timings["ladder"]):
        pooled = [t for rep in reps for t in rep.timings["ladder"][level][1]]
        summary = timing_summary(pooled)
        if (summary["tail_p"] >= 99.0
                and summary["tail"] * 1e3 <= reps[0].timings["slo_ms"]
                and not any(rep.timings["ladder"][level][2]
                            for rep in reps)):
            passing.append(rate)
    return max(passing)


def per_layer_metrics(workload: str, reps, traced) -> dict:
    """Every :data:`PER_LAYER` metric, as ``{name: {value, unit}}``."""
    c = dict(traced.counters)
    recorder = traced.timings["recorder"]
    attribution = traced.timings["attribution"]
    self_s = dict(attribution["self_s"])
    unattributed = attribution["unattributed_s"]
    server = traced.timings.get("server_attribution")
    if server is not None:
        for layer, seconds in server["self_s"].items():
            self_s[layer] = self_s.get(layer, 0.0) + seconds
        unattributed += server["unattributed_s"]
    values = {name: 0.0 for name, _unit, _better in PER_LAYER}
    for name in values:
        if name in c:
            values[name] = c[name]
    for layer in tracing.LAYERS + (tracing.OTHER,):
        values[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    values["trace.unattributed_s"] = unattributed
    values["lrm.useful_update_ratio"] = _ratio(
        c.get("lrm.updates_sent", 0) - c.get("lrm.updates_suppressed", 0),
        c.get("lrm.updates_sent", 0))
    values["grm.placement_ratio"] = _ratio(
        c.get("grm.placements", 0), c.get("grm.negotiation_rounds", 0))
    values["checkpoint.restore_ratio"] = _ratio(
        c.get("checkpoint.restores", 0), c.get("grm.evictions_handled", 0))
    values["hierarchy.placement_ratio"] = _ratio(
        c.get("hierarchy.remote_submissions", 0),
        c.get("hierarchy.remote_submissions", 0)
        + c.get("hierarchy.remote_rejections", 0))
    counts = recorder.counts
    columns = recorder.columns()
    values["scheduler.order_calls"] = len(tracing.durations(
        recorder,
        [n for n in recorder.names
         if n.startswith("scheduler:") and n.endswith(".order")],
        columns,
    ))
    values["scheduler.candidates"] = counts.get("scheduler.candidates", 0)
    values["trader.offers_returned"] = counts.get("trader.offers_returned", 0)
    for metric, names in TIMED_SPANS.items():
        samples = tracing.durations(recorder, names, columns)
        if metric == "orb.dispatch_us":
            samples = samples + traced.timings.get("server_dispatch_s", [])
        summary = timing_summary(samples)
        values[f"{metric}.p50"] = summary["p50"] * 1e6
        values[f"{metric}.p99"] = summary["tail"] * 1e6
    values["trace.overhead_ratio"] = _ratio(
        traced.window_raw_s,
        statistics.median(rep.window_raw_s for rep in reps))
    values.update(user_metrics(workload, reps)[0])
    return {name: {"value": values[name], "unit": UNITS[name]}
            for name, _unit, _better in PER_LAYER}


def trace_checks(traced) -> dict:
    """The span layout behind the self-time attribution holds, on this
    process's trace and (on ``wire``) the server's.  See
    :func:`perfbench.tracing.check_nesting`."""
    checks = {}
    for side in ("nesting", "server_nesting"):
        for name, ok in traced.timings.get(side, {}).items():
            checks[f"trace_{name}"] = checks.get(f"trace_{name}", True) and ok
    return checks


def _fmt(value) -> str:
    if isinstance(value, int):
        return f"{value:,}"
    return f"{value:.6g}"


def print_report(args, reps, traced, e2e, per_layer, checks) -> None:
    first = reps[0]
    print(f"perfbench {args.workload} seed={args.seed} size={args.size} "
          f"repetitions={len(reps)} traced={'yes' if traced else 'no'}")
    print(f"config applied: {first.config}")
    print("end-to-end (median over repetitions):")
    for name, value in e2e.items():
        print(f"  {name:<28} {_fmt(value):>14} {E2E_UNITS[name]:<9}"
              f" {E2E_BETTER[name]} is better")
    print("  per repetition, reference-host (wall) seconds: " + ", ".join(
        f"setup {rep.setup_s:.3f} ({rep.setup_raw_s:.3f}) "
        f"window {rep.window_s:.3f} ({rep.window_raw_s:.3f})"
        for rep in reps))
    user, tails = user_metrics(args.workload, reps)
    print("what a user sees:")
    for name, value in user.items():
        note = ""
        base = name.rsplit(".", 1)[0]
        if base in tails and name.endswith(".p99"):
            note = (f" (p{tails[base]['tail_p']:g} of "
                    f"n={tails[base]['n']}: tail with >=10 samples beyond)")
        elif base in tails and name.endswith(".p90"):
            note = (f" (p{tails[base]['tail_p']:g} of n={tails[base]['n']};"
                    " unfinished jobs censored at window end)")
        print(f"  {name:<28} {_fmt(value):>14} {UNITS[name]}{note}")
    print("exact counters (every repetition identical):")
    for name, value in sorted(first.counters.items()):
        print(f"  {name:<28} {_fmt(value):>14}")
    print(f"  digest {first.digest}")
    if per_layer is not None:
        wall = traced.timings["attribution"]["wall_s"]
        print(f"per-layer (traced window {wall:.3f}s, "
              f"{traced.timings['spans']:,} spans):")
        for name, _unit, _better in PER_LAYER:
            print(f"  {name:<32} {_fmt(per_layer[name]['value']):>14} "
                  f"{per_layer[name]['unit']}")
    print("checks:")
    for name, ok in checks.items():
        print(f"  {name:<32} {'ok' if ok else 'FAILED'}")
