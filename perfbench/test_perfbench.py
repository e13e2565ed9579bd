"""The benchmark's own tests.

Run from the repository root with
``PYTHONPATH=src python -m pytest perfbench -q``.
"""

import json
import os
import re
import subprocess
import sys

import pytest

from perfbench import config, hostclock, report, stats, tracing
from perfbench.grid_workloads import RepResult, verify_sample_sort

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# -- smoke runs ---------------------------------------------------------------------


@pytest.mark.parametrize("workload", ["campus", "federation", "wire"])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_metric(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "0.5",
         "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, out.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = load_benchmark()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for metric in spec:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_refuses_a_directory_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(os.path.join(ROOT, "perfbench")):
        if name.endswith(".py"):
            with open(os.path.join(ROOT, "perfbench", name)) as src:
                (bench / name).write_text(src.read())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campus",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert out.returncode != 0
    assert out.stdout == ""


# -- self-time arithmetic -------------------------------------------------------------


def test_self_time_of_a_synthetic_nest():
    # root [0, 10] -> a [1, 4] -> a1 [2, 3]; root -> b [5, 9]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    own = tracing.self_times(start, end, parent).tolist()
    assert own == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert sum(own) == pytest.approx(10.0)


def _log_span(log, name, start, end, parent):
    log.name.append(name)
    log.start.append(start)
    log.end.append(end)
    log.parent.append(parent)


def _synthetic_recorder():
    recorder = tracing.SpanRecorder()
    recorder.window = (0.0, 10.0)
    sim = recorder.name_id("sim:EventLoop.run_until")
    grm = recorder.name_id("grm:Grm.send_delta")
    orb = recorder.name_id("orb:Orb.invoke")
    log = recorder._log()
    _log_span(log, sim, 0.5, 9.5, -1)
    _log_span(log, orb, 1.0, 3.0, 0)
    _log_span(log, grm, 1.5, 2.5, 1)
    _log_span(log, grm, 4.0, 6.0, 0)
    return recorder, log, sim


def test_attribution_adds_up_to_wall_time():
    recorder, _log, _sim = _synthetic_recorder()
    result = tracing.attribute(recorder)
    assert result["wall_s"] == 10.0
    assert result["self_s"]["sim"] == pytest.approx(5.0)
    assert result["self_s"]["orb"] == pytest.approx(1.0)
    assert result["self_s"]["grm"] == pytest.approx(3.0)
    assert result["unattributed_s"] == pytest.approx(1.0)
    assert all(tracing.check_nesting(recorder).values())


def test_nesting_check_catches_each_broken_layout():
    recorder, log, sim = _synthetic_recorder()
    log.end[2] = 3.5                      # child outlives its parent
    assert not tracing.check_nesting(recorder)["children_inside_parents"]

    recorder, log, sim = _synthetic_recorder()
    _log_span(log, sim, 9.0, 9.8, -1)     # second root overlaps the first
    assert not tracing.check_nesting(recorder)["roots_do_not_overlap"]

    recorder, log, sim = _synthetic_recorder()
    _log_span(log, sim, 9.6, 10.5, -1)    # root runs past the window
    assert not tracing.check_nesting(recorder)["roots_inside_window"]


def test_wrapped_calls_nest_and_record_counts():
    recorder = tracing.SpanRecorder()

    def inner(values):
        return list(values)

    traced_inner = recorder.wrap(
        "trader:inner", inner,
        observe=lambda counts, args, result: counts.__setitem__(
            "seen", counts.get("seen", 0) + len(result)))
    traced_outer = recorder.wrap(
        "grm:outer", lambda: traced_inner([1, 2]) + traced_inner([3]))
    assert traced_outer() == [1, 2, 3]        # inactive: nothing recorded
    assert recorder.columns()[0].size == 0
    recorder.begin()
    traced_outer()
    recorder.end()
    name, start, end, parent, _thread = recorder.columns()
    assert [recorder.names[n] for n in name] == [
        "grm:outer", "trader:inner", "trader:inner"]
    assert parent.tolist() == [-1, 0, 0]
    assert recorder.counts["seen"] == 3
    assert (end >= start).all()
    assert all(tracing.check_nesting(recorder).values())


def test_install_restores_every_original():
    from repro.orb.core import Orb
    from repro.sim.events import EventLoop

    before = (EventLoop.schedule, EventLoop.every, Orb.invoke)
    recorder = tracing.SpanRecorder()
    uninstall = tracing.install(recorder)
    assert EventLoop.schedule is not before[0]
    uninstall()
    assert (EventLoop.schedule, EventLoop.every, Orb.invoke) == before


def test_layer_of_module_follows_the_repository_modules():
    assert tracing.layer_of_module("repro.core.update_protocol") == "lrm"
    assert tracing.layer_of_module("repro.orb.trading") == "trader"
    assert tracing.layer_of_module("repro.orb.cdr") == "orb"
    assert tracing.layer_of_module("repro.core.grid") == tracing.OTHER
    assert tracing.layer_of_module(None) == tracing.OTHER


# -- percentile rule ----------------------------------------------------------------


@pytest.mark.parametrize("n, expected", [
    (10_000, 99.0),     # p99.9 would qualify, but .p99 never reports above
    (1000, 99.0),       # exactly 10 beyond p99
    (999, 95.0),        # 9 beyond p99: fall back
    (200, 95.0),
    (100, 90.0),
    (40, 75.0),
    (5, 50.0),          # nothing qualifies: the median
])
def test_highest_percentile_with_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected


def test_timing_summary_reports_the_percentile_it_used():
    samples = [float(i) for i in range(1, 101)]
    summary = stats.timing_summary(samples)
    assert summary == {"n": 100, "p50": 50.0, "tail_p": 90.0, "tail": 90.0}


# -- open-loop accounting -----------------------------------------------------------


def test_open_loop_latency_counts_from_the_due_time():
    log = stats.OpenLoopLog()
    log.record(due=0.0, sent=0.0)                 # oneway on time
    log.record(due=1.0, sent=0.9, done=1.2)       # sent early
    log.record(due=2.0, sent=2.5, done=2.6)       # stalled generator
    assert log.lateness() == pytest.approx([0.0, 0.0, 0.5])
    assert log.latencies() == pytest.approx([0.2, 0.6])


def test_open_loop_backlog_detection():
    steady, behind = stats.OpenLoopLog(), stats.OpenLoopLog()
    for i in range(100):
        steady.record(due=i * 0.01, sent=i * 0.01 + 0.0001)
        behind.record(due=i * 0.01, sent=i * 0.02)   # falls further behind
    assert not steady.backlog_growing(0.005)
    assert behind.backlog_growing(0.005)


def _wire_rep(ladder):
    return RepResult(
        setup_s=1.0, window_s=1.0, setup_raw_s=1.0, window_raw_s=1.0,
        node_hours=1.0, outcomes={}, counters={}, checks={}, digest="",
        timings={"ladder": ladder, "slo_ms": 5.0},
    )


def test_sustainable_rate_needs_a_real_pooled_p99():
    fast = [0.001] * 500
    slow_tail = [0.001] * 489 + [0.009] * 11
    # 1000 pooled samples resolve p99; 500 alone would only give p95.
    reps = [_wire_rep([(1000.0, fast, False), (2000.0, fast, False)])] * 2
    assert report.sustainable_rate(reps) == 2000.0
    assert report.sustainable_rate(reps[:1]) == 0.0
    # Eleven pooled samples over 5 ms (of 1000) put the p99 over it.
    reps = [_wire_rep([(1000.0, fast, False), (2000.0, slow_tail, False)]),
            _wire_rep([(1000.0, fast, False), (2000.0, fast, False)])]
    assert report.sustainable_rate(reps) == 1000.0
    # A backlog that grew in any repetition fails the level.
    reps = [_wire_rep([(1000.0, fast, False), (2000.0, fast, True)]),
            _wire_rep([(1000.0, fast, False), (2000.0, fast, False)])]
    assert report.sustainable_rate(reps) == 1000.0


# -- host clock -----------------------------------------------------------------------


def test_reference_seconds_scale_each_group_by_its_samples():
    ref = hostclock.REFERENCE_SAMPLE_S
    # Two groups of two laps: the second ran on a host twice as slow.
    laps = [1.0, 1.0, 2.0, 2.0]
    samples = [ref, ref, 2 * ref, 2 * ref]
    assert hostclock.reference_seconds(laps, samples, group=2) == \
        pytest.approx(4.0)
    assert hostclock.reference_seconds(laps, samples, group=4) == \
        pytest.approx(6.0 / 1.5)


def test_host_clock_times_laps_without_the_samples():
    clock = hostclock.HostClock()
    clock.start()
    for _ in range(3):
        clock.lap()
    clock.stop()
    assert len(clock.laps) == len(clock.samples) == 4
    assert clock.raw_s < sum(clock.samples)       # empty laps
    assert clock.reference_s > 0
    twice = hostclock.HostClock(sample=lambda: 2.0, reference_s=1.0)
    twice.laps, twice.samples = [4.0], [2.0]
    assert twice.reference_s == pytest.approx(2.0)
    untimed = hostclock.HostClock(calibrate=False)
    untimed.start()
    untimed.stop()
    assert untimed.samples == [] and untimed.reference_s == untimed.raw_s


# -- configuration and checks --------------------------------------------------------


def test_config_drops_keywords_a_constructor_no_longer_takes():
    def grid(seed=0, delta_updates=False):
        return seed, delta_updates

    accepted, dropped = config.applicable(
        grid, {"delta_updates": True, "batch_oneway": False})
    assert accepted == {"delta_updates": True}
    assert dropped == ["batch_oneway"]


def test_sample_sort_verification():
    blocks = [[5, 1], [4, 2], [3]]
    assert verify_sample_sort(blocks, [[1, 2], [3, 4], [5]])
    assert not verify_sample_sort(blocks, [[1, 2], [4, 3], [5]])
    assert not verify_sample_sort(blocks, [[1, 2], [3, 4], [6]])


# -- BENCHMARK.json --------------------------------------------------------------------


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_matches_the_report():
    spec = load_benchmark()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == [
        "campus", "federation", "wire"]
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    assert {n: m["unit"] for n, m in e2e.items()} == report.E2E_UNITS
    assert {n: m["better"] for n, m in e2e.items()} == report.E2E_BETTER
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(report.PER_LAYER)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(metric["name"]), metric
        assert UNIT.match(metric["unit"]), metric
