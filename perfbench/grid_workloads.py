"""The two Grid-driven workloads: ``campus`` and ``federation``.

Both build a complete :class:`~repro.core.grid.Grid` from the seed, run
a warm-up, then measure one window of simulated time spanning Monday's
morning owner arrivals (07:30-09:30 of the second simulated week).
Everything the program receives is generated from the seed here; the
program itself sees only nodes, specs and calls on its public API.
"""

import hashlib
import random
from dataclasses import dataclass, field
import numpy as np

from perfbench.config import GRID_FLAGS, applicable
from perfbench.hostclock import HostClock
from repro.apps.job import JobState, TaskState
from repro.apps.registry import ProgramRegistry
from repro.apps.spec import BSP, ApplicationSpec
from repro.apps.workloads import bag_of_tasks, steady_stream
from repro.bsp.programs import sample_sort
from repro.core.grid import Grid
from repro.core.lupa import Lupa
from repro.core.ncc import VACATE_POLICY
from repro.orb.core import Orb
from repro.sim.events import EventLoop
from repro.sim.machine import MachineSpec
from repro.sim.usage import (
    ERRATIC,
    NIGHT_OWL,
    OFFICE_WORKER,
    STUDENT_LAB,
    generate_presence_trace,
)

PROFILES = (OFFICE_WORKER, STUDENT_LAB, NIGHT_OWL, ERRATIC)
MIPS_CHOICES = (800.0, 1000.0, 1500.0, 2000.0)
RAM_CHOICES = (256.0, 512.0, 1024.0)

HOUR = 3600.0
DAY = 86400.0
#: Monday of the second simulated week (day 0 is a Monday).
MONDAY = 7 * DAY
#: The measured window runs from 07:30, through the office owners'
#: 08:00-09:00 arrival shoulder, into the working day; the grid is
#: built half an hour earlier.
WINDOW_START = MONDAY + 7.5 * HOUR
BUILD_AT = WINDOW_START - 0.5 * HOUR
#: Reference CPU for CPU-hour figures: the default MachineSpec's MIPS.
REFERENCE_MIPS = 1000.0
#: LUPA training sample interval: one sample per half-hour profile bin.
TRAIN_SAMPLE_S = 1800.0
#: Simulated seconds per timed lap of the warm-up and the window, and
#: per lap of the LUPA training loop; nodes added per set-up lap.
LAP_SIM_S = 60.0
TRAIN_LAP_S = 6 * HOUR
NODES_PER_LAP = 16


@dataclass(frozen=True)
class CampusSize:
    desktops: int = 384
    dedicated: int = 48
    window_h: float = 2.0
    backlog_jobs: int = 30
    stream_jobs: int = 110
    stream_jobs_per_h: float = 70.0
    job_mips: float = 1.8e6
    bsp_jobs: int = 4
    bsp_tasks: int = 8
    bsp_block: int = 1500
    departures: int = 8
    rejoin_after_s: float = 1800.0


@dataclass(frozen=True)
class FederationSize:
    campuses: int = 6
    clusters_per_campus: int = 6
    nodes_per_cluster: int = 12
    hot_clusters: int = 3
    hot_share: float = 0.75
    window_h: float = 2.0
    stream_jobs_per_h: float = 120.0
    job_mips: float = 1.8e6
    departures: int = 12
    rejoin_after_s: float = 1800.0


SIZES = {
    "campus": {
        "full": CampusSize(),
        "tiny": CampusSize(desktops=14, dedicated=2, window_h=1.0,
                           backlog_jobs=4, stream_jobs=6,
                           stream_jobs_per_h=8.0, job_mips=6e5, bsp_jobs=1,
                           bsp_tasks=4, bsp_block=50, departures=2),
    },
    "federation": {
        "full": FederationSize(),
        "tiny": FederationSize(campuses=2, clusters_per_campus=2,
                               nodes_per_cluster=4, hot_clusters=1,
                               window_h=1.0, stream_jobs_per_h=24.0,
                               job_mips=6e5, departures=2),
    },
}


@dataclass
class RepResult:
    """One repetition: set-up, one measured window, and its outcomes.

    ``setup_s`` and ``window_s`` are reference-host seconds (see
    :mod:`perfbench.hostclock`); ``*_raw_s`` the wall seconds.
    """

    setup_s: float
    window_s: float
    setup_raw_s: float
    window_raw_s: float
    node_hours: float
    outcomes: dict
    counters: dict
    checks: dict
    digest: str
    timings: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)
    #: Every set-up timed in this repetition, when there are several.
    setup_rounds_s: list = field(default_factory=list)


# -- the BSP program the benchmark owns ------------------------------------------


def sharded_sample_sort(bsp, blocks):
    """``sample_sort`` over one input block per process."""
    return sample_sort(bsp, blocks[bsp.pid])


def make_registry():
    registry = ProgramRegistry()
    registry.register("sample_sort", sharded_sample_sort)
    return registry


def verify_sample_sort(blocks, results) -> bool:
    """Slices are each sorted, ascend across pids, and together are a
    permutation of the input blocks."""
    merged = [x for part in results for x in part]
    if merged != sorted(merged):
        return False
    return sorted(x for block in blocks for x in block) == merged


# -- shared machinery ----------------------------------------------------------------


def run_in_laps(run_until, start: float, end: float, step: float,
                clock: HostClock) -> None:
    """``run_until(end)`` as consecutive runs of ``step`` simulated
    seconds, one timed lap each.  The loop fires the same events in the
    same order as one run would."""
    when = start
    while when < end:
        when = min(when + step, end)
        run_until(when)
        clock.lap()


class OrbCollector:
    """Every ORB constructed while active, so traffic can be summed over
    all of them (node, manager, parent and user ORBs alike)."""

    def __init__(self):
        self.orbs: list = []
        self._undo = None

    def __enter__(self):
        original = Orb.__init__
        collected = self.orbs

        def init(orb, *args, **kwargs):
            original(orb, *args, **kwargs)
            collected.append(orb)

        Orb.__init__ = init
        self._undo = lambda: setattr(Orb, "__init__", original)
        return self

    def __exit__(self, *exc):
        self._undo()
        return False


class GridScenario:
    """A built grid plus everything the harness tracks about it."""

    def __init__(self, workload: str, seed: int, registry=None):
        self.workload = workload
        self.rng = random.Random(f"{workload}:{seed}")
        kwargs = {"seed": seed, "policy": "pattern_aware", **GRID_FLAGS}
        if registry is not None:
            kwargs["programs"] = registry
        accepted, dropped = applicable(Grid.__init__, kwargs)
        self.config = {
            "Grid": {k: v for k, v in accepted.items() if k != "programs"},
            "dropped": dropped,
        }
        self.grid = Grid(**accepted)
        self.nodes: list = []          # every NodeHandle ever added
        self.presence: dict = {}       # node -> [joined, left or None]
        self.specs: dict = {}          # node -> add_node keywords
        self.submissions: list = []    # (origin job id, cluster)
        self.bsp_inputs: dict = {}     # job id -> input blocks
        self.parents: dict = {}
        self.window_start = WINDOW_START
        self.window_end = WINDOW_START

    # nodes ----------------------------------------------------------------

    def add_node(self, cluster: str, name: str, clock=None, **kwargs):
        node = self.grid.add_node(cluster, name, **kwargs)
        if clock is not None and len(self.nodes) % NODES_PER_LAP == 0:
            clock.lap()
        self.nodes.append(node)
        self.presence[name] = [self.grid.loop.now, None]
        self.specs[name] = kwargs
        return node

    def depart(self, cluster: str, name: str, rejoin_after_s: float,
               generation: int) -> None:
        """Scripted departure; the machine re-joins under a new name."""
        if name not in self.grid.clusters[cluster].nodes:
            return
        self.grid.remove_node(cluster, name)
        self.presence[name][1] = self.grid.loop.now
        kwargs = self.specs[name]
        base = name.split("~", 1)[0]
        self.grid.loop.schedule(
            rejoin_after_s,
            lambda: self.add_node(cluster, f"{base}~{generation}", **kwargs),
        )

    def schedule_departures(self, count: int, rejoin_after_s: float) -> None:
        """``count`` departures spread evenly over the window; the seed
        picks the machines."""
        window = self.window_end - self.window_start
        for k in range(count):
            when = self.window_start + (k + 0.5) * window / count
            pick = self.rng.random()

            def leave(k=k, pick=pick):
                present = sorted(
                    (cluster, name)
                    for cluster, handle in self.grid.clusters.items()
                    for name in handle.nodes
                )
                if present:
                    cluster, name = present[int(pick * len(present))]
                    self.depart(cluster, name, rejoin_after_s, k)

            self.grid.loop.schedule_at(when, leave)

    # submissions --------------------------------------------------------------

    def submit_at(self, when: float, spec, cluster: str, blocks=None) -> None:
        def fire():
            job_id = self.grid.submit(spec, cluster)
            self.submissions.append((job_id, cluster))
            if blocks is not None:
                self.bsp_inputs[job_id] = blocks

        self.grid.loop.schedule_at(when, fire)

    # window ---------------------------------------------------------------------

    def run_window(self, clock: HostClock, recorder=None) -> None:
        """Run the measured window in timed laps on ``clock``."""
        if recorder is not None:
            recorder.begin()
        clock.start()
        run_in_laps(self.grid.run_until, self.window_start, self.window_end,
                    LAP_SIM_S, clock)
        clock.stop()
        if recorder is not None:
            recorder.end()

    def node_hours(self) -> float:
        start, end = self.window_start, self.window_end
        total = 0.0
        for joined, left in self.presence.values():
            lo = max(joined, start)
            hi = min(left if left is not None else end, end)
            if hi > lo:
                total += hi - lo
        return total / HOUR

    # outcomes -----------------------------------------------------------------

    def resolve(self, job_id: str):
        """The job that carries a submission's work (follows wide-area
        forwarding to the cluster that accepted it)."""
        job = self.grid.job(job_id)
        seen = {job_id}
        while job.forwarded_to and job.forwarded_to not in seen:
            seen.add(job.forwarded_to)
            job = self.grid.job(job.forwarded_to)
        return job

    def outcomes(self, orbs) -> tuple:
        end = self.window_end
        states = {"completed": 0, "running": 0, "pending": 0, "failed": 0,
                  "other": 0}
        turnaround = []
        harvested_mips = 0.0
        wasted_mips = 0.0
        records = []
        for job_id, _cluster in self.submissions:
            origin = self.grid.job(job_id)
            job = self.resolve(job_id)
            if job.state is JobState.COMPLETED:
                states["completed"] += 1
            elif job.state is JobState.FAILED:
                states["failed"] += 1
            elif job.state is JobState.CANCELLED:
                states["other"] += 1
            elif any(t.state in (TaskState.RUNNING, TaskState.RESERVED)
                     for t in job.tasks):
                states["running"] += 1
            else:
                states["pending"] += 1
            finished = job.completed_at if job.done else None
            turnaround.append(
                ((finished if finished is not None else end)
                 - origin.submitted_at) / HOUR
            )
            for task in job.tasks:
                if task.state is TaskState.COMPLETED:
                    harvested_mips += task.work_mips
                wasted_mips += task.wasted_mips
            records.append((
                job_id, job.job_id, job.state.value, repr(job.completed_at),
                tuple(
                    (t.state.value, repr(t.progress_mips),
                     repr(t.wasted_mips), t.attempts, t.evictions)
                    for t in job.tasks
                ),
            ))
        submitted = len(self.submissions)
        requested = received = 0.0
        for cluster in self.grid.clusters.values():
            for node in cluster.nodes.values():
                machine = node.workstation.machine
                if machine.grid_task_ids:
                    requested += machine.owner_cpu
                    received += machine.owner_received_cpu()
        outcomes = {
            "attempted": submitted,
            "failed": states["failed"],
            "jobs_completed": states["completed"],
            "jobs_running": states["running"],
            "jobs_pending": states["pending"],
            "jobs_failed": states["failed"],
            "turnaround_h": turnaround,
            "harvested_cpu_h": harvested_mips / REFERENCE_MIPS / HOUR,
            "wasted_cpu_h": wasted_mips / REFERENCE_MIPS / HOUR,
            "owner_slowdown_pct": (
                100.0 * (requested - received) / requested
                if requested > 0 else 0.0
            ),
            "failed_ratio": states["failed"] / submitted if submitted else 0.0,
        }
        checks = {
            "job_accounting_closes": (
                states["other"] == 0
                and states["completed"] + states["running"]
                + states["pending"] + states["failed"] == submitted
            ),
        }
        bsp_ok, bsp_verified = True, 0
        for job_id, blocks in sorted(self.bsp_inputs.items()):
            coordinator = self.grid.coordinator(job_id)
            job = self.resolve(job_id)
            if job.state is not JobState.COMPLETED:
                continue
            results = coordinator.executed_results if coordinator else None
            if results is None or not verify_sample_sort(blocks, results):
                bsp_ok = False
            else:
                bsp_verified += 1
        checks["sample_sort_verified"] = bsp_ok
        outcomes["sample_sort_verified"] = bsp_verified
        counters = self.counters(orbs)
        digest = hashlib.sha256(
            repr((sorted(records), sorted(counters.items()))).encode()
        ).hexdigest()
        return outcomes, counters, checks, digest

    def counters(self, orbs) -> dict:
        """Exact work counters since the grid was built, from public
        attributes and stats."""
        grid = self.grid
        lrms = [n.lrm for n in self.nodes]
        stores = [h.checkpoint_store for h in grid.clusters.values()]
        grms = [h.grm for h in grid.clusters.values()]
        coordinators = [
            grid.coordinator(job_id) for job_id, _ in self.submissions
        ]
        coordinators = [c for c in coordinators if c is not None]
        c = {
            "sim.events": grid.loop.events_fired,
            "sim.events_cancelled": grid.loop.events_cancelled,
            "lrm.updates_sent": sum(l.updates_sent for l in lrms),
            "lrm.updates_delta": sum(l.updates_delta for l in lrms),
            "lrm.updates_suppressed": sum(l.updates_suppressed for l in lrms),
            "lrm.evictions": sum(l.evicted_count for l in lrms),
            "grm.updates_received": sum(
                g.stats.updates_received for g in grms),
            "grm.negotiation_rounds": sum(
                g.stats.negotiation_rounds for g in grms),
            "grm.reservations_refused": sum(
                g.stats.reservations_refused for g in grms),
            "grm.placements": sum(
                g.stats.placements + g.stats.gang_placements for g in grms),
            "trader.queries": sum(g.trader.queries for g in grms),
            "prediction.uploads": sum(
                h.gupa.uploads for h in grid.clusters.values()),
            "orb.calls": sum(o.requests_handled for o in orbs),
            "orb.fast_local_calls": sum(o.fast_local_calls for o in orbs),
            "checkpoint.saves": sum(s.saves for s in stores),
            "checkpoint.skipped": (
                sum(s.skipped_saves for s in stores)
                + sum(l.checkpoints_skipped for l in lrms)
            ),
            "checkpoint.bytes_written": sum(s.bytes_written for s in stores),
            "bsp.supersteps": sum(c.current_superstep for c in coordinators),
            "bsp.rollbacks": sum(c.rollbacks for c in coordinators),
            "bsp.program_runs": sum(
                1 for c in coordinators if c.executed_run is not None),
            "hierarchy.summaries": sum(
                p.summaries_received for p in self.parents.values()),
            "hierarchy.summary_deltas": sum(
                p.summaries_delta for p in self.parents.values()),
            "hierarchy.remote_submissions": sum(
                p.remote_submissions for p in self.parents.values()),
            "hierarchy.remote_rejections": sum(
                p.remote_rejections for p in self.parents.values()),
            "hierarchy.escalations": sum(
                p.placements_escalated for p in self.parents.values()),
            "obs.journal_events": (
                grid.journal.recorded + grid.journal.dropped
                if grid.journal is not None else 0
            ),
        }
        frames = wire_bytes = 0
        for orb in orbs:
            stats = orb.stats()
            frames += stats["requests_sent"] + stats["replies_received"]
            wire_bytes += stats["bytes_sent"]
        c["orb.frames"] = frames
        c["orb.wire_bytes"] = wire_bytes
        restores, evictions = self._restores()
        c["checkpoint.restores"] = restores
        c["grm.evictions_handled"] = evictions
        return c

    def _restores(self) -> tuple:
        """(evictions resumed from checkpointed progress, evictions).

        Read from the journal when it is on; without it there is no
        per-eviction record, and only the eviction count is known.
        """
        evictions = sum(
            h.grm.stats.evictions_handled for h in self.grid.clusters.values()
        )
        journal = self.grid.journal
        if journal is None:
            return 0, evictions
        restores = sum(
            1 for e in journal.events
            if e.type == "task_evicted"
            and (e.attrs.get("resume_progress_mips") or 0.0) > 0.0
        )
        return restores, evictions


# -- campus ----------------------------------------------------------------------------


def _train_patterns(scenario, cluster: str, desktops: list,
                    clock: HostClock) -> None:
    """LUPA set-up: learn one week of each owner's activity offline and
    upload the weekly patterns to the cluster's GUPA."""
    loop = EventLoop()
    analyzers = []
    for index, (name, profile) in enumerate(desktops):
        trace = generate_presence_trace(
            profile, weeks=1, tick_seconds=TRAIN_SAMPLE_S,
            rng=np.random.default_rng(scenario.rng.getrandbits(32)),
        )
        ticks = len(trace)
        analyzers.append(Lupa(
            loop, name,
            probe=lambda t=trace, n=ticks: float(
                t[int(loop.now // TRAIN_SAMPLE_S) % n]),
            sample_interval=TRAIN_SAMPLE_S,
            min_history_days=7,
            seed=index,
        ))
        if index % NODES_PER_LAP == 0:
            clock.lap()
    run_in_laps(loop.run_until, 0.0, 7 * DAY, TRAIN_LAP_S, clock)
    gupa = scenario.grid.clusters[cluster].gupa
    for lupa in analyzers:
        gupa.upload_pattern(lupa.node, lupa.pattern())


def build_campus(seed: int, size: CampusSize,
                 clock: HostClock) -> GridScenario:
    sc = GridScenario("campus", seed, registry=make_registry())
    rng = sc.rng
    grid = sc.grid
    sc.window_end = WINDOW_START + size.window_h * HOUR
    grid.run_until(BUILD_AT)          # empty loop: moves the clock only
    grid.add_cluster("campus")
    grid.enable_metrics()
    grid.enable_journal()
    desktops = []
    total = size.desktops + size.dedicated
    dedicated = set(rng.sample(range(total), size.dedicated))
    for i in range(total):
        name = f"pc{i:04}"
        spec = MachineSpec(mips=rng.choice(MIPS_CHOICES),
                           ram_mb=rng.choice(RAM_CHOICES))
        if i in dedicated:
            sc.add_node("campus", name, clock, spec=spec, dedicated=True)
        else:
            profile = rng.choice(PROFILES)
            sc.add_node("campus", name, clock, spec=spec, profile=profile,
                        sharing=VACATE_POLICY)
            desktops.append((name, profile))
    _train_patterns(sc, "campus", desktops, clock)
    grid.loop.every(HOUR, grid.metrics.snapshot,
                    start_after=WINDOW_START + HOUR - grid.loop.now)

    # Load: an overnight backlog, a steady stream through the morning,
    # and sample-sort BSP gangs with superstep checkpoints.
    backlog = bag_of_tasks(size.backlog_jobs, size.job_mips,
                           submit_at=WINDOW_START + 60.0, name="backlog",
                           checkpoint_interval_s=900.0)
    # The first ``stream_jobs`` arrivals of a stream that would run for
    # twice the window: a fixed amount of work, Poisson arrival times.
    stream = steady_stream(
        size.stream_jobs_per_h * 24.0, 2 * size.window_h / 24.0,
        size.job_mips, seed=rng.getrandbits(32), start=WINDOW_START,
        checkpoint_interval_s=900.0,
    )
    stream = list(stream)[:size.stream_jobs]
    for planned in list(backlog) + stream:
        sc.submit_at(planned.time, planned.spec, "campus")
    for k in range(size.bsp_jobs):
        blocks = [
            [rng.randrange(1_000_000) for _ in range(size.bsp_block)]
            for _ in range(size.bsp_tasks)
        ]
        spec = ApplicationSpec(
            name=f"sort-{k:02}", kind=BSP, tasks=size.bsp_tasks,
            program="sample_sort", work_mips=size.job_mips / 3,
            checkpoint_every_supersteps=2,
            metadata={"supersteps": 6, "superstep_comm_bytes": 100_000,
                      "program_args": [blocks]},
        )
        when = WINDOW_START + (k + 0.1) * size.window_h * HOUR / size.bsp_jobs
        sc.submit_at(when, spec, "campus", blocks=blocks)
    sc.schedule_departures(size.departures, size.rejoin_after_s)
    # Warm-up: registration, owners settle.
    run_in_laps(grid.run_until, BUILD_AT, WINDOW_START, LAP_SIM_S, clock)
    return sc


# -- federation ------------------------------------------------------------------------


def build_federation(seed: int, size: FederationSize,
                     clock: HostClock) -> GridScenario:
    sc = GridScenario("federation", seed)
    rng = sc.rng
    grid = sc.grid
    sc.window_end = WINDOW_START + size.window_h * HOUR
    grid.run_until(BUILD_AT)
    tree = []
    clusters = []
    for c in range(size.campuses):
        members = []
        for k in range(size.clusters_per_campus):
            cluster = f"lab{c}-{k}"
            grid.add_cluster(cluster)
            members.append(cluster)
            clusters.append(cluster)
            for i in range(size.nodes_per_cluster):
                sc.add_node(
                    cluster, f"{cluster}-pc{i:02}", clock,
                    spec=MachineSpec(mips=rng.choice(MIPS_CHOICES),
                                     ram_mb=rng.choice(RAM_CHOICES)),
                    profile=rng.choice(PROFILES), sharing=VACATE_POLICY,
                )
        tree.append({f"campus{c}": members})
    sc.parents, _uplinks = grid.build_hierarchy({"root": tree})
    clock.lap()

    # Submissions skew to a few hot clusters, all under campus 0, so the
    # overflow goes wide-area: first within campus 0, then via the root.
    # The stream's size and hot share are fixed, so seeds vary where and
    # when jobs arrive but not how much work there is.
    hot = clusters[:size.hot_clusters]
    count = round(size.stream_jobs_per_h * size.window_h)
    hot_count = round(size.hot_share * count)
    targets = [hot[i % len(hot)] for i in range(hot_count)]
    targets += [rng.choice(clusters) for _ in range(count - hot_count)]
    rng.shuffle(targets)
    times = sorted(rng.uniform(WINDOW_START, sc.window_end)
                   for _ in range(count))
    for index, (when, cluster) in enumerate(zip(times, targets)):
        spec = ApplicationSpec(
            name=f"job-{index:04}", work_mips=size.job_mips,
            metadata={"checkpoint_interval_s": 0.0},
        )
        sc.submit_at(when, spec, cluster)
    sc.schedule_departures(size.departures, size.rejoin_after_s)
    run_in_laps(grid.run_until, BUILD_AT, WINDOW_START, LAP_SIM_S, clock)
    return sc


BUILDERS = {"campus": build_campus, "federation": build_federation}


def run_rep(workload: str, seed: int, size_name: str = "full",
            recorder=None) -> RepResult:
    """Build (timed as set-up), run the window, collect the outcomes."""
    size = SIZES[workload][size_name]
    calibrate = recorder is None
    setup, window = HostClock(calibrate), HostClock(calibrate)
    with OrbCollector() as collector:
        setup.start()
        scenario = BUILDERS[workload](seed, size, setup)
        setup.stop()
        scenario.run_window(window, recorder)
    outcomes, counters, checks, digest = scenario.outcomes(collector.orbs)
    return RepResult(
        setup_s=setup.reference_s,
        window_s=window.reference_s,
        setup_raw_s=setup.raw_s,
        window_raw_s=window.raw_s,
        node_hours=scenario.node_hours(),
        outcomes=outcomes,
        counters=counters,
        checks=checks,
        digest=digest,
        config=scenario.config,
    )
