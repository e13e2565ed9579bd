"""The ``wire`` workload: the cluster manager's control path over TCP.

A :class:`~repro.core.grm.Grm` (with its Trader) is served by one
``Orb(tcp=True)`` in a child process, as a real cluster manager would
be.  This process is the client: one thread, one connection.  It
registers the cluster's nodes, then streams their LRM status traffic —
``send_update``/``send_delta`` oneways produced by the repository's
:class:`~repro.core.update_protocol.DeltaSender` from changing statuses
— with two-way ``submit``/``job_status`` calls mixed in.

Each repetition starts fresh child processes (not timed).  Per
repetition:

* **set-up** — the child builds the ORB and GRM, the client its ORB and
  stub, and registers every node; this runs nine times, eight in a
  child that is then stopped and the last in the child the phases below
  run on, and ``setup_s`` is the median over every set-up of the run;
* **catch-up** — a fixed number of update intervals of the whole
  cluster streamed as fast as the server absorbs them, with a two-way
  barrier after every lap; its time gives the node-hours of cluster
  status the manager ingests per second;
* **reference** — an open loop at a fixed reference rate; two-way
  latency is timed from each call's due time;
* **ladder** — open loops at a few fixed rates; the highest one whose
  two-way p99, pooled over the repetitions, stays within the latency
  limit with no growing backlog is the sustainable rate.

Set-up and catch-up run with both processes' threads on one CPU, timed
in laps on a :class:`~perfbench.hostclock.HostClock`: the calibration
samples then run on the CPU that did the work.  Catch-up laps are
calibrated by the interpreter-bound sample, set-up laps by round trips
to the child (see ``ROUND_TRIPS_PER_SAMPLE``).  The open loops run
unpinned, as a deployment would.

The traffic mix is the ``campus`` workload's, as measured there: 432
machines, one status update per machine every
``repro.core.lrm.DEFAULT_UPDATE_INTERVAL`` (60 s), a full snapshot every
``DEFAULT_FULL_REFRESH_EVERY`` (10th) update, and between those a
changed status on 1.3% of updates -- campus seed 1 sent 64,583 updates,
6,452 full, 758 deltas and 57,373 heartbeats (758 / 58,131 = 0.013).
"""

import hashlib
import os
import random
import resource
import socket
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from multiprocessing.connection import Connection
from time import perf_counter, sleep

from perfbench import tracing
from perfbench.config import WIRE_GRM, WIRE_ORB, applicable
from perfbench.grid_workloads import HOUR, RepResult
from perfbench.hostclock import HostClock
from perfbench.stats import OpenLoopLog
from repro.core.grm import Grm
from repro.core.lrm import DEFAULT_UPDATE_INTERVAL
from repro.core.protocols import GRM_INTERFACE, LRM_INTERFACE
from repro.core.update_protocol import FULL, HEARTBEAT, DeltaSender
from repro.orb.core import Orb
from repro.orb.transport import InProcDomain
from repro.sim.events import EventLoop

#: Seconds the child process gets to answer a request (start-up
#: included), and to exit once its socket is closed.
ANSWER_TIMEOUT_S = 60.0
EXIT_TIMEOUT_S = 10.0

#: The checkout root and its sources: the child's import path.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: The child's entry: serve on the socket whose descriptor is argv[1],
#: then exit at once (the ORB's daemon threads are not waited for).
CHILD_MAIN = """\
import os, sys
sys.path[0:1] = sys.argv[2:]
try:
    from multiprocessing.connection import Connection
    from perfbench.wire import serve
    serve(Connection(int(sys.argv[1])))
finally:
    sys.stderr.flush()
    os._exit(0)
"""

#: Set-ups per repetition (``setup_s`` is the median over every set-up
#: of the run); the last is the system the other phases run on.
SETUP_ROUNDS = 9
#: Node registrations per timed set-up lap, and streamed ops per timed
#: catch-up lap (each ended by a two-way barrier).
REGISTRATIONS_PER_LAP = 16
CATCHUP_OPS_PER_LAP = 400
#: Set-up is bound by round trips between the two processes, which the
#: interpreter-bound calibration sample tracks poorly (it over-corrects
#: by about twice).  Its laps are calibrated instead by this many
#: round trips to the child over the control socket, on the same CPU,
#: which take ``REFERENCE_ROUND_TRIPS_S`` on the reference host (a
#: nominal figure: 0.4 ms was typical where the benchmark was built).
ROUND_TRIPS_PER_SAMPLE = 8
REFERENCE_ROUND_TRIPS_S = 0.5e-3


@dataclass(frozen=True)
class WireSize:
    nodes: int = 432                # the campus workload's machines
    update_interval_s: float = DEFAULT_UPDATE_INTERVAL
    change_share: float = 0.013     # campus: deltas / (deltas + heartbeats)
    #: One two-way call per this many ops.  Not part of the modelled
    #: mix: a probe density at which the two-way p99 resolves.
    twoway_every: int = 10
    reference_rate: float = 5000.0  # ops/s
    reference_ops: int = 7500
    ladder: tuple = (4000.0, 8000.0, 12000.0, 16000.0, 20000.0, 24000.0)
    ladder_ops: int = 5000
    catchup_intervals: int = 100
    slo_ms: float = 5.0


SIZES = {
    "full": WireSize(),
    "tiny": WireSize(nodes=50, reference_rate=2000.0, reference_ops=400,
                     ladder=(1000.0, 4000.0), ladder_ops=200,
                     catchup_intervals=2),
}


# -- CPU placement ------------------------------------------------------------------


def set_thread_affinity(cpus) -> None:
    """Put every thread of this process on ``cpus`` (threads started
    later inherit it from the thread that starts them)."""
    if not cpus or not hasattr(os, "sched_setaffinity"):
        return
    for thread in threading.enumerate():
        if thread.native_id is None:
            continue
        try:
            os.sched_setaffinity(thread.native_id, cpus)
        except OSError:
            pass        # the thread ended meanwhile


def all_cpus() -> set:
    if hasattr(os, "sched_getaffinity"):
        return set(os.sched_getaffinity(0))
    return set()


# -- server (child process) ---------------------------------------------------------


class _Served:
    """One ORB + GRM the child serves for one repetition."""

    def __init__(self, traced: bool, trace_path: str):
        self.recorder = None
        self._uninstall = None
        if traced:
            self.recorder = tracing.SpanRecorder()
            self._uninstall = tracing.install(self.recorder)
        self.trace_path = trace_path
        orb_kwargs, orb_dropped = applicable(Orb.__init__, WIRE_ORB)
        grm_kwargs, grm_dropped = applicable(Grm.__init__, WIRE_GRM)
        self.orb = Orb("wire-grm", domain=InProcDomain(), **orb_kwargs)
        self.grm = Grm(EventLoop(), self.orb, cluster="wire", **grm_kwargs)
        self.hello = {
            "ior": self.orb.activate(
                self.grm, GRM_INTERFACE, key="wire/grm").to_string(),
            "config": {"Orb": orb_kwargs, "Grm": grm_kwargs,
                       "dropped": orb_dropped + grm_dropped},
        }

    def window_end(self) -> dict:
        recorder = self.recorder
        if recorder is None:
            return {}
        recorder.end()
        return {
            "attribution": tracing.attribute(recorder),
            "nesting": tracing.check_nesting(recorder),
            "dispatch_s": tracing.durations(recorder, (
                "orb:Orb.handle_request_bytes",
                "orb:Orb.handle_request_direct",
            )),
            "spans": recorder.export(self.trace_path),
        }

    def close(self) -> dict:
        grm, orb = self.grm, self.orb
        grm.flush_updates()
        view = {
            offer["properties"]["node"]: offer["properties"]
            for offer in grm.trader.query("node")
        }
        final = {
            "updates_received": grm.stats.updates_received,
            "deltas_received": grm.stats.deltas_received,
            "jobs_submitted": grm.stats.jobs_submitted,
            "trader_queries": grm.trader.queries,
            "requests_handled": orb.requests_handled,
            "fast_local_calls": orb.fast_local_calls,
            "view_digest": view_digest(view),
            "peak_rss_kb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss,
        }
        orb.shutdown()
        if self._uninstall is not None:
            self._uninstall()
        return final


def serve(conn) -> None:
    """Child entry point: serve one GRM per set-up until stopped.

    Requests are ``(verb, argument)`` pairs; every one gets a reply.
    """
    served = None
    while True:
        try:
            verb, argument = conn.recv()
        except EOFError:
            break
        if verb == "open":
            served = _Served(*argument)
            reply = served.hello
        elif verb == "ping":
            reply = "pong"
        elif verb == "pin":
            set_thread_affinity(argument)
            reply = "ok"
        elif verb == "window-start":
            if served.recorder is not None:
                served.recorder.begin()
            reply = "ok"
        elif verb == "window-end":
            reply = served.window_end()
        elif verb == "close":
            reply = served.close()
            served = None
        else:           # "stop"
            conn.send("ok")
            break
        conn.send(reply)
    conn.close()


def view_digest(view: dict) -> str:
    """Order-independent digest of a node-name -> status mapping."""
    return hashlib.sha256(repr(sorted(
        (node, sorted(status.items())) for node, status in view.items()
    )).encode()).hexdigest()


class Server:
    """The GRM child process, always stopped and waited for (use it as a
    context manager).

    A plain ``subprocess`` child on one end of a socket pair: the
    ``multiprocessing`` start methods would also start a resource-tracker
    process that outlives the run.
    """

    def __init__(self):
        ours, theirs = socket.socketpair()
        try:
            self._process = subprocess.Popen(
                [sys.executable, "-c", CHILD_MAIN, str(theirs.fileno()),
                 ROOT, os.path.join(ROOT, "src")],
                pass_fds=(theirs.fileno(),), stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, cwd=ROOT,
            )
        except BaseException:
            ours.close()
            raise
        finally:
            theirs.close()
        self._conn = Connection(ours.detach())

    def round_trips(self) -> float:
        """Wall seconds of ``ROUND_TRIPS_PER_SAMPLE`` empty requests:
        the set-up's calibration sample."""
        started = perf_counter()
        for _ in range(ROUND_TRIPS_PER_SAMPLE):
            self.request("ping")
        return perf_counter() - started

    def request(self, verb: str, argument=None):
        self._conn.send((verb, argument))
        if not self._conn.poll(ANSWER_TIMEOUT_S):
            raise TimeoutError(f"wire server did not answer {verb!r}")
        return self._conn.recv()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def close(self) -> None:
        """Ask the child to stop, close the socket (the child also exits
        on that) and wait for it, killing it if it does not end."""
        if self._conn.closed:
            return
        try:
            if self._process.poll() is None:
                self.request("stop")
        except (OSError, EOFError, TimeoutError):
            pass
        self._conn.close()
        try:
            self._process.wait(EXIT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._process.kill()
            self._process.wait()


# -- client traffic ---------------------------------------------------------------


class IdleLrm:
    """Callback servant behind every registration: the wire workload
    measures the manager's inbound path, and its GRM never dials back
    (no schedule pass runs without a driven event loop)."""

    def __getattr__(self, name):
        return lambda *args: None


def node_status(rng: random.Random, index: int) -> dict:
    return {
        "node": f"n{index:05}", "time": 0.0,
        "mips": rng.choice((800.0, 1000.0, 1500.0, 2000.0)),
        "ram_mb": rng.choice((256.0, 512.0, 1024.0)),
        "disk_mb": 20_000.0, "os": "linux", "arch": "x86",
        "cpu_free": 1.0, "mem_free_mb": 200.0, "disk_free_mb": 15_000.0,
        "net_mbps": 100.0, "net_free_mbps": 90.0, "owner_active": False,
        "sharing": True, "grid_tasks": 0,
    }


class Traffic:
    """The cluster's control traffic as one deterministic op stream.

    Status updates go out node by node, interval by interval; every
    ``twoway_every``-th op is a two-way call instead (``submit``, then
    ``job_status`` on the previous submission, alternating).
    """

    def __init__(self, size: WireSize, seed: int, stub, recorder=None):
        self.size = size
        self.rng = random.Random(f"wire:{seed}")
        self.stub = stub
        self.statuses = [node_status(self.rng, i) for i in range(size.nodes)]
        self.senders = [DeltaSender(size.update_interval_s)
                        for _ in self.statuses]
        self._encode = [
            recorder.wrap("lrm:DeltaSender.encode", s.encode)
            if recorder is not None else s.encode
            for s in self.senders
        ]
        self.interval = 0
        self.cursor = 0
        self.ops = 0
        self.counts = {"full": 0, "delta": 0, "heartbeat": 0, "register": 0,
                       "submit": 0, "job_status": 0, "barrier": 0,
                       "raised": 0}
        self.last_job = None

    def register(self, lrm_ior: str, clock: HostClock) -> None:
        for index, (status, sender) in enumerate(
                zip(self.statuses, self.senders), 1):
            self.stub.register_node(dict(status), lrm_ior)
            sender.register(status)
            self.counts["register"] += 1
            if index % REGISTRATIONS_PER_LAP == 0:
                clock.lap()

    def _next_update(self):
        if self.cursor == 0:
            self.interval += 1
            now = self.interval * self.size.update_interval_s
            for status in self.statuses:
                status["time"] = now
                if self.rng.random() < self.size.change_share:
                    status["cpu_free"] = round(self.rng.random(), 2)
                    status["mem_free_mb"] = float(self.rng.randrange(32, 256))
                    status["owner_active"] = status["cpu_free"] < 0.5
        index = self.cursor
        self.cursor = (index + 1) % len(self.statuses)
        kind, payload = self._encode[index](self.statuses[index])
        return index, kind, payload

    def step(self) -> bool:
        """Issue one op; returns True when it was a two-way call."""
        self.ops += 1
        stub = self.stub
        if self.ops % self.size.twoway_every == 0:
            try:
                if self.last_job is None or self.counts["submit"] <= \
                        self.counts["job_status"]:
                    self.last_job = stub.submit({
                        "name": f"w{self.ops}", "work_mips": 1e5,
                    })
                    self.counts["submit"] += 1
                else:
                    stub.job_status(self.last_job)
                    self.counts["job_status"] += 1
            except Exception:
                self.counts["raised"] += 1
            return True
        index, kind, payload = self._next_update()
        if kind == FULL:
            stub.send_update(dict(payload))
            self.counts["full"] += 1
        else:
            stub.send_delta(self.statuses[index]["node"], dict(payload))
            self.counts["heartbeat" if kind == HEARTBEAT else "delta"] += 1
        return False

    def barrier(self) -> None:
        """A two-way call: every earlier oneway on the connection has
        been dispatched once it returns."""
        if self.last_job is None:
            self.last_job = self.stub.submit({"name": "barrier",
                                              "work_mips": 1e5})
        else:
            self.stub.job_status(self.last_job)
        self.counts["barrier"] += 1

    def expected_view(self) -> dict:
        """What the GRM must hold: every sender's last-sent baseline."""
        return {s["node"]: sender.baseline
                for s, sender in zip(self.statuses, self.senders)}

    @property
    def oneways(self) -> int:
        c = self.counts
        return c["full"] + c["delta"] + c["heartbeat"]

    @property
    def twoways(self) -> int:
        c = self.counts
        return c["register"] + c["submit"] + c["job_status"] + c["barrier"]


def open_loop(traffic: Traffic, rate: float, count: int) -> OpenLoopLog:
    """Issue ``count`` ops at ``rate`` ops/s on a fixed schedule."""
    log = OpenLoopLog()
    gap = 1.0 / rate
    start = perf_counter() + 0.001
    for i in range(count):
        due = start + i * gap
        now = perf_counter()
        if due - now > 0.001:
            sleep(due - now - 0.0005)
        while perf_counter() < due:
            pass
        sent = perf_counter()
        if traffic.step():
            log.record(due, sent, perf_counter())
        else:
            log.record(due, sent)
    return log


def catch_up(traffic: Traffic, intervals: int, clock: HostClock) -> None:
    """Stream ``intervals`` whole update intervals back to back, timed
    on ``clock``.  A lap ends with a two-way barrier, so the server is
    idle (and its backlog drained) while the calibration sample runs."""
    size = traffic.size
    per_interval = size.nodes * size.twoway_every // (size.twoway_every - 1)
    clock.start()
    for op in range(1, intervals * per_interval + 1):
        traffic.step()
        if op % CATCHUP_OPS_PER_LAP == 0:
            traffic.barrier()
            clock.lap()
    traffic.barrier()
    clock.stop()


def set_up(server: Server, size: WireSize, seed: int, clock: HostClock,
           recorder=None, trace_path: str = "") -> tuple:
    """Build the manager's and the client's ORBs and register every
    node, timed on ``clock``; returns ``(hello, client, traffic)``."""
    clock.start()
    hello = server.request("open", (recorder is not None, trace_path))
    orb_kwargs, _dropped = applicable(Orb.__init__, WIRE_ORB)
    client = Orb("wire-client", domain=InProcDomain(), **orb_kwargs)
    try:
        lrm_ior = client.activate(
            IdleLrm(), LRM_INTERFACE, key="wire/lrm").to_string()
        stub = client.stub(hello["ior"], GRM_INTERFACE)
        traffic = Traffic(size, seed, stub, recorder)
        traffic.register(lrm_ior, clock)
    except BaseException:
        client.shutdown()
        raise
    clock.stop()
    return hello, client, traffic


def run_rep(seed: int, size_name: str = "full", recorder=None,
            trace_path: str = "") -> RepResult:
    """One repetition on two fresh child processes: one for the timed
    set-ups that are thrown away, one for the system the other phases
    run on.  A shut-down TCP ORB stays alive (its accept thread never
    wakes), so set-ups in the window's process would leave it a larger
    heap to garbage-collect -- stalls of about 30 ms at the open loops'
    p99 -- and a larger ``peak_rss_mb``."""
    with Server() as scratch, Server() as server:
        return _run_rep(scratch, server, SIZES[size_name], seed, recorder,
                        trace_path)


def _run_rep(scratch: Server, server: Server, size: WireSize, seed: int,
             recorder, trace_path: str) -> RepResult:
    calibrate = recorder is None
    setups, window = [], HostClock(calibrate)
    cpus = all_cpus()
    one_cpu = {min(cpus)} if cpus else cpus
    set_thread_affinity(one_cpu)
    for child in (scratch, server):
        child.request("pin", one_cpu)
    try:
        for _round in range(SETUP_ROUNDS - 1):
            setups.append(HostClock(calibrate, scratch.round_trips,
                                    REFERENCE_ROUND_TRIPS_S))
            _hello, client, _traffic = set_up(scratch, size, seed,
                                              setups[-1])
            client.shutdown()
            scratch.request("close")
        scratch.close()
        setups.append(HostClock(calibrate, server.round_trips,
                                REFERENCE_ROUND_TRIPS_S))
        hello, client, traffic = set_up(server, size, seed, setups[-1],
                                        recorder, trace_path)
        try:
            server.request("window-start")
            if recorder is not None:
                recorder.begin()
            updates_before = traffic.oneways
            catch_up(traffic, size.catchup_intervals, window)
            catchup_updates = traffic.oneways - updates_before
            set_thread_affinity(cpus)
            server.request("pin", cpus)
            reference = open_loop(traffic, size.reference_rate,
                                  size.reference_ops)
            ladder = [open_loop(traffic, rate, size.ladder_ops)
                      for rate in size.ladder]
            if recorder is not None:
                recorder.end()
            traced_server = server.request("window-end")
            traffic.barrier()
            client_stats = client.stats()
        finally:
            client.shutdown()
        final = server.request("close")
    finally:
        set_thread_affinity(cpus)
        server.request("pin", cpus)

    expected = traffic.expected_view()
    oneways, twoways = traffic.oneways, traffic.twoways
    calls = oneways + twoways
    lost = oneways - final["updates_received"]
    counters = {
        "lrm.updates_sent": oneways,
        "lrm.updates_delta": traffic.counts["delta"],
        "lrm.updates_suppressed": traffic.counts["heartbeat"],
        "grm.updates_received": final["updates_received"],
        "grm.deltas_received": final["deltas_received"],
        "grm.jobs_submitted": final["jobs_submitted"],
        "trader.queries": final["trader_queries"],
        "orb.calls": final["requests_handled"],
        "orb.fast_local_calls": final["fast_local_calls"],
        "orb.frames": (client_stats["requests_sent"]
                       + client_stats["replies_received"]),
        # Both directions, as the client counted them: it has every
        # reply in hand, while the server may not yet have counted the
        # bytes of its last reply when asked for its totals.
        "orb.wire_bytes": (client_stats["bytes_sent"]
                           + client_stats["bytes_received"]),
        "wire.twoway_calls": twoways,
    }
    failed = traffic.counts["raised"] + max(0, lost)
    outcomes = {
        "attempted": calls,
        "failed": failed,
        "failed_ratio": failed / calls,
        "peak_rss_mb": final["peak_rss_kb"] / 1024.0,
    }
    checks = {
        "oneways_all_ingested": lost == 0,
        "no_call_raised": traffic.counts["raised"] == 0,
        "grm_view_matches_senders": (
            final["view_digest"] == view_digest(expected)),
    }
    timings = {
        "call_s": reference.latencies(),
        "generator_late_s": reference.lateness(),
        "ladder": [(rate, log.latencies(), log.backlog_growing(
            size.slo_ms / 1e3)) for rate, log in zip(size.ladder, ladder)],
        "slo_ms": size.slo_ms,
    }
    if recorder is not None:
        timings["server_dispatch_s"] = traced_server["dispatch_s"]
        timings["server_attribution"] = traced_server["attribution"]
        timings["server_nesting"] = traced_server["nesting"]
    digest = hashlib.sha256(repr((
        sorted(counters.items()), sorted(traffic.counts.items()),
        final["view_digest"],
    )).encode()).hexdigest()
    # Each ingested update keeps one node's state current for one update
    # interval: the catch-up phase's node-hours per second.
    node_hours = catchup_updates * size.update_interval_s / HOUR
    return RepResult(
        setup_s=statistics.median(c.reference_s for c in setups),
        window_s=window.reference_s,
        setup_raw_s=statistics.median(c.raw_s for c in setups),
        setup_rounds_s=[c.reference_s for c in setups],
        window_raw_s=window.raw_s,
        node_hours=node_hours,
        outcomes=outcomes,
        counters=counters,
        checks=checks,
        digest=digest,
        timings=timings,
        config=hello["config"],
    )
