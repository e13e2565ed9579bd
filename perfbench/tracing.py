"""Per-layer span tracing, installed around public boundaries at run time.

The program under test is never edited: :func:`install` replaces a
fixed list of public methods (and the callbacks handed to the event
loop) with wrappers that record one span per call, and the function it
returns puts the originals back.  Each span keeps its name, start, end
and parent; spans live in per-thread ``array`` columns while the run
lasts and are written out by :meth:`SpanRecorder.export` at the end.

A layer's *self time* is the time its spans cover minus the time their
child spans cover.  Spans on one thread nest strictly, so the covered
part of a parent is the sum of its children's durations.

Layers are named after repository modules (see :data:`MODULE_LAYERS`);
a span's layer is the text before the first ``:`` in its name.
"""

import functools
import os
import threading
from array import array
from time import perf_counter

import numpy as np

import repro.bsp.runtime as bsp_runtime
from repro.checkpoint.store import FileCheckpointStore, MemoryCheckpointStore
from repro.core.grm import Grm
from repro.core.gupa import Gupa
from repro.core.hierarchy import ParentGrm
from repro.core.lrm import Lrm
from repro.core.protocols import (
    GRM_INTERFACE,
    GUPA_INTERFACE,
    LRM_INTERFACE,
    PARENT_GRM_INTERFACE,
)
from repro.core.scheduler import POLICIES, SchedulingPolicy
from repro.obs.journal import EventJournal
from repro.orb.core import Orb
from repro.orb.trading import TradingService
from repro.sim.events import EventLoop

#: Module prefix -> layer, most specific first.
MODULE_LAYERS = (
    ("repro.core.update_protocol", "lrm"),
    ("repro.core.ncc", "lrm"),
    ("repro.core.lrm", "lrm"),
    ("repro.core.reservation", "grm"),
    ("repro.core.grm", "grm"),
    ("repro.core.scheduler", "scheduler"),
    ("repro.core.lupa", "prediction"),
    ("repro.core.gupa", "prediction"),
    ("repro.core.hierarchy", "hierarchy"),
    ("repro.orb.trading", "trader"),
    ("repro.orb", "orb"),
    ("repro.sim", "sim"),
    ("repro.checkpoint", "checkpoint"),
    ("repro.bsp", "bsp"),
    ("repro.obs", "obs"),
)

#: Every layer the benchmark reports, in report order.
LAYERS = (
    "sim", "lrm", "grm", "scheduler", "trader", "prediction", "orb",
    "checkpoint", "bsp", "hierarchy", "obs",
)

#: Spans from modules outside every layer (grid wiring, the harness).
OTHER = "other"


def layer_of_module(module) -> str:
    if module:
        for prefix, layer in MODULE_LAYERS:
            if module == prefix or module.startswith(prefix + "."):
                return layer
    return OTHER


def layer_of_span(name: str) -> str:
    return name.split(":", 1)[0]


class _ThreadLog:
    """One thread's spans, as parallel columns; ``stack`` holds the
    indices of the spans open on this thread."""

    __slots__ = ("name", "start", "end", "parent", "stack")

    def __init__(self):
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack: list = []


class SpanRecorder:
    """Collects spans from wrapped callables on any thread."""

    def __init__(self):
        self.active = False
        #: ``perf_counter`` readings at :meth:`begin` and :meth:`end`.
        self.window = (0.0, 0.0)
        self.names: list = []
        self._ids: dict = {}
        self._logs: list = []
        self._local = threading.local()
        self._lock = threading.Lock()
        #: Counters observed at span boundaries (e.g. offers returned).
        self.counts: dict = {}

    def begin(self) -> None:
        """Start recording: the traced window opens."""
        self.window = (perf_counter(), 0.0)
        self.active = True

    def end(self) -> None:
        """Stop recording: the traced window closes."""
        self.active = False
        self.window = (self.window[0], perf_counter())

    @property
    def wall_s(self) -> float:
        return self.window[1] - self.window[0]

    def name_id(self, name: str) -> int:
        with self._lock:
            nid = self._ids.get(name)
            if nid is None:
                nid = len(self.names)
                self.names.append(name)
                self._ids[name] = nid
        return nid

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = _ThreadLog()
            self._local.log = log
            with self._lock:
                self._logs.append(log)
        return log

    def wrap(self, name: str, fn, observe=None):
        """``fn`` recording one span named ``name`` per call while the
        recorder is active; ``observe(counts, args, result)`` may bump
        :attr:`counts`."""
        nid = self.name_id(name)
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            log = recorder._log()
            stack = log.stack
            index = len(log.name)
            log.name.append(nid)
            log.parent.append(stack[-1] if stack else -1)
            log.end.append(0.0)
            stack.append(index)
            log.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                log.end[index] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(recorder.counts, args, result)
            return result

        return traced

    def wrap_callback(self, callback):
        """Wrap an event-loop callback in a span named by the module
        that defines it."""
        target = getattr(callback, "func", callback)   # functools.partial
        module = getattr(target, "__module__", None)
        qualname = getattr(target, "__qualname__", type(target).__name__)
        name = f"{layer_of_module(module)}:{module}.{qualname}"
        return self.wrap(name, callback)

    # -- analysis -------------------------------------------------------------

    def columns(self):
        """All spans as numpy columns: name, start, end, parent (global
        index or -1) and the index of the recording thread."""
        names, starts, ends, parents, threads = [], [], [], [], []
        offset = 0
        with self._lock:
            logs = [log for log in self._logs if len(log.name)]
        for thread_index, log in enumerate(logs):
            parent = np.frombuffer(log.parent, dtype=np.int32).astype(np.int64)
            parent = np.where(parent >= 0, parent + offset, -1)
            names.append(np.frombuffer(log.name, dtype=np.int32))
            starts.append(np.frombuffer(log.start, dtype=np.float64))
            ends.append(np.frombuffer(log.end, dtype=np.float64))
            parents.append(parent)
            threads.append(np.full(len(log.name), thread_index, np.int32))
            offset += len(log.name)
        if not names:
            empty = np.zeros(0)
            return (empty.astype(np.int32), empty, empty,
                    empty.astype(np.int64), empty.astype(np.int32))
        return (np.concatenate(names), np.concatenate(starts),
                np.concatenate(ends), np.concatenate(parents),
                np.concatenate(threads))

    def export(self, path: str) -> int:
        """Write every span to ``path`` (numpy ``.npz``); returns the
        span count."""
        name, start, end, parent, thread = self.columns()
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        np.savez_compressed(
            path, name=name, start=start, end=end, parent=parent,
            thread=thread, names=np.array(self.names, dtype=str),
        )
        return len(name)


def self_times(start, end, parent):
    """Per-span self time: duration minus the children's durations.

    ``parent`` holds the index of each span's parent, or -1 at a root.
    Children of one parent never overlap (they ran one after another on
    the parent's thread), so the part of the parent they cover is the
    sum of their durations.
    """
    duration = (np.asarray(end, dtype=np.float64)
                - np.asarray(start, dtype=np.float64))
    parent = np.asarray(parent, dtype=np.int64)
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=duration[has_parent],
        minlength=len(duration),
    )
    return duration - covered


def attribute(recorder: SpanRecorder) -> dict:
    """Self seconds per layer plus the unattributed remainder.

    Every recording thread contributes one timeline as long as the
    traced window; what no span covers on it is unattributed.  The
    layer self times and ``unattributed_s`` add up to timelines x wall
    time by construction; :func:`check_nesting` checks the spans behind
    them are laid out so that each part is real (no negative self time,
    no timeline covered beyond the window).
    """
    wall_s = recorder.wall_s
    name, start, end, parent, thread = recorder.columns()
    per_layer = {layer: 0.0 for layer in LAYERS + (OTHER,)}
    if len(name):
        own = self_times(start, end, parent)
        by_name = np.bincount(name, weights=own,
                              minlength=len(recorder.names))
        for nid, seconds in enumerate(by_name):
            per_layer[layer_of_span(recorder.names[nid])] += float(seconds)
    timelines = len(set(thread.tolist()))
    return {
        "self_s": per_layer,
        "timelines": timelines,
        "wall_s": wall_s,
        "unattributed_s": timelines * wall_s - sum(per_layer.values()),
    }


def check_nesting(recorder: SpanRecorder) -> dict:
    """Check the span layout that self-time attribution relies on.

    Returns ``{check: ok}``: every child lies inside its parent's
    interval (so no self time is negative); on every thread the root
    spans follow one another without overlap and lie inside the traced
    window (so a thread's root spans cover at most the window and its
    unattributed time is not negative).
    """
    name, start, end, parent, thread = recorder.columns()
    begin, finish = recorder.window
    slack = 1e-9
    has_parent = parent >= 0
    up = parent[has_parent]
    children_inside = bool(
        (start[has_parent] >= start[up] - slack).all()
        and (end[has_parent] <= end[up] + slack).all()
        and (end >= start).all()
    )
    roots_apart = roots_inside = True
    for t in np.unique(thread):
        roots = (thread == t) & ~has_parent
        order = np.argsort(start[roots], kind="stable")
        s, e = start[roots][order], end[roots][order]
        if len(s) and (s[0] < begin - slack or e.max() > finish + slack):
            roots_inside = False
        if (s[1:] < e[:-1] - slack).any():
            roots_apart = False
    return {
        "children_inside_parents": children_inside,
        "roots_do_not_overlap": roots_apart,
        "roots_inside_window": roots_inside,
    }


def durations(recorder: SpanRecorder, names, columns=None) -> list:
    """Durations (seconds) of every span whose name is in ``names``;
    ``columns`` may pass in :meth:`SpanRecorder.columns` already built."""
    wanted = [recorder._ids[n] for n in names if n in recorder._ids]
    if not wanted:
        return []
    name, start, end, _parent, _thread = (
        columns if columns is not None else recorder.columns())
    mask = np.isin(name, wanted)
    return (end[mask] - start[mask]).tolist()


# -- installation ----------------------------------------------------------------


def _count_offers(counts, args, result):
    counts["trader.offers_returned"] = (
        counts.get("trader.offers_returned", 0) + len(result)
    )


def _count_candidates(counts, args, result):
    counts["scheduler.candidates"] = (
        counts.get("scheduler.candidates", 0) + len(args[1])
    )


def _targets():
    """(class, method, layer, observe) for every traced method."""
    targets = [
        (EventLoop, "run_until", "sim", None),
        (Orb, "invoke", "orb", None),
        (Orb, "handle_request_bytes", "orb", None),
        (Orb, "handle_request_direct", "orb", None),
        (TradingService, "query", "trader", _count_offers),
        (TradingService, "modify", "trader", None),
        (TradingService, "patch", "trader", None),
        (TradingService, "modify_many", "trader", None),
        (MemoryCheckpointStore, "save", "checkpoint", None),
        (MemoryCheckpointStore, "load_latest", "checkpoint", None),
        (FileCheckpointStore, "save", "checkpoint", None),
        (FileCheckpointStore, "load_latest", "checkpoint", None),
        (EventJournal, "record", "obs", None),
    ]
    policy_classes = {SchedulingPolicy} | {type(p) for p in POLICIES.values()}
    for cls in sorted(policy_classes, key=lambda c: c.__name__):
        if "order" in vars(cls):
            targets.append((cls, "order", "scheduler", _count_candidates))
    # Servant operations of the GRM, LRM, GUPA and ParentGrm interfaces.
    for cls, interfaces, layer in (
        (Grm, (GRM_INTERFACE,), "grm"),
        (Lrm, (LRM_INTERFACE,), "lrm"),
        (Gupa, (GUPA_INTERFACE,), "prediction"),
        (ParentGrm, (PARENT_GRM_INTERFACE, GRM_INTERFACE), "hierarchy"),
    ):
        for interface in interfaces:
            for op in interface.operations:
                if callable(getattr(cls, op, None)):
                    targets.append((cls, op, layer, None))
    return targets


def install(recorder: SpanRecorder):
    """Wrap every traced boundary; returns a function that unwraps them.

    Wrappers only record while ``recorder.active`` is true, so objects
    built during an installed window keep working after it is undone.
    """
    undo = []

    def patch(owner, attr, replacement):
        had_own = attr in vars(owner)
        original = vars(owner)[attr] if had_own else getattr(owner, attr)
        setattr(owner, attr, replacement)
        undo.append((owner, attr, original, had_own))

    for cls, method, layer, observe in _targets():
        patch(cls, method, recorder.wrap(
            f"{layer}:{cls.__name__}.{method}", getattr(cls, method), observe
        ))
    patch(bsp_runtime, "run_bsp",
          recorder.wrap("bsp:run_bsp", bsp_runtime.run_bsp))

    schedule = EventLoop.schedule
    schedule_at = EventLoop.schedule_at
    every = EventLoop.every

    def traced_schedule(loop, delay, callback):
        return schedule(loop, delay, recorder.wrap_callback(callback))

    def traced_schedule_at(loop, when, callback):
        return schedule_at(loop, when, recorder.wrap_callback(callback))

    def traced_every(loop, interval, callback, start_after=None):
        return every(loop, interval, recorder.wrap_callback(callback),
                     start_after)

    patch(EventLoop, "schedule", traced_schedule)
    patch(EventLoop, "schedule_at", traced_schedule_at)
    patch(EventLoop, "every", traced_every)

    def uninstall():
        for owner, attr, original, had_own in reversed(undo):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        undo.clear()

    return uninstall
