"""Summary statistics the benchmark reports.

Timings follow one rule: report the median and the highest percentile
that still has at least ten samples beyond it, together with the sample
count, so a tail figure is never read off a handful of points.
"""

import math
import statistics

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile of ``samples`` (0 < p <= 100)."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n: int, wanted: float = 99.0) -> float:
    """The highest percentile <= ``wanted`` with >= MIN_BEYOND samples
    beyond it, or 50.0 when even the median has fewer beyond it."""
    for p in TAIL_PERCENTILES:
        if p > wanted:
            continue
        beyond = n - math.ceil(p / 100.0 * n)
        if beyond >= MIN_BEYOND:
            return p
    return 50.0


def timing_summary(samples, wanted: float = 99.0) -> dict:
    """Median and honest tail of a list of timings.

    Returns ``{"n", "p50", "tail_p", "tail"}``; ``tail_p`` is the
    percentile actually reported under the ``.p99`` name (lower when the
    sample is too small to resolve p99).
    """
    n = len(samples)
    if n == 0:
        return {"n": 0, "p50": 0.0, "tail_p": wanted, "tail": 0.0}
    tail_p = tail_percentile(n, wanted)
    return {
        "n": n,
        "p50": percentile(samples, 50.0),
        "tail_p": tail_p,
        "tail": percentile(samples, tail_p),
    }


class OpenLoopLog:
    """Lateness and latency accounting for an open-loop generator.

    Every operation has a *due* time fixed by the schedule before the
    run.  ``sent`` is when the generator actually issued it and ``done``
    when its reply arrived (None for oneways).  Latency is measured from
    the due time, so a stall is charged to every request it delays, not
    just to the one that hit it.
    """

    __slots__ = ("due", "sent", "done")

    def __init__(self):
        self.due: list = []
        self.sent: list = []
        self.done: list = []

    def record(self, due: float, sent: float, done=None) -> None:
        self.due.append(due)
        self.sent.append(sent)
        self.done.append(done)

    def lateness(self) -> list:
        """Seconds each operation was issued after its due time."""
        return [max(0.0, s - d) for d, s in zip(self.due, self.sent)]

    def latencies(self) -> list:
        """Due-to-reply seconds of every two-way operation."""
        return [
            done - due
            for due, done in zip(self.due, self.done)
            if done is not None
        ]

    def backlog_growing(self, limit_s: float) -> bool:
        """True when the generator fell further behind than ``limit_s``
        by the end of the schedule (the queue did not drain)."""
        if not self.due:
            return False
        tail = max(1, len(self.due) // 10)
        late = self.lateness()[-tail:]
        return statistics.median(late) > limit_s
