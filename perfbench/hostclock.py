"""Program time scaled to a reference host speed.

The benchmark runs on shared virtual machines whose CPU speed moves by
tens of percent within seconds, as neighbours come and go.  Each
virtual CPU moves on its own, so a probe on another core tells nothing
about this one, but a probe interleaved on the same thread tracks the
program closely.

:class:`HostClock` therefore times the program in *laps* -- stretches
of a few tens of milliseconds that end at natural points of the
benchmark's own driver loop (every few nodes added, every simulated
minute) -- and runs one short calibration sample after each lap.  The
calibration is fixed code that never touches the program, so a change
to the program moves the laps and not the samples.  Each group of
:data:`GROUP` consecutive laps is scaled by ``REFERENCE_SAMPLE_S`` over
the group's mean sample time; the sum is the program's time on a host
whose calibration sample takes exactly ``REFERENCE_SAMPLE_S``.

Work bound by round trips between processes rather than by the
interpreter slows differently; a clock timing it can take another
sample, with its own reference time (see :mod:`perfbench.wire`).
"""

import random
from time import perf_counter

#: Seconds one calibration sample takes on the reference host.  A
#: nominal figure: on the 2.0 GHz Xeon virtual CPU the benchmark was
#: built on, under CPython 3.11, a sample took 0.9-2.2 ms depending on
#: what the neighbours were doing.
REFERENCE_SAMPLE_S = 2.0e-3

#: Consecutive laps scaled by one mean sample.
GROUP = 10


class _Record:
    __slots__ = ("key", "weight", "label")

    def __init__(self, key: int, weight: float, label: str):
        self.key = key
        self.weight = weight
        self.label = label

    def score(self, factor: float) -> float:
        return self.weight * factor + self.key


_RNG = random.Random(20030601)
_POOL = [_Record(i, _RNG.random(), str(i)) for i in range(20_000)]
_INDEX = [_RNG.randrange(len(_POOL)) for _ in range(3_000)]


def calibration_sample() -> float:
    """Run the fixed calibration work once; returns its wall seconds.

    Dictionary updates and lookups, attribute reads and method calls
    over a 2 MB pool of objects: the kind of interpreter work the
    program does.  It allocates no garbage-collected objects, so it
    never triggers a collection the program would otherwise have paid.
    """
    started = perf_counter()
    table = {}
    total = 0
    for i in range(4_000):
        table[i & 255] = i
        total += table.get(i & 127, 0) % 7
    pool = _POOL
    score = 0.0
    for i in _INDEX:
        record = pool[i]
        score += record.score(0.5) + len(record.label)
    elapsed = perf_counter() - started
    if total < 0 or score < 0:          # keeps the work observable
        raise AssertionError("calibration sample went wrong")
    return elapsed


class HostClock:
    """Times program work in laps, calibrating the host after each lap.

    ``raw_s`` is the laps' wall time (the calibration samples excluded);
    ``reference_s`` the same work in reference-host seconds, by
    ``sample`` (a callable returning the seconds it took) and the
    seconds it takes on the reference host.  With ``calibrate=False``
    (traced runs) no samples run and both are the raw time.
    """

    def __init__(self, calibrate: bool = True, sample=calibration_sample,
                 reference_s: float = REFERENCE_SAMPLE_S):
        self.calibrate = calibrate
        self.sample = sample
        self.reference_sample_s = reference_s
        self.laps: list = []
        self.samples: list = []
        self._lap_started = None

    def start(self) -> None:
        self._lap_started = perf_counter()

    def lap(self) -> None:
        """End the running lap, calibrate, and start the next one."""
        ended = perf_counter()
        self.laps.append(ended - self._lap_started)
        if self.calibrate:
            self.samples.append(self.sample())
        self._lap_started = perf_counter()

    def stop(self) -> None:
        """End the last lap; the clock is then read, not run."""
        self.lap()
        self._lap_started = None

    @property
    def raw_s(self) -> float:
        return sum(self.laps)

    @property
    def reference_s(self) -> float:
        if not self.calibrate:
            return self.raw_s
        return reference_seconds(self.laps, self.samples,
                                 reference_s=self.reference_sample_s)


def reference_seconds(laps, samples, group: int = GROUP,
                      reference_s: float = REFERENCE_SAMPLE_S) -> float:
    """Scale each group of ``group`` laps by the reference sample time
    over the group's mean sample time, and add the groups up."""
    total = 0.0
    for i in range(0, len(laps), group):
        lap_s = laps[i:i + group]
        sample_s = samples[i:i + group]
        total += sum(lap_s) * reference_s * len(sample_s) / sum(sample_s)
    return total
