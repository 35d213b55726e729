"""Host-time measurement that repeats on a shared host.

Two pieces, both standard library only (this module is imported before
``repro`` so that the import itself can be timed):

:class:`Recorder` marks the *timed regions* of a repetition (the clock
is ``time.perf_counter`` around the public entry call only, after a
``gc.collect()``) and the untimed *preparation* that is charged to
``setup_s``.

:class:`SpeedProbe` measures how fast the host is *while* a region runs.
On the 2-vCPU shared VM this benchmark was written on, the same
deterministic single-threaded repetition took 0.52-1.16 s depending on
what the neighbours were doing, in episodes lasting from milliseconds to
a minute; quartiles of raw wall-clock repetitions therefore moved 11-18 %
between processes.  The probe interleaves a tiny frozen reference kernel
with the program under test — a ``SIGALRM`` handler every 5 ms runs and
times ~25 us of pure-Python dict work — and a region's cost is its wall
time divided by the host's speed factor over exactly that interval
(trimmed-mean reference time / :data:`REF_NOMINAL_S`).  The same
repetitions normalised this way spread 4-7 % (README, "Timing rule").  The
handler costs ~0.5 % and is identical on both sides of any A/B.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from contextlib import contextmanager
from typing import Iterator

#: Reference-kernel time at this host class's usual speed.  Only a unit
#: scale (it cancels in every ratio of two runs): it makes normalised
#: seconds read like seconds here.
REF_NOMINAL_S = 25e-6
PROBE_INTERVAL_S = 0.005
#: A region shorter than a few probe periods borrows its neighbours.
MIN_SAMPLES = 8
_TRIM = 0.1

_pc = time.perf_counter


def _reference_kernel() -> int:
    """Frozen pure-Python work, L1-resident (~25 us).  Never edit: every
    stored result is expressed in multiples of this function's time."""
    table: dict[int, int] = {}
    total = 0
    for i in range(150):
        table[i & 31] = i
        key = (i * 7) & 31
        total += table[key] if key in table else 0
    return total


def trimmed_mean(values: list[float], trim: float = _TRIM) -> float:
    ordered = sorted(values)
    cut = int(len(ordered) * trim)
    kept = ordered[cut:len(ordered) - cut] or ordered
    return sum(kept) / len(kept)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile); one value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    lower, median, upper = statistics.quantiles(values, n=4)
    return lower, median, upper


class SpeedProbe:
    """Samples the host's speed with a timer-driven reference kernel."""

    def __init__(self, interval_s: float = PROBE_INTERVAL_S):
        self.interval_s = interval_s
        self._times: list[float] = []
        self._durations: list[float] = []
        self._previous = None
        self.running = False

    def _on_alarm(self, _signum, _frame) -> None:
        start = _pc()
        _reference_kernel()
        end = _pc()
        self._times.append(start)
        self._durations.append(end - start)

    def start(self) -> None:
        if self.running:
            return
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s,
                         self.interval_s)
        self.running = True

    def stop(self) -> None:
        if not self.running:
            return
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._previous = None
        self.running = False

    @property
    def samples(self) -> int:
        return len(self._times)

    def speed(self, start: float, end: float) -> float:
        """Host slowdown factor over ``[start, end]`` (1.0 = nominal).

        With no samples at all (probe never started) the factor is 1.0,
        so costs degrade to plain wall-clock seconds.
        """
        times = self._times
        if not times:
            return 1.0
        lo = bisect.bisect_left(times, start)
        hi = bisect.bisect_right(times, end)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(times)):
            if lo > 0:
                lo -= 1
            if hi < len(times):
                hi += 1
        return trimmed_mean(self._durations[lo:hi]) / REF_NOMINAL_S

    def cost(self, start: float, end: float) -> float:
        """Wall seconds of ``[start, end]`` at the host's nominal speed."""
        return (end - start) / self.speed(start, end)


class Recorder:
    """Interval log of one repetition: timed regions and preparation."""

    def __init__(self, profiler=None):
        #: ``(kind, name, start, end)`` with kind "timed" or "prep".
        self.intervals: list[tuple[str, str, float, float]] = []
        self._profiler = profiler

    @contextmanager
    def timed(self, name: str) -> Iterator[None]:
        """A timed region: collect garbage, then clock the body."""
        gc.collect()
        profiler = self._profiler
        if profiler is not None:
            profiler.enable()
        start = _pc()
        try:
            yield
        finally:
            end = _pc()
            if profiler is not None:
                profiler.disable()
            self.intervals.append(("timed", name, start, end))

    @contextmanager
    def prep(self) -> Iterator[None]:
        """Untimed input preparation; charged to ``setup_s``."""
        start = _pc()
        try:
            yield
        finally:
            self.intervals.append(("prep", "prep", start, _pc()))

    def of_kind(self, kind: str) -> list[tuple[str, float, float]]:
        return [(name, start, end)
                for k, name, start, end in self.intervals if k == kind]

    def wall(self) -> float:
        """Raw seconds inside the timed regions."""
        return sum(end - start for _, start, end in self.of_kind("timed"))

    def region_costs(self, probe: SpeedProbe) -> dict[str, float]:
        """Normalised cost per timed region name (names repeat → summed)."""
        costs: dict[str, float] = {}
        for name, start, end in self.of_kind("timed"):
            costs[name] = costs.get(name, 0.0) + probe.cost(start, end)
        return costs

    def prep_cost(self, probe: SpeedProbe) -> float:
        return sum(probe.cost(start, end)
                   for _, start, end in self.of_kind("prep"))
