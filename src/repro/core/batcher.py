"""Generic GPU work batcher.

Workers submit items and block on a per-item event; a dispatcher process
accumulates items into batches (up to ``batch_size``, waiting at most
``max_wait_s`` past the first item), runs one kernel launch per batch
through the device's command queue, and fans the per-item results back
out.  Batching exists to amortise per-item overhead, and the model pays
in kind: a submit is a list append, the dispatcher wakes once per batch
(when it fills, or at its one deadline), and a finished launch resumes
its waiters behind one calendar entry (DESIGN.md §7).

This is the machinery behind both GPU paths: index-lookup batches (small,
latency-sensitive) and compression batches (large, occupancy-hungry).
The paper's launch-overhead argument lives here — with tiny batches, the
fixed launch cost dominates every item's latency.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Generator, Optional, Sequence

from repro.errors import ConfigError
from repro.gpu.device import GpuDevice
from repro.gpu.kernel import Kernel
from repro.obs.tracer import SimTracer
from repro.sim import Environment, Event, Timeout


class GpuBatcher:
    """Batches submitted items into kernel launches.

    ``make_kernel(items)`` builds the launch; ``split_results(items,
    result)`` must return one result per item, in order.
    """

    def __init__(self, env: Environment, gpu: GpuDevice,
                 make_kernel: Callable[[list[Any]], Kernel],
                 split_results: Callable[[list[Any], Any], Sequence[Any]],
                 batch_size: int, max_wait_s: float,
                 name: str = "batcher",
                 tracer: Optional[SimTracer] = None,
                 stage: Optional[str] = None):
        if batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
        if max_wait_s < 0:
            raise ConfigError(f"negative max_wait_s {max_wait_s}")
        self.env = env
        self.gpu = gpu
        self.make_kernel = make_kernel
        self.split_results = split_results
        self.batch_size = batch_size
        self.max_wait_s = max_wait_s
        self.name = name
        self.tracer = tracer
        #: Stage name recorded per item when tracing (e.g. "gpu_index").
        self.stage = stage
        #: Submitted entries the dispatcher has not taken yet.
        self._backlog: deque[tuple] = deque()
        #: The batch under collection while submits may still join it.
        self._open: Optional[list[tuple]] = None
        #: Pending while the dispatcher is parked (idle, or collecting).
        self._wake: Optional[Event] = None
        #: Batches opened for collection; tells a deadline whose batch
        #: already launched from the one it was armed for.
        self._generation = 0
        self._running = True
        self.batches_launched = 0
        self.items_processed = 0
        #: Dispatcher resumes from a park, and how many of them were a
        #: batch deadline expiring rather than a submit.
        self.wakeups = 0
        self.deadline_fires = 0
        #: Launch-size histogram: items-per-launch -> launch count.
        #: Under-filled launches are the paper's launch-overhead tax;
        #: this makes them measurable instead of inferred.
        self.fill_counts: dict[int, int] = {}
        env.register_finishable(self)
        env.process(self._dispatch_loop())

    def submit(self, item: Any, trace_id: Optional[int] = None) -> Event:
        """Offer one item; the returned event fires with its result.

        ``trace_id`` tags the item's trace span (its chunk id) when
        tracing is on.
        """
        done = Event(self.env)
        entry = (item, done, self.env.now, trace_id)
        batch = self._open
        if batch is None:
            self._backlog.append(entry)
            if self._wake is not None:  # parked idle
                self._wake_dispatcher()
        else:
            batch.append(entry)
            if len(batch) == self.batch_size:
                self._open = None
                self._wake_dispatcher()
        return done

    def fill_summary(self) -> dict[str, float]:
        """Batch fill statistics: how full launches actually were.

        ``mean_fill``/``p50_fill`` are items per launch; ``fill_fraction``
        is the mean as a fraction of the configured ``batch_size`` (1.0 =
        every launch full, low values = the fixed launch overhead is
        being paid for mostly-empty batches).
        """
        counts = self.fill_counts
        launches = sum(counts.values())
        if not launches:
            return {"batches": 0, "batch_size": float(self.batch_size),
                    "mean_fill": 0.0, "p50_fill": 0.0,
                    "fill_fraction": 0.0}
        total = sum(size * n for size, n in sorted(counts.items()))
        half = (launches + 1) // 2
        cumulative = 0
        p50 = 0
        for size in sorted(counts):
            cumulative += counts[size]
            if cumulative >= half:
                p50 = size
                break
        mean = total / launches
        return {"batches": float(launches),
                "batch_size": float(self.batch_size),
                "mean_fill": mean, "p50_fill": float(p50),
                "fill_fraction": mean / self.batch_size}

    def stop(self) -> None:
        """Ask the dispatcher to exit once the backlog drains.

        A batch under collection still finishes its window (fills or
        reaches its deadline) and launches first.
        """
        self._running = False
        if self._open is None:
            self._wake_dispatcher()

    def finish_violations(self) -> list[str]:
        """A dispatcher still parked at end of run (``finish_check``)."""
        if self._wake is None:
            return []
        waiting = len(self._backlog) + len(self._open or ())
        return [f"batcher `{self.name}`: dispatcher still parked with "
                f"{waiting} item(s) unlaunched (stop() never called)"]

    # -- dispatcher ------------------------------------------------------------

    def _wake_dispatcher(self) -> None:
        wake, self._wake = self._wake, None
        if wake is not None:
            wake.succeed()

    def _deadline(self, timer: Event) -> None:
        if timer.value == self._generation and self._open is not None:
            self.deadline_fires += 1
            self._open = None
            self._wake_dispatcher()

    def _dispatch_loop(self) -> Generator:
        env = self.env
        backlog = self._backlog
        while True:
            if not backlog:
                if not self._running:
                    return
                self._wake = env.event()
                yield self._wake
                self.wakeups += 1
                continue
            # The dispatcher takes the batch's first item: its window
            # runs from this instant, not from the item's submit.
            batch = [backlog.popleft()]
            if self.max_wait_s > 0:
                while backlog and len(batch) < self.batch_size:
                    batch.append(backlog.popleft())
                if len(batch) < self.batch_size:
                    self._open = batch
                    self._generation += 1
                    Timeout(env, self.max_wait_s, self._generation) \
                        .callbacks.append(self._deadline)
                    self._wake = env.event()
                    yield self._wake
                    self.wakeups += 1
            yield from self._launch(batch)

    def _launch(self, batch: list[tuple]) -> Generator:
        items = [entry[0] for entry in batch]
        kernel = self.make_kernel(items)
        raw = yield from self.gpu.launch(kernel)
        results = self.split_results(items, raw)
        if len(results) != len(items):
            raise ConfigError(
                f"{self.name}: split_results returned {len(results)} "
                f"results for {len(items)} items")
        self.batches_launched += 1
        self.items_processed += len(items)
        self.fill_counts[len(items)] = \
            self.fill_counts.get(len(items), 0) + 1
        if self.tracer is not None and self.stage is not None:
            # One span per item: submit -> launch completion.  Batching
            # delay and command-queue wait both count as queue wait; the
            # kernel's own run time is the service share.
            record = self.gpu.launches[-1]
            for _item, _done, submitted, trace_id in batch:
                self.tracer.record(
                    self.stage, trace_id, start=submitted,
                    end=record.end_time,
                    queue_wait=max(0.0, record.start_time - submitted),
                    resource=self.name,
                    attrs={"batch": len(items), "kernel": record.name})
        self.env.succeed_all([entry[1] for entry in batch], results)
