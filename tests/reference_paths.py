"""Reference paths and oracles outside the codecs.

Like ``reference_codecs.py``: the slow, obviously-correct way to
compute something production computes fast, kept as an executable
specification for the equivalence suites.  Nothing under ``src/``
imports this.

* :class:`NaiveLocalityEstimator` — the O(window) scan the tenancy
  plane's ring sketch must match float-for-float
  (``test_tenancy_equivalence``);
* :func:`bin_ids_per_chunk` / :func:`route_per_chunk` — the per-chunk
  loops the cluster's mask router replaced
  (``test_cluster_equivalence``);
* :func:`report_digest` / :func:`report_digests` — the canonical
  report sha256 the pinned ``GOLDEN_REPORT_SHA256`` table is compared
  against (``test_pipeline_identity``, ``test_goldens``);
* :class:`Store`, :class:`ReferenceGpuBatcher`,
  :class:`ReferenceCharge`, :func:`reference_spawn_destage` and
  :func:`reference_wiring` — the event-per-step formulations the
  pipeline ran on before a batch became one wake-up and a timed hold
  one calendar entry (``test_schedule_equivalence``): an inbox
  ``Store`` with one put, one get, one ``AnyOf`` and one deadline
  timeout per item and one ``succeed()`` per waiter; a charge as a
  queued request whose grant starts a timeout; a destage write as a
  process around ``SsdModel.submit``;
* :class:`PreallocatedGpuBins` — the GPU bin index with every bin
  zero-filled at ``bin_capacity`` from its first entry, one insert at
  a time, lanes cut per fingerprint: what ``GpuBinIndex``'s growing
  host arrays must stay indistinguishable from
  (``test_gpu_index_growth``);
* :func:`_extend_random` — ``rng.randrange(256)`` unrolled to its 9-bit
  rejection loop, the per-byte generator ``make_block`` ran on before it
  classified a pooled draw at once (``test_workload``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import random
from collections import deque
from typing import Any, Generator

import numpy as np

from repro.chunkbatch import ChunkBatch
from repro.cluster import RoutedWindow, ShardMap
from repro.core.calibration import run_mode
from repro.core.modes import IntegrationMode
from repro.core.batcher import GpuBatcher
from repro.core.pipeline import ReductionPipeline
from repro.cpu.model import SimCpu
from repro.errors import ConfigError, ResourceError
from repro.obs.stages import STAGE_DESTAGE, TRACK_DESTAGE
from repro.sim import Event, Request, Timeout
from repro.storage.block import BlockRequest, RequestKind


def _extend_random(out: bytearray, rng: random.Random, count: int) -> None:
    """Append ``count`` uniform bytes: ``rng.randrange(256)`` unrolled.

    ``Random._randbelow(256)`` draws ``(256).bit_length() == 9`` bits and
    rejects values >= 256; doing that directly skips two Python frames
    per byte and yields the same bytes *and* the same generator state
    (``tests/test_workload.py`` holds it to both on every CI Python).
    """
    getrandbits = rng.getrandbits
    append = out.append
    for _ in range(count):
        byte = getrandbits(9)
        while byte >= 256:
            byte = getrandbits(9)
        append(byte)


class NaiveLocalityEstimator:
    """Reference estimator: linear scan of the last ``window`` entries.

    Observably identical to :class:`LocalityEstimator` (same hits, same
    EWMA arithmetic); per-observation cost is O(window).
    """

    __slots__ = ("window", "observed", "hits", "_alpha", "_estimate",
                 "_recent")

    def __init__(self, window: int):
        if window < 1:
            raise ConfigError(f"invalid locality window {window}")
        self.window = window
        self.observed = 0
        self.hits = 0
        self._alpha = 2.0 / (window + 1.0)
        self._estimate = 0.0
        self._recent: list[bytes] = []

    @property
    def estimate(self) -> float:
        """Current EWMA duplicate-locality estimate in [0, 1]."""
        return self._estimate

    def observe(self, fingerprint: bytes) -> bool:
        """Record one fingerprint; True when it hit the window."""
        recent = self._recent
        hit = False
        for entry in recent:
            if entry == fingerprint:
                hit = True
                break
        if len(recent) >= self.window:
            recent.pop(0)
        recent.append(fingerprint)
        self.observed += 1
        if hit:
            self.hits += 1
            self._estimate += self._alpha * (1.0 - self._estimate)
        else:
            self._estimate -= self._alpha * self._estimate
        return hit


class PreallocatedGpuBins:
    """``GpuBinIndex``'s install and table contract, preallocated.

    ``table_view()`` is the kernels' plain ``{bin: (lo, hi, count)}``:
    ``count`` as of the call, the arrays live — they are never
    replaced, so a kernel built before an eviction sees it.
    """

    def __init__(self, prefix_bytes: int, bin_capacity: int, policy):
        self.prefix_bytes = prefix_bytes
        self.bin_capacity = bin_capacity
        self.policy = policy
        self.bins: dict[int, list] = {}
        self.evictions = 0

    def insert(self, fingerprint: bytes) -> int:
        bin_id = int.from_bytes(fingerprint[:self.prefix_bytes], "big")
        suffix = fingerprint[self.prefix_bytes:]
        entry = self.bins.setdefault(bin_id, [
            np.zeros(self.bin_capacity, dtype=np.uint64),
            np.zeros(self.bin_capacity, dtype=np.uint64), 0])
        if entry[2] < self.bin_capacity:
            slot = entry[2]
            entry[2] += 1
        else:
            slot = self.policy.choose_victim(bin_id, self.bin_capacity)
            self.evictions += 1
        entry[0][slot] = int.from_bytes(suffix[:8], "big")
        entry[1][slot] = int.from_bytes(suffix[8:16], "big")
        self.policy.on_insert(bin_id, slot)
        return slot

    def record_results(self, fingerprints: list[bytes], slots) -> None:
        for fingerprint, slot in zip(fingerprints, slots):
            if slot >= 0:
                self.policy.on_hit(
                    int.from_bytes(fingerprint[:self.prefix_bytes], "big"),
                    int(slot))

    def table_view(self) -> dict[int, tuple[np.ndarray, np.ndarray, int]]:
        return {bin_id: (lo, hi, count)
                for bin_id, (lo, hi, count) in self.bins.items()}

    def __len__(self) -> int:
        return sum(count for _lo, _hi, count in self.bins.values())


def bin_ids_per_chunk(fingerprints: list[bytes],
                      prefix_bytes: int) -> list[int]:
    """The per-chunk bin fold ``ClusterRouter.bin_ids`` replaced."""
    return [int.from_bytes(fp[:prefix_bytes], "big")
            for fp in fingerprints]


def route_per_chunk(batch: ChunkBatch,
                    shard_map: ShardMap) -> list[RoutedWindow]:
    """The per-chunk reference router ``ClusterRouter.split``
    replaced: one python loop over the window, appending each chunk's
    columns to its shard's lists."""
    columns: dict[int, list[list]] = {}
    for index, fingerprint in enumerate(batch.fingerprints):
        bin_id = int.from_bytes(
            fingerprint[:shard_map.prefix_bytes], "big")
        shard = shard_map.shard_of(bin_id)
        rows = columns.setdefault(shard, [[], [], [], [], []])
        rows[0].append(int(batch.offsets[index]))
        rows[1].append(int(batch.sizes[index]))
        rows[2].append(batch.payloads[index]
                       if batch.payloads is not None else None)
        rows[3].append(fingerprint)
        rows[4].append(float(batch.comp_ratios[index]))
    windows = []
    for shard in sorted(columns):
        rows = columns[shard]
        windows.append(RoutedWindow(
            shard=shard,
            offsets=np.asarray(rows[0], dtype=np.int64),
            sizes=np.asarray(rows[1], dtype=np.int64),
            payloads=rows[2],
            fingerprints=rows[3],
            comp_ratios=np.asarray(rows[4], dtype=np.float64)))
    return windows


def report_digest(report) -> str:
    """sha256 of the canonical (sorted-key) JSON of one pipeline report."""
    canonical = json.dumps(dataclasses.asdict(report), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def report_digests(chunks: int) -> dict[str, str]:
    """:func:`report_digest` of every mode's ``run_mode`` report."""
    return {mode.value: report_digest(run_mode(mode, chunks))
            for mode in IntegrationMode.all_modes()}


# -- the event-per-step engine paths (test_schedule_equivalence) -----------


class StorePut(Event):
    __slots__ = ("item", "_store")

    def __init__(self, store: "Store", item: Any):
        super().__init__(store.env)
        self.item = item
        self._store = store
        store._put_queue.append(self)
        store._dispatch()


class StoreGet(Event):
    __slots__ = ("_store",)

    def __init__(self, store: "Store"):
        super().__init__(store.env)
        self._store = store
        store._get_queue.append(self)
        store._dispatch()

    def cancel(self) -> None:
        """Stop waiting for an item (get-with-timeout patterns)."""
        if not self.triggered:
            try:
                self._store._get_queue.remove(self)
            except ValueError:
                pass


class Store:
    """A FIFO item queue with optional capacity: the reference batcher's
    inbox (it lived in ``repro.sim`` while the batcher was built on it)."""

    __slots__ = ("env", "capacity", "name", "items", "_put_queue",
                 "_get_queue", "peak_items")

    def __init__(self, env, capacity: float = float("inf"),
                 name: str = "store"):
        if capacity <= 0:
            raise ResourceError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self.items: deque[Any] = deque()
        self._put_queue: deque[StorePut] = deque()
        self._get_queue: deque[StoreGet] = deque()
        self.peak_items = 0
        env.register_finishable(self)

    def put(self, item: Any) -> StorePut:
        """Offer ``item``; the event fires once the store has room."""
        return StorePut(self, item)

    def get(self) -> StoreGet:
        """Take the oldest item; the event fires once one is available."""
        return StoreGet(self)

    @property
    def level(self) -> int:
        return len(self.items)

    def finish_violations(self) -> list[str]:
        """Parked waiters at end of run (buffered items are legitimate)."""
        out: list[str] = []
        if self._put_queue:
            out.append(f"store `{self.name}`: {len(self._put_queue)} "
                       f"put(s) never accepted")
        if self._get_queue:
            out.append(f"store `{self.name}`: {len(self._get_queue)} "
                       f"get(s) never satisfied")
        return out

    def _dispatch(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            while self._put_queue and len(self.items) < self.capacity:
                put = self._put_queue.popleft()
                self.items.append(put.item)
                self.peak_items = max(self.peak_items, len(self.items))
                put.succeed()
                progressed = True
            while self._get_queue and self.items:
                get = self._get_queue.popleft()
                get.succeed(self.items.popleft())
                progressed = True


class ReferenceGpuBatcher(GpuBatcher):
    """The Store + ``AnyOf`` batcher: five calendar entries per item
    (put, get, condition, deadline timeout, per-item completion)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Safe after the base started the dispatcher: its first segment
        # runs behind an Initialize entry, not inside the constructor.
        self._inbox = Store(self.env, name=f"{self.name}-inbox")

    def submit(self, item, trace_id=None) -> Event:
        done = self.env.event()
        self._inbox.put((item, done, self.env.now, trace_id))
        return done

    def stop(self) -> None:
        self._running = False
        # A sentinel wakes the dispatcher if it is idle.
        self._inbox.put(None)

    def _dispatch_loop(self) -> Generator:
        while True:
            first = yield self._inbox.get()
            if first is None:
                if not self._running and self._inbox.level == 0:
                    return
                continue
            batch = [first]
            deadline = self.env.now + self.max_wait_s
            while len(batch) < self.batch_size:
                remaining = deadline - self.env.now
                if remaining <= 0:
                    break
                get = self._inbox.get()
                timeout = self.env.timeout(remaining)
                yield self.env.any_of([get, timeout])
                if get.triggered:
                    if get.value is None:
                        continue  # stop sentinel; drain what we have
                    batch.append(get.value)
                else:
                    get.cancel()
                    break
            yield from self._launch(batch)
            if not self._running and self._inbox.level == 0:
                return

    def _launch(self, batch: list[tuple]) -> Generator:
        items = [entry[0] for entry in batch]
        kernel = self.make_kernel(items)
        raw = yield from self.gpu.launch(kernel, priority=self.priority)
        results = self.split_results(items, raw)
        self.batches_launched += 1
        self.items_processed += len(items)
        self.fill_counts[len(items)] = \
            self.fill_counts.get(len(items), 0) + 1
        if self.tracer.enabled and self.stage is not None:
            record = self.gpu.launches[-1]
            for _item, _done, submitted, trace_id in batch:
                self.tracer.record(
                    self.stage, trace_id, start=submitted,
                    end=record.end_time,
                    queue_wait=max(0.0, record.start_time - submitted),
                    resource=self.name,
                    attrs={"batch": len(items), "kernel": record.name})
        for entry, result in zip(batch, results):
            entry[1].succeed(result)


class ReferenceCharge(Request):
    """A CPU charge as request-then-timeout: the queued claim's grant
    starts the timed hold; its expiry releases the listed slot and then
    resumes the charging process."""

    __slots__ = ("_delay",)

    def __init__(self, resource, delay: float):
        self._delay = delay
        super().__init__(resource)

    def _grant(self) -> None:
        self.resource.users.append(self)
        self.granted = True
        Timeout(self.env, self._delay).callbacks.append(self._finished)

    def _finished(self, _timeout: Event) -> None:
        self.resource.release(self)
        self._trigger_now(self)


def reference_charge(cpu: SimCpu, cycles: float) -> Event:
    """``SimCpu.charge`` over :class:`ReferenceCharge`."""
    delay = cpu.seconds(cycles)
    cpu.cycles_charged += cycles
    return ReferenceCharge(cpu.threads, delay)


def reference_spawn_destage(pipeline: ReductionPipeline, nbytes: int,
                            sequential: bool) -> None:
    """``ReductionPipeline._spawn_destage`` as one process per write."""
    pipeline.destage_batches += 1
    pipeline.destage_bytes += nbytes
    if nbytes <= 0:
        return

    def destage() -> Generator:
        with pipeline.tracer.span(STAGE_DESTAGE, resource=TRACK_DESTAGE,
                                  bytes=nbytes, sequential=sequential):
            yield from pipeline.ssd.submit(BlockRequest(
                RequestKind.WRITE, 0, nbytes, sequential=sequential))

    pipeline.env.process(destage())


@contextlib.contextmanager
def reference_wiring(monkeypatch):
    """Run pipelines on the reference batcher, charge and destage."""
    with monkeypatch.context() as patch:
        patch.setattr("repro.core.pipeline.GpuBatcher", ReferenceGpuBatcher)
        patch.setattr(SimCpu, "charge", reference_charge)
        patch.setattr(ReductionPipeline, "_spawn_destage",
                      reference_spawn_destage)
        yield
