"""Reference paths and oracles outside the codecs.

Like ``reference_codecs.py``: the slow, obviously-correct way to
compute something production computes fast, kept as an executable
specification for the equivalence suites.  Nothing under ``src/``
imports this.

* :class:`NaiveLocalityEstimator` — the O(window) scan the tenancy
  plane's ring sketch must match float-for-float
  (``test_tenancy_equivalence``);
* :func:`report_digest` / :func:`report_digests` — the canonical
  report sha256 the pinned ``GOLDEN_REPORT_SHA256`` table is compared
  against (``test_pipeline_identity``, ``test_goldens``);
* :class:`Store`, :class:`ReferenceGpuBatcher`,
  :class:`ReferenceCharge`, :func:`reference_writeback_submit` and
  :func:`reference_wiring` — the event-per-step formulations the
  pipeline ran on before a batch became one wake-up and a timed hold
  one calendar entry (``test_schedule_equivalence``): an inbox
  ``Store`` with one put, one get, one :class:`AnyOf` and one deadline
  timeout per item and one ``succeed()`` per waiter; a charge as a
  queued request whose grant starts a timeout; a destage write as a
  process that requests a channel, times out and books the write;
* :func:`reference_ssd_serve` — any SSD request as that process, on
  a channel ``Resource`` the oracle owns: the FIFO schedule the SSD's
  channel ledger books at submit must equal instant for instant
  (``test_schedule_equivalence``, ``test_event_cycles``);
* :class:`PreallocatedGpuBins` — the GPU bin index with every bin
  zero-filled at ``bin_capacity`` from its first entry, one insert at
  a time, lanes cut per fingerprint: what ``GpuBinIndex``'s growing
  host arrays must stay indistinguishable from
  (``test_gpu_index_growth``);
* :func:`install_runs` — full fingerprints installed into a
  ``GpuBinIndex`` as one ``install_views`` run per consecutive bin,
  the mixed-bin flush the dedup engine never issues
  (``test_dedup_fastpath``, ``test_gpu_index_growth``);
* :func:`btree_items` / :func:`check_btree` — an in-order walk of a
  ``BTree`` and its structural invariants (fill bounds, sorted keys,
  separators, equal leaf depth), the oracle the tree's property tests
  check after every split (``test_dedup_index``,
  ``test_dedup_fastpath``);
* :class:`ReferenceIndex` — a dict keyed by the whole fingerprint, the
  ground truth the bin table and GPU bins must agree with
  (``test_dedup_index``);
* :func:`lookup_batch` builds a kernel batch from query triples;
  :func:`reference_bin_lookup` — one query at a time, the first slot of
  its bin holding its lanes: the answer both lookup kernels' grouped
  broadcast compare must give (``test_gpu_kernels``,
  ``test_gpu_tiled_kernel``, ``test_dedup_index``);
* :func:`_extend_random` — ``rng.randrange(256)`` unrolled to its 9-bit
  rejection loop, the per-byte generator ``make_block`` ran on before it
  classified a pooled draw at once (``test_workload``);
* :class:`ReferenceVdbenchStream`, :class:`ReferenceTenantMixStream` and
  :func:`reference_fingerprint` — the workload streams and the hashing
  stage one chunk at a time, which the windowed ``next_batch`` /
  ``chunks`` and ``fingerprint_window`` must equal element-wise
  (``test_batched_equivalence``, ``test_tenancy_equivalence``);
* :class:`ReferenceMetadataStore` — the chunk table as one mutable
  record object per stored chunk in a dict keyed by physical id, which
  the columnar ``MetadataStore`` must equal accessor for accessor and
  view for view (``test_storage``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import random
import weakref
from collections import deque
from typing import Any, Generator, Optional

import numpy as np

from repro.core.calibration import run_mode
from repro.core.modes import IntegrationMode
from repro.core.batcher import GpuBatcher
from repro.cpu.model import SimCpu
from repro.dedup.index_base import check_fingerprint
from repro.errors import ConfigError, ResourceError
from repro.errors import DedupError, MetadataError
from repro.gpu.kernels.indexing import LookupBatch
from repro.obs.stages import (STAGE_DESTAGE, STAGE_SSD_READ, STAGE_SSD_WRITE,
                              TRACK_DESTAGE, TRACK_SSD)
from repro.sim import Event, Request, Resource, Timeout
from repro.sim.engine import _Condition
from repro.storage.block import BlockRequest, RequestKind
from repro.storage.ssd import SsdModel
from repro.storage.writeback import WriteBack
from repro.tenancy.spec import TENANT_ADDRESS_STRIDE
from repro.types import Chunk, DEFAULT_CHUNK_SIZE
from repro.workload.datagen import BlockContentGenerator, \
    analytic_random_fraction
from repro.workload.vdbench import StreamStats


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


class ReferenceVdbenchStream:
    """``VdbenchStream`` one chunk at a time.

    Each chunk draws its dup coin, then either its locality coin and
    duplicate pick or its new unique's ratio, and derives its
    fingerprint (descriptor mode) or regenerates its payload (payload
    mode) from the unique id on the spot — no caches, no windows.
    """

    def __init__(self, dedup_ratio: float = 2.0, comp_ratio: float = 2.0,
                 chunk_size: int = DEFAULT_CHUNK_SIZE, *, seed: int,
                 payload: bool = False, comp_spread: float = 0.15,
                 locality: float = 0.5, working_set: int = 128,
                 offset_base: int = 0):
        self.comp_ratio = comp_ratio
        self.chunk_size = chunk_size
        self.seed = seed
        self.comp_spread = comp_spread
        self.locality = locality
        self.working_set = working_set
        self.rng = random.Random(seed)
        self.dup_probability = 1.0 - 1.0 / dedup_ratio
        self.ratios: list[float] = []
        self.offset = offset_base
        self.content = (BlockContentGenerator(comp_ratio, seed=seed)
                        if payload else None)
        self.stats = StreamStats()

    def _pick_duplicate_id(self) -> int:
        n = len(self.ratios)
        if self.locality and self.rng.random() < self.locality:
            window = min(self.working_set, n)
            return self.rng.randrange(n - window, n)
        return self.rng.randrange(n)

    def next_chunk(self) -> Chunk:
        if self.ratios and self.rng.random() < self.dup_probability:
            unique_id = self._pick_duplicate_id()
            ratio = self.ratios[unique_id]
            self.stats.duplicates += 1
        else:
            unique_id = len(self.ratios)
            ratio = max(1.0, self.rng.gauss(
                self.comp_ratio, self.comp_ratio * self.comp_spread))
            self.ratios.append(ratio)
            self.stats.uniques += 1
        if self.content is not None:
            self.content.random_fraction = analytic_random_fraction(ratio)
            chunk = Chunk(offset=self.offset, size=self.chunk_size,
                          payload=self.content.make_block(
                              self.chunk_size, salt=unique_id))
        else:
            chunk = Chunk(offset=self.offset, size=self.chunk_size,
                          fingerprint=hashlib.sha1(
                              f"vdbench:{self.seed}:{unique_id}".encode()
                          ).digest(),
                          comp_ratio=ratio)
        self.offset += self.chunk_size
        self.stats.chunks += 1
        self.stats.bytes_emitted += self.chunk_size
        return chunk

    def chunks(self, n: int) -> list[Chunk]:
        return [self.next_chunk() for _ in range(n)]


class ReferenceTenantMixStream:
    """``TenantMixStream`` one chunk at a time: one scheduling pick from
    the parent RNG (none for a one-tenant mix), then that tenant's
    :class:`ReferenceVdbenchStream` emits the chunk."""

    def __init__(self, mix, chunk_size: int = DEFAULT_CHUNK_SIZE,
                 payload: bool = False):
        self.tenants = mix.tenants
        self.open_loop = mix.open_loop
        self.sched = random.Random(mix.seed)
        self.streams = [ReferenceVdbenchStream(
            dedup_ratio=spec.dedup_ratio, comp_ratio=spec.comp_ratio,
            chunk_size=chunk_size, seed=spec.seed, payload=payload,
            comp_spread=spec.comp_spread, locality=spec.locality,
            working_set=spec.working_set,
            offset_base=index * TENANT_ADDRESS_STRIDE)
            for index, spec in enumerate(mix.tenants)]
        self.due = [0.0] * len(mix.tenants)

    def pick(self) -> int:
        last = len(self.tenants) - 1
        if last == 0:
            return 0
        if self.open_loop:
            best = min(range(last + 1), key=self.due.__getitem__)
            self.due[best] += self.sched.expovariate(
                self.tenants[best].total_rate_iops)
            return best
        total = 0.0
        for spec in self.tenants:
            total += spec.effective_weight
        point = self.sched.random() * total
        cumulative = 0.0
        for index in range(last):
            cumulative += self.tenants[index].effective_weight
            if point < cumulative:
                return index
        return last

    def next_chunk(self) -> Chunk:
        tenant = self.pick()
        chunk = self.streams[tenant].next_chunk()
        chunk.tenant = tenant
        return chunk

    def chunks(self, n: int) -> list[Chunk]:
        return [self.next_chunk() for _ in range(n)]


def reference_fingerprint(chunk: Chunk) -> bytes:
    """The hashing stage for one chunk: SHA-1 of its payload (set on the
    chunk), else its synthetic fingerprint, else :class:`DedupError`."""
    if chunk.payload is not None:
        chunk.fingerprint = hashlib.sha1(chunk.payload).digest()
    elif chunk.fingerprint is None:
        raise DedupError(f"chunk at offset {chunk.offset} has neither "
                         "payload nor fingerprint")
    return chunk.fingerprint


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


def btree_items(tree) -> list[tuple[bytes, Any]]:
    """Every (key, value) pair of a ``BTree``, in ascending key order."""
    out: list[tuple[bytes, Any]] = []

    def walk(node) -> None:
        if node.leaf:
            out.extend(zip(node.keys, node.values))
            return
        for i, key in enumerate(node.keys):
            walk(node.children[i])
            out.append((key, node.values[i]))
        walk(node.children[-1])

    walk(tree._root)
    return out


def check_btree(tree) -> None:
    """Raise ``AssertionError`` unless ``tree`` is a valid CLRS B-tree."""
    t = tree._t
    leaf_depths: set[int] = set()

    def check(node, is_root: bool, depth: int) -> None:
        assert is_root or len(node.keys) >= t - 1, \
            f"underfull node at depth {depth}"
        assert len(node.keys) <= 2 * t - 1, f"overfull node at depth {depth}"
        assert node.keys == sorted(node.keys), \
            f"unsorted keys at depth {depth}"
        assert len(node.keys) == len(node.values), \
            f"key/value mismatch at depth {depth}"
        if node.leaf:
            leaf_depths.add(depth)
            assert len(leaf_depths) == 1, "leaves at differing depths"
            return
        assert len(node.children) == len(node.keys) + 1, \
            f"child-count mismatch at depth {depth}"
        for i, child in enumerate(node.children):
            if i > 0 and child.keys:
                assert child.keys[0] > node.keys[i - 1], "left separator"
            if i < len(node.keys) and child.keys:
                assert child.keys[-1] < node.keys[i], "right separator"
            check(child, is_root=False, depth=depth + 1)

    check(tree._root, is_root=True, depth=0)


def install_runs(index, fingerprints: list[bytes]) -> None:
    """Install ``fingerprints`` in order, each run of consecutive
    same-bin entries as one ``install_views`` call."""
    width = index.prefix_bytes
    start = 0
    while start < len(fingerprints):
        prefix = fingerprints[start][:width]
        end = start
        while end < len(fingerprints) and fingerprints[end][:width] == prefix:
            end += 1
        index.install_views(int.from_bytes(prefix, "big"),
                            [f[width:] for f in fingerprints[start:end]])
        start = end


class ReferenceIndex:
    """Ground-truth fingerprint index: a plain dict.

    The property tests assert that the bin table and the GPU linear bins
    agree with this obviously correct implementation.
    """

    __slots__ = ("_table",)

    def __init__(self) -> None:
        self._table: dict[bytes, Any] = {}

    def lookup(self, fingerprint: bytes) -> Optional[Any]:
        return self._table.get(check_fingerprint(fingerprint))

    def insert(self, fingerprint: bytes, value: Any) -> bool:
        fingerprint = check_fingerprint(fingerprint)
        existed = fingerprint in self._table
        self._table[fingerprint] = value
        return not existed

    def __len__(self) -> int:
        return len(self._table)


def reference_bin_lookup(batch, table) -> list[int]:
    """Per-query first-match scan over a ``{bin: (lo, hi, count)}`` table.

    Query ``q`` walks the ``count`` valid slots of its bin in order and
    answers the first whose two lanes equal its own, else -1 (an unknown
    bin has no slots): the slot a device thread's full scan ends up
    holding, without the grid.
    """
    slots = []
    for bin_id, lo, hi in zip(batch.bin_ids.tolist(), batch.lo.tolist(),
                              batch.hi.tolist()):
        lo_arr, hi_arr, count = table.get(
            bin_id, (np.empty(0), np.empty(0), 0))
        lanes = list(zip(lo_arr[:count].tolist(), hi_arr[:count].tolist()))
        slots.append(lanes.index((lo, hi)) if (lo, hi) in lanes else -1)
    return slots


def lookup_batch(queries) -> LookupBatch:
    """A lookup-kernel batch from ``(bin_id, suffix_lo, suffix_hi)``
    triples, the form the kernel tests write their queries in."""
    arr = np.asarray(queries, dtype=np.uint64).reshape(len(queries), 3)
    return LookupBatch.from_arrays(arr[:, 0], arr[:, 1], arr[:, 2])


def report_digest(report) -> str:
    """sha256 of the canonical (sorted-key) JSON of one pipeline report."""
    canonical = json.dumps(dataclasses.asdict(report), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def report_digests(chunks: int) -> dict[str, str]:
    """:func:`report_digest` of every mode's ``run_mode`` report."""
    return {mode.value: report_digest(run_mode(mode, chunks))
            for mode in IntegrationMode.all_modes()}


# -- the event-per-step engine paths (test_schedule_equivalence) -----------


class AnyOf(_Condition):
    """Event that fires once *any* of the given events has fired."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._count >= 1 or not self._events


def any_of(env, events) -> AnyOf:
    """Composite event firing when any of ``events`` has fired."""
    return AnyOf(env, events)


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
                yield any_of(self.env, [get, timeout])
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
        raw = yield from self.gpu.launch(kernel)
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
        self.resource.users[self] = None
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


#: The oracle's own 8-slot channel ``Resource`` per SSD, made on first use.
_CHANNELS: "weakref.WeakKeyDictionary[SsdModel, Resource]" = \
    weakref.WeakKeyDictionary()


def reference_ssd_channels(ssd: SsdModel) -> Resource:
    """The FIFO channel ``Resource`` the oracle serves ``ssd``'s
    requests on, in place of the SSD's own ledger."""
    channels = _CHANNELS.get(ssd)
    if channels is None:
        channels = _CHANNELS[ssd] = Resource(
            ssd.env, capacity=ssd.spec.channels, name="ssd-channels")
    return channels


def reference_ssd_serve(ssd: SsdModel, request: BlockRequest) -> Generator:
    """Process body: one SSD request as the calendar serves it — a
    channel request, a service-time timeout — then booked into ``ssd``
    (interval, counters, span) once it has completed."""
    request.validate_against(ssd.spec.capacity_bytes)
    env = ssd.env
    submitted = env.now
    with reference_ssd_channels(ssd).request() as slot:
        yield slot
        granted = env.now
        yield env.timeout(ssd.service_time(request))
    ssd.monitor.book(granted, env.now)
    ssd.requests_completed += 1
    size = request.size
    if request.kind is RequestKind.WRITE:
        stage = STAGE_SSD_WRITE
        ssd.host_bytes_written += size
        ssd.nand_bytes_written += \
            -(-size // ssd.spec.page_bytes) * ssd.spec.page_bytes
    else:
        stage = STAGE_SSD_READ
        ssd.host_bytes_read += size
    if ssd.tracer.enabled:
        ssd.tracer.record(
            stage, None, start=submitted, queue_wait=granted - submitted,
            resource=TRACK_SSD,
            attrs={"bytes": size, "sequential": request.sequential})


def reference_writeback_submit(writeback: WriteBack, nbytes: int,
                               sequential: bool) -> None:
    """``WriteBack.submit`` as one process per write: a channel
    request, a service-time timeout, then the SSD's booking."""
    request = BlockRequest(RequestKind.WRITE, 0, nbytes,
                           sequential=sequential)
    request.validate_against(writeback.ssd.spec.capacity_bytes)
    writeback.batches += 1
    writeback.bytes += nbytes

    def destage() -> Generator:
        with writeback.tracer.span(STAGE_DESTAGE, resource=TRACK_DESTAGE,
                                   bytes=nbytes, sequential=sequential):
            yield from reference_ssd_serve(writeback.ssd, request)

    writeback.env.process(destage())


@contextlib.contextmanager
def reference_wiring(monkeypatch):
    """Run pipelines on the reference batcher, charge and destage."""
    with monkeypatch.context() as patch:
        patch.setattr("repro.core.pipeline.GpuBatcher", ReferenceGpuBatcher)
        patch.setattr(SimCpu, "charge", reference_charge)
        patch.setattr(WriteBack, "submit", reference_writeback_submit)
        yield


@dataclasses.dataclass(slots=True)
class ReferenceChunkRecord:
    """One stored chunk, as a mutable object (fields in the order of
    ``ChunkRecord``'s)."""

    physical_id: int
    size: int
    compressed_size: int
    refcount: int = 1
    blob: Optional[bytes] = None
    checksum: Optional[int] = None
    delta_base_id: Optional[int] = None
    delta_refs: int = 0

    @property
    def live(self) -> bool:
        return self.refcount > 0 or self.delta_refs > 0


class ReferenceMetadataStore:
    """Record-per-chunk table + logical map, keyed by physical id: a
    swept record leaves the dict."""

    def __init__(self) -> None:
        self._by_id: dict[int, ReferenceChunkRecord] = {}
        self._logical: dict[int, int] = {}
        self._zombies: set[int] = set()
        self._next_physical = 0
        self.logical_bytes = 0
        self.physical_bytes = 0

    def lookup(self, physical_id: Optional[int]
               ) -> Optional[ReferenceChunkRecord]:
        return self._by_id.get(physical_id)

    def store_unique(self, size: int, compressed_size: int,
                     blob: Optional[bytes] = None,
                     checksum: Optional[int] = None
                     ) -> ReferenceChunkRecord:
        if compressed_size <= 0 or size <= 0:
            raise MetadataError("invalid chunk sizes")
        record = ReferenceChunkRecord(
            physical_id=self._next_physical, size=size,
            compressed_size=compressed_size, refcount=0, blob=blob,
            checksum=checksum)
        self._by_id[record.physical_id] = record
        self._zombies.add(record.physical_id)
        self._next_physical += 1
        return record

    def _revive(self, record: ReferenceChunkRecord) -> None:
        if not record.live:
            self.physical_bytes += record.compressed_size
            self._zombies.discard(record.physical_id)

    def _retire(self, record: ReferenceChunkRecord) -> None:
        if not record.live:
            self.physical_bytes -= record.compressed_size
            self._zombies.add(record.physical_id)

    def add_delta_ref(self, physical_id: int) -> ReferenceChunkRecord:
        record = self._by_id[physical_id]
        self._revive(record)
        record.delta_refs += 1
        return record

    def _drop_ref(self, record: ReferenceChunkRecord
                  ) -> ReferenceChunkRecord:
        if record.refcount <= 0:
            raise MetadataError("refcount underflow")
        record.refcount -= 1
        self._retire(record)
        return record

    def _drop_delta_ref(self, physical_id: int) -> None:
        record = self._by_id.get(physical_id)
        if record is None:
            return
        if record.delta_refs <= 0:
            raise MetadataError("delta-ref underflow")
        record.delta_refs -= 1
        self._retire(record)

    def sweep_unreferenced(self) -> int:
        zombies = sorted(self._zombies)
        self._zombies.clear()
        reclaimed = 0
        for physical_id in zombies:
            record = self._by_id.pop(physical_id)
            reclaimed += record.compressed_size
            if record.delta_base_id is not None:
                self._drop_delta_ref(record.delta_base_id)
        return reclaimed

    def map_logical(self, offset: int, record: ReferenceChunkRecord,
                    size: int) -> None:
        if self._by_id.get(record.physical_id) is not record:
            raise MetadataError("record is not part of this store")
        self._revive(record)
        record.refcount += 1
        old_id = self._logical.get(offset)
        if old_id is not None:
            old_record = self._by_id[old_id]
            self._drop_ref(old_record)
            self.logical_bytes -= old_record.size
        self._logical[offset] = record.physical_id
        self.logical_bytes += size

    def resolve(self, offset: int) -> ReferenceChunkRecord:
        physical_id = self._logical.get(offset)
        if physical_id is None:
            raise MetadataError(f"logical offset {offset} is unmapped")
        record = self._by_id.get(physical_id)
        if record is None:
            raise MetadataError(
                f"logical offset {offset} points at a swept chunk")
        return record

    def unmap_logical(self, offset: int) -> None:
        physical_id = self._logical.pop(offset, None)
        if physical_id is None:
            raise MetadataError(f"logical offset {offset} is unmapped")
        record = self._drop_ref(self._by_id[physical_id])
        self.logical_bytes -= record.size

    @property
    def unique_chunks(self) -> int:
        return len(self._by_id) - len(self._zombies)

    @property
    def zombie_chunks(self) -> int:
        return len(self._zombies)

    def reduction_ratio(self) -> float:
        if self.physical_bytes <= 0:
            return 1.0 if self.logical_bytes == 0 else float("inf")
        return self.logical_bytes / self.physical_bytes

    def dedup_ratio(self) -> float:
        unique_raw = sum(r.size for r in self._by_id.values() if r.live)
        if unique_raw <= 0:
            return 1.0 if self.logical_bytes == 0 else float("inf")
        return self.logical_bytes / unique_raw

    def verify_invariants(self) -> None:
        physical = sum(r.compressed_size for r in self._by_id.values()
                       if r.live)
        if physical != self.physical_bytes:
            raise MetadataError(
                f"physical ledger {self.physical_bytes} != table {physical}")
        scanned = {r.physical_id for r in self._by_id.values()
                   if not r.live}
        if scanned != self._zombies:
            raise MetadataError(
                f"zombie set drift on chunks "
                f"{sorted(scanned ^ self._zombies)[:8]}")
        refs = sum(r.refcount for r in self._by_id.values())
        if refs != len(self._logical):
            raise MetadataError(
                f"refcount total {refs} != logical mappings "
                f"{len(self._logical)}")
        expected_delta_refs: dict[int, int] = {}
        for record in self._by_id.values():
            if record.delta_base_id is not None:
                expected_delta_refs[record.delta_base_id] = \
                    expected_delta_refs.get(record.delta_base_id, 0) + 1
        for record in self._by_id.values():
            if record.delta_refs != expected_delta_refs.get(
                    record.physical_id, 0):
                raise MetadataError(
                    f"delta-ref drift on chunk {record.physical_id}")
        logical = sum(self._by_id[pid].size
                      for pid in self._logical.values())
        if logical != self.logical_bytes:
            raise MetadataError(
                f"logical ledger {self.logical_bytes} != map {logical}")
