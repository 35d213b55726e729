"""A finished run leaves no simulation objects for the cyclic collector.

A granted request that is its own value, or a process holding a bound
method of itself past its exit, is a reference cycle: freed only when
the cyclic collector runs, which in a descriptor-mode run is several
times a second.  With the collector off, reference counting alone must
free every ``Process`` and ``Request`` a run created.

While it waits, an event is walked by every collection.  An SSD
write waits on nothing: the channel ledger books it when submitted,
so a write behind busy channels leaves neither a calendar entry nor
a tracked object.
"""

import gc
import hashlib
from collections import Counter

import pytest

from repro.core.calibration import run_mode
from repro.core.modes import IntegrationMode
from repro.core.readpath import ReadPipeline
from repro.dedup.engine import DedupEngine
from repro.sim import Environment, Process, Request
from repro.storage import MetadataStore
from repro.storage.ssd import SsdModel
from repro.storage.writeback import WriteBack
from repro.types import Chunk
from tests.dispatch_trace import TracingEnvironment
from tests.reference_paths import reference_writeback_submit


def _sim_objects_alive() -> Counter:
    return Counter(type(obj).__name__ for obj in gc.get_objects()
                   if isinstance(obj, (Process, Request)))


def _read_run(n_reads: int = 256) -> None:
    store = MetadataStore()
    for i in range(n_reads):
        store.map_logical(i * 4096, store.store_unique(4096, 2048))
    ReadPipeline(Environment(), store).run(
        [i * 4096 for i in range(n_reads)])


def test_runs_free_their_events_without_the_cyclic_collector():
    gc.collect()
    before = _sim_objects_alive()
    gc.disable()
    try:
        run_mode(IntegrationMode.GPU_BOTH, 2048)
        run_mode(IntegrationMode.CPU_ONLY, 2048)
        _read_run()
        left = _sim_objects_alive() - before
    finally:
        gc.enable()
    assert not left, dict(left)


def test_shared_index_outcomes_reject_mutation():
    engine = DedupEngine()
    fingerprint = hashlib.sha1(b"x").digest()
    miss = engine.cpu_index_partial(
        Chunk(offset=0, size=4096, fingerprint=fingerprint))
    assert engine.cpu_index_partial(
        Chunk(offset=0, size=4096, fingerprint=fingerprint)) is miss
    engine.commit_unique(Chunk(offset=0, size=4096,
                               fingerprint=fingerprint))
    # A hit names its stored copy, so it is built per verdict.
    hit = engine.cpu_index(Chunk(offset=4096, size=4096,
                                 fingerprint=fingerprint))
    assert (miss.duplicate, miss.path) == (False, "unique")
    assert (hit.duplicate, hit.path, hit.physical_id) == (True, "buffer", 0)
    for outcome in (miss, hit):
        with pytest.raises(AttributeError):
            outcome.cpu_cycles = 0.0


def _write_sizes(n: int) -> list[int]:
    return [1 + (i * 7919) % 40000 for i in range(n)]


def _queued_writeback(submit, n: int) -> tuple[SsdModel, int, int]:
    """Fill every SSD channel, then submit ``n`` more writes through
    ``submit``; returns the SSD (after the run), the GC-tracked objects
    the ``n`` submits added, and the calendar entries made from the
    first of them to the end of the run."""
    env = Environment()
    ssd = SsdModel(env)
    writeback = WriteBack(env, ssd)
    for _ in range(ssd.spec.channels):
        submit(writeback, 4096, True)
    sizes = _write_sizes(n)
    gc.collect()
    gc.disable()
    try:
        entries = env._eid
        objects = len(gc.get_objects())
        for i, size in enumerate(sizes):
            submit(writeback, size, i % 3 == 0)
        objects = len(gc.get_objects()) - objects
    finally:
        gc.enable()
    env.run()
    return ssd, objects, env._eid - entries


def test_a_queued_ssd_write_adds_no_event_and_no_tracked_object():
    """A write behind busy channels is a booking on the SSD's ledger:
    no calendar entry, no tracked object, the oracle's counters."""
    n = 1000
    ssd, objects, entries = _queued_writeback(WriteBack.submit, n)
    assert (objects, entries) == (0, 0)
    oracle, oracle_objects, oracle_entries = \
        _queued_writeback(reference_writeback_submit, n)
    assert oracle_objects >= n and oracle_entries >= n  # not vacuous
    booked = [(s.requests_completed, s.host_bytes_written,
               s.nand_bytes_written) for s in (ssd, oracle)]
    assert booked[0] == booked[1]
    assert booked[0][1] == \
        ssd.spec.channels * 4096 + sum(_write_sizes(n))


def test_a_read_costs_one_ssd_calendar_entry():
    """Per read of a compressed chunk: one window grant, two CPU
    charges and the SSD read, each charge and the read one timeout
    that fires at its ledger's completion instant."""
    n = 256
    store = MetadataStore()
    for i in range(n):
        store.map_logical(i * 4096, store.store_unique(4096, 2048))
    env = TracingEnvironment()
    trace = env.trace
    ReadPipeline(env, store).run([i * 4096 for i in range(n)])
    dispatched = Counter(name for _when, name in trace)
    assert (dispatched["Request"], dispatched["Timeout"]) == (n, 3 * n)


def _tracked_objects_per_stored_chunk(n: int = 10_000) -> float:
    """GC-tracked objects a drained engine keeps per stored unique
    chunk: ``n`` unique descriptor chunks at the pipeline's 1-byte
    prefix through a 2048-entry bin buffer, then drained into the bin
    trees."""
    engine = DedupEngine(prefix_bytes=1, bin_buffer_total=2048)
    gc.collect()
    before = len(gc.get_objects())
    for i in range(n):
        chunk = Chunk(offset=i * 4096, size=4096,
                      fingerprint=hashlib.sha1(i.to_bytes(4, "big")).digest())
        engine.cpu_index(chunk)
        chunk.compressed_size = 2048
        engine.commit_unique(chunk)
    engine.drain()
    del chunk
    gc.collect()
    assert engine.metadata.unique_chunks == n
    return (len(gc.get_objects()) - before) / n


def test_a_stored_chunk_is_no_tracked_object():
    """A stored chunk is a row of the chunk table's columns, not an
    object the cyclic collector walks: what is left per chunk is the
    bin trees' share of a node."""
    assert _tracked_objects_per_stored_chunk() <= 0.5
