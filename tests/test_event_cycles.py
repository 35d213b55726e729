"""A finished run leaves no simulation objects for the cyclic collector.

A granted request that is its own value, or a process holding a bound
method of itself past its exit, is a reference cycle: freed only when
the cyclic collector runs, which in a descriptor-mode run is several
times a second.  With the collector off, reference counting alone must
free every ``Process``, ``Hold`` and ``Request`` a run created.

While it waits, an event is walked by every collection, so a write
queued on the SSD channels may keep only its hold and the hold's
callback list alive.
"""

import dataclasses
import gc
import hashlib
from collections import Counter

import pytest

from repro.core.calibration import run_mode
from repro.core.modes import IntegrationMode
from repro.core.readpath import ReadPipeline
from repro.dedup.engine import DedupEngine
from repro.obs.tracer import NULL_TRACER
from repro.sim import Environment, Hold, Process, Request
from repro.storage import MetadataStore
from repro.storage.ssd import SsdModel
from repro.storage.writeback import WriteBack
from repro.types import Chunk
from tests.reference_paths import reference_writeback_submit


def _sim_objects_alive() -> Counter:
    return Counter(type(obj).__name__ for obj in gc.get_objects()
                   if isinstance(obj, (Process, Hold, Request)))


def _read_run(n_reads: int = 256) -> None:
    store = MetadataStore()
    for i in range(n_reads):
        fingerprint = hashlib.sha1(i.to_bytes(8, "big")).digest()
        store.store_unique(fingerprint, 4096, 2048)
        store.map_logical(i * 4096, fingerprint, 4096)
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
    engine.commit_unique(Chunk(offset=0, size=4096,
                               fingerprint=fingerprint))
    hit = engine.cpu_index(Chunk(offset=4096, size=4096,
                                 fingerprint=fingerprint))
    assert (miss.duplicate, miss.path) == (False, "unique")
    assert (hit.duplicate, hit.path) == (True, "buffer")
    assert engine.cpu_index(Chunk(offset=8192, size=4096,
                                  fingerprint=fingerprint)) is hit
    for outcome in (miss, hit):
        with pytest.raises(dataclasses.FrozenInstanceError):
            outcome.cpu_cycles = 0.0


def _write_sizes(n: int) -> list[int]:
    return [1 + (i * 7919) % 40000 for i in range(n)]


def _queued_writeback(submit, n: int) -> tuple[SsdModel, int, int]:
    """Fill every SSD channel, then queue ``n`` more writes through
    ``submit``; returns the SSD, the GC-tracked objects the writes
    added and how many waited on the channels before the run."""
    env = Environment()
    ssd = SsdModel(env)
    writeback = WriteBack(env, ssd, NULL_TRACER)
    for _ in range(ssd.spec.channels):
        submit(writeback, 4096, True)
    sizes = _write_sizes(n)
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        for i, size in enumerate(sizes):
            submit(writeback, size, i % 3 == 0)
        added = len(gc.get_objects()) - before
    finally:
        gc.enable()
    queued = len(ssd.channels.queue)
    env.run()
    return ssd, added, queued


def test_a_queued_ssd_write_is_at_most_two_tracked_objects():
    """A write queued behind busy channels is its hold and the hold's
    callback list: no closure, cell or request stays alive with it."""
    n = 1000
    ssd, added, queued = _queued_writeback(WriteBack.submit, n)
    assert queued == n
    assert added <= 2 * n, added / n
    oracle, _, _ = _queued_writeback(reference_writeback_submit, n)
    booked = [(s.requests_completed, s.host_bytes_written,
               s.nand_bytes_written) for s in (ssd, oracle)]
    assert booked[0] == booked[1]
    assert booked[0][1] == \
        ssd.spec.channels * 4096 + sum(_write_sizes(n))
