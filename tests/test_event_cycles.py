"""A finished run leaves no simulation objects for the cyclic collector.

A granted request that is its own value, or a process holding a bound
method of itself past its exit, is a reference cycle: freed only when
the cyclic collector runs, which in a descriptor-mode run is several
times a second.  With the collector off, reference counting alone must
free every ``Process``, ``Hold`` and ``Request`` a run created.
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
from repro.sim import Environment, Hold, Process, Request
from repro.storage import MetadataStore
from repro.types import Chunk


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
