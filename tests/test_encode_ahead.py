"""CPU QuickLZ encoded ahead across host cores changes no byte.

When the CPU compresses real bytes, the pipeline's feeder encodes each
functional window's new contents ahead (``CpuCompressor.
compress_window``, shared out by :func:`repro.host.spread`) and a
worker's ``compress`` takes the finished container.  QuickLZ is a pure
function of the payload, so:

- a run reports and stores exactly what a run that encodes every chunk
  inline stores — with helpers, on one usable CPU, and with a helper
  that dies mid-run so that ``spread`` falls back to the caller;
- every container encoded ahead is taken: none is encoded twice, none
  is left over, and only a chunk that lost the in-flight race to a twin
  is encoded inline.
"""

import dataclasses
import os
import signal

import pytest

from repro import host
from repro.compression import parallel_cpu
from repro.core import IntegrationMode, PipelineConfig, calibration
from repro.workload import VdbenchStream
from tests.test_batched_equivalence import (CORPORA, corpus_chunks,
                                            corpus_payloads)
from tests.test_gpu_host import CALLER, reaped
from tests.test_pipeline import build_pipeline

MODES = [IntegrationMode.CPU_ONLY, IntegrationMode.GPU_DEDUP]
WAYS = ("helpers", "one_cpu", "helper_dies")
_ENCODE_ALL = parallel_cpu._encode_all
#: Shares this process served as a helper (the caller's stays 0, so
#: every helper forked from it starts at 0).
_SERVED = 0


def _dies_on_its_second_share(codec, payloads):
    global _SERVED
    if os.getpid() != CALLER:
        _SERVED += 1
        if _SERVED == 2:
            os.kill(os.getpid(), signal.SIGKILL)
    return _ENCODE_ALL(codec, payloads)


def _corpus_run(kind):
    payloads = corpus_payloads(kind, 48, seed=5)
    return lambda: iter(corpus_chunks(payloads)), len(payloads)


def _vdbench_run():
    return (lambda: VdbenchStream(dedup_ratio=2.0, seed=21,
                                  payload=True).chunks(384)), 384


STREAMS = {kind: _corpus_run(kind) for kind in CORPORA}
STREAMS["vdbench"] = _vdbench_run()


def run(mode, stream, way):
    """One payload run ``way``: its report as a dict, every stored row
    (blob and checksum included), the id behind every offset, and the
    helpers retired during it."""
    chunks, total = STREAMS[stream]
    retired = []
    retire = host._Pool.retire

    def noting(pool, helper):
        retired.append(helper.pid)
        retire(pool, helper)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.chunkbatch.FUNCTIONAL_WINDOW", 8)
        patch.setattr(host, "usable_cpus",
                      lambda: 1 if way == "one_cpu" else 2)
        patch.setattr(host._Pool, "retire", noting)
        if way == "inline":
            patch.setattr(parallel_cpu.CpuCompressor, "compress_window",
                          lambda self, chunks: None)
        if way == "helper_dies":
            patch.setattr(parallel_cpu, "_encode_all",
                          _dies_on_its_second_share)
        pipeline = build_pipeline(PipelineConfig(
            mode=mode, window=16, gpu_index_batch=8, gpu_comp_batch=8,
            bin_buffer_capacity=8, bin_buffer_total=64))
        written = list(chunks())
        report = pipeline.run(iter(written), total=total)
    if way == "helper_dies":
        # Helpers forked under the patch would keep it: retire them.
        for helper in list(host._POOL.helpers):
            host._POOL.retire(helper)
    metadata = pipeline.dedup.metadata
    comp = pipeline.cpu_comp
    assert not comp.ahead
    assert comp.encoded_ahead + comp.encoded_inline \
        == comp.chunks_compressed
    if way != "inline":
        # Only a chunk that lost the in-flight race to a twin (whose
        # commit's flush left the bin buffer before its re-probe) is
        # compressed after its content's container was taken.
        assert comp.encoded_inline == report.counters["race_duplicates"]
    # A pipeline sweeps nothing: its ids are 0, 1, ... with no gap.
    rows = []
    while metadata.lookup(len(rows)) is not None:
        rows.append(tuple(metadata.record(len(rows))))
    return (dataclasses.asdict(report), rows,
            [metadata.mapped_id(chunk.offset) for chunk in written],
            retired)


@pytest.mark.parametrize("stream", sorted(STREAMS))
@pytest.mark.parametrize("mode", MODES, ids=lambda mode: mode.value)
def test_encode_ahead_stores_what_inline_encoding_stores(mode, stream):
    inline = run(mode, stream, "inline")
    # The corpora of random bytes are stored raw: no container.
    assert any(row[4] is not None for row in inline[1]) \
        == (stream in ("all_zero", "vdbench"))
    for way in WAYS:
        got = run(mode, stream, way)
        assert got[:3] == inline[:3], way
        if way == "helper_dies" and stream in ("incompressible",
                                               "byte_shifted", "vdbench"):
            # Each helper died on its second share: the caller
            # encoded that share itself and forked a fresh helper.
            assert got[3]
            assert all(reaped(pid) for pid in got[3])
        elif way != "helper_dies":
            assert not got[3]


@pytest.mark.parametrize("dedup_ratio", [2.0, 1.2])
def test_every_encode_ahead_is_taken(monkeypatch, dedup_ratio):
    """The default run: no chunk encoded inline, none encoded twice, the
    map empty afterwards, and the counters published."""
    runs = []
    run_stream = calibration.run_stream

    def keeping(*args, **kwargs):
        runs.append(run_stream(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(calibration, "run_stream", keeping)
    calibration.run_mode(IntegrationMode.CPU_ONLY, 2048, payload=True,
                         dedup_ratio=dedup_ratio)
    (pipeline, report), = runs
    comp = pipeline.cpu_comp
    assert comp.encoded_inline == 0
    assert comp.encoded_ahead == comp.chunks_compressed \
        == pipeline.dedup.metadata.unique_chunks
    assert comp.ahead == {}
    registry = pipeline.publish_metrics()
    assert registry.value("compress.cpu.encoded_ahead") \
        == comp.encoded_ahead
    assert registry.value("compress.cpu.encoded_inline") == 0
