"""Codec work run ahead on the codec queue changes no byte.

With real bytes, the pipeline's feeder hands each functional window's
new contents to the codec queue (:mod:`repro.host`): the CPU codec's
QuickLZ encode (``CpuCompressor.compress_window``) or the GPU codec's
segment-LZ search and refinement (``GpuCompressor.compress_window``).
A worker's ``compress``, or the GPU launch's ``split_results``, takes
each container by fingerprint on first use.  Both codecs are pure
functions of the payload, so:

- a run reports and stores exactly what a run that computes every
  container where it is used stores — with helpers, on one usable CPU,
  and with a helper SIGKILLed mid-share so that the caller computes
  that share itself;
- a run that raises mid-way leaves the queue quiet, and the next run
  is byte-identical to the reference;
- after every run no share is unsent or in flight, no helper holds an
  unread reply and no container is left untaken;
- every CPU container queued is taken: none is encoded twice, and only
  a chunk that lost the in-flight race to a twin is encoded inline.
"""

import dataclasses
import functools
import os
import signal

import pytest

from repro import host
from repro.compression import gpu_lz, parallel_cpu
from repro.core import IntegrationMode, PipelineConfig, calibration
from repro.workload import VdbenchStream
from tests.test_batched_equivalence import (CORPORA, corpus_chunks,
                                            corpus_payloads)
from tests.test_gpu_host import CALLER, quiet, reaped
from tests.test_pipeline import build_pipeline

#: Two modes per codec: the CPU codec with the index on the CPU or the
#: GPU, and the GPU codec likewise.
MODES = [IntegrationMode.CPU_ONLY, IntegrationMode.GPU_DEDUP,
         IntegrationMode.GPU_COMP, IntegrationMode.GPU_BOTH]
WAYS = ("helpers", "one_cpu", "helper_dies")
_ENCODE_ALL = parallel_cpu._encode_all
_COMPRESS_PAYLOADS = gpu_lz.compress_payloads
#: Shares this process served as a helper (the caller's stays 0, so
#: every helper forked from it starts at 0).
_SERVED = 0


def _dies_on_its_second_share():
    global _SERVED
    if os.getpid() != CALLER:
        _SERVED += 1
        if _SERVED == 2:
            os.kill(os.getpid(), signal.SIGKILL)


def _encode_dying(codec, payloads):
    _dies_on_its_second_share()
    return _ENCODE_ALL(codec, payloads)


def _compress_dying(payloads):
    _dies_on_its_second_share()
    return _COMPRESS_PAYLOADS(payloads)


def _corpus_run(kind):
    payloads = corpus_payloads(kind, 48, seed=5)
    return lambda: iter(corpus_chunks(payloads)), len(payloads)


def _vdbench_run():
    return (lambda: VdbenchStream(dedup_ratio=2.0, seed=21,
                                  payload=True).chunks(384)), 384


STREAMS = {kind: _corpus_run(kind) for kind in CORPORA}
STREAMS["vdbench"] = _vdbench_run()


def _midway(*args):
    raise RuntimeError("mid-way")


def run(mode, stream, way):
    """One payload run ``way``: its report as a dict, every stored row
    (blob and checksum included), the id behind every offset, and the
    helpers retired during it."""
    chunks, total = STREAMS[stream]
    retired = []
    retire = host._Queue.retire

    def noting(queue, helper):
        retired.append(helper.pid)
        retire(queue, helper)

    gpu = mode.gpu_for_compression
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.chunkbatch.FUNCTIONAL_WINDOW", 8)
        patch.setattr(host, "usable_cpus",
                      lambda: 1 if way == "one_cpu" else 2)
        patch.setattr(host._Queue, "retire", noting)
        if way == "inline":
            for codec in (parallel_cpu.CpuCompressor, gpu_lz.GpuCompressor):
                patch.setattr(codec, "compress_window",
                              lambda self, chunks: None)
        if way == "helper_dies":
            patch.setattr(gpu_lz, "compress_payloads", _compress_dying)
            patch.setattr(parallel_cpu, "_encode_all", _encode_dying)
        if way == "raises":
            patch.setattr(gpu_lz.GpuCompressor if gpu
                          else parallel_cpu.CpuCompressor,
                          "split_results" if gpu else "compress", _midway)
        pipeline = build_pipeline(PipelineConfig(
            mode=mode, window=16, gpu_index_batch=8, gpu_comp_batch=8,
            bin_buffer_capacity=8, bin_buffer_total=64))
        written = list(chunks())
        if way == "raises":
            with pytest.raises(RuntimeError, match="mid-way"):
                pipeline.run(iter(written), total=total)
            assert quiet()
            return None
        report = pipeline.run(iter(written), total=total)
    if way == "helper_dies":
        # Helpers forked under the patch would keep it: retire them.
        for helper in list(host._QUEUE.helpers):
            host._QUEUE.retire(helper)
    assert quiet()
    comp = pipeline.gpu_comp if gpu else pipeline.cpu_comp
    assert not comp.ahead
    if not gpu:
        assert comp.encoded_ahead + comp.encoded_inline \
            == comp.chunks_compressed
        if way not in ("inline", "one_cpu"):
            # Only a chunk that lost the in-flight race to a twin (whose
            # commit's flush left the bin buffer before its re-probe)
            # is compressed after its content's container was taken.
            assert comp.encoded_inline \
                == report.counters["race_duplicates"]
    metadata = pipeline.dedup.metadata
    # A pipeline sweeps nothing: its ids are 0, 1, ... with no gap.
    rows = []
    while metadata.lookup(len(rows)) is not None:
        rows.append(tuple(metadata.record(len(rows))))
    return (dataclasses.asdict(report), rows,
            [metadata.mapped_id(chunk.offset) for chunk in written],
            retired)


@functools.lru_cache(maxsize=None)
def reference(mode, stream):
    """The run that computes every container where it is used."""
    return run(mode, stream, "inline")


@pytest.mark.parametrize("stream", sorted(STREAMS))
@pytest.mark.parametrize("mode", MODES, ids=lambda mode: mode.value)
def test_encode_ahead_stores_what_inline_encoding_stores(mode, stream):
    inline = reference(mode, stream)
    # The corpora of random bytes are stored raw: no container.
    assert any(row[4] is not None for row in inline[1]) \
        == (stream in ("all_zero", "vdbench"))
    for way in WAYS:
        got = run(mode, stream, way)
        assert got[:3] == inline[:3], way
        if way == "helper_dies" and stream in ("incompressible",
                                               "byte_shifted", "vdbench"):
            # Each helper died on its second share: the caller
            # computed that share itself and forked a fresh helper.
            assert got[3]
            assert all(reaped(pid) for pid in got[3])
        elif way != "helper_dies":
            assert not got[3]


@pytest.mark.parametrize("mode", MODES, ids=lambda mode: mode.value)
def test_a_run_that_raises_leaves_the_next_run_identical(mode):
    """Raised at the first container taken, with every share submitted
    so far unsent or in flight: the run's end reads every reply, and a
    clean run after it stores what the reference stores."""
    inline = reference(mode, "vdbench")
    assert run(mode, "vdbench", "raises") is None
    assert run(mode, "vdbench", "helpers")[:3] == inline[:3]


@pytest.mark.parametrize("dedup_ratio", [2.0, 1.2])
def test_every_encode_ahead_is_taken(monkeypatch, dedup_ratio):
    """The default run, with a helper: no chunk encoded inline, none
    encoded twice, the map empty afterwards, and the counters
    published."""
    monkeypatch.setattr(host, "usable_cpus", lambda: 2)
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
    assert quiet()
    registry = pipeline.publish_metrics()
    assert registry.value("compress.cpu.encoded_ahead") \
        == comp.encoded_ahead
    assert registry.value("compress.cpu.encoded_inline") == 0
