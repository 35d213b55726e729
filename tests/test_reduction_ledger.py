"""Dedup before compression: the codec sees each stored chunk once.

Every integration mode indexes a chunk before it compresses it and
compresses it only on a unique verdict.  So, whatever the mode, the
corpus or whether chunks carry payload bytes:

- the compressor's ledger is the stored ledger: it compressed exactly
  the unique chunks, and its output bytes are the physical bytes;
- a duplicate never reaches the codec, on the CPU or on the GPU;
- the dedup verdicts do not depend on the mode: every run over the
  same stream stores the same contents and maps each offset to the
  same one;
- a payload run whose GPU segment-LZ search runs ahead on helper
  processes (the codec queue, :mod:`repro.host`) stores the same bytes
  and reports the same run as the caller searching alone.
"""

import functools
import hashlib
import os
from typing import NamedTuple

import pytest

from repro import host
from repro.compression import gpu_lz
from repro.compression.parallel_cpu import CpuCompressor
from repro.compression.quicklz import QuickLzCodec
from repro.core import IntegrationMode, PipelineConfig
from repro.workload import VdbenchStream
from tests.test_gpu_host import CALLER
from tests.test_pipeline import build_pipeline

#: Workload mixes that stress distinct dedup paths: dup-heavy (most
#: chunks resolve against staged or stored copies), skewed (hot
#: fingerprints recur within a window, so twins are in flight
#: together) and uniform (no duplicate at all).
CORPORA = {
    "dup_heavy": dict(dedup_ratio=4.0, locality=0.9),
    "skewed": dict(dedup_ratio=3.0, locality=0.95),
    "uniform": dict(dedup_ratio=1.0, locality=0.0),
}
MODES = list(IntegrationMode)
PAYLOAD = dict(payload=True)


def run(mode, corpus="dup_heavy", payload=False, chunks=512, **overrides):
    """One pipeline run: the pipeline, its report and the chunks
    written, in order."""
    params = dict(mode=mode, window=64, gpu_index_batch=16,
                  gpu_comp_batch=16)
    params.update(overrides)
    pipeline = build_pipeline(PipelineConfig(**params))
    stream = VdbenchStream(seed=1234, **CORPORA[corpus],
                           **(PAYLOAD if payload else {}))
    written = []

    def tapped():
        for chunk in stream.chunks(chunks):
            written.append(chunk)
            yield chunk

    report = pipeline.run(tapped(), total=chunks)
    return pipeline, report, written


def compressor(pipeline):
    return (pipeline.gpu_comp if pipeline.config.mode.gpu_for_compression
            else pipeline.cpu_comp)


class Ledger(NamedTuple):
    """What the two tests below read off one finished run."""

    #: (chunks compressed, bytes out) of the compressor the mode uses,
    #: and chunks compressed by the one it leaves idle.
    used: tuple[int, int]
    idle: int
    #: (unique chunks, logical bytes, physical bytes) of the metadata.
    physical: tuple[int, int, int]
    #: Per offset written: (first offset mapped onto its record, size).
    mapped: tuple[tuple[int, int], ...]
    #: Offsets whose record already holds another content.
    clashes: tuple[int, ...]
    #: Records whose content another record holds too.
    shared_contents: int


@functools.lru_cache(maxsize=None)
def ledger(mode, corpus, payload) -> Ledger:
    """One run per (mode, corpus, payload), which both tests check; the
    cached :class:`Ledger` holds tuples only, never the pipeline."""
    pipeline, _, written = run(mode, corpus, payload)
    metadata = pipeline.dedup.metadata
    used = compressor(pipeline)
    idle = pipeline.cpu_comp if used is pipeline.gpu_comp \
        else pipeline.gpu_comp
    # Records carry no fingerprint: a record holds the content of the
    # chunks mapped onto it, which must all be one content, and it is
    # named across modes by the first offset mapped onto it.
    contents, first, mapped, clashes = {}, {}, [], []
    for chunk in written:
        record = metadata.resolve(chunk.offset)
        if contents.setdefault(record.physical_id, chunk.fingerprint) \
                != chunk.fingerprint:
            clashes.append(chunk.offset)
        mapped.append((first.setdefault(record.physical_id, chunk.offset),
                       record.size))
    return Ledger(
        used=(used.chunks_compressed, used.bytes_out),
        idle=idle.chunks_compressed,
        physical=(metadata.unique_chunks, metadata.logical_bytes,
                  metadata.physical_bytes),
        mapped=tuple(mapped), clashes=tuple(clashes),
        shared_contents=len(contents) - len(set(contents.values())))


@pytest.mark.parametrize("payload", (False, True),
                         ids=("descriptor", "payload"))
@pytest.mark.parametrize("corpus", sorted(CORPORA))
@pytest.mark.parametrize("mode", MODES, ids=[m.value for m in MODES])
def test_only_unique_chunks_are_compressed(mode, corpus, payload):
    """The compressor's ledger is the stored ledger."""
    outcome = ledger(mode, corpus, payload)
    unique_chunks, _, physical_bytes = outcome.physical
    assert outcome.used == (unique_chunks, physical_bytes)
    assert outcome.idle == 0
    if corpus == "uniform":
        assert unique_chunks == 512
    else:
        assert unique_chunks < 512 // 2


@pytest.mark.parametrize("payload", (False, True),
                         ids=("descriptor", "payload"))
@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_dedup_verdicts_do_not_depend_on_the_mode(corpus, payload):
    """Every mode stores the same contents under the same offsets; in
    descriptor mode, and between modes sharing a codec, the same
    physical bytes too."""
    outcomes = {mode: ledger(mode, corpus, payload) for mode in MODES}
    for outcome in outcomes.values():
        assert outcome.clashes == ()
        assert outcome.shared_contents == 0
    mapped = {mode: outcome.mapped for mode, outcome in outcomes.items()}
    physical = {mode: outcome.physical for mode, outcome in outcomes.items()}
    oracle = IntegrationMode.CPU_ONLY
    assert all(mapped[mode] == mapped[oracle] for mode in MODES)
    assert physical[IntegrationMode.GPU_DEDUP] == physical[oracle]
    assert physical[IntegrationMode.GPU_BOTH] == \
        physical[IntegrationMode.GPU_COMP]
    if not payload:
        assert all(physical[mode] == physical[oracle] for mode in MODES)


class CountingCodec(QuickLzCodec):
    """Logs the SHA-1 of every payload it encodes, in whichever process
    encodes it: the pipeline encodes ahead on helpers too."""

    def __init__(self, log):
        self.log = log

    def encode(self, data):
        with open(self.log, "a") as out:
            out.write(hashlib.sha1(data).hexdigest() + "\n")
        return super().encode(data)

    def encoded(self) -> list[str]:
        return self.log.read_text().split()


_COMPRESS_PAYLOADS = gpu_lz.compress_payloads


class CountingSearch:
    """The GPU codec's task, logging the SHA-1 of every payload it
    searches, in whichever process searches it."""

    def __init__(self, log):
        self.log = log

    def __call__(self, payloads):
        with open(self.log, "a") as out:
            out.writelines(hashlib.sha1(payload).hexdigest() + "\n"
                           for payload in payloads)
        return _COMPRESS_PAYLOADS(payloads)


def _assert_each_unique_encoded_once(monkeypatch, tmp_path, mode):
    codec = CountingCodec(tmp_path / "encoded")
    monkeypatch.setattr(gpu_lz, "compress_payloads",
                        CountingSearch(tmp_path / "encoded"))
    params = dict(mode=mode, window=64, gpu_index_batch=16,
                  gpu_comp_batch=16)
    pipeline = build_pipeline(PipelineConfig(**params))
    pipeline.cpu_comp = CpuCompressor(codec=codec)
    stream = VdbenchStream(seed=11, **CORPORA["dup_heavy"], **PAYLOAD)
    payloads = []

    def tapped():
        for chunk in stream.chunks(512):
            payloads.append(chunk.payload)
            yield chunk

    pipeline.run(tapped(), total=512)
    encoded = codec.encoded()
    unique = {hashlib.sha1(payload).hexdigest() for payload in payloads}
    assert len(unique) < len(payloads) // 2
    assert len(encoded) == len(unique)
    assert len(unique) == pipeline.dedup.metadata.unique_chunks
    assert set(encoded) == unique
    assert compressor(pipeline).chunks_compressed == len(unique)


@pytest.mark.parametrize("mode", [IntegrationMode.CPU_ONLY,
                                  IntegrationMode.GPU_COMP],
                         ids=["cpu", "gpu"])
def test_duplicates_never_reach_the_codec(monkeypatch, tmp_path, mode):
    """Enforced by order (index, then compress), not by a cache."""
    _assert_each_unique_encoded_once(monkeypatch, tmp_path, mode)


def test_duplicates_never_reach_the_codec_on_one_cpu(monkeypatch, tmp_path):
    """With no helper every encode runs in the caller, still once."""
    monkeypatch.setattr(host, "usable_cpus", lambda: 1)
    _assert_each_unique_encoded_once(monkeypatch, tmp_path,
                                     IntegrationMode.CPU_ONLY)


def test_duplicates_never_reach_the_gpu_search_on_one_cpu(monkeypatch,
                                                          tmp_path):
    """With no helper every launch searches its chunks in the caller,
    still once each."""
    monkeypatch.setattr(host, "usable_cpus", lambda: 1)
    _assert_each_unique_encoded_once(monkeypatch, tmp_path,
                                     IntegrationMode.GPU_COMP)


# -- the segment-LZ search run ahead on a helper ------------------------------

#: Payloads the caller searched itself, counted in the caller only.
_CALLER_SEARCHED: list = []


def _noting_caller_searches(payloads):
    if os.getpid() == CALLER:
        _CALLER_SEARCHED.append(len(payloads))
    return _COMPRESS_PAYLOADS(payloads)


def _payload_run(monkeypatch, mode, corpus, cpus):
    """A payload run whose launches span two tiles, with ``cpus``
    usable CPUs: its report, the stored blob of every offset and the
    payloads the caller searched."""
    monkeypatch.setattr(host, "usable_cpus", lambda: cpus)
    _CALLER_SEARCHED.clear()
    pipeline, report, written = run(mode, corpus, payload=True,
                                    chunks=1024, window=256,
                                    gpu_comp_batch=128)
    metadata = pipeline.dedup.metadata
    blobs = [metadata.resolve(chunk.offset).blob for chunk in written]
    return report, blobs, sum(_CALLER_SEARCHED)


@pytest.mark.parametrize("corpus", sorted(CORPORA))
@pytest.mark.parametrize("mode", [IntegrationMode.GPU_COMP,
                                  IntegrationMode.GPU_BOTH],
                         ids=["gpu_comp", "gpu_both"])
def test_payload_run_is_the_same_on_one_cpu_and_three(monkeypatch, mode,
                                                      corpus):
    """One usable CPU: the caller searches every payload.  Three: the
    helpers search some, and not a byte or a report field moves."""
    monkeypatch.setattr(gpu_lz, "compress_payloads",
                        _noting_caller_searches)
    shared = _payload_run(monkeypatch, mode, corpus, 3)
    alone = _payload_run(monkeypatch, mode, corpus, 1)
    assert shared[0] == alone[0]
    assert shared[1] == alone[1]
    assert alone[0].gpu_kernels > 0
    # Alone, the caller searched every stored payload; shared, the
    # helpers took some.
    assert alone[2] == alone[0].counters["uniques"]
    assert shared[2] < alone[2]
    assert len(host._QUEUE.helpers) == 2
