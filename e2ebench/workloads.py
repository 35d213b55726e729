"""The seven workloads and the only coupling to ``src/``.

Every workload is a closed loop with one client: the next chunk is
offered as soon as the program's in-flight window (or, for the volume,
the previous call) admits it.  Chunk counts are part of the workload's
definition — a result is only comparable with another taken at the same
counts — and were chosen against the program's own caches:

* ``PipelineConfig.bin_buffer_total`` is 8192 entries and no bin flushes
  below ~16 k unique chunks, so ``desc_fit`` (8192 chunks, ~4 k unique)
  *fits* and ``desc_steady`` (32 768 chunks, ~16.4 k unique) *exceeds*
  it — the only workload that times flush, bin-tree and GPU-bin traffic.
* ``tenant_mix`` gives the inline fingerprint cache 96 entries against a
  cold tenant whose working set is 65 536.
* the payload workloads sit on either side of the codec/hash memos:
  ``payload_cpu`` is half duplicates (memos hit), ``payload_gpu`` is
  mostly unique (memos bypassed).

The program is reached through nine public names only (see
:func:`load_program`); a later refactor that keeps them keeps this file.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import json
import math
import random
from pathlib import Path
from types import SimpleNamespace
from typing import Any

from e2ebench.hostclock import Recorder

CHUNK_BYTES = 4096

_ENTRY_POINTS = {
    "run_mode": "repro.core.calibration",
    "IntegrationMode": "repro.core.modes",
    "PipelineConfig": "repro.core.config",
    "TenantMix": "repro.tenancy.spec",
    "run_tenant_mix": "repro.tenancy.runner",
    "ReducedVolume": "repro.storage.volume",
    "ReadPipeline": "repro.core.readpath",
    "VdbenchStream": "repro.workload.vdbench",
    "Environment": "repro.sim",
}


def load_program() -> SimpleNamespace:
    """Import the nine entry points (the benchmark's whole view of src/)."""
    return SimpleNamespace(**{
        name: getattr(importlib.import_module(module), name)
        for name, module in _ENTRY_POINTS.items()})


def flatten(value: Any, prefix: str = "") -> dict[str, float]:
    """Numeric leaves of a report as ``{"dotted.key": number}``.

    Dataclasses and dicts nest by key, sequences by index; strings and
    ``None`` are context, not results, and are dropped.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        value = dataclasses.asdict(value)
    if isinstance(value, bool):
        return {prefix: int(value)}
    if isinstance(value, (int, float)):
        return {prefix: value}
    if isinstance(value, dict):
        items = ((str(key), item) for key, item in value.items())
    elif isinstance(value, (list, tuple)):
        items = ((str(index), item) for index, item in enumerate(value))
    else:
        return {}
    out: dict[str, float] = {}
    for key, item in items:
        out.update(flatten(item, f"{prefix}.{key}" if prefix else key))
    return out


@dataclasses.dataclass
class Outcome:
    """What one repetition produced, besides its timed regions."""

    #: Flattened public reports: the pinned-expectation compare's input.
    facts: dict[str, float]
    #: Operations (one chunk write or one chunk read) on the timed path.
    ops: int
    #: All of ``ops`` when any output check of the repetition failed.
    failed: int
    #: Simulated K IOPS (geometric mean over the modes run).
    sim_kiops: float
    #: Physical bytes per logical byte after the run.
    stored_per_user_byte: float
    #: Public report objects, for the traced run's program counters:
    #: "pipeline" ({mode: PipelineReport}), "tenancy", "volume",
    #: "read_report" — whichever the workload produces.
    reports: dict[str, Any]
    #: Human-readable reasons behind ``failed``.
    problems: list[str] = dataclasses.field(default_factory=list)


class Workload:
    name: str
    why: str
    #: One line on sizes relative to the program's caches (README table).
    sizing: str
    #: Operations on the timed path per repetition.
    ops: int
    #: Timed repetitions in a 10-second run (about 10 s of repetitions on
    #: the host this was written on).  Fixed rather than time-bound: the
    #: program's module-level caches grow from repetition to repetition
    #: (later ones cost ~2 % more each), so two runs compare only at the
    #: same count.
    reps_per_10s: int

    @property
    def expected(self) -> str:
        """Stem of the pinned-expectation file (shared by workloads that
        run the same sequence and so produce the same reports)."""
        return self.name

    def execute(self, program: SimpleNamespace, seed: int,
                rec: Recorder) -> Outcome:
        raise NotImplementedError

    #: True when the stream is the paper's (descriptor dials 2.0 / 2.0),
    #: so its simulated gains may be held against the paper's figures.
    paper_stream = False

    def companions(self, program: SimpleNamespace, seed: int) -> dict:
        """Extra ``{mode: PipelineReport}`` the traced run simulates."""
        return {}


@dataclasses.dataclass(frozen=True)
class PipelineWorkload(Workload):
    """``run_mode`` once per listed integration mode, each its own region."""

    name: str
    why: str
    sizing: str
    chunks: int
    modes: tuple[str, ...]
    reps_per_10s: int
    payload: bool = False
    dedup_ratio: float = 2.0
    comp_ratio: float = 2.0
    #: Modes the traced run also simulates once, untimed, to fill the
    #: per-mode simulated throughput and the gap to the paper's figure.
    companion_modes: tuple[str, ...] = ()

    @property
    def ops(self) -> int:
        return self.chunks * len(self.modes)

    @property
    def paper_stream(self) -> bool:
        return (not self.payload and self.dedup_ratio == 2.0
                and self.comp_ratio == 2.0)

    def _run(self, program, mode: str, seed: int):
        return program.run_mode(
            program.IntegrationMode(mode), self.chunks, seed=seed,
            dedup_ratio=self.dedup_ratio, comp_ratio=self.comp_ratio,
            payload=self.payload)

    def companions(self, program, seed: int) -> dict:
        return {mode: self._run(program, mode, seed)
                for mode in self.companion_modes}

    def execute(self, program, seed, rec):
        reports = {}
        for mode in self.modes:
            with rec.timed(mode):
                reports[mode] = self._run(program, mode, seed)
        return _pipeline_outcome(self, {"pipeline": reports},
                                 flatten(reports))


@dataclasses.dataclass(frozen=True)
class TenantWorkload(Workload):
    """A hot and a cold tenant through the prioritized admission path."""

    name: str
    why: str
    sizing: str
    chunks: int
    mode: str
    cache_entries: int
    reps_per_10s: int
    mix_file: str = "tenant_mix.json"

    @property
    def ops(self) -> int:
        return self.chunks

    def _mix_spec(self, seed: int) -> dict:
        """The committed mix with every RNG seed shifted by ``seed``."""
        path = Path(__file__).parent / "inputs" / self.mix_file
        spec = json.loads(path.read_text())
        spec["seed"] += seed
        for tenant in spec["tenants"]:
            tenant["seed"] += seed
        return spec

    def execute(self, program, seed, rec):
        with rec.prep():
            mix = program.TenantMix.from_dict(self._mix_spec(seed))
            config = program.PipelineConfig(
                tenancy_policy="prioritized",
                tenancy_cache_entries=self.cache_entries)
        with rec.timed(self.mode):
            report = program.run_tenant_mix(
                mix, program.IntegrationMode(self.mode), self.chunks,
                base_config=config)
        return _pipeline_outcome(
            self,
            {"pipeline": {self.mode: report.pipeline}, "tenancy": report},
            flatten(report.as_dict()))


def _pipeline_outcome(workload, reports: dict, facts: dict) -> Outcome:
    runs = reports["pipeline"]
    problems = [
        f"{mode}: report covers {report.chunks} chunks, "
        f"expected {workload.chunks}"
        for mode, report in runs.items() if report.chunks != workload.chunks]
    log_kiops = [math.log(report.iops / 1e3) for report in runs.values()]
    stored = [1.0 / report.reduction_ratio for report in runs.values()]
    return Outcome(
        facts=facts, ops=workload.ops,
        failed=workload.ops if problems else 0,
        sim_kiops=math.exp(sum(log_kiops) / len(log_kiops)),
        stored_per_user_byte=sum(stored) / len(stored),
        reports=reports, problems=problems)


@dataclasses.dataclass(frozen=True)
class VolumeWorkload(Workload):
    """``ReducedVolume`` with real bytes, checked against a dict model.

    One sequence, two workloads: fill → overwrite random offsets →
    verified random reads → ``restart()`` + ``scrub()`` +
    ``verify_invariants()`` → more verified reads → one
    ``ReadPipeline.run`` over the same offsets.  ``volume_write`` clocks
    the two write phases (the reads are its output check);
    ``volume_read`` clocks everything after them (the writes are its
    preparation, charged to ``setup_s``).  Payloads are generated
    outside any timed region.
    """

    name: str
    why: str
    sizing: str
    timed: str  # "write" or "read"
    reps_per_10s: int = 3
    fill: int = 1536
    overwrite: int = 512
    reads_a: int = 3072
    reads_b: int = 1024

    expected = "volume_rw"

    @property
    def ops(self) -> int:
        if self.timed == "write":
            return self.fill + self.overwrite
        return self.reads_a + self.reads_b

    def execute(self, program, seed, rec):
        size = CHUNK_BYTES
        with rec.prep():
            stream = program.VdbenchStream(dedup_ratio=2.0, comp_ratio=2.0,
                                           seed=seed, payload=True)
            payloads = [chunk.payload for chunk
                        in stream.chunks(self.fill + self.overwrite)]
            rng = random.Random(seed)
            over_offsets = [rng.randrange(self.fill) * size
                            for _ in range(self.overwrite)]
            read_offsets = [rng.randrange(self.fill) * size
                            for _ in range(self.reads_a)]
            volume = program.ReducedVolume()
        model: dict[int, bytes] = {}
        write_phase = rec.timed if self.timed == "write" else _as_prep(rec)
        read_phase = rec.timed if self.timed == "read" else _unclocked

        with write_phase("fill"):
            for index in range(self.fill):
                volume.write(index * size, payloads[index])
        with write_phase("overwrite"):
            for offset, payload in zip(over_offsets, payloads[self.fill:]):
                volume.write(offset, payload)
        for index in range(self.fill):
            model[index * size] = payloads[index]
        for offset, payload in zip(over_offsets, payloads[self.fill:]):
            model[offset] = payload

        mismatches = 0
        with read_phase("reads_a"):
            for offset in read_offsets:
                if volume.read(offset, size) != model[offset]:
                    mismatches += 1
        with read_phase("restart_scrub"):
            volume.restart()
            scrub = volume.scrub()
            volume.engine.metadata.verify_invariants()
        with read_phase("reads_b"):
            for offset in read_offsets[:self.reads_b]:
                if volume.read(offset, size) != model[offset]:
                    mismatches += 1
        with read_phase("readpath"):
            read_report = program.ReadPipeline(
                program.Environment(), volume.engine.metadata
            ).run(read_offsets)

        problems = []
        if mismatches:
            problems.append(f"{mismatches} reads differ from the model")
        if scrub["verified"] != scrub["scanned"] or \
                scrub["scanned"] != self.fill:
            problems.append(f"scrub verified {scrub['verified']} of "
                            f"{scrub['scanned']} (expected {self.fill})")
        if read_report.reads != self.reads_a:
            problems.append(f"read path served {read_report.reads} reads")
        scrub_counts = {key: value for key, value in scrub.items()
                        if isinstance(value, int)}
        facts = flatten({
            "volume": volume.metrics().snapshot(),
            "destaged_bytes": volume.destaged_bytes,
            "scrub": scrub_counts,
            "readpath": read_report,
            "readpath_iops": read_report.iops,
        })
        return Outcome(
            facts=facts, ops=self.ops,
            failed=self.ops if problems else 0,
            sim_kiops=read_report.iops / 1e3,
            stored_per_user_byte=(volume.physical_bytes
                                  / volume.logical_bytes),
            reports={"volume": volume, "read_report": read_report},
            problems=problems)


def _as_prep(rec: Recorder):
    return lambda _name: rec.prep()


def _unclocked(_name: str):
    return contextlib.nullcontext()


_ALL_MODES = ("gpu_both", "gpu_dedup", "gpu_comp", "cpu_only")

WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    PipelineWorkload(
        name="desc_fit", chunks=8192, modes=_ALL_MODES, reps_per_10s=5,
        why="descriptor mode, all four integration modes at the size the "
            "goldens pin: working set fits the bin buffer, host time is "
            "the sim event loop",
        sizing="4 x 8192 chunks, ~4 k unique < bin_buffer_total 8192: "
               "0 flushes"),
    PipelineWorkload(
        name="desc_steady", chunks=32768, modes=("gpu_both",),
        reps_per_10s=4,
        companion_modes=("gpu_dedup", "gpu_comp", "cpu_only"),
        why="descriptor mode past the bin buffer: the only workload that "
            "times bin flush, bin-tree and GPU-bin installs and destage",
        sizing="32 768 chunks, ~16.4 k unique > bin_buffer_total 8192: "
               "~160 flushes, GPU-bin and bin-tree hits"),
    PipelineWorkload(
        name="payload_cpu", chunks=2048, modes=("cpu_only",), payload=True,
        reps_per_10s=5,
        why="real bytes on the CPU codec with half the chunks duplicate: "
            "QuickLZ encode and content generation dominate, memos hit",
        sizing="2048 chunks, dedup 2.0: ~1 k unique, hash/codec/result "
               "memos (512-4096 entries) hit on the rest"),
    PipelineWorkload(
        name="payload_gpu", chunks=768, modes=("gpu_comp",), payload=True,
        reps_per_10s=3,
        dedup_ratio=1.2, comp_ratio=3.0,
        why="real bytes, mostly unique and highly compressible: the memos "
            "are bypassed and time sits in the GPU LZ kernel and "
            "post-processing",
        sizing="768 chunks, dedup 1.2: ~610 unique, 8 segments each, "
               "3 launches of <=256"),
    VolumeWorkload(
        name="volume_write", timed="write",
        why="ReducedVolume fill and overwrite with real bytes, read back "
            "against a dict model: an encode-side gain that loses data or "
            "ratio shows",
        sizing="1536-chunk fill + 512 overwrites (refcount drops), "
               "bin_buffer_total 4096"),
    VolumeWorkload(
        name="volume_read", timed="read",
        why="verified random reads, restart, scrub and the simulated read "
            "path over the same volume: a write-side gain paid for on "
            "reads shows",
        sizing="3072 + 1024 verified 4 KiB reads of a 1536-chunk volume, "
               "across a restart"),
    TenantWorkload(
        name="tenant_mix", chunks=16384, mode="gpu_comp", cache_entries=96,
        reps_per_10s=7,
        why="hot and cold tenant through prioritized admission and "
            "compaction: the third branch of the chunk worker",
        sizing="16 384 chunks; inline cache 96 entries << cold working "
               "set 65 536"),
)}
