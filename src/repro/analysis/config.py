"""Rule scoping and configuration for ``repro lint``.

One :class:`LintConfig` instance gathers everything rule-specific that
is *project policy* rather than checker mechanics: which packages the
determinism rules patrol, which modules are schedule-critical, which
classes must be slotted, and the import layering contract.  Checkers
read their scope from here so a test (or a future PR) can re-scope a
rule without touching its implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path


def _module_matches(module: str, prefixes: tuple[str, ...]) -> bool:
    """True when ``module`` is one of ``prefixes`` or inside one of them."""
    return any(module == p or module.startswith(p + ".") for p in prefixes)


@dataclass
class LintConfig:
    """Project policy knobs consumed by the checkers."""

    #: Root against which diagnostic paths are reported (the repo root).
    root: Path = field(default_factory=Path.cwd)

    #: Rule ids to run; ``None`` means every registered rule.
    rules: tuple[str, ...] | None = None

    # -- determinism (REP101/REP102/REP103/REP104) -------------------------
    #: Packages whose behaviour feeds simulated schedules and reports:
    #: wall-clock reads and unseeded RNGs here break run-to-run identity.
    determinism_scope: tuple[str, ...] = (
        "repro.sim", "repro.core", "repro.dedup", "repro.compression",
        "repro.cpu", "repro.gpu", "repro.storage", "repro.workload",
        "repro.obs", "repro.cluster", "repro.tenancy",
    )
    #: Modules whose iteration order decides *dispatch* order.  Here even
    #: dict-view iteration is flagged, because feeding a view into a
    #: schedule-ordering decision couples the calendar to insertion
    #: history that refactors silently reorder.
    schedule_critical: tuple[str, ...] = (
        "repro.sim.engine", "repro.sim.resources",
        "repro.core.scheduler", "repro.core.batcher",
    )

    # -- sim protocol (REP201/REP203) -------------------------------
    #: Packages whose generator functions are simulation processes; a
    #: literal yield there is a protocol violation, not a data stream.
    process_scope: tuple[str, ...] = (
        "repro.sim", "repro.core", "repro.cpu", "repro.gpu",
        "repro.storage",
    )
    #: The only package allowed to touch the engine's private scheduling
    #: API (``_schedule`` / ``_trigger_now``).
    engine_private_scope: tuple[str, ...] = ("repro.sim",)

    # -- slots coverage (REP301) -------------------------------------------
    #: Hot-path modules whose classes are allocated by the million; every
    #: class here must declare ``__slots__`` (DESIGN.md §7).
    slots_modules: tuple[str, ...] = (
        "repro.sim.engine", "repro.sim.resources",
        "repro.types", "repro.cpu.model",
        # Dedup index plane: one instance per staged/stored fingerprint.
        "repro.dedup.engine", "repro.dedup.bins",
        "repro.dedup.bin_buffer", "repro.dedup.btree",
        "repro.dedup.gpu_index", "repro.dedup.index_base",
        "repro.dedup.replacement", "repro.dedup.chunking",
        "repro.storage.metadata",
        "repro.gpu.kernel", "repro.gpu.kernels.indexing",
        "repro.gpu.kernels.indexing_tiled",
    )

    # -- layering (REP401) --------------------------------------------------
    #: package -> the only ``repro.*`` prefixes it may import from.
    import_allowlist: dict[str, tuple[str, ...]] = field(
        default_factory=lambda: {
            "repro.sim": ("repro.errors", "repro.sim"),
            "repro.analysis": ("repro.errors", "repro.analysis"),
            # The tracer/metrics layer sits just above the engine:
            # instrumented subsystems import repro.obs, never the
            # reverse (it may only reach down to sim primitives).
            "repro.obs": ("repro.errors", "repro.sim", "repro.obs"),
        })
    #: (package, forbidden package) pairs.
    import_denylist: tuple[tuple[str, str], ...] = (
        ("repro.cpu", "repro.gpu"),
        ("repro.gpu", "repro.cpu"),
    )
    #: Leaf packages: package -> who may import it (besides itself).
    leaf_packages: dict[str, tuple[str, ...]] = field(
        default_factory=lambda: {
            "repro.bench": ("repro.cli", "repro.__main__"),
            "repro.analysis": ("repro.cli", "repro.__main__"),
        })

    # -- float-time hygiene (REP501) ---------------------------------------
    #: Scheduler/pipeline modules where ``==``/``!=`` on simulated-time
    #: expressions is flagged (accumulated float time is not exact).
    float_time_scope: tuple[str, ...] = (
        "repro.sim", "repro.core.pipeline", "repro.core.scheduler",
        "repro.core.batcher",
    )
    #: Attribute/variable names treated as simulated-time expressions.
    time_names: tuple[str, ...] = (
        "now", "_now", "deadline", "_deadline", "next_admission",
    )

    # -- observability hygiene (REP601) ------------------------------------
    #: Packages where ad-hoc ``env.now`` subtraction is flagged: derived
    #: timing belongs in the tracer (record_since/record_split).  The
    #: engine (repro.sim) and the tracer (repro.obs) own the clock and
    #: are out of scope by omission.
    now_arithmetic_scope: tuple[str, ...] = (
        "repro.core", "repro.cpu", "repro.gpu", "repro.storage",
        "repro.dedup", "repro.compression", "repro.workload",
        "repro.bench", "repro.cluster", "repro.tenancy",
    )

    # -- data-plane hot loops (REP502) -------------------------------------
    #: Packages whose inner loops touch payload bytes; a per-byte
    #: ``data[a+i] == data[b+i]`` match-extension loop there regresses
    #: the fast path (DESIGN.md §9).
    dataplane_scope: tuple[str, ...] = (
        "repro.compression", "repro.gpu.kernels",
    )

    # -- batched functional plane (REP504) ---------------------------------
    #: Modules whose functional work is window-batched; a per-chunk
    #: Python loop over a chunk sequence there regresses the batched
    #: plane (DESIGN.md §12).  Audited per-chunk sites (the window
    #: implementations themselves, the retained reference path, the
    #: timed admission loop) live in the baseline.
    batched_plane_scope: tuple[str, ...] = (
        "repro.core.pipeline", "repro.chunkbatch",
        "repro.dedup.hashing", "repro.workload.vdbench",
        "repro.cluster.router",
    )
    #: Bare names treated as chunk sequences when iterated.
    chunkseq_names: tuple[str, ...] = (
        "chunks", "window", "batch", "chunk_window",
    )

    # -- fingerprint decomposition (REP503) --------------------------------
    #: Packages where per-fingerprint ``int.from_bytes`` / slicing is
    #: flagged: derived fingerprint fields come from the
    #: :func:`repro.dedup.index_base.decompose` view.
    fp_decompose_scope: tuple[str, ...] = ("repro.dedup",)
    #: The one audited decomposition site, exempt by construction.
    fp_decompose_exempt: tuple[str, ...] = ("repro.dedup.index_base",)
    #: Variable names treated as raw fingerprint bytes (any name
    #: containing "fingerprint" matches too).
    fingerprint_names: tuple[str, ...] = ("fp", "fps")

    # -- module-level shared state (REP704) ---------------------------------
    #: Packages whose module-level mutable bindings are REP704 hazards
    #: (state a future multiprocessing executor would silently fork).
    shared_state_scope: tuple[str, ...] = (
        "repro.core", "repro.compression", "repro.dedup",
        "repro.workload", "repro.sim", "repro.cpu", "repro.gpu",
        "repro.storage", "repro.chunkbatch", "repro.types",
        "repro.cluster", "repro.tenancy",
    )

    # -- cluster shard isolation (REP801) ----------------------------------
    #: The one package allowed to touch shard-private state directly;
    #: everywhere else the router and the NetLink mediate (DESIGN.md
    #: §14).
    cluster_private_scope: tuple[str, ...] = ("repro.cluster",)
    #: Attribute names that constitute shard-private state: per-shard
    #: reduction batteries and the executor's worker/pipe tables.
    cluster_private_attrs: tuple[str, ...] = (
        "_workers", "_connections", "_processes", "_engine",
        "_compressor",
    )

    # -- tenant isolation (REP901) -----------------------------------------
    #: The package whose tenant-private admission state is off limits
    #: elsewhere.
    tenancy_private_scope: tuple[str, ...] = ("repro.tenancy",)
    #: Attribute names that constitute tenant-private state: estimator
    #: tables and sketch internals, cache partitions and quotas, the
    #: compaction canonical map, and the mix-level scheduling RNG.
    tenancy_private_attrs: tuple[str, ...] = (
        "_estimators", "_admissions", "_sched_rng", "_partitions",
        "_quotas", "_ring", "_counts", "_recent", "_canonical",
    )

    def in_scope(self, module: str | None, prefixes: tuple[str, ...]) -> bool:
        """True when ``module`` falls under one of the scope prefixes."""
        if module is None:
            return False
        return _module_matches(module, prefixes)
