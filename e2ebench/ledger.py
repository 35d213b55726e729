"""Per-layer host-time ledger, taken from outside the program.

Two passes over one repetition, both without editing ``src/``:

*Span pass* — :class:`SpanLedger` replaces a fixed list of public,
non-generator entry points with timing wrappers (``from``-imported
copies of module-level functions are rebound too) and restores them
afterwards.  A span is ``[target, parent, start, end]``; a layer's self
time is its spans' duration minus their direct children's.  Generator
bodies (``core``'s chunk worker, ``cpu``/``storage`` sim processes) run
inside ``Environment.run`` and cannot be split from ``sim`` by time from
outside; the count pass splits them by calls.

*Count pass* — :func:`layer_call_counts` groups a ``cProfile`` run by
``repro/<package>``.  Built-ins and library functions have no layer of
their own: their calls are charged to the layers of their callers, in
proportion to the caller→callee call counts.  The totals depend only on
the inputs, so they repeat exactly between processes.

A target that no longer resolves is reported once and skipped — its
metrics go absent, the benchmark keeps running.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import warnings
from typing import Any, Iterable, Optional

LAYERS = ("workload", "dedup", "compression", "gpu", "cpu", "sim",
          "storage", "core", "tenancy", "obs")

#: ``module:qualname`` of every wrapped entry point.  All are plain
#: functions or methods that return when their work is done.
TARGETS = (
    "repro.core.pipeline:ReductionPipeline.run",
    "repro.core.readpath:ReadPipeline.run",
    "repro.sim.engine:Environment.run",
    "repro.workload.vdbench:VdbenchStream.next_batch",
    "repro.workload.vdbench:VdbenchStream.next_chunk",
    "repro.dedup.hashing:fingerprint_window",
    "repro.dedup.hashing:fingerprint_chunk",
    "repro.dedup.engine:DedupEngine.cpu_index",
    "repro.dedup.engine:DedupEngine.cpu_index_partial",
    "repro.dedup.engine:DedupEngine.commit_unique",
    "repro.dedup.engine:DedupEngine.commit_duplicate",
    "repro.dedup.engine:DedupEngine.note_gpu_hit",
    "repro.dedup.gpu_index:GpuBinIndex.make_kernel",
    "repro.dedup.gpu_index:GpuBinIndex.record_results",
    "repro.dedup.gpu_index:GpuBinIndex.install_views",
    "repro.compression.parallel_cpu:CpuCompressor.compress",
    "repro.compression.parallel_cpu:CpuCompressor.compress_window",
    "repro.compression.parallel_cpu:CpuCompressor.decompress",
    "repro.compression.gpu_lz:GpuCompressor.make_kernel",
    "repro.compression.gpu_lz:GpuCompressor.split_results",
    "repro.compression.gpu_lz:GpuCompressor.postprocess",
    "repro.gpu.kernels.lz:SegmentLzKernel.execute",
    "repro.gpu.kernels.lz:DescriptorLzKernel.execute",
    "repro.gpu.kernels.indexing:BinLookupKernel.execute",
    "repro.gpu.kernels.indexing_tiled:TiledBinLookupKernel.execute",
    "repro.storage.ftl:Ftl.write",
    "repro.storage.ftl:Ftl.write_run",
    "repro.storage.metadata:MetadataStore.resolve",
    "repro.storage.metadata:MetadataStore.lookup",
    "repro.storage.metadata:MetadataStore.store_unique",
    "repro.storage.metadata:MetadataStore.map_logical",
    "repro.storage.volume:ReducedVolume.write",
    "repro.storage.volume:ReducedVolume.read",
    "repro.storage.volume:ReducedVolume.restart",
    "repro.storage.volume:ReducedVolume.scrub",
    "repro.tenancy.controller:TenancyController.admit",
    "repro.tenancy.controller:TenancyController.apply_compaction",
)

#: Wrappers that also remember an object of the call, so the traced run
#: can read its *public* statistics afterwards: ``(argument, key)``.
CAPTURES = {
    "repro.core.pipeline:ReductionPipeline.run": (0, "pipeline"),
    "repro.workload.vdbench:VdbenchStream.next_batch": (0, "stream"),
    "repro.dedup.hashing:fingerprint_window": ("memo", "hash_memo"),
}


def layer_of_module(module: str) -> Optional[str]:
    """``repro.<package>...`` → layer; top-level modules count as core."""
    parts = module.split(".")
    if parts[0] != "repro":
        return None
    if len(parts) > 1 and parts[1] in LAYERS:
        return parts[1]
    return "core"


def short_name(target: str) -> str:
    return target.split(":", 1)[1]


class SpanLedger:
    """Installs the wrappers, collects spans, computes self times."""

    def __init__(self, targets: Iterable[str] = TARGETS):
        self.targets = tuple(targets)
        #: ``[target index, parent span index, start, end]``.
        self.spans: list[list] = []
        #: Captured objects per key, in first-seen order.
        self.captured: dict[str, list] = {}
        self.missing: list[str] = []
        self._stack = [-1]
        self._undo: list[tuple[Any, str, Any, bool]] = []

    # -- install / remove ---------------------------------------------------

    def install(self) -> None:
        for index, target in enumerate(self.targets):
            try:
                owner, attr, original = _resolve(target)
            except (ImportError, AttributeError) as exc:
                self.missing.append(target)
                warnings.warn(f"e2ebench: wrap target {target} not found "
                              f"({exc}); its metrics will be absent")
                continue
            wrapper = self._wrap(original, index, CAPTURES.get(target))
            self._bind(owner, attr, wrapper)
            if not isinstance(owner, type):
                # ``from module import fn`` copies the binding: rebind
                # every loaded repro module that holds the original.
                for module in list(sys.modules.values()):
                    name = getattr(module, "__name__", "")
                    if module is owner or not name.startswith("repro"):
                        continue
                    if module.__dict__.get(attr) is original:
                        self._bind(module, attr, wrapper)

    def _bind(self, owner: Any, attr: str, wrapper: Any) -> None:
        own = attr in vars(owner)
        self._undo.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, wrapper)

    def remove(self) -> None:
        while self._undo:
            owner, attr, original, own = self._undo.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "SpanLedger":
        self.install()
        return self

    def __exit__(self, *_exc) -> None:
        self.remove()

    def _wrap(self, fn, index: int, capture):
        spans = self.spans
        stack = self._stack
        captured = self.captured
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if capture is not None:
                where, key = capture
                found = (kwargs.get(where) if isinstance(where, str)
                         else args[where] if len(args) > where else None)
                if found is not None:
                    seen = captured.setdefault(key, [])
                    if all(item is not found for item in seen):
                        seen.append(found)
            span = [index, stack[-1], clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        return wrapper

    def rows(self, repetition: int) -> list[dict]:
        """Spans as JSON rows (name, layer, start, end, parent, rep)."""
        return [{"id": i, "name": short_name(self.targets[t]),
                 "layer": layer_of_module(self.targets[t].split(":")[0]),
                 "start": start, "end": end, "parent": parent,
                 "rep": repetition}
                for i, (t, parent, start, end) in enumerate(self.spans)]


def _resolve(target: str) -> tuple[Any, str, Any]:
    """``module:Class.method`` → (owner object, attribute, function)."""
    module_name, qualname = target.split(":", 1)
    owner: Any = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


class SpanSummary:
    """Self and inclusive times of the spans inside the timed regions."""

    def __init__(self) -> None:
        self.wall = 0.0
        self.covered = 0.0
        self.self_s: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        #: Per target short name: the duration of every call.
        self.durations: dict[str, list[float]] = {}
        self._top: list[tuple[str, frozenset, float]] = []

    @property
    def coverage(self) -> float:
        return self.covered / self.wall if self.wall else 0.0

    def group(self, *names: str) -> float:
        """Inclusive seconds of the named targets, nested calls of the
        same group counted once (``compress_window`` → ``compress``)."""
        wanted = set(names)
        return sum(duration for name, ancestors, duration in self._top
                   if name in wanted and not (ancestors & wanted))

    def calls(self, *names: str) -> int:
        return sum(len(self.durations.get(name, ())) for name in names)


def summarize_spans(spans: list[list], targets: tuple[str, ...],
                    regions: list[tuple[float, float]]) -> SpanSummary:
    """Fold spans into per-layer self time over the timed ``regions``.

    A root span belongs to the region its start falls in; descendants
    follow their root.  Spans outside every region (preparation, output
    checks) are ignored.
    """
    summary = SpanSummary()
    summary.wall = sum(end - start for start, end in regions)
    names = [short_name(target) for target in targets]
    layers = [layer_of_module(target.split(":")[0]) for target in targets]
    inside: list[bool] = []
    ancestors: list[frozenset] = []
    #: Ancestor names of a span's children, built once per parent.
    below: dict[int, frozenset] = {-1: frozenset()}
    child_time = [0.0] * len(spans)
    for target, parent, start, end in spans:
        if parent < 0:
            keep = any(lo <= start <= hi for lo, hi in regions)
        else:
            keep = inside[parent]
            child_time[parent] += end - start
            if parent not in below:
                below[parent] = \
                    ancestors[parent] | {names[spans[parent][0]]}
        inside.append(keep)
        ancestors.append(below[parent])
    for index, (target, parent, start, end) in enumerate(spans):
        if not inside[index]:
            continue
        duration = end - start
        if parent < 0:
            summary.covered += duration
        summary.self_s[layers[target]] += duration - child_time[index]
        summary.durations.setdefault(names[target], []).append(duration)
        summary._top.append((names[target], ancestors[index], duration))
    return summary


# -- count pass -----------------------------------------------------------------

_HARNESS = "harness"


def _code_layer(code) -> Optional[str]:
    """Layer of a profiled code object; None for library code/built-ins."""
    if isinstance(code, str):
        return None
    filename = code.co_filename.replace("\\", "/")
    if "/e2ebench/" in filename:
        return _HARNESS
    marker = "/repro/"
    at = filename.rfind(marker)
    if at < 0:
        return None
    rest = filename[at + len(marker):-len(".py")].split("/")
    return layer_of_module(".".join(["repro", *rest]))


def layer_call_counts(stats: list) -> tuple[dict[str, float], dict[str, int]]:
    """``cProfile`` stats → (calls per layer, calls per repro function).

    ``stats`` is ``cProfile.Profile.getstats()``.  Every call lands in
    exactly one layer: repro functions in their package's, everything
    else in its callers' (transitively, weighted by call counts).  The
    benchmark's own frames are dropped.
    """
    own: dict[Any, Optional[str]] = {}
    count: dict[Any, int] = {}
    callers: dict[Any, list[tuple[Any, int]]] = {}
    by_name: dict[str, int] = {}
    for entry in stats:
        key = entry.code
        own[key] = _code_layer(key)
        count[key] = entry.callcount
        if own[key] not in (None, _HARNESS):
            rest = key.co_filename.replace("\\", "/").rsplit("/repro/", 1)[1]
            by_name[f"{rest}:{key.co_qualname}"] = entry.callcount
        for sub in entry.calls or ():
            callers.setdefault(sub.code, []).append((key, sub.callcount))

    weights: dict[Any, dict[str, float]] = {
        key: {layer: 1.0} for key, layer in own.items() if layer}
    library = [key for key, layer in own.items() if layer is None]
    for _ in range(32):  # library call chains are shallow; 32 is ample
        changed = False
        for key in library:
            mix: dict[str, float] = {}
            for caller, calls in callers.get(key, ()):
                for layer, share in weights.get(caller, {}).items():
                    mix[layer] = mix.get(layer, 0.0) + calls * share
            total = sum(mix.values())
            if not total:
                continue
            mix = {layer: value / total for layer, value in mix.items()}
            if mix != weights.get(key):
                weights[key] = mix
                changed = True
        if not changed:
            break

    per_layer = {layer: 0.0 for layer in LAYERS}
    for key, calls in count.items():
        for layer, share in weights.get(key, {}).items():
            if layer in per_layer:
                per_layer[layer] += calls * share
    return per_layer, by_name
