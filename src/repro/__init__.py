"""repro — parallel inline data reduction for SSD primary storage.

A from-scratch reproduction of Ma & Park, *Parallelizing Inline Data
Reduction Operations for Primary Storage Systems* (PaCT 2017): bin-based
deduplication and segment-parallel LZ compression spread across a
multi-core CPU and a GPU, with the whole testbed (CPU, GPU, PCIe, SSD)
provided as functional + timed simulators so the paper's evaluation
reruns on any machine.

Quick taste (functional volume)::

    from repro import ReducedVolume

    volume = ReducedVolume()
    volume.write(0, b"hello world" * 1024)
    volume.write(65536, b"hello world" * 1024)   # deduplicates
    assert volume.read(0, 4096) == (b"hello world" * 1024)[:4096]
    print(volume.reduction_ratio())

Quick taste (timed evaluation)::

    from repro.core import IntegrationMode
    from repro.core.calibration import run_mode

    report = run_mode(IntegrationMode.GPU_COMP, n_chunks=8192)
    print(f"{report.iops / 1e3:.1f} K IOPS")

See DESIGN.md for the architecture and EXPERIMENTS.md for the
paper-vs-measured record.
"""

# Re-exports are lazy (PEP 562): importing a substrate package such as
# ``repro.sim`` must not load the pipeline (and numpy) above it.
_EXPORTS = {
    "calibrate_mode": "repro.core.calibration",
    "run_mode": "repro.core.calibration",
    "PipelineConfig": "repro.core.config",
    "IntegrationMode": "repro.core.modes",
    "ReductionPipeline": "repro.core.pipeline",
    "PipelineReport": "repro.core.stats",
    "ReproError": "repro.errors",
    "ReducedVolume": "repro.storage.volume",
    "Chunk": "repro.types",
    "DEFAULT_CHUNK_SIZE": "repro.types",
    "VdbenchStream": "repro.workload.vdbench",
}

__version__ = "1.0.0"


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    import importlib
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))

__all__ = [
    "calibrate_mode",
    "run_mode",
    "PipelineConfig",
    "IntegrationMode",
    "ReductionPipeline",
    "PipelineReport",
    "ReproError",
    "ReducedVolume",
    "Chunk",
    "DEFAULT_CHUNK_SIZE",
    "VdbenchStream",
    "__version__",
]
