"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still distinguishing the subsystem that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """An invariant of the discrete-event simulation was violated."""


class ResourceError(SimulationError):
    """Illegal use of a simulated resource (double release, bad capacity...)."""


class SanitizerError(SimulationError):
    """End-of-run sanitizer check failed (leaked slot, live process...)."""


class TraceError(ReproError):
    """The observability layer was misused (invalid span, unbound tracer,
    metric type conflict...)."""


class GpuError(ReproError):
    """Base class for errors in the simulated GPU substrate."""


class GpuMemoryError(GpuError):
    """Device memory allocation failed or an allocation was misused."""


class KernelError(GpuError):
    """A kernel was mis-launched or failed during simulated execution."""


class StorageError(ReproError):
    """Base class for errors in the storage substrate."""


class BlockRangeError(StorageError):
    """A block request fell outside the device's address space."""


class MetadataError(StorageError):
    """The logical-to-physical metadata became inconsistent."""


class DedupError(ReproError):
    """Base class for deduplication-engine errors."""


class IndexError_(DedupError):
    """A fingerprint-index operation failed.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`IndexError`, which has entirely different semantics.
    """


class ChunkingError(DedupError):
    """A chunker produced or was asked to produce invalid chunks."""


class CompressionError(ReproError):
    """Compression or decompression failed or produced invalid output."""


class CorruptStreamError(CompressionError):
    """A compressed stream could not be decoded."""


class ConfigError(ReproError):
    """An invalid configuration value was supplied."""


class WorkloadError(ReproError):
    """A workload generator was misconfigured."""
