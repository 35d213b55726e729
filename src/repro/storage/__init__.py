"""Storage substrate: SSD model, chunk metadata, and the reduced volume.

The Samsung SSD 830 in the paper's testbed plays two roles: the destage
sink for unique compressed chunks, and the ~80 K-IOPS yardstick every
throughput figure is compared against.  :class:`~repro.storage.ssd.SsdModel`
reproduces both, with channel-level concurrency (a QD-1 4 KiB write sees
realistic NAND program latency; high queue depths reach the rated
throughput) plus NAND wear accounting used by the inline-vs-background
endurance experiment (A6).  A request is a byte count:
``write(nbytes, sequential)`` returns the write's end instant and
``read(nbytes)`` the timeout a reader yields; a size outside
``(0, capacity]`` is a :class:`~repro.errors.BlockRangeError`.

:mod:`~repro.storage.metadata` keeps the logical-to-chunk mapping and
refcounts that make deduplicated data reconstructable, and
:mod:`~repro.storage.volume` is the functional user-facing glue: a
block volume whose write path runs real dedup + compression and whose
read path provably returns the original bytes.
"""

from repro.storage.ftl import Ftl, FtlSpec
from repro.storage.metadata import ChunkRecord, MetadataStore
from repro.storage.ssd import SAMSUNG_SSD_830, SsdModel, SsdSpec


def __getattr__(name: str):
    # Lazy export: volume pulls in the dedup engine, which itself imports
    # storage.metadata — a cycle if resolved eagerly here (PEP 562).
    if name == "ReducedVolume":
        from repro.storage.volume import ReducedVolume
        return ReducedVolume
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Ftl",
    "FtlSpec",
    "ChunkRecord",
    "MetadataStore",
    "SAMSUNG_SSD_830",
    "SsdModel",
    "SsdSpec",
    "ReducedVolume",
]
