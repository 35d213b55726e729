"""Array-native chunk windows for the batched functional plane.

The per-chunk functional plane pays a Python frame, a dataclass
``__init__`` and a ``__post_init__`` validation per chunk — measurable
at descriptor-mode benchmark scale, where millions of chunks are pure
accounting.  A :class:`ChunkBatch` holds one *window* of chunks as
contiguous arrays (numpy ``int64`` offsets/sizes plus object columns
for payloads/fingerprints) and materializes slotted
:class:`~repro.types.Chunk` objects through a hoisted fast constructor
that skips the per-instance validation: the emitting stream builds
every column valid, and the per-chunk oracles (which do validate)
check that it does.

Invariant (DESIGN.md §12): a materialized window is *element-wise
equal* to the chunks a per-chunk construction would produce (the
oracles in ``tests/reference_paths.py``) — batching here is a layout
change, never a semantic one.  REP504 patrols the modules of this
plane for regressions to per-chunk loops.

The module sits beside :mod:`repro.types` (not under ``repro.core``) so
the workload generators can emit batches without importing the core
package — ``repro.core.calibration`` imports the workload layer, and a
batch container inside ``repro.core`` would close an import cycle.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.types import Chunk

__all__ = ["FUNCTIONAL_WINDOW", "ChunkBatch", "iter_windows",
           "window_sizes"]

#: Chunks per functional-plane window: the pipeline feeder and both
#: workload streams' ``chunks()`` materialize this many at a time.
#: Only untimed functional work is batched, so no report depends on it
#: (DESIGN.md §12); the equivalence suite patches it to prove that.
FUNCTIONAL_WINDOW = 64

#: Reusable empty columns for descriptor-only / payload-only windows.
_chunk_new = Chunk.__new__


class ChunkBatch:
    """One contiguous window of chunk descriptors.

    ``offsets`` and ``sizes`` are ``int64`` numpy arrays; ``payloads``,
    ``fingerprints`` and ``comp_ratios`` are per-chunk object columns
    (``None`` entries follow the same payload/descriptor-mode rules as
    :class:`~repro.types.Chunk`).
    """

    __slots__ = ("offsets", "sizes", "payloads", "fingerprints",
                 "comp_ratios")

    def __init__(self, offsets: np.ndarray, sizes: np.ndarray,
                 payloads: Sequence[Optional[bytes]],
                 fingerprints: Sequence[Optional[bytes]],
                 comp_ratios: Sequence[Optional[float]]):
        self.offsets = offsets
        self.sizes = sizes
        self.payloads = payloads
        self.fingerprints = fingerprints
        self.comp_ratios = comp_ratios

    def __len__(self) -> int:
        return len(self.sizes)

    # -- materialization ----------------------------------------------------

    def materialize(self) -> list[Chunk]:
        """Slotted :class:`Chunk` objects, element-wise equal to the
        per-chunk construction of the same descriptors.

        The fast constructor skips ``__post_init__``; ``tolist()``
        converts the numpy scalars back to plain ints so downstream
        accounting sums (and JSON report serialization) see native
        Python integers.
        """
        new = _chunk_new
        out = []
        append = out.append
        for offset, size, payload, fingerprint, comp_ratio in zip(
                self.offsets.tolist(), self.sizes.tolist(),
                self.payloads, self.fingerprints, self.comp_ratios):
            chunk = new(Chunk)
            chunk.offset = offset
            chunk.size = size
            chunk.payload = payload
            chunk.fingerprint = fingerprint
            chunk.comp_ratio = comp_ratio
            chunk.is_duplicate = None
            chunk.compressed_size = None
            chunk.tenant = None
            append(chunk)
        return out


def window_sizes(n: int) -> Iterator[int]:
    """Sizes of the successive functional windows covering ``n`` chunks."""
    while n > 0:
        take = FUNCTIONAL_WINDOW if FUNCTIONAL_WINDOW < n else n
        yield take
        n -= take


def iter_windows(chunks: Iterable[Chunk]) -> Iterator[list[Chunk]]:
    """Successive :data:`FUNCTIONAL_WINDOW`-sized lists from a chunk
    iterable.

    The feeder's materialization step: pulling a window up front lets
    the fingerprint pass run once per window instead of once per chunk,
    while admission below stays strictly per-chunk (the timed plane is
    untouched).
    """
    iterator = iter(chunks)
    while True:
        out = list(islice(iterator, FUNCTIONAL_WINDOW))
        if not out:
            return
        yield out
