"""Functional-plane windows: how many chunks are drawn, hashed and
admitted as one window.

A Python frame per chunk per stage is measurable at descriptor-mode
benchmark scale, where millions of chunks are pure accounting.  So the
untimed functional work runs a *window* at a time: a workload stream
builds a window's slotted :class:`~repro.types.Chunk` objects in one
``next_batch`` call, and the feeder hashes it in one
``fingerprint_window`` pass.  Admission below stays per chunk.

Invariant (DESIGN.md §12): a window is *element-wise equal* to the
chunks a per-chunk construction would produce (the oracles in
``tests/reference_paths.py``) — windowing is a grouping, never a
semantic change.  REP504 patrols the modules of this plane for
regressions to per-chunk loops.

The module sits beside :mod:`repro.types` (not under ``repro.core``) so
the workload generators can size their windows without importing the
core package — ``repro.core.calibration`` imports the workload layer,
and the window size inside ``repro.core`` would close an import cycle.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator

from repro.types import Chunk

__all__ = ["FUNCTIONAL_WINDOW", "iter_windows", "window_sizes"]

#: Chunks per functional-plane window: the pipeline feeder and both
#: workload streams' ``chunks()`` build this many at a time.
#: Only untimed functional work is batched, so no report depends on it
#: (DESIGN.md §12); the equivalence suite patches it to prove that.
FUNCTIONAL_WINDOW = 64


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
