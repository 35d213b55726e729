"""Page-mapped log-structured FTL with greedy garbage collection.

The SSD timing model (:mod:`~repro.storage.ssd`) answers "how long does
an I/O take"; this module answers the *endurance* question properly:
flash erases in blocks but programs in pages, so overwrites invalidate
pages in place and a garbage collector must copy still-valid pages out
of victim blocks before erasing them.  Those copies are the write
amplification that multiplies NAND wear — and they explode as the
device fills, which is why inline data reduction (which keeps the
device emptier) pays *compound* endurance dividends: fewer host writes
AND a lower WA factor on each (experiment A14).

Deliberately classic: page-granularity mapping table, one open block
appended sequentially, greedy min-valid victim selection, erase counts
per block for wear reporting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigError, StorageError


@dataclass(frozen=True)
class FtlSpec:
    """Geometry of the managed flash."""

    blocks: int
    pages_per_block: int
    page_bytes: int = 4096
    #: GC starts when the free-block pool drops to this many.
    gc_low_water: int = 2

    def __post_init__(self) -> None:
        if min(self.blocks, self.pages_per_block, self.page_bytes) < 1:
            raise ConfigError("invalid FTL geometry")
        if not 1 <= self.gc_low_water < self.blocks:
            raise ConfigError(f"invalid gc_low_water {self.gc_low_water}")

    @property
    def total_pages(self) -> int:
        return self.blocks * self.pages_per_block


class _Block:
    __slots__ = ("index", "pages", "write_pointer", "valid", "erases")

    def __init__(self, index: int, pages_per_block: int):
        self.index = index
        #: lpn stored in each page, or None if invalid/unwritten.
        self.pages: list[Optional[int]] = [None] * pages_per_block
        self.write_pointer = 0
        self.valid = 0
        self.erases = 0

    def erase(self) -> None:
        self.pages = [None] * len(self.pages)
        self.write_pointer = 0
        self.valid = 0
        self.erases += 1


class Ftl:
    """Page-mapped FTL over ``spec.blocks`` flash blocks."""

    def __init__(self, spec: FtlSpec):
        self.spec = spec
        self._blocks = [_Block(i, spec.pages_per_block)
                        for i in range(spec.blocks)]
        self._free: list[int] = list(range(1, spec.blocks))
        self._open = self._blocks[0]
        #: lpn -> (block index, page index)
        self._mapping: dict[int, tuple[int, int]] = {}
        # -- wear statistics --
        self.host_pages_written = 0
        self.nand_pages_written = 0
        self.gc_copies = 0
        self.erases = 0

    # -- internals ---------------------------------------------------------

    def _invalidate(self, lpn: int) -> None:
        location = self._mapping.pop(lpn, None)
        if location is None:
            return
        block_index, page_index = location
        block = self._blocks[block_index]
        block.pages[page_index] = None
        block.valid -= 1

    def _program(self, lpn: int) -> None:
        """Append ``lpn`` to the open block, rolling blocks as needed."""
        if self._open.write_pointer >= self.spec.pages_per_block:
            self._roll_open_block()
        block = self._open
        page_index = block.write_pointer
        block.pages[page_index] = lpn
        block.write_pointer += 1
        block.valid += 1
        self._mapping[lpn] = (block.index, page_index)
        self.nand_pages_written += 1

    def _roll_open_block(self) -> None:
        if not self._free:
            self._collect()
        if not self._free:
            raise StorageError(
                "FTL out of space: garbage collection found no "
                "reclaimable block (device over-full)")
        self._open = self._blocks[self._free.pop()]

    def _collect(self) -> None:
        """Greedy GC: evacuate and erase min-valid closed blocks."""
        pages_per_block = self.spec.pages_per_block
        gc_low_water = self.spec.gc_low_water
        blocks = self._blocks
        free = self._free
        mapping_pop = self._mapping.pop
        while len(free) <= gc_low_water:
            # First minimum in block order — what min() over the closed
            # blocks picks — scanned explicitly so the hot path pays no
            # generator/lambda machinery, with an early exit at valid==0
            # (the key's floor, so the first such block *is* the min).
            open_block = self._open
            victim = None
            best = 0
            for block in blocks:
                if (block is open_block
                        or block.write_pointer != pages_per_block):
                    continue
                valid = block.valid
                if victim is None or valid < best:
                    victim = block
                    best = valid
                    if valid == 0:
                        break
            if victim is None:
                return
            if best >= pages_per_block:
                # Nothing reclaimable anywhere: every page valid.
                return
            survivors = [lpn for lpn in victim.pages if lpn is not None]
            victim.erase()
            self.erases += 1
            free.append(victim.index)
            # Survivor mappings still point at the erased block: drop
            # each and re-program it into the open log.
            for lpn in survivors:
                mapping_pop(lpn, None)
                self._program(lpn)
            self.gc_copies += len(survivors)

    # -- host interface -----------------------------------------------------

    def write(self, lpn: int) -> None:
        """Host write of one logical page."""
        if lpn < 0:
            raise ConfigError(f"invalid lpn {lpn}")
        self._invalidate(lpn)
        self._program(lpn)
        self.host_pages_written += 1
        if len(self._free) <= self.spec.gc_low_water:
            self._collect()

    def write_run(self, lpns: list[int]) -> None:
        """:meth:`write` per page, in order; A14 and e2ebench name it."""
        for lpn in lpns:
            self.write(lpn)

    # -- reporting --------------------------------------------------------

    @property
    def mapped_pages(self) -> int:
        return len(self._mapping)

    @property
    def utilization(self) -> float:
        """Fraction of raw pages holding valid data."""
        return self.mapped_pages / self.spec.total_pages

    def write_amplification(self) -> float:
        """NAND pages programmed per host page written."""
        if self.host_pages_written == 0:
            return 0.0
        return self.nand_pages_written / self.host_pages_written

    def check_invariants(self) -> None:
        """Structural cross-checks (test hook)."""
        for lpn, (block_index, page_index) in self._mapping.items():
            if self._blocks[block_index].pages[page_index] != lpn:
                raise StorageError(f"mapping for lpn {lpn} is stale")
        for block in self._blocks:
            valid = sum(1 for lpn in block.pages if lpn is not None)
            if valid != block.valid:
                raise StorageError(
                    f"block {block.index} valid-count drift")
