"""Block-device request model.

Minimal but explicit: a request has a kind, a byte offset, a size, and a
sequentiality hint (set by the destage path for bin-buffer flushes, which
the paper deliberately shapes into "appropriate sequential writes for the
SSD").
"""

from __future__ import annotations

import enum

from repro.errors import BlockRangeError


class RequestKind(enum.Enum):
    """What a block request asks the device to do."""

    READ = "read"
    WRITE = "write"


class BlockRequest:
    """One I/O submitted to a block device.

    A plain slotted class, built once per destaged write at about a
    third of a frozen dataclass's construction cost.  Treat it as
    immutable.
    """

    __slots__ = ("kind", "offset", "size", "sequential")

    def __init__(self, kind: RequestKind, offset: int, size: int,
                 sequential: bool = False):
        if offset < 0:
            raise BlockRangeError(f"negative offset {offset}")
        if size <= 0:
            raise BlockRangeError(f"non-positive size {size}")
        self.kind = kind
        self.offset = offset
        self.size = size
        #: True when the submitter knows this continues a sequential stream.
        self.sequential = sequential

    @property
    def end(self) -> int:
        """First byte past the request."""
        return self.offset + self.size

    def validate_against(self, capacity_bytes: int) -> None:
        """Raise unless the request fits the device."""
        if self.end > capacity_bytes:
            raise BlockRangeError(
                f"{self.kind.value} [{self.offset}, {self.end}) exceeds "
                f"device capacity {capacity_bytes}")
