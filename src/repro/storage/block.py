"""Block-device request model.

Minimal but explicit: a request has a kind, a byte offset, a size, and a
sequentiality hint (set by the destage path for bin-buffer flushes, which
the paper deliberately shapes into "appropriate sequential writes for the
SSD").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import BlockRangeError


class RequestKind(enum.Enum):
    """What a block request asks the device to do."""

    READ = "read"
    WRITE = "write"


@dataclass(frozen=True)
class BlockRequest:
    """One I/O submitted to a block device."""

    kind: RequestKind
    offset: int
    size: int
    #: True when the submitter knows this continues a sequential stream.
    sequential: bool = False

    def __post_init__(self) -> None:
        if self.offset < 0:
            raise BlockRangeError(f"negative offset {self.offset}")
        if self.size <= 0:
            raise BlockRangeError(f"non-positive size {self.size}")

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
