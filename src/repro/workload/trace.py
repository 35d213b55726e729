"""I/O trace recording.

A trace is a list of (op, offset, size) records with optional submit
timestamps.  The recorder collects them from a running workload and
dumps them in a one-line-per-record text format that loads back.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from repro.errors import WorkloadError


@dataclass(frozen=True)
class TraceRecord:
    """One traced I/O."""

    op: str              # "write" | "read"
    offset: int
    size: int
    timestamp: Optional[float] = None

    def __post_init__(self) -> None:
        if self.op not in ("write", "read"):
            raise WorkloadError(f"unknown op {self.op!r}")
        if self.offset < 0 or self.size <= 0:
            raise WorkloadError(
                f"invalid extent [{self.offset}, +{self.size})")

    def to_line(self) -> str:
        """Serialize to the one-line text format."""
        stamp = "" if self.timestamp is None else f" {self.timestamp:.9f}"
        return f"{self.op} {self.offset} {self.size}{stamp}"

    @classmethod
    def from_line(cls, line: str) -> "TraceRecord":
        """Parse the one-line text format."""
        parts = line.split()
        if len(parts) not in (3, 4):
            raise WorkloadError(f"malformed trace line: {line!r}")
        timestamp = float(parts[3]) if len(parts) == 4 else None
        return cls(op=parts[0], offset=int(parts[1]), size=int(parts[2]),
                   timestamp=timestamp)


class TraceRecorder:
    """Accumulates trace records and round-trips them through text."""

    def __init__(self) -> None:
        self.records: list[TraceRecord] = []

    def record(self, op: str, offset: int, size: int,
               timestamp: Optional[float] = None) -> None:
        """Append one record."""
        self.records.append(TraceRecord(op, offset, size, timestamp))

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def dump(self, stream: io.TextIOBase) -> None:
        """Write the trace as text, one record per line."""
        for record in self.records:
            stream.write(record.to_line() + "\n")

    @classmethod
    def load(cls, stream: Iterable[str]) -> "TraceRecorder":
        """Read a text trace back."""
        recorder = cls()
        for line in stream:
            line = line.strip()
            if line and not line.startswith("#"):
                recorder.records.append(TraceRecord.from_line(line))
        return recorder

    def total_bytes(self, op: Optional[str] = None) -> int:
        """Bytes moved by the trace (optionally one op kind only)."""
        return sum(r.size for r in self.records
                   if op is None or r.op == op)
