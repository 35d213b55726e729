"""I/O trace recording.

A trace is a list of (op, offset, size) records with optional submit
timestamps.  The recorder collects them from a running workload and
dumps them in a one-line-per-record text format.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Iterator, Optional

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


class TraceRecorder:
    """Accumulates trace records and dumps them as text."""

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

    def total_bytes(self, op: Optional[str] = None) -> int:
        """Bytes moved by the trace (optionally one op kind only)."""
        return sum(r.size for r in self.records
                   if op is None or r.op == op)
