"""Stream chunker: fixed 4 KiB chunks, one per block-storage I/O."""

from __future__ import annotations

from typing import Iterator

from repro.errors import ChunkingError
from repro.types import Chunk, DEFAULT_CHUNK_SIZE


class FixedChunker:
    """Cut a stream into fixed-size chunks (last one may be short)."""

    __slots__ = ("chunk_size",)

    def __init__(self, chunk_size: int = DEFAULT_CHUNK_SIZE):
        if chunk_size < 1:
            raise ChunkingError(f"invalid chunk size {chunk_size}")
        self.chunk_size = chunk_size

    def chunk(self, data: bytes, base_offset: int = 0) -> Iterator[Chunk]:
        """Yield chunks covering ``data`` in order."""
        for start in range(0, len(data), self.chunk_size):
            payload = data[start:start + self.chunk_size]
            yield Chunk(offset=base_offset + start, size=len(payload),
                        payload=payload)
