"""Hashing stage: SHA-1 fingerprints for chunks.

"There is no data dependency between chunks when the hash value of the
chunk is calculated" — the stage is embarrassingly parallel, so the timed
pipeline simply runs one hashing task per chunk on the CPU's thread pool.
The paper keeps hashing on the CPU in every integration mode.

This module holds the *functional* half: computing (payload mode) or
accepting (descriptor mode) the fingerprint.
"""

from __future__ import annotations

import hashlib

from repro.errors import DedupError
from repro.types import Chunk

__all__ = ["fingerprint_chunk", "fingerprint_window", "payload_fingerprint"]


def payload_fingerprint(data: bytes) -> bytes:
    """SHA-1 content fingerprint of ``data``: the dedup index's key."""
    return hashlib.sha1(data).digest()


def fingerprint_window(chunks: list[Chunk]) -> list[bytes]:
    """Set and return the SHA-1 fingerprint of every chunk in a window.

    Payload mode hashes the real bytes.  Descriptor mode requires the
    workload generator to have supplied a synthetic fingerprint already
    (duplicates share fingerprints, so indexing still behaves for real);
    a chunk without one raises :class:`~repro.errors.DedupError`.
    """
    out: list[bytes] = []
    append = out.append
    for chunk in chunks:
        payload = chunk.payload
        if payload is not None:
            fingerprint = payload_fingerprint(payload)
            chunk.fingerprint = fingerprint
        else:
            fingerprint = chunk.fingerprint
            if fingerprint is None:
                raise DedupError(
                    f"descriptor-mode chunk at offset {chunk.offset} "
                    "arrived at the hashing stage without a synthetic "
                    "fingerprint")
        append(fingerprint)
    return out


def fingerprint_chunk(chunk: Chunk) -> bytes:
    """:func:`fingerprint_window` of one chunk (a volume write's hash)."""
    return fingerprint_window([chunk])[0]
