"""Hashing stage: SHA-1 fingerprints for chunks.

"There is no data dependency between chunks when the hash value of the
chunk is calculated" — the stage is embarrassingly parallel, so the timed
pipeline simply runs one hashing task per chunk on the CPU's thread pool
(or batches them onto the GPU co-processor via
:class:`~repro.gpu.kernels.sha1.Sha1Kernel`).

This module holds the *functional* half: computing (payload mode) or
accepting (descriptor mode) the fingerprint.
"""

from __future__ import annotations

import hashlib

from repro.errors import DedupError
from repro.types import Chunk

__all__ = ["fingerprint_chunk", "fingerprint_batch", "fingerprint_window",
           "payload_fingerprint"]


def payload_fingerprint(data: bytes) -> bytes:
    """SHA-1 content fingerprint of ``data``: the dedup index's key."""
    return hashlib.sha1(data).digest()


def fingerprint_chunk(chunk: Chunk) -> bytes:
    """Set and return the chunk's SHA-1 fingerprint.

    Payload mode hashes the real bytes.  Descriptor mode requires the
    workload generator to have supplied a synthetic fingerprint already
    (duplicates share fingerprints, so indexing still behaves for real).
    """
    if chunk.payload is not None:
        chunk.fingerprint = payload_fingerprint(chunk.payload)
        return chunk.fingerprint
    if chunk.fingerprint is None:
        raise DedupError(
            f"descriptor-mode chunk at offset {chunk.offset} arrived at "
            "the hashing stage without a synthetic fingerprint")
    return chunk.fingerprint


def fingerprint_batch(chunks: list[Chunk]) -> list[bytes]:
    """Fingerprint many chunks (the natural unit for GPU offload)."""
    return [fingerprint_chunk(chunk) for chunk in chunks]


def fingerprint_window(chunks: list[Chunk]) -> list[bytes]:
    """One batched fingerprint pass over a functional-plane window.

    Semantically identical to calling :func:`fingerprint_chunk` on each
    chunk in order — same digests, same in-place ``chunk.fingerprint``
    assignment, same :class:`~repro.errors.DedupError` on an unhashable
    descriptor chunk — but with the hashlib/dispatch overhead hoisted
    out of the loop.
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
