"""The fingerprint representation every index in ``repro.dedup`` shares.

Every index variant (the CPU bin table, the GPU linear bins) answers the
same question: *have we stored a chunk with this fingerprint before?*

This module owns the **representation rule**: inside
``repro.dedup`` a fingerprint *is* its :class:`FingerprintView` — the
bin number (prefix) and the truncated suffix — and :func:`decompose` is
the single audited site that validates and slices the raw bytes.  The
two u64 lanes the GPU bins compare exist only in
the GPU arrays and in a ``LookupBatch`` (``gpu_index`` derives them
from suffix bytes one array pass at a time).
"""

from __future__ import annotations

from typing import NamedTuple

from repro.errors import IndexError_
from repro.types import FINGERPRINT_BYTES


def check_fingerprint(fingerprint: bytes) -> bytes:
    """Validate a fingerprint's type and length."""
    if not isinstance(fingerprint, (bytes, bytearray)):
        raise IndexError_(f"fingerprint must be bytes, got "
                          f"{type(fingerprint).__name__}")
    if len(fingerprint) != FINGERPRINT_BYTES:
        raise IndexError_(
            f"fingerprint must be {FINGERPRINT_BYTES} bytes, "
            f"got {len(fingerprint)}")
    return bytes(fingerprint)


class FingerprintView(NamedTuple):
    """One validated fingerprint as ``repro.dedup`` holds it.

    Any component holding a view may hand it to any other component
    with the same ``prefix_bytes``.
    """

    bin_id: int
    suffix: bytes


def decompose(fingerprint: bytes, prefix_bytes: int) -> FingerprintView:
    """Validated :class:`FingerprintView` for ``fingerprint``.

    Anything but a 20-byte ``bytes`` goes through
    :func:`check_fingerprint`, so every entry point raises the same
    errors (and a ``bytearray`` is still accepted).  The view is built
    with ``tuple.__new__``, skipping the NamedTuple's Python-level
    ``__new__``.
    """
    if type(fingerprint) is not bytes \
            or len(fingerprint) != FINGERPRINT_BYTES:
        fingerprint = check_fingerprint(fingerprint)
    return tuple.__new__(FingerprintView, (
        int.from_bytes(fingerprint[:prefix_bytes], "big"),
        fingerprint[prefix_bytes:]))
