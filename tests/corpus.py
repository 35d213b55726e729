"""The deterministic corpora the pins in ``tests/goldens.py`` are over.

Fixed forever: a golden digest is a digest of these exact bytes (the
codec corpus, the calibrated storage blocks) or of a run over these
exact windows (the cluster identity corpus).  Changing a byte here is a
re-pin of every table that reads it.
"""

from __future__ import annotations

import random
from typing import Callable

from repro.cluster import ClusterConfig
from repro.workload.datagen import BlockContentGenerator


def build_corpus() -> list[tuple[str, bytes]]:
    """The deterministic 4 KiB mixed corpus (plus adversarial tails).

    Fixed forever: the golden stream digests in ``tests/goldens.py`` are
    digests of *encodings of these exact bytes*.  Blocks cover the codec
    edge cases — all-zero runs, period-3 repeats, natural text,
    incompressible randomness, calibrated ratio-2.0 storage blocks, a
    seam-periodic block whose repeats straddle GPU segment boundaries,
    and sub-``min_match`` tails.
    """
    blocks: list[tuple[str, bytes]] = []
    blocks.append(("zeros", b"\x00" * 4096))
    blocks.append(("period3", (b"abc" * 1366)[:4096]))
    text = b"the quick brown fox jumps over the lazy dog. "
    blocks.append(("text", (text * 92)[:4096]))
    rng = random.Random(20170905)
    blocks.append(("random", bytes(rng.randrange(256)
                                   for _ in range(4096))))
    generator = BlockContentGenerator(2.0, seed=3)
    generator.calibrate()
    for salt in range(4):
        blocks.append((f"ratio2_{salt}",
                       generator.make_block(4096, salt=salt)))
    # Every 512-byte segment identical: matches reach backward across
    # the seams of an 8-segment GPU parse.
    seam_base = bytes(rng.randrange(256) for _ in range(512))
    blocks.append(("seam512", seam_base * 8))
    blocks.append(("tail2", b"ab"))
    blocks.append(("tail1", b"\xff"))
    return blocks


def storage_blocks(ratio: float, seed: int) -> Callable[[], list[bytes]]:
    """Maker of 256 calibrated ``ratio`` storage blocks: the texture the
    payload workloads of e2ebench generate and encode (the golden corpus
    — zeros, period-3, text — is not)."""
    generator = BlockContentGenerator(ratio, seed=seed)
    generator.calibrate()
    return lambda: [generator.make_block(4096, salt=salt)
                    for salt in range(256)]


def golden_config(nodes: int, executor: str = "serial",
                  **overrides) -> ClusterConfig:
    """The pinned cluster identity corpus at ``nodes`` shards (fixed
    forever: the merged-report digests in ``tests/goldens.py`` are over
    these exact windows)."""
    params = dict(nodes=nodes, executor=executor, chunks=1024, window=64,
                  seed=1234)
    params.update(overrides)
    return ClusterConfig(**params)
