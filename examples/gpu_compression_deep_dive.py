#!/usr/bin/env python3
"""Inside the GPU compression path: segments, raw tokens, refinement.

Walks one 4 KiB chunk through the paper's §3.2 pipeline with everything
observable:

1. the segment-parallel LZ kernel hands back one search tile of raw
   token arrays — per-thread token counts, unrefined, as the GPU
   returns them — and how many matches and literals each segment holds;
2. CPU post-processing validates the tile and packs it into a canonical
   container that the ordinary LZSS decoder verifies;
3. the serial codec compresses the same chunk for a ratio comparison.

Run:  PYTHONPATH=src python examples/gpu_compression_deep_dive.py
"""

import numpy as np

from repro.compression import LzssCodec
from repro.compression.postprocess import refine_tile
from repro.gpu.kernels.lz import SegmentLzKernel
from repro.workload.datagen import BlockContentGenerator

SEGMENTS = 8


def main() -> None:
    content = BlockContentGenerator(target_ratio=2.0, seed=11)
    content.calibrate()
    chunk = content.make_block(4096, salt=0)

    print(f"chunk: 4096 B, target compression ratio ~2.0\n")

    # 1. Segment-parallel search: one tile, one thread per segment.
    kernel = SegmentLzKernel([chunk], segments_per_chunk=SEGMENTS)
    (tile,) = kernel.execute().tiles
    ends = np.cumsum(tile.counts)
    print(f"raw GPU output ({SEGMENTS} segment threads, "
          f"{int(tile.counts.sum())} tokens):")
    for segment, (end, count) in enumerate(zip(ends.tolist(),
                                               tile.counts.tolist())):
        matches = int(np.count_nonzero(tile.distances[end - count:end]))
        print(f"  segment {segment}: bytes "
              f"[{tile.seg_start[0, segment]:4d},"
              f"{tile.seg_end[0, segment]:4d})  {count:4d} tokens: "
              f"{matches:3d} matches, {count - matches:4d} literals")

    # 2. CPU refinement into the canonical container.
    (refined,) = refine_tile(tile)
    assert LzssCodec().decode(refined) == chunk, "round-trip failed!"
    print(f"\nCPU post-processing: {len(refined)} B container; the LZSS "
          f"decoder reproduces the chunk byte for byte")

    # 3. Against the serial parse.
    serial = LzssCodec().encode(chunk)
    print(f"\nratio comparison:")
    print(f"  serial LZSS        : {4096 / len(serial):.3f}x "
          f"({len(serial)} B)")
    print(f"  GPU {SEGMENTS}-segment path : {4096 / len(refined):.3f}x "
          f"({len(refined)} B)")
    loss = 1 - len(serial) / len(refined)
    print(f"  parallelism costs {abs(loss):.1%} of ratio — the paper's "
          "§3.2(2) trade for an ~8x shorter critical path")


if __name__ == "__main__":
    main()
