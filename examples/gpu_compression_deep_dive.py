#!/usr/bin/env python3
"""Inside the GPU compression path: segments, divergence, refinement.

Walks one 4 KiB chunk through the paper's §3.2 pipeline with everything
observable:

1. the segment-parallel LZ kernel reports the wavefront-divergence
   statistics a lockstep execution of its threads burns (one work unit
   per token each thread emits), measured, not assumed;
2. the raw per-segment token arrays are shown (unrefined, as the GPU
   returns them);
3. CPU post-processing stitches and seam-repairs them into a canonical
   container that the ordinary LZSS decoder verifies;
4. the serial codec compresses the same chunk for a ratio comparison.

Run:  python examples/gpu_compression_deep_dive.py
"""

from repro.compression import LzssCodec, Match
from repro.compression.postprocess import refine_to_container
from repro.gpu.kernels.lz import SegmentLzKernel
from repro.workload.datagen import BlockContentGenerator

SEGMENTS = 8


def main() -> None:
    content = BlockContentGenerator(target_ratio=2.0, seed=11)
    content.calibrate()
    chunk = content.make_block(4096, salt=0)

    print(f"chunk: 4096 B, target compression ratio ~2.0\n")

    # 1. Segment-parallel search, with SIMT divergence statistics.
    kernel = SegmentLzKernel([chunk], segments_per_chunk=SEGMENTS,
                             use_simt=True)
    outputs = kernel.execute()[0]
    stats = kernel._stats
    print(f"SIMT execution: {stats.threads} threads in "
          f"{stats.workgroups} workgroup(s)")
    print(f"  wavefront efficiency: {stats.wavefront_efficiency:.2f} "
          "(1.0 = no divergence; LZ parsing diverges by nature)")

    # 2. Raw per-segment results.
    print(f"\nraw GPU output ({SEGMENTS} segments):")
    for seg in outputs:
        matches = sum(1 for t in seg.tokens if isinstance(t, Match))
        literals = len(seg.tokens) - matches
        print(f"  segment {seg.segment_index}: bytes "
              f"[{seg.start:4d},{seg.end:4d})  "
              f"{matches:3d} matches, {literals:3d} literals")

    # 3. CPU refinement into the canonical container.
    refined = refine_to_container(chunk, outputs)
    raw = refine_to_container(chunk, outputs, repair_seams=False)
    decoded = LzssCodec().decode(refined)
    assert decoded == chunk, "round-trip failed!"
    print(f"\nCPU post-processing:")
    print(f"  without seam repair: {len(raw)} B")
    print(f"  with seam repair   : {len(refined)} B "
          f"(saved {len(raw) - len(refined)} B at segment seams)")
    print(f"  decoder verifies the refined stream byte-for-byte: OK")

    # 4. Against the serial parse.
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
