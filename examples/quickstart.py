#!/usr/bin/env python3
"""Quickstart: inline data reduction in ten lines, then a timed run.

Part 1 uses the functional :class:`repro.ReducedVolume` — real chunking,
real SHA-1 deduplication, real LZ compression, provable read-back.

Part 2 runs the paper's *timed* pipeline for a few thousand chunks on
the simulated testbed (i7-2600K + Radeon HD 7970 + Samsung SSD 830) and
prints the throughput the paper's evaluation is about.

Run:  python examples/quickstart.py
"""

from repro import IntegrationMode, ReducedVolume, run_mode
from repro.workload.datagen import BlockContentGenerator


def part1_functional_volume() -> None:
    print("=== Part 1: functional reduced volume ===")
    volume = ReducedVolume()

    # Write three copies of the same compressible 64 KiB extent.
    content = BlockContentGenerator(target_ratio=2.0, seed=1)
    extent = b"".join(content.make_block(4096, salt=s) for s in range(16))
    for copy in range(3):
        volume.write(copy * len(extent), extent)

    # Reads really decompress and really match.
    assert volume.read(0, len(extent)) == extent
    assert volume.read(2 * len(extent), 4096) == extent[:4096]

    print(f"logical bytes : {volume.logical_bytes:>10,}")
    print(f"physical bytes: {volume.physical_bytes:>10,}")
    print(f"dedup ratio   : {volume.dedup_ratio():>10.2f}x")
    print(f"reduction     : {volume.reduction_ratio():>10.2f}x "
          "(dedup x compression)")


def part2_timed_pipeline() -> None:
    print("\n=== Part 2: timed pipeline on the simulated testbed ===")
    for mode in (IntegrationMode.CPU_ONLY, IntegrationMode.GPU_COMP):
        report = run_mode(mode, n_chunks=8192,
                          dedup_ratio=2.0, comp_ratio=2.0)
        print(f"{mode.value:<10} {report.iops / 1e3:7.1f} K IOPS   "
              f"({report.mb_per_s:6.1f} MB/s, "
              f"cpu {report.cpu_utilization:.0%}, "
              f"gpu {report.gpu_utilization:.0%})")
    print("\nGPU-for-compression is the paper's winning integration "
          "(Fig. 2); `repro evaluate EXPERIMENTS.md` reruns the full "
          "evaluation.")


if __name__ == "__main__":
    part1_functional_volume()
    part2_timed_pipeline()
