#!/usr/bin/env python3
"""A primary-storage scenario: virtual-desktop images on a reduced volume.

The paper's motivation is primary storage — think a VDI farm where many
desktops share most of their OS image.  This example builds that
scenario functionally:

* a "golden image" is cloned to N desktops (almost everything dedups);
* each desktop then writes some private, partly compressible data;
* a user-style I/O trace is recorded;
* the volume proves every byte back and reports the space economics.

Run:  python examples/primary_storage_server.py
"""

import io
import random

from repro import ReducedVolume
from repro.workload import TraceRecorder
from repro.workload.datagen import BlockContentGenerator

CHUNK = 4096
IMAGE_CHUNKS = 64          # 256 KiB golden image (scaled down)
DESKTOPS = 8
PRIVATE_CHUNKS = 8         # per-desktop unique data


def desktop_base(desktop: int) -> int:
    """Logical byte offset where a desktop's disk starts."""
    return desktop * (IMAGE_CHUNKS + PRIVATE_CHUNKS + 4) * CHUNK


def main() -> None:
    volume = ReducedVolume()
    trace = TraceRecorder()
    content = BlockContentGenerator(target_ratio=2.0, seed=7)
    rng = random.Random(42)

    golden = b"".join(content.make_block(CHUNK, salt=s)
                      for s in range(IMAGE_CHUNKS))

    print(f"Provisioning {DESKTOPS} desktops from a "
          f"{len(golden) // 1024} KiB golden image...")
    for desktop in range(DESKTOPS):
        base = desktop_base(desktop)
        volume.write(base, golden)
        trace.record("write", base, len(golden))

    after_clone = volume.physical_bytes
    print(f"  physical after cloning : {after_clone:>9,} B  "
          f"(dedup ratio {volume.dedup_ratio():.1f}x)")

    print("Desktops writing private data...")
    shadows: dict[int, bytes] = {}
    for desktop in range(DESKTOPS):
        base = desktop_base(desktop) + IMAGE_CHUNKS * CHUNK
        private = b"".join(
            content.make_block(CHUNK, salt=1000 + desktop * 100 + s)
            for s in range(PRIVATE_CHUNKS))
        volume.write(base, private)
        trace.record("write", base, len(private))
        shadows[desktop] = private

    print(f"  physical after private : {volume.physical_bytes:>9,} B")

    print("Random user reads (verified against ground truth)...")
    for _ in range(32):
        desktop = rng.randrange(DESKTOPS)
        which = rng.randrange(IMAGE_CHUNKS + PRIVATE_CHUNKS)
        offset = desktop_base(desktop) + which * CHUNK
        expected = (golden[which * CHUNK:(which + 1) * CHUNK]
                    if which < IMAGE_CHUNKS else
                    shadows[desktop][(which - IMAGE_CHUNKS) * CHUNK:
                                     (which - IMAGE_CHUNKS + 1) * CHUNK])
        assert volume.read(offset, CHUNK) == expected
        trace.record("read", offset, CHUNK)
    print("  all reads matched.")

    print("One desktop is re-imaged (overwrite) and one retired (TRIM)...")
    volume.write(desktop_base(0), golden)  # rewrite: pure dedup hits
    trace.record("write", desktop_base(0), len(golden))
    retired = desktop_base(DESKTOPS - 1)
    volume.discard(retired, (IMAGE_CHUNKS + PRIVATE_CHUNKS) * CHUNK)

    text = io.StringIO()
    trace.dump(text)
    print(f"\nTrace: {len(trace)} records, "
          f"{trace.total_bytes('write') // 1024} KiB written, "
          f"{trace.total_bytes('read') // 1024} KiB read "
          f"({len(text.getvalue())} B as text)")

    print("\n--- space report ---")
    print(f"logical bytes : {volume.logical_bytes:>9,}")
    print(f"physical bytes: {volume.physical_bytes:>9,}")
    print(f"dedup ratio   : {volume.dedup_ratio():>9.2f}x")
    print(f"reduction     : {volume.reduction_ratio():>9.2f}x")
    zombies = volume.engine.metadata.zombie_chunks
    swept = volume.engine.sweep()
    print(f"gc            : {zombies} unreferenced chunks, "
          f"{swept:,} B reclaimable")


if __name__ == "__main__":
    main()
