#!/usr/bin/env python3
"""Day-2 operations on a reduced volume: clone, scrub, restart, GC.

The features a storage admin actually touches, all running for real on
the functional volume:

1. instant clones via refcounts (snapshot a dataset, diverge it);
2. a patrol scrub that catches injected bit-rot by checksum;
3. a clean restart — data survives, the RAM-only fingerprint index does
   not, and the space ledger shows the (bounded) dedup loss;
4. garbage collection of unreferenced chunks;
5. the FTL view: why the reduced volume's smaller physical footprint
   compounds into far fewer flash erases.

Run:  python examples/storage_operations.py
"""

from repro.storage import Ftl, FtlSpec, ReducedVolume
from repro.workload.datagen import BlockContentGenerator

CHUNK = 4096


def main() -> None:
    volume = ReducedVolume()
    content = BlockContentGenerator(target_ratio=2.0, seed=3)

    print("1) Writing a 128 KiB dataset and cloning it (instant)...")
    dataset = b"".join(content.make_block(CHUNK, salt=s)
                       for s in range(32))
    volume.write(0, dataset)
    before = volume.physical_bytes
    volume.clone_range(0, 1024 * CHUNK, len(dataset))
    print(f"   physical before clone: {before:,} B, after: "
          f"{volume.physical_bytes:,} B (no data moved)")
    assert volume.read(1024 * CHUNK, len(dataset)) == dataset

    print("2) Patrol scrub, then injecting bit-rot and re-scrubbing...")
    report = volume.scrub()
    print(f"   clean scrub: {report['verified']}/{report['scanned']} "
          "chunks verified")
    victim = volume.engine.metadata.resolve(4 * CHUNK)
    rotted = bytearray(victim.blob)
    rotted[17] ^= 0x08
    volume.engine.metadata.replace_blob(victim.physical_id, bytes(rotted))
    report = volume.scrub()
    print(f"   after bit-rot: {report['corrupt']} corrupt chunk(s) at "
          f"logical offsets {report['corrupt_offsets']}")

    print("3) Clean restart (RAM-only index is lost, data is not)...")
    unique_before = volume.engine.metadata.unique_chunks
    volume.restart()
    assert volume.read(0, CHUNK) == dataset[:CHUNK]
    volume.write(2048 * CHUNK, dataset[:8 * CHUNK])  # rewrite old data
    print(f"   unique chunks before restart: {unique_before}, after "
          f"rewriting old content: "
          f"{volume.engine.metadata.unique_chunks} "
          "(duplicates of pre-restart data are stored again)")

    print("4) Retiring the clone AND the original, then collecting...")
    volume.discard(1024 * CHUNK, len(dataset))   # the clone
    volume.discard(0, len(dataset))              # the original
    zombies = volume.engine.metadata.zombie_chunks
    reclaimed = volume.engine.sweep()
    print(f"   {zombies} unreferenced chunks swept, "
          f"{reclaimed:,} B reclaimed "
          "(the post-restart rewrite keeps its own copies)")

    print("5) FTL view: identical churn, raw vs reduced footprint...")
    for label, factor in (("raw", 1.0), ("reduced 4x", 4.0)):
        ftl = Ftl(FtlSpec(blocks=32, pages_per_block=32))
        working = int(32 * 32 * 0.8 / factor)
        import random
        rng = random.Random(1)
        for lpn in range(working):
            ftl.write(lpn)
        for _ in range(working * 6):
            ftl.write(rng.randrange(working))
        print(f"   {label:<11} fill {ftl.utilization:.0%}  "
              f"write amp {ftl.write_amplification():.2f}  "
              f"erases {ftl.erases}")
    print("\nReduction keeps the device emptier, so each write also "
          "amplifies less — endurance wins twice.")


if __name__ == "__main__":
    main()
