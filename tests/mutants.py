"""The committed mutants: each row is a bug some oracle was validated on.

A row names one file, an exact old text that occurs in it once, the
replacement, and the pytest node ids that must fail once the
replacement is made.  ``python -m tests.mutants`` copies ``src/`` and
``tests/`` into a temporary directory per row, applies the one
replacement there and runs only the row's nodes.  Each row reads:

* **killed** — the nodes fail;
* **survived** — they pass, or select no test;
* **stale** — the old text does not occur exactly once: the code moved
  on, so the row must be rewritten or deleted;
* **error** — pytest could not run the nodes (a collection or usage
  error), or they ran past ``TIMEOUT_S``.

It exits 1 unless every row it ran was killed.  ``--id X`` runs one row
(repeatable); ``--deselect NODE`` leaves one node out of every run (see
that a row's kill rests on it).  Hypothesis runs seeded
(``--hypothesis-seed=0``), so a row's verdict is the same on every run,
and under the ``mutants`` profile (``tests/conftest.py``), which does
not shrink: a row needs its nodes to fail, not a minimal example.

Rules: a change that adds an oracle adds the row it was validated with;
a change that deletes the code a row mutates deletes the row.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
#: Wall-clock bound on one row's pytest run.
TIMEOUT_S = 900


class Mutant(NamedTuple):
    id: str
    #: File to mutate, relative to the repository root.
    path: str
    old: str
    new: str
    #: Pytest node ids that must fail under the mutant.
    nodes: tuple[str, ...]


FIFO_LEDGER = ("tests/test_schedule_equivalence.py::"
               "test_ledger_is_the_fifo_schedule")
ENGINE_MODEL = "tests/test_dedup_engine.py::TestDedupEngineAgainstModel"
METADATA_MODEL = "tests/test_storage.py::TestMetadataAgainstReference"
DISPATCH_ORDER = ("tests/test_sim_engine.py::"
                  "test_dispatch_order_is_one_heap_keyed_time_then_eid")
CONTROLLER_MODEL = "tests/test_tenancy_units.py::TestControllerAgainstModel"
ENCODE_AHEAD = ("tests/test_encode_ahead.py::"
                "test_encode_ahead_stores_what_inline_encoding_stores")

MUTANTS = (
    # -- SimCpu: the FIFO thread ledger and the saturation signal.
    Mutant("cpu-saturated-one-thread-early", "src/repro/cpu/model.py",
           "return self.outstanding >= self.spec.threads",
           "return self.outstanding >= self.spec.threads - 1",
           (FIFO_LEDGER,)),
    Mutant("cpu-saturated-counts-threads-free-after-now",
           "src/repro/cpu/model.py",
           "return self.outstanding >= self.spec.threads",
           "return sum(server[0] > self.env.now for server in "
           "self.ledger._heap) >= self.spec.threads",
           (FIFO_LEDGER,)),
    Mutant("cpu-outstanding-drops-after-the-holder-resumes",
           "src/repro/cpu/model.py",
           "timeout.callbacks.append(self._charge_done)",
           "timeout.callbacks.append(lambda _t: self.env.timeout(0)"
           ".callbacks.append(self._charge_done))",
           (FIFO_LEDGER,)),
    # -- DedupEngine: bins, GPU bins and the chunk table, against a model.
    Mutant("flush-drops-its-first-staged-entry",
           "src/repro/dedup/bin_buffer.py",
           "staged=tuple(staged.items()))",
           "staged=tuple(staged.items())[1:])",
           (ENGINE_MODEL,)),
    Mutant("sweep-keeps-swept-ids-staged", "src/repro/dedup/engine.py",
           "        self.bin_buffer.retain(self.metadata.lookup)\n", "",
           (ENGINE_MODEL,)),
    Mutant("gpu-bins-stop-counting-evictions",
           "src/repro/dedup/gpu_index.py",
           "self.evictions += 1", "pass",
           (ENGINE_MODEL,)),
    Mutant("revive-skips-the-refcount-increment",
           "src/repro/storage/metadata.py",
           "refcount[physical_id] = count + 1",
           "refcount[physical_id] = count + (count > 0)",
           (ENGINE_MODEL,)),
    # -- The report pins: one ULP of one field fails them.
    Mutant("ssd-utilization-one-ulp-up", "src/repro/storage/writeback.py",
           '"ssd_utilization": self.ssd.utilization(until=duration)',
           '"ssd_utilization": __import__("math").nextafter('
           "self.ssd.utilization(until=duration), 2.0)",
           ("tests/test_pipeline_identity.py",
            "tests/test_goldens.py")),
    # -- The paged logical map.
    Mutant("logical-map-writes-every-page-to-page-0",
           "src/repro/storage/metadata.py",
           "page = self._pages[page_no] = _UNMAPPED_PAGE[:]",
           "page = self._pages[0] = _UNMAPPED_PAGE[:]",
           (METADATA_MODEL,)),
    # -- The event engine's one dispatch order.
    Mutant("tie-check-without-the-eid-compare", "src/repro/sim/engine.py",
           "if queue and queue[0][0] == self._now \\\n"
           "                    and queue[0][1] < ready[0][0]:",
           "if queue and queue[0][0] == self._now:",
           (DISPATCH_ORDER,)),
    Mutant("run-queue-always-first", "src/repro/sim/engine.py",
           "if queue and queue[0][0] == self._now \\\n"
           "                    and queue[0][1] < ready[0][0]:",
           "if False:",
           (DISPATCH_ORDER,)),
    # -- The GPU's utilisation is its occupancy, not its queue.
    Mutant("gpu-books-submit-to-end", "src/repro/gpu/device.py",
           "self.monitor.book(start, end)",
           "self.monitor.book(submit, end)",
           ("tests/test_gpu_substrate.py::"
            "test_gpu_utilization_is_the_queue_level_curve",)),
    # -- Tenancy's one fingerprint index and its compaction epoch.
    Mutant("promotion-not-entered-in-the-index",
           "src/repro/tenancy/controller.py",
           "stored[entry.fingerprint] = entry.shadow_id", "pass",
           (CONTROLLER_MODEL,)),
    Mutant("stored-id-without-the-liveness-check",
           "src/repro/tenancy/controller.py",
           "return None if metadata.lookup(physical_id) is None "
           "else physical_id",
           "return physical_id",
           (CONTROLLER_MODEL,)),
    Mutant("compaction-remaps-a-rewritten-offset",
           "src/repro/tenancy/controller.py",
           "if metadata.mapped_id(entry.offset) != entry.shadow_id:",
           "if False:",
           ("tests/test_tenancy_units.py::TestCompactionQueue::"
            "test_an_overwritten_deferred_offset_keeps_its_new_content",
            CONTROLLER_MODEL)),
    # -- Codec work ahead: each container under its own content, every
    # -- reply read, and every share computed once.
    Mutant("encode-ahead-pairs-containers-one-fingerprint-off",
           "src/repro/compression/parallel_cpu.py",
           "(chunk.fingerprint, (share, index))",
           "(chunk.fingerprint, (share, (index + 1) % len(chunks)))",
           (ENCODE_AHEAD,)),
    Mutant("gpu-container-filed-under-a-neighbours-fingerprint",
           "src/repro/compression/gpu_lz.py",
           "(chunk.fingerprint, (share, index))",
           "(chunk.fingerprint, (share, (index + 1) % len(chunks)))",
           (ENCODE_AHEAD,)),
    Mutant("encode-ahead-forgets-in-flight-contents",
           "src/repro/core/pipeline.py",
           "new_contents(window, self._pending,\n"
           "                                             codec.ahead)",
           "new_contents(window, codec.ahead)",
           ("tests/test_encode_ahead.py::test_every_encode_ahead_is_taken",
            "tests/test_reduction_ledger.py::"
            "test_duplicates_never_reach_the_codec")),
    Mutant("take-reads-an-in-flight-share-without-waiting",
           "src/repro/host.py",
           "if helper is not None and helper in queue.helpers:",
           "if helper is not None and helper in queue.helpers \\\n"
           "            and helper.conn.poll(0):",
           ("tests/test_gpu_host.py::"
            "test_one_unread_share_per_helper_and_the_newest_goes_next",
            "tests/test_reduction_ledger.py::"
            "test_duplicates_never_reach_the_codec")),
    Mutant("run-end-leaves-a-reply-unread", "src/repro/host.py",
           "        if helper.share is not None:\n"
           "            queue.collect(helper)\n",
           "        pass\n",
           ("tests/test_encode_ahead.py::"
            "test_a_run_that_raises_leaves_the_next_run_identical",
            "tests/test_gpu_host.py::"
            "test_close_reads_the_reply_in_flight_and_drops_the_unsent")),
    # -- The execution census's comparison: both kinds of drift.
    # -- LzssCodec.encode: the one-segment case of the segment search,
    # held to the serial oracle (ReferenceLzssCodec) and to the
    # per-segment reference tokens under other window geometries.
    Mutant("lzss-encode-searches-two-segments",
           "src/repro/compression/lzss.py",
           "compress_payloads([data], 1, self.params)",
           "compress_payloads([data], 2, self.params)",
           ("tests/test_dataplane_equivalence.py::"
            "test_lzss_streams_byte_identical",)),
    Mutant("lzss-encode-drops-its-params",
           "src/repro/compression/lzss.py",
           "compress_payloads([data], 1, self.params)",
           "compress_payloads([data], 1)",
           ("tests/test_dataplane_equivalence.py::"
            "test_gpu_launch_honours_window_geometry",)),
    Mutant("census-passes-kept-entries-that-were-entered",
           "tests/census.py",
           "            if site in kept:\n",
           "            if False:\n",
           ("tests/test_census.py::"
            "test_report_names_unexpected_and_stale_sites",)),
)


def run(mutant: Mutant, deselect: list[str]) -> str:
    """One row's verdict: killed, survived, stale or error."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, Path(tmp) / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        target = Path(tmp) / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return "stale"
        target.write_text(text.replace(mutant.old, mutant.new))
        command = [sys.executable, "-m", "pytest", "-q", "-x",
                   "-p", "no:cacheprovider", "--hypothesis-seed=0",
                   "--hypothesis-profile=mutants"]
        for node in deselect:
            command += ["--deselect", node]
        env = dict(os.environ, PYTHONPATH="src",
                   PYTHONDONTWRITEBYTECODE="1")
        try:
            status = subprocess.run(
                command + list(mutant.nodes), cwd=tmp, env=env,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                timeout=TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            return "error"
    # pytest: 0 all passed, 1 some failed, 5 nothing collected.
    return {0: "survived", 1: "killed", 5: "survived"}.get(status, "error")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tests.mutants",
        description="Run the committed mutants against their oracles.")
    parser.add_argument("--id", action="append", dest="ids",
                        metavar="X", help="run only this row (repeatable)")
    parser.add_argument("--deselect", action="append", default=[],
                        metavar="NODE", help="leave this node out")
    args = parser.parse_args(argv)
    known = {mutant.id for mutant in MUTANTS}
    unknown = sorted(set(args.ids or ()) - known)
    if unknown:
        parser.error(f"unknown mutant id(s): {', '.join(unknown)}")
    rows = [mutant for mutant in MUTANTS
            if args.ids is None or mutant.id in args.ids]
    failed = []
    for mutant in rows:
        start = time.perf_counter()
        verdict = run(mutant, args.deselect)
        print(f"{verdict:<9} {mutant.id}  "
              f"({time.perf_counter() - start:.1f} s)", flush=True)
        if verdict != "killed":
            failed.append(f"{verdict}: {mutant.id}")
    if failed:
        print("\n".join(["not killed:"] + failed))
        return 1
    print(f"all {len(rows)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
