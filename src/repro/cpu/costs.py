"""CPU cost table: the calibration single-source-of-truth.

Every timed CPU operation in the library charges cycles from this table.
The constants are calibrated so that the model reproduces the paper's two
absolute anchors on the i7-2600K testbed:

* CPU-only parallel deduplication  ~ 209 K chunks/s  (3x SSD / 1.15 per §4(1))
* CPU-only parallel compression    ~ 50 K chunks/s at comp-ratio ~1.2 (§4(2))

and leaves everything else (GPU gains, integration-mode ordering) as model
*predictions* checked against the paper in EXPERIMENTS.md.

Units: cycles, or cycles per byte, on one hardware thread.  SMT sharing is
handled by :class:`~repro.cpu.model.CpuSpec.smt_derate`, not here.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CpuCosts:
    """Cycles-per-operation constants for the CPU-side cost model."""

    # -- chunking ---------------------------------------------------------
    #: Fixed-size chunking: pointer arithmetic plus a copy-out touch.
    fixed_chunking_per_byte: float = 0.5

    # -- fingerprinting -----------------------------------------------------
    #: SHA-1 over chunk payload (OpenSSL-class implementation).
    sha1_per_byte: float = 13.0
    #: Fixed per-chunk SHA-1 overhead (init/finalize/padding).
    sha1_fixed: float = 800.0

    # -- indexing (bin-based, paper §3.1) -----------------------------------
    #: Probe of the small in-memory bin buffer (hot, hash-map lookup).
    bin_buffer_probe: float = 900.0
    #: Insert into the bin buffer.
    bin_buffer_insert: float = 1_200.0
    #: Lookup in the per-bin B-tree ("bin tree"): cache-missing node walk.
    bin_tree_probe_per_level: float = 800.0
    #: Fixed part of a bin-tree lookup (bin selection, setup).
    bin_tree_probe_fixed: float = 11_000.0
    #: Amortized cost of bin-buffer flush handling per unique chunk
    #: (buffer drain, sequential write issue, GPU-bin update bookkeeping).
    flush_amortized_per_unique: float = 26_000.0

    # -- compression (QuickLZ-class fast LZ, paper §3.2) --------------------
    #: Baseline encode cost per input byte when almost nothing matches.
    lz_encode_per_byte_base: float = 48.0
    #: Extra per-byte search cost that *decreases* as matches lengthen:
    #: effective per-byte = base + slope / comp_ratio.  Long matches let
    #: the encoder skip ahead, so high-ratio data compresses faster.
    lz_encode_ratio_slope: float = 48.0
    #: Decode cost per output byte (decode is much cheaper than encode).
    lz_decode_per_byte: float = 6.0
    #: Fixed per-chunk codec overhead (state setup, header).
    lz_fixed: float = 2_500.0

    # -- GPU-result post-processing (paper §3.2(2)) --------------------------
    #: CPU refinement of raw GPU match output into a valid stream,
    #: per input byte of the chunk.
    postprocess_per_byte: float = 19.0
    #: Fixed per-chunk post-processing overhead.
    postprocess_fixed: float = 2_000.0

    # -- destaging / metadata ------------------------------------------------
    #: Per-chunk metadata update (logical map, refcount).
    metadata_update: float = 2_600.0
    #: Per-chunk I/O submission overhead for destage writes.
    destage_submit: float = 2_200.0

    # -- plumbing -------------------------------------------------------------
    #: Per-task dispatch overhead of the thread pool (enqueue + wakeup),
    #: charged once per pipeline batch per stage.
    dispatch_per_batch: float = 28_000.0
    #: Per-chunk cost of moving a chunk descriptor between pipeline stages.
    handoff_per_chunk: float = 350.0

    # -- derived helpers -----------------------------------------------------

    def sha1_cycles(self, nbytes: int) -> float:
        """Cycles to fingerprint a chunk of ``nbytes``."""
        return self.sha1_fixed + self.sha1_per_byte * nbytes

    def chunking_cycles(self, nbytes: int) -> float:
        """Cycles to chunk ``nbytes`` of stream data."""
        return self.fixed_chunking_per_byte * nbytes

    def bin_tree_probe(self, tree_levels: int) -> float:
        """Cycles for one bin-tree lookup through ``tree_levels`` levels."""
        return (self.bin_tree_probe_fixed
                + self.bin_tree_probe_per_level * max(1, tree_levels))

    def lz_encode_cycles(self, nbytes: int, comp_ratio: float) -> float:
        """Cycles to LZ-encode a chunk given its achieved compression ratio.

        ``comp_ratio`` is original/compressed (>= 1.0).  More compressible
        data encodes faster because long matches advance the cursor in
        strides, which is the effect the paper reports ("the throughput is
        high when the compression ratio is high").
        """
        ratio = max(1.0, comp_ratio)
        per_byte = self.lz_encode_per_byte_base + self.lz_encode_ratio_slope / ratio
        return self.lz_fixed + per_byte * nbytes

    def lz_decode_cycles(self, out_bytes: int) -> float:
        """Cycles to decode a chunk back to ``out_bytes`` of plaintext."""
        return self.lz_fixed + self.lz_decode_per_byte * out_bytes

    def postprocess_cycles(self, nbytes: int) -> float:
        """Cycles to refine raw GPU match output for an ``nbytes`` chunk."""
        return self.postprocess_fixed + self.postprocess_per_byte * nbytes


#: Calibrated default table (see DESIGN.md §6 and EXPERIMENTS.md).
DEFAULT_COSTS = CpuCosts()
