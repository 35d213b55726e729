"""GPU kernel cost constants.

Per-kernel cycle/byte constants used by the kernels in
:mod:`repro.gpu.kernels` to build their :class:`~repro.gpu.kernel.KernelCost`
reports.  As with :mod:`repro.cpu.costs`, these are calibration constants:
DESIGN.md §6 explains how they were pinned against the paper's anchors.

Two constants deserve a note:

* ``index_entry_latency_cycles`` — the *serial* per-entry cost of the
  linear bin scan.  A thread walks its bin with dependent loads; local
  memory tiling hides part but not all of the latency.  This term creates
  the per-launch floor that makes small inline index batches lose to the
  CPU (paper §3.1(3)).
* ``lz_divergence_factor`` — LZ byte-matching is the SIMT worst case:
  every lane takes data-dependent branches, so a wavefront's lanes
  serialize heavily; this factor prices it in payload and descriptor mode.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class GpuKernelCosts:
    """Cycle constants for the GPU-side kernels."""

    # -- bin-lookup (indexing) kernel ---------------------------------------
    #: Throughput lane-cycles per bin entry scanned.
    index_entry_lane_cycles: float = 40.0
    #: Serial per-entry cycles on one thread's scan (critical path term).
    index_entry_latency_cycles: float = 200.0
    #: Fixed lane-cycles per lookup (setup, result write).
    index_fixed_lane_cycles: float = 2_000.0
    #: Bytes of table data read per entry scanned.
    index_entry_bytes: float = 24.0

    # -- segment-parallel LZ kernel -----------------------------------------
    #: Useful lane-cycles per byte-step of match search.
    lz_work_unit_cycles: float = 25.0
    #: Wavefront serialization multiplier assumed by both LZ kernels
    #: (intra-wavefront imbalance x per-lane branch serialization).
    lz_divergence_factor: float = 36.0
    #: Device-memory bytes touched per input byte during search.
    lz_bytes_read_factor: float = 3.0
    #: Serial cycles per byte on one segment thread's critical path.
    lz_critical_cycles_per_byte: float = 300.0
    #: Fixed lane-cycles per segment thread.
    lz_fixed_lane_cycles: float = 1_500.0


#: Calibrated default table (see DESIGN.md §6 and EXPERIMENTS.md).
DEFAULT_GPU_COSTS = GpuKernelCosts()
