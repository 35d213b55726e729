"""Simulated GPU substrate.

The paper offloads indexing and compression to a Radeon HD 7970.  No GPU
is available in this environment, so this package provides a *functional +
timed* device model (see DESIGN.md §2):

* **Functional**: kernels in :mod:`repro.gpu.kernels` really compute
  their results as array passes over the launch (index hit/miss
  pairs, LZ matches, fingerprints).
* **Timed**: each kernel also reports a :class:`~repro.gpu.kernel.KernelCost`
  (lane cycles, critical-path cycles, bytes moved), from which
  :class:`~repro.gpu.device.GpuDevice` derives simulated execution time,
  including the fixed kernel-launch latency that drives the paper's
  "CPU indexing beats GPU indexing" result, and the PCIe transfer costs
  that make batching matter.

The device serializes launches through a single command queue, which is
what creates the dedup/compression contention the paper's integration
experiment (Fig. 2) is about.
"""

from repro.gpu.device import GpuDevice, GpuSpec, RADEON_HD_7970
from repro.gpu.kernel import Kernel, KernelCost
from repro.gpu.memory import DeviceBuffer, DeviceMemory
from repro.gpu.pcie import PcieLink, PcieSpec

__all__ = [
    "GpuDevice",
    "GpuSpec",
    "RADEON_HD_7970",
    "Kernel",
    "KernelCost",
    "DeviceBuffer",
    "DeviceMemory",
    "PcieLink",
    "PcieSpec",
]
