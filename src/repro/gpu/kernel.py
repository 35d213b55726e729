"""Kernel framework: functional execution plus a timing cost report.

A :class:`Kernel` bundles the two halves of the substitution described in
DESIGN.md: :meth:`Kernel.execute` really computes the kernel's output on
the host (not thread by thread but as the vectorized
numpy equivalent), and :meth:`Kernel.cost` reports the resource footprint
from which :class:`~repro.gpu.device.GpuDevice` derives simulated time.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any

from repro.errors import KernelError


@dataclass(frozen=True, slots=True)
class KernelCost:
    """Resource footprint of one kernel launch.

    The device turns this into a duration as::

        time = max(compute, memory, critical_path)

        compute       = lane_cycles_total / (effective lanes * freq)
        memory        = (bytes_read + bytes_written) / device bandwidth
        critical_path = critical_path_cycles / freq      (latency floor)

    ``critical_path_cycles`` is the longest *serial* chain any single
    thread executes; small launches cannot beat it no matter how many
    lanes are idle, which is exactly why tiny inline index batches lose
    to the CPU in the paper's preliminary experiment.
    """

    name: str
    threads: int
    lane_cycles_total: float
    critical_path_cycles: float
    bytes_read: float
    bytes_written: float

    def __post_init__(self) -> None:
        if self.threads <= 0:
            raise KernelError(f"{self.name}: no threads")
        if min(self.lane_cycles_total, self.critical_path_cycles,
               self.bytes_read, self.bytes_written) < 0:
            raise KernelError(f"{self.name}: negative cost component")


class Kernel(ABC):
    """A launchable GPU kernel: functional output + cost estimate."""

    # Slot-free base so slotted subclasses really drop their __dict__;
    # unslotted subclasses still get one automatically.
    __slots__ = ()

    #: Human-readable kernel name used in traces and error messages.
    name: str = "kernel"

    @abstractmethod
    def execute(self) -> Any:
        """Run the kernel functionally and return its result."""

    @abstractmethod
    def cost(self) -> KernelCost:
        """Estimate the launch's resource footprint for the timing model."""

    @abstractmethod
    def bytes_in(self) -> int:
        """Bytes that must cross PCIe to the device before launch."""

    @abstractmethod
    def bytes_out(self) -> int:
        """Bytes that must cross PCIe back to the host after launch."""

    def describe(self) -> dict[str, Any]:
        """Trace attributes for one launch of this kernel."""
        return {
            "kernel": self.name,
            "bytes_in": self.bytes_in(),
            "bytes_out": self.bytes_out(),
        }
