"""PCIe transfer cost model.

The paper's first GPU consideration (§3.1(2)) is that "the data used for
the calculation must be transferred from the system memory to the GPU
device memory".  This module prices those transfers: a fixed per-transfer
setup latency (DMA descriptor, doorbell, completion interrupt) plus a
bandwidth term.  Small transfers are latency-bound, which — together with
kernel-launch overhead — is why tiny inline batches favour the CPU.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class PcieSpec:
    """Static description of the host-device link."""

    name: str
    #: Effective (not theoretical) one-direction bandwidth in bytes/second.
    bandwidth_bps: float
    #: Fixed per-transfer latency in seconds.
    setup_latency_s: float


#: PCIe 2.0 x16 as the HD 7970 testbed would see it (~6 GB/s effective).
PCIE2_X16 = PcieSpec(name="PCIe 2.0 x16", bandwidth_bps=6.0e9,
                     setup_latency_s=8e-6)


class PcieLink:
    """Transfer-time calculator plus traffic accounting."""

    def __init__(self):
        self.spec = PCIE2_X16
        self.bytes_to_device = 0
        self.bytes_from_device = 0
        self.transfer_count = 0

    def transfer_time(self, nbytes: int) -> float:
        """Seconds to move ``nbytes`` one way across the link."""
        if nbytes < 0:
            raise ConfigError(f"negative transfer size: {nbytes}")
        if nbytes == 0:
            return 0.0
        return self.spec.setup_latency_s + nbytes / self.spec.bandwidth_bps

    def record(self, nbytes: int, to_device: bool) -> None:
        """Account a completed transfer for the traffic report."""
        self.transfer_count += 1
        if to_device:
            self.bytes_to_device += nbytes
        else:
            self.bytes_from_device += nbytes

    def __repr__(self) -> str:
        return (f"<PcieLink {self.spec.name}: "
                f"{self.bytes_to_device} B in / "
                f"{self.bytes_from_device} B out>")
