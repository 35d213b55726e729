"""Device-memory model: a tracking allocator for GPU buffers.

The allocator enforces the device's capacity (the HD 7970 has 3 GiB) and
keeps usage statistics.  It accounts for space only: buffer *contents*
live host-side with whoever owns them (the GPU bin index keeps its own
arrays), and PCIe traffic is priced per kernel launch.
"""

from __future__ import annotations

from repro.errors import GpuMemoryError


class DeviceBuffer:
    """A single allocation in device global memory."""

    def __init__(self, memory: "DeviceMemory", nbytes: int, label: str):
        self._memory = memory
        self.nbytes = nbytes
        self.label = label
        self.freed = False

    def free(self) -> None:
        """Release the allocation back to the device."""
        if self.freed:
            raise GpuMemoryError(f"{self.label}: use after free")
        self._memory._release(self)
        self.freed = True

    def __repr__(self) -> str:
        state = "freed" if self.freed else "live"
        return f"<DeviceBuffer {self.label}: {self.nbytes} B, {state}>"


class DeviceMemory:
    """Global-memory allocator with capacity enforcement and statistics."""

    def __init__(self, capacity_bytes: int):
        if capacity_bytes <= 0:
            raise GpuMemoryError(f"invalid capacity: {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self.used_bytes = 0
        self.peak_bytes = 0
        self.live_buffers: list[DeviceBuffer] = []
        self.total_allocs = 0

    def alloc(self, nbytes: int, label: str = "buffer") -> DeviceBuffer:
        """Allocate ``nbytes`` of global memory."""
        if nbytes <= 0:
            raise GpuMemoryError(f"{label}: invalid allocation size {nbytes}")
        if self.used_bytes + nbytes > self.capacity_bytes:
            raise GpuMemoryError(
                f"{label}: out of device memory "
                f"({self.used_bytes + nbytes} > {self.capacity_bytes} B)")
        buffer = DeviceBuffer(self, nbytes, label)
        self.live_buffers.append(buffer)
        self.used_bytes += nbytes
        self.peak_bytes = max(self.peak_bytes, self.used_bytes)
        self.total_allocs += 1
        return buffer

    def _release(self, buffer: DeviceBuffer) -> None:
        if buffer not in self.live_buffers:
            raise GpuMemoryError(f"{buffer.label}: double free")
        self.live_buffers.remove(buffer)
        self.used_bytes -= buffer.nbytes

    def __repr__(self) -> str:
        return (f"<DeviceMemory {self.used_bytes}/{self.capacity_bytes} B "
                f"used, {len(self.live_buffers)} buffers>")
