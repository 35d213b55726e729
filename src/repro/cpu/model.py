"""Timed multi-core CPU model.

:class:`SimCpu` exposes the chip to the rest of the library as a pool of
hardware threads (a :class:`~repro.sim.resources.Resource`) plus a
cycles-to-seconds conversion.  Functional work runs as ordinary Python;
only *time* flows through this model, which is what lets a single-core
container report multi-core throughput faithfully.

SMT: the i7-2600K has 8 logical threads on 4 cores.  Two SMT siblings
sharing a core do not double throughput; we apply a constant per-thread
derate so that total chip throughput equals ``threads * smt_derate`` core
equivalents (8 x 0.65 = 5.2 for the default spec), a standard rule of
thumb for throughput-bound integer workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigError
from repro.sim import Environment, Event, Resource


@dataclass(frozen=True, slots=True)
class CpuSpec:
    """Static description of a CPU."""

    name: str
    cores: int
    threads: int
    freq_hz: float
    #: Effective per-logical-thread speed factor under full SMT load.
    smt_derate: float = 0.65

    def __post_init__(self) -> None:
        if self.cores < 1 or self.threads < self.cores:
            raise ConfigError(
                f"invalid core/thread counts: {self.cores}/{self.threads}")
        if self.freq_hz <= 0:
            raise ConfigError(f"invalid frequency: {self.freq_hz}")
        if not 0.0 < self.smt_derate <= 1.0:
            raise ConfigError(f"invalid smt_derate: {self.smt_derate}")

    @property
    def thread_hz(self) -> float:
        """Effective cycle rate of one busy logical thread."""
        if self.threads == self.cores:
            return self.freq_hz
        return self.freq_hz * self.smt_derate


#: The paper's testbed CPU.
I7_2600K = CpuSpec(name="Intel i7-2600K", cores=4, threads=8, freq_hz=3.4e9)


class SimCpu:
    """A multi-core CPU as a simulated resource of hardware threads."""

    __slots__ = ("env", "spec", "name", "threads", "cycles_charged",
                 "_thread_hz")

    def __init__(self, env: Environment, spec: CpuSpec = I7_2600K,
                 name: str = "cpu"):
        self.env = env
        self.spec = spec
        self.name = name
        self.threads = Resource(env, capacity=spec.threads, name=name)
        #: Total cycles charged, for sanity checks and utilization reports.
        self.cycles_charged = 0.0
        self._thread_hz = spec.thread_hz

    def seconds(self, cycles: float) -> float:
        """Convert a cycle count on one thread to simulated seconds."""
        if cycles < 0:
            raise ConfigError(f"negative cycle count: {cycles}")
        return cycles / self._thread_hz

    def charge(self, cycles: float) -> Event:
        """Single-event CPU charge: acquire a thread, hold it for
        ``cycles`` cycles, release — all behind ONE yieldable event.

        One event and one calendar entry per charge, queued for a
        thread or not (:meth:`repro.sim.Resource.hold`), in strict FIFO
        with other requests for the threads.  Usage from a simulation
        process::

            yield cpu.charge(costs.sha1_cycles(4096))

        The returned event must be yielded promptly and exactly once.
        """
        # seconds() inlined: one charge per CPU round trip of a chunk.
        if cycles < 0:
            raise ConfigError(f"negative cycle count: {cycles}")
        self.cycles_charged += cycles
        return self.threads.hold(cycles / self._thread_hz)

    def utilization(self, until: Optional[float] = None) -> float:
        """Mean fraction of hardware threads busy so far."""
        return self.threads.monitor.utilization(until)

    def is_saturated(self, threshold: float = 1.0) -> bool:
        """True when at least ``threshold`` of the threads are busy *now*.

        This is the signal the paper's scheduler uses: "use GPU only when
        CPU utilization is full and there is still some work to do".
        """
        return self.threads.count >= self.spec.threads * threshold

    def __repr__(self) -> str:
        return (f"<SimCpu {self.spec.name}: {self.spec.cores}C/"
                f"{self.spec.threads}T @ {self.spec.freq_hz/1e9:.2f} GHz>")
