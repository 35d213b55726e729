"""Timed multi-core CPU model.

:class:`SimCpu` exposes the chip to the rest of the library as a pool of
hardware threads booked in FIFO order (a
:class:`~repro.sim.resources.ChannelLedger`), charged in cycles.
Functional work runs as ordinary Python; only *time* flows through this
model, which is what lets a single-core container report multi-core
throughput faithfully.

SMT: the i7-2600K has 8 logical threads on 4 cores.  Two SMT siblings
sharing a core do not double throughput; we apply a constant per-thread
derate so that total chip throughput equals ``threads * smt_derate`` core
equivalents (8 x 0.65 = 5.2 for the default spec), a standard rule of
thumb for throughput-bound integer workloads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigError
from repro.sim import ChannelLedger, Environment, Event


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
    """A multi-core CPU as a simulated pool of hardware threads."""

    __slots__ = ("env", "spec", "ledger", "cycles_charged", "outstanding",
                 "_thread_hz", "_charge_done")

    def __init__(self, env: Environment, spec: CpuSpec = I7_2600K):
        self.env = env
        self.spec = spec
        #: The threads, first come first served, booked at charge.
        self.ledger = ChannelLedger(env, spec.threads)
        #: Total cycles charged, for sanity checks and utilization reports.
        self.cycles_charged = 0.0
        #: Charges whose timeout has not been processed yet.
        self.outstanding = 0
        self._thread_hz = spec.thread_hz
        #: The one bound method every charge's timeout carries first.
        self._charge_done = self._done

    def charge(self, cycles: float) -> Event:
        """Keep the earliest-free thread for ``cycles`` cycles, as ONE
        yieldable timeout that fires when they have run.

        The thread is booked on :attr:`ledger` at the call, in strict
        FIFO with every other charge, so the timeout fires at the
        booking's end instant itself.  Usage from a simulation
        process::

            yield cpu.charge(costs.sha1_cycles(4096))

        The returned event must be yielded promptly and exactly once.
        """
        if not 0 <= cycles < math.inf:  # NaN fails both
            kind = "negative" if cycles < 0 else "non-finite"
            raise ConfigError(f"{kind} cycle count: {cycles!r}")
        self.cycles_charged += cycles
        delay = cycles / self._thread_hz
        timeout = self.env.timeout_at(self.ledger.book(delay) + delay)
        # First callback, so the charge stops counting before its
        # holder (appended when it yields the timeout) resumes.
        timeout.callbacks.append(self._charge_done)
        self.outstanding += 1
        return timeout

    def _done(self, _timeout: Event) -> None:
        self.outstanding -= 1

    def utilization(self, until: Optional[float] = None) -> float:
        """Booked thread-seconds ÷ (threads × time to ``until``).

        A demand ratio, not the fraction of threads busy: a charge that
        runs past ``until`` counts in full, so it can exceed 1.
        """
        return self.ledger.utilization(until)

    def is_saturated(self) -> bool:
        """True when every thread is busy *now*.

        This is the signal of the paper's offload rule, tested per lookup
        in the pipeline's chunk worker: "use GPU only when CPU
        utilization is full and there is still some work to do".  A
        FIFO pool has waiters only while every thread is held, so every
        thread is busy exactly when ``outstanding >= threads``.
        """
        return self.outstanding >= self.spec.threads

    def __repr__(self) -> str:
        return (f"<SimCpu {self.spec.name}: {self.spec.cores}C/"
                f"{self.spec.threads}T @ {self.spec.freq_hz/1e9:.2f} GHz>")
