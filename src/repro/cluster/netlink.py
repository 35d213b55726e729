"""Modeled cluster interconnect, charged through the sim engine.

HPDedup's lesson applies at cluster scale: a remote index is not free
to reach, so cross-node traffic must be charged explicitly rather than
hidden in per-chunk cycle costs.  The :class:`NetLink` owns a private
:class:`~repro.sim.engine.Environment` with one
:class:`~repro.sim.resources.Resource` of :data:`LINKS` lanes; every
dispatch/flush transfer becomes a sim process that occupies
a lane for ``latency + (bytes + headers) / bandwidth`` seconds, so the
utilization monitor and the tracer (stage names from
:mod:`repro.obs.stages`) see real queueing, not a closed-form sum.

All charges are issued by the parent (ingest-side) engine in
deterministic window/shard order, which keeps the resulting
:class:`NetReport` byte-identical whichever process ran a shard — the
shards never touch the link (DESIGN.md §14).
"""

from __future__ import annotations

from typing import NamedTuple

from repro.errors import ConfigError
from repro.obs.stages import (
    STAGE_NET_DISPATCH,
    STAGE_NET_FLUSH,
    TRACK_NET,
)
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim.engine import Environment
from repro.sim.resources import Resource

__all__ = ["NET_KINDS", "NetLink", "NetReport"]

#: The traffic classes the link accounts separately.
NET_KINDS = (STAGE_NET_DISPATCH, STAGE_NET_FLUSH)

#: Interconnect bandwidth per lane: 10 GbE.
BANDWIDTH_BYTES_PER_S = 1.25e9
#: Per-message latency in seconds.
LATENCY_S = 20e-6
#: Lanes transfers queue for.
LINKS = 1
#: Per-message framing overhead added to the byte charge.
HEADER_BYTES = 64


class NetReport(NamedTuple):
    """Deterministic link accounting for the merged report."""

    bytes_by_kind: dict
    messages_by_kind: dict
    seconds_by_kind: dict
    busy_s: float
    utilization: float
    makespan_s: float

    def to_dict(self) -> dict:
        return {
            "bytes": dict(self.bytes_by_kind),
            "messages": dict(self.messages_by_kind),
            "seconds": dict(self.seconds_by_kind),
            "busy_s": self.busy_s,
            "utilization": self.utilization,
            "makespan_s": self.makespan_s,
        }


class NetLink:
    """The modeled interconnect between the ingest node and the shards."""

    __slots__ = ("env", "link", "_tracer", "_bytes", "_messages",
                 "_seconds")

    def __init__(self, tracer: Tracer = NULL_TRACER):
        self.env = Environment()
        self.link = Resource(self.env, capacity=LINKS, name="netlink")
        self._tracer = tracer
        tracer.bind(self.env)
        self._bytes = {kind: 0 for kind in NET_KINDS}
        self._messages = {kind: 0 for kind in NET_KINDS}
        self._seconds = {kind: 0.0 for kind in NET_KINDS}

    def cost_s(self, nbytes: int, messages: int = 1) -> float:
        """Modeled transfer time for ``nbytes`` over ``messages`` frames."""
        wire_bytes = nbytes + messages * HEADER_BYTES
        return messages * LATENCY_S + wire_bytes / BANDWIDTH_BYTES_PER_S

    def charge(self, kind: str, nbytes: int, messages: int = 1) -> None:
        """Queue one transfer of ``nbytes`` under traffic class ``kind``."""
        if kind not in self._bytes:
            raise ConfigError(
                f"unknown net traffic kind {kind!r}; one of {NET_KINDS}")
        if nbytes < 0 or messages < 1:
            raise ConfigError("invalid net charge")
        self._bytes[kind] += int(nbytes)
        self._messages[kind] += int(messages)
        cost = self.cost_s(nbytes, messages)
        self._seconds[kind] += cost
        self.env.process(self._transfer(kind, cost))

    def _transfer(self, kind: str, cost: float):
        with self.link.request() as request:
            yield request
            with self._tracer.span(kind, resource=TRACK_NET):
                yield self.env.timeout(cost)

    def finish(self) -> NetReport:
        """Drain queued transfers and report link occupancy."""
        self.env.run()
        monitor = self.link.monitor
        return NetReport(
            bytes_by_kind=dict(self._bytes),
            messages_by_kind=dict(self._messages),
            seconds_by_kind=dict(self._seconds),
            busy_s=monitor.busy_time(),
            utilization=monitor.utilization(),
            makespan_s=self.env.now,
        )
