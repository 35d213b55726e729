"""Shard executors: in-process serial, and a spawner/worker mp split.

Both executors expose the same three-call protocol the cluster engine
drives — ``submit(routed_window)``, ``finish() -> [shard reports]``,
``close()`` — and both return the per-shard reports in fixed shard-id
order, which is what makes the merged report byte-identical across
executor choices (the merge folds shard 0, 1, …, N-1 regardless of
which shard finished first).

The multiprocessing executor follows the Bodo-style spawner/worker
split: the parent owns the stream, the router and the NetLink; each
child owns exactly one :class:`~repro.cluster.shardwork.ShardWorker`
and receives its sub-windows over a private pipe.  Windows are pure
routed data and reports are plain dicts, so no shard state ever
crosses a process boundary except through those two messages.  The
``fork`` start method is preferred (no re-import cost); ``spawn`` is
the fallback — the worker entrypoint is a module-level function so
both work.

A child that fails — constructing its worker or processing a window —
answers ``("error", shard_id, traceback text)`` and exits; the parent
turns that, a broken pipe, or a pipe that closed with no answer into a
:class:`~repro.errors.ClusterError` naming the shard, from whichever of
``submit()`` / ``finish()`` notices first.  ``close()`` reaps every
child either way.
"""

from __future__ import annotations

import multiprocessing
import traceback
from typing import Optional

from repro.cluster.router import RoutedWindow
from repro.cluster.shardwork import ShardSpec, ShardWorker
from repro.errors import ClusterError, ConfigError

__all__ = ["EXECUTORS", "MpExecutor", "SerialExecutor", "make_executor"]

#: Registered executor names (CLI / config surface).
EXECUTORS = ("serial", "mp")

#: Seconds to wait for a child to exit after its final report.
_JOIN_TIMEOUT_S = 30.0


class SerialExecutor:
    """All shard workers in the parent process, run inline."""

    name = "serial"

    def __init__(self, nodes: int, spec: ShardSpec = ShardSpec()):
        self._workers = [ShardWorker(shard, spec)
                         for shard in range(nodes)]

    def submit(self, window: RoutedWindow) -> None:
        self._workers[window.shard].process(window)

    def finish(self) -> list[dict]:
        return [worker.finish() for worker in self._workers]

    def close(self) -> None:
        pass


def _shard_worker_main(conn, shard_id: int, spec: ShardSpec) -> None:
    """Child entrypoint: drain routed windows, answer with
    ``("report", shard_id, report)`` — or, on any failure, with
    ``("error", shard_id, traceback text)``."""
    try:
        worker = ShardWorker(shard_id, spec)
        while True:
            window = conn.recv()
            if window is None:
                conn.send(("report", shard_id, worker.finish()))
                return
            worker.process(window)
    except Exception:
        # Process boundary: the traceback would otherwise reach only
        # this child's stderr and the parent would see a dead pipe.
        conn.send(("error", shard_id, traceback.format_exc()))
    finally:
        conn.close()


class MpExecutor:
    """One child process per shard, fed over private pipes."""

    name = "mp"

    def __init__(self, nodes: int, spec: ShardSpec = ShardSpec(),
                 start_method: Optional[str] = None):
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        context = multiprocessing.get_context(start_method)
        self._connections = []
        self._processes = []
        for shard in range(nodes):
            parent_end, child_end = context.Pipe()
            process = context.Process(
                target=_shard_worker_main,
                args=(child_end, shard, spec),
                name=f"repro-shard-{shard}",
                daemon=True)
            process.start()
            child_end.close()
            self._connections.append(parent_end)
            self._processes.append(process)

    def submit(self, window: RoutedWindow) -> None:
        self._send(window.shard, window)

    def finish(self) -> list[dict]:
        """Sentinel every pipe, then collect reports in shard order."""
        for shard in range(len(self._connections)):
            self._send(shard, None)
        reports = [self._answer(shard)
                   for shard in range(len(self._connections))]
        for process in self._processes:
            process.join(timeout=_JOIN_TIMEOUT_S)
        return reports

    def _send(self, shard: int, message) -> None:
        try:
            self._connections[shard].send(message)
        except OSError:
            # The child closed its end: it failed and said why, or died.
            self._answer(shard)
            raise ClusterError(f"shard {shard} worker is gone")

    def _answer(self, shard: int) -> dict:
        """The shard's report; :class:`ClusterError` if it sent an
        error instead, or nothing."""
        try:
            kind, _shard, body = self._connections[shard].recv()
        except (EOFError, OSError):
            process = self._processes[shard]
            process.join(timeout=_JOIN_TIMEOUT_S)
            raise ClusterError(
                f"shard {shard} worker exited without a report "
                f"(exit code {process.exitcode})") from None
        if kind == "error":
            raise ClusterError(
                f"shard {shard} worker failed: "
                f"{body.strip().splitlines()[-1]}\n{body}")
        return body

    def close(self) -> None:
        for connection in self._connections:
            connection.close()
        for process in self._processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=_JOIN_TIMEOUT_S)


def make_executor(name: str, nodes: int,
                  spec: ShardSpec = ShardSpec()):
    """Executor instance for a registered executor name."""
    if name == "serial":
        return SerialExecutor(nodes, spec)
    if name == "mp":
        return MpExecutor(nodes, spec)
    raise ConfigError(
        f"unknown executor {name!r}; pick one of {EXECUTORS}")
