"""Host cores beside the caller.

Two users hand this module a list of independent, pure pieces of work:
the simulated GPU's segment-LZ search (:mod:`repro.gpu.kernels.lz`) a
launch's tiles, and the CPU codec
(:meth:`repro.compression.parallel_cpu.CpuCompressor.compress_window`)
a window's new payloads to encode ahead.  :func:`spread` keeps one
share of such a list for the calling process and hands every other
share to a helper process forked on first use — at most one per usable
CPU beyond the caller's own.
Simulated time never sees any of this, and the results are the ones
the caller would have computed alone.

Three rules keep it from hanging or diverging:

* *Send before compute.*  Each helper gets its whole share in one
  message before the caller starts on its own; only then does the
  caller receive.  Sending piece by piece deadlocks once both pipes
  fill: the caller blocks sending piece 2 while the helper blocks
  sending piece 1's result.
* *Fallback.*  A helper that is gone, replies with an error or stays
  silent past :data:`REPLY_TIMEOUT_S` is killed and reaped, and the
  caller computes that share itself.  A later call forks a fresh one.
  When the caller's own computation raises, every helper whose reply
  it has not read is retired too: that reply would answer the next
  call.
* *Ownership.*  Helpers belong to the process that forked them and live
  as long as its end of their pipe: a helper exits when it reads end of
  file.  A process forked later closes its copies of those pipes
  without using them and forks its own helpers.

Helpers are plain ``os.fork`` children that leave by ``os._exit``, so
no exit handler of the caller's ever runs in one.  ``multiprocessing``
supplies only the pipe, and is imported when a helper is first wanted.
"""

from __future__ import annotations

import os
import signal
import threading
import traceback
from typing import Any, Callable, Sequence

#: Seconds a helper may take over one share before the caller gives up
#: on it and computes the share itself.
REPLY_TIMEOUT_S = 60.0


def usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity API on this platform
        return os.cpu_count() or 1


def _serve(conn) -> None:
    """A helper's loop: ``(task, share)`` in, ``("ok", task(share))`` or
    ``("error", traceback)`` out, until the caller's end closes."""
    while True:
        try:
            task, share = conn.recv()
        except (EOFError, OSError):
            return
        try:
            reply = ("ok", task(share))
        except Exception:
            reply = ("error", traceback.format_exc())
        conn.send(reply)


class _Helper:
    __slots__ = ("pid", "conn")

    def __init__(self, pid: int, conn):
        self.pid = pid
        self.conn = conn

    def send(self, message) -> bool:
        try:
            self.conn.send(message)
        except OSError:     # it died since the last call
            return False
        return True

    def receive(self) -> Any:
        """The result of the share last sent, or None on any failure."""
        try:
            if self.conn.poll(REPLY_TIMEOUT_S):
                kind, body = self.conn.recv()
                if kind == "ok":
                    return body
        except (EOFError, OSError):     # it died or closed its end
            pass
        return None


class _Pool:
    """The helpers of the process that forked them."""

    __slots__ = ("owner", "helpers")

    def __init__(self):
        self.owner = os.getpid()
        self.helpers: list[_Helper] = []

    def adopt(self) -> None:
        """Make the calling process the owner, dropping inherited
        helpers: closing our copies of their pipes leaves them to the
        process that forked them."""
        if self.owner != os.getpid():
            for helper in self.helpers:
                helper.conn.close()
            self.owner = os.getpid()
            self.helpers = []

    def take(self, wanted: int) -> list[_Helper]:
        """Up to ``wanted`` helpers, forking the missing ones."""
        self.adopt()
        wanted = max(0, min(wanted, usable_cpus() - 1))
        # A fork copies only the calling thread: a lock another thread
        # held stays held in the child forever.
        if wanted > len(self.helpers) and hasattr(os, "fork") \
                and threading.active_count() == 1:
            from multiprocessing import Pipe
            while len(self.helpers) < wanted:
                ours, theirs = Pipe()
                pid = os.fork()
                if pid == 0:
                    try:
                        ours.close()
                        self.adopt()
                        _serve(theirs)
                    finally:
                        os._exit(0)
                theirs.close()
                self.helpers.append(_Helper(pid, ours))
        return self.helpers[:wanted]

    def retire(self, helper: _Helper) -> None:
        """Kill and reap a helper that failed; it is never used again."""
        self.helpers.remove(helper)
        helper.conn.close()
        try:
            os.kill(helper.pid, signal.SIGKILL)
            os.waitpid(helper.pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass            # already reaped


_POOL = _Pool()


def spread(task: Callable[[list], list], items: Sequence) -> list:
    """``task(items)``, computed in shares beside the caller.

    ``task`` maps a list of items to a list of results, one per item,
    each depending only on its own item; it and the items must pickle.
    Item ``i`` goes to worker ``i mod (helpers + 1)``, the caller being
    worker 0, and the results come back in item order.
    """
    helpers = _POOL.take(len(items) - 1)
    ways = len(helpers) + 1
    shares = [list(items[worker::ways]) for worker in range(ways)]
    sent = [helper.send((task, share))
            for helper, share in zip(helpers, shares[1:])]
    unread = list(helpers)
    try:
        results = [task(shares[0])]
        for helper, delivered, share in zip(helpers, sent, shares[1:]):
            found = helper.receive() if delivered else None
            unread.remove(helper)
            if found is None:
                _POOL.retire(helper)
                found = task(share)
            results.append(found)
    except BaseException:
        # Their replies would answer the next call's messages.
        for helper in unread:
            _POOL.retire(helper)
        raise
    return [results[index % ways][index // ways]
            for index in range(len(items))]
