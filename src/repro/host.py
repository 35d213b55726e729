"""Host cores beside the caller: the codec queue.

The pipeline's feeder selects each functional window's new contents
before it admits the window, and :func:`submit` hands them to this
queue as one :class:`Share`: the CPU codec's QuickLZ encode
(:meth:`repro.compression.parallel_cpu.CpuCompressor.compress_window`)
or the GPU codec's segment-LZ search with its refinement
(:meth:`repro.compression.gpu_lz.GpuCompressor.compress_window`).
Submitting never waits.  Helper processes, forked on first use and at
most one per usable CPU beyond the caller's own, compute shares while
the simulation runs, and :func:`take` hands a share's result to the
first worker that needs it.  Simulated time never sees any of this, and
every result is the one the caller would have computed alone.

The rules:

* *One unread share per helper.*  A helper is sent a share only once
  the caller has read its previous reply.  A second message in flight
  deadlocks the pipe once both directions fill: the caller blocks
  sending share two while the helper blocks sending share one's result.
* *Newest first.*  On every submit and take the caller reads the
  replies that are ready, and each idle helper takes the newest unsent
  share, the one the caller will need last.  A take of a share still
  unsent computes it in the caller; a take of one in flight waits for
  its helper.
* *One usable CPU: nothing runs ahead.*  :func:`submit` forks nothing
  and returns None; the caller computes where it needs the result.
* *Fallback.*  A helper that is gone, replies with an error or stays
  silent past :data:`REPLY_TIMEOUT_S` is killed and reaped, and its
  share is unsent again: the caller computes it when taken, unless
  another helper took it first.  A later submit forks a fresh helper.
* *Ownership.*  Helpers and shares belong to the process that forked
  the helpers.  A process forked later closes its copies of their pipes
  without using them, computes any share it takes itself and forks its
  own helpers.
* *Close at run end.*  :func:`close` reads every reply in flight and
  drops the unsent shares, so a run that ends, or raises, leaves no
  helper computing and no reply unread; a share taken later is computed
  in the caller.  At interpreter exit the owner kills and reaps its
  helpers, so none outlives it.

Helpers are plain ``os.fork`` children that leave by ``os._exit``, so
no exit handler of the caller's ever runs in one.  ``multiprocessing``
supplies only the pipe, and is imported when a helper is first wanted.
"""

from __future__ import annotations

import atexit
import os
import signal
import threading
import traceback
from typing import Any, Callable, Optional

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
    """A helper's loop: ``(task, items)`` in, ``("ok", task(items))`` or
    ``("error", traceback)`` out, until the caller's end closes."""
    while True:
        try:
            task, items = conn.recv()
        except (EOFError, OSError):
            return
        try:
            reply = ("ok", task(items))
        except Exception:
            reply = ("error", traceback.format_exc())
        conn.send(reply)


class Share:
    """``task(items)``, computed once: by a helper ahead of the caller,
    or by the caller on the first :func:`take`.  ``task`` and ``items``
    must pickle, and ``task`` never returns None."""

    __slots__ = ("task", "items", "helper", "result")

    def __init__(self, task: Callable[[Any], Any], items: Any):
        self.task = task
        self.items = items
        #: The helper computing it, while it is in flight.
        self.helper: Optional[_Helper] = None
        #: The task's result, once computed and read.
        self.result: Any = None


class _Helper:
    __slots__ = ("pid", "conn", "share")

    def __init__(self, pid: int, conn):
        self.pid = pid
        self.conn = conn
        #: The one share sent and not yet read back, or None when idle.
        self.share: Optional[Share] = None

    def send(self, share: Share) -> bool:
        try:
            self.conn.send((share.task, share.items))
        except OSError:     # it died since the last share
            return False
        self.share, share.helper = share, self
        return True

    def receive(self) -> Any:
        """The result of the share in flight, or None on any failure."""
        try:
            if self.conn.poll(REPLY_TIMEOUT_S):
                kind, body = self.conn.recv()
                if kind == "ok":
                    return body
        except (EOFError, OSError):     # it died or closed its end
            pass
        return None


class _Queue:
    """The helpers of the process that forked them, and the shares
    submitted and not yet sent, oldest first."""

    __slots__ = ("owner", "helpers", "unsent")

    def __init__(self):
        self.owner = os.getpid()
        self.helpers: list[_Helper] = []
        self.unsent: list[Share] = []

    def adopt(self) -> None:
        """Make the calling process the owner, dropping inherited
        helpers and shares: closing our copies of the helpers' pipes
        leaves them to the process that forked them."""
        if self.owner != os.getpid():
            for helper in self.helpers:
                helper.conn.close()
            self.owner = os.getpid()
            self.helpers = []
            self.unsent = []

    def hire(self) -> bool:
        """Fork helpers up to one per usable CPU beyond the caller's;
        False when none may run (one usable CPU)."""
        self.adopt()
        wanted = usable_cpus() - 1
        if wanted < 1:
            return False
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
        return bool(self.helpers)

    def collect(self, helper: _Helper) -> Share:
        """Read ``helper``'s reply into its share, waiting for it.  A
        helper that fails is retired, and its share is left without a
        result."""
        share = helper.share
        helper.share = share.helper = None
        share.result = helper.receive()
        if share.result is None:
            self.retire(helper)
        return share

    def dispatch(self) -> None:
        """Read every ready reply, then hand each idle helper the newest
        unsent share."""
        for helper in list(self.helpers):
            # A reply, or the end of a dead helper's pipe, is readable.
            if helper.share is not None and helper.conn.poll(0):
                share = self.collect(helper)
                if share.result is None:    # its helper failed
                    self.unsent.append(share)
                    continue
            if helper.share is None and self.unsent:
                share = self.unsent.pop()
                if not helper.send(share):
                    self.retire(helper)
                    self.unsent.append(share)

    def retire(self, helper: _Helper) -> None:
        """Kill and reap a helper; it is never used again."""
        self.helpers.remove(helper)
        helper.conn.close()
        try:
            os.kill(helper.pid, signal.SIGKILL)
            os.waitpid(helper.pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass            # already reaped

    def release(self) -> None:
        """At interpreter exit: kill and reap the owner's helpers."""
        if self.owner == os.getpid():
            for helper in list(self.helpers):
                self.retire(helper)


_QUEUE = _Queue()
atexit.register(_QUEUE.release)


def submit(task: Callable[[Any], Any], items: Any) -> Optional[Share]:
    """Queue ``task(items)`` to run ahead of the caller, without waiting.

    Returns None, and queues nothing, when no helper can run: the caller
    then computes the work where it needs it.
    """
    if not _QUEUE.hire():
        return None
    share = Share(task, items)
    _QUEUE.unsent.append(share)
    _QUEUE.dispatch()
    return share


def take(share: Share) -> Any:
    """``share``'s result: read once its helper replies, computed here
    if the share is still unsent or its helper failed."""
    queue = _QUEUE
    queue.adopt()
    helper = share.helper
    if helper is not None and helper in queue.helpers:
        queue.collect(helper)       # in flight: wait for its reply
    elif share.result is None and share in queue.unsent:
        queue.unsent.remove(share)  # unsent: the caller computes it
    queue.dispatch()
    if share.result is None:
        share.helper = None
        share.result = share.task(share.items)
    return share.result


def close() -> None:
    """Run end: read every reply in flight and drop the unsent shares."""
    queue = _QUEUE
    queue.adopt()
    queue.unsent.clear()
    for helper in list(queue.helpers):
        if helper.share is not None:
            queue.collect(helper)
