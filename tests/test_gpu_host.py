"""The codec queue (:mod:`repro.host`) changes no byte and never hangs.

:func:`repro.host.submit` queues work for helper processes forked
beside the caller, and :func:`repro.host.take` hands its result back.
Whatever the number of usable CPUs, and whatever happens to a helper —
killed, exiting, failing, silent — a taken result must equal the one
the caller computes alone, arrive in bounded time and leave no helper
it gave up on alive.  The queue's own rules are held here too: one
unread share per helper, the newest unsent share to an idle helper, and
a quiet queue after :func:`repro.host.close`.
"""

import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro import host
from repro.compression.gpu_lz import compress_payloads
from repro.compression.lz_common import DEFAULT_PARAMS
from repro.gpu.kernels.lz import SEGMENTS_PER_CHUNK, _TILE_CHUNKS
from tests.reference_codecs import (
    reference_merge_segments,
    reference_segment_bounds,
    reference_segment_tokens,
    tokens_to_bytes,
)

SRC = Path(__file__).resolve().parent.parent / "src"
#: Far below :data:`repro.host.REPLY_TIMEOUT_S`: a fallback that
#: waits for the full bound fails this.
FALLBACK_BOUND_S = 20.0
#: The test process: a task patched in below tells helpers by their pid.
CALLER = os.getpid()


def launch_chunks(tiles: int) -> list[bytes]:
    """A launch of ``tiles`` tiles, the last one partial: short chunks
    with repeats inside and across them, some empty."""
    rng = np.random.default_rng(tiles)
    words = [bytes(rng.integers(97, 101, size=5, dtype=np.uint8))
             for _ in range(12)]
    chunks = []
    for _ in range(_TILE_CHUNKS * (tiles - 1) + 17):
        picks = rng.integers(0, len(words), size=int(rng.integers(0, 40)))
        chunks.append(b"".join(words[i] for i in picks.tolist()))
    return chunks


def reaped(pid: int) -> bool:
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def helper_pids() -> list[int]:
    return [helper.pid for helper in host._QUEUE.helpers]


def quiet() -> bool:
    """No share unsent, none in flight: every reply has been read."""
    return not host._QUEUE.unsent and all(
        helper.share is None for helper in host._QUEUE.helpers)


def ahead(task, items):
    """``task(items)`` through the queue, or in the caller when nothing
    runs ahead: what a compressor does."""
    share = host.submit(task, items)
    return task(items) if share is None else host.take(share)


@pytest.fixture
def two_cpus(monkeypatch):
    """One helper on any host: on one CPU it shares the caller's."""
    monkeypatch.setattr(host, "usable_cpus", lambda: 2)
    host.close()
    for helper in host._QUEUE.helpers[1:]:     # kept from a wider run
        host._QUEUE.retire(helper)
    yield
    host.close()
    assert quiet()


# -- one CPU, two CPUs, and the oracle ----------------------------------------

COUNTS = (1, 2, 3, 5)
_RUN = """
import os, pickle, sys
os.sched_setaffinity(0, {cpus!r})
from repro import host
from repro.compression.gpu_lz import compress_payloads
from tests.test_gpu_host import ahead
found = [ahead(compress_payloads, chunks)
         for chunks in pickle.load(sys.stdin.buffer)]
pickle.dump((found, len(host._QUEUE.helpers)), sys.stdout.buffer)
"""


def run_pinned(cpus: set[int]) -> tuple:
    """The GPU codec's work on every launch of :data:`COUNTS` tiles,
    through the queue in a fresh interpreter allowed only ``cpus``:
    containers and census per launch, and the helpers held after."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), str(SRC.parent), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _RUN.format(cpus=cpus)],
        input=pickle.dumps([launch_chunks(tiles) for tiles in COUNTS]),
        env=env, stdout=subprocess.PIPE, check=True, timeout=120)
    return pickle.loads(done.stdout)


@pytest.fixture(scope="module")
def pinned_runs() -> dict[int, tuple]:
    allowed = sorted(os.sched_getaffinity(0))
    runs = {1: run_pinned(set(allowed[:1]))}
    if len(allowed) >= 2:
        runs[2] = run_pinned(set(allowed[:2]))
    return runs


def reference_blob(chunk: bytes) -> bytes:
    segments = [(start, end, reference_segment_tokens(chunk, start, end))
                for _, start, end in reference_segment_bounds(
                    len(chunk), SEGMENTS_PER_CHUNK)]
    return tokens_to_bytes(reference_merge_segments(chunk, segments),
                           len(chunk), DEFAULT_PARAMS)


@pytest.mark.parametrize("cpus", (1, 2), ids=["one_cpu", "two_cpus"])
@pytest.mark.parametrize("index, tiles", list(enumerate(COUNTS)),
                         ids=[f"{tiles}_tiles" for tiles in COUNTS])
def test_launch_is_the_same_on_one_cpu_and_two(pinned_runs, cpus, index,
                                               tiles):
    """The GPU codec's task through the queue: on one CPU nothing is
    forked and the caller computes, on two a helper does.  Odd tile
    counts leave a partial tile; every container is the oracle's, and
    the census the caller's alone."""
    if cpus not in pinned_runs:
        pytest.skip("one usable CPU")
    found, helpers = pinned_runs[cpus]
    blobs, census = found[index]
    assert helpers == cpus - 1
    assert (blobs, census) == pinned_runs[1][0][index]
    assert blobs == [reference_blob(chunk)
                     for chunk in launch_chunks(tiles)]
    assert census == compress_payloads(launch_chunks(tiles))[1]


# -- the queue's rules ----------------------------------------------------------

def _whose(items):
    """Which process computed the share, and the share."""
    return os.getpid(), items


def _whose_slowly(items):
    """:func:`_whose`, taking a helper long enough that every share
    submitted after it finds the helper busy."""
    if os.getpid() != CALLER:
        time.sleep(0.2)
    return _whose(items)


def test_one_unread_share_per_helper_and_the_newest_goes_next(two_cpus):
    first = host.submit(_whose_slowly, [0])
    second, third = (host.submit(_whose, [n]) for n in (1, 2))
    (helper,) = host._QUEUE.helpers
    # The idle helper took the first; no second message is in flight.
    assert helper.share is first
    assert host._QUEUE.unsent == [second, third]
    # Reading its reply frees it for the newest unsent share; the older
    # one, still unsent, is computed by the caller when taken.
    assert host.take(first) == (helper.pid, [0])
    assert helper.share is third and host._QUEUE.unsent == [second]
    assert host.take(second) == (CALLER, [1])
    assert host.take(third) == (helper.pid, [2])
    assert quiet()
    # A result is computed once: taking it again reads it.
    assert host.take(third) == (helper.pid, [2])


def test_one_usable_cpu_forks_nothing_and_queues_nothing(monkeypatch):
    monkeypatch.setattr(host, "usable_cpus", lambda: 1)
    held = helper_pids()
    assert host.submit(_whose, [0]) is None
    assert helper_pids() == held and quiet()


def test_close_reads_the_reply_in_flight_and_drops_the_unsent(two_cpus):
    first = host.submit(_whose_slowly, [0])
    second = host.submit(_whose, [1])
    (helper,) = host._QUEUE.helpers
    host.close()
    assert quiet()
    assert first.result == (helper.pid, [0])
    # Dropped unsent, it is computed by the caller when taken after all.
    assert host.take(second) == (CALLER, [1])
    assert quiet() and helper_pids() == [helper.pid]


def _raises_in_the_caller(items):
    if os.getpid() == CALLER:
        raise RuntimeError("caller failure")
    time.sleep(0.2)
    return items


def test_a_failing_caller_leaves_the_queue_usable(two_cpus):
    """A task that raises in the caller raises from take; what is in
    flight stays in flight and its reply answers its own share."""
    sent, kept = (host.submit(_raises_in_the_caller, [n])
                  for n in range(2))
    with pytest.raises(RuntimeError, match="caller failure"):
        host.take(kept)
    assert host.take(sent) == [0]
    assert ahead(_whose, [5])[1] == [5]


# -- ownership ----------------------------------------------------------------

def test_a_forked_child_starts_its_own_helpers(two_cpus):
    """A child forked after the helpers started must fork its own and
    leave its parent's pipes alone: were it to use one, the parent
    would read the child's reply, or lose its helper.  A share the
    parent had in flight is computed by the child itself."""
    chunks = launch_chunks(2)
    expected = compress_payloads(chunks)
    in_flight = host.submit(_whose, [0])
    parents = helper_pids()
    assert parents
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:    # pragma: no cover - the child reports through the pipe
        try:
            os.close(read)
            same = ahead(compress_payloads, chunks) == expected
            with os.fdopen(write, "wb") as out:
                out.write(pickle.dumps((
                    same, host.take(in_flight), helper_pids(),
                    host._QUEUE.owner == os.getpid())))
        finally:
            os._exit(0)
    os.close(write)
    with os.fdopen(read, "rb") as report:
        same, taken, child_helpers, owned = pickle.loads(report.read())
    os.waitpid(pid, 0)
    assert same and owned
    assert taken == (pid, [0])
    assert child_helpers and not set(child_helpers) & set(parents)
    assert host.take(in_flight) == (parents[0], [0])
    assert ahead(compress_payloads, chunks) == expected
    assert helper_pids() == parents


# -- a helper that fails: the caller computes its share -----------------------

def _exits_in_a_helper(items):
    if os.getpid() != CALLER:
        os._exit(3)
    return compress_payloads(items)


def _raises_in_a_helper(items):
    if os.getpid() != CALLER:
        raise RuntimeError("helper failure")
    return compress_payloads(items)


def _silent_in_a_helper(items):
    if os.getpid() != CALLER:
        time.sleep(60)
    return compress_payloads(items)


@pytest.mark.parametrize("fault", ["killed_before", "exits_on_receipt",
                                   "error_reply", "silent"])
def test_a_failed_helper_costs_time_not_bytes(monkeypatch, two_cpus,
                                              fault):
    chunks = launch_chunks(3)
    expected = compress_payloads(chunks)
    assert ahead(compress_payloads, chunks) == expected
    (victim,) = helper_pids()
    task = compress_payloads
    if fault == "killed_before":
        os.kill(victim, signal.SIGKILL)
    else:
        task = {"exits_on_receipt": _exits_in_a_helper,
                "error_reply": _raises_in_a_helper,
                "silent": _silent_in_a_helper}[fault]
        monkeypatch.setattr(host, "REPLY_TIMEOUT_S", 1.0)
    began = time.perf_counter()
    assert ahead(task, chunks) == expected
    assert time.perf_counter() - began < FALLBACK_BOUND_S
    assert reaped(victim)
    assert victim not in helper_pids()
    assert quiet()
    # Nothing stays broken: the next share forks a fresh helper.
    assert ahead(compress_payloads, chunks) == expected
    assert helper_pids() and all(not reaped(pid) for pid in helper_pids())


def test_a_helper_found_dead_while_polled_puts_its_share_back(two_cpus):
    """A reply read on another submit or take that turns out to be a
    death: the share is unsent again, and the caller computes it."""
    first = host.submit(_whose_slowly, [0])
    (victim,) = helper_pids()
    os.kill(victim, signal.SIGKILL)
    os.waitpid(victim, 0)
    second = host.submit(_whose, [1])      # polls the dead helper
    assert victim not in helper_pids()
    assert host._QUEUE.unsent == [second, first]
    assert host.take(first) == (CALLER, [0])
    assert host.take(second) == (CALLER, [1])
    assert quiet()


def _raises_everywhere(items):
    if os.getpid() != CALLER:
        time.sleep(0.2)     # still busy when the next share is submitted
    raise RuntimeError("share failure")


def _raises_on_share_0(items):
    if items == [0]:
        _raises_everywhere(items)
    return _whose(items)


@pytest.mark.parametrize("fault", [_raises_everywhere, _raises_on_share_0],
                         ids=["every_share", "first_helpers_share"])
def test_a_share_failing_everywhere_raises_its_own_error(monkeypatch,
                                                         fault):
    """A share that fails in every process surfaces its own error in
    bounded time and retires the helper that failed it.  Two helpers,
    whatever the host: with ``first_helpers_share`` the caller's retry
    of helper 1's share raises before helper 2's reply is read, and
    that reply answers its own share, not the next one."""
    monkeypatch.setattr(host, "usable_cpus", lambda: 3)
    monkeypatch.setattr(host, "REPLY_TIMEOUT_S", 1.0)
    host.close()
    failing = host.submit(fault, [0])
    other = host.submit(fault, [1])
    victim, second = helper_pids()[:2]
    began = time.perf_counter()
    with pytest.raises(RuntimeError, match="share failure"):
        host.take(failing)
    assert time.perf_counter() - began < FALLBACK_BOUND_S
    assert reaped(victim)
    if fault is _raises_on_share_0:
        assert host.take(other) == (second, [1])
    host.close()
    assert quiet()
    chunks = launch_chunks(2)
    assert ahead(compress_payloads, chunks) == compress_payloads(chunks)
