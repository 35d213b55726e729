"""The segment-LZ search shared with host helpers changes no byte.

:func:`repro.host.spread` hands a launch's tiles to forked helper
processes beside the caller.  Whatever the number of usable CPUs, and
whatever happens to a helper — killed, exiting, failing, silent — a
launch must equal the one the caller computes alone, end in bounded
time and leave no helper it gave up on alive.
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

from repro.compression.lz_common import DEFAULT_PARAMS
from repro.compression.postprocess import refine_tile
from repro import host
from repro.gpu.kernels import lz
from repro.gpu.kernels.lz import _TILE_ARRAYS, _TILE_CHUNKS, SegmentLzKernel
from tests.reference_codecs import (
    reference_merge_segments,
    reference_segment_bounds,
    reference_segment_tokens,
    tokens_to_bytes,
)

SRC = Path(__file__).resolve().parent.parent / "src"
SEGMENTS = 4
#: Far below :data:`repro.host.REPLY_TIMEOUT_S`: a fallback that
#: waits for the full bound fails this.
FALLBACK_BOUND_S = 20.0
#: The test process: a task patched in below tells helpers by their pid.
CALLER = os.getpid()
_SEARCH = lz._search_tiles

needs_a_helper = pytest.mark.skipif(
    host.usable_cpus() < 2, reason="one usable CPU: nothing is forked")


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


def fingerprint(launch) -> tuple:
    """Every array of every tile (with dtype), the census, the blobs."""
    return ([(tile.first, tile.data,
              [(getattr(tile, name).dtype.str, getattr(tile, name).tobytes())
               for name in _TILE_ARRAYS]) for tile in launch.tiles],
            launch.census,
            [blob for tile in launch.tiles for blob in refine_tile(tile)])


def search(chunks: list[bytes]) -> tuple:
    return fingerprint(SegmentLzKernel(chunks, SEGMENTS).execute())


def reaped(pid: int) -> bool:
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def helper_pids() -> list[int]:
    return [helper.pid for helper in host._POOL.helpers]


# -- one CPU, two CPUs, and the oracle ----------------------------------------

COUNTS = (1, 2, 3, 5)
_RUN = """
import os, pickle, sys
os.sched_setaffinity(0, {cpus!r})
from repro import host
from tests.test_gpu_host import search
pickle.dump([(*search(chunks), len(host._POOL.helpers))
             for chunks in pickle.load(sys.stdin.buffer)], sys.stdout.buffer)
"""


def run_pinned(cpus: set[int]) -> list:
    """Every launch of :data:`COUNTS` tiles in a fresh interpreter
    allowed only ``cpus``: fingerprints and helpers held afterwards."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), str(SRC.parent), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _RUN.format(cpus=cpus)],
        input=pickle.dumps([launch_chunks(tiles) for tiles in COUNTS]),
        env=env, stdout=subprocess.PIPE, check=True, timeout=120)
    return pickle.loads(done.stdout)


@pytest.fixture(scope="module")
def pinned_runs() -> dict[int, list]:
    allowed = sorted(os.sched_getaffinity(0))
    runs = {1: run_pinned(set(allowed[:1]))}
    if len(allowed) >= 2:
        runs[2] = run_pinned(set(allowed[:2]))
    return runs


def reference_blob(chunk: bytes) -> bytes:
    segments = [(start, end, reference_segment_tokens(chunk, start, end))
                for _, start, end in reference_segment_bounds(len(chunk),
                                                              SEGMENTS)]
    return tokens_to_bytes(reference_merge_segments(chunk, segments),
                           len(chunk), DEFAULT_PARAMS)


@pytest.mark.parametrize("cpus", (1, 2), ids=["one_cpu", "two_cpus"])
@pytest.mark.parametrize("index, tiles", list(enumerate(COUNTS)),
                         ids=[f"{tiles}_tiles" for tiles in COUNTS])
def test_launch_is_the_same_on_one_cpu_and_two(pinned_runs, cpus, index,
                                               tiles):
    """Odd tile counts split unevenly; every split is the oracle's."""
    if cpus not in pinned_runs:
        pytest.skip("one usable CPU")
    tiles_out, census, blobs, helpers = pinned_runs[cpus][index]
    assert helpers == min(tiles - 1, cpus - 1)
    assert len(tiles_out) == tiles
    assert (tiles_out, census, blobs) == pinned_runs[1][index][:3]
    assert blobs == [reference_blob(chunk)
                     for chunk in launch_chunks(tiles)]


# -- ownership ----------------------------------------------------------------

@needs_a_helper
def test_a_forked_child_starts_its_own_helpers():
    """A child forked after the helpers started must fork its own and
    leave its parent's pipes alone: were it to use one, the parent
    would read the child's reply, or lose its helper."""
    chunks = launch_chunks(2)
    expected = search(chunks)
    parents = helper_pids()
    assert parents
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:    # pragma: no cover - the child reports through the pipe
        try:
            os.close(read)
            same = search(chunks) == expected
            with os.fdopen(write, "wb") as out:
                out.write(pickle.dumps((same, helper_pids(),
                                        host._POOL.owner == os.getpid())))
        finally:
            os._exit(0)
    os.close(write)
    with os.fdopen(read, "rb") as report:
        same, child_helpers, owned = pickle.loads(report.read())
    os.waitpid(pid, 0)
    assert same and owned
    assert child_helpers and not set(child_helpers) & set(parents)
    assert search(chunks) == expected
    assert helper_pids() == parents


# -- a helper that fails: the caller searches its share -----------------------

def _exits_in_a_helper(*args):
    if os.getpid() != CALLER:
        os._exit(3)
    return _SEARCH(*args)


def _raises_in_a_helper(*args):
    if os.getpid() != CALLER:
        raise RuntimeError("helper failure")
    return _SEARCH(*args)


def _silent_in_a_helper(*args):
    if os.getpid() != CALLER:
        time.sleep(60)
    return _SEARCH(*args)


@needs_a_helper
@pytest.mark.parametrize("fault", ["killed_before", "exits_on_receipt",
                                   "error_reply", "silent"])
def test_a_failed_helper_costs_time_not_bytes(monkeypatch, fault):
    chunks = launch_chunks(3)
    expected = search(chunks)
    (victim,) = helper_pids()[:1]
    if fault == "killed_before":
        os.kill(victim, signal.SIGKILL)
    else:
        monkeypatch.setattr(lz, "_search_tiles", {
            "exits_on_receipt": _exits_in_a_helper,
            "error_reply": _raises_in_a_helper,
            "silent": _silent_in_a_helper}[fault])
        monkeypatch.setattr(host, "REPLY_TIMEOUT_S", 1.0)
    began = time.perf_counter()
    assert search(chunks) == expected
    assert time.perf_counter() - began < FALLBACK_BOUND_S
    assert reaped(victim)
    assert victim not in helper_pids()
    # Nothing stays broken: the next launch forks a fresh helper.
    monkeypatch.undo()
    assert search(chunks) == expected
    assert all(not reaped(pid) for pid in helper_pids())


def _raises_in_the_caller(*args):
    if os.getpid() == CALLER:
        raise RuntimeError("caller failure")
    return _SEARCH(*args)


@needs_a_helper
def test_a_failing_caller_retires_the_helpers_it_sent_work(monkeypatch):
    """Their replies would otherwise answer the next launch."""
    chunks = launch_chunks(2)
    expected = search(chunks)
    sent = helper_pids()
    monkeypatch.setattr(lz, "_search_tiles", _raises_in_the_caller)
    with pytest.raises(RuntimeError, match="caller failure"):
        search(chunks)
    assert all(reaped(pid) for pid in sent)
    monkeypatch.undo()
    assert search(chunks) == expected


def _raises_everywhere(*args):
    raise RuntimeError("tile failure")


def _raises_on_tile_1(*args):
    if any(first == _TILE_CHUNKS for first, _ in args[-1]):
        raise RuntimeError("tile failure")
    return _SEARCH(*args)


@pytest.mark.parametrize("fault", [_raises_everywhere, _raises_on_tile_1],
                         ids=["every_share", "first_helpers_share"])
def test_a_share_failing_everywhere_raises_its_own_error(monkeypatch,
                                                         fault):
    """A share that fails in every process surfaces its own error in
    bounded time and retires every helper it sent work to.  Two
    helpers, whatever the host: with ``first_helpers_share`` the
    caller's retry of helper 1's share raises before helper 2's reply
    is read, and that reply must not answer the next launch."""
    monkeypatch.setattr(host, "usable_cpus", lambda: 3)
    chunks = launch_chunks(3)
    expected = search(chunks)
    sent = helper_pids()[:2]
    monkeypatch.setattr(lz, "_search_tiles", fault)
    began = time.perf_counter()
    with pytest.raises(RuntimeError, match="tile failure"):
        search(chunks)
    assert time.perf_counter() - began < FALLBACK_BOUND_S
    assert len(sent) == 2 and all(reaped(pid) for pid in sent)
    monkeypatch.setattr(lz, "_search_tiles", _SEARCH)
    assert search(chunks) == expected
