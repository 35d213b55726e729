"""``GpuBinIndex``'s host arrays grow; nothing else may notice.

The index used to zero-fill ``bin_capacity`` entries per bin on the
bin's first insert.  Its arrays now start at ``INITIAL_SLOTS`` and
double, while the simulated device allocation, the replacement policy's
victim range and what a kernel launch sees stay as they were.  These
tests hold the growing index to a preallocated oracle
(:class:`tests.reference_paths.PreallocatedGpuBins`) slot for slot.
"""

import hashlib
import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dedup.engine import DedupEngine
from repro.dedup.gpu_index import ENTRY_BYTES, INITIAL_SLOTS, GpuBinIndex
from repro.dedup.replacement import LruReplacement, RandomReplacement
from repro.gpu import DeviceMemory
from repro.gpu.kernels.indexing import BinLookupKernel
from repro.gpu.kernels.indexing_tiled import TiledBinLookupKernel
from repro.types import Chunk

from tests.reference_paths import PreallocatedGpuBins, install_runs

PREFIX_BYTES = 1
N_BINS = 2


def fp(i: int) -> bytes:
    body = hashlib.sha1(i.to_bytes(8, "big")).digest()
    return bytes([i % N_BINS]) + body[1:]


def recording_policy(kind: str, seed: int):
    """A policy that remembers every victim it chose, in order."""
    base = LruReplacement if kind == "lru" else RandomReplacement

    class Recording(base):
        def choose_victim(self, bin_id: int, capacity: int) -> int:
            victim = super().choose_victim(bin_id, capacity)
            self.victims.append((bin_id, capacity, victim))
            return victim

    policy = Recording() if kind == "lru" else Recording(seed=seed)
    policy.victims = []
    return policy


class Pair:
    """The growing index and the oracle, driven in lockstep."""

    def __init__(self, capacity: int, kind: str, seed: int):
        self.index = GpuBinIndex(prefix_bytes=PREFIX_BYTES,
                                 bin_capacity=capacity,
                                 policy=recording_policy(kind, seed))
        self.oracle = PreallocatedGpuBins(PREFIX_BYTES, capacity,
                                          recording_policy(kind, seed))
        self.fresh = 0
        self.stored: list[bytes] = []

    def take(self, n: int, bin0: bool = False) -> list[bytes]:
        """The next ``n`` unseen fingerprints (of bin 0 only, if asked)."""
        step = N_BINS if bin0 else 1
        first = -(-self.fresh // step) * step
        taken = [fp(i) for i in range(first, first + n * step, step)]
        self.fresh = first + n * step
        self.stored.extend(taken)
        return taken

    def insert(self, n: int, bin0: bool = False) -> None:
        for fingerprint in self.take(n, bin0):
            assert self.index.insert(fingerprint) \
                == self.oracle.insert(fingerprint)

    def flush(self, n: int) -> None:
        """One bin's run through ``install_views``, as the engine does."""
        run = self.take(n, bin0=True)
        self.index.install_views(0, [f[PREFIX_BYTES:] for f in run])
        for fingerprint in run:
            self.oracle.insert(fingerprint)

    def mixed_flush(self, n: int) -> None:
        run = self.take(n)
        install_runs(self.index, run)
        for fingerprint in run:
            self.oracle.insert(fingerprint)

    def kernels(self, probes: list[bytes]) -> list[tuple]:
        """(production kernel, oracle kernel) per lookup variant."""
        batch = self.index.make_batch(probes)
        table = self.oracle.table_view()
        return [
            (self.index.make_kernel(probes),
             BinLookupKernel(batch, table)),
            (TiledBinLookupKernel(batch, self.index.table_view()),
             TiledBinLookupKernel(batch, table)),
        ]

    def probes(self, rng: random.Random, n: int) -> list[bytes]:
        known = rng.sample(self.stored, min(n, len(self.stored)))
        return known + [fp(10 ** 6 + rng.randrange(10 ** 6))
                        for _ in range(max(1, n // 4))]

    def execute(self, probes: list[bytes], kernels: list[tuple]) -> None:
        results = [(mine.execute().tolist(), theirs.execute().tolist())
                   for mine, theirs in kernels]
        for mine, theirs in results:
            assert mine == theirs
        for mine, theirs in kernels:
            assert mine.cost() == theirs.cost()
        slots = np.asarray(results[0][0])
        self.index.record_results(probes, slots)
        self.oracle.record_results(probes, slots)

    def check(self) -> None:
        index, oracle = self.index, self.oracle
        assert index.evictions == oracle.evictions
        assert index.policy.victims == oracle.policy.victims
        assert len(index) == len(oracle)
        mine, theirs = index.table_view(), oracle.table_view()
        assert sorted(mine) == sorted(theirs)
        for bin_id, (lo, hi, count) in theirs.items():
            my_lo, my_hi, my_count = mine[bin_id]
            assert my_count == count
            assert len(my_lo) == len(my_hi) <= index.bin_capacity
            assert my_lo[:count].tolist() == lo[:count].tolist()
            assert my_hi[:count].tolist() == hi[:count].tolist()


steps_strategy = st.lists(
    st.tuples(st.sampled_from(["insert", "flush", "mixed_flush",
                               "lookup", "queued"]),
              st.integers(1, 70)),
    min_size=1, max_size=14)


class TestGrowthEquivalence:
    @given(capacity=st.sampled_from([3, 64, 65, 100, 128, 200, 256]),
           kind=st.sampled_from(["random", "lru"]),
           seed=st.integers(0, 2 ** 16), steps=steps_strategy)
    @settings(max_examples=60, deadline=None)
    def test_matches_preallocated_oracle(self, capacity, kind, seed, steps):
        pair = Pair(capacity, kind, seed)
        rng = random.Random(seed)
        queued = None
        for op, n in steps:
            if op in ("lookup", "queued") and not pair.stored:
                continue
            if op == "lookup":
                probes = pair.probes(rng, min(n, 16))
                pair.execute(probes, pair.kernels(probes))
            elif op == "queued":
                # Built now, run after whatever the later steps install:
                # a launch waiting in the device queue.
                if queued is not None:
                    pair.execute(*queued)
                probes = pair.probes(rng, min(n, 16))
                queued = (probes, pair.kernels(probes))
            else:
                getattr(pair, op)(n)
            pair.check()
        if queued is not None:
            pair.execute(*queued)
            pair.check()

    def test_crosses_every_doubling_and_lands_on_capacity(self):
        for capacity in (INITIAL_SLOTS, 100, 256, 4096):
            for kind in ("random", "lru"):
                pair = Pair(capacity, kind, seed=capacity)
                # Land exactly on each power of two below the capacity,
                # step one past it, then land exactly on the capacity.
                lengths = []
                filled, edge = 0, INITIAL_SLOTS
                while filled < capacity:
                    target = min(edge, capacity)
                    pair.flush(target - filled)
                    filled = target
                    lengths.append(len(pair.index.table_view()[0][0]))
                    pair.check()
                    if filled < capacity:
                        pair.insert(1, bin0=True)
                        filled += 1
                        edge *= 2
                doublings = [INITIAL_SLOTS << k for k in range(12)
                             if INITIAL_SLOTS << k < capacity]
                assert lengths == doublings + [capacity]
                assert pair.index.evictions == 0
                # Full: the next installs evict, over the whole capacity.
                pair.flush(5)
                pair.check()
                assert pair.index.evictions == 5
                assert all(cap == capacity for _bin, cap, _victim
                           in pair.index.policy.victims)
                probes = pair.probes(random.Random(capacity), 12)
                pair.execute(probes, pair.kernels(probes))

    def test_queued_kernel_sees_evictions_across_a_growth(self):
        """Capacity 65: one install grows the arrays, the next evicts.
        A kernel built before both reads device memory when it runs."""
        pair = Pair(65, "random", seed=1)
        pair.flush(64)
        probes = list(pair.stored)
        queued = pair.kernels(probes)
        pair.insert(40, bin0=True)
        assert pair.index.evictions == 39
        pair.execute(probes, queued)
        assert -1 in queued[0][0].execute().tolist()


class TestDeviceLedgerUnchanged:
    def test_alloc_clear_and_restart(self):
        memory = DeviceMemory(10 ** 7)
        index = GpuBinIndex(prefix_bytes=PREFIX_BYTES, bin_capacity=4096,
                            memory=memory)
        for i in range(3 * INITIAL_SLOTS):
            index.insert(fp(i))
        # Two bins, each charged its full capacity from the first entry.
        assert memory.used_bytes == N_BINS * 4096 * ENTRY_BYTES
        assert [buffer.nbytes for buffer in memory.live_buffers] \
            == [4096 * ENTRY_BYTES] * N_BINS
        assert all(len(lo) < 4096 for lo, _hi, _n in
                   index.table_view().values())
        index.clear()
        assert memory.used_bytes == 0 and len(index) == 0
        assert not index.table_view()
        index.insert(fp(0))
        assert memory.used_bytes == 4096 * ENTRY_BYTES
        assert index.lookup_host([fp(0), fp(2)]) == [True, False]

        engine = DedupEngine(prefix_bytes=PREFIX_BYTES,
                             bin_buffer_capacity=1, gpu_index=index)
        chunk = Chunk(offset=0, size=4096, fingerprint=fp(4),
                      compressed_size=2048)
        engine.commit_unique(chunk)
        assert len(index) == 2
        engine.restart()
        assert len(index) == 0 and memory.used_bytes == 0
