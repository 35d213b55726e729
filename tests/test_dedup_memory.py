"""The index's memory belongs to a run, not to the process.

A fingerprint-keyed cache at module level once outlived every pipeline
that filled it: peak RSS grew with the number of runs a process had
made, not with what any one of them indexed.  This guard makes that
class of state visible: after a run's report is dropped, what
``repro.dedup`` allocated for it is gone too, and no module-level
container anywhere in the program has changed size.
"""

import gc
import hashlib
import sys
import tracemalloc
from collections import deque

from repro.bench.micro import build_corpus
from repro.compression.lzss import LzssCodec
from repro.compression.quicklz import QuickLzCodec
from repro.core.calibration import run_mode
from repro.core.modes import IntegrationMode
from repro.dedup.bins import BinTable
from repro.workload.datagen import BlockContentGenerator

#: Slack for interned ints, code-object caches and allocator rounding.
RETAINED_BYTES = 64 * 1024


def dedup_bytes() -> int:
    """Live bytes whose allocating frame is a ``repro/dedup/`` file."""
    gc.collect()
    snapshot = tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.Filter(True, "*/repro/dedup/*")])
    return sum(stat.size for stat in snapshot.statistics("filename"))


def module_containers() -> dict[str, int]:
    """Size of every module-level container of the program proper:
    each loaded ``repro.*`` module but the lint and bench tooling."""
    sizes = {}
    for name, module in list(sys.modules.items()):
        if (name + ".").startswith("repro.") and not name.startswith(
                ("repro.analysis", "repro.bench")):
            for attr, value in vars(module).items():
                # OrderedDict and defaultdict are dicts.
                if isinstance(value, (dict, list, set, deque)) \
                        and not attr.startswith("__"):
                    sizes[f"{name}.{attr}"] = len(value)
    return sizes


def test_a_run_leaves_nothing_behind_in_repro_dedup():
    # Imports and first-use initialisation happen outside the window.
    run_mode(IntegrationMode.GPU_BOTH, 512, seed=1)
    containers = module_containers()
    tracemalloc.start()
    try:
        before = dedup_bytes()
        # The instrument sees index memory while something holds it.
        table = BinTable()
        for i in range(4096):
            table.insert(hashlib.sha1(i.to_bytes(4, "big")).digest(), i)
        assert dedup_bytes() - before > 4 * RETAINED_BYTES
        del table
        for seed in (11, 12):
            report = run_mode(IntegrationMode.GPU_BOTH, 8192, seed=seed)
            del report
            assert dedup_bytes() - before <= RETAINED_BYTES
        # The rest of the data plane: both serial codecs over more
        # distinct blocks than any bounded cache would hold, a generator
        # calibration, and a run over real bytes.
        blocks = [payload for _, payload in build_corpus()] \
            + [bytes([i]) * 512 for i in range(24)]
        for codec in (LzssCodec(), QuickLzCodec()):
            for block in blocks:
                assert codec.decode(codec.encode(block)) == block
        BlockContentGenerator(2.0, seed=3).calibrate()
        run_mode(IntegrationMode.GPU_COMP, 256, seed=5, payload=True)
    finally:
        tracemalloc.stop()
    assert module_containers() == containers
