"""Self-tests of the benchmark (``python3 -m pytest e2ebench/tests``).

They run shrunken copies of the workloads — the real sizes are the
benchmark's business, these only check its arithmetic and plumbing.
"""

import dataclasses
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from e2ebench import runner  # noqa: E402
from e2ebench.hostclock import SpeedProbe  # noqa: E402
from e2ebench.runner import Session  # noqa: E402
from e2ebench.workloads import WORKLOADS, load_program  # noqa: E402

SMALL = {
    "desc_fit": dict(chunks=384, modes=("gpu_both", "cpu_only")),
    "payload_cpu": dict(chunks=48),
    "volume_write": dict(fill=48, overwrite=16, reads_a=64, reads_b=16),
    "volume_read": dict(fill=48, overwrite=16, reads_a=64, reads_b=16),
    "tenant_mix": dict(chunks=512),
}


def small(name: str):
    return dataclasses.replace(WORKLOADS[name], **SMALL[name])


@pytest.fixture
def small_workloads(monkeypatch):
    """The registry with every shrinkable workload shrunk.

    The pinned expectations describe the real sizes, so they are hidden.
    """
    for name in SMALL:
        monkeypatch.setitem(WORKLOADS, name, small(name))
    monkeypatch.setattr(runner, "load_expected", lambda _name: {})
    return WORKLOADS


@pytest.fixture
def session():
    started = time.perf_counter()
    probe = SpeedProbe()
    probe.start()
    try:
        yield Session(started, probe, load_program(), time.perf_counter())
    finally:
        probe.stop()
