"""Every name the end-to-end benchmark reaches in ``src/`` still resolves.

``e2ebench`` drives the program through the entry points in
``e2ebench.workloads._ENTRY_POINTS`` and wraps the functions in
``e2ebench.ledger.TARGETS`` for its per-layer ledger.  Both tables are
read here, never edited, so removing or renaming a pinned name fails
tier-1 instead of only the benchmark's own suite.
"""

import importlib

import pytest

from e2ebench.ledger import TARGETS
from e2ebench.workloads import _ENTRY_POINTS


def resolve(module: str, qualname: str):
    owner = importlib.import_module(module)
    for part in qualname.split("."):
        owner = getattr(owner, part)
    return owner


@pytest.mark.parametrize("target", TARGETS)
def test_ledger_target_resolves(target):
    module, qualname = target.split(":", 1)
    assert callable(resolve(module, qualname))


@pytest.mark.parametrize("name", sorted(_ENTRY_POINTS))
def test_entry_point_resolves(name):
    assert resolve(_ENTRY_POINTS[name], name) is not None


def test_names_the_workloads_call_on_entry_points():
    # The volume workloads prepare payloads with VdbenchStream.chunks;
    # the ledger rebinds the pipeline's from-imported fingerprint_window.
    assert callable(resolve("repro.workload.vdbench", "VdbenchStream.chunks"))
    pipeline = importlib.import_module("repro.core.pipeline")
    hashing = importlib.import_module("repro.dedup.hashing")
    assert pipeline.fingerprint_window is hashing.fingerprint_window
