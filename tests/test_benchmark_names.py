"""Every name the end-to-end benchmark reaches in ``src/`` still resolves.

``e2ebench`` drives the program through the entry points in
``e2ebench.workloads._ENTRY_POINTS`` and wraps the functions in
``e2ebench.ledger.TARGETS`` for its per-layer ledger.  Both tables are
read here, never edited, so removing or renaming a pinned name fails
tier-1 instead of only the benchmark's own suite.  So are the
``path:Qualname`` call names ``e2ebench/layers.py`` counts its
per-chunk event and charge metrics by.
"""

import ast
import importlib
import re
from pathlib import Path

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


ROOT = Path(__file__).resolve().parents[1]
#: ``"path:Qualname"`` keys the count pass reads, e.g.
#: ``sim/engine.py:Environment.step``.
COUNTED_CALLS = sorted(set(re.findall(
    r'calls_by_name\.get\(\s*"([^"]+)"',
    (ROOT / "e2ebench" / "layers.py").read_text())))


def _qualnames(tree: ast.Module) -> set[str]:
    """Every function's dotted qualname in a module, classes included."""
    names: set[str] = set()

    def walk(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    names.add(name)
                walk(child, name + ".")

    walk(tree, "")
    return names


def test_the_count_pass_reads_some_call_names():
    assert "cpu/model.py:SimCpu.charge" in COUNTED_CALLS
    assert "sim/engine.py:Environment.step" in COUNTED_CALLS


@pytest.mark.parametrize("key", COUNTED_CALLS)
def test_counted_call_is_defined_where_it_is_named(key):
    path, qualname = key.split(":", 1)
    source = ROOT / "src" / "repro" / path
    assert source.is_file(), key
    assert qualname in _qualnames(ast.parse(source.read_text())), key
