"""Every definition in ``src/repro`` is reached by something other than tests.

A definition is *reached* when ``src/repro``, ``e2ebench/`` or
``examples/`` references it by name: as a ``Name``, an ``Attribute``, an
import alias, or an identifier inside a string constant that is not a
docstring (``e2ebench.ledger.TARGETS`` and the experiment table's
``attrgetter("…")`` columns name code that way).  Re-exports are not
uses: the import aliases and ``__all__`` of a package ``__init__.py``
do not count.  Examples count because they are the public API's
documentation and CI runs them.

The census covers every module-level function and class and every
function or class defined directly in a class body.  Dunders are
exempt: the language calls them.  Code only a test calls belongs in
``tests/`` as an oracle or helper, or nowhere.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
USERS = (SRC, ROOT / "e2ebench", ROOT / "examples")

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _docstring_nodes(tree: ast.AST) -> set[int]:
    docs = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                docs.add(id(body[0].value))
    return docs


def _reexports(tree: ast.Module) -> set[int]:
    """Nodes of a package ``__init__`` that only re-export names."""
    skip = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            skip.update(id(alias) for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                skip.update(id(n) for n in ast.walk(node))
    return skip


def used_names(paths) -> set[str]:
    names: set[str] = set()
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        skip = _docstring_nodes(tree)
        if path.name == "__init__.py":
            skip |= _reexports(tree)
        for node in ast.walk(tree):
            if id(node) in skip:
                continue
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update(node.name.split("."))
                if node.asname:
                    names.add(node.asname)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.update(_IDENT.findall(node.value))
    return names


def definitions(path: Path):
    """``(line, qualname, name)`` of each definition the census covers."""
    tree = ast.parse(path.read_text(), filename=str(path))
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, kinds):
            continue
        yield node.lineno, node.name, node.name
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, kinds):
                    yield member.lineno, f"{node.name}.{member.name}", member.name


def _exempt(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def unreached() -> list[str]:
    users = [p for root in USERS for p in sorted(root.rglob("*.py"))]
    used = used_names(users)
    missing = []
    for path in sorted(SRC.rglob("*.py")):
        for line, qualname, name in definitions(path):
            if not _exempt(name) and name not in used:
                missing.append(f"{path.relative_to(ROOT)}:{line} {qualname}")
    return missing


def test_every_src_definition_is_reached_outside_tests():
    missing = unreached()
    assert not missing, (
        f"{len(missing)} definition(s) in src/repro are reached only by tests "
        "(move oracles to tests/, delete the rest):\n  " + "\n  ".join(missing))
