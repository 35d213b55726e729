"""Per-file analysis context: source, AST, imports, suppressions.

The context is built once per file and shared by every checker.  It
owns the three pieces of file-level knowledge the rules keep needing:

* the *module name* the file implements (derived from its path under a
  ``src/`` or package root, overridable for fixtures with a magic
  ``# repro-lint: module=...`` comment);
* the *import map* from local alias to the dotted name it binds, so a
  checker can resolve ``t.monotonic()`` back to ``time.monotonic`` no
  matter how the module was imported;
* the *suppression table* parsed from line-scoped
  ``# repro-lint: disable=...`` comments.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Optional

from repro.errors import LintError

#: ``# repro-lint: disable=REP101,REP102`` — suppress on this line.
_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\s]+)")
#: ``# repro-lint: module=repro.sim.engine`` — fixture module override.
_MODULE_RE = re.compile(r"#\s*repro-lint:\s*module=([\w.]+)")


def module_name_for(path: Path) -> Optional[str]:
    """Dotted module name for ``path``, or None outside a package tree.

    Looks for the last path component named ``repro`` and joins from
    there, which covers both ``src/repro/...`` layouts and installed
    trees.
    """
    parts = list(path.parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            dotted = parts[i:]
            if dotted[-1] == "__init__":
                dotted = dotted[:-1]
            return ".".join(dotted)
    return None


class FileContext:
    """Everything the checkers need to know about one source file."""

    def __init__(self, path: Path, rel_path: str, source: str):
        self.path = path
        #: Path string reported in diagnostics (relative, POSIX slashes).
        self.rel_path = rel_path
        self.source = source
        try:
            self.tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            raise LintError(
                f"{rel_path}: cannot parse: {exc}") from exc
        self.module = self._resolve_module()
        #: line -> rule ids (or ``ALL``) suppressed on that line.
        self._suppress: dict[int, frozenset[str]] = {}
        for lineno, line in enumerate(source.splitlines(), start=1):
            match = _SUPPRESS_RE.search(line)
            if match:
                self._suppress[lineno] = frozenset(
                    token.strip().upper()
                    for token in match.group(1).split(",")
                    if token.strip())
        self.imports = self._collect_imports()

    @classmethod
    def from_path(cls, path: Path, root: Path) -> "FileContext":
        try:
            rel = path.resolve().relative_to(root.resolve())
            rel_path = rel.as_posix()
        except ValueError:
            rel_path = path.as_posix()
        return cls(path, rel_path, path.read_text())

    # -- module identity ----------------------------------------------------

    def _resolve_module(self) -> Optional[str]:
        match = _MODULE_RE.search(self.source)
        if match:
            return match.group(1)
        return module_name_for(self.path)

    def suppressed(self, rule: str, line: int) -> bool:
        """True when ``rule`` is suppressed at ``line``."""
        at_line = self._suppress.get(line, frozenset())
        return rule.upper() in at_line or "ALL" in at_line

    # -- imports ------------------------------------------------------------

    def _collect_imports(self) -> dict[str, str]:
        """Map every imported alias to the dotted name it binds."""
        imports: dict[str, str] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    # ``import a.b`` binds ``a``; ``import a.b as c``
                    # binds ``c`` to ``a.b``.
                    target = alias.name if alias.asname else \
                        alias.name.split(".")[0]
                    imports[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = self._resolve_from(node)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    imports[local] = f"{base}.{alias.name}"
        return imports

    def _resolve_from(self, node: ast.ImportFrom) -> Optional[str]:
        if node.level == 0:
            return node.module
        if self.module is None:
            return None
        # Relative import: climb ``level`` packages from this module.
        parts = self.module.split(".")
        # A module's own name does not count as a package level unless
        # this file is a package __init__ (already stripped).
        if len(parts) < node.level:
            return None
        base_parts = parts[:-node.level] if node.level <= len(parts) else []
        if node.module:
            base_parts = base_parts + node.module.split(".")
        return ".".join(base_parts) if base_parts else None

    # -- expression helpers -------------------------------------------------

    def dotted_name(self, node: ast.AST) -> Optional[str]:
        """Syntactic dotted form of a Name/Attribute chain, else None."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            parts.append(node.id)
            return ".".join(reversed(parts))
        return None

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Fully-qualified dotted name of an expression, import-aware.

        ``t.monotonic`` with ``import time as t`` resolves to
        ``time.monotonic``; chains rooted in unimported names (locals,
        ``self``) resolve to None so callers cannot confuse an instance
        RNG with the module-level one.
        """
        dotted = self.dotted_name(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        target = self.imports.get(head)
        if target is None:
            return None
        return f"{target}.{rest}" if rest else target
