"""Diagnostic model for ``repro lint``.

A :class:`Diagnostic` is one finding: a rule id, a location, a message,
and a fix hint.  The ``key`` field is a *location-insensitive* stable
identifier (usually ``QualifiedName:detail``) so baseline entries keep
matching a grandfathered finding when unrelated edits move it to a
different line.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass


@dataclass(frozen=True, slots=True)
class Diagnostic:
    """One lint finding."""

    #: Rule identifier, e.g. ``"REP101"``.
    rule: str
    #: Path of the offending file, relative to the lint root.
    path: str
    #: 1-based source line of the finding.
    line: int
    #: 0-based column of the finding.
    col: int
    #: Human-readable statement of the violation.
    message: str
    #: How to fix it (or how to suppress it when it is intentional).
    hint: str = ""
    #: Stable, line-insensitive identity used for baseline matching.
    key: str = ""

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule)

    def baseline_key(self) -> tuple[str, str, str]:
        """Identity used to match this finding against a baseline entry."""
        return (self.rule, self.path, self.key)

    def format_text(self) -> str:
        text = f"{self.path}:{self.line}:{self.col + 1}: {self.rule} {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text

    def to_json(self) -> dict:
        return asdict(self)

