"""Field-level report pins: each pinned report stored whole.

``<family>.json`` beside this module maps a run's name to
``{"sha256": ..., "report": ...}``: the report as canonical JSON data
and the sha256 of its sorted-key serialisation (the digest the report
was once pinned by).  A run is checked field by field: the report is
flattened to ``{"a.b[0].c": value}`` and every field must be *exactly*
the pinned one, ints and strings by ``==``, floats bit for bit.  A
mismatch names every field that moved.

How each pinned report is produced is :mod:`tests.pins.runs`; the one
way to rewrite these files is ``python -m tests.repin`` (``tests/repin.py``).
"""

from __future__ import annotations

import hashlib
import json
import struct
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Any, Iterable

PIN_DIR = Path(__file__).resolve().parent

#: Stands for a field one side of a comparison lacks.
ABSENT = "<absent>"


def canonical(report: Any) -> Any:
    """``report`` as the JSON data a pin file holds (string keys,
    lists for tuples); floats survive the round trip exactly."""
    return json.loads(json.dumps(report, sort_keys=True))


def report_sha256(report: Any) -> str:
    """sha256 of the sorted-key JSON of ``report``."""
    return hashlib.sha256(
        json.dumps(report, sort_keys=True).encode()).hexdigest()


def load(family: str) -> dict[str, dict]:
    """``{name: {"sha256", "report"}}`` of one pin family."""
    return json.loads((PIN_DIR / f"{family}.json").read_text())


def save(family: str, pins: dict[str, dict]) -> None:
    (PIN_DIR / f"{family}.json").write_text(
        json.dumps(pins, sort_keys=True, indent=1) + "\n")


def pin_entry(report: Any) -> dict:
    report = canonical(report)
    return {"sha256": report_sha256(report), "report": report}


def flatten(value: Any, prefix: str = "") -> dict[str, Any]:
    """Leaves of nested dicts and lists, keyed by their path (an empty
    dict or list is a leaf)."""
    if isinstance(value, dict) and value:
        fields: dict[str, Any] = {}
        for key, item in value.items():
            fields.update(flatten(item, f"{prefix}.{key}" if prefix
                                  else str(key)))
        return fields
    if isinstance(value, list) and value:
        fields = {}
        for index, item in enumerate(value):
            fields.update(flatten(item, f"{prefix}[{index}]"))
        return fields
    return {prefix: value}


def same(a: Any, b: Any) -> bool:
    """Exact equality: same type, and floats equal bit for bit."""
    if type(a) is not type(b):
        return False
    if type(a) is float:
        return struct.pack("<d", a) == struct.pack("<d", b)
    return a == b


def moved_fields(pinned: Any, observed: Any) -> list[tuple[str, Any, Any]]:
    """``(field, pinned value, observed value)`` of every field that is
    not exactly the pinned one, in field order."""
    before = flatten(canonical(pinned))
    after = flatten(canonical(observed))
    return [(field, before.get(field, ABSENT), after.get(field, ABSENT))
            for field in sorted(before.keys() | after.keys())
            if field not in before or field not in after
            or not same(before[field], after[field])]


def matches(field: str, patterns: Iterable[str]) -> bool:
    """Whether any glob pattern names ``field``, as its whole path or
    as its trailing components (``ssd_utilization`` names
    ``tenants[1].ssd_utilization``)."""
    return any(fnmatchcase(field, pattern)
               or fnmatchcase(field, "*." + pattern)
               for pattern in patterns)


def describe(moves: list[tuple[str, Any, Any]]) -> str:
    return "\n".join(f"  {field}: {before!r} -> {after!r}"
                     for field, before, after in moves)


def check(family: str, name: str, report: Any) -> None:
    """Fail, naming every moved field, unless ``report`` is the pinned
    report ``family/name`` field for field."""
    moves = moved_fields(load(family)[name]["report"], report)
    assert not moves, (f"{family}/{name}: {len(moves)} pinned field(s) "
                       f"moved\n{describe(moves)}")
