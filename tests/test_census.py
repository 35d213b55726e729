"""The execution census's fast half (the census itself is
``python -m tests.census``, a CI job of its own).

The comparison must name both kinds of drift, the table must name
functions that exist, and the census's keys must be the ones Python
gives the code objects the hook records.
"""

from __future__ import annotations

import importlib
import inspect

from tests.census import KEPT, ROOT, SRC, definitions, report


def test_report_names_unexpected_and_stale_sites():
    defined = {("src/repro/a.py", "f"): 3, ("src/repro/a.py", "C.g"): 7,
               ("src/repro/a.py", "C.__repr__"): 9,
               ("src/repro/b.py", "h"): 1, ("src/repro/b.py", "k"): 5}
    entered = {"src/repro/a.py:3", "src/repro/b.py:1"}
    kept = {("src/repro/b.py", "h"): "Held.",
            ("src/repro/b.py", "k"): "Error path.",
            ("src/repro/b.py", "gone"): "Deleted since."}
    assert report(defined, entered, kept) == [
        "src/repro/a.py:7 C.g: never entered (delete it, or keep it "
        "with a reason)",
        "src/repro/b.py:1 h: kept, but entered (stale)",
        "src/repro/b.py gone: kept, but no such function (stale)",
    ]


def test_every_kept_entry_names_a_function_and_a_reason():
    defined = definitions()
    assert sorted(set(KEPT) - set(defined)) == []
    assert all(reason for reason in KEPT.values())


def test_definitions_are_keyed_as_the_code_objects_are():
    """Each function a module or class exposes has the first line and
    qualname :func:`definitions` gives it, decorated ones included."""
    defined = definitions()
    checked = 0
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(ROOT).as_posix()
        module = importlib.import_module(
            ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
            .removesuffix(".__init__"))
        owners = [module] + [value for value in vars(module).values()
                             if inspect.isclass(value)
                             and value.__module__ == module.__name__]
        for owner in owners:
            for value in vars(owner).values():
                value = getattr(value, "fget", value)
                value = getattr(value, "__func__", value)
                code = getattr(value, "__code__", None)
                if code is None or code.co_filename != str(path):
                    continue
                assert defined[(rel, value.__qualname__)] == \
                    code.co_firstlineno, (rel, value.__qualname__)
                checked += 1
    assert checked > 400
