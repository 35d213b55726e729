"""Re-pin the field-level report pins, naming what moves.

    python -m tests.repin
    python -m tests.repin --moves PATTERN... --cause TEXT

Runs every pinned run of ``tests/pins/runs.py`` once and compares each
report with its pin in ``tests/pins/*.json``, field by field and
exactly.  Without ``--moves`` it is read-only: it lists the fields that
moved, writes nothing, and exits 1 if there are any.  With ``--moves``
it rewrites the pins, but only when every moved field matches one of
the glob patterns (``ssd_utilization`` names ``ssd_utilization`` at
any depth; ``tenants[*].p99_latency_s`` names a path); otherwise it
refuses and exits 1.  Either way it prints a before/after table (with
the cause) to paste into the change log.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Callable, Optional, Sequence

from tests import pins
from tests.pins.runs import RUNS, produce

#: One moved field: (family/name, field, pinned value, observed value).
Move = tuple[str, str, Any, Any]


def table(moves: list[Move], cause: Optional[str]) -> str:
    lines = [] if cause is None else [f"Cause: {cause}", ""]
    lines += ["| pin | field | before | after |", "|---|---|---|---|"]
    lines += [f"| {pin} | `{field}` | {before!r} | {after!r} |"
              for pin, field, before, after in moves]
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None,
         run: Callable[[str, str], Any] = produce) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tests.repin",
        description="Compare (and, with --moves, rewrite) the report "
                    "pins in tests/pins/.")
    parser.add_argument("--moves", nargs="+", metavar="PATTERN",
                        help="glob patterns naming the fields allowed "
                             "to move; without it nothing is written")
    parser.add_argument("--cause", help="why the named fields move "
                                        "(required with --moves)")
    args = parser.parse_args(argv)
    if args.moves and not args.cause:
        parser.error("--moves needs --cause")

    moves: list[Move] = []
    rewritten: dict[str, dict[str, dict]] = {}
    for family, names in RUNS.items():
        stored = pins.load(family)
        rewritten[family] = {}
        for name in names:
            report = run(family, name)
            moves += [(f"{family}/{name}", field, before, after)
                      for field, before, after
                      in pins.moved_fields(stored[name]["report"], report)]
            rewritten[family][name] = pins.pin_entry(report)

    if not moves:
        print(f"no pinned field moved "
              f"({sum(map(len, RUNS.values()))} pinned runs)")
        return 0
    print(table(moves, args.cause))
    if not args.moves:
        print(f"\n{len(moves)} pinned field(s) moved; nothing written "
              f"(name them with --moves and state a --cause)")
        return 1
    stray = [move for move in moves if not pins.matches(move[1], args.moves)]
    if stray:
        print(f"\nrefusing to write: {len(stray)} moved field(s) match no "
              f"--moves pattern:")
        for pin, field, before, after in stray:
            print(f"  {pin}: {field}: {before!r} -> {after!r}")
        return 1
    for family in sorted({move[0].split("/", 1)[0] for move in moves}):
        pins.save(family, rewritten[family])
    print(f"\nrewrote {len(moves)} field(s) in tests/pins/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
