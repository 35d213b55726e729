"""Output checks against pinned expectations.

``expected/<workload>.json`` holds, per repetition seed, the flattened
public report of that repetition (``workloads.flatten``): integers are
compared exactly, floats at relative 1e-9 — a tolerance, not a digest,
so a ULP-level reassociation of a sum is not a failure while any
modelling change is.  A seed that is not pinned is not compared; the
traced run then requires its three repetitions of one seed to agree
exactly instead.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Optional

REL_TOL = 1e-9

EXPECTED_DIR = Path(__file__).parent / "expected"


def load_expected(workload: str) -> dict[str, dict[str, float]]:
    """``{seed: facts}`` pinned for ``workload`` (empty if none)."""
    path = EXPECTED_DIR / f"{workload}.json"
    if not path.exists():
        return {}
    payload = json.loads(path.read_text())
    keys = payload["keys"]
    return {seed: dict(zip(keys, values))
            for seed, values in payload["seeds"].items()}


def save_expected(workload: str, seeds: dict[str, dict[str, float]]) -> Path:
    """One line per seed; the fact names, shared by all seeds, once."""
    keys = sorted(next(iter(seeds.values())))
    lines = []
    for seed in sorted(seeds, key=int):
        if sorted(seeds[seed]) != keys:
            raise ValueError(f"seed {seed} reports different fact names")
        values = json.dumps([seeds[seed][key] for key in keys])
        lines.append(f'  "{seed}": {values}')
    path = EXPECTED_DIR / f"{workload}.json"
    path.write_text(
        "{\n"
        f' "workload": "{workload}",\n "rel_tol": {REL_TOL},\n'
        f' "keys": {json.dumps(keys)},\n "seeds": {{\n'
        + ",\n".join(lines) + "\n }\n}\n")
    return path


def diff_facts(expected: dict[str, float], actual: dict[str, float],
               limit: int = 5) -> list[str]:
    """Human-readable differences (at most ``limit``); empty = equal."""
    problems: list[str] = []
    for key in sorted(set(expected) | set(actual)):
        if key not in actual:
            problems.append(f"{key}: missing (expected {expected[key]})")
        elif key not in expected:
            problems.append(f"{key}: unexpected ({actual[key]})")
        else:
            want, got = expected[key], actual[key]
            exact = isinstance(want, int) and isinstance(got, int)
            same = (want == got if exact else
                    math.isclose(want, got, rel_tol=REL_TOL, abs_tol=0.0))
            if not same:
                problems.append(f"{key}: expected {want!r}, got {got!r}")
        if len(problems) >= limit:
            problems.append("...")
            break
    return problems


def check_pinned(pinned: dict[str, dict[str, float]], seed: int,
                 facts: dict[str, float]) -> Optional[list[str]]:
    """Differences from the pinned facts; ``None`` if the seed is unpinned."""
    expected = pinned.get(str(seed))
    if expected is None:
        return None
    return diff_facts(expected, facts)
