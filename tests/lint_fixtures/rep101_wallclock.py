# Checked by tests/test_source_rules.py, as the module FIXTURE_CASES names.
"""Fixture: REP101 — wall-clock reads in simulation-scoped code."""

import time
from datetime import datetime


def stamp() -> float:
    return time.time()  # expect REP101 on this line (9)


def label() -> str:
    return datetime.now().isoformat()  # expect REP101 on this line (13)
