# Checked by tests/test_source_rules.py, as the module FIXTURE_CASES names.
"""Fixture: REP201 — process generators yielding non-events."""


def broken_process(env):
    yield 42  # expect REP201 on this line (6)
    yield  # expect REP201 on this line (7)


def fine_process(env):
    yield env.timeout(1.0)
