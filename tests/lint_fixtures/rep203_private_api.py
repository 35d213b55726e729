# Checked by tests/test_source_rules.py, as the module FIXTURE_CASES names.
"""Fixture: REP203 — private engine API outside repro.sim."""


def sneaky_schedule(env, event):
    env._schedule(event, 1, 0.0)  # expect REP203 on this line (6)


def sneaky_trigger(event):
    event._trigger_now(None)  # expect REP203 on this line (10)
