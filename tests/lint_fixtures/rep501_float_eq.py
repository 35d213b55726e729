# Checked by tests/test_source_rules.py, as the module FIXTURE_CASES names.
"""Fixture: REP501 — exact equality on simulated time."""


def admit(env, deadline: float) -> bool:
    if env.now == deadline:  # expect REP501 on this line (6)
        return True
    if deadline != env.now + 1.0:  # expect REP501 on this line (8)
        return False
    return env.now >= deadline  # ordering comparisons are fine
