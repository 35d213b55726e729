# Checked by tests/test_source_rules.py, as the module FIXTURE_CASES names.
"""Fixture: REP601 — derived env.now arithmetic outside the tracer."""


def sample_latency(env, admitted: float) -> float:
    waited = env.now - admitted  # expect REP601 on this line (6)
    delay = deadline_for(env) - env.now  # expect REP601 on this line (7)
    granted = env.now  # reading the clock alone is fine
    return waited + delay + (granted - admitted)  # local floats are fine


def deadline_for(env) -> float:
    return env.now + 0.5  # additive scheduling math is fine
