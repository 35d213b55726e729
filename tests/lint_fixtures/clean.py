# Checked by tests/test_source_rules.py, as the module FIXTURE_CASES names.
"""Fixture: a file every rule should pass."""

import random


class Tidy:
    def __init__(self, *, seed: int):
        self._rng = random.Random(seed)

    def draw(self) -> float:
        return self._rng.random()


def tidy_process(env):
    yield env.timeout(1.0)
