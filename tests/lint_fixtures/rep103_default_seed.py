# Checked by tests/test_source_rules.py, as the module FIXTURE_CASES names.
"""Fixture: REP103 — RNG-owning class with a defaulted seed."""

import random


class FakePolicy:
    def __init__(self, seed: int = 0):  # expect REP103 on this line (8)
        self._rng = random.Random(seed)


class RequiredSeedIsFine:
    def __init__(self, *, seed: int):
        self._rng = random.Random(seed)
