# Checked by tests/test_source_rules.py, as the module FIXTURE_CASES names.
"""Fixture: REP102 — ambient/unseeded randomness."""

import os
import random


def jitter() -> float:
    return random.random()  # expect REP102 on this line (9)


def make_rng() -> random.Random:
    return random.Random()  # expect REP102 on this line (13)


def seeded_is_fine() -> random.Random:
    return random.Random(42)


def system_rng() -> float:
    gen = random.SystemRandom()  # expect REP102 on this line (21)
    return gen.uniform(0.0, 1.0)


def tainted_seed() -> float:
    rng = random.Random(os.urandom(8))  # expect REP102 on this line (26)
    return rng.random()
