"""Hypothesis profiles for the test suite.

``mutants``: every phase but shrinking (and the explanation that
follows it).  ``python -m tests.mutants`` runs each row's nodes under
it, where a failing example only has to fail, not be made minimal.
"""

from hypothesis import Phase, settings

settings.register_profile(
    "mutants",
    phases=[phase for phase in Phase
            if phase not in (Phase.shrink, Phase.explain)])
