"""Benchmark harness: the experiment table and paper-style reporting.

:data:`~repro.bench.experiments.EXPERIMENTS` has one row per paper
table/figure and ablation (DESIGN.md §4): the size it runs at, the
:class:`~repro.bench.reporting.Table` it prints and the paper claims it
checks.  ``repro bench <id>``, ``repro evaluate EXPERIMENTS.md`` and
``examples/paper_evaluation.py`` all run those rows.  Speed, end to end
and per layer, is measured by ``python3 -m e2ebench`` (``run``,
``trace``), not here.
"""

from repro.bench.reporting import Table
from repro.bench import experiments

__all__ = ["Table", "experiments"]
