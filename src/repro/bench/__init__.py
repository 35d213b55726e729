"""Benchmark harness: the experiment table and paper-style reporting.

:data:`~repro.bench.experiments.EXPERIMENTS` has one row per paper
table/figure and ablation (DESIGN.md §4): the size it runs at, the
:class:`~repro.bench.reporting.Table` it prints and the paper claims it
checks.  ``repro bench <id>``, ``repro evaluate EXPERIMENTS.md`` and
``examples/paper_evaluation.py`` all run those rows.
:mod:`~repro.bench.micro` is the per-layer micro-benchmark table behind
``repro bench <plane>``; end-to-end speed is ``python3 -m e2ebench``.
"""

from repro.bench.reporting import Table
from repro.bench import experiments

__all__ = ["Table", "experiments"]
