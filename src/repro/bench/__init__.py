"""Benchmark harness: experiment definitions and paper-style reporting.

Each function in :mod:`~repro.bench.experiments` regenerates one of the
paper's reported results (see DESIGN.md §4 for the experiment index);
:mod:`~repro.bench.reporting` renders the same rows/series the paper
reports as ASCII tables and bars.  The pytest-benchmark entry points in
``benchmarks/`` are thin wrappers over these.
:mod:`~repro.bench.micro` is the per-layer micro-benchmark table behind
``repro bench <plane>``; end-to-end speed is ``python3 -m e2ebench``.
"""

from repro.bench.reporting import BarChart, Table
from repro.bench import experiments

__all__ = ["BarChart", "Table", "experiments"]
