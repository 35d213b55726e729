#!/usr/bin/env python3
"""Re-run the paper's headline experiments, E1-E5.

Each row of the experiment table prints its table and one line per
claim it checks against the paper (the same text
``repro evaluate EXPERIMENTS.md`` writes into EXPERIMENTS.md).  The
sizes are the table's: 256 MiB streams for E2 and E4.

Run:  python examples/paper_evaluation.py
"""

import sys

from repro.bench.experiments import EXPERIMENTS

if __name__ == "__main__":
    passed = True
    for key in ("e1", "e2", "e3", "e4", "e5"):
        text, ok = EXPERIMENTS[key].report()
        print(text, end="\n\n")
        passed = passed and ok
    sys.exit(0 if passed else 1)
