"""Print the pinned dispatch traces, one processed event per line.

    python -m tests.dispatch_trace
    python -m tests.dispatch_trace --mode gpu_comp

Each line is ``"{time!r} {event type}"``, the text whose sha256
``tests/test_engine_determinism.py::DISPATCH_TRACE_SHA256`` pins (512
chunks, seed 1234).  Without ``--mode`` every mode is printed, each
after a ``# <mode>`` header line.  A re-pin is then shown as a diff:
run this once with ``PYTHONPATH`` naming the parent commit's ``src``
and once with this tree's, and ``diff`` the two outputs.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.core.modes import IntegrationMode
from tests.test_engine_determinism import pinned_dispatch_trace


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tests.dispatch_trace",
        description="Print the pinned dispatch trace of each mode.")
    parser.add_argument("--mode", choices=[m.value for m in IntegrationMode],
                        help="print only this mode's trace, without a "
                             "header line")
    args = parser.parse_args(argv)
    if args.mode:
        sys.stdout.write(pinned_dispatch_trace(IntegrationMode(args.mode)))
        return 0
    for mode in IntegrationMode:
        sys.stdout.write(f"# {mode.value}\n")
        sys.stdout.write(pinned_dispatch_trace(mode))
    return 0


if __name__ == "__main__":
    sys.exit(main())
