"""Print the pinned dispatch traces, one processed event per line.

    python -m tests.dispatch_trace
    python -m tests.dispatch_trace --mode gpu_comp

Each line is ``"{time!r} {event type}"``, the text whose sha256
``tests/test_engine_determinism.py::DISPATCH_TRACE_SHA256`` pins (512
chunks, seed 1234).  Without ``--mode`` every mode is printed, each
after a ``# <mode>`` header line.  A re-pin is then shown as a diff:
run this once with ``PYTHONPATH`` naming the parent commit's ``src``
and once with this tree's, and ``diff`` the two outputs.

The engine keeps no trace hook: :class:`TracingEnvironment` records the
schedule from the test side, around each :meth:`Environment.step`.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.core.modes import IntegrationMode
from repro.sim import Environment


class TracingEnvironment(Environment):
    """An :class:`Environment` whose ``trace`` lists ``(time, event type
    name)`` for every event it dispatches, in dispatch order.

    A step takes one event, from the head of the run queue or of the
    heap; callbacks only append to the run queue.  So the run-queue
    head was taken iff it is no longer the head, and otherwise the heap
    head was, at the clock the step leaves.
    """

    __slots__ = ("trace",)

    def __init__(self, initial_time: float = 0.0):
        super().__init__(initial_time)
        self.trace: list[tuple[float, str]] = []

    def step(self) -> None:
        ready, queue = self._ready, self._queue
        first = ready[0] if ready else None
        head = queue[0] if queue else None
        super().step()
        if first is not None and not (ready and ready[0] is first):
            event = first[1]
        else:
            event = head[2]
        self.trace.append((self._now, type(event).__name__))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tests.dispatch_trace",
        description="Print the pinned dispatch trace of each mode.")
    parser.add_argument("--mode", choices=[m.value for m in IntegrationMode],
                        help="print only this mode's trace, without a "
                             "header line")
    args = parser.parse_args(argv)
    from tests.test_engine_determinism import pinned_dispatch_trace
    if args.mode:
        sys.stdout.write(pinned_dispatch_trace(IntegrationMode(args.mode)))
        return 0
    for mode in IntegrationMode:
        sys.stdout.write(f"# {mode.value}\n")
        sys.stdout.write(pinned_dispatch_trace(mode))
    return 0


if __name__ == "__main__":
    sys.exit(main())
