"""Run a command in a session of its own; fail if any process outlives it.

    python -m tests.no_survivors -- python3 -m e2ebench bench \\
        --workload payload_gpu --seed 1 --seconds 2 --trace 0

The command's exit status is passed on, unless a process of its
session — a forked helper still computing, say — is alive once the
command has exited: then each one is named and killed, and the exit
status is 1.  Linux only: the session's members are read from /proc.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from typing import Optional


def survivors(session: int) -> list[int]:
    """The pids of every live process in ``session``."""
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                if os.getsid(int(entry)) == session:
                    found.append(int(entry))
            except (ProcessLookupError, PermissionError):
                pass
    return found


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["--"]:
        argv = argv[1:]
    if not argv:
        print("usage: python -m tests.no_survivors -- COMMAND...",
              file=sys.stderr)
        return 2
    command = subprocess.Popen(argv, start_new_session=True)
    status = command.wait()
    left = survivors(command.pid)
    for pid in left:
        print(f"no_survivors: pid {pid} outlived {argv[0]}",
              file=sys.stderr)
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return 1 if left else status


if __name__ == "__main__":
    sys.exit(main())
