"""``python3 -m e2ebench`` — see :mod:`e2ebench.cli`."""

import sys
import time

# Taken before anything else is imported: setup_s starts here.
_STARTED = time.perf_counter()

from e2ebench.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:], started=_STARTED))
