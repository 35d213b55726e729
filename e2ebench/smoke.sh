#!/usr/bin/env bash
# Smoke test for CI: every workload, timed run then traced run, every
# output check on (pinned expectations, model compare, ledger coverage,
# traced == untraced), two timed repetitions each.  Run from anywhere:
#
#     bash e2ebench/smoke.sh [extra `all` arguments, e.g. --json out.json]
#
# Exits non-zero if any check fails.  Wiring it into
# .github/workflows/ci.yml is left to a later change (this one may not
# touch CI).
set -euo pipefail
cd "$(dirname "$0")/.."
exec python3 -m e2ebench all --reps 2 "$@"
