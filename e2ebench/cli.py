"""Command line: ``run``, ``trace``, ``all``, ``compare``, ``bench``, ``pin``.

``bench`` is the driver's contract (``BENCHMARK.json``'s command): it
takes ``--workload --seed --seconds --trace`` and ends its standard
output with one JSON line.  The others are for people.

Exit codes: 0 ok, 1 a failed output check (or ``compare`` found a
regression), 2 bad usage such as an unknown workload, 3 the program
under test cannot be imported.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

from e2ebench import compare as compare_mod
from e2ebench.checks import save_expected
from e2ebench.hostclock import Recorder, SpeedProbe
from e2ebench.metrics import END_TO_END, PER_LAYER
from e2ebench.runner import (DEFAULT_SEED, MAX_REPS, Session, driver_line,
                             print_result, timed_run, traced_run)
from e2ebench.workloads import WORKLOADS, load_program

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SECONDS = 10.0
#: ``bench`` folds the driver's seed onto eight pinned base seeds, four
#: apart, so that every driver run is checked against pinned
#: expectations (repetition ``i`` of base ``b`` uses seed ``b + i``).
SEED_POOL, SEED_STRIDE = 8, 4


def pooled_seed(driver_seed: int) -> int:
    return DEFAULT_SEED + SEED_STRIDE * (driver_seed % SEED_POOL)


def pinned_seed_range() -> range:
    return range(DEFAULT_SEED,
                 DEFAULT_SEED + SEED_STRIDE * (SEED_POOL - 1) + MAX_REPS + 1)


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python3 -m e2ebench", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def workload_args(p, required=True):
        p.add_argument("--workload", choices=sorted(WORKLOADS),
                       required=required)
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--json", metavar="OUT",
                       help="append the result to this JSON array file")

    def timing_args(p):
        p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                       help="keep repeating until this much time passed")
        p.add_argument("--reps", type=_positive,
                       help="exactly this many timed repetitions instead")

    run = sub.add_parser("run", help="timed run: end-to-end metrics")
    workload_args(run)
    timing_args(run)
    trace = sub.add_parser("trace", help="traced run: per-layer metrics")
    workload_args(trace)
    trace.add_argument("--spans-out", metavar="PATH",
                       help="write the span pass's spans as JSON")
    every = sub.add_parser("all", help="run then trace, every workload, "
                                       "one process each")
    workload_args(every, required=False)
    timing_args(every)
    comp = sub.add_parser("compare", help="apply the bounds to two "
                                          "result files")
    comp.add_argument("base")
    comp.add_argument("new")
    comp.add_argument("--agree", action="store_true",
                      help="two runs of one commit: 'better' beyond the "
                           "bound is a disagreement too")
    bench = sub.add_parser("bench", help="the driver's contract")
    bench.add_argument("--workload", choices=sorted(WORKLOADS),
                       required=True)
    bench.add_argument("--seed", type=int, required=True)
    bench.add_argument("--seconds", type=float, required=True)
    bench.add_argument("--trace", type=int, choices=(0, 1), required=True)
    pin = sub.add_parser("pin", help="regenerate expected/<workload>.json "
                                     "(a benchmark-correcting change only)")
    pin.add_argument("--workload", choices=sorted(WORKLOADS))
    return parser


def _session(started: float) -> Optional[Session]:
    """Start the probe, then import the program under test."""
    probe = SpeedProbe()
    probe.start()
    # Measure this checkout's source, not an installed copy of it.
    source = ROOT / "src"
    if (source / "repro").is_dir():
        sys.path.insert(0, str(source))
    elif importlib.util.find_spec("repro") is None:
        probe.stop()
        print(f"e2ebench: {source} does not hold 'repro' and it is not "
              "installed; run from a checkout of the repository",
              file=sys.stderr)
        return None
    try:
        program = load_program()
    except BaseException:
        probe.stop()
        raise
    return Session(started, probe, program, time.perf_counter())


def _append_json(path: str, result: dict) -> None:
    target = Path(path)
    results = json.loads(target.read_text()) if target.exists() else []
    results.append(result)
    target.write_text(json.dumps(results, indent=1) + "\n")


def _measure(args, started: float) -> int:
    session = _session(started)
    if session is None:
        return 3
    try:
        workload = WORKLOADS[args.workload]
        bench = args.command == "bench"
        seed = pooled_seed(args.seed) if bench else args.seed
        if args.command == "trace" or (bench and args.trace):
            result = traced_run(session, workload, seed,
                                getattr(args, "spans_out", None))
            table = PER_LAYER
        else:
            result = timed_run(session, workload, seed, args.seconds,
                               getattr(args, "reps", None))
            table = END_TO_END
        print_result(result)
        if bench:
            print(driver_line(result, tuple(m.name for m in table)))
        elif args.json:
            _append_json(args.json, result)
    finally:
        session.probe.stop()
    return 0 if result["correct"] else 1


def _all(args) -> int:
    """One process per workload and kind, so ``peak_rss_mb`` is its own."""
    names = [args.workload] if args.workload else list(WORKLOADS)
    status = 0
    for name in names:
        for kind in ("run", "trace"):
            command = [sys.executable, "-m", "e2ebench", kind,
                       "--workload", name, "--seed", str(args.seed)]
            if args.json:
                command += ["--json", str(Path(args.json).resolve())]
            if kind == "run":
                command += ["--seconds", str(args.seconds)]
                if args.reps is not None:
                    command += ["--reps", str(args.reps)]
            status = max(status,
                         subprocess.run(command, cwd=ROOT).returncode)
    return status


def _pin(args) -> int:
    session = _session(time.perf_counter())
    if session is None:
        return 3
    session.probe.stop()
    names = [args.workload] if args.workload else list(WORKLOADS)
    # Workloads that share an expectation file are pinned once.
    for workload in {WORKLOADS[name].expected: WORKLOADS[name]
                     for name in names}.values():
        seeds = {}
        for seed in pinned_seed_range():
            outcome = workload.execute(session.program, seed, Recorder())
            if outcome.failed:
                print(f"{workload.name} seed {seed}: {outcome.problems}",
                      file=sys.stderr)
                return 1
            seeds[str(seed)] = outcome.facts
        path = save_expected(workload.expected, seeds)
        print(f"pinned {len(seeds)} seeds in {path}")
    return 0


def main(argv: list[str], started: Optional[float] = None) -> int:
    started = time.perf_counter() if started is None else started
    args = _parser().parse_args(argv)
    if args.command == "compare":
        return compare_mod.main(args.base, args.new, args.agree)
    if args.command == "all":
        return _all(args)
    if args.command == "pin":
        return _pin(args)
    return _measure(args, started)
