"""The timed run and the traced run.

Timing rule (every host-time number): one warm-up repetition, then timed
repetitions, each on a fresh platform, ``gc.collect()`` before the clock
starts, ``time.perf_counter`` around the public entry call only.  The
warm-up uses seed ``S`` and timed repetition ``i`` seed ``S+i`` — the
program's fingerprint-decomposition and codec scratch caches are
module-level and content-keyed, so replaying one seed would time their
hit path, which a real run never sees.  Every region's wall time is
divided by the host speed factor over that region
(:mod:`e2ebench.hostclock`); a workload's cost is the sum over its timed
regions of the region's *median* over the repetitions.  Lower quartile,
upper quartile, min, max and R of the per-repetition totals — normalised
and raw — are kept beside it.
"""

from __future__ import annotations

import cProfile
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

from e2ebench import SCHEMA_VERSION
from e2ebench.checks import check_pinned, diff_facts, load_expected
from e2ebench.hostclock import Recorder, SpeedProbe, quartiles
from e2ebench.layers import TraceData, derive
from e2ebench.ledger import SpanLedger, layer_call_counts, summarize_spans
from e2ebench.metrics import END_TO_END, MIN_COVERAGE, PER_LAYER
from e2ebench.workloads import Outcome, Workload

DEFAULT_SEED = 1000
MIN_REPS = 3
#: A time-sized run stops early once it has run this many times longer
#: than asked (never below MIN_REPS repetitions).
OVERRUN = 1.3
#: Pinned expectations cover the default seed pool up to this many
#: repetitions past a base seed.
MAX_REPS = 15

_UNITS = {m.name: m.unit for m in END_TO_END + PER_LAYER}


class Session:
    """Process-wide measurement state: the probe and the import cost."""

    def __init__(self, started: float, probe: SpeedProbe, program,
                 imported: float):
        self.probe = probe
        self.program = program
        self.import_cost = probe.cost(started, imported)
        self.import_wall = imported - started


def _repetition(session: Session, workload: Workload, seed: int,
                pinned: dict, rec: Optional[Recorder] = None
                ) -> tuple[Recorder, Outcome]:
    """Execute once and fold the pinned compare into the outcome."""
    rec = rec if rec is not None else Recorder()
    outcome = workload.execute(session.program, seed, rec)
    differences = check_pinned(pinned, seed, outcome.facts)
    if differences:
        outcome.problems.extend(f"seed {seed}: {line}"
                                for line in differences)
        outcome.failed = outcome.ops
    return rec, outcome


def timed_run(session: Session, workload: Workload, seed: int,
              seconds: float, reps: Optional[int] = None) -> dict:
    """Warm-up + timed repetitions → the end-to-end result."""
    probe = session.probe
    pinned = load_expected(workload.expected)
    warm_rec, warm = _repetition(session, workload, seed, pinned)
    recs, outcomes = [], []
    target = reps if reps is not None else min(MAX_REPS, max(
        MIN_REPS, round(workload.reps_per_10s * seconds / 10.0)))
    began = time.perf_counter()
    while len(recs) < target:
        # Safety valve for a host much slower than the one the counts
        # were sized on: the driver's total-time cap matters more.
        if reps is None and len(recs) >= MIN_REPS and \
                time.perf_counter() - began >= OVERRUN * seconds:
            break
        rec, outcome = _repetition(session, workload,
                                   seed + 1 + len(recs), pinned)
        recs.append(rec)
        outcomes.append(outcome)

    region_costs = [rec.region_costs(probe) for rec in recs]
    regions = {name: quartiles([costs[name] for costs in region_costs])[1]
               for name in region_costs[0]}
    cost = sum(regions.values())
    rep_costs = [sum(costs.values()) for costs in region_costs]
    rep_walls = [rec.wall() for rec in recs]
    prep_costs = [rec.prep_cost(probe) for rec in [warm_rec, *recs]]
    warm_cost = sum(warm_rec.region_costs(probe).values())
    setup_s = session.import_cost + quartiles(prep_costs)[1] + warm_cost

    # The simulated metrics average the repetitions every run executes
    # (warm-up + MIN_REPS), so they depend on the seed alone.
    everything = [warm, *outcomes]
    fixed = everything[:1 + MIN_REPS]
    values = {
        "chunks_per_s": workload.ops / cost,
        "sim_kiops": math.exp(sum(math.log(o.sim_kiops) for o in fixed)
                              / len(fixed)),
        "stored_per_user_byte":
            sum(o.stored_per_user_byte for o in fixed) / len(fixed),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }
    return _result(
        "run", workload, seed, everything,
        metrics=values,
        timing={
            "reps": len(recs),
            "region_median_cost_s": regions,
            "rep_cost_s": _spread(rep_costs),
            "rep_wall_s": _spread(rep_walls),
            "per_rep_cost_s": rep_costs,
            "per_rep_wall_s": rep_walls,
            "warmup_cost_s": warm_cost,
            "import_wall_s": session.import_wall,
            "mb_per_s": values["chunks_per_s"] * 4096 / 1e6,
            # Wall / cost over all timed regions: the run's mean slowdown.
            "host_speed_factor": sum(rep_walls) / sum(rep_costs),
        },
        pinned_seeds=sum(str(seed + i) in pinned
                         for i in range(len(everything))))


def _spread(values: list[float]) -> dict:
    lower, median, upper = quartiles(values)
    return {"lower_quartile": lower, "median": median,
            "upper_quartile": upper, "min": min(values),
            "max": max(values), "n": len(values)}


def traced_run(session: Session, workload: Workload, seed: int,
               spans_out: Optional[str] = None) -> dict:
    """Count, untraced and span pass of seed ``S`` → per-layer metrics.

    Never a source of end-to-end numbers.  The three repetitions must
    produce identical reports (the traced program is the untraced one).
    The count pass goes first: the program's content-keyed caches are
    then as cold as in a real run, so the call counts are a fresh
    process's; the two timed passes both see them warm, so their
    difference is the wrappers' overhead.
    """
    probe = session.probe
    pinned = load_expected(workload.expected)

    # The probe's handler would add its own calls to the counts.
    probe.stop()
    profiler = cProfile.Profile()
    _, counted = _repetition(session, workload, seed, pinned,
                             Recorder(profiler))
    probe.start()

    plain_rec, plain = _repetition(session, workload, seed, pinned)
    ledger = SpanLedger()
    with ledger:
        span_rec, spanned = _repetition(session, workload, seed, pinned)
    layer_calls, calls_by_name = layer_call_counts(profiler.getstats())

    regions = [(start, end) for _, start, end in span_rec.of_kind("timed")]
    summary = summarize_spans(ledger.spans, ledger.targets, regions)
    span_cost = sum(span_rec.region_costs(probe).values())
    data = TraceData(
        workload=workload, outcome=spanned, summary=summary,
        speed=span_rec.wall() / span_cost,
        layer_calls=layer_calls, calls_by_name=calls_by_name,
        captured=ledger.captured,
        untraced_cost=sum(plain_rec.region_costs(probe).values()),
        span_cost=span_cost,
        companions=workload.companions(session.program, seed))
    values = derive(data)

    for label, other in (("span pass", spanned), ("count pass", counted)):
        if other.facts != plain.facts:
            other.failed = other.ops
            other.problems.append(
                f"{label} report differs from the untraced one: "
                + "; ".join(diff_facts(plain.facts, other.facts)))
    if summary.coverage < MIN_COVERAGE:
        spanned.failed = spanned.ops
        spanned.problems.append(
            f"ledger covers {summary.coverage:.3f} of the timed wall "
            f"clock, below {MIN_COVERAGE}")
    if spans_out:
        Path(spans_out).write_text(json.dumps(ledger.rows(seed)))

    return _result(
        "trace", workload, seed, [counted, plain, spanned],
        metrics={name: value for name, value in values.items()
                 if value is not None},
        absent=sorted(name for name, value in values.items()
                      if value is None),
        missing_targets=ledger.missing, spans=len(ledger.spans),
        pinned_seeds=int(str(seed) in pinned))


def _result(kind: str, workload: Workload, seed: int,
            outcomes: list[Outcome], metrics: dict, **extra) -> dict:
    problems = [line for outcome in outcomes for line in outcome.problems]
    failed = sum(outcome.failed for outcome in outcomes)
    return {
        "schema": SCHEMA_VERSION,
        "kind": kind,
        "workload": workload.name,
        "seed": seed,
        "correct": failed == 0,
        "attempted": sum(outcome.ops for outcome in outcomes),
        "failed": failed,
        "problems": problems,
        "metrics": {name: {"value": value, "unit": _UNITS[name]}
                    for name, value in metrics.items()},
        "env": environment(),
        **extra,
    }


def environment() -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"commit": _commit(), "python": platform.python_version(),
            "numpy": numpy_version, "nproc": os.cpu_count(),
            "machine": platform.machine()}


def _commit() -> str:
    root = Path(__file__).resolve().parent.parent
    try:
        done = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def driver_line(result: dict, names: tuple[str, ...]) -> str:
    """The contract's last line: exactly ``names``, absent metrics as 0."""
    metrics = {name: result["metrics"].get(
        name, {"value": 0.0, "unit": _UNITS[name]}) for name in names}
    return json.dumps({"correct": result["correct"],
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def print_result(result: dict, out=None) -> None:
    """Every metric by name with its unit, then the check verdict."""
    print(f"{result['workload']} [{result['kind']}] seed {result['seed']} "
          f"commit {result['env']['commit']} python "
          f"{result['env']['python']} numpy {result['env']['numpy']} "
          f"nproc {result['env']['nproc']}", file=out)
    for name, metric in result["metrics"].items():
        print(f"  {name:<40} {metric['value']:>16.6g} {metric['unit']}",
              file=out)
    for name in result.get("absent", ()):
        print(f"  {name:<40} {'n/a':>16}", file=out)
    timing = result.get("timing")
    if timing:
        cost, wall = timing["rep_cost_s"], timing["rep_wall_s"]
        print(f"  repetitions {timing['reps']}: normalised s/rep "
              f"lq {cost['lower_quartile']:.4f} med {cost['median']:.4f} "
              f"uq {cost['upper_quartile']:.4f} min {cost['min']:.4f} "
              f"max {cost['max']:.4f}; raw wall med {wall['median']:.4f} "
              f"(host speed factor {timing['host_speed_factor']:.3f}); "
              f"{timing['mb_per_s']:.2f} MB/s", file=out)
    verdict = "ok" if result["correct"] else "FAILED"
    print(f"  checks {verdict}: {result['attempted'] - result['failed']}/"
          f"{result['attempted']} operations, "
          f"{result['pinned_seeds']} repetition(s) against pinned "
          "expectations", file=out)
    for line in result["problems"]:
        print(f"    ! {line}", file=out)
