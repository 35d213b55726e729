"""``compare BASE.json NEW.json``: apply the bounds, one row per pairing.

Both files are JSON arrays of results (``--json`` appends, so one file
can hold many runs of every workload).  For each workload x end-to-end
metric the medians are compared against the metric's bound:

* ``worse`` — the new median is worse than the base's by more than the
  bound (exit status 1);
* ``better`` — better by more than the bound;
* ``within`` — neither;
* ``unresolved`` — either side's run-to-run spread (interquartile range
  over median, four or more runs) is wider than the bound, so the
  medians cannot tell; it still counts as ``better`` when every new run
  beats every base run.

Every ratio is printed with its base.  Per-layer metrics have no bound:
those whose median moved are listed, exact ones (counts, simulated
quantities) flagged, because any change in them is a real change.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Optional

from e2ebench.hostclock import quartiles
from e2ebench.metrics import END_TO_END, PER_LAYER, Metric

_HOST_TIME_UNITS = {"us", "s", "%"}


def is_exact(metric: Metric) -> bool:
    """True for counts and simulated quantities (they repeat exactly)."""
    if "sim_" in metric.name:  # gpu.sim_utilization, core.sim_kiops.*
        return True
    return not (metric.unit in _HOST_TIME_UNITS
                or metric.name.endswith(".self_share")
                or metric.name.startswith("obs."))


def load(path: str) -> dict[tuple[str, str], dict[str, list[float]]]:
    """``{(workload, kind): {metric: [values...]}}`` of a result file."""
    grouped: dict[tuple[str, str], dict[str, list[float]]] = {}
    for result in json.loads(Path(path).read_text()):
        metrics = grouped.setdefault((result["workload"], result["kind"]),
                                     {})
        for name, metric in result["metrics"].items():
            metrics.setdefault(name, []).append(metric["value"])
    return grouped


def spread(values: list[float]) -> Optional[float]:
    """Interquartile range over the median; ``None`` below four runs."""
    if len(values) < 4:
        return None
    lower, median, upper = quartiles(values)
    return (upper - lower) / abs(median) if median else None


def classify(metric: Metric, base: list[float],
             new: list[float]) -> tuple[str, float]:
    """(verdict, worsening as a share of the base median)."""
    base_median = statistics.median(base)
    new_median = statistics.median(new)
    if base_median == 0:
        worsening = 0.0 if new_median == 0 else float("inf")
    elif metric.better == "higher":
        worsening = (base_median - new_median) / abs(base_median)
    else:
        worsening = (new_median - base_median) / abs(base_median)
    spreads = [s for s in (spread(base), spread(new)) if s is not None]
    if spreads and max(spreads) > metric.bound:
        if metric.better == "higher":
            all_better = min(new) > max(base)
        else:
            all_better = max(new) < min(base)
        return ("better" if all_better else "unresolved"), worsening
    if worsening > metric.bound:
        return "worse", worsening
    if worsening < -metric.bound:
        return "better", worsening
    return "within", worsening


def _pairs(base: dict, new: dict, kind: str, table: tuple[Metric, ...]):
    """(workload, metric, base values, new values) present on both sides."""
    for workload, its_kind in sorted(base):
        if its_kind != kind or (workload, kind) not in new:
            continue
        for metric in table:
            a = base[workload, kind].get(metric.name)
            b = new[workload, kind].get(metric.name)
            if a and b:
                yield workload, metric, a, b


def main(base_path: str, new_path: str, agree: bool = False) -> int:
    base, new = load(base_path), load(new_path)
    failing = {"worse", "better"} if agree else {"worse"}
    status = 0
    print(f"{'workload':<14}{'metric':<22}{'base median':>15}"
          f"{'new median':>15}{'new/base':>10}{'bound':>8}  verdict (n)")
    for workload, metric, a, b in _pairs(base, new, "run", END_TO_END):
        verdict, _ = classify(metric, a, b)
        a_med, b_med = statistics.median(a), statistics.median(b)
        ratio = b_med / a_med if a_med else float("nan")
        print(f"{workload:<14}{metric.name:<22}{a_med:>15.6g}"
              f"{b_med:>15.6g}{ratio:>10.4f}{metric.bound:>8.2g}"
              f"  {verdict} ({len(a)}/{len(b)})")
        if verdict in failing:
            status = 1
    for workload, metric, a, b in _pairs(base, new, "trace", PER_LAYER):
        a_med, b_med = statistics.median(a), statistics.median(b)
        if a_med == b_med:
            continue
        exact = is_exact(metric)
        ratio = b_med / a_med if a_med else float("nan")
        print(f"{workload:<14}{metric.name:<38}{a_med:>14.6g} ->"
              f"{b_med:>14.6g}  x{ratio:.4f}"
              f"{'  EXACT METRIC MOVED' if exact else ''}")
        if exact and agree:
            status = 1
    return status
