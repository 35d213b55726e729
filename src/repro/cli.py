"""Command-line interface: ``python -m repro <command>``.

Seven commands cover the library's everyday uses:

* ``run`` — one timed pipeline run on the simulated testbed
  (``--trace`` also writes a Chrome ``trace_event`` file);
* ``trace`` — a traced run: Perfetto-loadable trace JSON plus the
  critical-path latency attribution (DESIGN.md §10);
* ``calibrate`` — the paper's dummy-I/O mode chooser, with platform knobs;
* ``evaluate`` — the paper's §4 evaluation at a chosen scale;
* ``bench`` — one experiment by id, or the per-layer micro-benchmark
  rates of this host (``repro.bench.micro``; the numbers that count are
  ``python3 -m e2ebench``'s);
* ``codec`` — compress/decompress a real file with the bundled codecs
  (round-trip verified), reporting the achieved ratio;
* ``lint`` — the project's AST invariant checker (determinism,
  sim-protocol, float-time and data-plane hygiene).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional, Sequence

from repro.bench.experiments import (
    SSD_IOPS,
    e2_dedup,
    e3_compression,
    e4_integration,
)
from repro.bench.reporting import BarChart, Table
from repro.compression import LzssCodec, QuickLzCodec
from repro.core.calibration import calibrate_mode, run_mode
from repro.core.modes import IntegrationMode
from repro.cpu.model import CpuSpec, I7_2600K
from repro.gpu.device import GpuSpec, RADEON_HD_7970

#: GPU presets selectable from the command line.
GPU_PRESETS: dict[str, Optional[GpuSpec]] = {
    "testbed": RADEON_HD_7970,
    "weak": GpuSpec(name="entry dGPU", compute_units=4, lanes_per_cu=32,
                    freq_hz=600e6, mem_bandwidth_bps=28e9,
                    mem_capacity_bytes=1024**3,
                    launch_overhead_s=180e-6, sync_overhead_s=180e-6,
                    occupancy=0.2),
    "none": None,
}


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--chunks", type=int, default=16384,
                        help="stream length in 4 KiB chunks")
    parser.add_argument("--dedup-ratio", type=float, default=2.0,
                        help="workload deduplication dial")
    parser.add_argument("--comp-ratio", type=float, default=2.0,
                        help="workload compression dial")
    parser.add_argument("--seed", type=int, default=1234,
                        help="workload RNG seed")


def _add_platform_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cpu-cores", type=int, default=I7_2600K.cores)
    parser.add_argument("--cpu-threads", type=int,
                        default=I7_2600K.threads)
    parser.add_argument("--cpu-ghz", type=float,
                        default=I7_2600K.freq_hz / 1e9)
    parser.add_argument("--gpu", choices=sorted(GPU_PRESETS),
                        default="testbed", help="GPU preset")


def _platform_from(args: argparse.Namespace) -> dict:
    cpu_spec = CpuSpec(name="cli", cores=args.cpu_cores,
                       threads=args.cpu_threads,
                       freq_hz=args.cpu_ghz * 1e9)
    return {"cpu_spec": cpu_spec, "gpu_spec": GPU_PRESETS[args.gpu]}


def _dump_trace(tracer, out_path: str) -> int:
    """Write a run's Chrome trace and report schema problems."""
    from repro.obs import chrome_trace, validate_chrome_trace

    payload = chrome_trace(tracer.spans)
    problems = validate_chrome_trace(payload)
    with open(out_path, "w") as handle:
        json.dump(payload, handle)
    print(f"\ntrace: {len(payload['traceEvents'])} events -> "
          f"{out_path}")
    if problems:
        for problem in problems:
            print(f"trace schema problem: {problem}", file=sys.stderr)
        return 1
    return 0


def _run_tenants(args: argparse.Namespace, mode: IntegrationMode,
                 platform: dict, tracer) -> int:
    """``repro run --tenants``: one multi-tenant timed run."""
    from repro import PipelineConfig
    from repro.errors import WorkloadError
    from repro.tenancy import TenantMix
    from repro.tenancy.runner import run_tenant_mix

    try:
        with open(args.tenants) as handle:
            mix = TenantMix.from_json(handle.read())
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WorkloadError as exc:
        print(f"error: {args.tenants}: {exc}", file=sys.stderr)
        return 2
    config = PipelineConfig(tenancy_policy=args.tenancy_policy,
                            tenancy_cache_entries=args.tenancy_cache)
    started = time.time()
    report = run_tenant_mix(mix, mode, args.chunks, base_config=config,
                            tracer=tracer, payload=args.payload,
                            **platform)
    pipeline = report.pipeline
    table = Table(f"tenant mix: {len(mix.tenants)} tenant(s), "
                  f"{mode.value}, {args.chunks} chunks, "
                  f"policy {report.policy}", ["metric", "value"])
    table.add_row("throughput", f"{pipeline.iops / 1e3:.1f} K IOPS")
    table.add_row("ingest", f"{pipeline.mb_per_s:.1f} MB/s")
    table.add_row("inline hit rate", f"{report.inline_hit_rate:.1%}")
    table.add_row("dedup inline", f"{report.inline_dedup_ratio:.2f}x")
    table.add_row("dedup effective",
                  f"{report.effective_dedup_ratio:.2f}x")
    table.add_row("dedup oracle", f"{report.oracle_dedup_ratio:.2f}x")
    table.add_row("oracle recovery", f"{report.recovery_fraction:.1%}")
    if report.compaction:
        table.add_row("compaction epochs",
                      str(report.compaction["epochs"]))
        table.add_row("compaction reclaimed",
                      f"{report.compaction['reclaimed_bytes'] / 1e6:.1f}"
                      " MB")
    table.add_row("wall time", f"{time.time() - started:.1f} s")
    table.print()
    per_tenant = Table("per-tenant accounting",
                       ["tenant", "chunks", "hit rate", "skips",
                        "recovered", "p99 latency"])
    for entry in report.tenants:
        p99 = entry.latency.get("p99", 0.0)
        per_tenant.add_row(entry.name, entry.chunks,
                           f"{entry.inline_hit_rate:.1%}", entry.skips,
                           entry.recovered, f"{p99 * 1e6:.0f} us")
    per_tenant.print()
    if tracer is not None:
        return _dump_trace(tracer, args.trace)
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    mode = IntegrationMode(args.mode)
    platform = _platform_from(args)
    if platform["gpu_spec"] is None and (mode.gpu_for_dedup
                                         or mode.gpu_for_compression):
        print(f"error: mode {mode.value} needs a GPU (use --gpu)",
              file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from repro.obs import SimTracer
        tracer = SimTracer()
    if args.tenants:
        return _run_tenants(args, mode, platform, tracer)
    started = time.time()
    report = run_mode(mode, args.chunks, dedup_ratio=args.dedup_ratio,
                      comp_ratio=args.comp_ratio, seed=args.seed,
                      tracer=tracer, payload=args.payload, **platform)
    table = Table(f"pipeline run: {mode.value}, {args.chunks} chunks "
                  f"(dedup {args.dedup_ratio} x comp {args.comp_ratio})",
                  ["metric", "value"])
    table.add_row("throughput", f"{report.iops / 1e3:.1f} K IOPS")
    table.add_row("ingest", f"{report.mb_per_s:.1f} MB/s")
    table.add_row("vs SSD write IOPS", f"{report.iops / SSD_IOPS:.2f}x")
    table.add_row("mean chunk latency",
                  f"{report.mean_latency_s * 1e6:.0f} us")
    table.add_row("cpu utilization", f"{report.cpu_utilization:.1%}")
    table.add_row("gpu utilization", f"{report.gpu_utilization:.1%}")
    table.add_row("dedup ratio", f"{report.dedup_ratio:.2f}x")
    table.add_row("compression ratio", f"{report.comp_ratio:.2f}x")
    table.add_row("total reduction", f"{report.reduction_ratio:.2f}x")
    table.add_row("NAND programmed",
                  f"{report.nand_bytes_written / 1e6:.1f} MB")
    table.add_row("wall time", f"{time.time() - started:.1f} s")
    table.print()
    if tracer is not None:
        return _dump_trace(tracer, args.trace)
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.bench.tracing import build_trace_bundle
    from repro.obs import write_chrome_trace

    mode = IntegrationMode(args.mode)
    platform = _platform_from(args)
    if platform["gpu_spec"] is None and (mode.gpu_for_dedup
                                         or mode.gpu_for_compression):
        print(f"error: mode {mode.value} needs a GPU (use --gpu)",
              file=sys.stderr)
        return 2
    chunks = 1024 if args.quick else args.chunks
    bundle = build_trace_bundle(mode, chunks,
                                dedup_ratio=args.dedup_ratio,
                                comp_ratio=args.comp_ratio,
                                seed=args.seed, **platform)
    critical = bundle["critical_path"]
    if args.format == "json":
        print(critical.to_json())
    else:
        print(critical.render())
    if args.format == "summary":
        return 0
    write_chrome_trace(args.out, bundle["spans"])
    print(f"\ntrace: {len(bundle['payload']['traceEvents'])} events, "
          f"{len(bundle['spans'])} spans -> {args.out} "
          "(load in Perfetto / chrome://tracing)")
    if bundle["problems"]:
        for problem in bundle["problems"]:
            print(f"trace schema problem: {problem}", file=sys.stderr)
        return 1
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    result = calibrate_mode(dummy_chunks=args.chunks,
                            dedup_ratio=args.dedup_ratio,
                            comp_ratio=args.comp_ratio,
                            seed=args.seed, **_platform_from(args))
    print(result.table())
    print(f"\n-> commit to {result.best_mode.value} "
          f"({result.speedup_over_cpu_only():.2f}x over CPU-only)")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    n = args.chunks
    print(f"paper evaluation at {n} chunks "
          f"({n * 4096 // 1024**2} MiB) per run\n")

    results = e2_dedup(n_chunks=n)
    cpu, gpu = results["cpu_only"], results["gpu_assisted"]
    print(f"S4(1) dedup: CPU {cpu.iops / 1e3:.1f} K, "
          f"GPU-assisted {gpu.iops / 1e3:.1f} K "
          f"(+{gpu.speedup_over(cpu) - 1:.1%}; paper +15.0%), "
          f"{gpu.iops / SSD_IOPS:.2f}x SSD (paper ~3x)")

    rows = e3_compression(ratios=(1.2, 2.0, 4.0), n_chunks=max(n // 2, 1))
    table = Table("S4(2) compression", ["comp ratio", "CPU K IOPS",
                                        "GPU K IOPS", "GPU/CPU"])
    for row in rows:
        table.add_row(row.comp_ratio, row.cpu_iops / 1e3,
                      row.gpu_iops / 1e3, f"{row.gpu_advantage:.2f}x")
    table.print()

    integration = e4_integration(n_chunks=n)
    chart = BarChart("S4(3) / Fig. 2: integration modes", unit=" K IOPS")
    for mode in IntegrationMode.all_modes():
        chart.add_bar(mode.value, integration[mode].iops / 1e3)
    chart.print()
    best = integration[IntegrationMode.GPU_COMP]
    base = integration[IntegrationMode.CPU_ONLY]
    print(f"GPU-for-compression: +{best.speedup_over(base) - 1:.1%} "
          "over CPU-only (paper +89.7%)")
    return 0


def _render_result(result) -> None:
    """Generic pretty-printer for experiment return shapes."""
    import dataclasses

    def show_value(value):
        if isinstance(value, float):
            return f"{value:.4g}"
        return str(value)

    if dataclasses.is_dataclass(result) and not isinstance(result, type):
        for field_info in dataclasses.fields(result):
            print(f"  {field_info.name}: "
                  f"{show_value(getattr(result, field_info.name))}")
        return
    if isinstance(result, dict):
        for key, value in result.items():
            label = getattr(key, "value", key)
            if hasattr(value, "iops"):
                print(f"  {label}: {value.iops / 1e3:.1f} K IOPS")
            elif hasattr(value, "table"):
                print(f"--- {label} ---")
                print(value.table())
            else:
                print(f"  {label}: {show_value(value)}")
        return
    if isinstance(result, list) and result \
            and dataclasses.is_dataclass(result[0]):
        columns = [f.name for f in dataclasses.fields(result[0])]
        table = Table("result", columns)
        for row in result:
            table.add_row(*(show_value(getattr(row, c))
                            for c in columns))
        table.print()
        return
    if hasattr(result, "iops"):
        print(f"  {result.iops / 1e3:.1f} K IOPS "
              f"(counters: {result.counters})")
        return
    print(f"  {result!r}")


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import micro
    from repro.bench.experiments import registry

    experiments = registry()
    if args.experiment == "list":
        for name in (*experiments, *micro.PLANES, "all"):
            print(name)
        return 0
    if args.experiment == "all" or args.experiment in micro.PLANES:
        planes = (micro.PLANES if args.experiment == "all"
                  else (args.experiment,))
        results = micro.run_micro(planes, quick=args.quick,
                                  profile=args.profile)
        print(json.dumps(results, indent=2) if args.json
              else micro.render_micro(results))
        return 0
    runner = experiments.get(args.experiment)
    if runner is None:
        print(f"error: unknown experiment {args.experiment!r} "
              f"(try 'repro bench list')", file=sys.stderr)
        return 2
    started = time.time()
    result = runner()
    print(f"=== {args.experiment} "
          f"(wall {time.time() - started:.1f} s) ===")
    _render_result(result)
    return 0


def cmd_codec(args: argparse.Namespace) -> int:
    codec = LzssCodec() if args.codec == "lzss" else QuickLzCodec()
    try:
        with open(args.file, "rb") as handle:
            data = handle.read(args.limit)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not data:
        print("error: empty input", file=sys.stderr)
        return 2
    started = time.time()
    blob = codec.encode(data)
    encode_s = time.time() - started
    if codec.decode(blob) != data:
        print("error: round-trip mismatch (codec bug!)", file=sys.stderr)
        return 1
    print(f"{args.codec}: {len(data):,} B -> {len(blob):,} B "
          f"(ratio {len(data) / len(blob):.3f}x), "
          f"encoded in {encode_s:.2f} s, round-trip verified")
    return 0


#: Default committed baseline of grandfathered lint findings.
DEFAULT_BASELINE = ".repro-lint-baseline.json"


def cmd_lint(args: argparse.Namespace) -> int:
    # Imported lazily: the analysis layer is a leaf package and the
    # other commands must not pay for (or depend on) it.
    from pathlib import Path

    from repro.analysis import Baseline, LintConfig, all_checkers, run_lint
    from repro.errors import LintError

    config = LintConfig(root=Path.cwd(),
                        rules=tuple(args.rules) if args.rules else None)
    if args.list_rules:
        for checker in all_checkers(LintConfig()):
            print(f"{checker.rule}  {checker.name:<32} "
                  f"{checker.description}")
        return 0
    if args.explain:
        return _explain_rule(args.explain)

    paths = [Path(p) for p in (args.paths or ["src/repro"])]
    baseline = None
    baseline_path = Path(args.baseline)
    if not args.no_baseline and not args.write_baseline \
            and baseline_path.exists():
        try:
            baseline = Baseline.load(baseline_path)
        except LintError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        # Explicit path arguments scan less than the full tree, so an
        # unmatched baseline entry there proves nothing — only default
        # (full-tree) runs may call entries stale.
        report = run_lint(paths, config, baseline=baseline,
                          check_stale=not args.paths)
    except LintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.write_baseline:
        Baseline.from_diagnostics(report.new).save(baseline_path)
        print(f"wrote {len(report.new)} entry(ies) to {baseline_path}")
        return 0
    if args.format == "json":
        print(report.format_json())
    elif args.format == "github":
        print(report.format_github())
    else:
        print(report.format_text())
    # Stale baseline entries fail the run too: a grandfathered finding
    # that no longer occurs must be removed, or the baseline rots.
    return 0 if report.ok and not report.stale_baseline else 1


def _explain_rule(rule: str) -> int:
    """Print one rule's contract: registry line plus its module doc."""
    import inspect

    from repro.analysis import checker_by_rule
    from repro.errors import LintError

    try:
        checker = checker_by_rule(rule)
    except LintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{checker.rule}  {checker.name}")
    print(f"  {checker.description}")
    doc = inspect.getdoc(type(checker)) or ""
    module_doc = inspect.getdoc(
        inspect.getmodule(type(checker))) or ""
    for block in (doc, module_doc):
        if block:
            print()
            for line in block.splitlines():
                print(f"  {line}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Parallel inline data reduction (Ma & Park, "
                    "PaCT 2017) on a simulated CPU/GPU/SSD testbed.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="one timed pipeline run")
    run.add_argument("--mode", default="gpu_comp",
                     choices=[m.value for m in IntegrationMode])
    _add_workload_args(run)
    _add_platform_args(run)
    run.add_argument("--trace", metavar="PATH", default=None,
                     help="also write a Chrome trace_event JSON of "
                          "the run")
    run.add_argument("--payload", action="store_true",
                     help="run the workload with real payload bytes "
                          "(functional data plane) instead of "
                          "descriptors")
    run.add_argument("--tenants", metavar="SPEC_JSON", default=None,
                     help="run a multi-tenant mix from a TenantMix "
                          "JSON spec (see examples/tenant_mix.json); "
                          "--dedup-ratio/--comp-ratio/--seed are "
                          "ignored, the spec dials each tenant")
    run.add_argument("--tenancy-policy",
                     choices=("none", "shared_lru", "prioritized"),
                     default="prioritized",
                     help="inline admission policy for --tenants runs "
                          "(DESIGN.md §13)")
    run.add_argument("--tenancy-cache", type=int, default=1024,
                     metavar="ENTRIES",
                     help="inline fingerprint-cache capacity for "
                          "--tenants runs")
    run.set_defaults(func=cmd_run)

    trace = sub.add_parser(
        "trace", help="traced run: Chrome trace + critical-path report")
    trace.add_argument("--mode", default="gpu_comp",
                       choices=[m.value for m in IntegrationMode])
    _add_workload_args(trace)
    _add_platform_args(trace)
    trace.add_argument("--quick", action="store_true",
                       help="1024-chunk run (CI smoke)")
    trace.add_argument("--out", default="trace.json",
                       help="Chrome trace_event output path")
    trace.add_argument("--format", choices=("chrome", "summary", "json"),
                       default="chrome",
                       help="chrome: trace file + table; summary: "
                            "table only; json: trace file + JSON report")
    trace.set_defaults(func=cmd_trace)

    cal = sub.add_parser("calibrate",
                         help="dummy-I/O integration-mode chooser")
    _add_workload_args(cal)
    _add_platform_args(cal)
    cal.set_defaults(func=cmd_calibrate)

    ev = sub.add_parser("evaluate", help="re-run the paper's S4")
    _add_workload_args(ev)
    ev.set_defaults(func=cmd_evaluate)

    bench = sub.add_parser("bench",
                           help="run one experiment or per-layer "
                                "micro-benchmark plane (or 'list')")
    bench.add_argument("experiment",
                       help="experiment id (e1..e5, a1..a11, a13..a18), a "
                            "micro-benchmark plane (engine, dataplane, "
                            "dedup, pipeline, cluster, tenancy, "
                            "workload), 'all' "
                            "planes, or 'list'")
    bench.add_argument("--quick", action="store_true",
                       help="planes: fewer repeats, smaller corpora")
    bench.add_argument("--profile", action="store_true",
                       help="planes: wrap the timed loop in cProfile "
                            "and append the cumulative-time table")
    bench.add_argument("--json", action="store_true",
                       help="planes: print the rows as JSON instead "
                            "of the table")
    bench.set_defaults(func=cmd_bench)

    codec = sub.add_parser("codec",
                           help="compress a real file with a bundled codec")
    codec.add_argument("file", help="input file")
    codec.add_argument("--codec", choices=("lzss", "quicklz"),
                       default="quicklz")
    codec.add_argument("--limit", type=int, default=1 << 20,
                       help="max bytes to read (pure-Python codecs)")
    codec.set_defaults(func=cmd_codec)

    lint = sub.add_parser(
        "lint", help="AST invariant checker (DESIGN.md §8)")
    lint.add_argument("paths", nargs="*",
                      help="files/directories to lint "
                           "(default: src/repro)")
    lint.add_argument("--rule", action="append", dest="rules",
                      metavar="RULE",
                      help="run only this rule id/name (repeatable)")
    lint.add_argument("--explain", metavar="RULE",
                      help="print one rule's contract and exit")
    lint.add_argument("--format", choices=("text", "json", "github"),
                      default="text")
    lint.add_argument("--baseline", default=DEFAULT_BASELINE,
                      help="baseline file of grandfathered findings")
    lint.add_argument("--no-baseline", action="store_true",
                      help="ignore the baseline (report everything)")
    lint.add_argument("--write-baseline", action="store_true",
                      help="grandfather all current findings into the "
                           "baseline file")
    lint.add_argument("--list-rules", action="store_true",
                      help="list the registered rules and exit")
    lint.set_defaults(func=cmd_lint)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
