"""Command-line interface: ``python -m repro <command>``.

Six commands cover the library's everyday uses:

* ``run`` — one timed pipeline run on the simulated testbed
  (``--trace`` also writes a Chrome ``trace_event`` file);
* ``trace`` — a traced run: Perfetto-loadable trace JSON plus the
  critical-path latency attribution (DESIGN.md §10);
* ``calibrate`` — the paper's dummy-I/O mode chooser, with platform knobs;
* ``evaluate`` — every experiment of ``repro.bench.experiments.EXPERIMENTS``,
  its claims checked and its region of EXPERIMENTS.md rewritten;
* ``bench`` — one experiment of that table by id, or ``list`` (per-layer
  host cost is ``python3 -m e2ebench trace``'s, inside whole runs);
* ``codec`` — compress/decompress a real file with the bundled codecs
  (round-trip verified), reporting the achieved ratio.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional, Sequence

from repro.bench.experiments import SSD_IOPS
from repro.bench.reporting import Table
from repro.compression import LzssCodec, QuickLzCodec
from repro.core.calibration import calibrate_mode, run_mode
from repro.core.modes import IntegrationMode
from repro.cpu.model import CpuSpec, I7_2600K
from repro.errors import ReproError
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


def _dump_trace(spans, out_path: str,
                message: str = "trace: {events} events -> {path}") -> int:
    """Write a run's Chrome trace, print ``message`` and report schema
    problems (exit 1 if there are any)."""
    from repro.obs import chrome_trace, validate_chrome_trace

    payload = chrome_trace(spans)
    problems = validate_chrome_trace(payload)
    with open(out_path, "w") as handle:
        json.dump(payload, handle)
    print("\n" + message.format(events=len(payload["traceEvents"]),
                                spans=len(spans), path=out_path))
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
        return _dump_trace(tracer.spans, args.trace)
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    mode = IntegrationMode(args.mode)
    platform = _platform_from(args)
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
        return _dump_trace(tracer.spans, args.trace)
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import CriticalPathReport, SimTracer

    mode = IntegrationMode(args.mode)
    platform = _platform_from(args)
    tracer = SimTracer()
    run_mode(mode, 1024 if args.quick else args.chunks,
             dedup_ratio=args.dedup_ratio, comp_ratio=args.comp_ratio,
             seed=args.seed, tracer=tracer, **platform)
    critical = CriticalPathReport.from_spans(tracer.spans)
    if args.format == "json":
        print(critical.to_json())
    else:
        print(critical.render())
    if args.format == "summary":
        return 0
    return _dump_trace(tracer.spans, args.out,
                       "trace: {events} events, {spans} spans -> {path} "
                       "(load in Perfetto / chrome://tracing)")


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
    from pathlib import Path

    from repro.bench.experiments import regenerate

    path = Path(args.doc)
    try:
        text, passed = regenerate(path.read_text(), echo=print)
        path.write_text(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return 1
    return 0 if passed else 1


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench.experiments import EXPERIMENTS

    if args.experiment == "list":
        for name in EXPERIMENTS:
            print(name)
        return 0
    experiment = EXPERIMENTS.get(args.experiment)
    if experiment is None:
        print(f"error: unknown experiment {args.experiment!r} "
              f"(try 'repro bench list')", file=sys.stderr)
        return 2
    started = time.time()
    text, passed = experiment.report()
    print(f"=== {args.experiment} "
          f"(wall {time.time() - started:.1f} s) ===")
    print(text)
    return 0 if passed else 1


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

    ev = sub.add_parser("evaluate",
                        help="rerun every experiment, check its claims "
                             "and rewrite its region of a document")
    ev.add_argument("doc", help="document with one <!-- repro:<id> --> "
                                "region per experiment (EXPERIMENTS.md)")
    ev.set_defaults(func=cmd_evaluate)

    bench = sub.add_parser("bench",
                           help="run one experiment (or 'list')")
    bench.add_argument("experiment",
                       help="experiment id (exit 1 if a check fails), "
                            "or 'list' to name them")
    bench.set_defaults(func=cmd_bench)

    codec = sub.add_parser("codec",
                           help="compress a real file with a bundled codec")
    codec.add_argument("file", help="input file")
    codec.add_argument("--codec", choices=("lzss", "quicklz"),
                       default="quicklz")
    codec.add_argument("--limit", type=int, default=1 << 20,
                       help="max bytes to read (pure-Python codecs; lzss "
                            "parses them as one sequential segment "
                            "search, under 2 GiB)")
    codec.set_defaults(func=cmd_codec)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    A library error (an out-of-range dial or platform value, say) is a
    usage error: one ``error:`` line and exit 2, not a traceback.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
