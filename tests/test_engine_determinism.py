"""Golden-schedule determinism of the optimized engine.

The zero-delay run queue, the uncontended resource fast path, and the
coalesced CPU charge all reorder *implementation* work — none of them
may reorder *simulated* work.  Two identically-seeded pipeline runs
must produce byte-identical reports and dispatch the same events in the
same order at the same timestamps, whatever the interpreter's hash
seed.  A scheduling regression (a dropped
tie-breaker, an eid assigned in a different order) shows up here as a
trace divergence long before it corrupts a paper-level number.
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from repro.core.config import PipelineConfig
from repro.core.modes import IntegrationMode
from repro.core.pipeline import ReductionPipeline
from repro.cpu.model import SimCpu
from repro.gpu.device import GpuDevice
from repro.storage.ssd import SsdModel
from repro.workload.vdbench import VdbenchStream
from tests.dispatch_trace import TracingEnvironment


def _traced_run(mode: IntegrationMode, n_chunks: int, seed: int):
    """One pipeline run on a :class:`TracingEnvironment`."""
    # The run ends with Environment.finish_check, so every traced run
    # also winds down cleanly (no live processes, scheduled events, or
    # held slots left behind).
    config = PipelineConfig(mode=mode)
    env = TracingEnvironment()
    needs_gpu = mode.gpu_for_dedup or mode.gpu_for_compression
    pipeline = ReductionPipeline(
        env, config, cpu=SimCpu(env),
        gpu=GpuDevice(env) if needs_gpu else None,
        ssd=SsdModel(env))
    stream = VdbenchStream(dedup_ratio=2.0, comp_ratio=2.0, seed=seed)
    report = pipeline.run(stream.chunks(n_chunks), total=n_chunks)
    return report, env.trace


def test_identical_seeds_identical_schedules():
    """Same seed twice -> same report fields AND same event ordering."""
    for mode in (IntegrationMode.CPU_ONLY, IntegrationMode.GPU_BOTH):
        report_a, trace_a = _traced_run(mode, 512, seed=1234)
        report_b, trace_b = _traced_run(mode, 512, seed=1234)
        assert dataclasses.asdict(report_a) == dataclasses.asdict(report_b)
        assert len(trace_a) == len(trace_b)
        assert trace_a == trace_b, (
            f"{mode.value}: event schedules diverged at index "
            f"{next(i for i, (a, b) in enumerate(zip(trace_a, trace_b)) if a != b)}")


#: sha256 of each mode's dispatch trace (512 chunks, seed 1234), one
#: ``"{time!r} {event type}\n"`` line per processed event.  Comparing a
#: run with itself cannot see a hot-path cut that reorders a tie the
#: same way every time; this pin can.  A destage write is a booking on
#: the SSD's channel ledger, not an event, so none appears in a trace;
#: a CPU charge is a booking on the threads' ledger plus one
#: ``Timeout``, dispatched where the one-event hold it replaced was.
#: A process runs its first segment inside its spawner, so no start-up
#: entry appears either.
DISPATCH_TRACE_SHA256 = {
    "cpu_only":
        "8c8edd09f020e978745d764677e0ea9f159d0130bf34d0499b8d99f9c522a8f8",
    "gpu_dedup":
        "6c5398ede9fb41ece0bb819afad6f09a08a9c16998c0059e2a9945e51fd4082e",
    "gpu_comp":
        "e1ac54a40b65d84aa12385dd213197e8327f52f0de64be086cdd81f3433c7c53",
    "gpu_both":
        "5c30145a7303fcf0256d4f6ae6f00ea6e739e231fef5e0088076e25a36e6b71b",
}


def pinned_dispatch_trace(mode: IntegrationMode) -> str:
    """The dispatch trace :data:`DISPATCH_TRACE_SHA256` pins, as text
    (``python -m tests.dispatch_trace`` prints it)."""
    _report, trace = _traced_run(mode, 512, seed=1234)
    return "".join(f"{when!r} {name}\n" for when, name in trace)


def test_dispatch_trace_matches_the_pinned_schedule():
    for mode in IntegrationMode:
        lines = pinned_dispatch_trace(mode)
        digest = hashlib.sha256(lines.encode()).hexdigest()
        assert digest == DISPATCH_TRACE_SHA256[mode.value], mode.value


def test_dispatch_trace_tool_prints_the_pinned_trace(capsys):
    from tests import dispatch_trace
    assert dispatch_trace.main(["--mode", "cpu_only"]) == 0
    printed = capsys.readouterr().out
    assert hashlib.sha256(printed.encode()).hexdigest() \
        == DISPATCH_TRACE_SHA256["cpu_only"]


def test_different_seeds_differ():
    """Sanity: the trace hook actually discriminates distinct runs."""
    report_a, _ = _traced_run(IntegrationMode.CPU_ONLY, 512, seed=1234)
    report_b, _ = _traced_run(IntegrationMode.CPU_ONLY, 512, seed=4321)
    assert (dataclasses.asdict(report_a)
            != dataclasses.asdict(report_b))


def test_trace_timestamps_monotonic():
    """Dispatch order never runs time backwards, run-queue included."""
    _report, trace = _traced_run(IntegrationMode.GPU_COMP, 256, seed=7)
    assert trace, "trace hook captured nothing"
    times = [t for t, _name in trace]
    assert all(a <= b for a, b in zip(times, times[1:]))
    assert times[0] == 0.0


#: Every mode's report digest, and the committed tenant mix's (its
#: tenants are named by strings, whose set order follows the hash seed).
_DIGESTS_SCRIPT = """
import json
from pathlib import Path
from repro.core import IntegrationMode, PipelineConfig
from repro.tenancy import TenantMix
from repro.tenancy.runner import run_tenant_mix
from tests.reference_paths import report_digests
digests = report_digests(512)
mix = TenantMix.from_json(Path("examples/tenant_mix.json").read_text())
digests["tenant_mix"] = json.dumps(run_tenant_mix(
    mix, IntegrationMode.GPU_COMP, 512, base_config=PipelineConfig(
        tenancy_policy="prioritized", tenancy_cache_entries=96)
).as_dict(), sort_keys=True)
print(json.dumps(digests))
"""


def test_hash_seed_never_reaches_a_report():
    """Set iteration order over str and bytes follows PYTHONHASHSEED;
    two interpreters with different hash seeds report identically."""
    root = Path(__file__).resolve().parent.parent
    runs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), str(root),
                          env.get("PYTHONPATH")]))
        runs.append(subprocess.Popen(
            [sys.executable, "-c", _DIGESTS_SCRIPT], cwd=root, env=env,
            stdout=subprocess.PIPE, text=True))
    outputs = [run.communicate()[0] for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    assert json.loads(outputs[0]) == json.loads(outputs[1])
