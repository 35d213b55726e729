"""e2ebench — the repo's single end-to-end performance yardstick.

Seven closed-loop, single-process, single-thread workloads drive the
public entry points of :mod:`repro` (``run_mode``, ``run_tenant_mix``,
``ReducedVolume``, ``ReadPipeline``); a timed run reports the end-to-end
metrics of ``BENCHMARK.json`` and a traced run attributes host time and
exact Python-call counts to the repo's layers *from outside* — nothing
under ``src/`` is edited or imported beyond those entry points.

Run it from the repository root::

    python3 -m e2ebench run --workload desc_fit
    python3 -m e2ebench trace --workload desc_steady
    python3 -m e2ebench all --json out.json
    python3 -m e2ebench compare base.json new.json

See ``e2ebench/README.md`` for the metric and workload tables, the
timing rule and the noise measurements behind it.
"""

SCHEMA_VERSION = 1
