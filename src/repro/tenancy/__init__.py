"""Multi-tenant traffic plane: workload mixes, prioritized admission,
out-of-line compaction (DESIGN.md §13).

The package has two import layers.  This root exports the pieces the
core pipeline and workload layers consume (specs, the admission
controller, the estimators) and deliberately does *not* import
:mod:`repro.tenancy.runner` — the runner drives ``repro.core`` and
importing it here would close a cycle through the pipeline's own
``repro.tenancy`` import.  Use ``from repro.tenancy.runner import
run_tenant_mix`` for end-to-end multi-tenant runs.
"""

from repro.tenancy.accounting import TenantAccounting, TenantCounters
from repro.tenancy.admission import (
    MIN_QUOTA,
    PrioritizedCache,
    SharedLruCache,
)
from repro.tenancy.compaction import CompactionEntry, CompactionQueue
from repro.tenancy.controller import (
    ADMIT_HIT,
    ADMIT_MISS,
    ADMIT_SKIP,
    TenancyController,
)
from repro.tenancy.locality import LocalityEstimator
from repro.tenancy.spec import (
    TENANT_ADDRESS_STRIDE,
    TenantMix,
    TenantMixStream,
    TenantSpec,
)

__all__ = [
    "ADMIT_HIT",
    "ADMIT_MISS",
    "ADMIT_SKIP",
    "CompactionEntry",
    "CompactionQueue",
    "LocalityEstimator",
    "MIN_QUOTA",
    "PrioritizedCache",
    "SharedLruCache",
    "TENANT_ADDRESS_STRIDE",
    "TenancyController",
    "TenantAccounting",
    "TenantCounters",
    "TenantMix",
    "TenantMixStream",
    "TenantSpec",
]
