"""Canonical stage and counter names for the reduction pipeline.

Tracer span stages, critical-path report rows and the report counters
all read from this module, so the names cannot drift apart: a stage the
tracer records is a stage the critical-path report knows how to order,
and a counter the dedup engine bumps is a counter the report carries.

Stage names follow the paper's Fig. 1 workflow order; the
``INLINE_STAGES`` tuple is the admission-to-completion subset whose
per-chunk durations must account for (>= 95% of) the mean inline
latency — the tentpole's attribution invariant.
"""

from __future__ import annotations

# -- per-chunk lifecycle spans (chunk_id set) -------------------------------

#: Whole-chunk envelope span: admission to completion (= the latency
#: histogram's sample for that chunk).
STAGE_CHUNK = "chunk"
#: Wait for a window slot, *before* admission (not part of inline latency).
STAGE_ADMISSION = "admission_wait"

#: Content-defined/fixed chunking share of the ingest charge.
STAGE_CHUNKING = "chunking"
#: SHA-1 fingerprinting share of the ingest charge (plus stage handoff).
STAGE_FINGERPRINT = "fingerprint"
#: Batched GPU bin lookup: submit to fan-out (queueing included).
STAGE_GPU_INDEX = "gpu_index"
#: CPU bin-buffer/bin-tree probe.
STAGE_CPU_INDEX = "cpu_index"
#: Wait on an in-flight twin's commit (pure queueing).
STAGE_PENDING_WAIT = "pending_wait"
#: Compression: CPU chunk-per-thread codec, or GPU batch submit-to-fan-out.
STAGE_COMPRESS = "compress"
#: CPU refinement of raw GPU compression output.
STAGE_POSTPROCESS = "postprocess"
#: Metadata insert + bin-buffer staging (duplicate map or unique store).
STAGE_COMMIT = "commit"

#: Workflow-ordered stages that make up the inline (admission-to-
#: completion) path; their per-chunk attributions must sum to the mean
#: chunk latency.
INLINE_STAGES = (
    STAGE_CHUNKING,
    STAGE_FINGERPRINT,
    STAGE_GPU_INDEX,
    STAGE_CPU_INDEX,
    STAGE_PENDING_WAIT,
    STAGE_COMPRESS,
    STAGE_POSTPROCESS,
    STAGE_COMMIT,
)

# -- resource-track spans (chunk_id unset) ----------------------------------

#: Asynchronous bin destage to the SSD (off the inline path).
STAGE_DESTAGE = "destage"
#: SSD channel occupancy per request kind.
STAGE_SSD_WRITE = "ssd_write"
STAGE_SSD_READ = "ssd_read"

#: Out-of-line compaction epoch: re-fingerprinting inline-skipped
#: chunks in sim-time background batches (repro.tenancy).
STAGE_COMPACTION = "compaction"

#: Resource/track names used by the Chrome exporter.
TRACK_WINDOW = "window"
TRACK_GPU_QUEUE = "gpu-queue"
TRACK_SSD = "ssd"
TRACK_DESTAGE = "destage"
TRACK_COMPACTION = "compaction"

# -- report counter keys (DedupEngine.counters / PipelineReport.counters) ----

CTR_GPU_HITS = "gpu_hits"
CTR_BUFFER_HITS = "buffer_hits"
CTR_TREE_HITS = "tree_hits"
CTR_UNIQUES = "uniques"
CTR_RACE_DUPLICATES = "race_duplicates"
CTR_FLUSHES = "flushes"
CTR_PENDING_HITS = "pending_hits"
CTR_RESTARTS = "restarts"

#: Full key set every dedup report carries (a counter that never fired
#: reads 0, not KeyError/absent).
DEDUP_COUNTER_KEYS = (
    CTR_GPU_HITS,
    CTR_BUFFER_HITS,
    CTR_TREE_HITS,
    CTR_UNIQUES,
    CTR_RACE_DUPLICATES,
    CTR_FLUSHES,
    CTR_PENDING_HITS,
    CTR_RESTARTS,
)
