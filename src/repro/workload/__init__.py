"""Workload substrate: the vdbench substitute (DESIGN.md §2).

The paper generates its datasets with vdbench, dialing in a deduplication
ratio and a compression ratio (both 2.0 in the evaluation).  This package
regenerates equivalent streams:

* :mod:`~repro.workload.datagen` — block contents with a *target
  compression ratio* against the library's own codecs, with an empirical
  calibration loop;
* :mod:`~repro.workload.vdbench` — chunk streams with controlled dedup
  and compression ratios, in payload mode (real bytes) or descriptor
  mode (synthetic fingerprints + ratios, for the large timed runs);
* :mod:`~repro.workload.patterns` — a Zipf offset pattern for
  access-locality experiments;
* :mod:`~repro.workload.trace` — I/O trace recording.
"""

from repro.workload.datagen import BlockContentGenerator, measured_ratios
from repro.workload.patterns import ZipfPattern
from repro.workload.trace import TraceRecord, TraceRecorder
from repro.workload.vdbench import StreamStats, VdbenchStream

__all__ = [
    "BlockContentGenerator",
    "measured_ratios",
    "ZipfPattern",
    "TraceRecord",
    "TraceRecorder",
    "StreamStats",
    "VdbenchStream",
]
