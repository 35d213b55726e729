# repro-lint: module=repro.compression.lzss
"""Fixture: REP704 — no module-level mutable state in hot-path packages."""

from collections import OrderedDict

TABLE = {}  # expect REP704 on this line (6)
RECENT = OrderedDict()  # expect REP704 on this line (7)
_OCC_CACHE = {}  # expect REP704 on this line (8): no exemption list
LIMITS = (4, 8)  # immutable: no finding
__all__ = ["TABLE", "LIMITS"]  # dunder: no finding
