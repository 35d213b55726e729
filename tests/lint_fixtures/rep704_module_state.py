# repro-lint: module=repro.compression.lzss
"""Fixture: REP704 — module-level mutable state must be audited.

Claiming the ``lzss`` module name lets ``_OCC_CACHE`` exercise the
audited-singleton exemption (``shared_state_audited``).
"""

from collections import OrderedDict

TABLE = {}  # expect REP704 on this line (9)
RECENT = OrderedDict()  # expect REP704 on this line (10)
_OCC_CACHE = {}  # audited singleton: no finding
LIMITS = (4, 8)  # immutable: no finding
__all__ = ["TABLE", "LIMITS"]  # dunder: no finding
