# Checked by tests/test_source_rules.py, as the module FIXTURE_CASES names.
"""Fixture: REP502 — per-byte match-extension loops in data-plane code."""


def extend(data: bytes, a: int, b: int, limit: int) -> int:
    i = 0
    while i < limit and data[a + i] == data[b + i]:  # expect REP502 (7)
        i += 1
    return i


def copy_out(out: bytearray, blob: bytes, pos: int, length: int) -> None:
    i = 0
    while blob[pos + i] == out[i]:  # expect REP502 (14)
        i += 1


def scan_for(bin_ids, order, end: int, n: int, bid: int) -> int:
    while end < n and bin_ids[order[end]] == bid:  # value scan: fine
        end += 1
    return end
