# Checked by tests/test_source_rules.py, as the module FIXTURE_CASES names.
"""Fixture: REP504 — per-chunk loops in batched functional-plane code."""


def hash_all(chunks):
    for chunk in chunks:  # expect REP504 (6)
        chunk.fingerprint = hash(chunk.payload)


def sizes_of(window):
    return [chunk.size for chunk in window]  # expect REP504 (11)


def admit(windows):
    for window in windows:  # iterating the window *stream* is fine
        submit(window)


def drain(pending):
    for entry in pending:  # not a chunk sequence name: fine
        entry.flush()


def submit(window):
    pass
