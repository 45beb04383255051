"""Planted defects against the report rows (mutation testing).

Each test plants one defect in the library by monkeypatching, runs suites
on the default corpus and asserts which rows fail. A defect that no row
catches is a blind spot of the report; the README lists those.
"""
from __future__ import annotations

from collections import Counter

from currentkit import currents
from currentkit.cli import RunConfig, run_suite


def _run(suites):
    """The rows of ``suites`` on the default corpus, and the failing ones
    counted by (suite, check); the caches are cold before and after."""
    currents.clear_caches()
    try:
        rows = [row for suite in suites for row in run_suite(suite, RunConfig())]
    finally:
        currents.clear_caches()
    return rows, Counter((row.suite, row.check) for row in rows if row.failed)


def test_cover_without_f0_h1_fails_every_switch_identity(monkeypatch):
    """The covering product with its f0*h1 term dropped at every bond in
    both supports, r1 = f1*(h0 + h1), as a slip in the split would drop it.
    The identities suite superposes nothing, and the sst bounds only see a
    smaller lhs; the two sides of the switch identity lose different
    weight, so its row fails on every corpus instance, and no other row
    does."""
    real = currents._split

    def split(f, h, bits):
        f, h = real(f, h, bits)
        f = f.copy()
        for axis in range(1, len(bits) + 1):
            if f.shape[axis] == 3:                   # (f0, f0, f1): zero the f0 facing h1
                f[(slice(None),) * axis + (1,)] = 0.0
        return f, h

    suites = ("identities", "sst")
    assert not _run(suites)[1]
    monkeypatch.setattr(currents, "_split", split)
    rows, failing = _run(suites)
    instances = {row.instance for row in rows if row.suite == "sst"}
    assert len(instances) == 22
    assert failing == {("sst", "switch_identity"): len(instances)}
