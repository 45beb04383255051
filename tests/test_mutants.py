"""Planted defects against the report rows (mutation testing).

Each test plants one defect in the library by monkeypatching, runs suites
on the default corpus and asserts which rows fail. A defect that no row
catches is a blind spot of the report; the README lists those.
"""
from __future__ import annotations

from collections import Counter

import numpy as np

from currentkit import currents, diagrams
from currentkit.cli import RunConfig, run_suite
from currentkit.fields import NonContracting

from test_diagrams import enclosure_violations


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
        f, h, k = real(f, h, bits)
        f = f.copy()
        for axis in range(1, len(bits) + 1):
            if f.shape[axis] == 3:                   # (f0, f0, f1): zero the f0 facing h1
                f[(slice(None),) * axis + (1,)] = 0.0
        return f, h, k

    suites = ("identities", "sst")
    assert not _run(suites)[1]
    monkeypatch.setattr(currents, "_split", split)
    rows, failing = _run(suites)
    instances = {row.instance for row in rows if row.suite == "sst"}
    assert len(instances) == 22
    assert failing == {("sst", "switch_identity"): len(instances)}


def test_resolvent_returning_its_seed_fails_every_contracting_enclosure(monkeypatch):
    """``resolvent`` returning its seed, as if the plain chain were dropped,
    with its refusal kept. The theorem bounds only shrink, and no theorem or
    sst row fails; the Neumann partial sum rises above the seed, so the
    chain_enclosure row fails at each depth whose operator contracts, 9
    engines at depth one and 9 at infinite depth, and stays trivial where
    the operator is refused."""
    def seed(self, P):
        if self._pair.refusal:
            raise NonContracting(self._pair.refusal)
        return P.copy(), {"iterations": 0}

    suites = ("theorems", "sst")
    rows, failing = _run(suites)
    assert not failing
    passing = Counter(r.check for r in rows if r.check.startswith("chain_enclosure")
                      and r.status == "pass")
    assert passing == {"chain_enclosure[m=1]": 9, "chain_enclosure[m=inf]": 9}
    monkeypatch.setattr(diagrams.DiagramEngine, "resolvent", seed)
    assert _run(suites)[1] == {("theorems", check): k for check, k in passing.items()}


def test_enclosure_without_its_error_term_is_a_report_blind_spot(monkeypatch):
    """The certified solve without its error bound: each upper sum is the
    computed solution, with width 0. The exact triangle sums in Fractions
    fall outside it, but the moved bounds are rounding noise, so no
    theorems or sst row fails."""
    def solution(self, P):
        X = (self.inv @ P[..., None])[..., 0]
        return X, np.zeros(len(X))

    assert enclosure_violations() == []
    monkeypatch.setattr(diagrams._ChainSolve, "__call__", solution)
    assert enclosure_violations()
    assert not _run(("theorems", "sst"))[1]
