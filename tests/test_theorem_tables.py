"""Theorem bounds from chain tables against the scalar memo route, bit for bit,
and the certified chain sums against the iterated kernel.

``TheoremEvaluator`` builds, per depth and placement kind, one table of chain
values over (anchors, x), resolving every chain prefix of a level in one
stacked ``resolvent`` call, and assembles each (theorem, A) as one row over x
or (x, y). The oracle here is the route that asks for each bound on its own:
a chain value is memoised per (depth, x, placement list), each prefix is
summed by a one-field ``resolvent`` call, each terminal is contracted at one
endpoint, and each bound adds its chain values term by term. Both routes
must give the same ``float.hex`` for every bound, the same +inf entries,
and the same strict calls must raise.

The chain sums themselves have a second route, the plain-kernel iteration
below; wherever both are finite they agree within the solve's enclosure
width plus the iteration's tail.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from currentkit import SpreadOut, build_graph, embed_on_torus
from currentkit.cli import CORPUS_SHAPES, default_corpus
from currentkit.diagrams import (
    DiagramEngine, TheoremEvaluator, fields_from_graph,
    placements_dddotx, placements_ddotx, placements_dotx, placements_x,
)
from currentkit.fields import NonContracting

from test_families import ORACLE_CORPUS

# Mass below which the iteration stops adding kernel terms.
CHAIN_ATOL = 1e-12


def scalar_resolvent(eng, P):
    """One field's chain sum by iterating the plain kernel until a step's
    mass is below CHAIN_ATOL * (1 - rho) / rho, rho the largest observed
    step ratio, and its tail mass: the step's mass times rho / (1 - rho),
    added to every entry of the total. That tail is an estimate, not a
    bound; a step ratio of 1 or more raises NonContracting."""
    total = P.copy()
    mass = float(np.abs(P).sum())
    if mass == 0.0:
        return total, 0.0
    cur = P
    rho = 0.0
    while True:
        cur = eng.apply_kernel(cur, ("U",))
        prev, mass = mass, float(np.abs(cur).sum())
        rho = max(rho, mass / prev)
        if rho >= 1.0:
            raise NonContracting(f"chain step contraction {rho} >= 1")
        total = total + cur
        if mass < CHAIN_ATOL * (1.0 - rho) / max(rho, 1e-300):
            break
    tail = mass * rho / (1.0 - rho)
    return total + tail, tail


def scalar_terminal(eng, P, spec, x):
    """One endpoint's terminal contraction."""
    col = eng._terminal_columns(spec)[x]
    if spec[0] in ("V", "ddotV"):
        return float(eng.f.Gt[:, x] @ P @ col)
    a = spec[1]
    return float(eng.f.Gt[a, x] * (eng.f.G[:, a] @ P @ col))


class ScalarTheorems:
    """The bounds one call at a time, chain values memoised by placement list."""

    def __init__(self, g):
        self.g = g
        self.fields = fields_from_graph(g)
        self._engines, self._refused, self._res, self._values = {}, {}, {}, {}

    def engine(self, m):
        if m in self._refused:
            raise NonContracting(self._refused[m])
        if m not in self._engines:
            try:
                self._engines[m] = DiagramEngine(self.fields, m)
            except NonContracting as exc:
                self._refused[m] = str(exc)
                raise
        return self._engines[m]

    def _resolved(self, m, mids):
        if (m, mids) not in self._res:
            eng = self.engine(m)
            if mids:
                seed = eng.apply_kernel(self._resolved(m, mids[:-1]), mids[-1])
            else:
                seed = eng._delta_pair()
            self._res[m, mids] = eng.resolvent(seed)[0]
        return self._res[m, mids]

    def _chain(self, m, x, placements):
        key = (m, x, tuple(placements))
        if key not in self._values:
            total = 0.0
            for mids, term, coeff in placements:
                P = self._resolved(m, tuple(mids))
                total += coeff * scalar_terminal(self.engine(m), P, term, x)
            self._values[key] = total
        return self._values[key]

    def theorem_rhs(self, theorem, x, A=None, y=None, strict=True):
        try:
            return self._theorem_rhs(theorem, x, A=A, y=y)
        except NonContracting:
            if strict:
                raise
            return math.inf

    def _theorem_rhs(self, theorem, x, A=None, y=None):
        g = self.g
        ix = g.index(x)
        if theorem == 1:
            return 2.0 * self._chain(1, ix, placements_x())
        if theorem == 2:
            tot = 0.0
            for a in A:
                ia = g.index(a)
                if ia == ix:
                    tot += self._chain(None, ix, placements_x())
                tot += self._chain(None, ix, placements_dotx(ia))
            return 2.0 * tot
        if theorem == 3:
            iy = g.index(y)
            tot = self._chain(1, ix, placements_dotx(iy))
            tot += self._chain(1, ix, placements_ddotx(iy))
            if iy == ix:
                tot += self._chain(1, ix, placements_x())
            return 2.0 * tot
        iy = g.index(y)
        chain0 = self.engine(None).chain0
        tot = 0.0
        for a in A:
            ia = g.index(a)
            if ia == ix:
                tot += self._chain(None, ix, placements_ddotx(iy))
            tot += self._chain(None, ix, placements_dddotx(ia, iy))
            tot += self._chain(None, ix, placements_ddotx(ia)) * chain0[ix, iy]
            for iyp in range(g.n_vertices):
                tot += (self._chain(None, ix, placements_dddotx(iyp, ia))
                        * chain0[iyp, iy])
        return 2.0 * tot


def bound_calls(g, theorems=(1, 2, 3, 4)):
    """(theorem, x, A, y) of every bound the theorems suite asks for."""
    labs = g.labels
    anchor_sets = [(a,) for a in labs] + [tuple(labs)]
    calls = []
    for x in labs[1:]:
        calls += [(1, x, None, None)] if 1 in theorems else []
        calls += [(2, x, A, None) for A in anchor_sets] if 2 in theorems else []
        calls += [(3, x, None, y) for y in labs] if 3 in theorems else []
        calls += ([(4, x, A, y) for y in labs for A in anchor_sets]
                  if 4 in theorems else [])
    return calls


def mismatches(g, theorems=(1, 2, 3, 4)) -> list:
    """Calls whose bound or whose strict refusal differs between the routes."""
    ev, oracle = TheoremEvaluator(g), ScalarTheorems(g)
    bad = []
    for t, x, A, y in bound_calls(g, theorems):
        got = ev.theorem_rhs(t, x, A=A, y=y, strict=False)
        want = oracle.theorem_rhs(t, x, A=A, y=y, strict=False)
        if got.hex() != want.hex():
            bad.append((t, x, A, y, got, want))
        raised = []
        for route in (ev, oracle):
            try:
                route.theorem_rhs(t, x, A=A, y=y)
                raised.append(False)
            except NonContracting:
                raised.append(True)
        if raised[0] != raised[1] or raised[0] != math.isinf(want):
            bad.append((t, x, A, y, "strict", raised))
    return bad


SPREAD_OUT = [(f"spread_out_side{side}@b{beta:g}",
               embed_on_torus(SpreadOut(1, 2.0), side, beta=beta), thms)
              for side, thms in ((5, (1, 2, 3, 4)), (6, (1, 2)))
              for beta in (0.1, 0.4)]


@pytest.mark.parametrize("g", [g for _, g in ORACLE_CORPUS], ids=[i for i, _ in ORACLE_CORPUS])
def test_bounds_match_scalar_route_bit_for_bit(g):
    assert mismatches(g) == []


# the iteration sums the chain from the origin but refuses the chain after
# some anchored prefix at this depth, its observed step ratio reaching 1;
# the operator contracts, and the solve sums every prefix
PARTLY_REFUSED = [("single_bond", 0.52, 1), ("path3", 0.38, None), ("grid2x3", 0.28, 1)]


@pytest.mark.parametrize("name,beta,m", PARTLY_REFUSED,
                         ids=[f"{n}@b{b:g}" for n, b, _ in PARTLY_REFUSED])
def test_partly_refused_tables_match_scalar_route_bit_for_bit(name, beta, m):
    verts, bonds = next((v, b) for n, v, b, _ in CORPUS_SHAPES if n == name)
    g = build_graph(verts, [(u, v, 1.0) for u, v in bonds], beta=beta)
    assert mismatches(g) == []
    ev = TheoremEvaluator(g)
    for t, x, A, y in bound_calls(g):
        ev.theorem_rhs(t, x, A=A, y=y, strict=False)
    eng = ev.engine(m)
    sums = eng._res_cache
    assert all(np.isfinite(v).all() for v in sums.values())
    refused = []
    for p in sums:
        seed = eng.apply_kernel(sums[p[:-1]], p[-1]) if p else eng._delta_pair()
        try:
            scalar_resolvent(eng, seed)
        except NonContracting:
            refused.append(p)
    assert refused and () not in refused


@pytest.mark.parametrize("g,theorems", [(g, t) for _, g, t in SPREAD_OUT],
                         ids=[i for i, _, _ in SPREAD_OUT])
def test_spread_out_bounds_match_scalar_route_bit_for_bit(g, theorems):
    assert mismatches(g, theorems) == []


def test_oracle_compares_finite_and_refused_bounds():
    """The corpus gives the comparison both kinds of bound: finite ones, and
    +inf ones from a refused engine and from a refused chain sum."""
    kinds = set()
    for _, g in ORACLE_CORPUS[:22]:
        ev = TheoremEvaluator(g)
        for t, x, A, y in bound_calls(g):
            kinds.add((t, math.isfinite(ev.theorem_rhs(t, x, A=A, y=y, strict=False))))
    assert kinds == {(t, f) for t in (1, 2, 3, 4) for f in (True, False)}


def test_stacked_resolvent_rows_are_single_field_sums():
    """Each field of a stack is summed as on its own: the same bits, rho and
    tail, a zero field zero, a refused field +inf with the engine's
    contraction bound, and the fields solved counted."""
    corpus = dict(default_corpus())
    rng = np.random.default_rng(3)
    refused = 0
    for iid in ("path3@b0.1", "cycle4_chord@b0.1", "cycle5@b0.1", "grid2x3@b0.1",
                "cycle4_chord@b0.5", "triangle@b1"):
        eng = DiagramEngine(fields_from_graph(corpus[iid]), 1)
        n = eng.f.n
        seeds = np.stack([np.zeros((n, n)), rng.uniform(0.0, 1.0, (n, n)),
                          eng._delta_pair(), 1e3 * rng.uniform(0.0, 1.0, (n, n))])
        totals, info = eng.resolvent(seeds)
        assert isinstance(info["iterations"], int)
        assert np.all(totals[0] == 0.0) and info["tail"][0] == 0.0
        solved = 0
        for P, total, rho, tail in zip(seeds, totals, info["rho"], info["tail"]):
            try:
                one, one_info = eng.resolvent(P)
            except NonContracting as exc:
                refused += 1
                assert np.all(total == math.inf) and tail == math.inf and rho >= 1.0
                assert str(exc) == eng._pair.refusal and ">= 1" in str(exc)
                continue
            assert one.tobytes() == total.tobytes()
            assert (one_info["rho"], one_info["tail"]) == (rho, tail)
            solved += one_info["iterations"]
        assert info["iterations"] == solved
    assert refused == 6


def test_iteration_agrees_with_solve():
    """Wherever the iterated kernel and the certified solve both sum a chain
    prefix of the theorem tables, they agree within the solve's enclosure
    width plus the iteration's tail, at every entry."""
    compared, skipped = 0, 0
    for _, g in default_corpus():
        ev = TheoremEvaluator(g)
        for m in (1, None):
            try:
                ev._tables(m, "x", "dotx", "ddotx", "dddotx")
            except NonContracting:
                continue
            eng = ev.engine(m)
            for p, sol in eng._res_cache.items():
                seed = eng.apply_kernel(eng._res_cache[p[:-1]], p[-1]) if p else eng._delta_pair()
                one, info = eng.resolvent(seed)
                assert one.tobytes() == sol.tobytes()
                try:
                    it, tail = scalar_resolvent(eng, seed)
                except NonContracting:
                    skipped += 1
                    continue
                assert np.all(np.abs(it - sol) <= info["tail"] + tail), (p, m)
                compared += 1
    assert (compared, skipped) == (960, 0)


def test_refused_chain_times_zero_weight_is_refused():
    """A refused chain value that meets a zero chain0 weight (inf * 0) still
    gives +inf, and a strict call raises, as the scalar sum raises on the
    refusal itself. The corpus has no zero weight, so both are planted."""
    g = dict(default_corpus())["path3@b0.1"]
    ev = TheoremEvaluator(g)
    ddotX, _ = ev._tables(None, "ddotx", "dddotx")
    ddotX[1] = math.inf
    ev.engine(None).chain0[2, 0] = 0.0
    assert ev.theorem_rhs(4, 2, A=(1,), y=0, strict=False) == math.inf
    with pytest.raises(NonContracting):
        ev.theorem_rhs(4, 2, A=(1,), y=0)
