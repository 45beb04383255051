"""Theorem bounds from chain tables against the scalar memo route, bit for bit.

``TheoremEvaluator`` builds, per depth and placement kind, one table of chain
values over (anchors, x), resolving every chain prefix of a level in one
stacked ``resolvent`` call, and assembles each (theorem, A) as one row over x
or (x, y). The oracle here is the route that asks for each bound on its own:
a chain value is memoised per (depth, x, placement list), each prefix is
summed by the plain one-field loop below, each terminal is contracted at one
endpoint, and each bound adds its chain values term by term. Both routes must give the same ``float.hex`` for every
bound, the same +inf entries, and the same strict calls must raise.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from currentkit import SpreadOut, build_graph, embed_on_torus
from currentkit.cli import CORPUS_SHAPES, default_corpus
from currentkit.diagrams import (
    CHAIN_ATOL, DiagramEngine, TheoremEvaluator, fields_from_graph,
    placements_dddotx, placements_ddotx, placements_dotx, placements_x,
)
from currentkit.fields import NonContracting

from test_families import ORACLE_CORPUS


def scalar_resolvent(eng, P):
    """One field's certified chain sum, summed step by step."""
    total = P.copy()
    mass = float(np.abs(P).sum())
    if mass == 0.0:
        return total
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
    return total + mass * rho / (1.0 - rho)


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
            self._res[m, mids] = scalar_resolvent(eng, seed)
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


# the chain from the origin converges, but the chain after some anchored
# prefix is refused at this depth: a table with +inf rows among finite ones
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
    sums = ev.engine(m)._res_cache
    assert not isinstance(sums[()], str)
    assert any(isinstance(v, str) for v in sums.values())


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
    tail, a zero field untouched, a refused field +inf with the rho of its
    failing step, and the iterations summed over the fields."""
    corpus = dict(default_corpus())
    rng = np.random.default_rng(3)
    refused = 0
    for iid in ("path3@b0.1", "cycle4_chord@b0.5", "triangle@b1"):
        eng = DiagramEngine(fields_from_graph(corpus[iid]), 1)
        n = eng.f.n
        seeds = np.stack([np.zeros((n, n)), rng.uniform(0.0, 1.0, (n, n)),
                          eng._delta_pair(), 1e3 * rng.uniform(0.0, 1.0, (n, n))])
        totals, info = eng.resolvent(seeds)
        assert isinstance(info["iterations"], int)
        assert totals[0].tobytes() == seeds[0].tobytes()
        iters = 0
        for P, total, rho, tail in zip(seeds, totals, info["rho"], info["tail"]):
            try:
                one, one_info = eng.resolvent(P)
            except NonContracting as exc:
                refused += 1
                assert np.all(total == math.inf) and rho >= 1.0
                assert str(exc) == f"chain step contraction {float(rho)} >= 1"
                continue
            assert one.tobytes() == total.tobytes()
            assert (one_info["rho"], one_info["tail"]) == (rho, tail)
            iters += one_info["iterations"]
        assert info["iterations"] >= iters
    assert refused >= 3


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
