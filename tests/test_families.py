"""Row-batched measure families against the generic scalar route, bit for bit.

Every measure in ``currents`` is a family: one superposition with a row per
x (or per (x, y)), o's connection to y summed row by row, and the public
scalars pi0, theta', sst_lhs and sst_switch_rhs are the one-row case. The
oracle here is the generic route: ``event_measure`` superposes any list of
``Layer``s into one row and sums it over the indicator of any event, with
``conj`` for a conjunction. It asks for each value on its own and compares
by ``float.hex``: a family must select the same weights and sum them in the
same order, and each scalar must be its family's row.

``Layer``, ``conj``, ``indicator``, ``event_measure``, ``pi0_tilde`` and
``theta_double_prime`` are that route; the other test modules import them
from here.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from currentkit import (
    SpreadOut, build_graph, conn, double_conn, embed_on_torus, through,
)
from currentkit import currents
from currentkit.cli import CORPUS_SHAPES, _sampled_layer_pairs, default_corpus


@dataclass(frozen=True)
class Layer:
    """One sourced current layer: bond indices (None for all bonds) plus
    source vertices."""

    bonds: tuple | None = None
    sources: tuple = ()


@dataclass(frozen=True)
class Conj:
    """The event that every one of ``parts`` holds."""

    parts: tuple


def conj(*events) -> Conj:
    return Conj(tuple(events))


def indicator(g, ev):
    """Bool vector over all global positive masks where ``ev`` holds;
    ``currents._indicator`` for a single event."""
    if isinstance(ev, Conj):
        out = np.ones(1 << g.n_bonds, dtype=bool)
        for p in ev.parts:
            out &= indicator(g, p)
        return out
    return currents._indicator(g, ev)


def layer_key(g, layers):
    """``currents._superposed``'s one-row key of ``layers``."""
    return tuple((currents._bonds_arg(g, l.bonds), (currents._source_mask(g, l.sources),))
                 for l in layers)


def event_measure(g, layers, event) -> float:
    """Sum over the layers' class assignments of the product of normalised
    weights, times the event indicator on the superposed positive mask."""
    return float(currents._superposed_row(g, layer_key(g, layers))[indicator(g, event)].sum())


def _outside(g, A):
    """Bond indices with neither end in the vertex labels ``A``."""
    A_idx = {g.index(a) for a in A}
    return tuple(b for b, (i, j) in enumerate(g.bonds) if i not in A_idx and j not in A_idx)


def pi0_tilde(g, x, y):
    """pi0 with the extra demand that o reaches y."""
    o = g.labels[0]
    return event_measure(g, [Layer(None, (o, x))], conj(double_conn(o, x), conn(o, y)))


def theta_double_prime(g, x, y, A):
    """Through-set measure with the extra demand that o reaches y in the
    superposition."""
    o = g.labels[0]
    return event_measure(g, [Layer(_outside(g, A), ()), Layer(None, (o, x))],
                         conj(through(o, x, A), conn(o, y)))


def _pi0(g, x):
    o = g.labels[0]
    return event_measure(g, [Layer(None, (o, x))], double_conn(o, x))


def _theta_prime(g, x, A):
    o = g.labels[0]
    return event_measure(g, [Layer(_outside(g, A), ()), Layer(None, (o, x))], through(o, x, A))


def _sst_lhs(g, x, y, B, Bp):
    o = g.labels[0]
    outer = [] if Bp is None else [Layer(Bp, ())]
    return event_measure(g, outer + [Layer(B, (o, x))], conn(o, y, bonds=B))


def _switch_rhs(g, x, y, B, Bp):
    o = g.labels[0]
    return event_measure(g, [Layer(Bp, (o, y)), Layer(B, (y, x))], conn(o, y, bonds=B))


def _layer_pairs(g):
    """The sst suite's sampled (B, B') pairs, and all and half the bonds
    without a second layer. In the switched rhs B' = None is all bonds,
    which the sampled pairs already have."""
    full, half = tuple(range(g.n_bonds)), tuple(range(g.n_bonds // 2 + 1))
    return _sampled_layer_pairs(g) + [(full, None), (half, None)]


def family_mismatches(g) -> list:
    """(family, arguments) of every batched value whose ``float.hex``
    differs from the scalar route, over the arguments the suites pass."""
    labs = g.labels
    xs = labs[1:]
    bad = []

    def check(name, args, got, want):
        if float(got).hex() != float(want).hex():
            bad.append((name, args))

    for A in [(a,) for a in labs] + [tuple(labs)]:
        t1, t2 = currents.theta_rows(g, A)
        for i, x in enumerate(xs):
            check("theta'", (x, A), t1[i], _theta_prime(g, x, A))
            for j, y in enumerate(labs):
                check("theta''", (x, y, A), t2[i, j], theta_double_prime(g, x, y, A))
    p1, pt = currents.pi0_rows(g)
    for i, x in enumerate(xs):
        check("pi0", (x,), p1[i], _pi0(g, x))
        for j, y in enumerate(labs):
            check("pi0_tilde", (x, y), pt[i, j], pi0_tilde(g, x, y))
    for B, Bp in _layer_pairs(g):
        lhs = currents.sst_lhs_rows(g, B, Bp)
        for i, x in enumerate(xs):
            for j, y in enumerate(labs):
                check("sst_lhs", (x, y, B, Bp), lhs[i, j], _sst_lhs(g, x, y, B, Bp))
    for B, Bp in _sampled_layer_pairs(g):
        rhs = currents.sst_switch_rows(g, B, Bp).reshape(len(xs), len(labs))
        for i, x in enumerate(xs):
            for j, y in enumerate(labs):
                check("switch_rhs", (x, y, B, Bp), rhs[i, j], _switch_rhs(g, x, y, B, Bp))
    return bad


def _seeded_corpus(seed):
    """The default corpus with bond couplings J ~ U[0.5, 1.5], in corpus order."""
    rng = np.random.default_rng(seed)
    out = []
    for name, verts, bonds, betas in CORPUS_SHAPES:
        for beta in betas:
            js = rng.uniform(0.5, 1.5, size=len(bonds))
            g = build_graph(verts, [(u, v, float(j)) for (u, v), j in zip(bonds, js)], beta=beta)
            out.append((f"{name}@b{beta:g}#J{seed}", g))
    return out


ORACLE_CORPUS = default_corpus() + [c for seed in (1, 2, 3) for c in _seeded_corpus(seed)]
SPREAD_OUT = [(f"spread_out_side{side}", embed_on_torus(SpreadOut(1, 2.0), side, beta=0.4))
              for side in (5, 6)]


@pytest.mark.parametrize("g", [g for _, g in ORACLE_CORPUS], ids=[i for i, _ in ORACLE_CORPUS])
def test_families_match_scalar_route_bit_for_bit(g):
    assert family_mismatches(g) == []
    currents.clear_caches()


def scalar_mismatches(g) -> list:
    """(scalar, arguments) of every public scalar measure whose
    ``float.hex`` differs from its family's row, over the arguments the
    suites pass and B' = None."""
    labs, xs = g.labels, g.labels[1:]
    bad = []

    def check(name, args, got, want):
        if float(got).hex() != float(want).hex():
            bad.append((name, args))

    p1, _ = currents.pi0_rows(g)
    for i, x in enumerate(xs):
        check("pi0", (x,), currents.pi0(g, x), p1[i])
    for A in [(a,) for a in labs] + [tuple(labs)]:
        t1, _ = currents.theta_rows(g, A)
        for i, x in enumerate(xs):
            check("theta_prime", (x, A), currents.theta_prime(g, x, A), t1[i])
    for B, Bp in _layer_pairs(g):
        lhs = currents.sst_lhs_rows(g, B, Bp)
        for i, x in enumerate(xs):
            for j, y in enumerate(labs):
                check("sst_lhs", (x, y, B, Bp), currents.sst_lhs(g, x, y, B, Bp), lhs[i, j])
    for B, Bp in _sampled_layer_pairs(g):
        rhs = currents.sst_switch_rows(g, B, Bp).reshape(len(xs), len(labs))
        for i, x in enumerate(xs):
            for j, y in enumerate(labs):
                check("sst_switch_rhs", (x, y, B, Bp),
                      currents.sst_switch_rhs(g, x, y, B, Bp), rhs[i, j])
    return bad


@pytest.mark.parametrize("g", [g for _, g in ORACLE_CORPUS + SPREAD_OUT],
                         ids=[i for i, _ in ORACLE_CORPUS + SPREAD_OUT])
def test_scalars_are_their_family_rows_bit_for_bit(g):
    assert scalar_mismatches(g) == []
    currents.clear_caches()


def test_sst_lhs_rows_without_second_layer():
    """B' = None is no second layer in the rows as in the scalar: on cycle4
    at beta 0.5 the x = 1, y = 2 lhs on all bonds is 0.1494, not the 0.2191
    of a second layer on all bonds."""
    g = dict(default_corpus())["cycle4@b0.5"]
    rows = currents.sst_lhs_rows(g, None, None)
    assert rows[0, 2] == currents.sst_lhs(g, 1, 2) == pytest.approx(0.1494, abs=1e-4)
    assert currents.sst_lhs(g, 1, 2, B_prime=range(4)) == pytest.approx(0.2191, abs=1e-4)
    currents.clear_caches()


def test_families_without_rows_are_empty():
    """A one-vertex graph has no x != o: every family has zero rows."""
    g = build_graph([0], [], beta=0.5)
    p1, pt = currents.pi0_rows(g)
    t1, t2 = currents.theta_rows(g, (0,))
    assert p1.shape == t1.shape == (0,) and pt.shape == t2.shape == (0, 1)
    assert currents.sst_lhs_rows(g, None, None).shape == (0, 1)
    assert currents.sst_lhs_rows(g, None, ()).shape == (0, 1)
    assert currents.sst_switch_rows(g, None, None).shape == (0,)
    currents.clear_caches()


def test_oracle_catches_theta_double_prime_without_its_connection(monkeypatch):
    """Dropping conn(o, y) from theta'' leaves each row's y-sum at the
    through-set sum, theta' itself. No report row catches that defect on the
    default corpus; the oracle does, on the theta'' values alone."""
    real = currents.theta_rows

    def without_conn(g, A):
        t1, _ = real(g, A)
        return t1, np.repeat(t1[:, None], g.n_vertices, axis=1)

    monkeypatch.setattr(currents, "theta_rows", without_conn)
    caught = set()
    for _, g in default_corpus():
        caught |= {name for name, _ in family_mismatches(g)}
    assert caught == {"theta''"}
    currents.clear_caches()
