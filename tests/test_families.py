"""Row-batched measure families against the scalar route, bit for bit.

The theorems and sst suites read theta', theta'', pi0-tilde, the two-layer
sst lhs and the switched rhs from one superposition per family, with a row
per x (or per (x, y)) and o's connection to y summed row by row. The oracle
here asks ``event_measure`` for each value on its own, with an explicit
conjunction event where the measure has one, and compares by ``float.hex``:
the batch must select the same weights and sum them in the same order.

``conj``, ``pi0_tilde`` and ``theta_double_prime`` are that scalar route;
the other test modules import them from here.
"""
from __future__ import annotations

import numpy as np
import pytest

from currentkit import (
    Layer, build_graph, conn, double_conn, event_measure, through,
)
from currentkit import currents
from currentkit.cli import CORPUS_SHAPES, _sampled_layer_pairs, default_corpus


def conj(*events):
    """The event that every one of ``events`` holds."""
    return currents.Event("and", parts=tuple(events))


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


def _theta_prime(g, x, A):
    o = g.labels[0]
    return event_measure(g, [Layer(_outside(g, A), ()), Layer(None, (o, x))], through(o, x, A))


def _sst_lhs(g, x, y, B, Bp):
    o = g.labels[0]
    return event_measure(g, [Layer(Bp, ()), Layer(B, (o, x))], conn(o, y, bonds=B))


def _switch_rhs(g, x, y, B, Bp):
    o = g.labels[0]
    return event_measure(g, [Layer(Bp, (o, y)), Layer(B, (y, x))], conn(o, y, bonds=B))


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
    pt = currents.pi0_tilde_rows(g)
    for i, x in enumerate(xs):
        for j, y in enumerate(labs):
            check("pi0_tilde", (x, y), pt[i, j], pi0_tilde(g, x, y))
    for B, Bp in _sampled_layer_pairs(g):
        lhs = currents.sst_lhs_rows(g, B, Bp)
        rhs = currents.sst_switch_rows(g, B, Bp).reshape(len(xs), len(labs))
        for i, x in enumerate(xs):
            for j, y in enumerate(labs):
                check("sst_lhs", (x, y, B, Bp), lhs[i, j], _sst_lhs(g, x, y, B, Bp))
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


@pytest.mark.parametrize("g", [g for _, g in ORACLE_CORPUS], ids=[i for i, _ in ORACLE_CORPUS])
def test_families_match_scalar_route_bit_for_bit(g):
    assert family_mismatches(g) == []
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
