"""Coupling graph construction, spread-out families, torus embeddings."""
from __future__ import annotations

import dataclasses
import inspect
import math
from itertools import product

import numpy as np
import pytest

from currentkit import (
    CouplingGraph, GraphError, SpreadOut,
    build_graph, embed_on_torus, graph_from_dict, graph_to_dict,
    load_graph, save_graph, spread_out_coupling, step_distribution,
)
from currentkit import currents, diagrams, laces


def triangle(beta=1.0):
    return build_graph([0, 1, 2], [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)], beta=beta)


def test_build_graph_canonical_order():
    g = build_graph(["b", "a", "c"], [("c", "a", 2.0), ("b", "a", 1.0)], beta=0.5)
    assert g.labels == ("a", "b", "c")
    assert g.bonds == ((0, 1), (0, 2))
    assert g.couplings == (1.0, 2.0)
    assert g.n_vertices == 3 and g.n_bonds == 2


def test_build_graph_rejects_malformed():
    with pytest.raises(GraphError):
        build_graph([0, 1], [(0, 0, 1.0)])            # self loop
    with pytest.raises(GraphError):
        build_graph([0, 1], [(0, 1, 1.0), (1, 0, 2.0)])  # duplicate either way
    with pytest.raises(GraphError):
        build_graph([0, 1], [(0, 1, 0.0)])            # non-positive coupling
    with pytest.raises(GraphError):
        build_graph([0, 1], [(0, 2, 1.0)])            # unknown endpoint
    with pytest.raises(GraphError):
        build_graph([0, 1, 2], [(0, 1, 1.0)])         # disconnected
    with pytest.raises(GraphError):
        build_graph([0, 1], [(0, 1, 1.0)], beta=-0.1)


def test_direct_constructor_validation():
    with pytest.raises(GraphError):
        CouplingGraph((1, 0), ((0, 1),), (1.0,), 1.0)       # unsorted labels
    with pytest.raises(GraphError):
        CouplingGraph((0, 1, 2), ((0, 2), (0, 1)), (1.0, 1.0), 1.0)  # bond order
    with pytest.raises(GraphError):
        CouplingGraph((0, 1), ((1, 0),), (1.0,), 1.0)       # i < j violated
    with pytest.raises(GraphError):
        CouplingGraph((0, 1), ((0, 1),), (1.0,), math.nan)  # beta not a number


def test_incidence_and_helpers():
    # canonical bond order on the triangle: (0,1), (0,2), (1,2)
    g = triangle()
    assert g.bonds == ((0, 1), (0, 2), (1, 2))
    assert g.incident(0) == (0, 1)
    assert g.other_end(1, 0) == 2
    assert g.other_end(1, 2) == 0
    with pytest.raises(GraphError):
        g.other_end(1, 1)
    assert g.index(2) == 2
    with pytest.raises(GraphError):
        g.index("nope")
    assert g.tau(0) == pytest.approx(math.tanh(1.0))
    g2 = g.with_beta(0.25)
    assert g2.beta == 0.25 and g2.bonds == g.bonds


def test_spread_out_box_weights():
    # d=1, L=1: two neighbours, each carries half the unit mass.
    J = spread_out_coupling(SpreadOut(1, 1.0))
    assert J == {(-1,): 0.5, (1,): 0.5}
    # d=2, L=2 box: the 5x5 square minus the origin, 24 equal couplings.
    J = spread_out_coupling(SpreadOut(2, 2.0))
    assert len(J) == 24
    assert all(v == pytest.approx(1.0 / 24.0) for v in J.values())
    assert sum(J.values()) == pytest.approx(1.0)
    # bit for bit the per-point box sum, on Z^d and wrapped on the torus
    for d, L in ((1, 2.0), (5, 2.0), (5, 4.0)):
        want = box_oracle(d, L)
        J = spread_out_coupling(SpreadOut(d, L))
        assert list(J) == list(want) and all(J[x] == want[x] for x in want)
        D = np.zeros((17,) * d)
        for off, val in want.items():
            if min(off) >= 0:
                D[off] = val
        assert np.array_equal(step_distribution(SpreadOut(d, L), 32).data, D)


def box_oracle(d, L):
    """The box coupling summed point by point: profile 1 on each nonzero
    offset within sup distance L, normalised by the support's total."""
    R = int(math.floor(L))
    support = {x: 1.0 for x in product(range(-R, R + 1), repeat=d)
               if any(x) and max(abs(c / L) for c in x) <= 1.0}
    total = sum(support.values())
    return {x: v / total for x, v in support.items()}


def test_one_origin_one_profile():
    """The origin is always g.labels[0] and the profile always the box: no
    public function or method of the measure modules takes an origin ``o``,
    and a spread-out family is fixed by (d, L)."""
    public = []
    for mod in (currents, laces, diagrams):
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                public += [f for k, f in vars(obj).items()
                           if inspect.isfunction(f) and not k.startswith("_")]
            elif inspect.isfunction(obj):
                public.append(obj)
    assert currents.pi0 in public and diagrams.TheoremEvaluator.theorem_rhs in public
    assert [f.__qualname__ for f in public if "o" in inspect.signature(f).parameters] == []
    assert [f.name for f in dataclasses.fields(SpreadOut)] == ["d", "L"]


def test_spread_out_validation():
    with pytest.raises(GraphError):
        SpreadOut(0, 1.0)
    with pytest.raises(GraphError):
        SpreadOut(2, 0.5)


def test_torus_embedding_ring():
    g = embed_on_torus(SpreadOut(1, 1.0), 4)
    assert g.n_vertices == 4
    assert g.n_bonds == 4
    assert all(J == pytest.approx(0.5) for J in g.couplings)


def test_torus_embedding_dense_box():
    # side 3 with the unit box: every pair of the 9 sites is within sup
    # distance 1 mod 3, so the embedding is complete with J = 1/8.
    g = embed_on_torus(SpreadOut(2, 1.0), 3)
    assert g.n_vertices == 9
    assert g.n_bonds == 36
    assert all(J == pytest.approx(0.125) for J in g.couplings)


def test_torus_side_guard():
    with pytest.raises(GraphError):
        embed_on_torus(SpreadOut(1, 1.0), 2)
    with pytest.raises(GraphError):
        embed_on_torus(SpreadOut(2, 2.0), 4)


def test_serialization_roundtrip(tmp_path):
    g = embed_on_torus(SpreadOut(2, 1.0), 3, beta=0.7)
    path = tmp_path / "torus.json"
    save_graph(g, str(path))
    h = load_graph(str(path))
    assert h.labels == g.labels
    assert h.bonds == g.bonds
    assert h.couplings == g.couplings
    assert h.beta == g.beta


def test_dict_roundtrip_plain_labels():
    g = triangle(beta=0.3)
    h = graph_from_dict(graph_to_dict(g))
    assert h == g or (h.labels, h.bonds, h.couplings, h.beta) == (
        g.labels, g.bonds, g.couplings, g.beta)
