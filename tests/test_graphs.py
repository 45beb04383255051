"""Coupling graph construction, spread-out families, torus embeddings."""
from __future__ import annotations

import math

import pytest

from currentkit import (
    CouplingGraph, GraphError, SpreadOut,
    build_graph, embed_on_torus, graph_from_dict, graph_to_dict,
    load_graph, save_graph, spread_out_coupling,
)


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


def test_spread_out_ball_weights():
    J = spread_out_coupling(SpreadOut(2, 1.0, "ball"))
    assert sorted(J) == [(-1, 0), (0, -1), (0, 1), (1, 0)]
    assert all(v == pytest.approx(0.25) for v in J.values())
    # radius 2 ball in d=2: 12 lattice points
    J = spread_out_coupling(SpreadOut(2, 2.0, "ball"))
    assert len(J) == 12
    assert all(v == pytest.approx(1.0 / 12.0) for v in J.values())


def test_spread_out_validation():
    with pytest.raises(GraphError):
        SpreadOut(0, 1.0)
    with pytest.raises(GraphError):
        SpreadOut(2, 0.5)
    with pytest.raises(GraphError):
        SpreadOut(2, 1.0, "hexagon")


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


def test_torus_embedding_ball_nn():
    g = embed_on_torus(SpreadOut(2, 1.0, "ball"), 3)
    assert g.n_bonds == 18
    assert all(J == pytest.approx(0.25) for J in g.couplings)


def test_torus_side_guard():
    with pytest.raises(GraphError):
        embed_on_torus(SpreadOut(1, 1.0), 2)
    with pytest.raises(GraphError):
        embed_on_torus(SpreadOut(2, 2.0), 4)


def test_serialization_roundtrip(tmp_path):
    g = embed_on_torus(SpreadOut(2, 1.0, "ball"), 3, beta=0.7)
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
