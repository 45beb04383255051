"""Exploration paths, lace construction, and the reconstruction identity.

The centerpiece is a 9-vertex graph small enough to trace by hand: a walk
0 -> 1 -> 3 -> 5 with one even side branch per step, and six outer bonds
forming three rest components that straddle consecutive attachment sets.
"""
from __future__ import annotations

import math

import pytest

from currentkit import (
    GraphError, SpreadOut,
    build_graph, embed_on_torus, build_lace, check_partition_of_unity, earliest_odd_path,
    enumerate_explorations, extraction_gap, is_valid_lace,
    verify_pi0_decomposition,
)
from currentkit.cli import CORPUS_SHAPES
from currentkit.currents import ZERO, EVEN, ODD, _component_table
from currentkit.laces import (
    _masks_from_classes, _rest_ids, path_indicator,
    tilde_v_sets,
)


def hand_graph(beta=0.4):
    bonds = [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5),
             (0, 6), (1, 6), (2, 7), (3, 7), (4, 8), (5, 8)]
    return build_graph(range(9), [(u, v, 1.0) for u, v in bonds], beta=beta)


def hand_classes(g):
    """Walk bonds odd, one even branch per step, everything else zero."""
    classes = [ZERO] * g.n_bonds
    for uv in ((0, 1), (1, 3), (3, 5)):
        classes[g.bonds.index(uv)] = ODD
    for uv in ((1, 2), (3, 4)):
        classes[g.bonds.index(uv)] = EVEN
    return classes


def outer_mask(g):
    m = 0
    for uv in ((0, 6), (1, 6), (2, 7), (3, 7), (4, 8), (5, 8)):
        m |= 1 << g.bonds.index(uv)
    return m


def test_earliest_path_hand_trace():
    g = hand_graph()
    path = earliest_odd_path(g, hand_classes(g), 5)
    assert path.omega == (0, 1, 3, 5)
    assert [g.bonds[b] for b in path.bonds] == [(0, 1), (1, 3), (3, 5)]
    assert [tuple(g.bonds[b] for b in layer) for layer in path.layers] == [
        ((0, 1),),
        ((1, 2), (1, 3)),
        ((3, 4), (3, 5)),
    ]
    assert path.length == 3


def test_earliest_path_precondition():
    g = hand_graph()
    with pytest.raises(GraphError):
        earliest_odd_path(g, [ZERO] * g.n_bonds, 5)     # sources empty
    with pytest.raises(GraphError):
        earliest_odd_path(g, hand_classes(g), 0)        # endpoints equal
    with pytest.raises(GraphError):
        earliest_odd_path(g, hand_classes(g), 5, order=[0] * g.n_bonds)


def test_attachment_sets():
    g = hand_graph()
    classes = hand_classes(g)
    path = earliest_odd_path(g, classes, 5)
    V = tilde_v_sets(g, path, classes)
    assert V == (frozenset({0}), frozenset({1, 2}), frozenset({3, 4}),
                 frozenset({5}))


def test_lace_three_arcs():
    g = hand_graph()
    classes = hand_classes(g)
    path = earliest_odd_path(g, classes, 5)
    lace = build_lace(g, path, classes, outer_mask(g))
    assert lace == ((0, 1), (1, 2), (2, 3))
    assert is_valid_lace(lace, path.length)
    ids = _rest_ids(tilde_v_sets(g, path, classes),
                    _component_table(g)[outer_mask(g)].tolist())
    wit = [ids[s] & ids[t] for s, t in lace]      # rest components linking each arc's ends
    assert all(wit[i] for i in range(3))
    assert not (wit[0] & wit[1]) and not (wit[1] & wit[2]) and not (wit[0] & wit[2])


def test_lace_stalls_without_forward_links():
    g = hand_graph()
    classes = hand_classes(g)
    path = earliest_odd_path(g, classes, 5)
    # only the first outer pair positive: nothing links past index 1
    m = (1 << g.bonds.index((0, 6))) | (1 << g.bonds.index((1, 6)))
    assert build_lace(g, path, classes, m) is None


def test_lace_rejects_overlapping_rest_mask():
    g = hand_graph()
    classes = hand_classes(g)
    path = earliest_odd_path(g, classes, 5)
    with pytest.raises(GraphError):
        build_lace(g, path, classes, 1 << g.bonds.index((0, 1)))


def test_is_valid_lace_patterns():
    assert is_valid_lace(((0, 3),), 3)
    assert is_valid_lace(((0, 2), (1, 3)), 3)
    assert not is_valid_lace((), 3)
    assert not is_valid_lace(((0, 1), (2, 3)), 3)      # gap between arcs
    assert not is_valid_lace(((1, 3),), 3)             # must start at 0
    assert not is_valid_lace(((0, 2),), 3)             # must end at length
    assert not is_valid_lace(((0, 2), (0, 3)), 3)      # equal starts
    assert not is_valid_lace(((0, 2), (1, 2)), 2)      # equal ends
    assert not is_valid_lace(((0, 2), (1, 3), (2, 4)), 4)  # triple overlap


def test_path_indicator():
    g = hand_graph()
    classes = hand_classes(g)
    path = earliest_odd_path(g, classes, 5)
    odd = 0
    for uv in ((0, 1), (1, 3), (3, 5)):
        odd |= 1 << g.bonds.index(uv)
    assert path_indicator(g, path, odd)
    # turning a skipped layer bond odd breaks earliest-ness
    assert not path_indicator(g, path, odd | (1 << g.bonds.index((1, 2))))
    # losing a walked bond breaks the walk itself
    assert not path_indicator(g, path, odd & ~(1 << g.bonds.index((1, 3))))


def test_enumerate_explorations_contains_greedy():
    g = hand_graph()
    classes = hand_classes(g)
    traced = earliest_odd_path(g, classes, 5)
    paths = enumerate_explorations(g, 5)
    assert any(p.bonds == traced.bonds for p in paths)
    # walks end on first arrival
    assert all(p.omega[-1] == 5 and 5 not in p.omega[:-1] for p in paths)


def test_reconstruction_on_cycle():
    g = build_graph([0, 1, 2, 3],
                    [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)],
                    beta=0.8)
    rep = verify_pi0_decomposition(g, 2)
    assert rep["passed"]
    assert rep["split_rel_err"] <= 1e-12
    assert rep["reconstruction_rel_err"] <= 1e-12
    assert rep["indicator_mismatches"] == 0
    assert rep["invalid_laces"] == 0
    assert rep["arc_component_overlaps"] == 0
    assert sum(rep["n_histogram"].values()) > 0


def test_reconstruction_multi_arc_on_chorded_cycle():
    g = build_graph([0, 1, 2, 3],
                    [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0),
                     (0, 2, 1.0)], beta=0.7)
    rep = verify_pi0_decomposition(g, 3)
    assert rep["passed"]
    assert max(rep["n_histogram"]) >= 2  # some lace needs two arcs here


def test_reconstruction_respects_order():
    g = build_graph([0, 1, 2, 3],
                    [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)],
                    beta=0.8)
    rev = tuple(range(g.n_bonds - 1, -1, -1))
    rep = verify_pi0_decomposition(g, 2, order=rev)
    assert rep["passed"]


def test_tree_has_no_double_connection():
    g = build_graph([0, 1, 2], [(0, 1, 1.0), (1, 2, 1.0)], beta=0.9)
    rep = verify_pi0_decomposition(g, 2)
    assert rep["direct"] == 0.0
    assert rep["split"] == 0.0
    assert rep["reconstruction"] == 0.0
    assert rep["passed"]


def test_partition_of_unity_triangle():
    g = build_graph([0, 1, 2], [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)], beta=0.5)
    rep = check_partition_of_unity(g, 2)
    assert rep["passed"]
    # sources {0, 2} force the odd pattern to be either just (0,2) or the
    # pair (0,1),(1,2); the bonds left over are free in {zero, even}, so
    # the sweep sees 2*1 + 1*4 = 6 class vectors
    assert rep["checked"] == 6
    assert rep["not_exactly_one"] == 0
    assert rep["greedy_mismatch"] == 0


def partition_of_unity_oracle(g, x, order=None):
    """check_partition_of_unity by walking all 3^nb class vectors and keeping
    those whose sources are {o, x}."""
    target = 1 ^ (1 << g.index(x))
    paths = enumerate_explorations(g, x, order=order)
    checked = bad = mismatch = 0
    for idx in range(3 ** g.n_bonds):
        classes = [idx // 3 ** b % 3 for b in range(g.n_bonds)]
        sm, odd, _ = _masks_from_classes(g, classes)
        if sm != target:
            continue
        checked += 1
        flagged = [p for p in paths if path_indicator(g, p, odd)]
        if len(flagged) != 1:
            bad += 1
        elif earliest_odd_path(g, classes, x, order=order).bonds != flagged[0].bonds:
            mismatch += 1
    return {"checked": checked, "not_exactly_one": bad, "greedy_mismatch": mismatch}


def _pou_counts(rep):
    return {k: rep[k] for k in ("checked", "not_exactly_one", "greedy_mismatch")}


@pytest.mark.parametrize("shape", CORPUS_SHAPES, ids=lambda s: s[0])
def test_partition_of_unity_matches_full_sweep(shape):
    _, verts, bonds, _ = shape
    g = build_graph(verts, [(u, v, 1.0) for u, v in bonds], beta=0.5)
    rev = tuple(range(g.n_bonds - 1, -1, -1))
    for x in g.labels[1:]:
        for order in (None, rev):
            want = partition_of_unity_oracle(g, x, order=order)
            assert _pou_counts(check_partition_of_unity(g, x, order=order)) == want


def test_partition_of_unity_matches_full_sweep_spread_torus():
    g = embed_on_torus(SpreadOut(1, 2.0), 5, beta=0.4)
    x = g.labels[len(g.labels) // 2]
    rep = check_partition_of_unity(g, x)
    assert rep["passed"]
    assert _pou_counts(rep) == partition_of_unity_oracle(g, x)


def test_extraction_gap_nonnegative():
    assert extraction_gap(0.0) == pytest.approx(0.0, abs=1e-15)
    for a in [k * 0.25 - 3.0 for k in range(25)]:
        assert extraction_gap(a) >= -1e-15
    assert extraction_gap(2.0) == pytest.approx(
        math.tanh(2.0) ** 2 - (math.cosh(2.0) - 1.0) / math.cosh(2.0), rel=1e-12)
