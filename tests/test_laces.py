"""Exploration paths, lace construction, and the reconstruction identity.

The centerpiece is a 9-vertex graph small enough to trace by hand: a walk
0 -> 1 -> 3 -> 5 with one even side branch per step, and six outer bonds
forming three rest components that straddle consecutive attachment sets.
"""
from __future__ import annotations

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from currentkit import (
    CapExceeded, GraphError, SpreadOut,
    build_graph, embed_on_torus, check_partition_of_unity, earliest_odd_path,
    enumerate_explorations, extraction_gap, is_valid_lace,
    verify_pi0_decomposition,
)
from currentkit import currents, laces
from currentkit.cli import (
    CORPUS_SHAPES, RunConfig, _lace_instance, _lace_targets, corpus_by_graph, default_corpus,
)
from currentkit.currents import (
    ZERO, EVEN, ODD,
    class_weights, double_conn, partition_function, pi0,
    _component_table, _indicator, _inside, _positive_table,
)
from currentkit.laces import _attachment_masks, _component_bits, _greedy_laces


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


def masks_from_classes(g, classes):
    """(source mask, odd bond mask, positive bond mask) of a class vector."""
    if len(classes) != g.n_bonds:
        raise GraphError("classes must cover every bond")
    sm = 0
    odd = 0
    pos = 0
    for b, c in enumerate(classes):
        if c == ODD:
            i, j = g.bonds[b]
            sm ^= (1 << i) | (1 << j)
            odd |= 1 << b
            pos |= 1 << b
        elif c == EVEN:
            pos |= 1 << b
        elif c != ZERO:
            raise GraphError(f"bad class {c} on bond {b}")
    return sm, odd, pos


def odd_mask(g, classes):
    return masks_from_classes(g, classes)[1]


def path_indicator(path, odd):
    """Whether the odd-bond mask ``odd`` makes ``path`` the earliest odd walk:
    every walked bond odd, every other explored bond not odd."""
    return odd & path.explored == path.walked


def build_lace(g, path, classes, k_mask):
    """Lace induced by the rest-of-volume positive bonds ``k_mask``: the
    batched lace kernel of ``verify_pi0_decomposition`` on one row, the
    attachment sets of ``classes`` linked when they meet a common component
    of the rest. Returns the arc tuple, or None when no lace exists."""
    if k_mask & path.explored:
        raise GraphError("rest mask overlaps the explored bonds")
    _, odd, pos = masks_from_classes(g, classes)
    even = np.array([(pos ^ odd) & path.explored])
    bits = _component_bits(g, [k_mask])
    M = np.empty((1, 1, path.length + 1), bits.dtype)
    _attachment_masks(g, path, even, bits, M)
    found, S, T, n_arcs = _greedy_laces(M[0], np.array([path.length]))
    if not found[0]:
        return None
    return tuple(zip(S[0, :n_arcs[0]].tolist(), T[0, :n_arcs[0]].tolist()))


def outer_mask(g):
    m = 0
    for uv in ((0, 6), (1, 6), (2, 7), (3, 7), (4, 8), (5, 8)):
        m |= 1 << g.bonds.index(uv)
    return m


def tilde_v_sets(g, path, classes):
    """Attachment sets along the walk: the j-th set is the j-th walk vertex
    together with its positive-even neighbours inside the next layer; the
    final set is the terminal vertex alone."""
    out = []
    for j in range(path.length):
        vj = path.omega[j]
        s = {vj}
        for b in path.layers[j]:
            if classes[b] == EVEN:
                s.add(g.other_end(b, vj))
        out.append(frozenset(s))
    out.append(frozenset({path.omega[-1]}))
    return tuple(out)


def _rest_ids(V, comp):
    """Per attachment set, the ids of the rest components it meets, given
    the component label of every vertex under the rest mask."""
    return [frozenset(comp[u] for u in s) for s in V]


def _lace_from_ids(ids):
    """The greedy lace rule on the rest-component ids of the attachment
    sets, one arc at a time: the scalar oracle of ``laces._greedy_laces``."""
    size = len(ids) - 1

    def linked(i, j):
        return bool(ids[i] & ids[j])

    t = max(j for j in range(size + 1) if linked(0, j))
    if t == 0:
        return None
    edges = [(0, t)]
    while t < size:
        tn = t
        for j in range(size + 1):
            if j > tn and any(linked(ip, j) for ip in range(t + 1)):
                tn = j
        if tn == t:
            return None
        sn = min(ip for ip in range(size + 1) if linked(ip, tn))
        edges.append((sn, tn))
        t = tn
    return tuple(edges)


def pi0_decomposition_oracle(g, x, order=None, rtol=1e-10):
    """``verify_pi0_decomposition`` one (walk, explored split, rest mask)
    at a time, building each lace with the scalar rule."""
    Z = partition_function(g)
    direct = pi0(g, x)
    doubly = _indicator(g, double_conn(g.labels[0], x))
    split_total = 0.0
    recon_total = 0.0
    hist = Counter()
    indicator_mismatches = 0
    invalid_laces = 0
    overlap_violations = 0
    for path in enumerate_explorations(g, x, order=order):
        bonds_seq = path.bonds
        explored = [b for b in range(g.n_bonds) if path.explored >> b & 1]
        skip = [b for b in explored if b not in bonds_seq]
        rest = ((1 << g.n_bonds) - 1) & ~path.explored
        w_path = 1.0
        for b in bonds_seq:
            w_path *= class_weights(g, b)[ODD]
        rows = _inside(g, rest)
        kvec = _positive_table(g)[rows, 0]
        nz = kvec != 0
        rest_masks = list(zip(rows[nz].tolist(), kvec[nz].tolist(),
                              _component_table(g)[rows[nz]].tolist()))
        m_pos_base = 0
        for b in bonds_seq:
            m_pos_base |= 1 << b
        for bits in range(1 << len(skip)):
            classes = [ZERO] * g.n_bonds
            for b in bonds_seq:
                classes[b] = ODD
            w_m = w_path
            m_pos = m_pos_base
            for i, b in enumerate(skip):
                if bits >> i & 1:
                    classes[b] = EVEN
                    w_m *= class_weights(g, b)[EVEN]
                    m_pos |= 1 << b
            V = tilde_v_sets(g, path, classes)
            for k_mask, w_k, comp in rest_masks:
                dbl = bool(doubly[m_pos | k_mask])
                if dbl:
                    split_total += w_m * w_k
                ids = _rest_ids(V, comp)
                lace = _lace_from_ids(ids)
                if lace is not None:
                    recon_total += w_m * w_k
                    hist[len(lace)] += 1
                    if not is_valid_lace(lace, path.length):
                        invalid_laces += 1
                    wit = [ids[s] & ids[t] for s, t in lace]
                    for a in range(len(wit)):
                        for b2 in range(a + 1, len(wit)):
                            if wit[a] & wit[b2]:
                                overlap_violations += 1
                if (lace is not None) != dbl:
                    indicator_mismatches += 1
    split_total /= Z
    recon_total /= Z
    scale = max(abs(direct), 1e-300)
    return {
        "direct": direct,
        "split": split_total,
        "reconstruction": recon_total,
        "split_rel_err": abs(split_total - direct) / scale,
        "reconstruction_rel_err": abs(recon_total - direct) / scale,
        "n_histogram": dict(sorted(hist.items())),
        "indicator_mismatches": indicator_mismatches,
        "invalid_laces": invalid_laces,
        "arc_component_overlaps": overlap_violations,
        "passed": (abs(split_total - direct) <= rtol * scale
                   and abs(recon_total - direct) <= rtol * scale
                   and indicator_mismatches == 0
                   and invalid_laces == 0
                   and overlap_violations == 0),
    }


def test_earliest_path_hand_trace():
    g = hand_graph()
    path = earliest_odd_path(g, odd_mask(g, hand_classes(g)), 5)
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
        earliest_odd_path(g, 0, 5)                      # sources empty
    with pytest.raises(GraphError):
        earliest_odd_path(g, odd_mask(g, hand_classes(g)), 0)   # endpoints equal
    with pytest.raises(GraphError):
        earliest_odd_path(g, odd_mask(g, hand_classes(g)), 5, order=[0] * g.n_bonds)
    with pytest.raises(GraphError):                     # sources {0, 1}
        earliest_odd_path(g, 1 << g.bonds.index((0, 1)), 5)
    with pytest.raises(GraphError):                     # a bit past the last bond
        earliest_odd_path(g, odd_mask(g, hand_classes(g)) | 1 << g.n_bonds, 5)


def test_attachment_sets():
    g = hand_graph()
    classes = hand_classes(g)
    path = earliest_odd_path(g, odd_mask(g, classes), 5)
    V = tilde_v_sets(g, path, classes)
    assert V == (frozenset({0}), frozenset({1, 2}), frozenset({3, 4}),
                 frozenset({5}))
    # with no rest bonds every vertex is its own component, so the masks
    # the batch builds are the sets themselves
    even = sum(1 << b for b in range(g.n_bonds) if classes[b] == EVEN)
    out = np.empty((1, 1, path.length + 1), np.int64)
    _attachment_masks(g, path, np.array([even]), _component_bits(g, [0]), out)
    assert out.ravel().tolist() == [sum(1 << u for u in s) for s in V]


def test_lace_three_arcs():
    g = hand_graph()
    classes = hand_classes(g)
    path = earliest_odd_path(g, odd_mask(g, classes), 5)
    lace = build_lace(g, path, classes, outer_mask(g))
    assert lace == ((0, 1), (1, 2), (2, 3))
    assert is_valid_lace(lace, path.length)
    ids = _rest_ids(tilde_v_sets(g, path, classes),
                    _component_table(g)[outer_mask(g)].tolist())
    assert _lace_from_ids(ids) == lace
    wit = [ids[s] & ids[t] for s, t in lace]      # rest components linking each arc's ends
    assert all(wit[i] for i in range(3))
    assert not (wit[0] & wit[1]) and not (wit[1] & wit[2]) and not (wit[0] & wit[2])


def test_lace_stalls_without_forward_links():
    g = hand_graph()
    classes = hand_classes(g)
    path = earliest_odd_path(g, odd_mask(g, classes), 5)
    # only the first outer pair positive: nothing links past index 1
    m = (1 << g.bonds.index((0, 6))) | (1 << g.bonds.index((1, 6)))
    assert build_lace(g, path, classes, m) is None


def test_lace_rejects_overlapping_rest_mask():
    g = hand_graph()
    classes = hand_classes(g)
    path = earliest_odd_path(g, odd_mask(g, classes), 5)
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
    path = earliest_odd_path(g, odd_mask(g, classes), 5)
    odd = 0
    for uv in ((0, 1), (1, 3), (3, 5)):
        odd |= 1 << g.bonds.index(uv)
    assert path_indicator(path, odd)
    # turning a skipped layer bond odd breaks earliest-ness
    assert not path_indicator(path, odd | (1 << g.bonds.index((1, 2))))
    # losing a walked bond breaks the walk itself
    assert not path_indicator(path, odd & ~(1 << g.bonds.index((1, 3))))


def test_enumerate_explorations_contains_greedy():
    g = hand_graph()
    classes = hand_classes(g)
    traced = earliest_odd_path(g, odd_mask(g, classes), 5)
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


def _same_report(got, want):
    """Dict equality with every float compared bit for bit."""
    assert got == want
    for k, v in want.items():
        if isinstance(v, float):
            assert got[k].hex() == v.hex(), k


@pytest.mark.parametrize("iid,g", default_corpus(), ids=[iid for iid, _ in default_corpus()])
def test_reconstruction_matches_scalar_oracle_on_corpus(iid, g):
    rev = tuple(range(g.n_bonds - 1, -1, -1))
    for x in _lace_targets(g):
        for order in (None, rev):
            _same_report(verify_pi0_decomposition(g, x, order=order),
                         pi0_decomposition_oracle(g, x, order=order))


@pytest.mark.parametrize("side", (5, 6))
@pytest.mark.parametrize("beta", (0.25, 0.45))
def test_reconstruction_matches_scalar_oracle_spread_torus(side, beta):
    g = embed_on_torus(SpreadOut(1, 2.0), side, beta=beta)
    x = g.labels[len(g.labels) // 2]
    rep = verify_pi0_decomposition(g, x)
    assert rep["passed"] and max(rep["n_histogram"]) >= 2
    _same_report(rep, pi0_decomposition_oracle(g, x))


def test_build_lace_matches_scalar_rule_arc_by_arc():
    """The report counts laces but does not show their arcs; compare those
    with the scalar rule on every configuration of the side-5 torus sum."""
    g = embed_on_torus(SpreadOut(1, 2.0), 5, beta=0.4)
    x = g.labels[len(g.labels) // 2]
    comp = _component_table(g)
    seen = Counter()
    for path in enumerate_explorations(g, x):
        skip = [b for b in range(g.n_bonds) if (path.explored & ~path.walked) >> b & 1]
        rest = _inside(g, ((1 << g.n_bonds) - 1) & ~path.explored)
        for bits in range(1 << len(skip)):
            classes = [ODD if b in path.bonds else ZERO for b in range(g.n_bonds)]
            for i, b in enumerate(skip):
                if bits >> i & 1:
                    classes[b] = EVEN
            V = tilde_v_sets(g, path, classes)
            for k in rest.tolist():
                lace = build_lace(g, path, classes, k)
                assert lace == _lace_from_ids(_rest_ids(V, comp[k].tolist()))
                seen[lace is not None and len(lace)] += 1
    assert seen[False] and seen[1] and seen[2]


def test_lace_instance_enumerates_each_walk_set_once():
    """The reconstruction and the partition of unity of one (x, order) read
    one cached tuple of walks, and ``clear_caches`` drops it."""
    iid, g = corpus_by_graph()[-1]
    currents.clear_caches()
    rows = _lace_instance(iid, g, RunConfig())
    pairs = len(rows) // 2                  # two rows per (x, order)
    assert pairs == 2 * len(_lace_targets(g))
    info = laces._explorations.cache_info()
    assert info.misses == pairs and info.hits == pairs
    currents.clear_caches()
    assert laces._explorations.cache_info().currsize == 0


def test_reconstruction_gates_can_fail(monkeypatch):
    """With the double-connection indicator negated, the batched counters
    must report the disagreement."""
    g = embed_on_torus(SpreadOut(1, 2.0), 5, beta=0.4)
    x = g.labels[len(g.labels) // 2]
    monkeypatch.setattr(laces, "_indicator", lambda g, ev: ~_indicator(g, ev))
    rep = verify_pi0_decomposition(g, x, rtol=1e-10)
    assert rep["indicator_mismatches"] > 0
    assert rep["split_rel_err"] > 1e-10
    assert not rep["passed"]


def _lace_batch_rows(g, x):
    """Rows and attachment-set width of ``verify_pi0_decomposition``'s batch."""
    rows, width = 0, 0
    for path in enumerate_explorations(g, x):
        rest = _inside(g, ((1 << g.n_bonds) - 1) & ~path.explored)
        k = int(np.count_nonzero(_positive_table(g)[rest, 0]))
        rows += k << (path.explored.bit_count() - path.length)
        width = max(width, path.length + 1)
    return rows, width


def test_lace_batch_refused_before_allocation(monkeypatch):
    g = embed_on_torus(SpreadOut(1, 2.0), 6, beta=0.4)
    x = g.labels[len(g.labels) // 2]
    verify_pi0_decomposition(g, x)          # fill the cached tables first
    rows, width = _lace_batch_rows(g, x)
    itemsize = np.min_scalar_type((1 << g.n_vertices) - 1).itemsize
    work = rows * ((3 * itemsize + 4) * width + 128) + currents._OVERHEAD
    monkeypatch.setattr(currents, "_MEM_LIMIT", work - 1)
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded):
            verify_pi0_decomposition(g, x)
        assert tracemalloc.get_traced_memory()[1] < work // 10
        monkeypatch.setattr(currents, "_MEM_LIMIT", work)
        tracemalloc.reset_peak()
        assert verify_pi0_decomposition(g, x)["passed"]
        assert tracemalloc.get_traced_memory()[1] <= work
    finally:
        tracemalloc.stop()
        currents.clear_caches()


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
        sm, odd, _ = masks_from_classes(g, classes)
        if sm != target:
            continue
        checked += 1
        flagged = [p for p in paths if path_indicator(p, odd)]
        if len(flagged) != 1:
            bad += 1
        elif earliest_odd_path(g, odd, x, order=order).bonds != flagged[0].bonds:
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
