"""Table-driven sweeps, events and layer superposition against direct routes.

The library builds its current tables bond by bond; the oracle here
enumerates all 3**nb class vectors with base-3 digits, with the same class
weights. The library evaluates an event as one indicator vector over all global
positive masks and superposes layers with the covering product. The oracles
here take the direct routes instead: a union-find per positive mask for the
events, and the outer product of the layers' nonzero weights accumulated with
``np.add.at`` for the superposition, each layer on its own sweep of its
bonds. A layer's rows of the one positive table per graph equal that sweep
bit for bit, and the all-subsets tables, read from the same table, are
checked against the scalar route per bond subset.
"""
from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from currentkit import (
    CapExceeded, SpreadOut,
    build_graph, conn, double_conn, embed_on_torus, partition_function, pi0,
    spin_expectation, sst_lhs, sst_switch_rhs, theta_prime, through,
)
from currentkit import currents
from currentkit.cli import (
    CORPUS_SHAPES, UPWARD, RunConfig, _lace_instance, _sampled_layer_pairs, _sst_instance,
    _theorems_instance,
)
from test_families import Conj, Layer, conj, event_measure, indicator, layer_key


def corpus_graphs(seed=7):
    """Every corpus shape at every corpus beta, with seeded couplings."""
    rng = np.random.default_rng(seed)
    out = []
    for _, verts, bonds, betas in CORPUS_SHAPES:
        for beta in betas:
            js = rng.uniform(0.5, 1.5, size=len(bonds))
            out.append(build_graph(verts, [(u, v, float(j)) for (u, v), j in zip(bonds, js)],
                                   beta=beta))
    return out


def spread_torus():
    return embed_on_torus(SpreadOut(1, 2.0), 5, beta=0.4)


def _mask(bonds):
    """The bond mask of the bond indices ``bonds``."""
    return sum(1 << b for b in bonds)


def _bond_tuple(g, mask):
    """The ascending bond indices in the bond mask ``mask``."""
    return tuple(b for b in range(g.n_bonds) if mask >> b & 1)


# -- parity sweep against the base-3 enumeration ----------------------------

def base3_sweep(g, bonds, with_positive):
    """Class vector number c has class (c // 3**k) % 3 on bonds[k]; its
    weight is binned by (positive mask, source mask)."""
    nb, n = len(bonds), g.n_vertices
    wt = np.array([currents.class_weights(g, b) for b in bonds])
    rem = np.arange(3 ** nb)
    w = np.ones(3 ** nb)
    pm = np.zeros(3 ** nb, dtype=np.int64)
    sm = np.zeros(3 ** nb, dtype=np.int64)
    for k, b in enumerate(bonds):
        dig = rem % 3
        rem //= 3
        w *= wt[k, dig]
        pm |= (dig != currents.ZERO).astype(np.int64) << k
        i, j = g.bonds[b]
        sm ^= np.where(dig == currents.ODD, (1 << i) | (1 << j), 0)
    if not with_positive:
        return np.bincount(sm, weights=w, minlength=1 << n)
    key = (pm << n) | sm
    return np.bincount(key, weights=w, minlength=1 << (nb + n)).reshape(1 << nb, 1 << n)


@pytest.mark.parametrize("g", corpus_graphs() + [spread_torus()],
                         ids=lambda g: f"n{g.n_vertices}b{g.n_bonds}@{g.beta:g}")
def test_sweep_matches_base3_enumeration(g):
    full = tuple(range(g.n_bonds))
    for bonds in (full, full[1::2]):
        for with_positive in (False, True):
            np.testing.assert_allclose(currents._sweep(g, _mask(bonds), with_positive),
                                       base3_sweep(g, bonds, with_positive),
                                       rtol=1e-12, atol=0.0)


def test_positive_sweep_refused_before_allocation(monkeypatch):
    g = spread_torus()
    full = (1 << g.n_bonds) - 1
    table = (1 << (g.n_bonds + g.n_vertices)) * 8
    # the table plus one half-size product at the last bond
    work = table + table // 2 + (16 << g.n_vertices) + currents._OVERHEAD
    monkeypatch.setattr(currents, "_MEM_LIMIT", work - 1)
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded):
            currents._sweep(g, full, with_positive=True)
        assert tracemalloc.get_traced_memory()[1] < table // 16
        monkeypatch.setattr(currents, "_MEM_LIMIT", work)
        tracemalloc.reset_peak()
        assert currents._sweep(g, full, with_positive=True).nbytes == table
        assert tracemalloc.get_traced_memory()[1] < 1.55 * table
    finally:
        tracemalloc.stop()


def test_positive_table_restricts_to_every_layer_bit_for_bit():
    """A layer on B reads the rows inside B of the one table over all bonds;
    those rows are the sweep over B alone, bit for bit."""
    for g in corpus_graphs():
        P = currents._positive_table(g)
        for B in range(1 << g.n_bonds):
            assert np.array_equal(P[currents._inside(g, B)], currents._sweep(g, B, True)), B
    g = spread_torus()
    P = currents._positive_table(g)
    for v in g.labels:
        for A in ((v,), (g.labels[0], v)):
            B = currents._outside_bonds(g, A)
            assert np.array_equal(P[currents._inside(g, B)], currents._sweep(g, B, True)), A
    currents.clear_caches()


@pytest.mark.parametrize("seed", range(1, 11))
def test_tight_two_layer_bound_within_upward(seed):
    """At B = B' = all bonds the two-layer sst lhs equals G(o,y) G(y,x)
    exactly, so the sst suite's tight rows hold only if both routes agree to
    within the suite's upward allowance. Couplings are drawn as the benchmark
    corpus draws them for its seeds."""
    for g in corpus_graphs(seed):
        if g.beta != 0.1:
            continue
        full = tuple(range(g.n_bonds))
        G = currents.two_point_matrix(g)      # origin o = labels[0], index 0
        for ix, x in enumerate(g.labels[1:], start=1):
            for iy, y in enumerate(g.labels):
                lhs = sst_lhs(g, x, y, B=full, B_prime=full)
                assert lhs <= G[0, iy] * G[iy, ix] * UPWARD, (g.n_vertices, x, y)
    currents.clear_caches()


# -- per-mask event oracle --------------------------------------------------

def _components(g, mask):
    parent = list(range(g.n_vertices))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for b, (i, j) in enumerate(g.bonds):
        if mask >> b & 1:
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj
    return [find(v) for v in range(g.n_vertices)]


def _connected(g, mask, iu, iv):
    c = _components(g, mask)
    return c[iu] == c[iv]


def _doubly_connected(g, mask, iu, iv):
    if iu == iv:
        return True
    return _connected(g, mask, iu, iv) and all(
        _connected(g, mask & ~(1 << b), iu, iv)
        for b in range(g.n_bonds) if mask >> b & 1)


def _through(g, mask, iu, iv, A_idx):
    if iu == iv:
        return iu in A_idx
    if not _doubly_connected(g, mask, iu, iv):
        return False
    if iu in A_idx or iv in A_idx:
        return True
    cut = sum(1 << b for b, (i, j) in enumerate(g.bonds) if i in A_idx or j in A_idx)
    return not _connected(g, mask & ~cut, iu, iv)


def oracle_holds(g, ev, mask):
    if isinstance(ev, Conj):
        return all(oracle_holds(g, p, mask) for p in ev.parts)
    if ev.bonds is not None:
        mask &= sum(1 << b for b in ev.bonds)
    iu, iv = g.index(ev.u), g.index(ev.v)
    if ev.kind == "conn":
        return _connected(g, mask, iu, iv)
    if ev.kind == "double":
        return _doubly_connected(g, mask, iu, iv)
    return _through(g, mask, iu, iv, {g.index(a) for a in ev.A})


def suite_events(g):
    """Every event kind the suites build, over every endpoint pair."""
    labs = g.labels
    nb = g.n_bonds
    windows = (tuple(range(nb // 2 + 1)), tuple(range(1, nb)))
    out = []
    for u in labs:
        for v in labs:
            out += [conn(u, v), double_conn(u, v), through(u, v, ()),
                    through(u, v, (u,)), through(u, v, (v,)), through(u, v, labs)]
            out += [conn(u, v, bonds=B) for B in windows]
            out += [through(u, v, (w,)) for w in labs if w not in (u, v)]
            out += [conj(double_conn(u, v), conn(u, w)) for w in labs]
            out += [conj(conn(u, v, bonds=B), conn(u, w, bonds=B))
                    for B in windows for w in labs[:2]]
    return out


@pytest.mark.parametrize("shape", CORPUS_SHAPES, ids=lambda s: s[0])
def test_indicator_matches_per_mask_oracle(shape):
    _, verts, bonds, _ = shape
    g = build_graph(verts, [(u, v, 1.0) for u, v in bonds], beta=0.5)
    masks = range(1 << g.n_bonds)
    for ev in suite_events(g):
        want = np.array([oracle_holds(g, ev, m) for m in masks])
        got = indicator(g, ev)
        assert got.dtype == bool
        assert np.array_equal(got, want), ev


def test_component_table_labels_clusters():
    g = spread_torus()
    comp = currents._component_table(g)
    assert comp.shape == (1 << g.n_bonds, g.n_vertices)
    for m in range(0, 1 << g.n_bonds, 37):
        ref = _components(g, m)
        same = [[ref[a] == ref[b] for b in range(g.n_vertices)] for a in range(g.n_vertices)]
        assert np.array_equal(comp[m][:, None] == comp[m][None, :], np.array(same))
        # labels are the smallest vertex index of each cluster
        assert all(comp[m][v] == min(w for w in range(g.n_vertices) if ref[w] == ref[v])
                   for v in range(g.n_vertices))


def test_inside_matches_bit_loop():
    ring = build_graph(list(range(10)), [(i, (i + 1) % 10, 1.0) for i in range(10)], beta=0.1)
    for bonds in ((), (3,), (0, 2, 5), tuple(range(9))):
        want = [sum(1 << bonds[k] for k in range(len(bonds)) if pm >> k & 1)
                for pm in range(1 << len(bonds))]
        assert currents._inside(ring, _mask(bonds)).tolist() == want


# -- outer-product superposition oracle -------------------------------------

def outer_superposition(g, layers):
    masks = np.zeros(1, dtype=np.int64)
    vals = np.ones(1)
    dense = None
    for layer in layers:
        mask = currents._bonds_arg(g, layer.bonds)
        bonds = _bond_tuple(g, mask)
        W = currents._sweep(g, mask, True)
        wv = W[:, currents._source_mask(g, layer.sources)] / W[:, 0].sum()
        gm = np.array([sum(1 << bonds[k] for k in range(len(bonds)) if pm >> k & 1)
                       for pm in range(1 << len(bonds))], dtype=np.int64)
        nz = np.flatnonzero(wv)
        dense = np.zeros(1 << g.n_bonds)
        np.add.at(dense, (masks[:, None] | gm[nz][None, :]).ravel(),
                  (vals[:, None] * wv[nz][None, :]).ravel())
        masks = np.flatnonzero(dense)
        vals = dense[masks]
    return dense


def layer_stacks(g):
    """Layer lists shaped like the suites' measures, plus a three-layer stack."""
    labs = g.labels
    o, x, y = labs[0], labs[-1], labs[len(labs) // 2]
    nb = g.n_bonds
    full = tuple(range(nb))
    outside = _bond_tuple(g, currents._outside_bonds(g, (y,)))
    return [
        [Layer(None, (o, x))],
        [Layer(outside, ()), Layer(None, (o, x))],
        [Layer(full, ()), Layer(full, (o, x))],
        [Layer(tuple(range(nb // 2 + 1)), (o, y)), Layer(full, (y, x))],
        [Layer(full[1:], ()), Layer(full[:1], (o, y))],
        [Layer(full, ()), Layer(outside, ()), Layer(full, (o, x))],
    ]


@pytest.mark.parametrize("g", corpus_graphs() + [spread_torus()],
                         ids=lambda g: f"n{g.n_vertices}b{g.n_bonds}@{g.beta:g}")
def test_covering_product_matches_outer_product(g):
    for layers in layer_stacks(g):
        if len(layers) > 2 and g.n_bonds > 7:
            continue
        want = outer_superposition(g, layers)
        got = currents._superposed(g, layer_key(g, layers))
        assert got.shape == (1, 1 << g.n_bonds)
        np.testing.assert_allclose(got[0], want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("g", corpus_graphs() + [spread_torus()],
                         ids=lambda g: f"n{g.n_vertices}b{g.n_bonds}@{g.beta:g}")
def test_superposition_rows_are_the_one_row_superpositions(g):
    """Each layer stack with its last layer sourced at {o, x} for every x,
    and a stack sourced in both layers per row: each row of the batch is the
    one-row superposition bit for bit; a layer of one source mask serves
    every row."""
    o = g.labels[0]
    for layers in layer_stacks(g):
        if len(layers) > 2 and g.n_bonds > 7:
            continue
        *outer, last = layers
        keys = [layer_key(g, outer + [Layer(last.bonds, (o, x))]) for x in g.labels]
        batch = (*keys[0][:-1], (keys[0][-1][0], tuple(k[-1][1][0] for k in keys)))
        got = currents._superposed(g, batch)
        assert got.shape == (len(keys), 1 << g.n_bonds)
        for row, key in zip(got, keys):
            assert np.array_equal(row, currents._superposed(g, key)[0])
    full = (1 << g.n_bonds) - 1
    pairs = [(x, y) for x in g.labels for y in g.labels]
    layers = ((full >> 1, tuple(currents._source_mask(g, (o, y)) for _, y in pairs)),
              (full, tuple(currents._source_mask(g, (y, x)) for x, y in pairs)))
    for k, row in enumerate(currents._superposed(g, layers)):
        one = tuple((m, sms[k:k + 1]) for m, sms in layers)
        assert np.array_equal(row, currents._superposed(g, one)[0])
    currents.clear_caches()


def _masked(rng, nb, mask):
    """Random weights on the masks inside the bond mask ``mask``, zero elsewhere."""
    w = rng.random(1 << nb)
    w[(np.arange(1 << nb) & ~mask) != 0] = 0.0
    return w


def breadth_first_cover(f, fb, h, hb):
    """The covering product that ``currents._cover`` replaced, kept as its
    oracle: the same split, one level per bond over the whole stack with the
    mask bits innermost in memory, each level one copy of both factors, and
    a bond in one support duplicating the other factor's zero half."""
    nb = f.shape[1].bit_length() - 1
    f, h = f[:, None], h[:, None]          # (rows, batch, width)
    ways = []
    for k in reversed(range(nb)):
        f = f.reshape(len(f), -1, 2, f.shape[2] // 2)
        h = h.reshape(len(h), -1, 2, h.shape[2] // 2)
        in_f, in_h = fb >> k & 1, hb >> k & 1
        if in_f and in_h:
            f = np.concatenate((f[:, :, :1], f), axis=2)
            h = np.concatenate((h, h[:, :, :1] + h[:, :, 1:]), axis=2)
        elif in_f:
            h = h[:, :, (0, 0)]
        elif in_h:
            f = f[:, :, (0, 0)]
        else:
            f, h = f[:, :, :1], h[:, :, :1]
        ways.append(f.shape[2])
        f = f.reshape(len(f), -1, f.shape[3])
        h = h.reshape(len(h), -1, h.shape[3])
    r = f * h
    del f, h
    for w in reversed(ways):
        r = r.reshape(len(r), -1, w, r.shape[2])
        hi = (r[:, :, 1] + r[:, :, 2] if w == 3 else r[:, :, 1] if w == 2
              else np.zeros_like(r[:, :, 0]))
        r = np.concatenate((r[:, :, 0], hi), axis=2)
    return r.reshape(len(r), -1)


def _support_pairs(rng, nb, n_random):
    """(fb, hb) bond-mask pairs: empty, disjoint, nested, equal, theta'-like
    (the outer layer on two thirds of the bonds, 8 of 12 at nb = 12, the
    inner on all) and random supports."""
    full = (1 << nb) - 1
    odd, low, theta = full & 0xAAA, full >> (nb // 2), full & ~0x924
    pairs = [(0, 0), (0, full), (full, 0), (odd, full ^ odd), (low, full & ~low),
             (odd, full), (full, low), (low & odd, low), (odd, odd), (full, full),
             (theta, full)]
    return pairs + [tuple(int(b) for b in rng.integers(0, 1 << nb, size=2))
                    for _ in range(n_random)]


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def test_support_aware_cover_is_bitwise_the_full_cover():
    """Splitting only the bonds in the factors' supports drops exact zeros:
    the result equals the cover told both supports are every bond, bit for
    bit, on empty, disjoint, nested, equal, theta'-like and random supports,
    nb <= 12, so on the recursive path too."""
    rng = np.random.default_rng(12)
    for nb in range(13):
        full = (1 << nb) - 1
        for fb, hb in _support_pairs(rng, nb, 30 if nb < 10 else 4):
            f, h = _masked(rng, nb, fb), _masked(rng, nb, hb)
            got = currents._cover(f[None], fb, h[None], hb)
            assert np.array_equal(got, currents._cover(f[None], full, h[None], full)), (nb, fb, hb)


def test_cover_of_a_row_stack_is_the_rows_covered_one_at_a_time():
    """1-5 rows on random supports, nb <= 12: a stack of rows, and one row
    against a stack, give the rows covered one at a time, bit for bit."""
    rng = np.random.default_rng(13)
    for nb in range(13):
        for _ in range(12 if nb < 10 else 3):
            fb, hb = (int(b) for b in rng.integers(0, 1 << nb, size=2))
            rows = int(rng.integers(1, 6))
            f = np.array([_masked(rng, nb, fb) for _ in range(rows)])
            h = np.array([_masked(rng, nb, hb) for _ in range(rows)])
            got = currents._cover(f, fb, h, hb)
            assert got.shape == (rows, 1 << nb)
            for r in range(rows):
                want = currents._cover(f[r:r + 1], fb, h[r:r + 1], hb)[0]
                assert np.array_equal(got[r], want), (nb, fb, hb, r)
                one = currents._cover(f[:1], fb, h, hb)[r]
                assert np.array_equal(one, currents._cover(f[:1], fb, h[r:r + 1], hb)[0])


@pytest.mark.parametrize("block, max_nb", [(None, 12), (1 << 14, 12), (1 << 9, 9), (8, 6)],
                         ids=["default", "16KiB", "512B", "8B"])
def test_cover_is_bitwise_the_breadth_first_cover(monkeypatch, block, max_nb):
    """The covering product against the breadth-first one, by int64 view:
    nb 0-12 on every kind of support pair, stacks of 1-5 rows, and one row
    against a stack. At the default block the 12-bond products split into
    several passes; the smaller blocks move the depth at which the passes
    start through every level, down to passes on no bonds."""
    if block is not None:
        monkeypatch.setattr(currents, "_COVER_BLOCK", block)
        monkeypatch.setattr(currents, "_work", [])      # sized by the block
    rng = np.random.default_rng(14)
    for nb in range(max_nb + 1):
        for k, (fb, hb) in enumerate(_support_pairs(rng, nb, 4)):
            rows = 1 + k % 5
            f = np.array([_masked(rng, nb, fb) for _ in range(rows)])
            h = np.array([_masked(rng, nb, hb) for _ in range(rows)])
            for a, b in ((f, h), (f[:1], h), (f, h[:1])):
                got = currents._cover(a, fb, b, hb)
                assert got.flags.c_contiguous
                assert _same_bits(got, breadth_first_cover(a, fb, b, hb)), (nb, fb, hb, k)


def test_cover_runs_in_one_pass_when_its_expansion_fits_a_block(monkeypatch):
    """A covering product whose expansion fits ``_COVER_BLOCK`` is one pass,
    one split of all its levels; one that does not splits on its top bit
    until the halves fit, with all their rows. Below eight bonds every
    family's product is one pass, since a connected graph on nb bonds has at
    most nb + 1 vertices, so at most nb (nb + 1) rows, none with more
    branches than both supports on every bond. The exact fill and the first
    row past it agree with the oracle."""
    for nb in range(8):
        every = (1 << nb) - 1
        assert 8 * nb * (nb + 1) * currents._cover_batch(nb, every, every) <= currents._COVER_BLOCK
    splits = []
    real = currents._split

    def spy(f, h, bits):
        splits.append(len(bits))
        return real(f, h, bits)

    monkeypatch.setattr(currents, "_split", spy)
    rng = np.random.default_rng(15)
    nb, full = 12, (1 << 12) - 1
    fill = currents._COVER_BLOCK // (8 << nb)            # one-support rows that fill a block
    assert 8 * fill * currents._cover_batch(nb, 0, full) == currents._COVER_BLOCK
    f = _masked(rng, nb, 0)[None]
    for rows, want_splits in ((fill, [nb]), (fill + 1, [nb - 1] * 2)):
        h = np.array([_masked(rng, nb, full) for _ in range(rows)])
        splits.clear()
        got = currents._cover(f, 0, h, full)
        assert splits == want_splits
        assert _same_bits(got, breadth_first_cover(f, 0, h, full))
    splits.clear()
    f, h = (_masked(rng, nb, full)[None] for _ in range(2))
    got = currents._cover(f, full, h, full)             # 3**12 branches: 9 passes of 3**10
    assert splits == [nb - 2] * 9
    assert _same_bits(got, breadth_first_cover(f, full, h, full))


def test_cover_results_outlive_later_covers():
    """The covering product reuses one workspace, but every result owns its
    memory: a one-row result and a cached ``_superposed_row`` row keep their
    bits through later covers, larger (12/12, in blocks) and smaller, and a
    run of big, small and big covers (12/12 on three rows in blocks, 6 of 10
    bonds, then theta'-like 8 of 12) matches the breadth-first cover by
    int64 view at every step."""
    rng = np.random.default_rng(16)
    currents.clear_caches()
    g = spread_torus()
    every = (1 << g.n_bonds) - 1
    key = ((every, (0,)), (every, (currents._source_mask(g, (g.labels[0], g.labels[2])),)))
    row = currents._superposed_row(g, key)
    nb, full = 12, (1 << 12) - 1
    theta = full & ~0x924
    one = currents._cover(_masked(rng, nb, theta)[None], theta, _masked(rng, nb, full)[None], full)
    assert one.base is None
    kept = row.copy(), one.copy()
    for nb, fb, hb, rows in ((12, full, full, 3), (10, 0x36C, (1 << 10) - 1, 2),
                             (12, theta, full, 1)):
        f = _masked(rng, nb, fb)[None]
        h = np.array([_masked(rng, nb, hb) for _ in range(rows)])
        assert _same_bits(currents._cover(f, fb, h, hb), breadth_first_cover(f, fb, h, hb))
        assert _same_bits(row, kept[0]) and _same_bits(one, kept[1])
    assert currents._superposed_row(g, key) is row
    currents.clear_caches()


def test_repeated_cover_maps_no_new_pages():
    """After one warm-up call, the same one-row cover shaped as theta' on the
    side-6 spread-out torus (outer layer on 8 of 12 bonds) writes only into
    pages that are already mapped: a few dozen minor page faults at most,
    where fresh temporaries took hundreds. Both calls run in a fresh
    process, since the heap that earlier tests leave behind in this one
    decides whether fresh temporaries fault."""
    code = """if True:
        import resource
        import numpy as np
        from currentkit import currents
        nb, full = 12, (1 << 12) - 1
        theta = full & ~0x924
        rng = np.random.default_rng(17)
        f, h = rng.random((2, 1, 1 << nb))
        f[:, (np.arange(1 << nb) & ~theta) != 0] = 0.0
        currents._cover(f, theta, h, full)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        currents._cover(f, theta, h, full)
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """
    src = str(Path(currents.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert int(run.stdout) <= 48


def test_event_measure_matches_per_mask_route():
    """The four scalar measures against the outer-product superposition
    summed over the per-mask event oracle."""
    g = spread_torus()
    o, x, y = g.labels[0], g.labels[2], g.labels[3]
    full = tuple(range(g.n_bonds))
    cases = [
        (pi0(g, x), [Layer(None, (o, x))], double_conn(o, x)),
        (theta_prime(g, x, (y,)),
         [Layer(_bond_tuple(g, currents._outside_bonds(g, (y,))), ()), Layer(None, (o, x))],
         through(o, x, (y,))),
        (sst_lhs(g, x, y, B=full, B_prime=full, cap=16),
         [Layer(full, ()), Layer(full, (o, x))], conn(o, y, bonds=full)),
        (sst_switch_rhs(g, x, y, B=full, B_prime=full, cap=16),
         [Layer(full, (o, y)), Layer(full, (y, x))], conn(o, y, bonds=full)),
    ]
    for got, layers, ev in cases:
        dense = outer_superposition(g, layers)
        want = sum(w for m, w in enumerate(dense.tolist()) if w and oracle_holds(g, ev, m))
        assert got == pytest.approx(want, rel=1e-12)


# -- all-subsets connection tables against per-subset calls ----------------

@pytest.mark.parametrize("g", corpus_graphs(),
                         ids=lambda g: f"n{g.n_vertices}b{g.n_bonds}@{g.beta:g}")
def test_subset_tables_match_per_subset_measures(g):
    labs = g.labels
    o = labs[0]
    S, T = currents.subset_connection_tables(g)
    assert S.shape == T.shape == (1 << g.n_bonds, g.n_vertices, g.n_vertices)
    for m in range(1 << g.n_bonds):
        B = tuple(b for b in range(g.n_bonds) if m >> b & 1)
        for ix, x in enumerate(labs):
            for iy, y in enumerate(labs):
                ev = conj(conn(o, x, bonds=B), conn(o, y, bonds=B))
                want_s = sst_lhs(g, x, y, B=B)
                want_t = event_measure(g, (Layer(bonds=B, sources=()),), ev)
                assert S[m, ix, iy] == pytest.approx(want_s, rel=1e-12, abs=0.0)
                assert T[m, ix, iy] == pytest.approx(want_t, rel=1e-12, abs=0.0)


def test_subset_tables_refused_before_allocation(monkeypatch):
    g = corpus_graphs()[-1]
    nb, n = g.n_bonds, g.n_vertices
    work = (8 << nb) * n * (2 * n + 2) + currents._UFUNC_BUFFERS + currents._OVERHEAD
    currents.clear_caches()
    monkeypatch.setattr(currents, "_MEM_LIMIT", work - 1)
    with pytest.raises(CapExceeded):
        currents.subset_connection_tables(g)
    assert currents._positive_table.cache_info().currsize == 0
    assert currents._component_table.cache_info().currsize == 0
    monkeypatch.setattr(currents, "_MEM_LIMIT", work)
    assert currents.subset_connection_tables(g)[0].shape[0] == 1 << nb


def test_instance_suites_sweep_one_positive_table_per_graph(monkeypatch):
    """The sst, theorems and lace checks of a graph read every layer from one
    positive table over all its bonds."""
    sweeps = []
    real = currents._sweep

    def counted(g, bonds, with_positive):
        if with_positive:
            sweeps.append(bonds)
        return real(g, bonds, with_positive)

    monkeypatch.setattr(currents, "_sweep", counted)
    currents.clear_caches()
    for k, g in enumerate(corpus_graphs()):
        sweeps.clear()
        for instance in (_sst_instance, _theorems_instance, _lace_instance):
            instance(f"g{k}", g, RunConfig())
        assert sweeps == [(1 << g.n_bonds) - 1]
    currents.clear_caches()


# -- memory refusals and caches ---------------------------------------------

def _spy_superpositions(monkeypatch):
    """Record the layers of every superposition built, batch or one row."""
    keys = []
    real = currents._superposed

    def spy(graph, layers):
        keys.append(layers)
        return real(graph, layers)

    monkeypatch.setattr(currents, "_superposed", spy)
    return keys


def _rows(key):
    return max(len(sms) for _, sms in key)


def test_theorems_instance_builds_each_superposition_once(monkeypatch):
    """A corpus theorems instance builds one batch, a row per x != o, for
    each anchor set (theta' and theta'') and one for pi0 and pi0-tilde, and
    nothing else. No key is built twice."""
    g = max(corpus_graphs(), key=lambda g: g.n_vertices)
    n = g.n_vertices
    currents.clear_caches()
    keys = _spy_superpositions(monkeypatch)
    _theorems_instance("grid", g, RunConfig())
    monkeypatch.undo()
    assert len(keys) == (n + 1) + 1                     # n + 1 anchor sets, pi0
    assert all(_rows(k) == n - 1 for k in keys)
    assert len(set(keys)) == len(keys)
    currents.clear_caches()


def test_sst_instance_builds_one_superposition_per_layer_pair(monkeypatch):
    """The sst two-layer rows take one batch per sampled (B, B') pair for
    the lhs, a row per x != o, and one per nested pair for the switched
    rhs, a row per (x, y); nothing else is superposed."""
    g = max(corpus_graphs(), key=lambda g: g.n_vertices)
    n = g.n_vertices
    pairs = _sampled_layer_pairs(g)
    nested = [p for p in pairs if set(p[0]) <= set(p[1])]
    currents.clear_caches()
    keys = _spy_superpositions(monkeypatch)
    _sst_instance("grid", g, RunConfig())
    monkeypatch.undo()
    assert sorted(map(_rows, keys)) == sorted([n - 1] * len(pairs) + [(n - 1) * n] * len(nested))
    assert len(set(keys)) == len(keys)
    currents.clear_caches()


def test_scalar_calls_on_one_layer_set_build_it_once(monkeypatch):
    """sst_lhs at one x and three y, as the benchmark's switch steps ask
    for it on a torus, reads one cached one-row superposition."""
    g = spread_torus()
    full = tuple(range(g.n_bonds))
    far = g.labels[2]
    currents.clear_caches()
    keys = _spy_superpositions(monkeypatch)
    for y in (g.labels[0], g.labels[1], far):
        sst_lhs(g, far, y, B=full, B_prime=full)
    assert len(keys) == 1 and _rows(keys[0]) == 1
    currents.clear_caches()


def test_superposition_counts_every_row(monkeypatch):
    """A batch's refusal counts rows * 40 * 2**nb bytes, five mask vectors a
    row, and once the covering product's workspace of four blocks, 8 bytes
    for each mask inside each distinct layer bond set, and the iterator
    buffers of a three-operand ufunc."""
    g = spread_torus()
    nb = g.n_bonds
    counted = []
    real = currents._fits

    def spy(nbytes, what):
        if what.startswith("superposition"):
            counted.append(nbytes)
        real(nbytes, what)

    monkeypatch.setattr(currents, "_fits", spy)
    for A in [(v,) for v in g.labels] + [tuple(g.labels)]:
        layers = currents._through_layers(g, g.labels[1:], A)
        counted.clear()
        currents._superposed(g, layers)
        inside = sum(8 << m.bit_count() for m in {m for m, _ in layers})
        want = ((g.n_vertices - 1) * (40 << nb) + 4 * currents._COVER_BLOCK + inside
                + 3 * 8 * np.getbufsize())
        assert counted == [want], A
    currents.clear_caches()


class _Counted(Exception):
    """Raised by a ``_fits`` spy in place of the construction it counts."""


def _count(monkeypatch, call) -> int:
    """The bytes ``_fits`` weighs against ``_MEM_LIMIT`` for ``call``, which
    stops there and allocates nothing."""
    def spy(nbytes, what):
        raise _Counted(nbytes + currents._OVERHEAD)

    with monkeypatch.context() as m:
        m.setattr(currents, "_fits", spy)
        with pytest.raises(_Counted) as counted:
            call()
    return counted.value.args[0]


def test_largest_family_fits_wherever_its_positive_table_fits(monkeypatch):
    """A family runs as one batch, so it must fit wherever its graph's
    positive table does. For every connected simple graph of n from 2 to 40
    vertices and n - 1 to n(n - 1)/2 bonds whose positive table fits
    ``_MEM_LIMIT``, the largest family, the switched rhs with a row per
    (x, y) and two layer bond sets, fits too. The largest count, at 7
    vertices and 19 bonds, is over 0.8 of the limit."""
    largest = 0
    for n in range(2, 41):
        path = [(i, i + 1) for i in range(n - 1)]
        chords = [(i, j) for i in range(n) for j in range(i + 2, n)]
        for nb in range(n - 1, n * (n - 1) // 2 + 1):
            g = build_graph(range(n), [(u, v, 1.0) for u, v in path + chords[:nb - n + 1]])
            if _count(monkeypatch, lambda: currents._sweep(g, (1 << nb) - 1, True)) \
                    > currents._MEM_LIMIT:
                break
            xy = [(x, y) for x in g.labels[1:] for y in g.labels]
            layers = currents._switch_layers(g, xy, range(1, nb), None)
            count = _count(monkeypatch, lambda: currents._superposed(g, layers))
            assert count <= currents._MEM_LIMIT, (n, nb)
            largest = max(largest, count)
    assert largest > 0.8 * currents._MEM_LIMIT


def test_family_refused_whole_before_allocation(monkeypatch):
    """Under a limit one byte below a whole family's count, theta_rows and
    sst_switch_rows are refused before their positive table or any
    indicator is built; the one-row theta_prime and sst_switch_rhs still
    return that family's rows, bit for bit."""
    g = spread_torus()
    A = (g.labels[2],)
    full = tuple(range(g.n_bonds))
    xs = g.labels[1:]
    xy = [(x, y) for x in xs for y in g.labels]
    theta = currents.theta_rows(g, A)[0].tolist()
    switch = currents.sst_switch_rows(g, full, full).tolist()
    cases = [
        (lambda: currents.theta_rows(g, A), currents._through_layers(g, xs, A),
         lambda: [theta_prime(g, x, A) for x in xs], theta),
        (lambda: currents.sst_switch_rows(g, full, full),
         currents._switch_layers(g, xy, full, full),
         lambda: [sst_switch_rhs(g, x, y, B=full, B_prime=full) for x, y in xy], switch),
    ]
    for family, layers, one_row, want in cases:
        count = _count(monkeypatch, lambda: currents._superposed(g, layers))
        currents.clear_caches()
        monkeypatch.setattr(currents, "_MEM_LIMIT", count - 1)
        tracemalloc.start()
        try:
            with pytest.raises(CapExceeded, match="^superposition"):
                family()
            assert tracemalloc.get_traced_memory()[1] < 1 << 16
        finally:
            tracemalloc.stop()
        assert currents._positive_table.cache_info().currsize == 0
        assert currents._indicator.cache_info().currsize == 0
        assert one_row() == want
        monkeypatch.undo()
    currents.clear_caches()


def _warm(g, *tables):
    """Set-up that builds ``tables`` for ``g``, or keeps them when they are
    g's already, and empties the mask cache and the covering product's
    workspace, so that the call allocates everything else it reads."""
    def prepare():
        for table in tables:
            table(g)
        currents._inside.cache_clear()
        currents._work.clear()
    return prepare


def _refusal_cases():
    """(name, what _fits is told, call, cache set-up), one per working-set
    refusal, each at a size where the counted arrays dominate."""
    path = build_graph(list(range(16)), [(i, i + 1, 1.0) for i in range(15)], beta=0.1)
    s6, s8 = (embed_on_torus(SpreadOut(1, 2.0), side, beta=0.4) for side in (6, 8))
    full = (1 << s6.n_bonds) - 1
    layers = ((full, (0,)), (full, (currents._source_mask(s6, (s6.labels[0], s6.labels[3])),)))
    theta = ((currents._outside_bonds(s6, s6.labels[2:3]), (0,)), layers[1])
    theta_rows = currents._through_layers(s6, s6.labels[1:], s6.labels[2:3])
    switch_rows = currents._switch_layers(s6, [(s6.labels[3], y) for y in s6.labels[:4]],
                                          None, None)
    side8, side8_rows = (currents._switch_layers(s8, [(s8.labels[4], y) for y in ys], None, None)
                         for ys in (s8.labels[1:2], s8.labels[1:3]))
    return [
        ("source", "source table", lambda: currents._sweep(path, (1 << 15) - 1, False),
         currents.clear_caches),
        ("positive", "positive table", lambda: currents._sweep(s6, full, True),
         currents.clear_caches),
        ("component", "component table", lambda: currents._component_table(s8),
         currents.clear_caches),
        ("cover", "superposition", lambda: currents._superposed(s6, layers),
         _warm(s6, currents._positive_table)),
        ("theta_cover", "superposition", lambda: currents._superposed(s6, theta),
         _warm(s6, currents._positive_table)),
        ("theta_batch", "superposition", lambda: currents._superposed(s6, theta_rows),
         _warm(s6, currents._positive_table)),
        ("blocked_batch", "superposition", lambda: currents._superposed(s6, switch_rows),
         _warm(s6, currents._positive_table)),
        ("side8_cover", "superposition", lambda: currents._superposed(s8, side8),
         _warm(s8, currents._positive_table)),
        ("side8_batch", "superposition", lambda: currents._superposed(s8, side8_rows),
         _warm(s8, currents._positive_table)),
        ("subset", "subset tables", lambda: currents.subset_connection_tables(s6),
         _warm(s6, currents._positive_table, currents._component_table)),
        ("spin", "spin sum", lambda: spin_expectation(path, (0, 2)), currents.clear_caches),
    ]


_REFUSAL_IDS = [c[0] for c in _refusal_cases()]


@pytest.mark.parametrize("case", range(len(_REFUSAL_IDS)), ids=_REFUSAL_IDS)
def test_refusal_counts_bound_traced_peak(monkeypatch, case):
    """The traced peak of the real call is at most the bytes its refusal
    counts; a limit one byte below the count refuses before allocating, and
    a limit at the count passes."""
    _, what, call, prepare = _refusal_cases()[case]
    counts = []
    real = currents._fits

    def spy(nbytes, name):
        if name.startswith(what):
            counts.append(nbytes + currents._OVERHEAD)
        real(nbytes, name)

    monkeypatch.setattr(currents, "_fits", spy)

    def run(limit):
        """(refused, traced peak) of the call under ``limit``; the caches are
        warmed under the default limit."""
        monkeypatch.setattr(currents, "_MEM_LIMIT", default)
        prepare()
        monkeypatch.setattr(currents, "_MEM_LIMIT", limit)
        tracemalloc.start()
        try:
            call()
            refused = False
        except CapExceeded:
            refused = True
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        return refused, peak

    default = currents._MEM_LIMIT
    refused, peak = run(default)
    count = counts[0]
    assert count > 1 << 20                   # the counted arrays dominate
    assert not refused and peak <= count
    refused, peak = run(count - 1)
    assert refused and peak < count // 16
    refused, peak = run(count)
    assert not refused and peak <= count
    assert counts == [count] * 3
    currents.clear_caches()


def test_side7_two_layer_switch_identity_runs_uncapped():
    """d=1, L=2 at side 7 has 14 bonds and at side 8 16. A two-layer
    measure with both layers on every bond is counted at 5 MB and 7 MB
    there; the bond-count caps used to refuse both, and counting the
    product's full expansion refused side 8."""
    for side, ys in ((7, (0, 1, 3)), (8, (1,))):
        g = embed_on_torus(SpreadOut(1, 2.0), side, beta=0.4)
        full = tuple(range(g.n_bonds))
        far = g.labels[side // 2]
        for y in (g.labels[i] for i in ys):
            lhs = sst_lhs(g, far, y, B=full, B_prime=full)
            assert lhs == pytest.approx(sst_switch_rhs(g, far, y), rel=1e-10, abs=0.0)
    currents.clear_caches()


def test_two_layer_measure_past_the_limit_refused_before_allocation():
    """Two layers on the 25 bonds of a ring count 1.34 GB of mask vectors:
    the superposition's own count refuses them before any table is built."""
    g = build_graph(list(range(25)), [(i, (i + 1) % 25, 1.0) for i in range(25)], beta=0.1)
    currents.clear_caches()
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match="^superposition"):
            sst_switch_rhs(g, 12, 1)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()
    assert currents._positive_table.cache_info().currsize == 0


def test_oversize_superposition_refused_before_allocation(monkeypatch):
    g = build_graph([0, 1, 2], [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)], beta=0.5)
    # one row, both layers on all three bonds: one bond set of 8 masks
    work = ((40 << g.n_bonds) + 4 * currents._COVER_BLOCK + (8 << g.n_bonds)
            + 3 * 8 * np.getbufsize() + currents._OVERHEAD)
    currents.clear_caches()
    monkeypatch.setattr(currents, "_MEM_LIMIT", work - 1)
    with pytest.raises(CapExceeded):
        sst_lhs(g, 2, 2, B_prime=(0, 1, 2))
    assert currents._positive_table.cache_info().currsize == 0
    monkeypatch.setattr(currents, "_MEM_LIMIT", work)
    assert sst_lhs(g, 2, 2, B_prime=(0, 1, 2)) > 0.0
    currents.clear_caches()


def test_tables_held_for_one_graph_at_a_time():
    """Building a second graph's positive and component tables releases the
    first graph's: ``_fits`` counts one table at a time. The second positive
    table also releases the covering product's workspace, which the first
    graph's superpositions sized."""
    g1, g2 = corpus_graphs()[-2:]
    currents.clear_caches()
    first = [weakref.ref(table(g1))
             for table in (currents._positive_table, currents._component_table)]
    sst_lhs(g1, g1.labels[1], g1.labels[2], B_prime=range(g1.n_bonds))
    work = [weakref.ref(a) for a in currents._work]
    assert len(work) == 2
    for table in (currents._positive_table, currents._component_table):
        table(g2)
        assert table.cache_info().currsize == 1
    assert [ref() for ref in first + work] == [None] * 4
    assert currents._work == []
    currents.clear_caches()


def test_oversize_component_table_refused(monkeypatch):
    g = build_graph([0, 1, 2], [(0, 1, 1.0), (1, 2, 1.0)], beta=0.5)
    currents.clear_caches()
    monkeypatch.setattr(currents, "_MEM_LIMIT",
                        (1 << g.n_bonds) * (2 * g.n_vertices + 24) + currents._OVERHEAD - 1)
    with pytest.raises(CapExceeded):
        currents._indicator(g, conn(0, 2))[0b11]
    monkeypatch.undo()
    assert currents._indicator(g, conn(0, 2))[0b11]
    ring = build_graph(list(range(27)), [(i, (i + 1) % 27, 1.0) for i in range(27)], beta=0.1)
    with pytest.raises(CapExceeded):
        currents._component_table(ring)


def test_clear_caches_empties_every_cache():
    caches = [f for f in vars(currents).values() if hasattr(f, "cache_info")]
    assert len(caches) >= 6
    g = build_graph([0, 1, 2], [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)], beta=0.5)
    partition_function(g)
    sst_lhs(g, 1, 2, B_prime=(0, 1, 2))
    assert all(f.cache_info().currsize > 0 for f in caches)
    assert currents._work
    currents.clear_caches()
    assert all(f.cache_info().currsize == 0 for f in caches)
    assert currents._work == []
