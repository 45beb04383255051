"""Earliest-exploration paths and lace reconstruction.

Given a current configuration with sources {o, x}, o the origin
``g.labels[0]`` (vertex index 0), an injectable bond order
defines a unique earliest odd self-avoiding-in-bonds walk from o to x together
with the explored bond layers. Splitting the configuration into the explored
part and the rest, connectivity of the rest induces a lace (a minimal set of
progress-maximal arcs over the walk); summing the split weights against lace
existence reconstructs the double-connection weight exactly.

Each walk carries its walked and explored bonds as int masks (bit b for bond
b); the walks of one (graph, target, order) are enumerated once and cached.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .graphs import CouplingGraph, GraphError
from .currents import (
    EVEN, ODD,
    class_weights, double_conn, partition_function, pi0,
    _component_table, _fits, _indicator, _inside, _positive_table,
)


def _rank_array(g: CouplingGraph, order) -> tuple:
    if order is None:
        return tuple(range(g.n_bonds))
    rank = tuple(int(r) for r in order)
    if sorted(rank) != list(range(g.n_bonds)):
        raise GraphError("order must be a permutation of bond ranks")
    return rank


@dataclass(frozen=True)
class ExploredPath:
    """A walk (vertex indices), its bonds, the explored layer per step, and
    the bond masks of the walked and of all explored bonds."""

    omega: tuple
    bonds: tuple
    layers: tuple
    walked: int
    explored: int

    @property
    def length(self) -> int:
        return len(self.bonds)


def earliest_odd_path(g: CouplingGraph, odd: int, x, order=None) -> ExploredPath:
    """Trace the earliest odd walk from o to x through the odd-bond mask ``odd``.

    At the current frontier vertex, unexplored incident bonds are scanned in
    rank order; everything up to and including the first odd bond forms the
    step's layer and the odd bond is walked. The walk stops on first arrival
    at x. The sources, the boundary of the odd bonds, must be exactly {o, x};
    a stall (no odd unexplored bond at the frontier) cannot happen for such
    sources and raises if the precondition was violated.
    """
    ix = g.index(x)
    if ix == 0:
        raise GraphError("endpoints must differ")
    if not 0 <= odd < 1 << g.n_bonds:
        raise GraphError("odd mask has bits past the last bond")
    sources = 0
    for b, (i, j) in enumerate(g.bonds):
        if odd >> b & 1:
            sources ^= 1 << i | 1 << j
    if sources != 1 ^ (1 << ix):
        raise GraphError("odd bonds do not have sources {o, x}")
    rank = _rank_array(g, order)
    walked = explored = 0
    omega = [0]
    path_bonds = []
    layers = []
    w = 0
    while w != ix:
        layer = []
        chosen = None
        for b in sorted((b for b in g.incident(w) if not explored >> b & 1),
                        key=lambda b: rank[b]):
            layer.append(b)
            explored |= 1 << b
            if odd >> b & 1:
                chosen = b
                break
        if chosen is None:
            raise GraphError("exploration stalled; sources were inconsistent")
        walked |= 1 << chosen
        w = g.other_end(chosen, w)
        omega.append(w)
        path_bonds.append(chosen)
        layers.append(tuple(layer))
    return ExploredPath(tuple(omega), tuple(path_bonds), tuple(layers), walked, explored)


def enumerate_explorations(g: CouplingGraph, x, order=None) -> tuple:
    """All walks o -> x that some odd-bond mask's earliest odd
    exploration could trace, together with their layers.

    A walked bond must be unexplored at its step (bonds skipped in an earlier
    layer can never be walked later, since the greedy tracer only scans fresh
    bonds); its layer is forced by the rank rule. Walks reaching x stop there.
    """
    ix = g.index(x)
    if ix == 0:
        raise GraphError("endpoints must differ")
    return _explorations(g, ix, _rank_array(g, order))


@lru_cache(maxsize=8)
def _explorations(g: CouplingGraph, ix: int, rank: tuple) -> tuple:
    out = []

    def rec(w, walked, explored, omega, pbonds, layers):
        if w == ix:
            out.append(ExploredPath(tuple(omega), tuple(pbonds), tuple(layers),
                                    walked, explored))
            return
        fresh = [b for b in g.incident(w) if not explored >> b & 1]
        for pb in fresh:
            layer = tuple(sorted((b for b in fresh if rank[b] <= rank[pb]),
                                 key=lambda b: rank[b]))
            v = g.other_end(pb, w)
            rec(v, walked | 1 << pb, explored | sum(1 << b for b in layer),
                omega + [v], pbonds + [pb], layers + [layer])

    rec(0, 0, 0, [0], [], [])
    return tuple(out)


def _component_bits(g: CouplingGraph, masks) -> np.ndarray:
    """``bits[k, u]``: the bit of vertex u's component under rest mask
    ``masks[k]``, in the narrowest unsigned type with a bit per vertex."""
    labels = _component_table(g)[masks]
    return np.left_shift(1, labels.astype(np.min_scalar_type((1 << g.n_vertices) - 1)))


def _attachment_masks(g: CouplingGraph, path: ExploredPath, even: np.ndarray,
                      bits: np.ndarray, out: np.ndarray) -> None:
    """Write into ``out`` (len(even), len(bits), length + 1) the rest
    components that the walk's attachment sets meet, as bitmasks.

    The j-th attachment set is the j-th walk vertex together with the far
    ends of its layer's positive-even bonds; the final set is the terminal
    vertex alone. ``even`` holds one mask of positive-even bonds per
    explored split, and ``bits[k, u]`` is the bit of vertex u's component
    under the k-th rest mask.
    """
    for j, layer in enumerate(path.layers):
        vj = path.omega[j]
        col = out[:, :, j]
        col[...] = bits[:, vj]
        for b in layer[:-1]:            # the walked bond closes the layer
            col |= np.where(even[:, None] >> b & 1, bits[:, g.other_end(b, vj)], 0)
    out[:, :, -1] = bits[:, path.omega[-1]]


def _greedy_laces(M: np.ndarray, size: np.ndarray) -> tuple:
    """The greedy lace rule on every row of ``M`` at once.

    ``M[r, j]`` is the mask of rest components that attachment set j of row
    r meets, 0 past ``size[r]``; two sets are linked when their masks share
    a bit. Each arc ends at the furthest set linked to anything at or before
    the previous arc's end (0 at first) and starts at the first set linked to
    that end. A row whose arcs stall before ``size[r]`` has no lace, which
    happens exactly when o and x are not doubly connected in the
    superposition. Returns ``(found, S, T, n_arcs)``: row r's lace is
    ``(S[r, a], T[r, a])`` for a < ``n_arcs[r]`` when ``found[r]``.
    """
    n_rows, width = M.shape
    upto = np.bitwise_or.accumulate(M, axis=1)     # components of sets 0..t
    S = np.zeros((n_rows, width), np.int8)
    T = np.zeros((n_rows, width), np.int8)
    n_arcs = np.zeros(n_rows, np.int8)
    rows = np.arange(n_rows)
    t = np.zeros(n_rows, np.int64)
    live = np.ones(n_rows, bool)
    for a in range(width - 1):
        live &= t < size
        if not live.any():
            break
        hit = (M & upto[rows, t][:, None]) != 0
        tn = width - 1 - hit[:, ::-1].argmax(axis=1)
        live &= tn > t
        sn = ((M & M[rows, tn][:, None]) != 0).argmax(axis=1)
        S[live, a] = sn[live]
        T[live, a] = tn[live]
        n_arcs += live
        t = np.where(live, tn, t)
    return t == size, S, T, n_arcs


def is_valid_lace(edges, length: int) -> bool:
    """Interval-pattern validity of an arc set over a walk of ``length``."""
    if not edges:
        return False
    s = [e[0] for e in edges]
    t = [e[1] for e in edges]
    N = len(edges)
    if s[0] != 0 or t[-1] != length:
        return False
    if any(s[i] >= t[i] for i in range(N)):
        return False
    if any(s[i] >= s[i + 1] for i in range(N - 1)):
        return False
    if any(t[i] >= t[i + 1] for i in range(N - 1)):
        return False
    if any(s[i + 1] > t[i] for i in range(N - 1)):
        return False
    if any(s[i + 2] <= t[i] for i in range(N - 2)):
        return False
    return True


def verify_pi0_decomposition(g: CouplingGraph, x, order=None,
                             rtol: float = 1e-10) -> dict:
    """Reconstruct the double-connection weight through the earliest-walk split.

    Enumerates every fresh walk o -> x, every explored-part configuration
    (walked bonds odd, other explored bonds zero or positive-even) and every
    rest positive mask with empty rest sources, then accumulates the split
    weights twice: against the double-connection indicator on the
    superposition, and against lace existence. Both must match the directly
    swept value. Also cross-checks, configuration by configuration, that a
    lace exists iff the superposition doubly connects, that every built lace
    is pattern-valid, and that distinct arcs use disjoint rest components.

    Every (walk, explored split, rest mask) is one row of a single batch,
    in that nesting order; the weights are added left to right in row order,
    as a loop over the rows would add them.
    """
    if g.index(x) == 0:
        raise GraphError("endpoints must differ")
    Z = partition_function(g)
    direct = pi0(g, x)
    doubly = _indicator(g, double_conn(g.labels[0], x))
    P = _positive_table(g)
    full = (1 << g.n_bonds) - 1
    walks = []
    n_rows = 0
    for path in enumerate_explorations(g, x, order=order):
        skip = [b for b in range(g.n_bonds) if (path.explored ^ path.walked) >> b & 1]
        masks = _inside(g, full & ~path.explored)
        kvec = P[masks, 0]
        nz = kvec != 0
        walks.append((path, skip, masks[nz], kvec[nz], _component_bits(g, masks[nz])))
        n_rows += int(nz.sum()) << len(skip)
    width = 1 + max(path.length for path, *_ in walks)
    dtype = walks[0][-1].dtype
    # M and its prefix ORs, one temporary of their type and two bool ones per
    # entry, and the int8 arcs; plus the per-row vectors of the greedy rule
    _fits(n_rows * ((3 * dtype.itemsize + 4) * width + 128),
          f"lace batch of {n_rows} rows over {width} attachment sets")
    M = np.zeros((n_rows, width), dtype)
    size = np.empty(n_rows, np.int8)
    terms = np.empty(n_rows)
    dbl = np.empty(n_rows, bool)
    r = 0
    for path, skip, ks, w_k, bits in walks:
        w_path = 1.0
        for b in path.bonds:
            w_path *= class_weights(g, b)[ODD]
        # split i sets skip bond j even when bit j of i is set; doubling over
        # the bits multiplies each split's weight bit by bit, lowest first
        w_m, even = [w_path], [0]
        for b in skip:
            w_even = class_weights(g, b)[EVEN]
            w_m += [w * w_even for w in w_m]
            even += [e | 1 << b for e in even]
        even = np.array(even)
        end = r + len(even) * ks.size
        L = path.length + 1
        _attachment_masks(g, path, even, bits, M[r:end, :L].reshape(len(even), ks.size, L))
        size[r:end] = path.length
        terms[r:end] = np.multiply.outer(w_m, w_k).ravel()
        dbl[r:end] = doubly[(even | path.walked)[:, None] | ks].ravel()
        r = end
    found, S, T, n_arcs = _greedy_laces(M, size)
    # cumsum adds left to right; np.sum would add pairwise
    split_total = float(np.cumsum(np.concatenate(([0.0], terms[dbl])))[-1]) / Z
    recon_total = float(np.cumsum(np.concatenate(([0.0], terms[found])))[-1]) / Z
    # each arc's witnesses, the rest components its two ends share, must be
    # disjoint from every other arc's
    multi = np.flatnonzero(found & (n_arcs >= 2))
    most = int(n_arcs[multi].max(initial=0))
    W = np.zeros((multi.size, most), dtype)
    for a in range(most):
        used = a < n_arcs[multi]
        W[used, a] = M[multi, S[multi, a]][used] & M[multi, T[multi, a]][used]
    overlap_violations = sum(int(np.count_nonzero(W[:, a, None] & W[:, a + 1:]))
                             for a in range(most - 1))
    hist: Counter = Counter()
    invalid_laces = 0
    # distinct (length, arcs) rows, each compared as one opaque byte string
    keys = np.column_stack((size, n_arcs, S, T))[found]
    _, first, counts = np.unique(keys.view(f"V{keys.shape[1]}").ravel(),
                                 return_index=True, return_counts=True)
    for key, count in zip(keys[first].tolist(), counts.tolist()):
        length, n = key[:2]
        hist[n] += count
        lace = tuple(zip(key[2:2 + n], key[2 + width:2 + width + n]))
        if not is_valid_lace(lace, length):
            invalid_laces += count
    indicator_mismatches = int(np.count_nonzero(found != dbl))
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


def check_partition_of_unity(g: CouplingGraph, x, order=None) -> dict:
    """For every class vector with sources {o, x}: exactly one fresh walk's
    odd-and-earliest indicator fires, and it is the greedily traced walk.

    The sources are the boundary of the odd bonds, so the class vectors are
    enumerated as the odd masks with boundary {o, x}, each with every
    zero/even split of the remaining bonds. The walk indicator
    ``odd & explored == walked`` and the tracer read only the odd mask, so
    each odd mask is checked against every walk's indicator in one
    comparison and traced once, and a mismatch counts for all of its splits.
    ``partition_of_unity_oracle`` in the tests traces every class vector and
    guards that argument.
    """
    target = 1 ^ (1 << g.index(x))
    paths = enumerate_explorations(g, x, order=order)
    nb = g.n_bonds
    boundary = np.zeros(1, np.int64)    # boundary[m]: sources of odd mask m
    for i, j in g.bonds:
        boundary = np.concatenate((boundary, boundary ^ (1 << i | 1 << j)))
    odds = np.flatnonzero(boundary == target)
    masks = np.array([(p.explored, p.walked) for p in paths], np.int64).reshape(-1, 2)
    # hits[k, p]: whether walk p is the earliest odd walk of odds[k]
    hits = odds[:, None] & masks[:, 0] == masks[:, 1]
    checked = bad_count = greedy_mismatch = 0
    for odd, hit in zip(odds.tolist(), hits):
        n_split = 1 << (nb - odd.bit_count())
        checked += n_split
        if hit.sum() != 1:
            bad_count += n_split
            continue
        if earliest_odd_path(g, odd, x, order=order).bonds != paths[hit.argmax()].bonds:
            greedy_mismatch += n_split
    return {"checked": checked, "not_exactly_one": bad_count,
            "greedy_mismatch": greedy_mismatch,
            "passed": bad_count == 0 and greedy_mismatch == 0 and checked > 0}


def extraction_gap(a: float) -> float:
    """tanh(a)^2 minus (cosh(a)-1)/cosh(a); nonnegative for all real a."""
    c = math.cosh(a)
    return math.tanh(a) ** 2 - (c - 1.0) / c
