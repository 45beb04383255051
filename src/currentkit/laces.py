"""Earliest-exploration paths and lace reconstruction.

Given a current configuration with sources {o, x}, o the origin
``g.labels[0]`` (vertex index 0), an injectable bond order
defines a unique earliest odd self-avoiding-in-bonds walk from o to x together
with the explored bond layers. Splitting the configuration into the explored
part and the rest, connectivity of the rest induces a lace (a minimal set of
progress-maximal arcs over the walk); summing the split weights against lace
existence reconstructs the double-connection weight exactly.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .graphs import CouplingGraph, GraphError
from .currents import (
    ZERO, EVEN, ODD,
    class_weights, double_conn, partition_function, pi0,
    _component_table, _indicator, _inside, _positive_table,
)


def _rank_array(g: CouplingGraph, order) -> list:
    if order is None:
        return list(range(g.n_bonds))
    rank = [int(r) for r in order]
    if sorted(rank) != list(range(g.n_bonds)):
        raise GraphError("order must be a permutation of bond ranks")
    return rank


def _masks_from_classes(g: CouplingGraph, classes: Sequence[int]) -> tuple:
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


@dataclass(frozen=True)
class ExploredPath:
    """A walk (vertex indices), its bonds, and the explored layer per step."""

    omega: tuple
    bonds: tuple
    layers: tuple

    @property
    def length(self) -> int:
        return len(self.bonds)

    def explored(self) -> frozenset:
        out = set()
        for layer in self.layers:
            out.update(layer)
        return frozenset(out)


def earliest_odd_path(g: CouplingGraph, classes: Sequence[int], x,
                      order=None) -> ExploredPath:
    """Trace the earliest odd walk from o to x through ``classes``.

    At the current frontier vertex, unexplored incident bonds are scanned in
    rank order; everything up to and including the first odd bond forms the
    step's layer and the odd bond is walked. The walk stops on first arrival
    at x. Requires the class sources to be exactly {o, x}; a stall (no odd
    unexplored bond at the frontier) cannot happen for such sources and raises
    if the precondition was violated.
    """
    ix = g.index(x)
    if ix == 0:
        raise GraphError("endpoints must differ")
    sm, _, _ = _masks_from_classes(g, classes)
    if sm != 1 ^ (1 << ix):
        raise GraphError("classes do not have sources {o, x}")
    rank = _rank_array(g, order)
    explored: set = set()
    omega = [0]
    path_bonds = []
    layers = []
    w = 0
    while w != ix:
        layer = []
        chosen = None
        for b in sorted((b for b in g.incident(w) if b not in explored),
                        key=lambda b: rank[b]):
            layer.append(b)
            if classes[b] == ODD:
                chosen = b
                break
        if chosen is None:
            raise GraphError("exploration stalled; sources were inconsistent")
        explored.update(layer)
        w = g.other_end(chosen, w)
        omega.append(w)
        path_bonds.append(chosen)
        layers.append(tuple(layer))
    return ExploredPath(tuple(omega), tuple(path_bonds), tuple(layers))


def enumerate_explorations(g: CouplingGraph, x, order=None) -> list:
    """All walks o -> x that some class configuration's earliest odd
    exploration could trace, together with their layers.

    A walked bond must be unexplored at its step (bonds skipped in an earlier
    layer can never be walked later, since the greedy tracer only scans fresh
    bonds); its layer is forced by the rank rule. Walks reaching x stop there.
    """
    ix = g.index(x)
    if ix == 0:
        raise GraphError("endpoints must differ")
    rank = _rank_array(g, order)
    out = []

    def rec(w, explored, omega, pbonds, layers):
        if w == ix:
            out.append(ExploredPath(tuple(omega), tuple(pbonds), tuple(layers)))
            return
        fresh = [b for b in g.incident(w) if b not in explored]
        for pb in fresh:
            layer = tuple(sorted((b for b in fresh if rank[b] <= rank[pb]),
                                 key=lambda b: rank[b]))
            v = g.other_end(pb, w)
            rec(v, explored | set(layer), omega + [v],
                pbonds + [pb], layers + [layer])

    rec(0, set(), [0], [], [])
    return out


def path_indicator(g: CouplingGraph, path: ExploredPath, odd_mask: int) -> bool:
    """Whether a configuration's odd bonds make ``path`` the earliest odd walk:
    every walked bond odd, every other explored bond not odd."""
    pmask = 0
    for b in path.bonds:
        pmask |= 1 << b
    smask = 0
    for layer in path.layers:
        for b in layer:
            smask |= 1 << b
    smask &= ~pmask
    return (odd_mask & pmask) == pmask and (odd_mask & smask) == 0


def tilde_v_sets(g: CouplingGraph, path: ExploredPath,
                 classes: Sequence[int]) -> tuple:
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


def build_lace(g: CouplingGraph, path: ExploredPath, classes: Sequence[int],
               k_mask: int):
    """Lace induced by the rest-of-volume positive bonds ``k_mask``.

    Arcs greedily extend the furthest walk index reachable from anything at or
    before the previous arc's end, where "reachable" means the attachment sets
    intersect or are joined by positive rest bonds. Returns the arc tuple, or
    None when progress stalls before the terminal index (no lace exists, which
    happens exactly when o and x are not doubly connected in the superposition).
    """
    for b in path.explored():
        if k_mask & (1 << b):
            raise GraphError("rest mask overlaps the explored bonds")
    comp = _component_table(g)[k_mask].tolist()
    return _lace_from_ids(_rest_ids(tilde_v_sets(g, path, classes), comp))


def _rest_ids(V: tuple, comp: list) -> list:
    """Per attachment set, the ids of the rest components it meets, given
    the component label of every vertex under the rest mask."""
    return [frozenset(comp[u] for u in s) for s in V]


def _lace_from_ids(ids: list):
    """``build_lace`` on the rest-component ids of the attachment sets."""
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
    """
    if g.index(x) == 0:
        raise GraphError("endpoints must differ")
    Z = partition_function(g)
    direct = pi0(g, x)
    doubly = _indicator(g, double_conn(g.labels[0], x))
    split_total = 0.0
    recon_total = 0.0
    hist: Counter = Counter()
    indicator_mismatches = 0
    invalid_laces = 0
    overlap_violations = 0
    for path in enumerate_explorations(g, x, order=order):
        bonds_seq = path.bonds
        explored = sorted(path.explored())
        skip = [b for b in explored if b not in set(bonds_seq)]
        rest = tuple(b for b in range(g.n_bonds) if b not in set(explored))
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
                full = m_pos | k_mask
                dbl = bool(doubly[full])
                if dbl:
                    split_total += w_m * w_k
                ids = _rest_ids(V, comp)
                lace = _lace_from_ids(ids)
                if lace is not None:
                    recon_total += w_m * w_k
                    hist[len(lace)] += 1
                    if not is_valid_lace(lace, path.length):
                        invalid_laces += 1
                    if len(lace) >= 2:
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


def check_partition_of_unity(g: CouplingGraph, x, order=None) -> dict:
    """For every class vector with sources {o, x}: exactly one fresh walk's
    odd-and-earliest indicator fires, and it is the greedily traced walk.

    The sources are the boundary of the odd bonds, so the class vectors are
    enumerated as the odd masks with boundary {o, x}, each with every
    zero/even split of the remaining bonds. The tracer, like
    ``path_indicator``, reads only which bonds are odd, so each odd mask is
    traced once, on its all-zero split, and a mismatch counts for all of its
    splits. ``partition_of_unity_oracle`` in the tests traces every class
    vector and guards that argument.
    """
    target = 1 ^ (1 << g.index(x))
    paths = enumerate_explorations(g, x, order=order)
    nb = g.n_bonds
    boundary = [0]                      # boundary[m]: sources of odd mask m
    for i, j in g.bonds:
        boundary += [s ^ (1 << i) ^ (1 << j) for s in boundary]
    checked = 0
    bad_count = 0
    greedy_mismatch = 0
    for odd, sm in enumerate(boundary):
        if sm != target:
            continue
        n_split = 1 << (nb - bin(odd).count("1"))
        checked += n_split
        flagged = [p for p in paths if path_indicator(g, p, odd)]
        if len(flagged) != 1:
            bad_count += n_split
            continue
        classes = [ODD if odd >> b & 1 else ZERO for b in range(nb)]
        if earliest_odd_path(g, classes, x, order=order).bonds != flagged[0].bonds:
            greedy_mismatch += n_split
    return {"checked": checked, "not_exactly_one": bad_count,
            "greedy_mismatch": greedy_mismatch,
            "passed": bad_count == 0 and greedy_mismatch == 0 and checked > 0}


def extraction_gap(a: float) -> float:
    """tanh(a)^2 minus (cosh(a)-1)/cosh(a); nonnegative for all real a."""
    c = math.cosh(a)
    return math.tanh(a) ** 2 - (c - 1.0) / c
