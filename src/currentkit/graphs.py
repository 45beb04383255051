"""Finite coupling graphs and spread-out coupling generators.

A coupling graph is a finite connected simple graph with a strictly positive
coupling on every bond and a global inverse temperature. Everything downstream
(parity sweeps, events, diagram kernels) consumes this one frozen structure.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import product as iproduct
from typing import Iterable


class GraphError(ValueError):
    """Malformed graph construction (bad bond, disconnected, non-positive coupling)."""


def _as_label(obj):
    # JSON round-trips tuples as lists; normalise back so labels stay hashable.
    if isinstance(obj, list):
        return tuple(_as_label(x) for x in obj)
    return obj


@dataclass(frozen=True)
class CouplingGraph:
    """Immutable weighted graph with an inverse temperature.

    ``labels`` is sorted; vertices are addressed by their index in it. Bonds are
    index pairs (i, j) with i < j, stored in lexicographic order, so the bond
    tuple index is the canonical bond order used by the exploration machinery.
    """

    labels: tuple
    bonds: tuple
    couplings: tuple
    beta: float

    def __post_init__(self):
        n = len(self.labels)
        if n == 0:
            raise GraphError("graph needs at least one vertex")
        if list(self.labels) != sorted(self.labels):
            raise GraphError("labels must be sorted")
        if len(set(self.labels)) != n:
            raise GraphError("duplicate vertex label")
        if len(self.couplings) != len(self.bonds):
            raise GraphError("couplings and bonds length mismatch")
        if not 0 <= self.beta < math.inf:
            raise GraphError("beta must be nonnegative and finite")
        seen = set()
        for i, j in self.bonds:
            if not (0 <= i < j < n):
                raise GraphError(f"bad bond ({i}, {j})")
            if (i, j) in seen:
                raise GraphError(f"duplicate bond ({i}, {j})")
            seen.add((i, j))
        if list(self.bonds) != sorted(self.bonds):
            raise GraphError("bonds must be in canonical (lexicographic) order")
        for J in self.couplings:
            if not (J > 0) or not math.isfinite(J):
                raise GraphError("couplings must be positive and finite")
        # connectivity
        if n > 1:
            adj = {i: [] for i in range(n)}
            for i, j in self.bonds:
                adj[i].append(j)
                adj[j].append(i)
            seen_v = {0}
            stack = [0]
            while stack:
                u = stack.pop()
                for v in adj[u]:
                    if v not in seen_v:
                        seen_v.add(v)
                        stack.append(v)
            if len(seen_v) != n:
                raise GraphError("graph is not connected")
        inc = tuple(
            tuple(b for b, (i, j) in enumerate(self.bonds) if u in (i, j))
            for u in range(n)
        )
        object.__setattr__(self, "_incident", inc)

    @property
    def n_vertices(self) -> int:
        return len(self.labels)

    @property
    def n_bonds(self) -> int:
        return len(self.bonds)

    def index(self, label) -> int:
        try:
            i = self.labels.index(label)
        except ValueError:
            raise GraphError(f"unknown vertex label {label!r}") from None
        return i

    def incident(self, v: int) -> tuple:
        """Bond indices meeting vertex index ``v``."""
        return self._incident[v]

    def other_end(self, b: int, v: int) -> int:
        i, j = self.bonds[b]
        if v == i:
            return j
        if v == j:
            return i
        raise GraphError(f"vertex {v} not on bond {b}")

    def tau(self, b: int) -> float:
        """tanh(beta * J) for bond ``b``."""
        return math.tanh(self.beta * self.couplings[b])

    def with_beta(self, beta: float) -> "CouplingGraph":
        return CouplingGraph(self.labels, self.bonds, self.couplings, float(beta))


def build_graph(vertices: Iterable, weighted_bonds: Iterable, beta: float = 1.0) -> CouplingGraph:
    """Build a validated coupling graph.

    ``weighted_bonds`` is an iterable of (u, v, J) triples over vertex labels.
    Labels must be mutually orderable; they are sorted to fix the canonical
    vertex order. Self-loops, duplicate bonds (in either orientation),
    non-positive couplings and disconnected graphs are rejected.
    """
    labels = tuple(sorted(vertices))
    pos = {lab: i for i, lab in enumerate(labels)}
    ib = []
    for entry in weighted_bonds:
        u, v, J = entry
        if u not in pos or v not in pos:
            raise GraphError(f"bond endpoint {u!r} or {v!r} not a vertex")
        if u == v:
            raise GraphError(f"self-loop at {u!r}")
        i, j = sorted((pos[u], pos[v]))
        ib.append(((i, j), float(J)))
    ib.sort(key=lambda e: e[0])
    bonds = tuple(e[0] for e in ib)
    couplings = tuple(e[1] for e in ib)
    return CouplingGraph(labels, bonds, couplings, float(beta))


# ---------------------------------------------------------------------------
# spread-out couplings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpreadOut:
    """Spread-out coupling family on Z^d with range L: the box profile.

    The coupling is J(x) = 1 / ((2R+1)^d - 1) on the nonzero x with every
    |x_k| <= R = floor(L), and 0 elsewhere.
    """

    d: int
    L: float

    def __post_init__(self):
        if self.d < 1:
            raise GraphError("dimension must be >= 1")
        if not (self.L >= 1):
            raise GraphError("range L must be >= 1")

    @property
    def box(self) -> tuple:
        """(R, J): the box half-width and the coupling on each of its offsets."""
        R = int(math.floor(self.L))
        return R, 1.0 / ((2 * R + 1) ** self.d - 1)


def spread_out_coupling(spec: SpreadOut) -> dict:
    """Map x -> J(x) over the box, origin excluded; covers both x and -x."""
    R, J = spec.box
    return {x: J for x in iproduct(range(-R, R + 1), repeat=spec.d) if any(x)}


def embed_on_torus(spec: SpreadOut, side: int, beta: float = 1.0) -> CouplingGraph:
    """Wrap the spread-out coupling onto the torus (Z/side)^d.

    Requires side > 2L so that distinct support offsets never alias to the same
    torus pair; every unordered pair then receives its unique J value.
    """
    if side <= 2 * spec.L:
        raise GraphError(f"side {side} must exceed 2L = {2 * spec.L}")
    J = spread_out_coupling(spec)
    half = []
    for off, val in J.items():
        nz = next(c for c in off if c != 0)
        if nz > 0:
            half.append((off, val))
    verts = list(iproduct(range(side), repeat=spec.d))
    wb = []
    for off, val in half:
        for s in verts:
            t = tuple((a + b) % side for a, b in zip(s, off))
            wb.append((s, t, val))
    return build_graph(verts, wb, beta)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def graph_to_dict(g: CouplingGraph) -> dict:
    return {
        "labels": [list(l) if isinstance(l, tuple) else l for l in g.labels],
        "bonds": [list(b) for b in g.bonds],
        "couplings": list(g.couplings),
        "beta": g.beta,
    }


def graph_from_dict(d) -> CouplingGraph:
    """Inverse of ``graph_to_dict``. Raises GraphError unless ``d`` is such an
    object: a label list, bonds as index pairs, numeric couplings and beta."""
    if not (isinstance(d, dict) and {"labels", "bonds", "couplings", "beta"} <= set(d)):
        raise GraphError("a graph must be an object with labels, bonds, couplings and beta")
    bonds, couplings, beta = d["bonds"], d["couplings"], d["beta"]
    if not (isinstance(d["labels"], list) and isinstance(bonds, list)
            and isinstance(couplings, list)
            and all(type(b) is list and [type(i) for i in b] == [int, int] for b in bonds)
            and all(type(v) in (int, float) for v in couplings + [beta])):
        raise GraphError("graph object has an ill-typed entry")
    try:
        return CouplingGraph(tuple(map(_as_label, d["labels"])), tuple(map(tuple, bonds)),
                             tuple(map(float, couplings)), float(beta))
    except TypeError:       # the entries are typed, so only the labels can raise it
        raise GraphError("graph labels must be hashable and mutually orderable") from None


def save_graph(g: CouplingGraph, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(graph_to_dict(g), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_graph(path: str) -> CouplingGraph:
    with open(path) as fh:
        return graph_from_dict(json.load(fh))
