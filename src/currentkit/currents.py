"""Parity-class sweeps over bond currents and event-weighted measures.

A current configuration on a bond set is summarised by one of three parity
classes per bond: zero, positive even, or odd. The class weights at inverse
temperature beta are 1, cosh(beta*J) - 1 and sinh(beta*J), the even one
evaluated as 2 sinh(beta*J/2)**2 so that it keeps full relative precision at
small beta*J; summing a product of class weights over all assignments with a
prescribed source set reproduces the partition function and correlation
ratios exactly. Events (connectivity, double connectivity, through-sets)
depend on a configuration only through its positive-bond mask, so sweeps
aggregate weight by (positive mask, source mask).

A sweep is a recursion over the bonds, with only nonnegative terms. A bond
with endpoints i, j keeps a source mask s in the zero and even classes and
sends it to s ^ (1<<i | 1<<j) in the odd class, so each bond updates the
source table T as T[s] -> T[s] cosh + T[s ^ flip] sinh, in O(2**n). The
positive table doubles instead: the rows of masks with top bit k are the
rows below 2**k times the even weight plus their flipped columns times the
odd weight, O(2**(n_bonds + n)) in all.

Event measures are tables over all 2**n_bonds global positive masks. A
per-graph component table labels every vertex's cluster under every mask, so
an event becomes a boolean indicator vector made of table gathers. The layers
of a measure superpose into one weight per mask through the covering (union)
product in its subtraction-free form, and the measure is the sum of those
weights over the indicator. The product splits only the bonds its factors
use: 3**|both| * 2**|one| branches, where |both| counts the bonds of both
factors and |one| those of exactly one. A two-layer through-set measure, with
its outer layer on the bonds O that avoid A, costs 3**|O| * 2**(n_bonds - |O|).
A product whose branches pass a cache-sized block splits on its top bond
into half-size products, until each fits, with the same sums. A product
that fits keeps its temporaries in a workspace of four blocks that
successive products reuse, so they write into pages that are already
mapped; building another graph's positive table, or clearing the caches,
releases it.
A family of measures on the same layer bonds, such as theta' at every x, is
one superposition with a row per source choice: the product runs on the
stack of rows, and o's connection to each y is summed row by row. A scalar
measure is its family's one-row case, summed by the same code.

A layer on a bond subset B is the full positive table restricted to the masks
inside B, bit for bit: bonds outside B sit in the zero class, with weight 1
and no source, and row m gets the same flips and weights in the same order.
So one positive table per graph serves every layer, and every subset's
one-layer measure is a subset sum (a zeta transform over the bond masks) of
that table times an indicator, divided by Z_B, the sourceless subset sum.

Below the public argument check (``_bonds_arg``) a bond set is an int mask,
bit b for bond b, as are the positive masks that index every table.

Only memory refuses a table: ``_fits`` raises ``CapExceeded`` before
allocation when the table's traced peak would pass ``_MEM_LIMIT``. A
superposition counts five mask vectors a row, and once the workspace, its
layers' masks and numpy's iterator buffers. A family is one batch, refused
whole; wherever a graph's positive table fits, its largest family fits too.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from operator import or_
from typing import Iterable

import numpy as np

from .graphs import CouplingGraph, GraphError

ZERO, EVEN, ODD = 0, 1, 2

_MEM_LIMIT = 1 << 30
_OVERHEAD = 1 << 16     # interpreter objects and array headers of one call
# Bytes of one block of a covering product's expansion: the smallest power of
# two at which every family below eight bonds (at most nb(nb + 1) rows) is one
# pass. Blocks of half or twice the size take the same time at 12 bonds on a
# host with 2 MiB of L2 cache.
_COVER_BLOCK = 1 << 20


class CapExceeded(ValueError):
    """A table would not fit in memory, or a measure passes its ``cap=``."""


def _fits(nbytes: int, what: str) -> None:
    """Refuse, before allocation, a table whose working set would pass
    ``_MEM_LIMIT``. ``nbytes`` counts the arrays alive at the construction's
    traced peak; ``_OVERHEAD`` is added for everything else."""
    need = nbytes + _OVERHEAD
    if need > _MEM_LIMIT:
        raise CapExceeded(f"{what} needs {need} bytes, over the {_MEM_LIMIT}-byte limit")


def class_weights(g: CouplingGraph, b: int) -> tuple:
    """(zero, positive-even, odd) weights for bond ``b``.

    The even weight cosh(a) - 1 is evaluated as 2 sinh(a/2)**2, which keeps
    full relative precision at small a instead of cancelling against 1.
    """
    a = g.beta * g.couplings[b]
    return (1.0, 2.0 * math.sinh(0.5 * a) ** 2, math.sinh(a))


def _bonds_arg(g: CouplingGraph, restriction) -> int:
    """The bond mask of a public restriction: None (all bonds) or bond indices."""
    if restriction is None:
        return (1 << g.n_bonds) - 1
    m = 0
    for b in map(int, restriction):
        if not (0 <= b < g.n_bonds):
            raise GraphError(f"bond index {b} out of range")
        m |= 1 << b
    return m


def _source_mask(g: CouplingGraph, vertices: Iterable) -> int:
    m = 0
    for lab in vertices:
        m ^= 1 << g.index(lab)
    return m


def _sweep(g: CouplingGraph, bonds: int, with_positive: bool) -> np.ndarray:
    """Aggregate class-weight products by (positive mask, source mask) over
    the bonds in the mask ``bonds``.

    Returns shape (2**nb, 2**n) when ``with_positive`` else (2**n,), nb the
    number of bonds. Positive-mask bit k refers to the k-th lowest bond.

    Built bond by bond as the module docstring says. The positive table's
    rows with top bit k are written in place, block by block, as in
    ``_component_table``, so its peak is the table plus one half-size product
    and the source and flip vectors; the source sweep peaks at six 2**n
    vectors: the table, its two products, a gather and those two.
    """
    nb = bonds.bit_count()
    n = g.n_vertices
    _fits((12 << (nb + n)) + (16 << n) if with_positive else 48 << n,
          f"{'positive' if with_positive else 'source'} table for {nb} bonds on {n} vertices")
    sources = np.arange(1 << n)
    T = np.zeros((1 << nb, 1 << n) if with_positive else 1 << n)
    T.flat[0] = 1.0
    for k, b in enumerate(b for b in range(g.n_bonds) if bonds >> b & 1):
        i, j = g.bonds[b]
        flipped = sources ^ ((1 << i) | (1 << j))
        zero, even, odd = class_weights(g, b)
        if with_positive:
            blk, top = T[:1 << k], T[1 << k:2 << k]
            # indices are in range; "clip" only spares take a buffered copy
            np.take(blk, flipped, axis=1, out=top, mode="clip")
            top *= odd
            top += blk * even
        else:
            T = T * (zero + even) + T[flipped] * odd
    return T


@lru_cache(maxsize=64)
def _source_table(g: CouplingGraph, bonds: int) -> np.ndarray:
    return _sweep(g, bonds, with_positive=False)


@lru_cache(maxsize=1)
def _positive_table(g: CouplingGraph) -> np.ndarray:
    """Positive table over all bonds; a layer on B reads its rows ``_inside(g, B)``.
    Only the last graph's table is kept: ``_fits`` counts one table at a time.
    A new table releases the covering product's workspace first."""
    _work.clear()
    return _sweep(g, (1 << g.n_bonds) - 1, with_positive=True)


@lru_cache(maxsize=64)
def _inside(g: CouplingGraph, bonds: int) -> np.ndarray:
    """Ascending global positive masks inside the bond mask ``bonds``."""
    m = np.arange(1 << g.n_bonds)
    return m[(m & ~bonds) == 0]


# ---------------------------------------------------------------------------
# partition function and correlations
# ---------------------------------------------------------------------------

def partition_function(g: CouplingGraph) -> float:
    """Total even-source weight on all bonds.

    Equals 2**(-n) times the spin sum of exp(-beta H).
    """
    return float(_source_table(g, _bonds_arg(g, None))[0])


def correlation(g: CouplingGraph, x, y, restriction=None) -> float:
    """<phi_x phi_y> on the bonds ``restriction`` (default all)."""
    st = _source_table(g, _bonds_arg(g, restriction))
    sm = _source_mask(g, (x, y))
    return float(st[sm] / st[0])


def four_point(g: CouplingGraph, x, y, u, v) -> float:
    st = _source_table(g, _bonds_arg(g, None))
    sm = _source_mask(g, (x, y, u, v))
    return float(st[sm] / st[0])


def two_point_matrix(g: CouplingGraph) -> np.ndarray:
    """Symmetric matrix of pair correlations over all vertex index pairs."""
    st = _source_table(g, _bonds_arg(g, None))
    bit = 1 << np.arange(g.n_vertices)
    return st[bit[:, None] ^ bit] / st[0]


# ---------------------------------------------------------------------------
# spin-sum second route (cross-check oracle used by the identities suite)
# ---------------------------------------------------------------------------

def _spin_matrix(n: int) -> np.ndarray:
    # three (2**n, n) arrays while it is built, then four 2**n spin-sum vectors
    _fits((8 << n) * (3 * n + 4), f"spin sum over {n} vertices")
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)[None, :]) & 1
    return 1.0 - 2.0 * bits


def spin_expectation(g: CouplingGraph, vertices: Iterable = ()) -> float:
    """<prod phi_v> by direct spin summation; empty product gives the
    normalised partition sum 2**(-n) * sum exp(-beta H)."""
    s = _spin_matrix(g.n_vertices)
    energy = np.zeros(s.shape[0])
    for b, (i, j) in enumerate(g.bonds):
        energy += g.beta * g.couplings[b] * s[:, i] * s[:, j]
    boltz = np.exp(energy)
    obs = np.ones(s.shape[0])
    for lab in vertices:
        obs *= s[:, g.index(lab)]
    num = float(np.dot(obs, boltz))
    den = float(boltz.sum())
    if vertices:
        return num / den
    return den / s.shape[0]


# ---------------------------------------------------------------------------
# events as indicator vectors over all global positive masks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Event:
    """Positive-mask event. ``bonds`` restricts which bonds may carry a
    ``conn`` connection (None means all bonds of the graph)."""

    kind: str
    u: object = None
    v: object = None
    A: frozenset = frozenset()
    bonds: tuple | None = None


def conn(u, v, bonds=None) -> Event:
    return Event("conn", u, v, bonds=None if bonds is None else tuple(sorted(bonds)))


def double_conn(u, v) -> Event:
    return Event("double", u, v)


def through(u, v, A) -> Event:
    return Event("through", u, v, frozenset(A))


def _outside_bonds(g: CouplingGraph, A) -> int:
    """Mask of the bonds with neither end in the vertex labels ``A``."""
    A_idx = {g.index(a) for a in A}
    return sum(1 << b for b, (i, j) in enumerate(g.bonds)
               if i not in A_idx and j not in A_idx)


@lru_cache(maxsize=1)
def _component_table(g: CouplingGraph) -> np.ndarray:
    """Component label (smallest vertex index) of every vertex under every
    global positive mask, shape (2**n_bonds, n_vertices).

    Built by doubling over the bonds: the rows of masks with top bit k are
    the rows below 2**k with bond k's endpoints merged to the smaller label.
    int8 labels suffice, since a connected graph on more than 127 vertices
    has too many bonds to pass the memory check.
    """
    nb, n = g.n_bonds, g.n_vertices
    # the int8 table, plus the larger of its last doubling step's half-size
    # label temporaries and an indicator's int64 mask gathers
    _fits((1 << nb) * (2 * n + 24), f"component table for {nb} bonds on {n} vertices")
    comp = np.empty((1 << nb, n), dtype=np.int8)
    comp[0] = np.arange(n)
    for k, (i, j) in enumerate(g.bonds):
        blk = comp[:1 << k]
        lo = np.minimum(blk[:, i], blk[:, j])[:, None]
        hi = np.maximum(blk[:, i], blk[:, j])[:, None]
        comp[1 << k:2 << k] = np.where(blk == hi, lo, blk)
    return comp


@lru_cache(maxsize=64)
def _indicator(g: CouplingGraph, ev: Event) -> np.ndarray:
    """Bool vector over all global positive masks: where ``ev`` holds.

    ``double`` is Menger on the simple graph of positive bonds: connected, and
    still connected after removing any single positive bond. ``through`` is
    doubly connected with every positive path u -> v meeting A; at u == v the
    only path is the empty one at u, so the event is u in A.
    """
    comp = _component_table(g)
    m = np.arange(1 << g.n_bonds) & _bonds_arg(g, ev.bonds)
    iu, iv = g.index(ev.u), g.index(ev.v)

    def linked(keep: int = -1) -> np.ndarray:
        mm = m & keep
        return comp[mm, iu] == comp[mm, iv]

    if ev.kind == "conn":
        return linked()
    if ev.kind == "double":
        out = linked()
        for b in range(g.n_bonds):
            out &= linked(~(1 << b))
        return out
    if ev.kind == "through":
        out = _indicator(g, double_conn(ev.u, ev.v))
        if {iu, iv} & {g.index(a) for a in ev.A}:
            return out
        return out & ~linked(_outside_bonds(g, ev.A))
    raise ValueError(f"unknown event kind {ev.kind!r}")


def _split(f: np.ndarray, h: np.ndarray, bits) -> tuple:
    """Expand the factors of ``_cover``, each of shape (width, *branches),
    over the bond levels ``bits``, (in f, in h) pairs from the top bond down.
    A level halves the width and puts its branch axis in front of the
    others. A bond in both supports gives f the branches (f0, f0, f1) and h
    (h0, h1, h0 + h1); a factor without the bond keeps one branch, its zero
    half dropped, as a view that the product broadcasts.

    Only a bond in both supports writes: the k-th such level puts f's
    expansion and then h's at the start of ``_work[k % 2]``, so each one
    lies in the other workspace array from the one it reads. Returns the
    factors and the number of levels that wrote."""
    k = 0
    for in_f, in_h in bits:
        f, h = f.reshape(2, -1, *f.shape[1:]), h.reshape(2, -1, *h.shape[1:])
        if in_f and in_h:
            nf, nh = 3 * f.size // 2, 3 * h.size // 2
            out = _work[k % 2][:nf + nh]
            f3 = out[:nf].reshape(f.shape[1], 3, *f.shape[2:])
            h3 = out[nf:].reshape(h.shape[1], 3, *h.shape[2:])
            f3[:, :2] = f[0, :, None]
            f3[:, 2] = f[1]
            h3[:, :2] = h.swapaxes(0, 1)
            np.add(h[0], h[1], out=h3[:, 2])
            f, h, k = f3, h3, k + 1
        else:
            f = (f if in_f else f[:1]).swapaxes(0, 1)
            h = (h if in_h else h[:1]).swapaxes(0, 1)
    return f, h, k


def _join(r: np.ndarray, levels: int, out: np.ndarray, k: int) -> None:
    """Sum the product of ``_split``'s factors back over its last ``levels``
    levels, innermost first, into ``out``: a level's masks without its bond
    get branch 0, and those with it the sum of the other branches, zero at
    a bond in neither support. A level's width doubles and its branch axis
    goes. Level j but the last writes at the start of ``_work[(k + j) % 2]``,
    so r must not lie in ``_work[k % 2]``."""
    for j in range(levels):
        shape = (2, r.shape[0], *r.shape[2:])
        if j == levels - 1:
            o = out.reshape(shape)
            assert np.may_share_memory(o, out)  # a view: out's leading axis split
        else:
            o = _work[(k + j) % 2][:2 * r.size // r.shape[1]].reshape(shape)
        o[0] = r[:, 0]
        if r.shape[1] == 3:
            np.add(r[:, 1], r[:, 2], out=o[1])
        else:
            o[1] = r[:, 1] if r.shape[1] == 2 else 0.0
        r = o.reshape(-1, *shape[2:])


# The covering product's workspace: two float64 arrays of ``_COVER_BLOCK // 4``
# entries, which every pass of ``_cover`` reuses, so successive passes write
# into pages that are already mapped. A pass has 8 * rows * batch <=
# ``_COVER_BLOCK`` (``_cover_plan``); its split levels write at most
# 2 * rows * batch entries, its product and sums rows * batch. The first pass
# after a release allocates them; ``_positive_table`` and ``clear_caches``
# release them. Products must run one at a time. Two arrays, not one twice as
# long: glibc returns a freed heap top only past twice the largest mapping
# freed so far, and with one array the corpus benchmark's peak RSS read 2.7%
# higher, with two no higher than before (CHANGES.md).
_work: list = []


def _cover(f: np.ndarray, fb: int, h: np.ndarray, hb: int, out=None) -> np.ndarray:
    """Covering product r[S] = sum over A | B == S of f[A] * h[B], row by row,
    for f zero off the masks inside the bond mask ``fb`` and h zero off those
    inside ``hb``. Both are stacks of rows, shape (rows, 2**nb); a stack of
    one row serves every row of the other. The result goes into ``out``, a
    new array unless given.

    Splitting every mask on its top bit gives r0 = f0*h0 and
    r1 = f0*h1 + f1*(h0 + h1): three half-size products and no subtraction,
    so nonnegative inputs lose nothing to cancellation. A bit in one support
    only drops the other factor's zero half: r1 = f1*h0 or f0*h1, two
    products. A bit in neither support is not expanded, and r1 = 0. The terms
    dropped are exact zeros, so the result is bit for bit that of the full
    split. The recursion runs one level per bond, over
    3**|fb & hb| * 2**|fb ^ hb| branches per row.

    A product whose branches fit ``_COVER_BLOCK`` bytes is one pass, with
    all its rows, in the workspace: ``_split`` and ``_join`` run its levels
    breadth first with the branch axes innermost, so the deep levels, which
    hold most entries, work on long contiguous runs. A larger one splits on
    its top bit and covers its halves into the halves of ``out``, each by
    the same rule, so every entry takes the same elementwise steps as in
    one pass, and a stack of rows gives bit for bit the rows covered one at
    a time. Its only new arrays are the result, h0 + h1 and f1*(h0 + h1),
    which over all levels add up to less than one row vector each. A
    product on no bonds is the product of its rows.
    """
    nb = f.shape[1].bit_length() - 1
    if out is None:
        out = np.empty((max(len(f), len(h)), 1 << nb))
    if not nb:
        return np.multiply(f, h, out=out)
    bits = _cover_plan(nb, fb, hb, len(out), _COVER_BLOCK)
    if bits is not None:
        if not _work:
            _work.extend(np.empty(_COVER_BLOCK // 4) for _ in range(2))
        f, h, k = _split(f.T, h.T, bits)
        both = np.broadcast(f, h)
        r = np.multiply(f, h, out=_work[k % 2][:both.size].reshape(both.shape))
        _join(r, nb, out.T, k + 1)
        return out
    half = 1 << (nb - 1)                   # the masks from half on hold the top bond
    in_f, in_h, fb, hb = fb >= half, hb >= half, fb % half, hb % half
    f0, f1, h0, h1 = f[:, :half], f[:, half:], h[:, :half], h[:, half:]
    r1 = out[:, half:]
    _cover(f0, fb, h0, hb, out[:, :half])
    if in_f and in_h:
        _cover(f0, fb, h1, hb, r1)
        r1 += _cover(f1, fb, h0 + h1, hb)
    elif in_f:
        _cover(f1, fb, h0, hb, r1)
    elif in_h:
        _cover(f0, fb, h1, hb, r1)
    else:
        r1[...] = 0.0
    return out


@lru_cache(maxsize=256)
def _cover_plan(nb: int, fb: int, hb: int, rows: int, block: int) -> tuple | None:
    """The (in f, in h) levels of ``_cover``'s product of ``rows`` rows on
    ``nb`` bonds, f on the bond mask ``fb`` and h on ``hb``, from the top
    bond down, when its branches fit ``block`` bytes and it is one pass; else
    None, and it splits on its top bit. Cached, since every measure of a
    family covers the same shapes."""
    if 8 * rows * _cover_batch(nb, fb, hb) > block:
        return None
    return tuple((fb >> k & 1, hb >> k & 1) for k in reversed(range(nb)))


def _cover_batch(nb: int, fb: int, hb: int) -> int:
    """Entries in ``_cover``'s largest batch of one row: a level multiplies the
    batch by 3/2, 1 or 1/2 as its bit lies in both supports, one or neither."""
    size = peak = 1 << nb
    for k in reversed(range(nb)):
        size = size * (1 + (fb >> k & 1) + (hb >> k & 1)) // 2
        peak = max(peak, size)
    return peak


# Bytes of the iterator buffers numpy takes for a ufunc on strided views:
# ``np.getbufsize()`` float64 entries for each of three operands.
_UFUNC_BUFFERS = 24 * np.getbufsize()


def _superposed(g: CouplingGraph, layers: tuple) -> np.ndarray:
    """Normalised superposed weight of every global positive mask, one row
    per source choice: shape (rows, 2**n_bonds).

    ``layers`` holds (bond mask, source masks) pairs, one source mask per
    row, or one that serves every row. A layer's weights are the positive
    table's rows inside its bonds, left in place among all global masks;
    successive layers combine by the covering product, whose supports are
    the union of the bonds combined so far and the new layer's bonds.

    Its peak holds at most five mask vectors a row: a layer is built beside
    the product so far and its predecessor as a zeroed vector and two
    gathers; a cover holds the product so far, the layer, the result, and
    h0 + h1 and f1*(h0 + h1), less than one vector each (``_cover``). It
    holds once the workspace of four blocks, which outlives the call until
    a release; 8 bytes a mask of each layer bond set; one ufunc's buffers.
    """
    nb = g.n_bonds
    rows = max(len(sms) for _, sms in layers)
    inside = sum(8 << m.bit_count() for m in {m for m, _ in layers})
    _fits(rows * (40 << nb) + 4 * _COVER_BLOCK + _UFUNC_BUFFERS + inside,
          f"superposition of {len(layers)} layers on {nb} bonds, {rows} rows")
    P = _positive_table(g)
    out = None
    for (m, sms), s in zip(layers, [0, *accumulate((m for m, _ in layers), or_)]):
        inside = _inside(g, m)
        dense = np.zeros((len(sms), 1 << nb))
        dense[:, inside] = (P[inside[:, None], list(sms)] / P[inside, 0].sum()).T
        out = dense if out is None else _cover(out, s, dense, m)
    return out


@lru_cache(maxsize=64)
def _superposed_row(g: CouplingGraph, layers: tuple) -> np.ndarray:
    """``_superposed`` of one row, cached: the scalar measures ask for one
    superposition with several events. A batch of rows is built, summed and
    dropped, since ``_fits`` counts it only while it is built."""
    return _superposed(g, layers)[0]


def _row_measures(g: CouplingGraph, layers: tuple, events, bonds: int | None = None) -> tuple:
    """Measures of every row of one batch of superpositions.

    ``layers`` are as ``_superposed`` takes them, and ``events`` has each
    row's event, or is None for the sure event. Returns the rows' measures,
    shape (rows,), and, when ``bonds`` is a bond mask, the measures of each
    row's event and {o connected to y on ``bonds``} for every vertex y,
    shape (rows, n_vertices); else None. o's connection is read from the
    component table as ``_indicator`` reads it, so each value sums the same
    weights in the same order as the one-row measure of both events. A
    layer without source masks leaves no rows. One row is read from
    ``_superposed_row``'s cache, and a larger batch is superposed whole; a
    batch that does not fit ``_MEM_LIMIT`` is refused before its
    superposition or any indicator is built.
    """
    counts = [len(sms) for _, sms in layers]
    rows = max(counts) if min(counts) else 0
    total, ysum, linked = np.empty(rows), None, None
    if bonds is not None:
        ysum = np.empty((rows, g.n_vertices))
        lab = _component_table(g)[np.arange(1 << g.n_bonds) & bonds]
        linked = lab == lab[:, :1]                   # o <-> y under each mask
    if rows == 1:
        batch = (_superposed_row(g, layers),)
    else:
        batch = _superposed(g, layers) if rows else ()
    for r, w in enumerate(batch):
        on = linked
        if events is not None:
            holds = _indicator(g, events[r])
            w = w[holds]
            on = None if linked is None else linked[holds]
        total[r] = w.sum()
        if on is not None:
            ysum[r] = [w[c].sum() for c in on.T]
    return total, ysum


def _check_cap(g: CouplingGraph, cap: int | None) -> None:
    if cap is not None and g.n_bonds > cap:
        raise CapExceeded(f"{g.n_bonds} bonds exceeds cap {cap}")


# ---------------------------------------------------------------------------
# double-connection weights and through-set measures
# ---------------------------------------------------------------------------

def _pi0_layers(g: CouplingGraph, xs) -> tuple:
    """One layer on all bonds sourced at {o, x}, a row per x in ``xs``."""
    o = g.labels[0]
    return ((_bonds_arg(g, None), tuple(_source_mask(g, (o, x)) for x in xs)),)


def pi0(g: CouplingGraph, x) -> float:
    """Sourced weight of double connection between the origin o and x.

    The origin is ``g.labels[0]`` here and in every origin-based measure
    below; another vertex is the origin of the graph relabelled so that it
    sorts first. Diagonal x == o gives exactly 1 (the sourceless sum is the
    partition sum).
    """
    return float(_row_measures(g, _pi0_layers(g, (x,)), [double_conn(g.labels[0], x)])[0][0])


def pi0_rows(g: CouplingGraph) -> tuple:
    """pi0(g, x) for every x != o, shape (n_vertices - 1,), and pi0-tilde,
    pi0 with the extra demand that o reaches y, for those x and every vertex
    y, shape (n_vertices - 1, n_vertices): one superposition, a row per x."""
    o, xs = g.labels[0], g.labels[1:]
    events = [double_conn(o, x) for x in xs]
    return _row_measures(g, _pi0_layers(g, xs), events, _bonds_arg(g, None))


def _through_layers(g: CouplingGraph, xs, A) -> tuple:
    """Outer sourceless layer on the bonds avoiding A, inner layer sourced at
    {o, x} on all bonds, a row per x in ``xs``."""
    return ((_outside_bonds(g, A), (0,)), *_pi0_layers(g, xs))


def theta_prime(g: CouplingGraph, x, A) -> float:
    """Two-layer through-set measure on ``_through_layers``.

    The indicator asks for double connection in the superposition with every
    positive path from o to x meeting A. With A empty this is 0 for x != o;
    on the diagonal it degenerates to 1{o in A}.
    """
    layers = _through_layers(g, (x,), A)
    return float(_row_measures(g, layers, [through(g.labels[0], x, A)])[0][0])


def theta_rows(g: CouplingGraph, A) -> tuple:
    """theta_prime(g, x, A) for every x != o, shape (n_vertices - 1,), and
    theta'', the through-set measure with the extra demand that o reaches y
    in the superposition, for those x and every vertex y, shape
    (n_vertices - 1, n_vertices): one superposition, a row per x."""
    o, xs = g.labels[0], g.labels[1:]
    events = [through(o, x, A) for x in xs]
    return _row_measures(g, _through_layers(g, xs, A), events, _bonds_arg(g, None))


def _sst_lhs_layers(g: CouplingGraph, xs, B, B_prime) -> tuple:
    """A sourceless layer on B_prime, none when B_prime is None, then a
    layer on B sourced at {o, x}, a row per x in ``xs``."""
    o = g.labels[0]
    inner = ((_bonds_arg(g, B), tuple(_source_mask(g, (o, x)) for x in xs)),)
    return inner if B_prime is None else ((_bonds_arg(g, B_prime), (0,)), *inner)


def sst_lhs(g: CouplingGraph, x, y, B=None, B_prime=None,
            cap: int | None = None) -> float:
    """Sourced weight on B of {o connected to y}, with a second sourceless
    layer on B_prime unless it is None; the connection only uses positive
    bonds of B."""
    layers = _sst_lhs_layers(g, (x,), B, B_prime)
    _check_cap(g, cap)
    return float(_row_measures(g, layers, [conn(g.labels[0], y, bonds=B)])[0][0])


def sst_lhs_rows(g: CouplingGraph, B, B_prime) -> np.ndarray:
    """sst_lhs(g, x, y, B, B_prime) for every x != o and every vertex y,
    shape (n_vertices - 1, n_vertices): one superposition, a row per x."""
    layers = _sst_lhs_layers(g, g.labels[1:], B, B_prime)
    return _row_measures(g, layers, None, _bonds_arg(g, B))[1]


def _switch_layers(g: CouplingGraph, xy, B, B_prime) -> tuple:
    """A layer on B_prime sourced at {o, y}, then one on B sourced at
    {y, x}, a row per (x, y) in ``xy``."""
    o = g.labels[0]
    return ((_bonds_arg(g, B_prime), tuple(_source_mask(g, (o, y)) for _, y in xy)),
            (_bonds_arg(g, B), tuple(_source_mask(g, (y, x)) for x, y in xy)))


def sst_switch_rhs(g: CouplingGraph, x, y, B=None, B_prime=None,
                   cap: int | None = None) -> float:
    """Partner expression of the source-switching identity: sources moved to
    {o, y} on B_prime and {y, x} on B, same superposed connection event.
    Here B_prime None means all bonds, as B does."""
    layers = _switch_layers(g, ((x, y),), B, B_prime)
    _check_cap(g, cap)
    return float(_row_measures(g, layers, [conn(g.labels[0], y, bonds=B)])[0][0])


def sst_switch_rows(g: CouplingGraph, B, B_prime) -> np.ndarray:
    """sst_switch_rhs(g, x, y, B, B_prime) for every x != o and every vertex
    y, x-major, shape ((n_vertices - 1) * n_vertices,): one superposition, a
    row per (x, y)."""
    o = g.labels[0]
    xy = [(x, y) for x in g.labels[1:] for y in g.labels]
    events = [conn(o, y, bonds=B) for _, y in xy]
    return _row_measures(g, _switch_layers(g, xy, B, B_prime), events)[0]


def subset_connection_tables(g: CouplingGraph) -> tuple:
    """Every bond subset's one-layer connection measures from one sweep.

    Returns (S, T), each of shape (2**n_bonds, n, n) over subset masks B and
    vertex indices x, y: S[B, x, y] = sst_lhs(g, x, y, B=B), and T[B, x, y] is
    the sourceless measure on B of {o <-> x and o <-> y}. Subset sums of the
    full positive table times the connection indicators give the unnormalised
    measures; T[B, o, o] is then Z_B, the divisor of every entry.
    """
    nb, n = g.n_bonds, g.n_vertices
    # both (2**nb, n, n) float tables, two (2**nb, n) gathers and the
    # buffers of the zeta transform's strided adds
    _fits((8 << nb) * n * (2 * n + 2) + _UFUNC_BUFFERS,
          f"subset tables for {nb} bonds on {n} vertices")
    P = _positive_table(g)
    comp = _component_table(g)
    linked = comp == comp[:, :1]                 # o <-> y under each mask
    F = np.empty((2, 1 << nb, n, n))
    np.multiply(P[:, 1 ^ (1 << np.arange(n))][:, :, None], linked[:, None, :],
                out=F[0])
    np.multiply((P[:, :1] * linked)[:, :, None], linked[:, None, :], out=F[1])
    # zeta transform, F[B] = sum over m <= B, one bond bit at a time: one
    # in-place add over both tables. The halves B and B | bit interleave but
    # do not overlap, and numpy adds them through its buffers, with no copy.
    for k in range(nb):
        blk = F.reshape(2, -1, 2, 1 << k, n * n)
        blk[:, :, 1] += blk[:, :, 0]
    F /= F[1, :, 0, 0].copy()[:, None, None]
    return F[0], F[1]


def clear_caches() -> None:
    from .laces import _explorations      # laces imports this module
    for cached in (_source_table, _positive_table, _inside, _component_table,
                   _indicator, _superposed_row, _cover_plan, _explorations):
        cached.cache_clear()
    _work.clear()
