"""Torus field calculus.

Periodic scalar fields on (Z/side)^d with circular convolution, weighted-norm
grids, the random-walk proxy pair, the triangle kernel, and the diagnostic
reports (convolution bound, decay hypotheses, pointwise reduction ratios)
used by the reductions suite.

Two field types. ``Field`` holds any real field on the whole torus; its
convolution goes through the half spectrum (``_hat``/``_inv``, rfftn and
irfftn over every axis). ``SymField`` holds a field that is invariant under
each axis reflection x_k -> -x_k, as every proxy field is (D, tau, G, Gt,
psi and their squares), by its values on the fundamental domain
[0, side//2]^d; sums over the torus weight each point by its multiplicity.
Its Fourier transform is real, even and lives on the same domain: a DCT-I
along each axis (``_dct``/``_idct``, one cached cosine matrix per side;
Martucci, IEEE Trans. Signal Process. 42, 1994), one matrix product per
axis that moves the axis last (``_turns``; Van Loan, Computational
Frameworks for the FFT, 1992, sections 3.2-3.3). At d = 5 and side 32
that is 17^5 entries in place of 32^5. The proxy pair and the reports take
SymFields, transform each operand once per call and form their convolution
products on the spectrum, where the delta is 1. Four-point sums over
reflection-symmetric fields are dot products of two pair products
x -> A(x-a) B(x-b). The probes move along the leading axes only, so each
sum runs over those axes in full and over the others on the fundamental
domain, with their multiplicities, and it is streamed slice by slice along
the first axis the probes do not move along (at d = 5, side 32: 17 slices
of 32^2 * 17^2 entries, where the fields take 17^5 entries each).
"""
from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from itertools import product as iproduct
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .currents import _fits
from .graphs import GraphError, SpreadOut


class NonContracting(RuntimeError):
    """A geometric chain sum was requested but the contraction ratio is >= 1."""


@dataclass(frozen=True, eq=False)
class Field:
    """Real field on the d-dimensional torus of the given side."""

    d: int
    side: int
    data: np.ndarray

    def __post_init__(self):
        if self.data.shape != (self.side,) * self.d:
            raise GraphError("field data shape does not match (side,)*d")


@dataclass(frozen=True, eq=False)
class SymField:
    """Real torus field invariant under each axis reflection x_k -> -x_k,
    stored on its fundamental domain [0, side//2]^d.

    Index j along an axis stands for the torus points j and -j: one point
    when j = 0 or j = side/2, two otherwise (``weights``).
    """

    d: int
    side: int
    data: np.ndarray

    def __post_init__(self):
        if self.data.shape != (self.side // 2 + 1,) * self.d:
            raise GraphError("field data shape does not match (side//2+1,)*d")

    def value(self, x: Sequence[int]) -> float:
        return float(self.data[tuple(min(int(c) % self.side, -int(c) % self.side)
                                     for c in x)])

    def weights(self) -> np.ndarray:
        return _weights(self.d, self.side)

    def l1(self) -> float:
        return float((np.abs(self.data) * self.weights()).sum())

    def total(self) -> float:
        return float((self.data * self.weights()).sum())


def _mirror(side: int) -> np.ndarray:
    """Fundamental-domain index of each torus coordinate 0..side-1."""
    k = np.arange(side)
    return np.minimum(k, side - k)


# entries one matrix product of ``_turns`` writes at most (64 KiB): such a
# product stays in cache and, at the sides used here, on one BLAS thread
_TURN_BLOCK = 1 << 13


@functools.lru_cache(maxsize=None)
def _axis_weights(side: int) -> np.ndarray:
    """Multiplicities 1, 2, ..., 2, 1 along one axis (a trailing 2 for odd side)."""
    w = np.full(side // 2 + 1, 2.0)
    w[0] = 1.0
    if side % 2 == 0:
        w[-1] = 1.0
    w.flags.writeable = False
    return w


@functools.lru_cache(maxsize=None)
def _weights(d: int, side: int) -> np.ndarray:
    """Multiplicity of each fundamental-domain point: the product over axes."""
    w = np.ones(())
    for _ in range(d):
        w = np.multiply.outer(w, _axis_weights(side))
    w.flags.writeable = False
    return w


@functools.lru_cache(maxsize=None)
def _cosines(side: int) -> np.ndarray:
    """DCT-I matrix M[k, j] = w_j cos(2 pi k j / side).

    Applied along an axis of a reflection-symmetric field it gives the
    Fourier transform on the same domain; M @ M = side * I. Each angle is
    reduced to [0, pi/4] before its sine or cosine is taken, so every entry
    is within an ulp and the exact zeros, halves and units come out exact.
    """
    k = np.arange(side // 2 + 1)
    r = 8 * (np.outer(k, k) % side)               # angle pi r / (4 side)
    r = np.minimum(r, 8 * side - r)               # [0, pi]
    neg = r > 2 * side
    r = np.where(neg, 4 * side - r, r)            # [0, pi/2], cos(pi - a) = -cos(a)
    c = np.where(r > side, np.sin(np.pi * (2 * side - r) / (4 * side)),
                 np.cos(np.pi * r / (4 * side)))
    M = np.where(neg, -c, c) * _axis_weights(side)
    M.flags.writeable = False
    return M


@functools.lru_cache(maxsize=None)
def _turn_matrix(side: int) -> np.ndarray:
    """The cosines ``_turns`` multiplies by: row j - 1 is column j of
    ``_cosines`` for j = 1..side//2, and the last row is its column 0, all
    ones."""
    M = _cosines(side)
    C = np.vstack([M[:, 1:].T, M[:, :1].T])
    C.flags.writeable = False
    return C


def _turns(X: np.ndarray, Y: np.ndarray, side: int, n: int,
           inverse: bool = False) -> np.ndarray:
    """Cosine transform of a stack of fields along their first n axes, one
    matrix product per axis.

    X has shape (B, m + 1, N), m = side // 2 + 1: B fields, each with the
    axis to transform leading, a spare row after its m rows, and its other
    axes flattened into N; Y is a buffer of the same shape. Each axis copies
    row 0 into the spare row and multiplies rows 1..m, read in place through
    the transposed view, by ``_turn_matrix``, writing (N, m) into the other
    buffer: the axis moves last and the next one leads. Index 0 (cosine 1)
    is the last term of each dot product, so it is rounded once onto the sum
    of the others, and a spike there (the delta in a field, the mean in a
    spectrum) does not set the rounding scale of that sum. A product writes
    at most ``_TURN_BLOCK`` entries; fields of one axis are the rows of one
    product, and a lone one is a vector-matrix product to which index 0 is
    added. ``inverse`` inverts fields of n axes, adding the zero mode of
    each, the mean of a near-critical field, once after the transform. X is
    overwritten; returns the buffer that holds the result.
    """
    B, N, m = X.shape[0], X.shape[2], side // 2 + 1
    rows = N
    while rows * m > _TURN_BLOCK and rows % m == 0:
        rows //= m
    C = _turn_matrix(side)
    if inverse:
        mean = X[:, 0, :1].copy()
        X[:, 0, 0] = 0.0
    for _ in range(n):
        X[:, m] = X[:, 0]
        if N > 1:
            np.matmul(X[:, 1:].reshape(B, m, -1, rows).transpose(0, 2, 3, 1), C,
                      out=Y[:, :m].reshape(B, -1, rows, m))
        elif B > 1:
            np.matmul(X[:, 1:, 0], C, out=Y[:, :m, 0])
        else:
            np.matmul(X[0, 1:m, 0], _cosines(side)[:, 1:].T, out=Y[0, :m, 0])
            Y[0, :m, 0] += X[0, 0, 0]
        X, Y = Y, X
    if inverse:
        out = X[:, :m]
        out += mean[:, :, None]
        out /= float(side) ** n
    return X


def _dct(a: np.ndarray, side: int, inverse: bool = False) -> np.ndarray:
    """Fourier transform of a field on the fundamental domain (its inverse
    with ``inverse``): the field is copied into a padded buffer and
    transformed along every axis by ``_turns``; a is not changed."""
    m = side // 2 + 1
    X = np.empty((1, m + 1, a.size // m))
    X[0, :m] = a.reshape(m, -1)
    return _turns(X, np.empty_like(X), side, a.ndim, inverse)[0, :m].reshape(a.shape)


def _idct(S: np.ndarray, side: int) -> np.ndarray:
    """Inverse of ``_dct``."""
    return _dct(S, side, inverse=True)


def _hat(a: np.ndarray) -> np.ndarray:
    """Half spectrum of a real field: rfftn over every axis."""
    return np.fft.rfftn(a, axes=tuple(range(a.ndim)))


def _inv(S: np.ndarray, shape: tuple) -> np.ndarray:
    """Real field of the given shape whose half spectrum is S."""
    return np.fft.irfftn(S, s=shape, axes=tuple(range(len(shape))))


def convolve(f: Field, g: Field, method: str = "fft") -> Field:
    """Circular convolution (f*g)(z) = sum_x f(x) g(z - x)."""
    if (f.d, f.side) != (g.d, g.side):
        raise GraphError("field shape mismatch")
    if method == "fft":
        return Field(f.d, f.side, _inv(_hat(f.data) * _hat(g.data), f.data.shape))
    if method == "direct":
        # g shifted by x is the window at -x of g tiled twice along each axis;
        # the scaled copies are added in the order of the nonzeros
        d, n, k = f.d, f.side, np.count_nonzero(f.data)
        _fits(8 * (n ** d * (k + 2 ** d + 1) + k * (2 * d + 1)),
              f"direct convolution of {k} shifted copies of {n}^{d} entries")
        nz = np.nonzero(f.data)
        copies = sliding_window_view(np.tile(g.data, (2,) * d), (n,) * d)[
            tuple(-i % n for i in nz)]
        copies *= f.data[nz].reshape((k,) + (1,) * d)
        return Field(d, n, np.add.reduce(copies, axis=0, initial=0.0))
    raise GraphError(f"unknown convolution method {method!r}")


# ---------------------------------------------------------------------------
# weighted norms
# ---------------------------------------------------------------------------

def weighted_norm(x: Sequence[float], L: float) -> float:
    """Euclidean norm floored at L."""
    return max(math.sqrt(sum(float(c) ** 2 for c in x)), float(L))


def centered_norm_grid(d: int, side: int, L: float, power: float) -> SymField:
    """weighted_norm(x)**power of the centered torus displacement x."""
    sq = np.zeros(())
    for _ in range(d):
        sq = np.add.outer(sq, np.arange(side // 2 + 1, dtype=float) ** 2)
    return SymField(d, side, np.maximum(np.sqrt(sq), float(L)) ** power)


# ---------------------------------------------------------------------------
# proxy pair and smeared kernels
# ---------------------------------------------------------------------------

def step_distribution(spec: SpreadOut, side: int) -> SymField:
    """One-step distribution D of the spread-out walk, wrapped on the torus.

    side > 2L keeps the wrapped offsets apart, so on the fundamental domain
    D is the box's coupling on [0, R]^d minus the origin.
    """
    if side <= 2 * spec.L:
        raise GraphError(f"side {side} must exceed 2L = {2 * spec.L}")
    R, J = spec.box
    D = np.zeros((side // 2 + 1,) * spec.d)
    D[(slice(R + 1),) * spec.d] = J
    D[(0,) * spec.d] = 0.0
    return SymField(spec.d, side, D)


def rw_green_proxy(spec: SpreadOut, side: int, p: float) -> tuple:
    """Proxy pair (G, tau): G the random-walk resolvent with killing 1 - p,
    tau = p D. Solves G = delta + tau * G exactly on the cosine spectrum, so
    the smeared kernel tau * G equals G - delta on the nose.
    """
    if not (0 <= p):
        raise GraphError("p must be nonnegative")
    D = step_distribution(spec, side)
    Dhat = _dct(D.data, side)
    top = p * Dhat.max()
    if top >= 1.0 - 1e-12:
        raise NonContracting(f"proxy series diverges: p * max D-hat = {top}")
    S = _idct(1.0 / (1.0 - p * Dhat), side)
    neg = S.min()
    if neg < -1e-10 * max(S.max(), 1.0):
        raise GraphError(f"proxy field has a significant negative entry {neg}")
    S[S < 0] = 0.0
    return SymField(spec.d, side, S), SymField(spec.d, side, p * D.data)


def tilde_g(G: SymField, tau: SymField) -> SymField:
    """Smeared two-point field tau * G, clipped of transform rounding negatives."""
    out = _idct(_dct(tau.data, G.side) * _dct(G.data, G.side), G.side)
    neg = out.min()
    if neg < -1e-10 * max(out.max(), 1.0):
        raise GraphError(f"smeared field has a significant negative entry {neg}")
    out[out < 0] = 0.0
    return SymField(G.d, G.side, out)


# ---------------------------------------------------------------------------
# triangle kernel
# ---------------------------------------------------------------------------

def triangle_tensor(G: np.ndarray) -> np.ndarray:
    """All triangle values T(a, b, c) as an (n, n, n) tensor."""
    G = np.asarray(G)
    G2 = G * G
    t1 = np.einsum("az,zb,cz,cz->abc", G, G, G, G) * G[:, :, None]
    t2 = np.einsum("az,zb,cz->abc", G, G2, G) * G[:, None, :]
    t3 = np.einsum("az,zb,cz->abc", G2, G, G) * G[None, :, :]
    return t1 + t2 + t3


def _triangle_quads(x: Sequence[int], y: Sequence[int]) -> list:
    """Triangle kernel rooted at the torus origin, for a reflection-symmetric G:
    sum_z G(z) G(x-z) G(z-y) [G(x) G(z-y) + G(y) G(z-x) + G(y-x) G(z)].

    With G(x-z) = G(z-x) these are three four-point sums of G that share the
    pair z -> G(z) G(z-x); their quads of legs on "G" (see
    ``_four_point_sums``), in the order ``_triangle`` takes their values.
    """
    z = tuple(0 for _ in x)
    return [tuple(("G", s) for s in q) for q in ((z, x, y, y), (z, x, y, x), (z, x, z, y))]


def _triangle(at, x: Sequence[int], y: Sequence[int], s: Sequence[float]) -> float:
    """The triangle kernel from the sums s of its ``_triangle_quads``, with at(q) = G(q)."""
    return at(x) * s[0] + at(y) * s[1] + at(tuple(q - p for p, q in zip(x, y))) * s[2]


# ---------------------------------------------------------------------------
# convolution bound check
# ---------------------------------------------------------------------------

def _box_sq_norms(R: int, x: Sequence[int]) -> np.ndarray:
    """Squared Euclidean norm of (x - y) over the box {-R..R}^len(x), as
    integers."""
    offs = np.arange(-R, R + 1)
    sq = np.zeros((), dtype=np.int64)
    for c in x:
        sq = np.add.outer(sq, (c - offs) ** 2)
    return sq


def default_probes(d: int, R: int) -> list:
    probes = [(0,) * d]
    r = 1
    while r <= R // 2:
        probes.append((r,) + (0,) * (d - 1))
        probes.append((r,) * d)
        r *= 2
    return probes


def convolution_bound_check(d: int, a: float, b: float, L: float, R: int) -> dict:
    """Measure sum_y <x-y>^-a <y>^-b over the box {-R..R}^d against its
    asserted envelope, at the probe points x of ``default_probes``.

    Requires a >= b > 0, a + b > d and a != d. The envelope is
    L^(d-a) <x>^-b for a > d and <x>^(d-a-b) for a < d. Returns the per-probe
    ratios and their maximum (the measured constant).
    """
    if not (a >= b > 0):
        raise GraphError("need a >= b > 0")
    if not (a + b > d):
        raise GraphError("need a + b > d")
    if a == d:
        raise GraphError("the marginal case a == d is rejected")
    probes = default_probes(d, R)
    # Squared norms on the box are integers, so each power is taken once per
    # value and gathered: the same floats as raising the whole grid. The sum
    # is streamed over the box's first axis y0, a block of slices at a time:
    # each slice is summed pairwise, and the slice sums are added in order.
    top = max([d * R * R] + [sum((R + abs(c)) ** 2 for c in x) for x in probes])
    norm = np.maximum(np.sqrt(np.arange(top + 1, dtype=float)), float(L))
    powA, powB = norm ** (-a), norm ** (-b)
    offs = np.arange(-R, R + 1)
    restY = _box_sq_norms(R, (0,) * (d - 1))
    step = max(1, (1 << 16) // restY.size)
    ratios = {}
    for x in probes:
        restX = _box_sq_norms(R, x[1:])
        lhs = 0.0
        for lo in range(0, 2 * R + 1, step):
            y0 = offs[lo:lo + step]
            terms = powA[np.add.outer((x[0] - y0) ** 2, restX)]
            terms *= powB[np.add.outer(y0 ** 2, restY)]
            for part in terms.reshape(len(y0), -1).sum(axis=1):
                lhs += float(part)
        nx = weighted_norm(x, L)
        env = (L ** (d - a)) * nx ** (-b) if a > d else nx ** (d - a - b)
        ratios[x] = lhs / env
    return {"ratios": ratios, "constant": max(ratios.values())}


# ---------------------------------------------------------------------------
# hypothesis and reduction reports
# ---------------------------------------------------------------------------

def wrap_mass(f: SymField) -> float:
    """Fraction of |f| living at centered sup-norm distance > side/4; a
    diagnostic for how much of the field feels the periodic wrap."""
    far = np.zeros((), dtype=bool)
    for _ in range(f.d):
        far = np.logical_or.outer(far, np.arange(f.side // 2 + 1) > f.side / 4)
    a = np.abs(f.data) * f.weights()
    tot = a.sum()
    if tot == 0:
        return 0.0
    return float(a[far].sum() / tot)


def hyp1_report(G: SymField, tau: SymField, L: float) -> dict:
    """Norm hypothesis: l1(tau) and sup over x != 0 of G(x) <x>^(d-2) / theta,
    both required to be at most 2."""
    theta = float(L) ** (-2)
    grid = centered_norm_grid(G.d, G.side, L, float(G.d - 2))
    ratio = G.data * grid.data / theta
    ratio[(0,) * G.d] = 0.0
    sup = float(ratio.max())
    t1 = tau.l1()
    return {"tau_l1": t1, "sup_ratio": sup,
            "value": max(t1, sup), "passed": max(t1, sup) <= 2.0}


def hyp2_report(G: SymField, Gt: SymField, L: float) -> dict:
    """Pointwise domination G - delta <= Gt, and the scale of
    Gt(x) <x>^(d-2) / theta (reported, finite by construction here)."""
    theta = float(L) ** (-2)
    gap = float((Gt.data - _minus_delta(G)).min())
    grid = centered_norm_grid(G.d, G.side, L, float(G.d - 2))
    scale = float((Gt.data * grid.data / theta).max())
    return {"min_gap": gap, "dominates": gap >= -1e-12, "scale": scale}


def hyp3_report(Gt: SymField, tau: SymField) -> dict:
    """Stability of Gt under one and two tau-smearing steps: the sup of
    (tau^{*j} * Gt) / Gt over entries with Gt above 1e-300."""
    out = {}
    mask = Gt.data > 1e-300
    base = Gt.data[mask]
    T = _dct(tau.data, Gt.side)
    S = _dct(Gt.data, Gt.side)
    for j in (1, 2):
        S *= T
        out[f"ratio_{j}"] = float((_idct(S, Gt.side)[mask] / base).max())
    return out


def _minus_delta(G: SymField) -> np.ndarray:
    """G - delta on the fundamental domain."""
    out = G.data.copy()
    out[(0,) * G.d] -= 1.0
    return out


def _key_gap(s: np.ndarray, e: np.ndarray) -> float:
    """Min of s^2 - e, with s = (delta+tau) * f and e = (delta+tau^2) * f^2."""
    return float((s * s - e).min())


def key_lemma_gap_matrix(Tau: np.ndarray, F: np.ndarray) -> float:
    """Entrywise version on a finite vertex set: min of
    ((I+Tau) F)_{uv}^2 - ((I+Tau^2)(F o F))_{uv} over pairs, with o the
    elementwise square and matrix products playing convolution."""
    n = Tau.shape[0]
    I = np.eye(n)
    lhs = (I + Tau * Tau) @ (F * F)
    rhs = (I + Tau) @ F
    return float((rhs * rhs - lhs).min())


def psi1_report(Gt: SymField, tau: SymField) -> dict:
    """Three-step decomposition of the sandwiched bubble chain head.

    Step 1 is an exact rearrangement: (d+t2)*(d+Gt2)*(d+t2) - d equals
    (d+t2) + (d+t2)*t2 + (d+t2)*(d+t2)*Gt2 - d, with d the delta and t2, Gt2
    the pointwise squares. Step 2 absorbs squares via the key lemma; step 3
    replaces tau by Gt. Returns the identity residual and the minimal slack of
    each inequality (nonnegative means satisfied).

    Each operand is transformed once; the delta is 1 on the spectrum, and
    it is taken off both sides of the step-1 identity exactly (on the
    spectrum on the left, as (d+t2) - d = t2 on the right). The two sides
    are inverted separately, so the residual measures the rounding of two
    routes and is not read off one spectrum.
    """
    side = Gt.side
    t2 = tau.data * tau.data
    g2 = Gt.data * Gt.data
    T2 = _dct(t2, side)
    E = T2 + 1.0
    T2 *= E
    e_t2 = _idct(T2, side)                  # (d+t2) * t2
    del T2
    G2 = _dct(g2, side)
    EG2 = E * G2
    e_g2 = _idct(EG2, side)                 # (d+t2) * g2
    EG2 *= E
    ee_g2 = _idct(EG2, side)                # (d+t2) * (d+t2) * g2
    del EG2
    G2 += 1.0
    G2 *= E
    G2 *= E
    G2 -= 1.0
    lhs1 = _idct(G2, side)                  # (d+t2) * (d+g2) * (d+t2) - d
    del G2, E
    rhs1 = t2 + e_t2 + ee_g2                # (d+t2) - d = t2
    del ee_g2
    resid = float(np.abs(lhs1 - rhs1).max())
    del rhs1
    S = _dct(tau.data, side)
    P = S + 1.0
    S *= P
    s_tau = _idct(S, side)                  # (d+tau) * tau
    S = _dct(Gt.data, side)
    S *= P
    s_gt = _idct(S, side)                   # (d+tau) * Gt
    S *= P
    s2_gt = _idct(S, side)                  # (d+tau) * (d+tau) * Gt
    del S, P
    sq2 = s2_gt * s2_gt
    rhs2 = t2 + s_tau * s_tau + sq2
    slack2 = float((rhs2 - lhs1).min())
    rhs3 = g2 + s_gt * s_gt + sq2
    slack3 = float((rhs3 - rhs2).min())
    # The residual is normalised against 1, the scale of the unit delta in the
    # identity, not the output max (which can sit orders of magnitude lower
    # without any loss of exactness).
    scale = max(np.abs(lhs1).max(), 1.0)
    return {"identity_residual": resid, "identity_rel": resid / scale,
            "slack_step2": slack2, "slack_step3": slack3,
            "key_lemma_tau": _key_gap(s_tau, e_t2),
            "key_lemma_gt": _key_gap(s_gt, e_g2)}


def _probe_pairs(d: int) -> list:
    e1 = (1,) + (0,) * (d - 1)
    e2 = (0, 1) + (0,) * (d - 2) if d >= 2 else (2,)
    z = (0,) * d
    two = tuple(2 * c for c in e1)
    return [z, e1, e2, two, tuple(a + b for a, b in zip(e1, e2))]


def _pair_product(F: np.ndarray, a, H: np.ndarray, b,
                  out: np.ndarray | None = None) -> np.ndarray:
    """x -> F(x-a) H(x-b) for shifts a, b along the len(a) leading axes,
    written block by block with no rolled copies (into ``out`` if given):
    along each shifted axis the cuts at a and b split the index range into
    runs on which neither shifted index wraps."""
    n = F.shape[0]
    runs = []
    for ak, bk in zip(a, b):
        cuts = sorted({0, ak % n, bk % n, n})
        runs.append([(lo, hi, (lo - ak) % n, (lo - bk) % n)
                     for lo, hi in zip(cuts, cuts[1:])])
    if out is None:
        out = np.empty_like(F)
    for block in iproduct(*runs):
        np.multiply(F[tuple(slice(f, f + hi - lo) for lo, hi, f, _ in block)],
                    H[tuple(slice(h, h + hi - lo) for lo, hi, _, h in block)],
                    out=out[tuple(slice(lo, hi) for lo, hi, _, _ in block)])
    return out


def _scaled_pairs(dots: list) -> set:
    """The pairs that ``_four_point_sums`` scales by the multiplicities, for
    dot products ``dots`` of two pairs. Scaling a pair is one pass, and so
    is weighting a dot product whose factors are both scaled or neither.
    From none, each pair in turn, the most used first, is flipped while that
    saves passes."""
    uses = Counter(p for dot in dots for p in dot)
    scaled, changed = set(), True
    while changed:
        changed = False
        for p in sorted(uses, key=uses.get, reverse=True):
            change = (-1 if p in scaled else 1) + sum(
                1 if (x in scaled) != (y in scaled) else -1
                for x, y in dots if x != y and p in (x, y))
            if change < 0:
                scaled ^= {p}
                changed = True
    return scaled


def _four_point_sums(fields: dict, k: int, quads: list) -> list:
    """sum_x A(u-x) B(x-u') C(v-x) D(x-v') for each quad of legs
    ((A, u), (B, u'), (C, v), (D, v')), where A to D name SymFields in
    ``fields``.

    The probes move along the k leading axes only, so each sum runs over
    those axes on the whole torus and over the others on the fundamental
    domain, each point weighted by its multiplicity. It is streamed over
    axis k, the first axis the probes do not move along: for each index of
    that axis, the fields' slices are unfolded along the leading axes into
    one buffer per field, and each sum adds the weighted dot product of its
    left pair x -> A(x-u) B(x-u') and its right pair x -> C(x-v) D(x-v') on
    the slice. With k = d there is no such axis and the whole field is one
    slice. IEEE products commute, so a pair is keyed by its unordered legs
    and a dot product by its unordered pairs, and each is computed once per
    slice. The sums run grouped by their right pair, in the order the right
    pairs first appear in ``quads``; each pair is built at its first use,
    into an array whose last use has passed, so a call holds a handful of
    slice-sized arrays. The weights are powers of 2, so scaling a factor by
    them gives the bits of scaling the product: the pairs of
    ``_scaled_pairs`` are scaled when built, and only a dot product whose
    factors are both scaled (or neither) is divided (or multiplied) by them.
    Each slice's products are summed pairwise, and so are the slice sums of
    each dot product. A running dot product (einsum) drifts by 7e-15
    relative at side 16.
    """
    first = next(iter(fields.values()))
    d, side = first.d, first.side

    def pair(leg, other):
        return tuple(sorted((name, tuple(shift[:k])) for name, shift in (leg, other)))

    sides = [(pair(*q[:2]), pair(*q[2:])) for q in quads]
    rank = {}
    for _, right in sides:
        rank.setdefault(right, len(rank))
    order = sorted(range(len(quads)), key=lambda i: rank[sides[i][1]])
    last = {p: i for i in order for p in sides[i]}
    scaled = _scaled_pairs(list(dict.fromkeys(tuple(sorted(s)) for s in sides)))
    m = side // 2 + 1
    w = _weights(d - k, side)
    cuts = [((slice(None),) * k + (c,), w[c]) for c in range(m)] if d > k else [((), w)]
    idx = np.ravel_multi_index(np.ix_(*(_mirror(side),) * k), (m,) * k)
    shape = idx.shape + (m,) * (d - k - 1)
    unfolded = {name: np.empty(shape) for name in fields}
    buf = np.empty(shape)
    spare, parts = [], {}
    for cut, wc in cuts:
        for name, f in fields.items():
            np.take(f.data[cut].reshape(m ** k, -1), idx, axis=0, mode="wrap",
                    out=unfolded[name].reshape(idx.shape + (-1,)))
        live, done = {}, set()
        for i in order:
            for p in sides[i]:
                if p not in live:
                    (F, a), (H, b) = p
                    live[p] = _pair_product(unfolded[F], a, unfolded[H], b,
                                            out=spare.pop() if spare else None)
                    if p in scaled:
                        live[p] *= wc
            pq = tuple(sorted(sides[i]))
            if pq not in done:
                done.add(pq)
                np.multiply(live[pq[0]], live[pq[1]], out=buf)
                if pq[0] in scaled and pq[1] in scaled:
                    buf /= wc
                elif pq[0] not in scaled and pq[1] not in scaled:
                    buf *= wc
                parts.setdefault(pq, []).append(buf.sum())
            for p in set(sides[i]):
                if last[p] == i:
                    spare.append(live.pop(p))
    return [float(np.sum(parts[tuple(sorted(s))])) for s in sides]


def depicted_ratios(G: SymField, Gt: SymField) -> dict:
    """Pointwise reduction ratios for eliminating a degree-4 vertex.

    Six families, indexed as in the reduction step of the chain bound:
      0: all four legs smeared; against Gt(u-u') Gt(v-v').
      1: one full-G leg (its delta collapses the vertex), same target.
      2: two full-G legs on opposite sides, same target.
      3: the two full-G legs land on a coincident endpoint (u' = v'), where
         the delta-delta term reproduces the target itself; O(1) expected.
      4: bubble elimination at u = v (two full-G legs from the same root);
         target keeps one full-G segment; O(1) expected.
      5: triangle against its three-two-point product envelope; O(1) expected.
    Families 0 to 2 are expected to scale like side-range**(-d).
    The probes move along axes 0 and 1 only, so the sums run over those axes
    on the whole torus and over the others on the fundamental domain, each
    point weighted by its multiplicity. All families' sums go through one
    ``_four_point_sums`` call, streamed over axis 2 (at d <= 2 the whole
    field is one slice), so a pair product that several families use is
    built once per slice (23 in place of 56 at d >= 2), and at most five
    slice-sized pair arrays exist at a time: no unfolded field and no pair
    product of the whole field is held.
    """
    d = G.d
    probes = _probe_pairs(d)
    k = min(d, 2)

    def gt(a, b):
        return Gt.value(tuple(q - p for p, q in zip(a, b)))

    def gfull(a, b):
        return G.value(tuple(q - p for p, q in zip(a, b)))

    def smeared(u, up, v, vp):
        return gt(u, up) * gt(v, vp)

    def bubble(u, up, v, vp):
        return gfull(u, up) * gt(v, vp) + gt(u, up) * gfull(v, vp)

    z = (0,) * d
    quads = [(z, p, q, r) for p in probes[1:3] for q in probes[1:3] for r in probes[2:4]]
    families = [  # legs, probe quads, target
        (("Gt", "Gt", "Gt", "Gt"), quads, smeared),
        (("G", "Gt", "Gt", "Gt"), quads, smeared),
        (("G", "Gt", "G", "Gt"), quads, smeared),
        # 3: coincident endpoint u' = v', slashed legs into it
        (("Gt", "G", "Gt", "G"),
         [(u, w, v, w) for u in probes[1:3] for v in probes[2:4] for w in probes[:2]],
         smeared),
        # 4: bubble at u = v, target keeps one full segment
        (("G", "Gt", "G", "Gt"),
         [(z, up, z, vp) for up in probes[1:4] for vp in probes[1:4]], bubble),
    ]
    triangles = [(x, a) for x in probes[1:4] for a in probes[1:4] if x != a]
    legs = [tuple(zip(names, q)) for names, qs, _ in families for q in qs]
    legs += [q for x, a in triangles for q in _triangle_quads(x, a)]
    sums = _four_point_sums({"G": G, "Gt": Gt}, k, legs)
    out = {}
    for j, (_, qs, target) in enumerate(families):
        s, sums = sums[:len(qs)], sums[len(qs):]
        out[f"ratio{j}"] = max(v / target(*q) for v, q in zip(s, qs))
    out["ratio5"] = max(
        _triangle(G.value, x, a, sums[3 * j:3 * j + 3])
        / (gfull(z, x) * gfull(z, a) * gfull(x, a))
        for j, (x, a) in enumerate(triangles))
    return out
