"""Chain-diagram kernels and theorem right-hand sides on finite graphs.

Pair fields (matrices indexed by two vertices) are pushed through chain
kernels built from the two-point matrix G, its smeared companion, and the
triangle tensor. Kernels factorize into a prefix (plain or anchored), a middle
block, and a terminal contraction, so applying one costs a few matrix
products; geometric chain sums are certified by measured contraction with an
entrywise upper tail, and cross-checkable against an exact linear solve.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import CouplingGraph, GraphError, SpreadOut
from .currents import two_point_matrix
from .fields import (
    NonContracting,
    _dct, _idct, _minus_delta, _mirror, _pair_product, _weights, hyp1_report,
    rw_green_proxy, tilde_g, triangle_tensor, weighted_norm, wrap_mass,
)


@dataclass(frozen=True, eq=False)
class GraphFields:
    """Two-point calculus data on an explicit vertex set.

    ``Gt`` is the smeared two-point matrix. On a generic graph the smearing
    tau . G is orientation dependent, so the symmetric upper envelope
    max(tau G, (tau G)^T) is stored; it dominates every slot orientation and
    coincides with tau G on vertex-transitive graphs.
    """

    G: np.ndarray
    Gt: np.ndarray
    Tau: np.ndarray

    @property
    def n(self) -> int:
        return self.G.shape[0]


def fields_from_graph(g: CouplingGraph) -> GraphFields:
    n = g.n_vertices
    G = two_point_matrix(g)
    Tau = np.zeros((n, n))
    for b, (i, j) in enumerate(g.bonds):
        Tau[i, j] = Tau[j, i] = g.tau(b)
    TG = Tau @ G
    Gt = np.maximum(TG, TG.T)
    return GraphFields(G=G, Gt=Gt, Tau=Tau)


# Mass below which the plain-chain resolvent stops adding kernel terms.
CHAIN_ATOL = 1e-12


def _spectral_radius(M: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(M))))


class DiagramEngine:
    """Kernel applications and certified chain sums at a fixed chain depth m.

    ``m`` is a positive integer or None for the infinite depth, in which case
    the inner bubble chains are summed exactly by a linear solve (refused when
    the bubble matrix does not contract). ``E`` (the sandwich matrix, default
    I + Tau o Tau) and ``T3`` (the triangle tensor, default that of G) may be
    given instead, and ``gate`` False keeps the endpoint entry that the
    anchored terminal columns otherwise zero; the reduced closed forms are
    cross-checked through them.
    """

    def __init__(self, fields: GraphFields, m, E=None, T3=None, gate=True):
        if m is not None and m < 1:
            raise GraphError("chain depth m must be >= 1 or None")
        if (np.any(fields.G < 0) or np.any(fields.Gt < 0)
                or np.any(fields.Tau < 0)):
            raise GraphError("field matrices must be entrywise nonnegative")
        self.f = fields
        self.m = m
        self.gate = gate
        n = fields.n
        I = np.eye(n)
        self.B2 = fields.Gt * fields.Gt
        if m is None:
            rho = _spectral_radius(self.B2)
            if rho >= 1.0:
                raise NonContracting(f"bubble matrix spectral radius {rho:.3g} >= 1")
            inv = np.linalg.solve(I - self.B2, I)
            self.chain0 = inv
            self.chain_prev = inv
        else:
            self.chain_prev = I.copy()
            P = I.copy()
            for _ in range(m - 1):
                P = P @ self.B2
                self.chain_prev = self.chain_prev + P
            self.chain0 = self.chain_prev + P @ self.B2
        self.chain1 = self.chain0 - I
        self.E = I + fields.Tau * fields.Tau if E is None else E
        self.psi = self.E @ self.chain0 @ self.E
        self.T3 = triangle_tensor(fields.G) if T3 is None else T3
        self.EC = self.E @ self.chain_prev
        self._res_cache: dict = {}

    # -- kernel middles ----------------------------------------------------

    def _mid_matrix(self, spec) -> np.ndarray:
        kind = spec[0]
        if kind in ("U", "dotU"):
            return self.psi
        if kind in ("ddotU", "dddotU"):
            anchor = spec[-1]
            TT = np.einsum("abc,c->ab", self.T3, self.chain_prev[anchor])
            return self.EC @ TT @ self.EC.T
        raise GraphError(f"unknown kernel {spec!r}")

    def apply_kernel(self, P: np.ndarray, spec) -> np.ndarray:
        """Push a pair field through one chain kernel.

        spec is ("U",), ("dotU", a), ("ddotU", a) or ("dddotU", a, v): plain or
        anchored prefix, sandwich or anchored-triangle middle.
        """
        mid = self._mid_matrix(spec)
        M = P @ mid
        kind = spec[0]
        if kind in ("U", "ddotU"):
            return self.f.G * (M.T @ self.f.Gt)
        a = spec[1]
        t1 = self.f.G * np.outer(M.T @ self.f.G[:, a], self.f.Gt[a])
        t2 = np.outer(self.f.Gt[:, a], self.f.G[a]) * (M.T @ self.f.Gt)
        return t1 + t2

    # -- terminals ---------------------------------------------------------

    def _terminal_column(self, spec, x) -> np.ndarray:
        kind = spec[0]
        if kind in ("V", "dotV"):
            return self.chain1[:, x]
        anchor = spec[-1]
        t = np.einsum("abc,b,c->a", self.T3, self.chain_prev[x],
                      self.chain_prev[anchor])
        col = self.EC @ t
        if self.gate:
            col = col.copy()
            col[x] = 0.0
        return col

    def terminal_value(self, P: np.ndarray, spec, x: int) -> float:
        """Contract a pair field with a terminal kernel at endpoint x.

        spec is ("V",), ("dotV", a), ("ddotV", a) or ("dddotV", a, v).
        """
        kind = spec[0]
        col = self._terminal_column(spec, x)
        if kind in ("V", "ddotV"):
            left = self.f.Gt[:, x]
            return float(left @ P @ col)
        a = spec[1]
        left = self.f.G[:, a]
        return float(self.f.Gt[a, x] * (left @ P @ col))

    # -- chain sums ----------------------------------------------------------

    def _l1(self, P: np.ndarray) -> float:
        return float(np.abs(P).sum())

    def resolvent(self, P: np.ndarray):
        """Sum of repeated plain-kernel applications, certified upward.

        Iterates until the increment's total mass is below
        CHAIN_ATOL * (1 - rho) / rho with rho the largest observed step contraction;
        the residual tail mass is then added to every entry, which dominates
        the missing terms entrywise. Refuses when a step fails to contract.
        """
        total = P.copy()
        mass = self._l1(P)
        if mass == 0.0:
            return total, {"iterations": 0, "rho": 0.0, "tail": 0.0}
        cur = P
        rho = 0.0
        iters = 0
        while True:
            cur = self.apply_kernel(cur, ("U",))
            prev, mass = mass, self._l1(cur)
            rho = max(rho, mass / prev)
            if rho >= 1.0:
                raise NonContracting(f"chain step contraction {rho} >= 1")
            iters += 1
            total = total + cur
            if mass < CHAIN_ATOL * (1.0 - rho) / max(rho, 1e-300):
                break
        tail = mass * rho / (1.0 - rho)
        return total + tail, {"iterations": iters, "rho": rho, "tail": tail}

    def resolvent_exact(self, P: np.ndarray) -> np.ndarray:
        """Same sum by an exact linear solve over pair space (cross-check)."""
        n = self.f.n
        basis = np.zeros((n * n, n * n))
        for k in range(n * n):
            e = np.zeros(n * n)
            e[k] = 1.0
            basis[:, k] = self.apply_kernel(e.reshape(n, n), ("U",)).ravel()
        op = np.eye(n * n) - basis
        rho = _spectral_radius(basis)
        if rho >= 1.0:
            raise NonContracting(f"chain operator spectral radius {rho} >= 1")
        return np.linalg.solve(op, P.ravel()).reshape(n, n)

    def _delta_pair(self) -> np.ndarray:
        """The pair field 1 at (o, o), o the origin vertex 0."""
        P = np.zeros((self.f.n, self.f.n))
        P[0, 0] = 1.0
        return P

    def _resolved(self, mids: tuple) -> np.ndarray:
        if mids not in self._res_cache:
            if mids:
                seed = self.apply_kernel(self._resolved(mids[:-1]), mids[-1])
            else:
                seed = self._delta_pair()
            self._res_cache[mids], _ = self.resolvent(seed)
        return self._res_cache[mids]

    def chain_sum_X(self, x: int, placements) -> float:
        """Value of a sum of placed chains from the origin, vertex 0, to x.

        Each placement is (mids, terminal, coefficient): a tuple of middle
        kernel specs, one terminal spec, and a scalar weight. Every gap
        between placed kernels carries the full geometric sum of plain links.
        """
        total = 0.0
        for mids, term, coeff in placements:
            P = self._resolved(tuple(mids))
            total += coeff * self.terminal_value(P, term, x)
        return total


# ---------------------------------------------------------------------------
# placement tables
# ---------------------------------------------------------------------------

def placements_x() -> list:
    return [((), ("V",), 1.0)]


def placements_dotx(a: int) -> list:
    return [
        ((), ("dotV", a), 1.0),
        ((("dotU", a),), ("V",), 1.0),
    ]


def placements_ddotx(y: int) -> list:
    return [
        ((), ("ddotV", y), 0.5),
        ((("ddotU", y),), ("V",), 1.0),
    ]


def placements_dddotx(a: int, y: int) -> list:
    return [
        ((), ("dddotV", a, y), 0.5),
        ((("dddotU", a, y),), ("V",), 1.0),
        ((("dotU", a),), ("ddotV", y), 0.5),
        ((("ddotU", y),), ("dotV", a), 1.0),
        ((("dotU", a), ("ddotU", y)), ("V",), 1.0),
        ((("ddotU", y), ("dotU", a)), ("V",), 1.0),
    ]


# ---------------------------------------------------------------------------
# reduced closed forms
# ---------------------------------------------------------------------------
# Literal evaluations of the collapsed kernels (triangle block shrunk by its
# delta anchors, sandwich matrices dropped). They share no plumbing with
# DiagramEngine beyond the field matrices, so agreement with an engine run
# under the matching overrides is a real cross-check.

def reduced_t3_prefix(fields: GraphFields) -> np.ndarray:
    """Collapsed triangle tensor used on the kernel side."""
    G = fields.G
    return np.einsum("ab,ac,bc->abc", G, G, G)


def reduced_t3_terminal(fields: GraphFields) -> np.ndarray:
    """Collapsed triangle tensor used on the terminal side."""
    G, Gt = fields.G, fields.Gt
    return np.einsum("ab,ac,bc->abc", Gt, Gt, G)


def reduced_ddotu_apply(fields: GraphFields, P: np.ndarray, a: int) -> np.ndarray:
    G, Gt = fields.G, fields.Gt
    M = P @ (G[:, a][:, None] * G)
    return (G * (M.T @ Gt)) * G[a][:, None]


def reduced_dddotu_apply(fields: GraphFields, P: np.ndarray, a: int,
                         v: int) -> np.ndarray:
    G, Gt = fields.G, fields.Gt
    M = P @ (G[:, v][:, None] * G)
    t1 = G * np.outer(G[v] * (M.T @ G[:, a]), Gt[a])
    t2 = np.outer(Gt[:, a] * G[v], G[a]) * (M.T @ Gt)
    return t1 + t2


def reduced_ddotv_value(fields: GraphFields, P: np.ndarray, x: int,
                        a: int) -> float:
    G, Gt = fields.G, fields.Gt
    return float(G[a, x] * (Gt[:, x] @ P @ (Gt[:, x] * Gt[:, a])))


def reduced_dddotv_value(fields: GraphFields, P: np.ndarray, x: int,
                         a: int, v: int) -> float:
    G, Gt = fields.G, fields.Gt
    return float(Gt[a, x] * G[v, x] * (G[:, a] @ P @ (Gt[:, x] * Gt[:, v])))


# ---------------------------------------------------------------------------
# theorem right-hand sides
# ---------------------------------------------------------------------------

class TheoremEvaluator:
    """Right-hand sides of the four diagrammatic bound theorems on a graph.

    Every bound is from the origin ``g.labels[0]`` to x. Depth-1 engines serve
    the zeroth-order bounds, infinite-depth engines the through-set bounds.
    Chain values are memoised per depth, endpoint and placement list,
    engines per depth; a depth whose build was refused raises its refusal
    again without a rebuild.
    """

    def __init__(self, g: CouplingGraph):
        self.g = g
        self.fields = fields_from_graph(g)
        self._engines: dict = {}
        self._refused: dict = {}
        self._values: dict = {}

    def engine(self, m) -> DiagramEngine:
        if m in self._refused:
            raise NonContracting(self._refused[m])
        if m not in self._engines:
            try:
                self._engines[m] = DiagramEngine(self.fields, m)
            except NonContracting as exc:
                self._refused[m] = str(exc)
                raise
        return self._engines[m]

    def _chain(self, m, x: int, placements: list) -> float:
        key = (m, x, tuple(placements))
        if key not in self._values:
            self._values[key] = self.engine(m).chain_sum_X(x, placements)
        return self._values[key]

    def theorem_rhs(self, theorem: int, x, A=None, y=None,
                    strict: bool = True) -> float:
        """Evaluate one theorem's bound; +inf when a needed infinite chain
        diverges and strict is off."""
        try:
            return self._theorem_rhs(theorem, x, A=A, y=y)
        except NonContracting:
            if strict:
                raise
            return math.inf

    def _theorem_rhs(self, theorem: int, x, A=None, y=None) -> float:
        g = self.g
        ix = g.index(x)
        if ix == 0:
            raise GraphError("theorem bounds exclude the diagonal x == o")
        if theorem == 1:
            return 2.0 * self._chain(1, ix, placements_x())
        if theorem == 2:
            if A is None:
                raise GraphError("theorem 2 needs the through set A")
            tot = 0.0
            for a in A:
                ia = g.index(a)
                if ia == ix:
                    tot += self._chain(None, ix, placements_x())
                tot += self._chain(None, ix, placements_dotx(ia))
            return 2.0 * tot
        if theorem == 3:
            if y is None:
                raise GraphError("theorem 3 needs the extra endpoint y")
            iy = g.index(y)
            tot = self._chain(1, ix, placements_dotx(iy))
            tot += self._chain(1, ix, placements_ddotx(iy))
            if iy == ix:
                tot += self._chain(1, ix, placements_x())
            return 2.0 * tot
        if theorem == 4:
            if A is None or y is None:
                raise GraphError("theorem 4 needs both A and y")
            iy = g.index(y)
            chain0 = self.engine(None).chain0
            tot = 0.0
            for a in A:
                ia = g.index(a)
                if ia == ix:
                    tot += self._chain(None, ix, placements_ddotx(iy))
                tot += self._chain(None, ix, placements_dddotx(ia, iy))
                tot += self._chain(None, ix, placements_ddotx(ia)) * chain0[ix, iy]
                for iyp in range(g.n_vertices):
                    tot += (self._chain(None, ix, placements_dddotx(iyp, ia))
                            * chain0[iyp, iy])
            return 2.0 * tot
        raise GraphError(f"unknown theorem {theorem}")


# ---------------------------------------------------------------------------
# decay trend on the large torus
# ---------------------------------------------------------------------------

def decay_trend(d: int = 5, L: float = 2.0, side: int = 16, p: float = 0.99,
                radii=None, fit_radii=None) -> dict:
    """Fit the decay exponent of the depth-1 chain value along an axis.

    The chain head (smeared cube) and the first kernel term are evaluated
    exactly per probe; the remaining terms are attached as
    a labeled geometric estimate with measured ratio. The k=0 component of
    the smeared field is a flat finite-volume offset (it carries the near
    critical total mass spread uniformly over the torus) and would swamp the
    far probes, so the fitted quantity is the cube of the mean-subtracted
    field, with the raw-field fit reported alongside. Reports the fitted
    exponent against the floored distance, the per-probe envelope ratios
    against theta^3 <x>^(-3(d-2)), and the proxy identity and wrap
    diagnostics.

    All fields are reflection-symmetric, and a probe shifts along axis 0
    only, so the per-probe products are unfolded on axis 0 and stay on the
    fundamental domain in the others: each probe costs an rfft/irfft pair
    along axis 0 and cosine transforms along the rest, and its sum weights
    each point by its multiplicity.
    """
    G, tau = rw_green_proxy(SpreadOut(d, L), side, p)
    Gt = tilde_g(G, tau)
    ident_err = float(np.abs(Gt.data - _minus_delta(G)).max())
    if Gt.l1() < 1e-14:
        return {"degenerate": True, "reason": "smeared field vanishes"}
    theta = float(L) ** (-2)
    hyp1 = hyp1_report(G, tau, L)
    flat = Gt.total() / side ** d
    g2 = Gt * Gt
    # psi = (d+t2) * (d+g2) * (d+t2) with the delta 1 on the spectrum
    E = _dct(tau.data * tau.data, side)
    E += 1.0
    S = _dct(g2.data, side)
    S += 1.0
    S *= E
    S *= E
    psi = _idct(S, side)
    del S, E
    # G's spectrum is real and even, so its cosine transform is also its
    # half spectrum along axis 0
    Ghat = _dct(G.data, side)
    axes = range(1, d)
    unfold = _mirror(side)
    psi0, Gt0, g20 = psi[unfold], Gt.data[unfold], g2.data[unfold]
    W = _weights(d - 1, side)
    if radii is None:
        radii = list(range(1, side // 2 + 1))
    rows = {}
    A, B = np.empty_like(psi0), np.empty_like(psi0)
    for r in radii:
        x = (r,) + (0,) * (d - 1)
        term0 = Gt.value(x) ** 3
        core = Gt.value(x) - flat
        _pair_product(psi0, (0,), Gt0, (r,), out=A)
        S = np.fft.rfft(_dct(A, side, axes), axis=0)
        S *= Ghat
        conv = _idct(np.fft.irfft(S, n=side, axis=0), side, axes)
        del S
        _pair_product(Gt0, (0,), g20, (r,), out=B)
        B *= conv
        B *= W
        term1 = float(B.sum())
        rho = term1 / term0 if term0 > 0 else math.inf
        if rho < 1.0:
            est = term0 + term1 / (1.0 - rho)
            flag = ""
        else:
            est = term0 + term1
            flag = "tail not summable"
        decaying = core ** 3 if core > 0.0 else math.nan
        env = theta ** 3 * weighted_norm(x, L) ** (-3 * (d - 2))
        rows[r] = {"term0": term0, "term1": term1, "rho": rho,
                   "estimate": est, "decaying": decaying,
                   "envelope_ratio": decaying / env, "flag": flag}
    if fit_radii is None:
        lo = int(math.floor(L)) + 1
        fit_radii = [r for r in radii if lo <= r <= side // 2 - 1]
    fit_radii = [r for r in fit_radii if math.isfinite(rows[r]["decaying"])]
    if len(fit_radii) < 2:
        return {"degenerate": True,
                "reason": "fewer than two usable fit radii", "rows": rows}
    xs = np.log([weighted_norm((r,) + (0,) * (d - 1), L) for r in fit_radii])
    ys = np.log([rows[r]["decaying"] for r in fit_radii])
    yraw = np.log([rows[r]["estimate"] for r in fit_radii])
    slope = float(np.polyfit(xs, ys, 1)[0])
    slope_raw = float(np.polyfit(xs, yraw, 1)[0])
    return {
        "degenerate": False,
        "exponent": -slope,
        "exponent_raw": -slope_raw,
        "flat_mode": flat,
        "rows": rows,
        "fit_radii": list(fit_radii),
        "hyp1": hyp1,
        "proxy_identity_err": ident_err,
        "wrap_mass": wrap_mass(Gt),
        "theta": theta,
    }
