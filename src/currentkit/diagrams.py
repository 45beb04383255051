"""Chain-diagram kernels and theorem right-hand sides on finite graphs.

Pair fields (matrices indexed by two vertices) are pushed through chain
kernels built from the two-point matrix G, its smeared companion, and the
triangle tensor. Kernels factorize into a prefix (plain or anchored), a middle
block, and a terminal contraction, so applying one costs a few matrix
products. Every geometric chain sum, and the infinite-depth bubble chain, is
one linear solve with a proved upward enclosure of the exact sum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graphs import CouplingGraph, GraphError, SpreadOut
from .currents import two_point_matrix
from .fields import (
    NonContracting,
    _dct, _idct, _minus_delta, _mirror, _turns, _weights, hyp1_report,
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


_U = 2.0 ** -53      # unit roundoff of float64


def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), the relative error bound of k roundings on
    exact nonnegative data away from underflow (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., ch. 3)."""
    return k * _U / (1.0 - k * _U)


def _up(x, k: int):
    """x, within gamma_k of a nonnegative exact value (k roundings), raised
    past that value; three spare roundings cover the scaling itself."""
    return x * (1.0 + _gamma(k + 3))


class _ChainSolve:
    """Certified sums (I - K)^-1 p = sum_j K^j p of a nonnegative operator K,
    computed with each entry within gamma_k of the exact one.

    With A = I - K inverted once and v = A^-1 1 from the inverse: if v > 0
    and r, the largest (K v)_i / v_i rounded upward, is below 1, then
    K v <= r v bounds K's spectral radius by r (Collatz-Wielandt), so
    A^-1 = sum_j K^j >= 0 and A^-1 v <= v / (1 - r). A computed solution x
    of A x = p with residual R = p - A x then has |A^-1 p - x| <= A^-1 |R|
    <= v max_i(|R|_i / v_i) / (1 - r) (Rump, Acta Numerica 19, 2010), and x
    plus that bound, rounded upward, is a proved upper bound for p >= 0.
    Otherwise ``refusal`` says why, and every nonzero field sums to +inf.
    """

    def __init__(self, K: np.ndarray, k: int, name: str):
        self.K, self.k = K, k
        self.inv = np.linalg.inv(np.eye(len(K)) - K)
        v = self.v = self.inv.sum(axis=1)
        # the exact K v / v: K's k roundings, then the product and the quotient;
        # no bound unless v > 0
        self.r = float(np.max(_up(K @ v / v, k + len(K) + 1))) if np.all(v > 0.0) else math.inf
        self.refusal = f"{name} contraction bound {self.r:.6g} >= 1" if self.r >= 1.0 else None

    def __call__(self, P: np.ndarray):
        """Upper sums of the fields P (rows), each taking the products of a
        single one, and per field the width: the exact sum lies within it
        below the upper sum at every entry."""
        if self.refusal:
            zero = ~P.any(axis=1)
            return np.where(zero[:, None], P, math.inf), np.where(zero, 0.0, math.inf)
        K, N = self.K, len(self.K)
        X = (self.inv @ P[..., None])[..., 0]
        aX = np.abs(X)
        R = np.abs((P - X) + (K @ X[..., None])[..., 0])
        # K's error and the roundings of R move the exact residual by at
        # most gamma_(k+N+1) (|p| + |x| + K |x|)
        R += _gamma(self.k + N + 2) * (np.abs(P) + aX + (K @ aX[..., None])[..., 0])
        s = _up(_up(R, N + 4) / self.v, 1).max(axis=1)
        w = _up(self.v * s[:, None] / (1.0 - self.r), 3)
        total = _up(X + w, 1)
        return total, _up(total - X + w, 2).max(axis=1)


class DiagramEngine:
    """Kernel applications and certified chain sums at a fixed chain depth m.

    ``m`` is a positive integer or None for the infinite depth, in which case
    ``chain0`` is the certified upper sum of the bubble chain (I - Gt o Gt)^-1
    (refused when the bubble matrix does not provably contract). ``E`` (the
    sandwich matrix, default I + Tau o Tau) and ``T3`` (the triangle tensor,
    default that of G) may be given instead, and ``gate`` False keeps the
    endpoint entry that the anchored terminal columns otherwise zero; the
    reduced closed forms are cross-checked through them.
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
            bubble = _ChainSolve(self.B2, 1, "bubble matrix")
            if bubble.refusal:
                raise NonContracting(bubble.refusal)
            self.chain0 = self.chain_prev = bubble(I)[0].T
            rounds = 0          # an upper bound, taken as exact data
        else:
            self.chain_prev = I.copy()
            P = I.copy()
            for _ in range(m - 1):
                P = P @ self.B2
                self.chain_prev = self.chain_prev + P
            self.chain0 = self.chain_prev + P @ self.B2
            rounds = m * (n + 1) + 1    # j (n + 1) for B2^j, one for the sum
        self.chain1 = self.chain0 - I
        self.E = I + fields.Tau * fields.Tau if E is None else E
        self.psi = self.E @ self.chain0 @ self.E
        # the pair-space kernel entries G[v,w] psi[z,v] Gt[y,w]: psi takes
        # chain0's roundings, two for E and n per product; the kernel two more
        self._rounds = rounds + 2 * n + 6
        self.T3 = triangle_tensor(fields.G) if T3 is None else T3
        self.EC = self.E @ self.chain_prev
        self._res_cache: dict = {}     # prefix -> chain sum after it
        self._mids: dict = {}          # anchor -> anchored middle matrix
        self._cols: dict = {}          # anchor -> anchored terminal columns

    # -- kernel middles ----------------------------------------------------

    def _mid_matrix(self, spec) -> np.ndarray:
        kind = spec[0]
        if kind in ("U", "dotU"):
            return self.psi
        if kind in ("ddotU", "dddotU"):
            anchor = spec[-1]
            if anchor not in self._mids:
                TT = np.einsum("abc,c->ab", self.T3, self.chain_prev[anchor])
                self._mids[anchor] = self.EC @ TT @ self.EC.T
            return self._mids[anchor]
        raise GraphError(f"unknown kernel {spec!r}")

    def apply_kernel(self, P: np.ndarray, spec) -> np.ndarray:
        """Push a pair field, or a stack of them (k, n, n), through one chain
        kernel; each field of a stack takes the products of a single one.

        spec is ("U",), ("dotU", a), ("ddotU", a) or ("dddotU", a, v): plain or
        anchored prefix, sandwich or anchored-triangle middle.
        """
        MT = (P @ self._mid_matrix(spec)).swapaxes(-1, -2)
        kind = spec[0]
        if kind in ("U", "ddotU"):
            return self.f.G * (MT @ self.f.Gt)
        a = spec[1]
        t1 = self.f.G * ((MT @ self.f.G[:, a])[..., None] * self.f.Gt[a])
        t2 = np.outer(self.f.Gt[:, a], self.f.G[a]) * (MT @ self.f.Gt)
        return t1 + t2

    # -- terminals ---------------------------------------------------------

    def _terminal_columns(self, spec) -> np.ndarray:
        """The terminal kernel's column at every endpoint x, one row per x."""
        if spec[0] in ("V", "dotV"):
            return self.chain1.T
        anchor = spec[-1]
        if anchor not in self._cols:
            cols = []
            for x in range(self.f.n):
                t = np.einsum("abc,b,c->a", self.T3, self.chain_prev[x],
                              self.chain_prev[anchor])
                cols.append(self.EC @ t)
                if self.gate:
                    cols[-1][x] = 0.0
            self._cols[anchor] = np.array(cols)
        return self._cols[anchor]

    def terminal_value(self, P: np.ndarray, spec, x=None):
        """Contract a pair field with a terminal kernel at endpoint x, or at
        every endpoint (an array over x) when x is None; each endpoint takes
        the products of its own contraction.

        spec is ("V",), ("dotV", a), ("ddotV", a) or ("dddotV", a, v).
        """
        cols = self._terminal_columns(spec)[:, :, None]
        if spec[0] in ("V", "ddotV"):
            vals = ((self.f.Gt.T[:, None, :] @ P) @ cols)[:, 0, 0]
        else:
            a = spec[1]
            vals = self.f.Gt[a] * ((self.f.G[:, a] @ P) @ cols)[:, 0]
        return vals if x is None else float(vals[x])

    # -- chain sums ----------------------------------------------------------

    @cached_property
    def _pair(self) -> _ChainSolve:
        """The certified solve over pair space, built on the first chain sum:
        column k of its operator is the plain kernel on the k-th unit field."""
        n = self.f.n
        K = self.apply_kernel(np.eye(n * n).reshape(n * n, n, n), ("U",)).reshape(n * n, -1)
        return _ChainSolve(np.ascontiguousarray(K.T), self._rounds, "chain operator")

    def resolvent(self, P: np.ndarray):
        """The plain chain sum after a nonnegative pair field, or after each
        of a stack (k, n, n), certified upward; each field of a stack gets
        the bits it gets alone. Gives (totals, info): info has the proved
        contraction rho, the enclosure width tail (per field for a stack)
        and the number of fields solved. A refused field is +inf in a stack;
        one field raises NonContracting."""
        solve = self._pair
        totals, tails = solve(P.reshape(-1, P.shape[-1] ** 2))
        info = {"iterations": int(np.isfinite(tails).sum()), "rho": solve.r, "tail": tails}
        if P.ndim == 3:
            return totals.reshape(P.shape), {**info, "rho": np.full(len(tails), solve.r)}
        if tails[0] == math.inf:
            raise NonContracting(solve.refusal)
        return totals.reshape(P.shape), {**info, "tail": float(tails[0])}

    def _delta_pair(self) -> np.ndarray:
        """The pair field 1 at (o, o), o the origin vertex 0."""
        P = np.zeros((self.f.n, self.f.n))
        P[0, 0] = 1.0
        return P

    def _resolve(self, prefixes) -> list:
        """The plain chain sum after each prefix (a tuple of middle kernel
        specs), summed with every prefix of those, level by level: one
        stacked resolvent per prefix length. Raises NonContracting when the
        pair operator is refused, which refuses every chain from the origin."""
        if self._pair.refusal:
            raise NonContracting(self._pair.refusal)
        todo = dict.fromkeys(p[:k] for p in prefixes for k in range(len(p) + 1))
        todo = [p for p in todo if p not in self._res_cache]
        for level in sorted(set(map(len, todo))):
            keys = [p for p in todo if len(p) == level]
            seeds = [self.apply_kernel(self._res_cache[p[:-1]], p[-1]) if p
                     else self._delta_pair() for p in keys]
            self._res_cache.update(zip(keys, self.resolvent(np.stack(seeds))[0]))
        return [self._res_cache[p] for p in prefixes]

    def chain_sum_X(self, placements) -> np.ndarray:
        """Values of a sum of placed chains from the origin, vertex 0, to
        every endpoint x, an array over x.

        Each placement is (mids, terminal, coefficient): a tuple of middle
        kernel specs, one terminal spec, and a scalar weight. Every gap
        between placed kernels carries the full geometric sum of plain links.
        """
        total = 0.0
        for mids, term, coeff in placements:
            total += coeff * self.terminal_value(self._resolve([tuple(mids)])[0], term)
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

# chain table kind -> (placement list of its anchors, number of anchors)
_TABLES = {"x": (placements_x, 0), "dotx": (placements_dotx, 1),
           "ddotx": (placements_ddotx, 1), "dddotx": (placements_dddotx, 2)}


class TheoremEvaluator:
    """Right-hand sides of the four diagrammatic bound theorems on a graph.

    Every bound is from the origin ``g.labels[0]`` to x. Depth-1 engines serve
    the zeroth-order bounds, infinite-depth engines the through-set bounds.
    Each (depth, placement kind) has one chain table over (anchors, x),
    built when a bound first needs it, +inf where its chain sum is refused;
    each (theorem, A) has one row of bounds over x, or (x, y), assembled
    from the tables term by term in the order of the sum, so every entry
    takes the floating-point steps of its scalar sum. Engines are kept per
    depth; a depth whose build was refused raises its refusal again without
    a rebuild, and so does a (theorem, A) whose row needs it, without
    rebuilding the row.
    """

    def __init__(self, g: CouplingGraph):
        self.g = g
        self.fields = fields_from_graph(g)
        self._engines: dict = {}
        self._refused: dict = {}
        self._chains: dict = {}
        self._rows: dict = {}

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

    def _tables(self, m, *kinds) -> list:
        """Chain values of each placement kind at depth m, indexed by its
        anchors and then the endpoint x. The tables not built yet are built
        together: every prefix their placements name is resolved first, one
        stack per level."""
        n = self.fields.n
        lists = {}
        for kind in kinds:
            if (m, kind) not in self._chains:
                place, arity = _TABLES[kind]
                lists[kind] = [place(*anchors) for anchors in np.ndindex((n,) * arity)]
        if lists:
            eng = self.engine(m)
            try:
                eng._resolve([mids for pls in lists.values() for pl in pls for mids, _, _ in pl])
            except NonContracting:
                eng = None
        for kind, pls in lists.items():
            out = (np.array([eng.chain_sum_X(pl) for pl in pls]) if eng
                   else np.full((len(pls), n), math.inf))
            self._chains[m, kind] = out.reshape((n,) * (_TABLES[kind][1] + 1))
        return [self._chains[m, kind] for kind in kinds]

    def theorem_rhs(self, theorem: int, x, A=None, y=None,
                    strict: bool = True) -> float:
        """Evaluate one theorem's bound; +inf when a needed infinite chain
        diverges and strict is off."""
        g = self.g
        ix = g.index(x)
        if ix == 0:
            raise GraphError("theorem bounds exclude the diagonal x == o")
        if theorem not in (1, 2, 3, 4):
            raise GraphError(f"unknown theorem {theorem}")
        if theorem in (2, 4) and A is None or theorem in (3, 4) and y is None:
            raise GraphError({2: "theorem 2 needs the through set A",
                              3: "theorem 3 needs the extra endpoint y",
                              4: "theorem 4 needs both A and y"}[theorem])
        key = (theorem, tuple(A) if theorem in (2, 4) else None)
        at = (ix,) if theorem < 3 else (ix, g.index(y))
        if key not in self._rows:
            ia = None if key[1] is None else [g.index(a) for a in key[1]]
            try:
                self._rows[key] = self._theorem_rows(theorem, ia)
            except NonContracting as exc:
                self._rows[key] = str(exc)
        if isinstance(self._rows[key], str):
            if strict:
                raise NonContracting(self._rows[key])
            return math.inf
        rhs = float(self._rows[key][at])
        if strict and rhs == math.inf:
            raise NonContracting(f"theorem {theorem} bound at x={x} needs a "
                                 "chain sum that does not contract")
        return rhs

    def _theorem_rows(self, theorem: int, ia) -> np.ndarray:
        """One theorem's bounds, over x (theorems 1 and 2) or (x, y), for the
        through set of vertex indices ``ia``; each entry sums its terms in the
        order of the scalar bound, and inf * 0 counts as +inf."""
        n = self.fields.n
        if theorem == 1:
            tot, = self._tables(1, "x")
        elif theorem == 2:
            tot = np.zeros(n)
            if ia:
                X, dotX = self._tables(None, "x", "dotx")
            for a in ia:
                tot[a] += X[a]
                tot += dotX[a]
        elif theorem == 3:
            X, dotX, ddotX = self._tables(1, "x", "dotx", "ddotx")
            tot = dotX.T + ddotX.T
            d = np.arange(n)
            tot[d, d] += X
        else:
            chain0 = self.engine(None).chain0
            tot = np.zeros((n, n))
            if ia:
                ddotX, dddotX = self._tables(None, "ddotx", "dddotx")
            with np.errstate(invalid="ignore"):     # inf * 0, made +inf below
                for a in ia:
                    tot[a] += ddotX[:, a]
                    tot += dddotX[a].T
                    tot += ddotX[a][:, None] * chain0
                    for yp in range(n):
                        tot += dddotX[yp, a][:, None] * chain0[yp]
        rhs = 2.0 * tot
        rhs[np.isnan(rhs)] = math.inf
        return rhs


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
    fundamental domain in the others: each probe costs rfft/irfft pairs
    along axis 0 and cosine transforms along the rest, and its sum weights
    each point by its multiplicity. The radius loop runs in a workspace of
    two such products, allocated once per call, next to psi, Gt, Gt^2
    (with the multiplicities folded in: they are powers of 2, so the
    products keep their bits) and G's spectrum on the fundamental domain;
    only slices are allocated per radius.
    """
    G, tau = rw_green_proxy(SpreadOut(d, L), side, p)
    Gt = tilde_g(G, tau)
    ident_err = float(np.abs(Gt.data - _minus_delta(G)).max())
    if Gt.l1() < 1e-14:
        return {"degenerate": True, "reason": "smeared field vanishes"}
    theta = float(L) ** (-2)
    hyp1 = hyp1_report(G, tau, L)
    flat = Gt.total() / side ** d
    wrap = wrap_mass(Gt)
    g2 = Gt.data * Gt.data
    # psi = (d+t2) * (d+g2) * (d+t2) with the delta 1 on the spectrum
    E = _dct(tau.data * tau.data, side)
    E += 1.0
    S = _dct(g2, side)
    S += 1.0
    S *= E
    S *= E
    psi = _idct(S, side)
    # G's spectrum is real and even, so its cosine transform is also its
    # half spectrum along axis 0
    Ghat = _dct(G.data, side)
    g2 *= _weights(d - 1, side)             # exact: the weights are powers of 2
    unfold = _mirror(side)
    del G, tau, E, S
    if radii is None:
        radii = list(range(1, side // 2 + 1))
    rows = {}

    def pair(F, H, r, out):
        """x -> F(x) H(x - r) on the whole torus along axis 0, row by row
        from F and H on the fundamental domain."""
        for i in range(side):
            np.multiply(F[unfold[i]], H[unfold[(i - r) % side]], out=out[i:i + 1])

    # The workspace: each radius writes its pair products and transforms
    # into A and P alone, so the radius loop maps no new pages for them.
    # Each holds, for each index of axis 0, a field on the fundamental
    # domain of the other axes in the padded layout of ``_turns`` (at d = 1
    # a single entry). The rfft/irfft pairs run on one index of axis 1 at
    # a time (on the whole field at d = 1), so their outputs are slices,
    # and each irfft output is copied into the workspace.
    m = side // 2 + 1
    A, P = np.empty((2, side, m + 1 if d > 1 else 1, m ** max(d - 2, 0)))
    shape = (side,) + psi.shape[1:]
    H = Ghat.reshape(m, -1, A.shape[2])
    for r in radii:
        x = (r,) + (0,) * (d - 1)
        term0 = Gt.value(x) ** 3
        core = Gt.value(x) - flat
        pair(psi, Gt.data, r, A[:, :m].reshape(shape))
        D = _turns(A, P, side, d - 1)
        F = P if D is A else A
        for j in range(H.shape[1]):
            S = np.fft.rfft(D[:, j], axis=0)
            S *= H[:, j]
            F[:, j] = np.fft.irfft(S, n=side, axis=0)
        conv = _turns(F, D, side, d - 1, inverse=True)
        # unpadded and contiguous: B.sum() is one pairwise sum of the product
        B = (P if conv is A else A).reshape(-1)[:math.prod(shape)].reshape(shape)
        pair(Gt.data, g2, r, B)
        B *= conv[:, :m].reshape(shape)
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
        "wrap_mass": wrap,
        "theta": theta,
    }
