"""Chain kernels, certified chain sums, theorem right-hand sides.

Every factorized contraction is checked against a literal nested-loop
evaluation written here, so the two sides share nothing but the input
matrices.
"""
from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from currentkit import GraphError, build_graph, diagrams
from currentkit.cli import CORPUS_SHAPES, RunConfig, _theorems_instance
from currentkit.diagrams import (
    DiagramEngine, GraphFields, TheoremEvaluator, decay_trend,
    fields_from_graph,
    placements_ddotx, placements_dotx, placements_x,
    reduced_dddotu_apply, reduced_dddotv_value, reduced_ddotu_apply,
    reduced_ddotv_value, reduced_t3_prefix, reduced_t3_terminal,
)
from currentkit.fields import NonContracting


def k4(beta=0.5):
    bonds = [(i, j, 1.0) for i in range(4) for j in range(i + 1, 4)]
    return build_graph(range(4), bonds, beta=beta)


def rand_pair(n, seed=7):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.1, 1.0, size=(n, n))


def loop_apply(eng, P, spec):
    """apply_kernel rewritten as four explicit loops."""
    f = eng.f
    mid = eng._mid_matrix(spec)
    n = f.n
    out = np.zeros((n, n))
    for a in range(n):
        for b in range(n):
            s = 0.0
            for c in range(n):
                for k in range(n):
                    w = P[c, k] * mid[k, a]
                    if spec[0] in ("U", "ddotU"):
                        s += w * f.Gt[c, b] * f.G[a, b]
                    else:
                        a0 = spec[1]
                        s += w * (f.G[c, a0] * f.Gt[a0, b] * f.G[a, b]
                                  + f.Gt[a, a0] * f.G[a0, b] * f.Gt[c, b])
            out[a, b] = s
    return out


def loop_terminal(eng, P, spec, x):
    """terminal_value rewritten as explicit loops, gate included."""
    f = eng.f
    n = f.n
    kind = spec[0]
    if kind in ("V", "dotV"):
        col = eng.chain1[:, x]
    else:
        anchor = spec[-1]
        raw = np.zeros(n)
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    raw[a] += (eng.T3[a, b, c] * eng.chain_prev[x, b]
                               * eng.chain_prev[anchor, c])
        col = eng.EC @ raw
        if eng.gate:
            col = col.copy()
            col[x] = 0.0
    s = 0.0
    for c in range(n):
        for k in range(n):
            if kind in ("V", "ddotV"):
                s += f.Gt[c, x] * P[c, k] * col[k]
            else:
                s += f.Gt[spec[1], x] * f.G[c, spec[1]] * P[c, k] * col[k]
    return s


def test_fields_from_graph_envelope():
    g = build_graph([0, 1, 2], [(0, 1, 1.0), (1, 2, 2.0)], beta=0.3)
    f = fields_from_graph(g)
    TG = f.Tau @ f.G
    assert np.all(f.Gt >= TG - 1e-15)
    assert np.all(f.Gt >= TG.T - 1e-15)
    assert np.allclose(f.Gt, f.Gt.T)


@pytest.mark.parametrize("spec", [("U",), ("dotU", 2), ("ddotU", 1),
                                  ("dddotU", 0, 3)])
@pytest.mark.parametrize("m", [1, 2, None])
def test_apply_kernel_matches_loops(spec, m):
    # infinite depth solves (I - B2)^-1, which needs a contracting graph
    beta = 0.15 if m is None else 0.5
    eng = DiagramEngine(fields_from_graph(k4(beta)), m)
    P = rand_pair(4)
    got = eng.apply_kernel(P, spec)
    want = loop_apply(eng, P, spec)
    assert np.allclose(got, want, rtol=1e-10, atol=0)


@pytest.mark.parametrize("spec", [("V",), ("dotV", 2), ("ddotV", 1),
                                  ("dddotV", 0, 3)])
def test_terminal_matches_loops(spec):
    eng = DiagramEngine(fields_from_graph(k4()), 2)
    P = rand_pair(4, seed=11)
    for x in range(4):
        assert eng.terminal_value(P, spec, x) == pytest.approx(
            loop_terminal(eng, P, spec, x), rel=1e-10)


def test_sandwich_matrix_by_loops():
    eng = DiagramEngine(fields_from_graph(k4()), 1)
    n = 4
    want = np.zeros((n, n))
    for k in range(n):
        for a in range(n):
            for p in range(n):
                for q in range(n):
                    want[k, a] += eng.E[k, p] * eng.chain0[p, q] * eng.E[q, a]
    assert np.allclose(eng._mid_matrix(("U",)), want, rtol=1e-12)


def test_plain_terminal_cubes_at_depth_one():
    g = k4()
    f = fields_from_graph(g)
    eng = DiagramEngine(f, 1)
    P = np.zeros((4, 4))
    P[0, 0] = 1.0
    for x in range(1, 4):
        # chain1 at depth one is the elementwise square of the smeared matrix
        assert eng.terminal_value(P, ("V",), x) == pytest.approx(
            f.Gt[0, x] ** 3, rel=1e-12)


def exact_solve(M, B):
    """X with M X = B, by Gauss-Jordan elimination over Fractions (lists of
    rows); M must be invertible."""
    n = len(M)
    aug = [list(M[i]) + list(B[i]) for i in range(n)]
    for c in range(n):
        piv = next(i for i in range(c, n) if aug[i][c] != 0)
        aug[c], aug[piv] = aug[piv], aug[c]
        top = aug[c][c]
        aug[c] = [a / top for a in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


def exact_pair_operator(f, chain0):
    """The plain kernel over pair space in Fractions, from the float G, Gt
    and Tau and an exact chain0: K[(v,w),(y,z)] = G[v,w] psi[z,v] Gt[y,w]
    with psi = E chain0 E and E = I + Tau o Tau."""
    n = f.n
    G, Gt, Tau = ([[Fraction(float(a)) for a in row] for row in M] for M in (f.G, f.Gt, f.Tau))
    E = [[int(i == j) + Tau[i][j] * Tau[i][j] for j in range(n)] for i in range(n)]
    EC = [[sum(E[i][k] * chain0[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    psi = [[sum(EC[i][k] * E[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [[G[v][w] * psi[z][v] * Gt[y][w] for y in range(n) for z in range(n)]
            for v in range(n) for w in range(n)]


def enclosure_violations(beta=0.2):
    """Entries where a certified sum on the triangle falls below the exact
    one or above it by more than the reported width. At depth one the
    kernel is exact from the float G, Gt and Tau. At infinite depth chain0
    is checked against the exact inverse of I - Gt o Gt, the kernel built
    from the engine's chain0 must enclose as at depth one, and the kernel
    from the exact inverse must stay below the certified sum."""
    g = build_graph([0, 1, 2], [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)], beta=beta)
    f = fields_from_graph(g)
    n = f.n
    fr = lambda M: [[Fraction(float(a)) for a in row] for row in M]
    cols = lambda M: [list(col) for col in zip(*M)]
    I_minus = lambda K: [[int(i == j) - a for j, a in enumerate(row)] for i, row in enumerate(K)]
    bad = []

    def check(label, certified, width, exact):
        """certified and exact hold one field per row, width one per field"""
        for i, row in enumerate(certified):
            hi = width[i] if width[i] == math.inf else Fraction(float(width[i]))
            for j, c in enumerate(row):
                gap = Fraction(float(c)) - exact[i][j]
                if not 0 <= gap <= hi:
                    bad.append((label, i, j, float(gap)))

    B2 = [[a * a for a in row] for row in fr(f.Gt)]
    inv = exact_solve(I_minus(B2), fr(np.eye(n)))
    chain0 = [[int(i == j) + a for j, a in enumerate(row)] for i, row in enumerate(B2)]
    totals, tails = diagrams._ChainSolve(f.Gt * f.Gt, 1, "bubble matrix")(np.eye(n))
    check("chain0", totals, tails, cols(inv))
    seeds = np.stack([DiagramEngine(f, 1)._delta_pair(), rand_pair(n, seed=3)])
    P = seeds.reshape(2, n * n)
    for m in (1, None):
        eng = DiagramEngine(f, m)
        upper = eng.resolvent(seeds)[0].reshape(2, n * n)
        if m is None:
            assert np.array_equal(eng.chain0, totals.T)
            X = exact_solve(I_minus(exact_pair_operator(f, inv)), cols(fr(P)))
            check("m=inf, exact chain0", upper, [math.inf] * 2, cols(X))
            chain0 = fr(eng.chain0)
        X = exact_solve(I_minus(exact_pair_operator(f, chain0)), cols(fr(P)))
        check(f"m={m}", upper, eng._pair(P)[1], cols(X))
    return bad


def test_resolvent_certificate_dominates_exact():
    """The certified chain sums on the triangle at beta 0.2, where the pair
    space has 9 dimensions, against exact solves in Fractions: each is at
    least the exact sum and within its reported width of it, at every
    entry, at depth one and at infinite depth, and so is chain0."""
    assert enclosure_violations() == []


def test_resolvent_exact_basis_is_one_column_per_unit_field():
    """The pair-space operator of the solve, built by one stacked kernel
    application, has column k the kernel applied to the k-th unit pair field
    alone, bit for bit."""
    eng = DiagramEngine(fields_from_graph(k4(beta=0.15)), None)
    n = eng.f.n
    basis = np.zeros((n * n, n * n))
    for k in range(n * n):
        e = np.zeros(n * n)
        e[k] = 1.0
        basis[:, k] = eng.apply_kernel(e.reshape(n, n), ("U",)).ravel()
    assert eng._pair.K.tobytes() == basis.tobytes()


def test_chain_enclosure_rows():
    """The theorems suite holds a Neumann partial sum below the certified
    chain sum from the origin pair field at both depths: it passes on a
    contracting instance, and is trivial, with the refusal, where the
    operator does not provably contract."""
    def rows(beta):
        g = build_graph([0, 1, 2], [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)], beta=beta)
        return [r for r in _theorems_instance("triangle", g, RunConfig())
                if r.check.startswith("chain_enclosure")]

    assert [(r.check, r.status) for r in rows(0.1)] == [
        ("chain_enclosure[m=1]", "pass"), ("chain_enclosure[m=inf]", "pass")]
    assert all(0.0 <= r.margin < 1e-12 for r in rows(0.1))
    refused = rows(1.0)
    assert [r.status for r in refused] == ["trivial", "trivial"]
    assert all(">= 1" in r.note for r in refused)


def test_resolvent_zero_seed():
    eng = DiagramEngine(fields_from_graph(k4(beta=0.2)), 1)
    total, info = eng.resolvent(np.zeros((1, 4, 4)))
    assert np.all(total == 0.0) and info["iterations"] == 1
    assert eng._pair(np.zeros((1, 16)))[1][0] == 0.0
    assert 0.0 < eng._pair.r < 1.0


def test_cycle4_chord_near_threshold_rows_are_finite_and_pass():
    """cycle4_chord with coupling 1 on every bond at beta 0.2298: at infinite
    depth the first plain-kernel step from the origin grows the mass by 2%,
    but the pair operator contracts at depth one and at infinite depth, so
    every theorem bound is finite and holds."""
    verts, bonds = next((v, b) for n, v, b, _ in CORPUS_SHAPES if n == "cycle4_chord")
    g = build_graph(verts, [(u, v, 1.0) for u, v in bonds], beta=0.2298)
    rows = [r for r in _theorems_instance("cycle4_chord", g, RunConfig())
            if r.check.startswith("thm")]
    assert len(rows) == 90
    assert all(math.isfinite(r.rhs) and r.status == "pass" for r in rows)


def test_chain0_monotone_in_depth():
    f = fields_from_graph(k4(beta=0.2))
    c1 = DiagramEngine(f, 1).chain0
    c2 = DiagramEngine(f, 2).chain0
    cinf = DiagramEngine(f, None).chain0
    assert np.all(c1 <= c2 + 1e-15)
    assert np.all(c2 <= cinf + 1e-15)


def test_chain_sum_monotone_in_fields():
    f = fields_from_graph(k4(beta=0.1))
    fup = GraphFields(G=f.G * 1.1, Gt=f.Gt * 1.1, Tau=f.Tau)
    lo = DiagramEngine(f, 1).chain_sum_X(placements_x())[2]
    hi = DiagramEngine(fup, 1).chain_sum_X(placements_x())[2]
    assert hi >= lo > 0.0


def test_theorem2_dominates_plain_chain():
    g = k4(beta=0.15)
    ev = TheoremEvaluator(g)
    rhs = ev.theorem_rhs(2, 2, A=(2,))
    plain = ev.engine(None).chain_sum_X(placements_x())[2]
    assert rhs >= 2.0 * plain - 1e-15


def test_theorem3_assembly():
    g = k4(beta=0.15)
    ev = TheoremEvaluator(g)
    eng = ev.engine(1)
    ix, iy = 2, 3
    want = 2.0 * (eng.chain_sum_X(placements_dotx(iy))[ix]
                  + eng.chain_sum_X(placements_ddotx(iy))[ix])
    assert ev.theorem_rhs(3, 2, y=3) == pytest.approx(want, rel=1e-12)
    # y == x picks up the plain chain as well
    want_eq = 2.0 * (eng.chain_sum_X(placements_dotx(ix))[ix]
                     + eng.chain_sum_X(placements_ddotx(ix))[ix]
                     + eng.chain_sum_X(placements_x())[ix])
    assert ev.theorem_rhs(3, 2, y=2) == pytest.approx(want_eq, rel=1e-12)


def test_diagonal_rejected():
    ev = TheoremEvaluator(k4(beta=0.3))
    with pytest.raises(GraphError):
        ev.theorem_rhs(1, 0)


def test_engine_rejects_bad_inputs():
    f = fields_from_graph(k4(beta=0.2))
    with pytest.raises(GraphError):
        DiagramEngine(f, 0)
    bad = GraphFields(G=f.G.copy(), Gt=f.Gt.copy(), Tau=f.Tau.copy())
    bad.G[0, 1] = -1.0
    with pytest.raises(GraphError):
        DiagramEngine(bad, 1)
    with pytest.raises(GraphError):
        DiagramEngine(f, 1).apply_kernel(np.zeros((4, 4)), ("mystery",))


def test_noncontracting_surfaces_and_relaxes():
    g = build_graph([0, 1, 2], [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)],
                    beta=1.0)
    with pytest.raises(NonContracting):
        DiagramEngine(fields_from_graph(g), None)
    ev = TheoremEvaluator(g)
    with pytest.raises(NonContracting):
        ev.theorem_rhs(2, 1, A=(1,))
    assert ev.theorem_rhs(2, 1, A=(1,), strict=False) == math.inf
    # depth one diverges here too: the plain chain steps fail to contract
    assert ev.theorem_rhs(1, 1, strict=False) == math.inf


def test_refused_engine_is_built_once(monkeypatch):
    """A refused infinite-depth build is remembered: every later bound that
    needs it raises again (or gives inf) without another build."""
    g = build_graph([0, 1, 2], [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)],
                    beta=1.0)
    builds = []

    class Counted(DiagramEngine):
        def __init__(self, fields, m):
            builds.append(m)
            super().__init__(fields, m)

    monkeypatch.setattr(diagrams, "DiagramEngine", Counted)
    ev = TheoremEvaluator(g)
    for _ in range(3):
        with pytest.raises(NonContracting):
            ev.theorem_rhs(2, 1, A=(1,))
        with pytest.raises(NonContracting):
            ev.theorem_rhs(4, 2, A=(0, 2), y=1)
    for x in (1, 2):
        for A in ((0,), (x,), (0, 1, 2)):
            assert ev.theorem_rhs(2, x, A=A, strict=False) == math.inf
            assert ev.theorem_rhs(4, x, A=A, y=0, strict=False) == math.inf
        assert ev.theorem_rhs(1, x, strict=False) == math.inf
        assert ev.theorem_rhs(3, x, y=0, strict=False) == math.inf
    assert sorted(builds, key=str) == [1, None]


def test_refused_theorem_row_is_built_once(monkeypatch):
    """A (theorem, A) whose row needs a refused engine is remembered: its
    row is built once, every later bound on it raises the same refusal (or
    gives inf) without another build, and the other keys still get theirs."""
    g = build_graph([0, 1, 2], [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)],
                    beta=1.0)
    builds = Counter()
    real = TheoremEvaluator._theorem_rows

    def counted(self, theorem, ia):
        builds[theorem, None if ia is None else tuple(ia)] += 1
        return real(self, theorem, ia)

    monkeypatch.setattr(TheoremEvaluator, "_theorem_rows", counted)
    ev = TheoremEvaluator(g)
    with pytest.raises(NonContracting) as first:
        ev.theorem_rhs(2, 1, A=(1,))
    for _ in range(3):
        for x in (1, 2):
            with pytest.raises(NonContracting) as again:
                ev.theorem_rhs(2, x, A=(1,))
            assert str(again.value) == str(first.value)
            assert ev.theorem_rhs(2, x, A=(1,), strict=False) == math.inf
            for A in ((0,), (0, 1, 2)):
                assert ev.theorem_rhs(2, x, A=A, strict=False) == math.inf
                assert ev.theorem_rhs(4, x, A=A, y=0, strict=False) == math.inf
            assert ev.theorem_rhs(1, x, strict=False) == math.inf
    assert set(builds.values()) == {1}
    assert set(builds) == {(2, (1,)), (2, (0,)), (2, (0, 1, 2)), (4, (0,)), (4, (0, 1, 2)),
                           (1, None)}


def test_refused_chain_is_summed_once(monkeypatch):
    """A refused chain operator is remembered: at depth one the pair
    operator does not contract, so every chain from the origin is refused;
    every later bound that needs one raises again (or gives inf) without
    building or solving the operator again, and no chain is summed."""
    g = build_graph([0, 1, 2], [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)],
                    beta=1.0)
    rows, solves = [], []
    real = DiagramEngine.resolvent

    def counted(self, P):
        out = real(self, P)
        rows.append(len(P))
        return out

    class Counted(diagrams._ChainSolve):
        def __init__(self, K, k, name):
            solves.append(name)
            super().__init__(K, k, name)

    monkeypatch.setattr(DiagramEngine, "resolvent", counted)
    monkeypatch.setattr(diagrams, "_ChainSolve", Counted)
    ev = TheoremEvaluator(g)
    for _ in range(3):
        with pytest.raises(NonContracting):
            ev.theorem_rhs(1, 1)
        with pytest.raises(NonContracting):
            ev.theorem_rhs(3, 2, y=1)
    for x in (1, 2):
        assert ev.theorem_rhs(1, x, strict=False) == math.inf
        for y in (0, 1, 2):
            assert ev.theorem_rhs(3, x, y=y, strict=False) == math.inf
    assert solves == ["chain operator"] and sum(rows) == 0


def test_reduced_kernels_match_overridden_engine():
    f = fields_from_graph(k4(beta=0.4))
    n = f.n
    P = rand_pair(n, seed=5)
    pre = DiagramEngine(f, 1, E=np.eye(n), T3=reduced_t3_prefix(f), gate=False)
    assert np.allclose(pre.apply_kernel(P, ("ddotU", 1)),
                       reduced_ddotu_apply(f, P, 1), rtol=1e-12)
    assert np.allclose(pre.apply_kernel(P, ("dddotU", 0, 3)),
                       reduced_dddotu_apply(f, P, 0, 3), rtol=1e-12)
    term = DiagramEngine(f, 1, E=np.eye(n), T3=reduced_t3_terminal(f), gate=False)
    assert term.terminal_value(P, ("ddotV", 1), 2) == pytest.approx(
        reduced_ddotv_value(f, P, 2, 1), rel=1e-12)
    assert term.terminal_value(P, ("dddotV", 0, 3), 2) == pytest.approx(
        reduced_dddotv_value(f, P, 2, 0, 3), rel=1e-12)


def test_decay_trend_smoke():
    rep = decay_trend(d=3, L=1.0, side=10, p=0.5, fit_radii=[1, 2])
    assert not rep["degenerate"]
    for key in ("exponent", "exponent_raw", "flat_mode", "rows",
                "fit_radii", "hyp1", "wrap_mass"):
        assert key in rep
    assert math.isfinite(rep["exponent"])
    assert all(row["term0"] >= 0.0 for row in rep["rows"].values())


def test_decay_trend_degenerate_without_steps():
    rep = decay_trend(d=3, L=1.0, side=8, p=0.0)
    assert rep["degenerate"]


def test_decay_trend_degenerate_single_fit_point():
    # at this size only one probe keeps a positive mean-subtracted value,
    # which is not enough for a slope
    rep = decay_trend(d=3, L=1.0, side=8, p=0.5)
    assert rep["degenerate"]
    assert "fit radii" in rep["reason"]
