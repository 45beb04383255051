"""Batch verification driver.

Runs the check suites over a corpus of small coupling graphs plus torus proxy
fields, writes a deterministic CSV of per-check rows and a human-readable
summary, and exits nonzero when anything fails. Timestamps appear only in
comment headers so two runs with the same config produce identical CSV bodies.
"""
from __future__ import annotations

import argparse
import collections
import csv
import itertools
import json
import math
import os
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from .graphs import CouplingGraph, GraphError, SpreadOut, build_graph, load_graph, save_graph
from .currents import (
    CapExceeded, correlation, four_point, partition_function, pi0_rows,
    spin_expectation, sst_lhs_rows, sst_switch_rows, subset_connection_tables,
    theta_rows, two_point_matrix,
)
from .fields import (
    Field, NonContracting, convolution_bound_check, convolve,
    depicted_ratios, hyp1_report, hyp2_report, hyp3_report,
    key_lemma_gap_matrix, psi1_report, rw_green_proxy, tilde_g,
    triangle_tensor,
)
from .laces import check_partition_of_unity, extraction_gap, verify_pi0_decomposition
from .diagrams import (
    DiagramEngine, TheoremEvaluator, decay_trend, fields_from_graph,
    reduced_ddotu_apply, reduced_ddotv_value, reduced_dddotu_apply,
    reduced_dddotv_value, reduced_t3_prefix, reduced_t3_terminal,
)

CSV_COLUMNS = ("suite", "instance", "check", "lhs", "rhs", "margin", "status", "note")


# The reference run. Identities hold to RTOL. The proxy torus sits above the
# critical dimension d_c = 4; the decay suite fits it and the reductions
# suite gates it. The depicted-ratio scaling block compares two ranges on a
# side wide enough that even the larger range wraps negligibly.
RTOL = 1e-10
TORUS_D, TORUS_L, TORUS_SIDE, TORUS_P = 5, 2.0, 16, 0.99
DEPICTED_L = (2.0, 4.0)
DEPICTED_SIDE = 32
NEUMANN_TERMS = 64      # of the partial sum held below each certified chain sum


@dataclass(frozen=True)
class RunConfig:
    seed: int = 7
    out: str = "reports"
    corpus_dir: str | None = None

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        with open(path) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError(f"a config must be a JSON object, not {type(raw).__name__}")
        bad = set(raw) - set(cls.__dataclass_fields__)
        if bad:
            raise ValueError(f"unknown config keys: {sorted(bad)}")
        types = {"seed": int, "out": str, "corpus_dir": (str, type(None))}
        for key, value in raw.items():
            if not isinstance(value, types[key]) or isinstance(value, bool):
                raise ValueError(f"config {key} has the wrong type: {value!r}")
        return cls(**raw)


# Row kinds: how a row's status follows from its numbers, and what the
# summary reads from it.
#   identity    lhs = rhs up to an error (the margin) of at most RTOL
#   inequality  lhs <= rhs with margin rhs - lhs; trivial when the bound
#               diverges, vacuous when it passes with lhs = 0
#   floor       a slack v printed as (0, v, v): a difference held above a
#               small floor, or the worst rhs - lhs of a bound over arrays
#   gate        an outcome decided by a rule of its own (a flag, a window, a
#               chosen threshold); its margin is not a bound's slack
#   report      a measured number with no pass or fail
KINDS = ("identity", "inequality", "floor", "gate", "report")
SLACK_KINDS = ("inequality", "floor")   # the summary's worst margin reads these


@dataclass
class Row:
    suite: str
    instance: str
    check: str
    lhs: float
    rhs: float
    margin: float        # the error, the slack or a flag, as the kind says
    status: str          # pass / fail / trivial (bound diverges) / report / error
    note: str = ""
    kind: str = "gate"   # one of KINDS; a row built by hand decides its own status

    @property
    def failed(self) -> bool:
        return self.status in ("fail", "error")


def _fmt(v) -> str:
    if isinstance(v, float):
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        if math.isnan(v):
            return "nan"
        return "%.12g" % v
    return str(v)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


# Upward float certification for inequality right-hand sides. The bounds are
# exact inequalities with no mathematical slack, but several attain equality
# (e.g. the one-layer correlation bound at y = o on the full bond set), where
# the two evaluation routes differ by accumulation order alone. One part in
# 2^46 dominates that rounding noise while staying ten orders below any real
# violation.
UPWARD = 1.0 + 2.0 ** -46


def _row(kind, suite, instance, check, lhs, rhs, margin, ok, note="") -> Row:
    """The one place a status follows from an outcome: a report row reads
    ``report`` and any other row ``pass`` while ``ok`` holds; both fail when
    it does not."""
    status = ("report" if kind == "report" else "pass") if ok else "fail"
    return Row(suite, instance, check, lhs, rhs, margin, status, note, kind)


def _ineq_row(suite, instance, check, lhs, rhs, note="") -> Row:
    """Inequality row, zero mathematical slack; infinite bounds pass trivially."""
    if math.isinf(rhs):
        return Row(suite, instance, check, lhs, rhs, math.inf, "trivial",
                   note or "bound diverges", "inequality")
    return _row("inequality", suite, instance, check, lhs, rhs, rhs - lhs,
                lhs <= rhs * UPWARD, note)


def _ident_row(suite, instance, check, lhs, rhs, note="", err=None) -> Row:
    """Identity row; the error defaults to the relative gap of lhs and rhs."""
    if err is None:
        err = _rel(lhs, rhs)
    return _row("identity", suite, instance, check, lhs, rhs, err, err <= RTOL, note)


def _err_row(suite, instance, check, err, note="") -> Row:
    """Identity row of a precomputed error, printed as (err, 0, err)."""
    return _ident_row(suite, instance, check, err, 0.0, note, err=err)


def _floor_row(suite, instance, check, v, ok, note="") -> Row:
    return _row("floor", suite, instance, check, 0.0, v, v, ok, note)


def _gate_row(suite, instance, check, lhs, rhs, margin, ok, note="") -> Row:
    return _row("gate", suite, instance, check, lhs, rhs, margin, ok, note)


def _report_row(suite, instance, check, value, rhs=math.inf, margin=math.inf,
                note="", ok=True) -> Row:
    return _row("report", suite, instance, check, value, rhs, margin, ok, note)


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

FULL_BETAS = (0.1, 0.5, 1.0)
CAPPED_BETAS = (0.1, 0.5)

CORPUS_SHAPES = (
    ("single_bond", [0, 1], [(0, 1)], FULL_BETAS),
    ("path3", [0, 1, 2], [(0, 1), (1, 2)], FULL_BETAS),
    ("triangle", [0, 1, 2], [(0, 1), (1, 2), (0, 2)], FULL_BETAS),
    ("cycle4", [0, 1, 2, 3], [(0, 1), (1, 2), (2, 3), (0, 3)], FULL_BETAS),
    ("cycle4_chord", [0, 1, 2, 3],
     [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)], FULL_BETAS),
    ("k4", [0, 1, 2, 3],
     [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], CAPPED_BETAS),
    ("grid2x3", [0, 1, 2, 3, 4, 5],
     [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)], CAPPED_BETAS),
    ("cycle5", [0, 1, 2, 3, 4],
     [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], FULL_BETAS),
)


def default_corpus() -> list:
    """(instance id, graph) pairs for the built-in corpus, ordered."""
    out = []
    for name, verts, bonds, betas in CORPUS_SHAPES:
        for beta in betas:
            g = build_graph(verts, [(u, v, 1.0) for u, v in bonds], beta=beta)
            out.append((f"{name}@b{beta:g}", g))
    return out


def corpus_by_graph() -> list:
    """One instance per corpus shape, at its largest corpus beta."""
    picked = {}
    for iid, g in default_corpus():
        name = iid.split("@")[0]
        picked[name] = (iid, g)
    return [picked[name] for name, *_ in CORPUS_SHAPES]


def load_corpus(cfg: RunConfig) -> list:
    if cfg.corpus_dir is None:
        return default_corpus()
    names = sorted(fn for fn in os.listdir(cfg.corpus_dir) if fn.endswith(".json"))
    if not names:
        raise GraphError(f"no corpus graphs under {cfg.corpus_dir}")
    corpus = [(fn[:-5], load_graph(os.path.join(cfg.corpus_dir, fn))) for fn in names]
    for iid, g in corpus:
        if g.n_vertices < 2:      # every suite measures from o to some x != o
            raise GraphError(f"corpus graph {iid} has one vertex; the suites need two")
    return corpus


def emit_corpus(out_dir: str) -> list:
    cdir = os.path.join(out_dir, "corpus")
    os.makedirs(cdir, exist_ok=True)
    written = []
    for iid, g in default_corpus():
        path = os.path.join(cdir, iid.replace("@", "_") + ".json")
        save_graph(g, path)
        written.append(path)
    return written


# ---------------------------------------------------------------------------
# suite: identities
# ---------------------------------------------------------------------------

def _identities_instance(iid: str, g: CouplingGraph, cfg: RunConfig) -> list:
    rows = []
    rows.append(_ident_row("identities", iid, "partition_function",
                           partition_function(g),
                           spin_expectation(g)))
    labs = g.labels
    for x, y in itertools.combinations(labs, 2):
        rows.append(_ident_row("identities", iid, f"two_point[{x},{y}]",
                               correlation(g, x, y),
                               spin_expectation(g, (x, y))))
    for quad in itertools.combinations(labs, 4):
        rows.append(_ident_row("identities", iid, f"four_point[{','.join(map(str, quad))}]",
                               four_point(g, *quad),
                               spin_expectation(g, quad)))
    g0 = g.with_beta(0.0)
    rows.append(_ident_row("identities", iid, "beta0_partition",
                           partition_function(g0), 1.0))
    c0 = correlation(g0, labs[0], labs[-1])
    rows.append(_ident_row("identities", iid, "beta0_two_point", c0, 0.0, err=abs(c0)))
    worst = math.inf
    note = ""
    for x, y in itertools.combinations(labs, 2):
        full = correlation(g, x, y)
        for b in range(g.n_bonds):
            sub = tuple(k for k in range(g.n_bonds) if k != b)
            gap = full - correlation(g, x, y, restriction=sub)
            if gap < worst:
                worst, note = gap, f"pair=({x},{y}) dropped_bond={b}"
    rows.append(_floor_row("identities", iid, "volume_monotonicity", worst,
                           worst >= -1e-14, note))
    return rows


# ---------------------------------------------------------------------------
# suite: sst
# ---------------------------------------------------------------------------

def _bond_subsets(g: CouplingGraph) -> list:
    nb = g.n_bonds
    return [tuple(b for b in range(nb) if mask >> b & 1) for mask in range(1 << nb)]


def _sampled_layer_pairs(g: CouplingGraph) -> list:
    """Deterministic (B, B') samples: nested pairs plus one non-superset."""
    nb = g.n_bonds
    full = tuple(range(nb))
    half = tuple(range(nb // 2 + 1))
    pairs = [(full, full), (half, full)]
    if nb >= 2:
        pairs.append((full[:1], full[:1]))          # B' == B, proper subset of lattice
        pairs.append((full, tuple(range(1, nb))))    # B' missing a bond of B
    return list(dict.fromkeys(pairs))               # half == full below three bonds


def _bound_row(iid: str, check: str, lhs, rhs, note) -> Row:
    """Worst-margin sst floor row of the bound lhs <= rhs over broadcast arrays.

    The slack is the smallest rhs - lhs, taken at its first entry in C order,
    whose index ``note`` turns into the row's note; the row fails if any
    lhs > rhs * UPWARD.
    """
    lhs, rhs = np.broadcast_arrays(np.asarray(lhs, dtype=float),
                                   np.asarray(rhs, dtype=float))
    gap = rhs - lhs
    at = np.unravel_index(int(np.argmin(gap)), gap.shape)
    viol = int(np.count_nonzero(lhs > rhs * UPWARD))
    return _floor_row("sst", iid, check, float(gap[at]), viol == 0, note(*at))


def _sst_instance(iid: str, g: CouplingGraph, cfg: RunConfig) -> list:
    rows = []
    G = two_point_matrix(g)
    labs = g.labels
    o = labs[0]
    io = g.index(o)
    subsets = _bond_subsets(g)
    S, T = subset_connection_tables(g)

    xs = [ix for ix in range(g.n_vertices) if ix != io]
    rhs = G[io] * G[:, xs].T                      # G(o,y) G(y,x), x != o
    rows.append(_bound_row(iid, "lmm1_all_subsets", S[:, xs], rhs,
                           lambda m, i, y: f"B={subsets[m]} x={labs[xs[i]]} y={labs[y]}"))

    pairs = _sampled_layer_pairs(g)
    xy = [(x, y) for x in labs if x != o for y in labs]
    lhs = np.array([sst_lhs_rows(g, B, Bp).ravel() for B, Bp in pairs])
    pair_note = lambda k, j: "B={} B'={} x={} y={}".format(*pairs[k], *xy[j])
    nested = [k for k, (B, Bp) in enumerate(pairs) if set(B) <= set(Bp)]
    rows.append(_bound_row(iid, "two_layer_bound", lhs[nested], rhs.ravel(),
                           lambda k, j: pair_note(nested[k], j)))
    worst_sw = max(_rel(float(a), float(b)) for k in nested
                   for a, b in zip(lhs[k], sst_switch_rows(g, *pairs[k])))
    rows.append(_err_row("sst", iid, "switch_identity", worst_sw,
                         "max rel err over sampled nested layer pairs"))

    try:
        C = DiagramEngine(fields_from_graph(g), None).chain0     # (I - Gt * Gt)^-1
    except NonContracting as exc:
        rows.append(_ineq_row("sst", iid, "bubble_chain_bound", 0.0, math.inf, str(exc)))
    else:
        rhs = [float((G[io] * G[:, g.index(x)] * C[:, g.index(y)]).sum()) for x, y in xy]
        rows.append(_bound_row(iid, "bubble_chain_bound", lhs, rhs, pair_note))

    rows.append(_bound_row(iid, "lmm2_all_subsets", T, triangle_tensor(G)[io],
                           lambda m, x, y: f"B={subsets[m]} x={labs[x]} y={labs[y]}"))

    quads = list(itertools.combinations(labs, 4))
    if quads:
        lhs = [four_point(g, *quad) for quad in quads]
        rhs = []
        for quad in quads:
            w, x, y, z = (g.index(q) for q in quad)
            rhs.append(G[w, x] * G[y, z] + G[w, y] * G[x, z] + G[w, z] * G[x, y])
        rows.append(_bound_row(iid, "lebowitz_four_point", lhs, rhs,
                               lambda k: f"quad={quads[k]}"))

    gap = min(extraction_gap(g.beta * g.couplings[b]) for b in range(g.n_bonds))
    rows.append(_floor_row("sst", iid, "tanh_extraction_gap", gap, gap >= 0))
    return rows


# ---------------------------------------------------------------------------
# suite: lace
# ---------------------------------------------------------------------------

def _lace_targets(g: CouplingGraph) -> list:
    """The origin's farthest vertex plus one of its neighbours."""
    dist = {0: 0}
    q = collections.deque([0])
    while q:
        u = q.popleft()
        for b in g.incident(u):
            v = g.other_end(b, u)
            if v not in dist:
                dist[v] = dist[u] + 1
                q.append(v)
    far = max(dist, key=lambda v: (dist[v], v))
    nb = g.other_end(g.incident(0)[0], 0)
    targets = [g.labels[far]]
    if nb != far:
        targets.append(g.labels[nb])
    return targets


def _lace_instance(iid: str, g: CouplingGraph, cfg: RunConfig) -> list:
    rows = []
    orders = [("given", None),
              ("reversed", tuple(range(g.n_bonds - 1, -1, -1)))]
    for x in _lace_targets(g):
        for oname, order in orders:
            rep = verify_pi0_decomposition(g, x, order=order, rtol=RTOL)
            rows.append(_gate_row("lace", iid, f"pi0_reconstruction[x={x},order={oname}]",
                                  rep["split"], rep["direct"],
                                  rep["reconstruction_rel_err"], rep["passed"],
                                  f"laces={sorted(rep['n_histogram'].items())}"))
            pou = check_partition_of_unity(g, x, order=order)
            bad = pou["not_exactly_one"] + pou["greedy_mismatch"]
            rows.append(_gate_row("lace", iid, f"partition_of_unity[x={x},order={oname}]",
                                  float(pou["checked"] - bad), float(pou["checked"]),
                                  -float(bad), pou["passed"], f"classes={pou['checked']}"))
    return rows


# ---------------------------------------------------------------------------
# suite: theorems
# ---------------------------------------------------------------------------

def _theorems_instance(iid: str, g: CouplingGraph, cfg: RunConfig) -> list:
    rows = []
    ev = TheoremEvaluator(g)
    labs = g.labels
    o = labs[0]
    anchor_sets = [(a,) for a in labs] + [tuple(labs)]

    try:
        ev.theorem_rhs(1, o)
        rows.append(_gate_row("theorems", iid, "diagonal_rejected", 0.0, 1.0, -1.0,
                              False, "diagonal request was not refused"))
    except GraphError:
        rows.append(_gate_row("theorems", iid, "diagonal_rejected", 1.0, 1.0, 0.0, True))

    # pi0 and pi0-tilde, and theta' and theta'' of an anchor set, rows over x != o
    p1, pt = pi0_rows(g)
    for i, x in enumerate(labs[1:]):
        rhs = ev.theorem_rhs(1, x, strict=False)
        rows.append(_ineq_row("theorems", iid, f"thm1[x={x}]", float(p1[i]), rhs))
    theta = [theta_rows(g, A) for A in anchor_sets]
    for i, x in enumerate(labs[1:]):
        for A, (t1, _) in zip(anchor_sets, theta):
            lhs = float(t1[i])
            rhs = ev.theorem_rhs(2, x, A=A, strict=False)
            rows.append(_ineq_row("theorems", iid, f"thm2[x={x},A={A}]", lhs, rhs))
    for i, x in enumerate(labs[1:]):
        for j, y in enumerate(labs):
            lhs = float(pt[i, j])
            rhs = ev.theorem_rhs(3, x, y=y, strict=False)
            rows.append(_ineq_row("theorems", iid, f"thm3[x={x},y={y}]", lhs, rhs))
    for i, x in enumerate(labs[1:]):
        for j, y in enumerate(labs):
            for A, (_, t2) in zip(anchor_sets, theta):
                lhs = float(t2[i, j])
                rhs = ev.theorem_rhs(4, x, A=A, y=y, strict=False)
                rows.append(_ineq_row("theorems", iid,
                                      f"thm4[x={x},y={y},A={A}]", lhs, rhs))
    # the certified chain sum from the origin pair field, which every bound
    # above reads, against a Neumann partial sum of nonnegative terms below it
    for m, name in ((1, "1"), (None, "inf")):
        check = f"chain_enclosure[m={name}]"
        try:
            eng = ev.engine(m)
            upper, = eng._resolve([()])
        except NonContracting as exc:
            rows.append(_ineq_row("theorems", iid, check, 0.0, math.inf, str(exc)))
            continue
        term = lower = eng._delta_pair()
        for _ in range(NEUMANN_TERMS - 1):
            lower = lower + (term := eng.apply_kernel(term, ("U",)))
        rows.append(_floor_row("theorems", iid, check, float((upper - lower).min()),
                               not np.any(lower > upper * UPWARD),
                               f"{NEUMANN_TERMS} terms below, contraction {eng._pair.r:.4g}"))
    return rows


# ---------------------------------------------------------------------------
# suite: reductions
# ---------------------------------------------------------------------------

def _naive_apply(eng: DiagramEngine, P: np.ndarray, spec) -> np.ndarray:
    """Quadruple-sum kernel application, the slow oracle."""
    f = eng.f
    mid = eng._mid_matrix(spec)
    if spec[0] in ("U", "ddotU"):
        K = np.einsum("yw,vw,zv->yzvw", f.Gt, f.G, mid)
    else:
        a = spec[1]
        K = (np.einsum("y,w,vw,zv->yzvw", f.G[:, a], f.Gt[a], f.G, mid)
             + np.einsum("yw,v,w,zv->yzvw", f.Gt, f.Gt[:, a], f.G[a], mid))
    return np.einsum("yz,yzvw->vw", P, K)


def _reductions_graph_rows(iid: str, g: CouplingGraph, cfg: RunConfig) -> list:
    rows = []
    fb = fields_from_graph(g)
    n = fb.n
    P = np.random.default_rng(cfg.seed).uniform(0.0, 1.0, size=(n, n))
    eng = DiagramEngine(fb, 1)

    worst = 0.0
    for spec in (("U",), ("dotU", min(1, n - 1)), ("ddotU", 0),
                 ("dddotU", min(1, n - 1), 0)):
        fast = eng.apply_kernel(P, spec)
        slow = _naive_apply(eng, P, spec)
        worst = max(worst, float(np.max(np.abs(fast - slow))
                                 / max(np.max(np.abs(slow)), 1e-300)))
    rows.append(_err_row("reductions", iid, "kernel_factorization", worst,
                         "max rel gap, factorized vs quadruple sum"))

    I = np.eye(n)
    eng_u = DiagramEngine(fb, 1, E=I, T3=reduced_t3_prefix(fb))
    eng_v = DiagramEngine(fb, 1, E=I, T3=reduced_t3_terminal(fb), gate=False)
    a, v, x = 0, min(1, n - 1), n - 1
    checks = [
        ("reduced_ddotU0", np.max(np.abs(eng_u.apply_kernel(P, ("ddotU", a))
                                         - reduced_ddotu_apply(fb, P, a)))),
        ("reduced_dddotU0", np.max(np.abs(eng_u.apply_kernel(P, ("dddotU", a, v))
                                          - reduced_dddotu_apply(fb, P, a, v)))),
        ("reduced_ddotV0", abs(eng_v.terminal_value(P, ("ddotV", a), x)
                               - reduced_ddotv_value(fb, P, x, a))),
        ("reduced_dddotV0", abs(eng_v.terminal_value(P, ("dddotV", a, v), x)
                                - reduced_dddotv_value(fb, P, x, a, v))),
    ]
    rows += [_err_row("reductions", iid, name, float(err)) for name, err in checks]

    gap = key_lemma_gap_matrix(fb.Tau, fb.Gt)
    rows.append(_floor_row("reductions", iid, "key_lemma_matrix", gap, gap >= -1e-14))

    x = n - 1
    v1 = eng.terminal_value(eng._delta_pair(), ("V",), x)
    gt3 = float(fb.Gt[0, x] ** 3)
    rows.append(_ident_row("reductions", iid, "V1_terminal_cube", v1, gt3,
                           "V1(o,o;x) against Gt(x)^3"))

    vals = []
    for m in (1, 2, 3):
        e = DiagramEngine(fb, m)
        vals.append(e.terminal_value(e._delta_pair(), ("V",), x))
    mono = min(vals[1] - vals[0], vals[2] - vals[1])
    rows.append(_floor_row("reductions", iid, "chain_monotone_in_m", mono, mono >= -1e-14))
    return rows


def _hyp1_row(iid: str, G, tau, L: float) -> Row:
    h1 = hyp1_report(G, tau, L)
    return _gate_row("reductions", iid, "hyp1_threshold", h1["value"], 2.0,
                     2.0 - h1["value"], h1["passed"],
                     f"tau_l1={h1['tau_l1']:.4g} sup={h1['sup_ratio']:.4g}")


def _reductions_torus_rows(cfg: RunConfig) -> list:
    rows = []
    d, p = TORUS_D, TORUS_P

    # Gate block: the reference torus pins down the psi identity and the
    # hypothesis reports at the size used by the decay suite.
    iid = f"torus_d{d}L{TORUS_L:g}s{TORUS_SIDE}"
    G, tau = rw_green_proxy(SpreadOut(d, TORUS_L), TORUS_SIDE, p)
    Gt = tilde_g(G, tau)

    rep = psi1_report(Gt, tau)
    rows.append(_ident_row("reductions", iid, "psi1_identity",
                           rep["identity_rel"], RTOL, err=rep["identity_rel"]))
    for nm in ("slack_step2", "slack_step3", "key_lemma_tau", "key_lemma_gt"):
        rows.append(_floor_row("reductions", iid, f"psi1_{nm}", rep[nm], rep[nm] >= -1e-14))

    rows.append(_hyp1_row(iid, G, tau, TORUS_L))
    h2 = hyp2_report(G, Gt, TORUS_L)
    rows.append(_floor_row("reductions", iid, "hyp2_lower", h2["min_gap"],
                           h2["dominates"], "Gt dominates G minus delta"))
    rows.append(_report_row("reductions", iid, "hyp2_upper_constant", h2["scale"],
                            note="sup Gt / (theta <x>^(2-d))"))
    h3 = hyp3_report(Gt, tau)
    for j in (1, 2):
        rows.append(_report_row("reductions", iid, f"hyp3_ratio_j{j}", h3[f"ratio_{j}"],
                                note="sup tau^*j * Gt / Gt"))

    # Scaling block, on its own wider side.
    sside = DEPICTED_SIDE
    ratios = {}
    for L in DEPICTED_L:
        iid = f"torus_d{d}L{L:g}s{sside}"
        G, tau = rw_green_proxy(SpreadOut(d, L), sside, p)
        Gt = tilde_g(G, tau)
        rows.append(_hyp1_row(iid, G, tau, L))
        r = depicted_ratios(G, Gt)
        ratios[L] = r
        for k in sorted(r):
            rows.append(_report_row("reductions", iid, f"depicted_{k}", r[k]))
    L1, L2 = DEPICTED_L
    scale = (L2 / L1) ** d
    for k in ("ratio0", "ratio1", "ratio2"):
        q = ratios[L1][k] / ratios[L2][k]
        rows.append(_gate_row("reductions", f"torus_d{d}s{sside}",
                              f"depicted_scaling_{k}", q, scale, q / scale,
                              scale / 4.0 <= q <= scale * 4.0,
                              f"L={L1:g} over L={L2:g}, factor-4 window"))

    for (dd, a, b, R) in ((1, 2.0, 1.0, 100), (3, 2.0, 2.0, 50), (5, 6.0, 3.0, 10)):
        consts = {}
        for L in (1.0, 2.0, 4.0):
            rep = convolution_bound_check(dd, a, b, L, R)
            consts[L] = rep["constant"]
            rows.append(_report_row("reductions", f"convbd_d{dd}a{a:g}b{b:g}",
                                    f"constant[L={L:g}]", rep["constant"],
                                    ok=math.isfinite(rep["constant"])))
        spread = max(consts.values()) / min(consts.values())
        rows.append(_gate_row("reductions", f"convbd_d{dd}a{a:g}b{b:g}",
                              "constant_spread", spread, 4.0, 4.0 - spread,
                              spread <= 4.0, f"R={R}"))

    rng = np.random.default_rng(cfg.seed)
    worst = 0.0
    for dd, side2 in ((1, 33), (2, 17), (3, 9)):
        f = Field(dd, side2, rng.uniform(0.0, 1.0, size=(side2,) * dd))
        h = Field(dd, side2, rng.uniform(0.0, 1.0, size=(side2,) * dd))
        a = convolve(f, h, method="fft")
        bb = convolve(f, h, method="direct")
        worst = max(worst, float(np.max(np.abs(a.data - bb.data))))
    rows.append(_gate_row("reductions", "conv_battery", "fft_vs_direct", worst, 1e-12,
                          1e-12 - worst, worst <= 1e-12))
    return rows


# ---------------------------------------------------------------------------
# suite: decay
# ---------------------------------------------------------------------------

def _decay_rows() -> list:
    rows = []
    d, L, side, p = TORUS_D, TORUS_L, TORUS_SIDE, TORUS_P
    iid = f"proxy_d{d}L{L:g}s{side}p{p:g}"

    rep = decay_trend(d=d, L=L, side=side, p=p)
    if rep.get("degenerate"):
        rows.append(_gate_row("decay", iid, "fit", 0.0, 0.0, 0.0, False,
                              "unexpected degenerate proxy"))
        return rows
    h1 = rep["hyp1"]
    rows.append(_gate_row("decay", iid, "hyp1_gate", h1["value"], 2.0,
                          2.0 - h1["value"], h1["passed"]))
    target = 3.0 * (d - 2)
    e = rep["exponent"]
    rows.append(_gate_row("decay", iid, "fitted_exponent", e, target,
                          1.5 - abs(e - target), abs(e - target) <= 1.5,
                          f"fit radii {rep['fit_radii']}, flat mode removed"))
    rows.append(_report_row("decay", iid, "fitted_exponent_raw", rep["exponent_raw"],
                            target, note=f"flat mode {rep['flat_mode']:.3g} left in"))
    for r in sorted(rep["rows"]):
        rr = rep["rows"][r]
        rows.append(_report_row("decay", iid, f"envelope_ratio[r={r}]", rr["envelope_ratio"],
                                note=rr["flag"] or f"rho={rr['rho']:.3g}"))
    rows.append(_report_row("decay", iid, "wrap_mass", rep["wrap_mass"]))

    deg = decay_trend(d=d, L=L, side=8, p=0.0)
    flagged = bool(deg.get("degenerate"))
    rows.append(_gate_row("decay", f"proxy_d{d}L{L:g}s8p0", "degenerate_flagged",
                          float(flagged), 1.0, float(flagged) - 1.0, flagged,
                          deg.get("reason", "")))

    # Doubled-side fit over the same probe window: the exponent should hold
    # its band or move toward the target as wrap shrinks.
    big = decay_trend(d=d, L=L, side=2 * side, p=p,
                      radii=list(range(1, side // 2 + 1)),
                      fit_radii=rep["fit_radii"])
    if not big.get("degenerate"):
        eb = big["exponent"]
        rows.append(_gate_row("decay", f"proxy_d{d}L{L:g}s{2*side}p{p:g}",
                              "fitted_exponent_doubled_side", eb, target,
                              abs(e - target) + 0.25 - abs(eb - target),
                              abs(eb - target) <= abs(e - target) + 0.25,
                              "toward target or stable versus base side"))

    small = decay_trend(d=d, L=L, side=12, p=p)
    if not small.get("degenerate"):
        rows.append(_report_row("decay", f"proxy_d{d}L{L:g}s12p{p:g}",
                                "fitted_exponent_smaller_box", small["exponent"], target,
                                abs(e - target) - abs(small["exponent"] - target),
                                "side 12 versus side 16 drift"))
    return rows


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

def _run_over_instances(fn, instances, cfg: RunConfig) -> list:
    return [row for iid, g in instances for row in fn(iid, g, cfg)]


# suite name -> runner, in the order ``run all`` takes them
SUITES = {
    "identities": lambda cfg: _run_over_instances(_identities_instance, load_corpus(cfg), cfg),
    "sst": lambda cfg: _run_over_instances(_sst_instance, load_corpus(cfg), cfg),
    "lace": lambda cfg: _run_over_instances(_lace_instance, corpus_by_graph(), cfg),
    "theorems": lambda cfg: _run_over_instances(_theorems_instance, load_corpus(cfg), cfg),
    "reductions": lambda cfg: (_run_over_instances(_reductions_graph_rows, corpus_by_graph(), cfg)
                               + _reductions_torus_rows(cfg)),
    "decay": lambda cfg: _decay_rows(),
}


def run_suite(suite: str, cfg: RunConfig) -> list:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    return SUITES[suite](cfg)


def write_report(rows: list, out_dir: str, runtimes: dict) -> tuple:
    os.makedirs(out_dir, exist_ok=True)
    rows = sorted(rows, key=lambda r: (r.suite, r.instance, r.check))
    csv_path = os.path.join(out_dir, "report.csv")
    with open(csv_path, "w", newline="") as fh:
        fh.write(f"# generated {time.strftime('%Y-%m-%dT%H:%M:%S')}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in rows:
            writer.writerow((r.suite, r.instance, r.check, _fmt(r.lhs),
                             _fmt(r.rhs), _fmt(r.margin), r.status, r.note))
    summary_path = os.path.join(out_dir, "summary.txt")
    n_fail = sum(r.failed for r in rows)
    with open(summary_path, "w") as fh:
        fh.write(f"checks: {len(rows)}  failed: {n_fail}\n")
        for suite in sorted({r.suite for r in rows}):
            sub = [r for r in rows if r.suite == suite]
            bad = [r for r in sub if r.failed]
            counts = ", ".join(f"{sum(r.status == st for r in sub)} {st}"
                               for st in ("pass", "trivial", "report", "fail"))
            vacuous = sum(r.kind == "inequality" and r.status == "pass" and r.lhs == 0
                          for r in sub)
            slacks = [r.margin for r in sub
                      if r.kind in SLACK_KINDS and math.isfinite(r.margin)]
            worst = min(slacks) if slacks else math.inf
            fh.write(f"{suite}: {len(sub)} checks ({counts}), {len(bad)} failed, "
                     f"{vacuous} vacuous, worst margin {_fmt(worst)}, "
                     f"runtime {runtimes.get(suite, 0.0):.1f}s\n")
            for r in bad[:20]:
                fh.write(f"  FAIL {r.instance} {r.check} margin={_fmt(r.margin)} {r.note}\n")
    return csv_path, summary_path, n_fail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="currentkit",
                                 description="verification suites for current "
                                             "expansions and diagram bounds")
    sub = ap.add_subparsers(dest="command", required=True)
    ap_corpus = sub.add_parser("corpus", help="write the built-in corpus")
    ap_corpus.add_argument("--out", default="reports")
    ap_run = sub.add_parser("run", help="run one suite or all")
    ap_run.add_argument("suite", choices=[*SUITES, "all"])
    ap_run.add_argument("--config", default=None)
    ap_run.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    if args.command == "corpus":
        for path in emit_corpus(args.out):
            print(path)
        return 0

    try:
        cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
        if args.out is not None:
            cfg = replace(cfg, out=args.out)
        load_corpus(cfg)        # a missing or empty corpus_dir is a config error
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    suites = list(SUITES) if args.suite == "all" else [args.suite]
    rows, runtimes = [], {}
    try:
        for suite in suites:
            t0 = time.time()
            rows.extend(run_suite(suite, cfg))
            runtimes[suite] = time.time() - t0
    except CapExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    csv_path, summary_path, n_fail = write_report(rows, cfg.out, runtimes)
    with open(summary_path) as fh:
        print(fh.read(), end="")
    print(f"report: {csv_path}")
    return 1 if n_fail else 0


if __name__ == "__main__":
    sys.exit(main())
