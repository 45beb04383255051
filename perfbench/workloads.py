"""The benchmark's workloads: seeded inputs, then the steps that make rows.

Each workload has a ``setup(seed, out_dir)`` that builds the program's inputs
from the seed alone, and a ``steps(inputs)`` that lists named callables, each
returning ``currentkit.cli.Row`` objects. Steps are short (well under a
second each) because run.py takes each step's fastest time over a run's
rounds; steps of one workload may share state and must run in order. Rows this file makes carry the same
pass/fail rule as the suites: identities at relative tolerance 1e-10,
inequalities with the suites' upward allowance on the bound side, and
infinite bounds as ``trivial``. NOTES.md says why each workload was chosen.
"""
from __future__ import annotations

import math
import os

import numpy as np

from currentkit import cli, currents, diagrams, fields, graphs, laces

RTOL = 1e-10

# corpus_graphs: bond couplings J ~ U[0.5, 1.5], drawn per instance in corpus order.
J_LOW, J_HIGH = 0.5, 1.5

# spread_out_exact: the paper's d=1, L=2 box spread-out coupling on the torus.
SPREAD_SPEC = (1, 2.0)
SPREAD_SIDES = (5, 6)          # 10 and 12 bonds
SPREAD_BETA = (0.2, 0.5)
UNITY_MAX_SIDE = 5             # the partition-of-unity sweep is a Python loop over 3^nb
SWITCH_CAP = 16

# torus_proxy: the reference torus of the default RunConfig, (d, L, side, p).
# The side-32 fields of the default config do not fit the benchmark's time
# and memory budget; NOTES.md has the numbers.
TORUS = (5, 2.0, 16, 0.99)
DECAY_TARGET_BAND = 1.5
FFT_BATTERY = ((1, 33), (2, 17), (3, 9))   # (d, side) of the seeded FFT-vs-direct fields


def _ident(suite, instance, check, lhs, rhs) -> cli.Row:
    rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
    return cli.Row(suite, instance, check, lhs, rhs, rel, "pass" if rel <= RTOL else "fail")


def _ineq(suite, instance, check, lhs, rhs) -> cli.Row:
    if math.isinf(rhs):
        return cli.Row(suite, instance, check, lhs, rhs, math.inf, "trivial",
                       "bound diverges")
    return cli.Row(suite, instance, check, lhs, rhs, rhs - lhs,
                   "pass" if lhs <= rhs * cli.UPWARD else "fail")


def _gate(suite, instance, check, value, target, ok, note="") -> cli.Row:
    return cli.Row(suite, instance, check, value, target, 0.0,
                   "pass" if ok else "fail", note)


# ---------------------------------------------------------------------------
# corpus_graphs
# ---------------------------------------------------------------------------

CORPUS_SUITES = ("identities", "sst", "lace", "theorems")


def corpus_setup(seed: int, out_dir: str) -> list:
    """One RunConfig per instance, each reading a corpus directory of one graph.

    The configs come in the order load_corpus reads a whole corpus, so a suite
    run instance by instance does the same work in the same order as one
    run_suite call, and each instance can be timed as its own step.
    """
    rng = np.random.default_rng(seed)
    cdir = os.path.join(out_dir, "corpus")
    names = []
    for name, verts, bonds, betas in cli.CORPUS_SHAPES:
        for beta in betas:
            js = rng.uniform(J_LOW, J_HIGH, size=len(bonds))
            g = graphs.build_graph(verts, [(u, v, float(j)) for (u, v), j in zip(bonds, js)],
                                   beta=beta)
            iid = f"{name}@b{beta:g}"
            os.makedirs(os.path.join(cdir, iid), exist_ok=True)
            graphs.save_graph(g, os.path.join(cdir, iid, f"{iid}.json"))
            names.append(f"{iid}.json")
    return [cli.RunConfig(seed=seed, corpus_dir=os.path.join(cdir, fn[:-5]))
            for fn in sorted(names)]


def corpus_steps(cfgs: list) -> list:
    steps = []
    for suite in CORPUS_SUITES:
        if suite == "lace":     # run_suite("lace") reads the built-in corpus, not corpus_dir
            steps.append((suite, lambda: cli.run_suite("lace", cfgs[0])))
            continue
        steps += [(f"{suite}/{os.path.basename(c.corpus_dir)}",
                   lambda suite=suite, c=c: cli.run_suite(suite, c)) for c in cfgs]
    return steps


# ---------------------------------------------------------------------------
# spread_out_exact
# ---------------------------------------------------------------------------

def spread_setup(seed: int, out_dir: str) -> list:
    rng = np.random.default_rng(seed)
    spec = graphs.SpreadOut(*SPREAD_SPEC)
    out = []
    for side in SPREAD_SIDES:
        beta = float(rng.uniform(*SPREAD_BETA))
        out.append((f"spread_d1L2s{side}@b{beta:.6f}", graphs.embed_on_torus(spec, side, beta)))
    return out


def _spread_parts(iid: str, g) -> list:
    """The checks on one spread-out torus, as steps run in this order."""
    s = "spread_out"
    labs = g.labels
    o = labs[0]
    far = labs[len(labs) // 2]
    full = tuple(range(g.n_bonds))
    ev = []     # the TheoremEvaluator, built by thm1 and reused by thm2

    def tables():
        rows = [_ident(s, iid, "partition_function",
                       currents.partition_function(g), currents.spin_expectation(g))]
        G = currents.two_point_matrix(g)
        for i in range(len(labs)):
            for j in range(i + 1, len(labs)):
                rows.append(_ident(s, iid, f"two_point[{labs[i]},{labs[j]}]", float(G[i, j]),
                                   currents.spin_expectation(g, (labs[i], labs[j]))))
        return rows

    def thm1():
        ev.append(diagrams.TheoremEvaluator(g))
        return [_ineq(s, iid, f"thm1[x={x}]", currents.pi0(g, x),
                      ev[0].theorem_rhs(1, x, strict=False)) for x in labs[1:]]

    def thm2():
        # A = {o} and A = {x} take both branches of the theorem-2 bound.
        return [_ineq(s, iid, f"thm2[x={x},A={A}]", currents.theta_prime(g, x, A),
                      ev[0].theorem_rhs(2, x, A=A, strict=False))
                for x in labs[1:] for A in ((o,), (x,))]

    def switch(y):
        return [_ident(s, iid, f"switch_identity[x={far},y={y}]",
                       currents.sst_lhs(g, far, y, B=full, B_prime=full, cap=SWITCH_CAP),
                       currents.sst_switch_rhs(g, far, y, cap=SWITCH_CAP))]

    def reconstruct():
        rep = laces.verify_pi0_decomposition(g, far, rtol=RTOL)
        return [_gate(s, iid, f"pi0_reconstruction[x={far}]", rep["split"], rep["direct"],
                      rep["passed"])]

    def unity():
        pou = laces.check_partition_of_unity(g, far)
        return [_gate(s, iid, f"partition_of_unity[x={far}]",
                      float(pou["not_exactly_one"] + pou["greedy_mismatch"]),
                      float(pou["checked"]), pou["passed"])]

    parts = [("tables", tables), ("thm1", thm1), ("thm2", thm2)]
    parts += [(f"switch[y={y}]", lambda y=y: switch(y)) for y in (o, labs[1], far)]
    parts.append(("reconstruct", reconstruct))
    if len(labs) <= UNITY_MAX_SIDE:
        parts.append(("unity", unity))
    return [(f"{iid}/{name}", step) for name, step in parts]


def spread_steps(instances: list) -> list:
    return [step for iid, g in instances for step in _spread_parts(iid, g)]


# ---------------------------------------------------------------------------
# torus_proxy
# ---------------------------------------------------------------------------

def torus_setup(seed: int, out_dir: str) -> dict:
    rng = np.random.default_rng(seed)
    battery = [(rng.uniform(0.0, 1.0, size=(side,) * d), rng.uniform(0.0, 1.0, size=(side,) * d))
               for d, side in FFT_BATTERY]
    return {"battery": battery}


def _proxy_parts() -> list:
    """The reductions suite's reference-torus gates, plus depicted ratios at that side."""
    d, L, side, p = TORUS
    iid = f"torus_d{d}L{L:g}s{side}"
    f = {}      # fields made by one step and read by the later ones

    def green():
        f["G"], f["tau"] = fields.rw_green_proxy(graphs.SpreadOut(d, L), side, p)
        f["Gt"] = fields.tilde_g(f["G"], f["tau"])
        return []

    def psi1():
        rep = fields.psi1_report(f["Gt"], f["tau"])
        rows = [_gate("reductions", iid, "psi1_identity", rep["identity_rel"], RTOL,
                      rep["identity_rel"] <= RTOL)]
        for nm in ("slack_step2", "slack_step3", "key_lemma_tau", "key_lemma_gt"):
            rows.append(_gate("reductions", iid, f"psi1_{nm}", rep[nm], 0.0, rep[nm] >= -1e-14))
        return rows

    def hyp12():
        h1 = fields.hyp1_report(f["G"], f["tau"], L)
        h2 = fields.hyp2_report(f["G"], f["Gt"], L)
        return [_gate("reductions", iid, "hyp1_threshold", h1["value"], 2.0, h1["passed"]),
                _gate("reductions", iid, "hyp2_lower", h2["min_gap"], 0.0, h2["dominates"])]

    def hyp3():
        h3 = fields.hyp3_report(f["Gt"], f["tau"])
        return [cli.Row("reductions", iid, f"hyp3_ratio_j{j}", h3[f"ratio_{j}"], math.inf,
                        math.inf, "report") for j in (1, 2)]

    def depicted():
        ratios = fields.depicted_ratios(f["G"], f["Gt"])
        return [cli.Row("reductions", iid, f"depicted_{k}", ratios[k], math.inf, math.inf,
                        "report") for k in sorted(ratios)]

    return [("proxy/green", green), ("proxy/psi1", psi1), ("proxy/hyp12", hyp12),
            ("proxy/hyp3", hyp3), ("proxy/depicted", depicted)]


def _battery_rows(battery: list) -> list:
    worst = 0.0
    for (d, side), (a, b) in zip(FFT_BATTERY, battery):
        f, h = fields.Field(d, side, a), fields.Field(d, side, b)
        fast = fields.convolve(f, h, method="fft")
        slow = fields.convolve(f, h, method="direct")
        worst = max(worst, float(np.max(np.abs(fast.data - slow.data))))
    return [_gate("reductions", "conv_battery", "fft_vs_direct", worst, 1e-12, worst <= 1e-12)]


def _decay_rows() -> list:
    """The decay suite's gates at the reference side, without its doubled side."""
    d, L, side, p = TORUS
    iid = f"proxy_d{d}L{L:g}s{side}p{p:g}"
    rep = diagrams.decay_trend(d=d, L=L, side=side, p=p)
    target = 3.0 * (d - 2)
    if rep.get("degenerate"):
        return [_gate("decay", iid, "fit", 0.0, 0.0, False, "unexpected degenerate proxy")]
    return [
        _gate("decay", iid, "hyp1_gate", rep["hyp1"]["value"], 2.0, rep["hyp1"]["passed"]),
        _gate("decay", iid, "fitted_exponent", rep["exponent"], target,
              abs(rep["exponent"] - target) <= DECAY_TARGET_BAND),
        cli.Row("decay", iid, "fitted_exponent_raw", rep["exponent_raw"], target,
                math.inf, "report"),
    ]


def _degenerate_rows() -> list:
    d, L = TORUS[:2]
    deg = diagrams.decay_trend(d=d, L=L, side=8, p=0.0)
    return [_gate("decay", f"proxy_d{d}L{L:g}s8p0", "degenerate_flagged",
                  1.0 if deg.get("degenerate") else 0.0, 1.0, bool(deg.get("degenerate")))]


def torus_steps(inputs: dict) -> list:
    return _proxy_parts() + [("fft_battery", lambda: _battery_rows(inputs["battery"])),
                             ("decay", _decay_rows), ("decay/degenerate", _degenerate_rows)]


WORKLOADS = {
    "corpus_graphs": (corpus_setup, corpus_steps),
    "spread_out_exact": (spread_setup, spread_steps),
    "torus_proxy": (torus_setup, torus_steps),
}
