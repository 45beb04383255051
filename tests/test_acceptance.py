"""Acceptance gate.

One test per acceptance criterion. Each prints a single pass/fail line with
the measured numbers and asserts at the stated tolerance and runtime budget,
so a plain pytest run doubles as the acceptance report.
"""
from __future__ import annotations

import math
import time

import numpy as np

from currentkit import build_graph
from currentkit.cli import RunConfig, run_suite
from currentkit.diagrams import DiagramEngine, decay_trend, fields_from_graph
from currentkit.fields import (
    Field, convolution_bound_check, convolve, depicted_ratios, hyp1_report,
    rw_green_proxy, tilde_g,
)
from currentkit.graphs import SpreadOut


def _verdict(name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line, flush=True)
    assert ok, line


def _suite(name: str):
    t0 = time.monotonic()
    rows = run_suite(name, RunConfig())
    dt = time.monotonic() - t0
    bad = [r for r in rows if r.failed]
    return rows, bad, dt


def test_criterion_1_identities():
    rows, bad, dt = _suite("identities")
    _verdict("criterion 1, partition and correlation identities at rtol 1e-10",
             not bad and dt <= 10.0,
             f"{len(rows)} checks, {len(bad)} failed, {dt:.1f}s of 10s")


def test_criterion_2_switching_bounds():
    rows, bad, dt = _suite("sst")
    _verdict("criterion 2, switching and conditioned-measure inequalities",
             not bad and dt <= 60.0,
             f"{len(rows)} checks, {len(bad)} failed, {dt:.1f}s of 60s")


def test_criterion_3_lace_reconstruction():
    rows, bad, dt = _suite("lace")
    insts = {r.instance for r in rows}
    orders_ok = all(
        any("order=given" in r.check for r in rows if r.instance == i)
        and any("order=reversed" in r.check for r in rows if r.instance == i)
        for i in insts)
    recon = [r for r in rows if r.check.startswith("pi0_reconstruction")]
    unity = [r for r in rows if r.check.startswith("partition_of_unity")]
    _verdict("criterion 3, exploration reconstruction at rtol 1e-10 under "
             "two bond orders, plus partition of unity",
             not bad and dt <= 120.0 and orders_ok and recon and unity,
             f"{len(rows)} checks over {len(insts)} graphs "
             f"({len(recon)} reconstructions, {len(unity)} unity sweeps), "
             f"{len(bad)} failed, {dt:.1f}s of 120s")


def test_criterion_4_theorem_bounds():
    rows, bad, dt = _suite("theorems")
    insts = {r.instance for r in rows}
    fams = {r.check.split("[")[0] for r in rows}
    tri = [r.check for r in rows if r.instance == "triangle@b1"]
    singletons = all(any(f"A=({v},)" in c for c in tri) for v in (0, 1, 2))
    full = any("A=(0, 1, 2)" in c for c in tri)
    ys = all(any(f"thm3[x=1,y={v}]" == c for c in tri) for v in (0, 1, 2))
    _verdict("criterion 4, four diagrammatic bounds on every corpus instance "
             "with singleton and full through sets and every extra endpoint",
             not bad and dt <= 600.0 and len(insts) == 22
             and fams == {"diagonal_rejected", "thm1", "thm2", "thm3", "thm4",
                          "chain_enclosure"}
             and singletons and full and ys,
             f"{len(rows)} checks on {len(insts)} instances, {len(bad)} failed, "
             f"{dt:.1f}s of 600s")


def test_criterion_5_convolution_constants():
    t0 = time.monotonic()
    bad = []
    spreads = []
    for (d, a, b, R) in ((1, 2.0, 1.0, 100), (3, 2.0, 2.0, 50), (5, 6.0, 3.0, 10)):
        consts = {}
        for L in (1.0, 2.0, 4.0):
            c = convolution_bound_check(d, a, b, L, R)["constant"]
            consts[L] = c
            if not math.isfinite(c):
                bad.append((d, a, b, L))
        spread = max(consts.values()) / min(consts.values())
        spreads.append(spread)
        if spread > 4.0:
            bad.append((d, a, b, "spread", spread))
    dt = time.monotonic() - t0
    _verdict("criterion 5, weighted convolution constants finite with spread "
             "at most 4 over ranges 1, 2, 4",
             not bad and dt <= 120.0,
             f"spreads {', '.join('%.2f' % s for s in spreads)}, "
             f"violations {bad}, {dt:.1f}s of 120s")


def test_criterion_6_torus_scaling_and_decay():
    t0 = time.monotonic()
    d, p = 5, 0.99
    # gate: the decay-size torus satisfies the norm hypothesis
    G16, tau16 = rw_green_proxy(SpreadOut(d, 2.0), 16, p)
    gate = hyp1_report(G16, tau16, 2.0)
    # scaling: ranges compared on a torus wide enough for the larger range
    ratios = {}
    hyp_ok = True
    for L in (2.0, 4.0):
        G, tau = rw_green_proxy(SpreadOut(d, L), 32, p)
        Gt = tilde_g(G, tau)
        hyp_ok = hyp_ok and hyp1_report(G, tau, L)["passed"]
        ratios[L] = depicted_ratios(G, Gt)
    scale = (4.0 / 2.0) ** d
    quotients = [ratios[2.0][k] / ratios[4.0][k]
                 for k in ("ratio0", "ratio1", "ratio2")]
    in_window = all(scale / 4.0 <= q <= scale * 4.0 for q in quotients)
    rep = decay_trend(d=d, L=2.0, side=16, p=p)
    exp_ok = (not rep["degenerate"]) and abs(rep["exponent"] - 9.0) <= 1.5
    dt = time.monotonic() - t0
    _verdict("criterion 6, reduction ratios scale like the range to the "
             "minus d within factor 4, chain decay exponent 9 +- 1.5",
             gate["passed"] and hyp_ok and in_window and exp_ok and dt <= 300.0,
             f"quotients {', '.join('%.1f' % q for q in quotients)} vs {scale:g}, "
             f"exponent {rep.get('exponent', float('nan')):.2f}, "
             f"{dt:.1f}s of 300s")


def test_criterion_7_kernel_factorization_and_fft():
    g = build_graph(range(4),
                    [(i, j, 1.0) for i in range(4) for j in range(i + 1, 4)],
                    beta=0.5)
    eng = DiagramEngine(fields_from_graph(g), 1)
    f = eng.f
    rng = np.random.default_rng(123)
    P = rng.uniform(0.1, 1.0, size=(4, 4))
    worst_rel = 0.0
    for spec in (("U",), ("dotU", 2), ("ddotU", 1), ("dddotU", 0, 3)):
        mid = eng._mid_matrix(spec)
        want = np.zeros((4, 4))
        for a in range(4):
            for b in range(4):
                for c in range(4):
                    for k in range(4):
                        w = P[c, k] * mid[k, a]
                        if spec[0] in ("U", "ddotU"):
                            want[a, b] += w * f.Gt[c, b] * f.G[a, b]
                        else:
                            a0 = spec[1]
                            want[a, b] += w * (
                                f.G[c, a0] * f.Gt[a0, b] * f.G[a, b]
                                + f.Gt[a, a0] * f.G[a0, b] * f.Gt[c, b])
        got = eng.apply_kernel(P, spec)
        worst_rel = max(worst_rel,
                        float(np.max(np.abs(got - want) / np.abs(want))))
    worst_fft = 0.0
    for d, side in ((1, 31), (2, 15), (3, 9)):
        u = Field(d, side, rng.uniform(0.0, 1.0, size=(side,) * d))
        v = Field(d, side, rng.uniform(0.0, 1.0, size=(side,) * d))
        gap = np.abs(convolve(u, v, method="fft").data
                     - convolve(u, v, method="direct").data)
        worst_fft = max(worst_fft, float(gap.max()))
    _verdict("criterion 7, factorized kernels match quadruple sums at rtol "
             "1e-10 and fft convolution matches the direct sum to 1e-12",
             worst_rel <= 1e-10 and worst_fft <= 1e-12,
             f"kernel rel err {worst_rel:.2e}, fft gap {worst_fft:.2e}")
