"""Torus field calculus: convolution, proxy pair, kernels, reports.

The proxy fields live on the fundamental domain of the reflections and the
reports transform them with per-axis cosine transforms; four-point sums are
dot products of pair products, summed over the axes the probes move along
in full and over the others on the fundamental domain. The oracles at the
end of this file take the full-torus routes instead, on ``full`` copies
(a SymField's values on the whole torus): the half-spectrum solve for G,
``convolve`` for Gt, nested ``convolve`` calls for psi1 and hyp3, rfftn
per radius for the decay kernel term, and reflected, rolled copies of all
legs for each four-point sum and triangle. A long-double cosine reference decides which route is closer to
the exact values.
"""
from __future__ import annotations

import math
import os
import re
import resource
import subprocess
import sys
import tracemalloc
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from currentkit import (
    CapExceeded, Field, GraphError, NonContracting, SpreadOut, SymField,
    convolution_bound_check, convolve, depicted_ratios,
    hyp1_report, hyp2_report, hyp3_report, key_lemma_gap_matrix,
    psi1_report, rw_green_proxy, step_distribution, tilde_g,
    triangle_tensor, weighted_norm, wrap_mass,
)
from currentkit import currents, fields
from currentkit.diagrams import decay_trend
from currentkit.fields import (
    _cosines, _dct, _four_point_sums, _hat, _idct, _inv, _mirror, _pair_product,
    _probe_pairs, _triangle, _triangle_quads, _turns, _weights,
    centered_norm_grid, default_probes,
)


def zeros(d, side):
    return Field(d, side, np.zeros((side,) * d))


def delta(d, side):
    f = zeros(d, side)
    f.data[(0,) * d] = 1.0
    return f


def linf(f):
    return float(np.abs(f.data).max())


def value(f, x):
    """A whole-torus Field's value at the torus point x."""
    return float(f.data[tuple(int(c) % f.side for c in x)])


def conv(a, b):
    """The torus convolution of two whole-torus arrays of one shape."""
    return convolve(Field(a.ndim, len(a), a), Field(b.ndim, len(b), b)).data


def _unfold(f, k):
    """f on the whole torus along axes 0..k-1 and on the fundamental domain
    along the others."""
    return f.data[np.ix_(*(_mirror(f.side),) * k)]


def full(f):
    """A SymField's values on the whole torus."""
    return Field(f.d, f.side, _unfold(f, f.d))


def fold(f):
    """f on its fundamental domain; GraphError unless f equals its mirror
    image in every axis up to 1e-14 relative to max |f|."""
    sym = SymField(f.d, f.side, f.data[(slice(0, f.side // 2 + 1),) * f.d].copy())
    diff = full(sym).data
    diff -= f.data
    dev = float(np.abs(diff, out=diff).max())
    if dev > 1e-14 * linf(f):
        raise GraphError(f"field is not reflection-symmetric: "
                         f"max |f(-x_k) - f(x)| = {dev:.3g}")
    return sym


def rng_field(d, side, seed):
    rng = np.random.default_rng(seed)
    return Field(d, side, rng.uniform(0.0, 1.0, size=(side,) * d))


def sym_field(d, side, seed):
    """A random field plus its mirror images along each axis, folded."""
    f = rng_field(d, side, seed).data
    for ax in range(d):
        f = f + np.roll(np.flip(f, ax), 1, axis=ax)
    return fold(Field(d, side, f))


def reversed_field(f):
    """x -> f(-x)."""
    rev = f.data[(slice(None, None, -1),) * f.d]
    return Field(f.d, f.side, np.roll(rev, 1, axis=tuple(range(f.d))))


def shifted_field(f, x):
    """x0 -> f(x0 - x)."""
    return Field(f.d, f.side,
                 np.roll(f.data, tuple(int(c) for c in x), axis=tuple(range(f.d))))


def test_field_shape_guard():
    with pytest.raises(GraphError):
        Field(2, 4, np.zeros((4, 5)))
    with pytest.raises(GraphError):
        SymField(2, 8, np.zeros((5, 4)))


def test_delta_is_convolution_identity():
    f = rng_field(2, 7, 1)
    g = convolve(delta(2, 7), f)
    assert np.allclose(g.data, f.data, atol=1e-13)


def test_convolution_commutes_and_sums_mass():
    f = rng_field(2, 6, 2)
    g = rng_field(2, 6, 3)
    a = convolve(f, g)
    b = convolve(g, f)
    assert np.allclose(a.data, b.data, atol=1e-12)
    assert a.data.sum() == pytest.approx(f.data.sum() * g.data.sum(), rel=1e-12)


def test_fft_matches_direct():
    for d, side, seed in ((1, 9, 4), (2, 5, 5), (3, 4, 6)):
        f = rng_field(d, side, seed)
        g = rng_field(d, side, seed + 50)
        a = convolve(f, g, method="fft")
        b = convolve(f, g, method="direct")
        assert np.max(np.abs(a.data - b.data)) <= 1e-12
    with pytest.raises(GraphError):
        convolve(f, g, method="sideways")


def test_reversed_and_shifted():
    f = rng_field(2, 5, 7)
    assert np.allclose(reversed_field(reversed_field(f)).data, f.data)
    assert value(reversed_field(f), (2, 1)) == pytest.approx(value(f, (-2, -1)))
    s = shifted_field(f, (1, 3))
    assert value(s, (2, 4)) == pytest.approx(value(f, (1, 1)))


def test_weighted_norm_floor():
    assert weighted_norm((0, 0), 2.0) == 2.0
    assert weighted_norm((3, 4), 2.0) == 5.0
    grid = full(centered_norm_grid(2, 6, 1.5, 1.0)).data
    assert grid[0, 0] == 1.5
    assert grid[3, 0] == pytest.approx(3.0)
    # symmetry under reflection through the origin
    assert grid[1, 2] == pytest.approx(grid[-1, -2])


def test_step_distribution_mass():
    D = step_distribution(SpreadOut(2, 1.0), 7)
    assert D.total() == pytest.approx(1.0, rel=1e-12)
    assert D.value((0, 0)) == 0.0


def test_proxy_identity_and_mass():
    spec = SpreadOut(2, 1.0)
    p = 0.5
    G, tau = (full(f) for f in rw_green_proxy(spec, 9, p))
    dlt = delta(2, 9).data
    # exact resolvent identity G = delta + tau * G
    resid = np.max(np.abs(G.data - (dlt + convolve(tau, G).data)))
    assert resid <= 1e-12
    # geometric total mass
    assert (G.data - dlt).sum() == pytest.approx(p / (1.0 - p), rel=1e-10)
    assert tau.data.sum() == pytest.approx(p, rel=1e-12)


def test_proxy_degenerate_and_divergent():
    G, tau = rw_green_proxy(SpreadOut(1, 1.0), 8, 0.0)
    assert np.allclose(full(G).data, delta(1, 8).data)
    assert tau.l1() == 0.0
    with pytest.raises(NonContracting):
        rw_green_proxy(SpreadOut(1, 1.0), 8, 1.0)


def test_proxy_matches_long_double_reference(monkeypatch):
    complex_calls = Counter()
    for name in ("fft", "ifft", "fftn", "ifftn"):
        def counted(*args, _real=getattr(np.fft, name), _name=name, **kwargs):
            complex_calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    spec, side, p = SpreadOut(5, 2.0), 16, 0.99
    G, _ = rw_green_proxy(spec, side, p)
    assert not complex_calls
    ref = LongDoubleProxy(spec, side, p).G
    assert float((np.abs(G.data - ref) / ref).max()) <= 1e-12


def test_tilde_g_equals_g_minus_delta_for_proxy():
    G, tau = rw_green_proxy(SpreadOut(2, 1.5), 8, 0.7)
    Gt = tilde_g(G, tau)
    assert np.max(np.abs(full(Gt).data - (full(G).data - delta(2, 8).data))) <= 1e-12


def test_tilde_g_rejects_significant_negative():
    tau = SymField(1, 6, np.array([0.0, -1.0, 0.0, 0.0]))      # -delta_1 - delta_-1
    G = fold(delta(1, 6))
    with pytest.raises(GraphError):
        tilde_g(G, tau)


def triangle_T(G, o, x, y):
    """Scalar oracle of the triangle kernel on a finite vertex set:
    sum_z G(o,z) G(z,x) G(y,z) [G(o,x) G(y,z) + G(o,y) G(z,x) + G(o,z) G(x,y)].
    With G the identity only z = o survives, and each bracket term gives 1
    on the full diagonal."""
    core = G[o, :] * G[:, x] * G[y, :]
    bracket = G[o, x] * G[y, :] + G[o, y] * G[:, x] + G[o, :] * G[x, y]
    return float(np.dot(core, bracket))


def test_triangle_identity_matrix():
    I = np.eye(4)
    assert triangle_T(I, 0, 0, 0) == pytest.approx(3.0)
    assert triangle_T(I, 0, 1, 2) == 0.0
    T = triangle_tensor(I)
    assert T[0, 0, 0] == pytest.approx(3.0)
    assert T[1, 1, 1] == pytest.approx(3.0)


def test_triangle_tensor_matches_scalar():
    rng = np.random.default_rng(11)
    G = rng.uniform(0.1, 1.0, size=(4, 4))
    G = (G + G.T) / 2
    T = triangle_tensor(G)
    for o in range(4):
        for x in range(4):
            for y in range(4):
                assert T[o, x, y] == pytest.approx(triangle_T(G, o, x, y), rel=1e-12)


def test_triangle_field_matches_direct_sum():
    """The triangle on the domain reduced in axis 2, and its full-torus
    oracle, against the sum over all 125 points z of a symmetric field."""
    G = sym_field(3, 5, 13)
    x, y = (1, 2, 0), (3, 0, 0)

    def g(*q):
        return G.value(q)

    want = 0.0
    for z0, z1, z2 in np.ndindex(5, 5, 5):
        gz = g(z0, z1, z2)
        gxz = g(x[0] - z0, x[1] - z1, -z2)
        gzy = g(z0 - y[0], z1 - y[1], z2)
        want += gz * gxz * gzy * (
            G.value(x) * gzy
            + G.value(y) * g(z0 - x[0], z1 - x[1], z2)
            + gz * g(y[0] - x[0], y[1] - x[1], 0))
    s = _four_point_sums({"G": G}, 2, _triangle_quads(x, y))
    got = _triangle(G.value, x, y, s)
    assert got == pytest.approx(want, rel=1e-10)
    assert triangle_oracle(full(G), x, y) == pytest.approx(want, rel=1e-10)


def test_convolution_bound_validation():
    with pytest.raises(GraphError):
        convolution_bound_check(2, 1.0, 2.0, 1.0, 10)   # a < b
    with pytest.raises(GraphError):
        convolution_bound_check(3, 2.0, 0.5, 1.0, 10)   # a + b <= d
    with pytest.raises(GraphError):
        convolution_bound_check(2, 2.0, 1.0, 1.0, 10)   # marginal a == d
    with pytest.raises(GraphError):
        convolution_bound_check(2, 3.0, -1.0, 1.0, 10)


def box_norm_grid(d, R, L, shift):
    """Weighted norm of (shift - y) over the box {-R..R}^d in floats."""
    offs = np.arange(-R, R + 1, dtype=float)
    sq = np.zeros((2 * R + 1,) * d)
    for ax in range(d):
        shape = [1] * d
        shape[ax] = 2 * R + 1
        sq = sq + ((float(shift[ax]) - offs).reshape(shape) ** 2)
    return np.maximum(np.sqrt(sq), float(L))


def test_convolution_bound_power_table_matches_grid_powers():
    """Gathering from the table of powers per squared norm gives the same
    floats, summed in the same order (each slice along the first axis
    pairwise, the slice sums in turn), as raising each grid to its power;
    and that sum is within 1e-15 relative of the pairwise sum of the whole
    box."""
    for d, a, b in ((1, 2.0, 1.0), (3, 2.0, 2.0), (5, 6.0, 3.0)):
        for R in (4, 6):
            for L in (1.0, 2.0, 4.0):
                got = convolution_bound_check(d, a, b, L, R)
                wY = box_norm_grid(d, R, L, (0,) * d) ** (-b)
                for x in default_probes(d, R):
                    terms = box_norm_grid(d, R, L, x) ** (-a) * wY
                    lhs = 0.0
                    for part in terms:
                        lhs += float(part.sum())
                    nx = weighted_norm(x, L)
                    env = (L ** (d - a)) * nx ** (-b) if a > d else nx ** (d - a - b)
                    assert got["ratios"][x] == lhs / env, (d, R, L, x)
                    assert abs(lhs - terms.sum()) <= 1e-15 * lhs, (d, R, L, x)


def test_convolution_bound_check_streams_the_box():
    """At d = 5, R = 10 the box has 21^5 entries; the check holds one slice
    of 21^4 entries at a time, two index grids and two gathers of it: a
    traced peak under six slices."""
    tracemalloc.start()
    try:
        convolution_bound_check(5, 6.0, 3.0, 1.0, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 8 * 21 ** 4


def test_convolution_bound_finite_constant():
    rep = convolution_bound_check(1, 2.0, 1.0, 1.0, 60)
    assert math.isfinite(rep["constant"])
    assert rep["constant"] >= max(rep["ratios"].values()) - 1e-15
    assert all(v > 0 for v in rep["ratios"].values())


def test_wrap_mass_extremes():
    f = fold(delta(2, 8))
    assert wrap_mass(f) == 0.0
    g = SymField(2, 8, np.zeros((5, 5)))
    assert wrap_mass(g) == 0.0
    g.data[4, 4] = 2.0
    assert wrap_mass(g) == 1.0


def test_hypothesis_reports_on_proxy():
    spec = SpreadOut(2, 2.0)
    G, tau = rw_green_proxy(spec, 12, 0.6)
    Gt = tilde_g(G, tau)
    h1 = hyp1_report(G, tau, 2.0)
    assert set(h1) == {"tau_l1", "sup_ratio", "value", "passed"}
    assert h1["tau_l1"] == pytest.approx(0.6, rel=1e-12)
    assert h1["value"] == max(h1["tau_l1"], h1["sup_ratio"])
    h2 = hyp2_report(G, Gt, 2.0)
    assert h2["dominates"]
    assert h2["min_gap"] >= -1e-12
    h3 = hyp3_report(Gt, tau)
    assert h3["ratio_1"] > 0 and h3["ratio_2"] > 0


def test_key_lemma_gaps_nonnegative():
    G, tau = rw_green_proxy(SpreadOut(2, 1.0), 9, 0.55)
    Gt = tilde_g(G, tau)
    tau, Gt = full(tau), full(Gt)
    assert key_lemma_gap(tau, tau) >= -1e-14
    assert key_lemma_gap(tau, Gt) >= -1e-14
    rng = np.random.default_rng(5)
    Tau = rng.uniform(0.0, 0.3, size=(5, 5))
    F = rng.uniform(0.0, 1.0, size=(5, 5))
    assert key_lemma_gap_matrix(Tau, F) >= -1e-14


def test_psi1_report_small_proxy():
    G, tau = rw_green_proxy(SpreadOut(2, 1.0), 8, 0.5)
    Gt = tilde_g(G, tau)
    rep = psi1_report(Gt, tau)
    assert rep["identity_rel"] <= 1e-10
    assert rep["slack_step2"] >= -1e-14
    assert rep["slack_step3"] >= -1e-14
    assert rep["key_lemma_tau"] >= -1e-14
    assert rep["key_lemma_gt"] >= -1e-14


def test_depicted_ratios_positive_finite():
    G, tau = rw_green_proxy(SpreadOut(3, 1.0), 8, 0.5)
    Gt = tilde_g(G, tau)
    r = depicted_ratios(G, Gt)
    assert sorted(r) == [f"ratio{k}" for k in range(6)]
    for v in r.values():
        assert math.isfinite(v) and v > 0


def test_depicted_ratios_refuses_asymmetric_field():
    """depicted_ratios takes SymFields, and folding a field that is not
    reflection-symmetric to 1e-14 relative raises."""
    G, tau = rw_green_proxy(SpreadOut(3, 1.0), 8, 0.5)
    Gt = tilde_g(G, tau)
    spike = zeros(3, 8)
    spike.data[1, 0, 0] = 1e-9 * linf(G)
    with pytest.raises(GraphError):
        fold(Field(3, 8, full(G).data + spike.data))
    with pytest.raises(GraphError):
        fold(Field(3, 8, full(Gt).data + spike.data))
    assert np.array_equal(fold(full(G)).data, G.data)


def test_depicted_ratios_traced_peak():
    """At d=5, side 16, depicted_ratios holds slices, not fields: two
    unfolded field slices, five pair products and one product buffer, each
    16^2 * 9^2 entries, and ufunc buffers and small arrays under four
    slices besides (a field unfolded on axes 0 and 1 is nine slices)."""
    G, tau = rw_green_proxy(SpreadOut(5, 2.0), 16, 0.99)
    Gt = tilde_g(G, tau)
    tracemalloc.start()
    try:
        depicted_ratios(G, Gt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 8 * 16 ** 2 * 9 ** 2


def test_decay_trend_traced_peak():
    """At d=5, side 16, decay_trend's radius loop holds its two workspace
    arrays of 16 * 9^4 entries, one rfft and one irfft output (1.125 and 1
    of those) and five arrays on the fundamental domain (psi, Gt, Gt^2, G's
    spectrum and the cached multiplicities, 9/16 of one each): under 7.5
    workspace arrays in all."""
    tracemalloc.start()
    try:
        decay_trend(d=5, L=2.0, side=16, p=0.99)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7.5 * 8 * 16 * 9 ** 4


def test_repeated_decay_trend_maps_few_new_pages():
    """After one warm-up call, decay_trend's radius loop at d=5, side 16
    writes only into pages that are already mapped: a call with all eight
    radii takes a few dozen minor page faults more than a call with one,
    where fresh per-radius temporaries took about 30 pages a radius, and a
    call maps no more pages than six arrays of 16 * 9^4 entries (its
    workspace is two). The calls run in a fresh process, since the heap
    that earlier tests leave behind decides whether fresh temporaries
    fault."""
    code = """if True:
        import resource
        from currentkit.diagrams import decay_trend

        def faults(radii):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            decay_trend(d=5, L=2.0, side=16, p=0.99, radii=radii)
            return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

        faults(None)
        print(faults(None), faults([1]))
    """
    src = str(Path(fields.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    all_radii, one = map(int, run.stdout.split())
    assert all_radii <= one + 48
    assert all_radii <= 6 * 8 * 16 * 9 ** 4 // resource.getpagesize()


def test_psi1_report_flags_step2_violation():
    # tau = -(delta_1 + delta_-1)/2 sums to -1, so (d+tau) * Gt = 0 for a
    # constant Gt = c, and rhs2 = t2 + ((d+tau) * tau)^2, which is
    # 2 t2 + t2*t2 away from the origin (t2 = (delta_1 + delta_-1)/4).
    # lhs1 = (d+t2) * (d+c^2) * (d+t2) - d = 2 t2 + t2*t2 + (1 + sum t2)^2 c^2,
    # so the slack is -(9/4) c^2 at every x != 0 and 1/8 - (9/4) c^2 at 0.
    c = 0.5
    tau = SymField(1, 6, np.array([0.0, -0.5, 0.0, 0.0]))
    Gt = SymField(1, 6, np.full(4, c))
    rep = psi1_report(Gt, tau)
    assert rep["slack_step2"] == pytest.approx(-2.25 * c * c, abs=1e-12)
    assert rep["identity_rel"] <= 1e-12


# -- transform counts ----------------------------------------------------------

@pytest.fixture
def transforms(monkeypatch):
    calls = Counter()
    for name in ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn"):
        def counted(*args, _real=getattr(np.fft, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    return calls


def test_transform_counts(transforms):
    """The proxy block runs on cosine transforms alone; decay_trend adds
    rfft/irfft pairs along the probe axis alone, one for each radius and
    index of axis 1 (5 at side 8)."""
    G, tau = rw_green_proxy(SpreadOut(2, 1.0), 8, 0.5)
    Gt = tilde_g(G, tau)
    psi1_report(Gt, tau)
    hyp1_report(G, tau, 1.0)
    hyp2_report(G, Gt, 1.0)
    hyp3_report(Gt, tau)
    wrap_mass(Gt)
    assert not transforms
    radii = [1, 2, 3, 4]
    decay_trend(d=2, L=1.0, side=8, p=0.5, radii=radii)
    assert set(transforms) <= {"rfft", "irfft"}
    assert transforms["rfft"] == transforms["irfft"] == 5 * len(radii)


# -- oracles: the full-torus routes ----------------------------------------------

def green_oracle(spec, side, p):
    """Proxy G solved on the half spectrum of the whole torus."""
    D = full(step_distribution(spec, side)).data
    S = _inv(1.0 / (1.0 - p * _hat(D).real), D.shape)
    return Field(spec.d, side, np.where(S < 0, 0.0, S))


def tilde_g_oracle(G, tau):
    out = convolve(tau, G)
    out.data[out.data < 0] = 0.0
    return out


def key_lemma_gap(tau, f):
    """Min of ((delta+tau) * f)^2 - (delta+tau^2) * f^2; nonnegative iff the
    square-absorption lemma holds pointwise for this pair."""
    dlt, t, g = delta(tau.d, tau.side).data, tau.data, f.data
    e = conv(dlt + t * t, g * g)
    s = conv(dlt + t, g)
    return float((s * s - e).min())


def psi1_oracle(Gt, tau):
    """psi1_report by nested convolutions, one convolve per product. The two
    sides of the step-1 identity take the unit delta exactly, (d+a) * b =
    b + a * b, so their residual carries no rounding of the delta itself."""
    dlt, t, g = delta(Gt.d, Gt.side).data, tau.data, Gt.data
    t2 = t * t
    g2 = g * g
    a = g2 + t2 + conv(t2, g2)                          # (d+t2) * (d+g2) - d
    lhs1 = a + t2 + conv(a, t2)                         # ... * (d+t2) - d
    b = t2 + t2 + conv(t2, t2)                          # (d+t2) * (d+t2) - d
    rhs1 = b + g2 + conv(b, g2)                         # (d+t2) + (d+t2) * t2 + ... - d
    resid = float(np.abs(lhs1 - rhs1).max())
    s_tau = conv(dlt + t, t)
    s2_gt = conv(conv(dlt + t, dlt + t), g)
    rhs2 = t2 + s_tau * s_tau + s2_gt * s2_gt
    s_gt = conv(dlt + t, g)
    rhs3 = g2 + s_gt * s_gt + s2_gt * s2_gt
    scale = max(np.abs(lhs1).max(), 1.0)
    return {"identity_residual": resid, "identity_rel": resid / scale,
            "slack_step2": float((rhs2 - lhs1).min()),
            "slack_step3": float((rhs3 - rhs2).min()),
            "key_lemma_tau": key_lemma_gap(tau, tau),
            "key_lemma_gt": key_lemma_gap(tau, Gt)}


def hyp3_oracle(Gt, tau):
    cur = Gt
    mask = Gt.data > 1e-300
    out = {}
    for j in (1, 2):
        cur = convolve(tau, cur)
        out[f"ratio_{j}"] = float((cur.data[mask] / Gt.data[mask]).max())
    return out


def four_point_oracle(A, B, C, D, u, up, v, vp):
    """sum_x A(u-x) B(x-u') C(v-x) D(x-v') from reflected, rolled copies."""
    return float((shifted_field(reversed_field(A), u).data * shifted_field(B, up).data
                  * shifted_field(reversed_field(C), v).data
                  * shifted_field(D, vp).data).sum())


def triangle_oracle(G, x, y):
    """Triangle kernel rooted at the torus origin, on the whole torus:
    sum_z G(z) G(x-z) G(z-y) [G(x) G(z-y) + G(y) G(z-x) + G(y-x) G(z)], as
    three sums of A(z) = G(z) G(x-z) times a pair of rolled copies."""
    z = (0,) * G.d
    A = G.data * shifted_field(reversed_field(G), x).data
    total = 0.0
    for c, a, b in ((value(G, x), y, y), (value(G, y), y, x),
                    (value(G, tuple(q - p for p, q in zip(x, y))), z, y)):
        pair = shifted_field(G, a).data * shifted_field(G, b).data
        total += c * float((pair * A).sum())
    return total


def depicted_oracle(G, Gt):
    """depicted_ratios on the whole torus: one four_point_oracle per sum of
    families 0 to 4 and one triangle_oracle per triangle of family 5."""
    probes = _probe_pairs(G.d)
    z = (0,) * G.d

    def gt(a, b):
        return value(Gt, tuple(q - p for p, q in zip(a, b)))

    def gfull(a, b):
        return value(G, tuple(q - p for p, q in zip(a, b)))

    quads = [(z, p, q, r) for p in probes[1:3] for q in probes[1:3] for r in probes[2:4]]
    out = {}
    for k, legs in enumerate(((Gt, Gt, Gt, Gt), (G, Gt, Gt, Gt), (G, Gt, G, Gt))):
        out[f"ratio{k}"] = max(four_point_oracle(*legs, *q) / (gt(*q[:2]) * gt(*q[2:]))
                               for q in quads)
    out["ratio3"] = max(
        four_point_oracle(Gt, G, Gt, G, u, w, v, w) / (gt(u, w) * gt(v, w))
        for u in probes[1:3] for v in probes[2:4] for w in probes[:2])
    out["ratio4"] = max(
        four_point_oracle(G, Gt, G, Gt, z, up, z, vp)
        / (gfull(z, up) * gt(z, vp) + gt(z, up) * gfull(z, vp))
        for up in probes[1:4] for vp in probes[1:4])
    out["ratio5"] = max(
        triangle_oracle(G, x, a) / (gfull(z, x) * gfull(z, a) * gfull(x, a))
        for x in probes[1:4] for a in probes[1:4] if x != a)
    return out


def decay_oracle(G, tau, Gt, radii):
    """decay_trend's kernel term and mean-subtracted cube per radius on the
    whole torus: psi from one spectrum product, then one rfftn/irfftn pair
    per radius. {r: (term1, decaying)}."""
    d, shape = G.d, G.data.shape
    g2 = Field(d, G.side, Gt.data * Gt.data)
    E = _hat(tau.data * tau.data) + 1.0
    psi = _inv((_hat(g2.data) + 1.0) * E * E, shape)
    Ghat = _hat(G.data)
    flat = Gt.data.mean()
    out = {}
    for r in radii:
        x = (r,) + (0,) * (d - 1)
        conv = _inv(_hat(psi * shifted_field(Gt, x).data) * Ghat, shape)
        core = value(Gt, x) - flat
        out[r] = (float((Gt.data * shifted_field(g2, x).data * conv).sum()),
                  core ** 3 if core > 0 else math.nan)
    return out


class LongDoubleProxy:
    """G, Gt = G - delta and decay_trend's per-radius values in long double on
    the fundamental domain: cosine transforms with the angles reduced mod
    side before the cosine, and the probe axis convolved directly."""

    def __init__(self, spec, side, p):
        self.d, self.side = spec.d, side
        m = side // 2 + 1
        k = np.arange(m)
        pi = 4 * np.arctan(np.longdouble(1))
        self.w = np.full(m, 2, dtype=np.longdouble)
        self.w[0] = 1
        if side % 2 == 0:
            self.w[-1] = 1
        self.M = np.cos(2 * pi * (np.outer(k, k) % side).astype(np.longdouble) / side) * self.w
        D = step_distribution(spec, side).data.astype(np.longdouble)
        self.tau = np.longdouble(p) * D
        self.G = self.inv(1 / (1 - self.cos(self.tau)))
        self.Gt = self.G.copy()
        self.Gt[(0,) * spec.d] -= 1

    def cos(self, A, axes=None):
        for ax in range(A.ndim) if axes is None else axes:
            A = np.moveaxis(np.tensordot(self.M, A, axes=(1, ax)), 0, ax)
        return A

    def inv(self, S, axes=None):
        n = S.ndim if axes is None else len(axes)
        return self.cos(S, axes) / np.longdouble(self.side) ** n

    def weights(self, d):
        w = np.ones((), dtype=np.longdouble)
        for _ in range(d):
            w = np.multiply.outer(w, self.w)
        return w

    def decay(self, radii):
        """{r: (term1, decaying)}, as decay_oracle."""
        d, side, Gt = self.d, self.side, self.Gt
        g2 = Gt * Gt
        E = self.cos(self.tau * self.tau) + 1
        psi = self.inv((self.cos(g2) + 1) * E * E)
        flat = (self.weights(d) * Gt).sum() / np.longdouble(side) ** d
        k = np.arange(side)
        unfold = np.minimum(k, side - k)
        axes = range(1, d)
        Gk = self.cos(self.G, axes)[unfold]
        W = self.weights(d - 1)
        out = {}
        for r in radii:
            A = self.cos(psi[unfold] * np.roll(Gt[unfold], r, axis=0), axes)
            conv = self.inv(sum(A[z] * np.roll(Gk, z, axis=0) for z in range(side)), axes)
            core = Gt[(r,) + (0,) * (d - 1)] - flat
            out[r] = ((Gt[unfold] * np.roll(g2[unfold], r, axis=0) * conv * W).sum(),
                      core ** 3)
        return out


PROXIES = [(2, 1.0, 8, 0.5), (3, 1.0, 8, 0.5), (2, 1.0, 9, 0.55), (5, 2.0, 16, 0.99)]


@pytest.fixture(scope="module", params=PROXIES, ids=lambda c: "d%d_L%g_s%d" % c[:3])
def proxy(request):
    d, L, side, p = request.param
    G, tau = rw_green_proxy(SpreadOut(d, L), side, p)
    return request.param, G, tau, tilde_g(G, tau)


def test_cosine_route_against_long_double_and_full_torus():
    """At d=5, side 16, p=0.99, against the long-double reference: the
    cosine route's largest error of G is at most the full-torus route's, and
    its largest relative errors of G over the far half (centered sup-norm >
    side/4) and of decay_trend's term1 and mean-subtracted cube over the
    radii are within twice the full-torus route's."""
    spec, side, p = SpreadOut(5, 2.0), 16, 0.99
    ref = LongDoubleProxy(spec, side, p)
    G, tau = rw_green_proxy(spec, side, p)
    old_G = green_oracle(spec, side, p)
    new_err = np.abs(G.data - ref.G)
    old_err = np.abs(old_G.data[(slice(0, side // 2 + 1),) * 5] - ref.G)
    assert new_err.max() <= old_err.max()
    far = np.zeros((), dtype=bool)
    for _ in range(5):
        far = np.logical_or.outer(far, np.arange(side // 2 + 1) > side / 4)
    assert (new_err / ref.G)[far].max() <= 2 * (old_err / ref.G)[far].max()
    rep = decay_trend(d=5, L=2.0, side=side, p=p)
    radii = sorted(rep["rows"])
    want = ref.decay(radii)
    old = decay_oracle(old_G, full(tau), tilde_g_oracle(old_G, full(tau)), radii)
    for k, key in enumerate(("term1", "decaying")):
        new_rel = max(abs((rep["rows"][r][key] - want[r][k]) / want[r][k]) for r in radii)
        old_rel = max(abs((old[r][k] - want[r][k]) / want[r][k]) for r in radii)
        assert new_rel <= 2 * old_rel, key


def test_four_point_sums_against_long_double():
    """Three G-Gt four-point sums at d=5, side 16, on the domain reduced in
    axes 2 to 4, within 1e-15 relative of their long-double values on the
    whole torus."""
    G, tau = rw_green_proxy(SpreadOut(5, 2.0), 16, 0.99)
    Gt = tilde_g(G, tau)
    probes = _probe_pairs(5)
    z = (0,) * 5
    quads = [(z, probes[1], z, probes[2]), (z, probes[2], probes[1], probes[3]),
             (z, probes[1], probes[2], probes[4])]
    got = _four_point_sums({"G": G, "Gt": Gt}, 2,
                           [tuple(zip(("G", "Gt", "G", "Gt"), q)) for q in quads])
    G, Gt = full(G), full(Gt)
    for s, (u, up, v, vp) in zip(got, quads):
        want = (shifted_field(reversed_field(G), u).data.astype(np.longdouble)
                * shifted_field(Gt, up).data
                * shifted_field(reversed_field(G), v).data
                * shifted_field(Gt, vp).data).sum()
        assert abs(s - want) <= 1e-15 * want


def test_proxy_and_tilde_g_match_full_torus(proxy):
    (d, L, side, p), G, tau, Gt = proxy
    want = green_oracle(SpreadOut(d, L), side, p)
    assert np.abs(full(G).data - want.data).max() <= 1e-15 * linf(want)
    want = tilde_g_oracle(full(G), full(tau))
    assert np.abs(full(Gt).data - want.data).max() <= 1e-15 * linf(want)


def test_psi1_report_matches_nested_convolutions(proxy):
    _, _, tau, Gt = proxy
    got = psi1_report(Gt, tau)
    want = psi1_oracle(full(Gt), full(tau))
    assert set(got) == set(want)
    for key in want:
        assert got[key] == pytest.approx(want[key], rel=0.0, abs=1e-16), key


def test_hyp3_report_matches_nested_convolutions(proxy):
    _, _, tau, Gt = proxy
    got = hyp3_report(Gt, tau)
    want = hyp3_oracle(full(Gt), full(tau))
    for key in want:
        assert got[key] == pytest.approx(want[key], rel=1e-12), key


def test_depicted_ratios_match_rolled_four_points(proxy):
    _, G, _, Gt = proxy
    got = depicted_ratios(G, Gt)
    want = depicted_oracle(full(G), full(Gt))
    for key in want:
        assert got[key] == pytest.approx(want[key], rel=1e-12), key


def test_decay_trend_matches_per_radius_convolution(proxy):
    (d, L, side, p), G, tau, Gt = proxy
    rep = decay_trend(d=d, L=L, side=side, p=p)
    want = decay_oracle(full(G), full(tau), full(Gt), sorted(rep["rows"]))
    for r, (term1, _) in want.items():
        row = rep["rows"][r]
        assert row["term1"] == pytest.approx(term1, rel=1e-12), r
        rho = term1 / row["term0"]
        est = row["term0"] + (term1 / (1.0 - rho) if rho < 1.0 else term1)
        assert row["estimate"] == pytest.approx(est, rel=1e-12), r


# -- bitwise oracles: the routes that the batched ones replaced ----------------

def rolled_convolve(f, g):
    """convolve(method="direct") as one rolled copy of g per nonzero f(x),
    added in turn."""
    out = np.zeros_like(f.data)
    axes = tuple(range(f.d))
    for idx in np.argwhere(f.data != 0):
        out += f.data[tuple(idx)] * np.roll(g.data, tuple(idx), axis=axes)
    return out


def per_axis_dct(a, side, axes=None):
    """The cosine transform along ``axes`` (default all) with a fresh
    product and a fresh index-0 sum for every axis, the axes in place: a
    batched matmul by the cosines of indices 1..m-1 over the axes before
    it, or a vector-matrix product for the last axis."""
    M = _cosines(side)[:, 1:]
    shape = a.shape
    for ax in range(a.ndim) if axes is None else axes:
        if ax == a.ndim - 1:
            a = a[..., 1:] @ M.T + a[..., :1]
        else:
            b = a.reshape(math.prod(shape[:ax]), shape[ax], -1)
            a = (np.matmul(M, b[:, 1:]) + b[:, :1]).reshape(shape)
    return a


def per_axis_idct(S, side, axes=None):
    """Inverse of per_axis_dct: the zero mode along ``axes`` taken out
    before the transform and added once after it."""
    axes = range(S.ndim) if axes is None else axes
    zero = tuple(slice(0, 1) if ax in axes else slice(None) for ax in range(S.ndim))
    S = S.copy()
    mean = S[zero].copy()
    S[zero] = 0.0
    a = per_axis_dct(S, side, axes)
    a += mean
    a /= float(side) ** len(axes)
    return a


def decay_layout_turns(b, side, inverse=False):
    """``_turns`` along axes 1.. of b, an array of shape (side, m, ..., m),
    in decay_trend's workspace layout; the result in b's shape."""
    d, m = b.ndim, side // 2 + 1
    X = np.empty((side, m + 1 if d > 1 else 1, m ** max(d - 2, 0)))
    X[:, :m].reshape(b.shape)[...] = b
    return _turns(X, np.empty_like(X), side, d - 1, inverse)[:, :m].reshape(b.shape)


def weighted_four_point_oracle(fields, k, quads):
    """Each sum of ``_four_point_sums`` on its own, as the route before the
    weights were folded: for each slice along axis k, its left and right
    pair products of the fields unfolded on the k leading axes, multiplied,
    weighted by the multiplicities and summed pairwise; the slice sums
    summed pairwise."""
    first = next(iter(fields.values()))
    d, side = first.d, first.side
    w = _weights(d - k, side)
    cuts = ([((slice(None),) * k + (c,), w[c]) for c in range(side // 2 + 1)]
            if d > k else [((), w)])
    unfolded = {name: _unfold(f, k) for name, f in fields.items()}
    sums = []
    for (A, u), (B, up), (C, v), (D, vp) in quads:
        left = _pair_product(unfolded[A], u[:k], unfolded[B], up[:k])
        right = _pair_product(unfolded[C], v[:k], unfolded[D], vp[:k])
        parts = []
        for cut, wc in cuts:
            buf = left[cut] * right[cut]
            buf *= wc
            parts.append(buf.sum())
        sums.append(float(np.sum(parts)))
    return sums


def family_four_point_sums(A, B, C, D, w, quads):
    """The four-point sums of one family on their own, from fields unfolded
    on the whole torus: its weighted left pairs kept, each right pair built
    once for them, every dot product summed slice by slice along the first
    folded axis (the whole field is one slice when there is none)."""
    k = A.ndim - w.ndim
    lefts = {}
    for u, up, _, _ in quads:
        if (u, up) not in lefts:
            lefts[(u, up)] = _pair_product(A, u[:k], B, up[:k])
            lefts[(u, up)] *= w
    cuts = [(slice(None),) * k + (c,) for c in range(w.shape[0])] if w.ndim else [()]
    R = np.empty_like(C)
    sums = {}
    for v, vp in dict.fromkeys((v, vp) for _, _, v, vp in quads):
        _pair_product(C, v[:k], D, vp[:k], out=R)
        for q in quads:
            if q[2:] == (v, vp):
                sums[q] = float(np.sum([(lefts[q[:2]][c] * R[c]).sum() for c in cuts]))
    return [sums[q] for q in quads]


def per_family_depicted(G, Gt):
    """depicted_ratios with one family_four_point_sums call per family and
    per triangle: 56 pair products at d >= 2."""
    d = G.d
    probes = _probe_pairs(d)
    k = min(d, 2)
    Gu, Gtu = _unfold(G, k), _unfold(Gt, k)
    mult = _weights(d - k, G.side)

    def gt(a, b):
        return Gt.value(tuple(q - p for p, q in zip(a, b)))

    def gfull(a, b):
        return G.value(tuple(q - p for p, q in zip(a, b)))

    def worst(A, B, C, D, quads, target):
        sums = family_four_point_sums(A, B, C, D, mult, quads)
        return max(s / target(*q) for s, q in zip(sums, quads))

    def smeared(u, up, v, vp):
        return gt(u, up) * gt(v, vp)

    def triangle(x, y):
        def at(q):
            return float(Gu[tuple(int(c) % G.side for c in q)])

        s = family_four_point_sums(Gu, Gu, Gu, Gu, mult,
                                   [(z, x, y, y), (z, x, y, x), (z, x, z, y)])
        return at(x) * s[0] + at(y) * s[1] + at(tuple(q - p for p, q in zip(x, y))) * s[2]

    z = (0,) * d
    quads = [(z, p, q, r) for p in probes[1:3] for q in probes[1:3] for r in probes[2:4]]
    return {
        "ratio0": worst(Gtu, Gtu, Gtu, Gtu, quads, smeared),
        "ratio1": worst(Gu, Gtu, Gtu, Gtu, quads, smeared),
        "ratio2": worst(Gu, Gtu, Gu, Gtu, quads, smeared),
        "ratio3": worst(Gtu, Gu, Gtu, Gu,
                        [(u, w, v, w) for u in probes[1:3] for v in probes[2:4]
                         for w in probes[:2]], smeared),
        "ratio4": worst(Gu, Gtu, Gu, Gtu,
                        [(z, up, z, vp) for up in probes[1:4] for vp in probes[1:4]],
                        lambda u, up, v, vp: gfull(u, up) * gt(v, vp)
                        + gt(u, up) * gfull(v, vp)),
        "ratio5": max(triangle(x, a) / (gfull(z, x) * gfull(z, a) * gfull(x, a))
                      for x in probes[1:4] for a in probes[1:4] if x != a),
    }


def test_direct_convolution_matches_rolled_copies_bitwise():
    """Sparse and dense f with signed entries, odd and even sides, and an f
    whose products with g are all -0.0, which the running sum turns to +0.0."""
    rng = np.random.default_rng(17)
    for d, side in ((1, 8), (1, 33), (2, 5), (2, 6), (3, 4), (3, 9)):
        for density in (1.0, 0.2):
            f = rng.uniform(-1.0, 1.0, size=(side,) * d)
            f[rng.uniform(size=f.shape) >= density] = 0.0
            g = rng.uniform(-1.0, 1.0, size=(side,) * d)
            g[rng.uniform(size=g.shape) < 0.2] = 0.0
            f, g = Field(d, side, f), Field(d, side, g)
            got = convolve(f, g, method="direct").data
            assert got.tobytes() == rolled_convolve(f, g).tobytes(), (d, side, density)
    f = zeros(2, 6)
    f.data[1, 2] = -1.0
    got = convolve(f, zeros(2, 6), method="direct").data
    assert got.tobytes() == rolled_convolve(f, zeros(2, 6)).tobytes() == zeros(2, 6).data.tobytes()
    assert not convolve(zeros(2, 6), f, method="direct").data.any()


def test_direct_convolution_refused_before_allocation(monkeypatch):
    """A dense d=5, side-32 direct convolution would gather 2^25 copies of
    the field: it is refused with a traced peak under a tenth of the counted
    bytes. On a field that fits, the count bounds the traced peak, and one
    byte less of memory refuses it."""
    dense = Field(5, 32, np.broadcast_to(1.0, (32,) * 5))
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded) as exc:
            convolve(dense, dense, method="direct")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < int(re.search(r"needs (\d+) bytes", str(exc.value))[1]) / 10
    f, g = rng_field(3, 9, 4), rng_field(3, 9, 5)
    monkeypatch.setattr(currents, "_MEM_LIMIT", 0)
    with pytest.raises(CapExceeded) as exc:
        convolve(f, g, method="direct")
    need = int(re.search(r"needs (\d+) bytes", str(exc.value))[1])
    monkeypatch.setattr(currents, "_MEM_LIMIT", need - 1)
    with pytest.raises(CapExceeded):
        convolve(f, g, method="direct")
    monkeypatch.setattr(currents, "_MEM_LIMIT", need)
    tracemalloc.start()
    try:
        convolve(f, g, method="direct")
        assert tracemalloc.get_traced_memory()[1] <= need
    finally:
        tracemalloc.stop()


def test_dct_matches_per_axis_products_bitwise():
    """At d = 1 to 5, odd and even sides: _dct and _idct of a field, and
    _turns forward and inverse in the layout decay_trend transforms (axis 0
    unfolded to the full side, the other axes transformed), give the bits
    of the per-axis route."""
    rng = np.random.default_rng(19)
    for d in range(1, 6):
        for side in (8, 9, 12, 16):
            m = side // 2 + 1
            a = rng.normal(size=(m,) * d)
            kept = a.copy()
            assert _dct(a, side).tobytes() == per_axis_dct(a, side).tobytes(), (d, side)
            assert _idct(a, side).tobytes() == per_axis_idct(a, side).tobytes(), (d, side)
            assert a.tobytes() == kept.tobytes()
            b = rng.normal(size=(side,) + (m,) * (d - 1))
            axes = range(1, d)
            got = decay_layout_turns(b, side)
            assert got.tobytes() == per_axis_dct(b, side, axes).tobytes(), (d, side)
            got = decay_layout_turns(b, side, inverse=True)
            assert got.tobytes() == per_axis_idct(b, side, axes).tobytes(), (d, side)


def test_turns_split_products_in_row_blocks(monkeypatch):
    """A field whose products would write more than _TURN_BLOCK entries is
    transformed in blocks of rows, with the bits of one product per axis."""
    rng = np.random.default_rng(23)
    a = rng.normal(size=(9,) * 4)
    whole = _dct(a, 16)
    calls = []
    real = np.matmul

    def counted(x, *args, **kwargs):
        calls.append(x.shape)
        return real(x, *args, **kwargs)

    monkeypatch.setattr(fields, "_TURN_BLOCK", 81)
    monkeypatch.setattr(fields.np, "matmul", counted)
    got = _dct(a, 16)
    assert calls == [(1, 81, 9, 9)] * 4
    assert got.tobytes() == whole.tobytes() == per_axis_dct(a, 16).tobytes()


def long_double_cosine(a, side):
    """The DCT-I of a along every axis in long double, with the angles
    reduced mod side before the cosine, and its matrix."""
    m = side // 2 + 1
    k = np.arange(m)
    pi = 4 * np.arctan(np.longdouble(1))
    w = np.full(m, 2, dtype=np.longdouble)
    w[0] = 1
    if side % 2 == 0:
        w[-1] = 1
    M = np.cos(2 * pi * (np.outer(k, k) % side).astype(np.longdouble) / side) * w
    A = a.astype(np.longdouble)
    for ax in range(A.ndim):
        A = np.moveaxis(np.tensordot(M, A, axes=(1, ax)), 0, ax)
    return A, M


@pytest.mark.parametrize("d", [3, 4])
def test_side32_dct_error_against_long_double(d):
    """At side 32 (17 cosines an axis) the padded product is not the
    per-axis route bit for bit: BLAS does not sum the 16 terms of a
    per-axis product in the order it sums the 17 of a padded one. Against
    the long-double transform, on G at p = 0.99 and on a random field,
    every entry of both routes is within the rounding bound of d sums of
    17 products each, ((1 + gamma_18)^d - 1) |M|^d |a| (an ulp for each
    cosine, one rounding for each product and sum), and the padded route's
    mean absolute error is within 1% of the per-axis route's (it is 0.5%
    above it on G at d = 3, so the routes are compared on the mean, not
    entry by entry)."""
    side = 32
    u = 2.0 ** -53
    gamma = 18 * u / (1 - 18 * u)
    G, _ = rw_green_proxy(SpreadOut(d, 2.0), side, 0.99)
    for a in (G.data, np.random.default_rng(29).normal(size=(17,) * d)):
        want, M = long_double_cosine(a, side)
        scale = np.abs(a).astype(np.longdouble)
        for ax in range(d):
            scale = np.moveaxis(np.tensordot(np.abs(M), scale, axes=(1, ax)), 0, ax)
        bound = ((1 + gamma) ** d - 1) * scale
        new = np.abs(_dct(a, side) - want)
        old = np.abs(per_axis_dct(a, side) - want)
        assert (new <= bound).all() and (old <= bound).all()
        assert new.mean() <= 1.01 * old.mean()


def test_four_point_sums_fold_weights_bitwise(proxy):
    """Each sum of depicted_ratios' four-point call, with the multiplicities
    folded into the scaled pairs, has the bits of multiplying each dot
    product by them and summing it pairwise; and the weight takes at most
    half the passes a slice it took with one pass per dot product."""
    _, G, _, Gt = proxy
    seen = []
    real = fields._four_point_sums

    def kept(fs, k, quads):
        seen.append((fs, k, quads))
        return real(fs, k, quads)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fields, "_four_point_sums", kept)
        depicted_ratios(G, Gt)
    (fs, k, quads), = seen
    got = [s.hex() for s in _four_point_sums(fs, k, quads)]
    assert got == [s.hex() for s in weighted_four_point_oracle(fs, k, quads)]
    pair = [tuple(sorted((n, s[:k]) for n, s in legs)) for q in quads
            for legs in (q[:2], q[2:])]
    dots = list(dict.fromkeys(tuple(sorted(pq)) for pq in zip(pair[::2], pair[1::2])))
    scaled = fields._scaled_pairs(dots)
    assert len(scaled) + sum((x in scaled) == (y in scaled) for x, y in dots) <= len(dots) / 2


@pytest.mark.parametrize("side", [12, 16])
def test_depicted_ratios_bitwise_against_per_family_route(side):
    G, tau = rw_green_proxy(SpreadOut(5, 2.0), side, 0.99)
    Gt = tilde_g(G, tau)
    got = {k: v.hex() for k, v in depicted_ratios(G, Gt).items()}
    assert got == {k: v.hex() for k, v in per_family_depicted(G, Gt).items()}


def test_depicted_ratios_builds_each_pair_once(monkeypatch):
    """At d=5 the six families need 23 distinct pair products (56 when each
    family and triangle builds its own): each is built once for each of the
    7 slices along axis 2 at side 12, on a slice alone, and no more than
    five pair-product arrays exist at a time."""
    G, tau = rw_green_proxy(SpreadOut(5, 2.0), 12, 0.99)
    Gt = tilde_g(G, tau)
    built, alive, most = [], set(), [0]

    def counted(F, a, H, b, out=None):
        assert F.shape == H.shape == (12, 12, 7, 7)
        built.append(tuple(sorted([(id(F), tuple(a)), (id(H), tuple(b))])))
        res = _pair_product(F, a, H, b, out=out)
        if id(res) not in alive:
            alive.add(id(res))
            weakref.finalize(res, alive.discard, id(res))
        most[0] = max(most[0], len(alive))
        return res

    monkeypatch.setattr(fields, "_pair_product", counted)
    depicted_ratios(G, Gt)
    assert len(built) == 7 * 23
    for c in range(7):
        assert len(set(built[23 * c:23 * (c + 1)])) == 23
    assert most[0] <= 5
