"""Parity-class sweeps against independent brute enumeration and closed forms.

The brute oracle below re-enumerates class assignments with plain Python
loops and its own connectivity search; it shares no code with the library
sweeps beyond the class weight definition.
"""
from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from currentkit import (
    CapExceeded, Layer,
    build_graph, conj, conn, correlation, double_conn,
    event_measure, four_point, partition_function, pi0, pi0_tilde,
    sst_lhs, sst_switch_rhs, spin_expectation, theta_prime,
    theta_double_prime, through, two_point_matrix,
)
from currentkit.currents import _indicator, class_weights


def triangle(beta=1.0):
    return build_graph([0, 1, 2], [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)], beta=beta)


def path3(beta=0.6):
    return build_graph([0, 1, 2], [(0, 1, 1.0), (1, 2, 1.0)], beta=beta)


# -- brute oracle -----------------------------------------------------------

def _brute_connected(bonds, pos, u, v, drop=None):
    seen = {u}
    stack = [u]
    while stack:
        q = stack.pop()
        for k in pos:
            if k == drop:
                continue
            a, b = bonds[k]
            if a == q and b not in seen:
                seen.add(b)
                stack.append(b)
            elif b == q and a not in seen:
                seen.add(a)
                stack.append(a)
    return v in seen


def brute_sourced_weight(g, sources, indicator):
    """Sum of class weights over assignments with the given source parity,
    times an indicator of the positive bond set."""
    n = g.n_vertices
    total = 0.0
    for cls in itertools.product((0, 1, 2), repeat=g.n_bonds):
        w = 1.0
        deg = [0] * n
        pos = []
        for k, c in enumerate(cls):
            w *= class_weights(g, k)[c]
            if c == 2:
                i, j = g.bonds[k]
                deg[i] += 1
                deg[j] += 1
            if c >= 1:
                pos.append(k)
        if tuple(d % 2 for d in deg) != sources:
            continue
        if indicator(pos):
            total += w
    return total


def brute_Z(g):
    src = (0,) * g.n_vertices
    return brute_sourced_weight(g, src, lambda pos: True)


def test_even_weight_keeps_relative_precision_at_small_coupling():
    a = 1e-6
    g = build_graph([0, 1], [(0, 1, 1.0)], beta=a)
    even = class_weights(g, 0)[1]
    assert even == pytest.approx(a * a / 2 * (1 + a * a / 12), rel=1e-15, abs=0.0)


def test_partition_function_matches_brute_and_spins():
    for beta in (0.3, 1.0):
        g = triangle(beta)
        Z = partition_function(g)
        assert Z == pytest.approx(brute_Z(g), rel=1e-12)
        assert Z == pytest.approx(spin_expectation(g), rel=1e-12)


def test_triangle_closed_forms():
    # Z = cosh^3 + sinh^3, <s0 s1> = (s c^2 + s^2 c) / Z,
    # pi0 = s (c-1) (c-1+s) / Z; all three verified against an independent
    # enumeration before being frozen here.
    for beta in (0.3, 0.8):
        c, s = math.cosh(beta), math.sinh(beta)
        Z = c ** 3 + s ** 3
        g = triangle(beta)
        assert partition_function(g) == pytest.approx(Z, rel=1e-12)
        assert correlation(g, 0, 1) == pytest.approx((s * c * c + s * s * c) / Z,
                                                     rel=1e-12)
        assert pi0(g, 1) == pytest.approx(s * (c - 1) * (c - 1 + s) / Z, rel=1e-12)


def test_sourceless_connection_closed_form():
    beta = 0.8
    c, s = math.cosh(beta), math.sinh(beta)
    g = triangle(beta)
    got = event_measure(g, [Layer(None, ())], conn(0, 1))
    want = ((c - 1) * c * c + (c - 1) ** 2 + s ** 3) / (c ** 3 + s ** 3)
    assert got == pytest.approx(want, rel=1e-12)


def test_correlations_against_spin_sums():
    g = build_graph([0, 1, 2, 3],
                    [(0, 1, 1.0), (1, 2, 0.5), (2, 3, 1.5), (0, 3, 0.8), (0, 2, 1.1)],
                    beta=0.45)
    for x, y in itertools.combinations(g.labels, 2):
        assert correlation(g, x, y) == pytest.approx(
            spin_expectation(g, (x, y)), rel=1e-12)
    assert four_point(g, 0, 1, 2, 3) == pytest.approx(
        spin_expectation(g, (0, 1, 2, 3)), rel=1e-12)
    M = two_point_matrix(g)
    assert M[0, 2] == pytest.approx(correlation(g, 0, 2), rel=1e-12)
    assert np.allclose(M, M.T)
    assert np.all(np.diag(M) == 1.0)


def test_tree_correlation_is_tanh_product():
    g = path3(beta=0.6)
    t = math.tanh(0.6)
    assert correlation(g, 0, 1) == pytest.approx(t, rel=1e-12)
    assert correlation(g, 0, 2) == pytest.approx(t * t, rel=1e-12)
    # no cycle, no double connection
    assert pi0(g, 2) == 0.0


def test_pi0_diagonal_is_one():
    g = triangle(0.7)
    assert pi0(g, 0) == pytest.approx(1.0, rel=1e-12)


def test_event_measure_against_brute_double_connection():
    g = triangle(0.9)
    bonds = g.bonds

    def dbl(pos):
        return (_brute_connected(bonds, pos, 0, 1)
                and all(_brute_connected(bonds, pos, 0, 1, drop=k) for k in pos))

    want = brute_sourced_weight(g, (1, 1, 0), dbl) / brute_Z(g)
    assert pi0(g, 1) == pytest.approx(want, rel=1e-12)


def test_event_holds_primitives():
    g = build_graph([0, 1, 2, 3],
                    [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)], beta=0.5)
    # canonical bonds: b0=(0,1) b1=(0,3) b2=(1,2) b3=(2,3)
    assert g.bonds == ((0, 1), (0, 3), (1, 2), (2, 3))
    cycle = 0b1111
    path_012 = (1 << 0) | (1 << 2)
    assert _indicator(g, conn(0, 2))[path_012]
    assert not _indicator(g, double_conn(0, 2))[path_012]
    assert _indicator(g, double_conn(0, 2))[cycle]
    assert not _indicator(g, through(0, 2, (1,)))[cycle]  # 0-3-2 avoids 1
    assert _indicator(g, through(0, 2, (1, 3)))[cycle]
    assert _indicator(g, conj(conn(0, 1), conn(2, 3)))[(1 << 0) | (1 << 3)]
    assert not _indicator(g, conj(conn(0, 1), conn(2, 3)))[1 << 0]
    # bond-restricted connection ignores positive bonds outside the window
    assert not _indicator(g, conn(0, 2, bonds=(0,)))[path_012]


def test_theta_prime_degenerate_cases():
    g = triangle(0.8)
    assert theta_prime(g, 1, ()) == 0.0
    assert theta_prime(g, 0, (0,)) == pytest.approx(1.0, rel=1e-12)
    assert theta_prime(g, 0, (1,)) == 0.0


def test_theta_double_prime_dominated_by_theta_prime():
    g = triangle(0.8)
    for A in ((0,), (1,), (0, 1, 2)):
        for y in g.labels:
            assert (theta_double_prime(g, 2, y, A)
                    <= theta_prime(g, 2, A) * (1 + 1e-12))


def test_switch_identity_on_triangle():
    g = triangle(0.7)
    for y in (0, 1, 2):
        lhs = sst_lhs(g, 2, y, B=None, B_prime=None)
        # two-layer variant with the full bond set on both layers
        two = sst_lhs(g, 2, y, B=tuple(range(3)), B_prime=tuple(range(3)))
        rhs = sst_switch_rhs(g, 2, y, B=tuple(range(3)), B_prime=tuple(range(3)))
        assert two == pytest.approx(rhs, rel=1e-10)
        assert lhs <= correlation(g, 0, y) * correlation(g, y, 2) * (1 + 1e-12)


def test_beta_zero_degenerates():
    g = triangle(0.0)
    assert partition_function(g) == pytest.approx(1.0)
    assert correlation(g, 0, 2) == 0.0
    assert pi0(g, 1) == 0.0


def test_caps_are_enforced():
    g = triangle(0.5)
    with pytest.raises(CapExceeded):
        event_measure(g, [Layer(None, ()), Layer(None, ())], conn(0, 1), cap=2)


def test_seventeen_bond_ring_is_not_capped():
    """Without a ``cap=`` only memory refuses: 17 bonds on 17 vertices fit."""
    ring = build_graph(list(range(17)),
                       [(i, (i + 1) % 17, 1.0) for i in range(17)], beta=0.1)
    assert partition_function(ring) == pytest.approx(spin_expectation(ring), rel=1e-10)


def test_spin_expectation_vertex_cap():
    """The spin sum is refused by its working set: three (2**n, n) arrays
    and four 2**n vectors pass 1 GiB at 21 vertices."""
    big = build_graph(list(range(21)),
                      [(i, i + 1, 1.0) for i in range(20)], beta=0.1)
    with pytest.raises(CapExceeded, match="bytes"):
        spin_expectation(big)


def test_pi0_tilde_bounds():
    g = triangle(0.9)
    for y in g.labels:
        val = pi0_tilde(g, 1, y)
        assert 0.0 <= val <= pi0(g, 1) * (1 + 1e-12)
    # y = o forces the connection trivially
    assert pi0_tilde(g, 1, 0) == pytest.approx(pi0(g, 1), rel=1e-12)


def test_two_layer_measure_against_brute():
    g = path3(0.7)
    # two full sourceless layers, connection in the superposition
    got = event_measure(g, [Layer(None, ()), Layer(None, ())], conn(0, 2))
    Z = brute_Z(g)
    total = 0.0
    for cls1 in itertools.product((0, 1, 2), repeat=2):
        for cls2 in itertools.product((0, 1, 2), repeat=2):
            w = 1.0
            deg = [0, 0, 0]
            pos = set()
            for k, c in enumerate(cls1):
                w *= class_weights(g, k)[c]
                if c == 2:
                    i, j = g.bonds[k]
                    deg[i] += 1
                    deg[j] += 1
                if c >= 1:
                    pos.add(k)
            if any(d % 2 for d in deg):
                continue
            deg2 = [0, 0, 0]
            for k, c in enumerate(cls2):
                w *= class_weights(g, k)[c]
                if c == 2:
                    i, j = g.bonds[k]
                    deg2[i] += 1
                    deg2[j] += 1
                if c >= 1:
                    pos.add(k)
            if any(d % 2 for d in deg2):
                continue
            if _brute_connected(g.bonds, pos, 0, 2):
                total += w
    assert got == pytest.approx(total / Z ** 2, rel=1e-12)
