"""Tests for the special Lagrangian graph equation residuals."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slgeo import graphs


def test_residual_forms_agree_on_random_matrices():
    rng = np.random.default_rng(2)
    for _ in range(500):
        m = rng.integers(2, 5)
        A = rng.standard_normal((m, m))
        A = 0.5 * (A + A.T)
        r1 = graphs.residual_from_hessian(A)
        r2 = graphs.residual_symmetric_form(A)
        assert abs(r1 - r2) < 1e-12


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_stacked_residual_matches_per_matrix(m):
    rng = np.random.default_rng(m)
    A = rng.standard_normal((2, 25, m, m))
    A = 0.5 * (A + A.swapaxes(-1, -2))
    ref = [graphs.residual_from_hessian(B) for B in A.reshape(-1, m, m)]
    stacked = graphs.residual_from_hessian(A)
    assert stacked.shape == (2, 25)
    assert np.array_equal(stacked.ravel(), ref)


def test_witness_hessian_value():
    # diag(1, 1, -2) in m = 3: sigma_1 = 0, sigma_3 = -2, residual
    # -sigma_1 + sigma_3 = -2, reported with the sign convention
    # Im det(I + iA) = sigma_1 - sigma_3
    A = np.diag([1.0, 1.0, -2.0])
    assert abs(graphs.residual_symmetric_form(A) - 2.0) < 1e-12
    assert abs(graphs.residual_from_hessian(A) - 2.0) < 1e-12


def test_harmonic_potential_solves_small_hessian_limit():
    # for m = 2 the residual is exactly the Laplacian: trace of the Hessian
    A = np.array([[0.3, 0.1], [0.1, -0.3]])
    assert abs(graphs.residual_symmetric_form(A) - np.trace(A)) < 1e-14


def test_gridded_potential_residual():
    # f = (x^2 - y^2)/2 is harmonic with constant Hessian diag(1, -1):
    # sigma_1 = 0 so the graph residual vanishes identically
    n = 21
    xs = np.linspace(-1.0, 1.0, n)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    f = graphs.GraphPotential(2, values=0.5 * (X ** 2 - Y ** 2),
                              spacing=(xs[1] - xs[0], xs[1] - xs[0]))
    for node in ((5, 5), (10, 10), (15, 4)):
        assert abs(graphs.sl_graph_residual(f, node)) < 1e-10


def test_out_of_stencil_rejected():
    f = graphs.GraphPotential(2, values=np.zeros((5, 5)), spacing=(0.1, 0.1))
    with pytest.raises(graphs.OutOfStencilError):
        graphs.hessian(f, (0, 2))


def test_linearization_cubic_gap():
    # for m = 3 the residual minus its linearization is exactly the cubic
    # term eps^3 det(Hess f), so the gap decays with log-log slope 3
    def potential(x):
        return (np.cos(x[0]) * np.sin(x[1]) * np.cos(x[2])
                + 0.2 * x[0] * x[1] * x[2])

    f = graphs.GraphPotential(3, func=potential)
    eps = [0.1, 0.05, 0.025, 0.0125]
    gaps = graphs.linearization_gap(f, eps)
    slope = graphs.loglog_slope(eps, gaps)
    assert abs(slope - 3.0) < 0.05


def test_loglog_slope_exact_power():
    xs = np.array([1.0, 0.5, 0.25])
    ys = 3.0 * xs ** 2
    assert abs(graphs.loglog_slope(xs, ys) - 2.0) < 1e-12


# ---------------------------------------------------------------------------
# the one central-difference stencil against the two per-kind loops


def _closed_form_hessian_loop(func, x, m):
    # reference: offset vectors around a point, step FD_STEP
    h = graphs.FD_STEP
    H = np.empty((m, m))
    f0 = func(x)
    for i in range(m):
        ei = np.zeros(m)
        ei[i] = h
        H[i, i] = (func(x + ei) - 2.0 * f0 + func(x - ei)) / h ** 2
        for j in range(i + 1, m):
            ej = np.zeros(m)
            ej[j] = h
            H[i, j] = (func(x + ei + ej) - func(x + ei - ej)
                       - func(x - ei + ej) + func(x - ei - ej)) / (4.0 * h ** 2)
            H[j, i] = H[i, j]
    return 0.5 * (H + H.T)


def _grid_hessian_loop(values, h, idx, m):
    # reference: index lists around a grid node
    H = np.empty((m, m))
    for i in range(m):
        up = list(idx); up[i] += 1
        dn = list(idx); dn[i] -= 1
        H[i, i] = (values[tuple(up)] - 2.0 * values[idx]
                   + values[tuple(dn)]) / h[i] ** 2
        for j in range(i + 1, m):
            pp = list(idx); pp[i] += 1; pp[j] += 1
            pm = list(idx); pm[i] += 1; pm[j] -= 1
            mp = list(idx); mp[i] -= 1; mp[j] += 1
            mm = list(idx); mm[i] -= 1; mm[j] -= 1
            H[i, j] = (values[tuple(pp)] - values[tuple(pm)]
                       - values[tuple(mp)] + values[tuple(mm)]) / (4.0 * h[i] * h[j])
            H[j, i] = H[i, j]
    return 0.5 * (H + H.T)


def _random_potential(m, closed_form, seed):
    rng = np.random.default_rng(seed)
    if closed_form:
        Q = rng.standard_normal((m, m))
        w = rng.standard_normal(m)
        return graphs.GraphPotential(
            m, func=lambda x: float(x @ Q @ x + np.sin(w @ x) * np.exp(x[0])))
    return graphs.GraphPotential(m, values=rng.standard_normal((5,) * m),
                                 spacing=rng.uniform(0.05, 2.0, m))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_hessian_matches_per_kind_loops(m, closed_form, seed):
    f = _random_potential(m, closed_form, seed)
    rng = np.random.default_rng(seed + 1)
    if closed_form:
        x = rng.uniform(-2.0, 2.0, m)
        ref = _closed_form_hessian_loop(f.func, x, m)
        H = graphs.hessian(f, x)
    else:
        idx = tuple(int(k) for k in rng.integers(1, 4, m))
        ref = _grid_hessian_loop(f.values, f.spacing, idx, m)
        H = graphs.hessian(f, idx)
    assert np.array_equal(H, ref)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_linearization_gap_matches_node_loop(m, closed_form, seed):
    f = _random_potential(m, closed_form, seed)
    eps_list = [1e-3, 0.1, 1.0]
    # reference: one determinant per node and eps
    hessians = [graphs.hessian(f, node) for node in graphs._interior_nodes(f)]
    ref = []
    for eps in eps_list:
        worst = 0.0
        for A in hessians:
            res = graphs.residual_from_hessian(eps * A)
            worst = max(worst, abs(res - eps * np.trace(A)))
        ref.append(worst)
    assert graphs.linearization_gap(f, eps_list) == ref

