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


@pytest.mark.parametrize("call, message", [
    (lambda: graphs.residual_symmetric_form(np.eye(5)), "m <= 4"),
])
def test_input_guards(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_linearization_cubic_gap():
    # for m = 3 the residual minus its linearization is exactly the cubic
    # term eps^3 det(Hess f), so the gap decays with log-log slope 3
    def potential(x):
        return (np.cos(x[0]) * np.sin(x[1]) * np.cos(x[2])
                + 0.2 * x[0] * x[1] * x[2])

    eps = [0.1, 0.05, 0.025, 0.0125]
    gaps = graphs.linearization_gap(potential, 3, eps)
    slope = graphs.loglog_slope(eps, gaps)
    assert abs(slope - 3.0) < 0.05


def test_loglog_slope_exact_power():
    xs = np.array([1.0, 0.5, 0.25])
    ys = 3.0 * xs ** 2
    assert abs(graphs.loglog_slope(xs, ys) - 2.0) < 1e-12


# ---------------------------------------------------------------------------
# the offset-vector stencil against a per-point loop


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


def _random_potential(m, seed):
    rng = np.random.default_rng(seed)
    Q = rng.standard_normal((m, m))
    w = rng.standard_normal(m)
    return lambda x: float(x @ Q @ x + np.sin(w @ x) * np.exp(x[0]))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
def test_hessian_matches_per_kind_loops(m, seed):
    func = _random_potential(m, seed)
    x = np.random.default_rng(seed + 1).uniform(-2.0, 2.0, m)
    assert np.array_equal(graphs.hessian(func, x),
                          _closed_form_hessian_loop(func, x, m))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
def test_linearization_gap_matches_node_loop(m, seed):
    func = _random_potential(m, seed)
    eps_list = [1e-3, 0.1, 1.0]
    # reference: one determinant per probe point and eps
    hessians = [graphs.hessian(func, x) for x in graphs._probe_points(m)]
    ref = []
    for eps in eps_list:
        worst = 0.0
        for A in hessians:
            res = graphs.residual_from_hessian(eps * A)
            worst = max(worst, abs(res - eps * np.trace(A)))
        ref.append(worst)
    assert graphs.linearization_gap(func, m, eps_list) == ref
