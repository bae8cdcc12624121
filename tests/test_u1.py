"""Tests for the U(1)-invariant Dirichlet solver and its lift to C^3."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slgeo import gridio, u1


def _disc(n=65):
    return u1.ConvexDomain("disc", n=n)


def test_domain_forces_odd_grid():
    dom = u1.ConvexDomain("disc", n=64)
    assert dom.n % 2 == 1
    assert np.array_equal(dom.inside, dom.inside[:, ::-1])


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(("disc", "ellipse")), st.integers(8, 64),
       st.floats(0.3, 2.5), st.floats(0.3, 2.5),
       st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6))
def test_stencil_exact_on_quadratics(kind, half_n, rx, ry, c):
    # the three-point first and second differences on unequal arms are exact
    # for quadratics, so every active node, cut arms included, reproduces
    # q_x, q_xx, q_y and q_yy up to rounding
    dom = u1.ConvexDomain(kind, rx, ry, 2 * half_n + 1)

    def q(x, y):
        return c[0] + c[1] * x + c[2] * y + c[3] * x * x + c[4] * x * y + c[5] * y * y

    ops = u1._direction_ops(dom, u1.BoundaryData(q))
    x, y = dom.x[dom.nodes[:, 0]], dom.y[dom.nodes[:, 1]]
    cut = dom.arm_cut[dom.arm_nbr < 0]
    qv = q(x, y)
    qmax = max(np.max(np.abs(qv)), np.max(np.abs(q(*cut.T))))
    exact = (c[1] + 2 * c[3] * x + c[4] * y, 2 * c[3],
             c[2] + c[4] * x + 2 * c[5] * y, 2 * c[5])
    for k, (A, b) in enumerate(zip(ops[0::2], ops[1::2])):
        hp, hm = dom.arm_len[:, 2 * (k // 2)], dom.arm_len[:, 2 * (k // 2) + 1]
        # sum of |stencil weights|, boundary weights included
        weights = (2 * np.maximum(hp, hm) ** 2 / (hp * hm * (hp + hm)) if k % 2 == 0
                   else 4 / (hp * hm))
        tol = 64 * np.finfo(float).eps * weights * (qmax + 1)
        assert np.all(np.abs(A @ qv + b - exact[k]) <= tol)


def test_affine_data_reproduced_exactly():
    # P annihilates affine functions, so f = b x + c y solves at once
    b, c = 0.4, -0.2
    phi = u1.BoundaryData(lambda x, y: b * np.asarray(x) + c * np.asarray(y))
    sol = u1.solve_dirichlet(phi, 1.0, _disc(), tol=1e-10)
    assert sol.residual_P < 1e-10
    inside = sol.domain.inside
    assert np.max(np.abs(sol.v.values[inside] - b)) < 1e-12
    assert np.max(np.abs(sol.u.values[inside] - c)) < 1e-12


def test_quadratic_data_converges():
    phi = u1.BoundaryData(lambda x, y: 0.2 * np.asarray(x) ** 2)
    sol = u1.solve_dirichlet(phi, 0.5, _disc(), tol=1e-10)
    assert sol.residual_P < 1e-9
    assert sol.newton_iters >= 1
    assert np.isfinite(sol.residual_CR)


def test_two_initial_guesses_agree():
    tol = 1e-10
    phi = u1.BoundaryData(lambda x, y: 0.2 * np.asarray(x) ** 2
                          + 0.1 * np.asarray(y))
    dom = _disc()
    s1 = u1.solve_dirichlet(phi, 0.7, dom, tol=tol)
    s2 = u1.solve_dirichlet(phi, 0.7, dom, tol=tol,
                            initial=np.zeros_like(s1.fvec))
    assert np.max(np.abs(s1.fvec - s2.fvec)) < 10.0 * tol


def test_p_operator_matches_packaged_residual():
    phi = u1.BoundaryData(lambda x, y: 0.2 * np.asarray(x) ** 2)
    dom = _disc()
    sol = u1.solve_dirichlet(phi, 0.5, dom, tol=1e-10)
    res = u1.p_operator(sol.f, 0.5, dom, phi)
    assert abs(np.nanmax(np.abs(res.values)) - sol.residual_P) < 1e-13


def test_continuation_reaches_a_zero():
    phi = u1.BoundaryData(lambda x, y: 0.2 * np.asarray(x) ** 2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", u1.ContinuationStalledWarning)
        sol = u1.solve_dirichlet(phi, 0.0, _disc(), tol=1e-8)
    assert sol.a == 0.0
    assert sol.continuation_a is not None and sol.continuation_a < 1e-2
    assert sol.residual_P < 1e-7


def test_singular_point_of_transversal_zero():
    # boundary x^2 + 0.2 x: v = f_x crosses zero once on the y = 0 chord
    phi = u1.BoundaryData(lambda x, y: np.asarray(x) ** 2
                          + 0.2 * np.asarray(x))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", u1.ContinuationStalledWarning)
        sol = u1.solve_dirichlet(phi, 0.0, _disc(), tol=1e-8)
    pts = u1.singular_points(sol)
    assert len(pts) == 1
    x, z = pts[0]
    assert abs(x) < 0.3
    assert abs(z.real - x) < 1e-14


def test_zero_data_singular_segment():
    # f = 0 makes v vanish on the whole chord: a segment of zeros, one
    # reported node per chord point rather than a single crossing
    phi = u1.BoundaryData(lambda x, y: np.zeros_like(np.asarray(x, dtype=float)))
    sol = u1.solve_dirichlet(phi, 0.0, _disc(33), tol=1e-8)
    pts = u1.singular_points(sol)
    assert len(pts) > 5


def test_singular_points_empty_for_nonzero_a():
    phi = u1.BoundaryData(lambda x, y: 0.2 * np.asarray(x) ** 2)
    sol = u1.solve_dirichlet(phi, 0.5, _disc(33), tol=1e-8)
    assert u1.singular_points(sol) == []


def test_winding_number_oracle():
    t = np.linspace(0.0, 2 * np.pi, 200, endpoint=False)
    loop1 = np.stack([np.cos(t), np.sin(t)], axis=1)
    assert u1.winding_number(loop1) == 1
    loop2 = np.stack([np.cos(2 * t), np.sin(2 * t)], axis=1)
    assert u1.winding_number(loop2) == 2
    shifted = loop1 + np.array([5.0, 0.0])
    assert u1.winding_number(shifted) == 0


def test_difference_zeros_identical_flag():
    phi = u1.BoundaryData(lambda x, y: 0.2 * np.asarray(x) ** 2)
    dom = _disc(33)
    sol = u1.solve_dirichlet(phi, 0.5, dom, tol=1e-10)
    rep = u1.difference_zeros(sol, sol)
    assert rep.identical


def test_difference_zeros_distinct_data():
    dom = _disc(33)
    phi1 = u1.BoundaryData(lambda x, y: 0.2 * np.asarray(x) ** 2)
    phi2 = u1.BoundaryData(lambda x, y: 0.2 * np.asarray(x) ** 2
                           + 0.15 * np.asarray(x))
    s1 = u1.solve_dirichlet(phi1, 0.5, dom, tol=1e-10)
    s2 = u1.solve_dirichlet(phi2, 0.5, dom, tol=1e-10)
    rep = u1.difference_zeros(s1, s2)
    assert not rep.identical
    assert rep.total >= 0
    assert rep.total == sum(abs(w) for _, w in rep.zeros)


def test_lift_moment_value_is_2a():
    a = 0.35
    phi = u1.BoundaryData(lambda x, y: 0.2 * np.asarray(x) ** 2)
    sol = u1.solve_dirichlet(phi, a, _disc(65), tol=1e-10)
    cloud = u1.lift_to_sl3(sol)
    assert len(cloud.points) > 1000
    assert np.max(np.abs(cloud.moment_values - 2.0 * a)) < 1e-12


def test_lift_defect_shrinks_under_refinement():
    a = 0.5
    phi = u1.BoundaryData(lambda x, y: 0.2 * np.asarray(x) ** 2)
    defects = []
    for n in (33, 65):
        sol = u1.solve_dirichlet(phi, a, _disc(n), tol=1e-10)
        cloud = u1.lift_to_sl3(sol)
        defects.append(np.nanmax(cloud.sl_defects))
    assert defects[1] < 0.3 * defects[0]


@settings(max_examples=25, deadline=None)
@given(st.integers(-6, 6), st.floats(1e-13, 1e-9), st.sampled_from((1.0, -1.0)))
def test_lift_keeps_near_singular_points_as_nan(k, offset, sign):
    # f = 0.2 (x - x0)^2 + 0.1 y^2 lifted at a = 0: v = 0.4 (x - x0) vanishes
    # just off the node (x_i, 0), so that node lies within 1e-8 of the
    # singular set v = y = 0 but does not vanish
    dom = _disc(33)
    i = dom.n // 2 + k
    x0 = dom.x[i] + sign * offset
    X, Y = np.meshgrid(dom.x, dom.y, indexing="ij")
    f = gridio.GridField(0.2 * (X - x0) ** 2 + 0.1 * Y ** 2, -dom.rx, -dom.ry,
                         dom.hx, dom.hy, mask=dom.inside.copy())
    sol = u1.PotentialSolution(domain=dom, a=0.0, f=f, u=f, v=f,
                               residual_P=0.0, residual_CR=0.0,
                               newton_iters=0, boundary=None)
    cloud = u1.lift_to_sl3(sol, samples_per_node=4)
    nan = np.isnan(cloud.sl_defects)
    assert np.count_nonzero(nan) == 4 == cloud.n_excluded
    assert np.all(np.abs(cloud.points[nan, 0] * cloud.points[nan, 1]) < 1e-8)
    assert np.all(np.abs(cloud.points[nan, 2].real - dom.x[i]) < 1e-15)
    assert np.all(np.isfinite(cloud.sl_defects[~nan]))


def test_invalid_tol_rejected():
    phi = u1.BoundaryData(lambda x, y: np.zeros_like(np.asarray(x, dtype=float)))
    with pytest.raises(ValueError):
        u1.solve_dirichlet(phi, 1.0, _disc(33), tol=0.0)
