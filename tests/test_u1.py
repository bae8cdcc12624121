"""Tests for the U(1)-invariant Dirichlet solver and its lift to C^3."""

import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slgeo import core, gridio, u1


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


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(("disc", "ellipse")), st.integers(8, 64),
       st.floats(0.3, 2.5), st.floats(0.3, 2.5))
def test_direction_ops_match_a_coo_assembly(kind, half_n, rx, ry):
    # the operators are built straight into canonical CSR; bitwise they are
    # the COO round trip below: the same column order in every row, the
    # first derivative's zero centre weights stored, the same index dtype
    dom = u1.ConvexDomain(kind, rx, ry, 2 * half_n + 1)
    ops = u1._direction_ops(dom, u1.BoundaryData(lambda x, y: x * y + y))
    rows = np.arange(len(dom.nodes))
    for k, A in enumerate(ops[0::2]):
        dp, dm = 2 * (k // 2), 2 * (k // 2) + 1
        hp, hm = dom.arm_len[:, dp], dom.arm_len[:, dm]
        inp, inm = dom.arm_nbr[:, dp] >= 0, dom.arm_nbr[:, dm] >= 0
        cp, cm, cc = ((hm / (hp * (hp + hm)), -hp / (hm * (hp + hm)),
                       (hp - hm) / (hp * hm)),
                      (2.0 / (hp * (hp + hm)), 2.0 / (hm * (hp + hm)),
                       -2.0 / (hp * hm)))[k % 2]
        ref = sp.coo_matrix(
            (np.concatenate([cc, cp[inp], cm[inm]]),
             (np.concatenate([rows, rows[inp], rows[inm]]),
              np.concatenate([rows, dom.arm_nbr[inp, dp],
                              dom.arm_nbr[inm, dm]]))), shape=A.shape).tocsr()
        assert A.has_canonical_format
        for name in ("data", "indices", "indptr"):
            got, want = getattr(A, name), getattr(ref, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    for first, second in (ops[0:3:2], ops[4:7:2]):   # one pattern a direction
        assert np.shares_memory(first.indices, second.indices)
        assert np.shares_memory(first.indptr, second.indptr)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(("disc", "ellipse")), st.floats(0.2, 5.0),
       st.integers(17, 513))
@example("disc", 1.0, 103)
def test_cut_arms_are_never_tiny(kind, ratio, n):
    # an inside node at normalised (a / m, b / m), m = (n - 1) / 2, has
    # a^2 + b^2 <= m^2 - 1, so its arm fraction t >= sqrt(a^2 + 1) - a
    # > 1 / (2m - 1); an ellipse has the same normalised grid
    dom = u1.ConvexDomain(kind, rx=1.0, ry=ratio, n=n)
    cut = dom.arm_nbr < 0
    frac = (dom.arm_len / [dom.hx, dom.hx, dom.hy, dom.hy])[cut]
    assert frac.min() > 1.0 / (dom.n - 1)
    assert frac.max() <= 1.0


def test_affine_data_reproduced_exactly():
    # P annihilates affine functions, so f = b x + c y solves at once
    b, c = 0.4, -0.2
    phi = u1.BoundaryData(lambda x, y: b * np.asarray(x) + c * np.asarray(y))
    sol = u1.solve_dirichlet(phi, 1.0, _disc(), tol=1e-10)
    assert sol.residual_P < 1e-10
    inside = sol.domain.inside
    assert np.max(np.abs(sol.v.values[inside] - b)) < 1e-12
    assert np.max(np.abs(sol.u.values[inside] - c)) < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(8, 64), st.floats(0.3, 2.5), st.floats(-1.0, 1.0),
       st.floats(-1.0, 1.0))
def test_line_average_is_the_harmonic_extension_of_quadratics(half_n, r, b, c):
    # on a disc the mean of the row and column interpolants of a quadratic
    # is harmonic, and the Shortley-Weller stencil is exact on quadratics
    dom = u1.ConvexDomain("disc", r, r, 2 * half_n + 1)
    phi = u1.BoundaryData(lambda x, y: 0.2 * x * x + b * x + c * y)
    _, _, Axx, bxx, _, _, Ayy, byy = u1._direction_ops(dom, phi)
    harmonic = spla.spsolve((Axx + Ayy).tocsc(), -(bxx + byy))
    assert np.max(np.abs(u1._line_average(dom, phi) - harmonic)) <= 1e-12


@pytest.mark.parametrize("kind, rx, ry", [("disc", 1.0, 1.0),
                                          ("ellipse", 1.4, 0.7)])
def test_line_average_reproduces_affine_data(kind, rx, ry):
    def affine(x, y):
        return 0.4 * x - 0.2 * y + 0.3

    dom = u1.ConvexDomain(kind, rx, ry, 65)
    start = u1._line_average(dom, u1.BoundaryData(affine))
    data = affine(dom.x[dom.nodes[:, 0]], dom.y[dom.nodes[:, 1]])
    assert np.max(np.abs(start - data)) <= 1e-15


def test_a_lift_sized_solve_factors_once():
    # a = 1, n = 129, quadratic data: the start is the harmonic extension,
    # and one Jacobian LU serves every step
    phi = u1.BoundaryData(lambda x, y: 0.2 * x * x + 0.15 * x - 0.1 * y)
    sol = u1.solve_dirichlet(phi, 1.0, _disc(129), tol=1e-10)
    assert sol.trace[0].stop == "converged" and sol.residual_P <= 1e-10
    assert sol.factorizations == 1 < sol.newton_iters


def test_chord_run_fits_the_newton_budget(monkeypatch):
    # at a steady chord ratio near 1/2 one LU would take 34 steps; with a
    # budget of 20 the LU is dropped once its ratio cannot reach tol in
    # the steps left, and the fresh Jacobian converges
    phi = u1.BoundaryData(lambda x, y: 0.3 * x ** 3 - 0.2 * x * y + 0.1 * y * y)
    dom = _disc(65)
    monkeypatch.setattr(u1, "MAX_NEWTON", 40)
    (kept,) = u1.solve_dirichlet(phi, 0.03, dom, tol=1e-10).trace
    assert sum(kept.fresh) == 1 and len(kept.step_lengths) == 34
    monkeypatch.setattr(u1, "MAX_NEWTON", 20)
    (rec,) = u1.solve_dirichlet(phi, 0.03, dom, tol=1e-10).trace
    assert rec.stop == "converged" and rec.residuals[-1] <= 1e-10
    assert sum(rec.fresh) == 2 and len(rec.step_lengths) == 8


def test_quadratic_data_converges():
    phi = u1.BoundaryData(lambda x, y: 0.2 * np.asarray(x) ** 2)
    sol = u1.solve_dirichlet(phi, 0.5, _disc(), tol=1e-10)
    assert sol.residual_P < 1e-9
    assert sol.newton_iters >= 1
    assert np.isfinite(u1.cr_residual(sol))


def test_two_initial_guesses_agree():
    tol = 1e-10
    phi = u1.BoundaryData(lambda x, y: 0.2 * np.asarray(x) ** 2
                          + 0.1 * np.asarray(y))
    dom = _disc()
    s1 = u1.solve_dirichlet(phi, 0.7, dom, tol=tol)
    s2 = u1.solve_dirichlet(phi, 0.7, dom, tol=tol,
                            initial=np.zeros_like(s1.fvec))
    assert np.max(np.abs(s1.fvec - s2.fvec)) < 10.0 * tol


def test_p_operator_matches_packaged_residual(monkeypatch):
    # residual_P is the last converged record's residual, max |P| of the
    # returned iterate at that record's level, bit for bit
    phi = u1.BoundaryData(lambda x, y: 0.2 * np.asarray(x) ** 2)
    dom = _disc()
    sol = u1.solve_dirichlet(phi, 0.5, dom, tol=1e-10)
    res = u1.p_operator(sol.f, 0.5, dom, phi)
    assert np.nanmax(np.abs(res.values)) == sol.residual_P
    # a stalled a = 0 solve, evaluated at its last converged level: with no
    # round-off floor to stop at, a rung stalls on the round-off plateau
    monkeypatch.setattr(u1, "KAPPA", 0.0)
    monkeypatch.setattr(u1, "MAX_NEWTON", 25)
    phi = u1.BoundaryData(lambda x, y: 0.2 * x * x + 0.01 * x - 0.01 * y)
    dom = _disc(33)
    with pytest.warns(u1.ContinuationStalledWarning):
        sol = u1.solve_dirichlet(phi, 0.0, dom, tol=1e-10)
    assert sol.trace[-1].stop != "converged"
    res = u1.p_operator(sol.f, sol.continuation_a, dom, phi)
    assert np.nanmax(np.abs(res.values)) == sol.residual_P


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


def _singular_points_loop(sol):
    """Reference: the node-by-node walk of the y = 0 row that
    singular_points replaced."""
    dom = sol.domain
    j0 = np.argmin(np.abs(dom.y))
    vrow, urow = sol.v.values[:, j0], sol.u.values[:, j0]
    vmax = np.nanmax(np.abs(sol.v.values))
    thresh = max(10 * np.finfo(float).eps,
                 1e-3 * (vmax if np.isfinite(vmax) else 0.0))
    idx = [i for i in range(dom.n) if dom.inside[i, j0] and np.isfinite(vrow[i])]
    runs, run = [], []
    for i in idx:
        if abs(vrow[i]) < thresh:
            if run and i != run[-1] + 1:
                runs.append(run)
                run = []
            run.append(i)
        elif run:
            runs.append(run)
            run = []
    if run:
        runs.append(run)
    out = []
    for run in runs:
        lo, hi = run[0] - 1, run[-1] + 1
        if (lo in idx and abs(vrow[lo]) >= thresh
                and hi in idx and abs(vrow[hi]) >= thresh):
            best = min(run, key=lambda i: abs(vrow[i]))
            out.append((float(dom.x[best]), complex(dom.x[best], urow[best])))
        else:
            out.extend((float(dom.x[i]), complex(dom.x[i], urow[i])) for i in run)
    small = {i for r in runs for i in r}
    for i0, i1 in zip(idx, idx[1:]):
        if (i1 == i0 + 1 and i0 not in small and i1 not in small
                and vrow[i0] * vrow[i1] < 0.0):
            best = i0 if abs(vrow[i0]) <= abs(vrow[i1]) else i1
            out.append((float(dom.x[best]), complex(dom.x[best], urow[best])))
    return sorted(out, key=lambda t: t[0])


@settings(max_examples=60, deadline=None)
@given(st.integers(8, 24), st.integers(0, 2 ** 32 - 1),
       st.sampled_from((0.0, 0.2, 0.5)), st.sampled_from((0.0, 0.1)))
def test_singular_points_match_node_walk(half_n, seed, zero_share, nan_share):
    # zeros, runs of tiny values and NaNs on the y = 0 row, sign changes
    # that jump the threshold, and rows that vanish entirely
    dom = _disc(2 * half_n + 1)
    rng = np.random.default_rng(seed)
    V = rng.standard_normal((dom.n, dom.n))
    row = V[:, dom.n // 2]
    row *= 10.0 ** rng.uniform(-20, 0, dom.n)
    row[rng.random(dom.n) < zero_share] = 0.0
    row[rng.random(dom.n) < nan_share] = np.nan
    if seed % 5 == 0:
        row[:] = 0.0
    V[~dom.inside] = np.nan
    v = gridio.GridField(V, -dom.rx, -dom.ry, dom.hx, dom.hy, mask=dom.inside.copy())
    u = gridio.GridField(rng.standard_normal((dom.n, dom.n)), -dom.rx, -dom.ry,
                         dom.hx, dom.hy)
    sol = u1.PotentialSolution(domain=dom, a=0.0, f=v, u=u, v=v, residual_P=0.0,
                               newton_iters=0)
    assert u1.singular_points(sol) == _singular_points_loop(sol)


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


def _difference_zeros_loop(s1, s2):
    # the per-cell walk and winding formula difference_zeros replaced,
    # kept as the reference
    du = s1.u.values - s2.u.values
    dv = s1.v.values - s2.v.values
    sel = u1._deep_interior(s1.domain, 1) & np.isfinite(du) & np.isfinite(dv)
    dom = s1.domain
    zeros = []
    for i in range(dom.n - 1):
        for j in range(dom.n - 1):
            corners = [(i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)]
            if not all(sel[c] for c in corners):
                continue
            vecs = np.array([[du[c], dv[c]] for c in corners])
            if np.min(np.hypot(vecs[:, 0], vecs[:, 1])) == 0.0:
                w = 1
            else:
                ang = np.arctan2(vecs[:, 1], vecs[:, 0])
                d = np.diff(np.concatenate([ang, ang[:1]]))
                d = (d + np.pi) % (2.0 * np.pi) - np.pi
                w = int(np.round(np.sum(d) / (2.0 * np.pi)))
            if w != 0:
                zeros.append(((float(dom.x[i] + 0.5 * dom.hx),
                               float(dom.y[j] + 0.5 * dom.hy)), int(w)))
    return zeros


@settings(max_examples=60, deadline=None)
@given(st.integers(8, 20), st.integers(0, 2 ** 32 - 1),
       st.sampled_from((0.0, 0.1, 0.4)), st.sampled_from((0.0, 0.05)))
def test_difference_zeros_match_cell_walk(half_n, seed, zero_share, nan_share):
    # random and smooth differences, exact zeros on nodes (the w = 1 rule),
    # NaNs that drop cells, and zeros of one component only
    dom = _disc(2 * half_n + 1)
    rng = np.random.default_rng(seed)
    X, Y = np.meshgrid(dom.x, dom.y, indexing="ij")
    if seed % 2:
        du, dv = rng.standard_normal((2, dom.n, dom.n))
    else:
        k = rng.uniform(2.0, 12.0, 4)
        du = np.sin(k[0] * X + rng.uniform(0, 6)) * np.cos(k[1] * Y)
        dv = np.cos(k[2] * X) * np.sin(k[3] * Y + rng.uniform(0, 6))
    zero = rng.random((dom.n, dom.n)) < zero_share
    du[zero] = 0.0
    dv[zero & (rng.random((dom.n, dom.n)) < 0.7)] = 0.0
    du[rng.random((dom.n, dom.n)) < nan_share] = np.nan

    def sol(u, v):
        fields = [gridio.GridField(g, -dom.rx, -dom.ry, dom.hx, dom.hy)
                  for g in (u, v)]
        return u1.PotentialSolution(domain=dom, a=0.0, f=fields[1], u=fields[0],
                                    v=fields[1], residual_P=0.0, newton_iters=0)

    s1 = sol(du + X, dv - Y)
    s2 = sol(X, -Y)
    rep = u1.difference_zeros(s1, s2)
    assert not rep.identical
    assert rep.zeros == _difference_zeros_loop(s1, s2)
    assert rep.total == sum(abs(w) for _, w in rep.zeros)


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


def test_difference_zeros_rejects_other_ellipse():
    # same n and rx, different ry: the nodes sit at different points
    phi = u1.BoundaryData(lambda x, y: 0.2 * np.asarray(x) ** 2)
    s1, s2 = (u1.solve_dirichlet(phi, 0.5, u1.ConvexDomain(
        "ellipse", rx=1.0, ry=ry, n=33), tol=1e-10) for ry in (0.5, 0.9))
    with pytest.raises(ValueError):
        u1.difference_zeros(s1, s2)


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


def _singular_field(offset, k=3):
    # f = 0.2 (x - x0)^2 + 0.1 y^2 at a = 0 with x0 = x_i + offset: v vanishes
    # at the node (x_i, 0) for offset 0, and just off it otherwise
    dom = _disc(33)
    x0 = dom.x[dom.n // 2 + k] + offset
    X, Y = np.meshgrid(dom.x, dom.y, indexing="ij")
    f = gridio.GridField(0.2 * (X - x0) ** 2 + 0.1 * Y ** 2, -dom.rx, -dom.ry,
                         dom.hx, dom.hy, mask=dom.inside.copy())
    return u1.PotentialSolution(domain=dom, a=0.0, f=f, u=f, v=f,
                                residual_P=0.0, newton_iters=0)


@settings(max_examples=25, deadline=None)
@given(st.integers(-6, 6), st.floats(1e-13, 1e-9), st.sampled_from((1.0, -1.0)))
def test_lift_keeps_near_singular_points_as_nan(k, offset, sign):
    # v = 0.4 (x - x0) vanishes just off the node (x_i, 0), so that node lies
    # within 1e-8 of the singular set v = y = 0 but does not vanish
    sol = _singular_field(sign * offset, k)
    dom = sol.domain
    i = dom.n // 2 + k
    cloud = u1.lift_to_sl3(sol, samples_per_node=4)
    nan = np.isnan(cloud.sl_defects)
    assert np.count_nonzero(nan) == 4 == cloud.n_excluded
    assert np.all(np.abs(cloud.points[nan, 0] * cloud.points[nan, 1]) < 1e-8)
    assert np.all(np.abs(cloud.points[nan, 2].real - dom.x[i]) < 1e-15)
    assert np.all(np.isfinite(cloud.sl_defects[~nan]))


@pytest.mark.parametrize("samples", [1, 2, 4])
def test_lift_counts_excluded_samples(samples):
    # R vanishes at one node, which drops all its samples, and no node is
    # near-singular; the node count is the same for every samples_per_node
    cloud = u1.lift_to_sl3(_singular_field(0.0), samples_per_node=samples)
    one = u1.lift_to_sl3(_singular_field(0.0), samples_per_node=1)
    assert cloud.n_excluded == samples
    assert len(cloud.points) == samples * len(one.points)
    assert np.all(np.isfinite(cloud.sl_defects))


@pytest.mark.parametrize("samples", [0, -2])
def test_lift_rejects_nonpositive_samples(samples):
    with pytest.raises(ValueError, match="samples_per_node"):
        u1.lift_to_sl3(_singular_field(0.0), samples_per_node=samples)


def _per_sample_lift(sol, samples):
    # reference: the tangent planes of every sample, each through the plane
    # kernel, on the same fields and node selection as lift_to_sl3
    dom, a = sol.domain, sol.a
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        u = u1._central4(sol.f.values, 1, dom.hy)
        v = u1._central4(sol.f.values, 0, dom.hx)
        ux, uy = u1._central4(u, 0, dom.hx), u1._central4(u, 1, dom.hy)
        vx, vy = u1._central4(v, 0, dom.hx), u1._central4(v, 1, dom.hy)
    X, Y = sol.f.coords()
    sel = u1._deep_interior(dom, 4) & np.isfinite(ux) & np.isfinite(vx)
    s = a + np.sqrt(a * a + np.abs(v[sel] + 1j * Y[sel]) ** 2)
    excluded = int(np.count_nonzero(s < 1e-14)) * samples
    sel[sel] = s >= 1e-14
    x, y, u, ux, uy, v, vx, vy = [f[sel][:, None]
                                  for f in (X, Y, u, ux, uy, v, vx, vy)]
    w = v + 1j * y
    q = np.sqrt(a * a + np.abs(w) ** 2)
    R = np.sqrt(a + q)
    Rx = (v * vx) / q / (2.0 * R)
    Ry = (v * vy + y) / q / (2.0 * R)
    e = np.exp(1j * 2.0 * np.pi * np.arange(samples) / samples)
    z1, z1x, z1y = R * e, Rx * e, Ry * e
    z2 = w / z1
    z3 = np.broadcast_to(x + 1j * u, z1.shape)
    tangents = np.zeros(z1.shape + (3, 3), dtype=complex)
    tangents[..., 0, 0] = z1x
    tangents[..., 0, 1] = (vx * z1 - w * z1x) / z1 ** 2
    tangents[..., 0, 2] = 1.0 + 1j * ux
    tangents[..., 1, 0] = z1y
    tangents[..., 1, 1] = ((vy + 1j) * z1 - w * z1y) / z1 ** 2
    tangents[..., 1, 2] = 1j * uy
    tangents[..., 2, 0] = 1j * z1
    tangents[..., 2, 1] = -1j * z2
    near_singular = (a == 0.0) & (np.abs(w[:, 0]) < 1e-8)
    defects = np.full(z1.shape, np.nan)
    defects[~near_singular] = core.plane_defects(
        core.real_coords(tangents[~near_singular]).reshape(-1, 3, 6))[0].reshape(
            -1, samples)
    excluded += int(np.count_nonzero(near_singular)) * samples
    return u1.LiftedCloud(np.stack([z1, z2, z3], axis=-1).reshape(-1, 3),
                          defects.ravel(),
                          (np.abs(z1) ** 2 - np.abs(z2) ** 2).ravel(), excluded)


def _solved_a1():
    phi = u1.BoundaryData(lambda x, y: 0.2 * np.asarray(x) ** 2)
    return u1.solve_dirichlet(phi, 1.0, _disc(33), tol=1e-10)


@pytest.mark.parametrize("samples", [1, 2, 4])
@pytest.mark.parametrize("make", [_solved_a1, lambda: _singular_field(1e-10),
                                  lambda: _singular_field(0.0)],
                         ids=["a1", "a0-near-singular", "a0-vanishing"])
def test_lift_matches_per_sample_planes(make, samples):
    # one plane per node against every sample's own plane: the orbit action
    # lies in SU(3), so the defects agree to round-off, exactly at theta = 0
    sol = make()
    cloud = u1.lift_to_sl3(sol, samples_per_node=samples)
    ref = _per_sample_lift(sol, samples)
    assert np.array_equal(cloud.points, ref.points)
    assert np.array_equal(cloud.moment_values, ref.moment_values)
    assert cloud.n_excluded == ref.n_excluded
    nan = np.isnan(ref.sl_defects)
    assert np.array_equal(np.isnan(cloud.sl_defects), nan)
    first = np.arange(len(nan)) % samples == 0
    assert np.array_equal(cloud.sl_defects[first], ref.sl_defects[first],
                          equal_nan=True)
    rest = ~first & ~nan
    assert np.all(np.abs(cloud.sl_defects[rest] - ref.sl_defects[rest]) <= 1e-15)


def test_invalid_tol_rejected():
    phi = u1.BoundaryData(lambda x, y: np.zeros_like(np.asarray(x, dtype=float)))
    with pytest.raises(ValueError):
        u1.solve_dirichlet(phi, 1.0, _disc(33), tol=0.0)


def _zero_data(x, y):
    return np.zeros_like(x)


_N17 = len(_disc(17).nodes)     # active nodes of the 17-node disc


@pytest.mark.parametrize("call, message", [
    (lambda: u1.ConvexDomain("square"), "kind must be disc or ellipse"),
    (lambda: u1.ConvexDomain("disc", n=15), "resolution must be >= 17"),
    (lambda: u1.solve_dirichlet(u1.BoundaryData(
        lambda x, y: np.where(x > 0.5, np.nan, 0.0)), 1.0, _disc(17)),
     "boundary data must be finite"),
] + [(lambda r=r: u1.ConvexDomain("disc", rx=r),
      "radii must be positive and finite") for r in (0.0, -1.0, np.nan, np.inf)]
  + [(lambda r=r: u1.ConvexDomain("ellipse", rx=1.0, ry=r),
      "radii must be positive and finite") for r in (0.0, np.nan, np.inf)]
  + [(lambda tol=tol: u1.solve_dirichlet(u1.BoundaryData(_zero_data), 1.0,
                                         _disc(17), tol=tol),
      "tol must be positive and finite") for tol in (np.nan, np.inf)]
  + [(lambda a=a: u1.solve_dirichlet(u1.BoundaryData(_zero_data), a, _disc(17)),
      "a must be finite") for a in (np.nan, np.inf, -np.inf, 1e300, -1e200)]
  + [(lambda v=v: u1.solve_dirichlet(u1.BoundaryData(_zero_data), 1.0,
                                     _disc(17), initial=v),
      "initial must hold one finite value per active node")
     for v in (np.full(_N17, np.nan), np.full(_N17, -np.inf), np.zeros(3),
               np.zeros((_N17, 1)))])
def test_input_guards(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def _full_newton(phi, a, dom, tol, max_newton=40, damping_min=2.0 ** -20):
    """Reference damped Newton: harmonic-extension start, a fresh spsolve
    of the Jacobian at every step and the solver's line search."""
    ops = u1._direction_ops(dom, phi)
    Ax, bx, Axx, bxx, _, _, Ayy, byy = ops
    yv = dom.y[dom.nodes[:, 1]]
    fv = spla.spsolve((Axx + Ayy).tocsc(), -(bxx + byy))
    res = u1._p_residual(ops, yv, a, fv)
    for _ in range(max_newton):
        if np.max(np.abs(res)) <= tol:
            return fv
        v = Ax @ fv + bx
        c = u1._coefficient(v, yv, a)
        J = (sp.diags(c) @ Axx + 2.0 * Ayy
             + sp.diags(-(Axx @ fv + bxx) * v * c ** 3) @ Ax)
        step = spla.spsolve(J.tocsc(), -res)
        lam = 1.0
        while True:
            assert lam >= damping_min, "reference line search failed"
            cres = u1._p_residual(ops, yv, a, fv + lam * step)
            if np.linalg.norm(cres) < np.linalg.norm(res):
                break
            lam *= 0.5
        fv, res = fv + lam * step, cres
    assert np.max(np.abs(res)) <= tol, "reference Newton did not converge"
    return fv


@pytest.mark.parametrize("a", [1.0, 1e-3])
def test_jacobian_matches_its_diagonal_product_form(a):
    # the Jacobian scales the data of A_xx and A_x on their shared pattern;
    # it equals the product form bitwise, summed as (c A_xx + 2 A_yy) + w A_x
    dom = u1.ConvexDomain("ellipse", 1.3, 0.8, 65)
    ops = u1._direction_ops(dom, u1.BoundaryData(lambda x, y: x * x + 0.1 * y))
    Ax, bx, Axx, bxx, _, _, Ayy, _ = ops
    yv = dom.y[dom.nodes[:, 1]]
    rng = np.random.default_rng(34)
    for _ in range(3):
        fv = rng.standard_normal(len(dom.nodes))
        v = Ax @ fv + bx
        c = u1._coefficient(v, yv, a)
        ref = (sp.diags(c) @ Axx + 2.0 * Ayy
               + sp.diags((Axx @ fv + bxx) * (-v * c ** 3)) @ Ax).sorted_indices()
        J = u1._jacobian(ops, yv, a, fv)
        assert J.has_canonical_format
        for name in ("data", "indices", "indptr"):
            assert getattr(J, name).tobytes() == getattr(ref, name).tobytes()


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(("disc", "ellipse")), st.integers(8, 32),
       st.floats(0.6, 1.5), st.floats(0.6, 1.5),
       st.one_of(st.floats(0.05, 2.0), st.floats(-1.0, -0.2)),
       st.floats(-0.3, 0.3), st.floats(-0.3, 0.3))
def test_reused_factor_matches_full_newton(kind, half_n, rx, ry, a, b, c):
    # chord steps on a kept LU reach the same discrete solution as Newton
    # with a fresh Jacobian at every step
    tol = 1e-10
    dom = u1.ConvexDomain(kind, rx, ry, 2 * half_n + 1)
    phi = u1.BoundaryData(lambda x, y: 0.2 * x * x + b * x + c * y)
    sol = u1.solve_dirichlet(phi, a, dom, tol=tol)
    ref = _full_newton(phi, a, dom, tol)
    assert np.max(np.abs(sol.fvec - ref)) <= 10.0 * tol


def test_trace_of_a_nonzero_solve():
    phi = u1.BoundaryData(lambda x, y: 0.2 * np.asarray(x) ** 2)
    sol = u1.solve_dirichlet(phi, 1.0, _disc(65), tol=1e-10)
    (rec,) = sol.trace
    assert rec.level == 1.0 and rec.stop == "converged"
    steps = len(rec.step_lengths)
    assert sol.newton_iters == steps == len(rec.fresh)
    assert len(rec.residuals) == steps + 1
    assert rec.residuals[-1] <= 1e-10 < rec.residuals[0]
    # only Jacobians are factored, the first one at the line-average
    # start; chord steps reuse its LU
    assert sol.factorizations == sum(rec.fresh) < steps
    assert rec.fresh[0] and not all(rec.fresh)


def test_exhausted_newton_budget_keeps_its_record(monkeypatch):
    monkeypatch.setattr(u1, "MAX_NEWTON", 3)
    phi = u1.BoundaryData(lambda x, y: 0.2 * np.asarray(x) ** 2)
    with pytest.raises(u1.NewtonDivergenceError) as info:
        u1.solve_dirichlet(phi, 0.1, _disc(33), tol=1e-10)
    rec = info.value.record
    assert rec.stop == "max iterations"
    assert len(rec.step_lengths) == len(rec.fresh) == len(rec.residuals) - 1 == 3
    assert info.value.record.residuals[-1] == rec.residuals[-1] > 1e-10
    assert str(info.value) == ("max iterations at residual %.3e"
                               % rec.residuals[-1])


def test_stalled_continuation_ends_on_a_fresh_factor(monkeypatch):
    # with no round-off floor to stop at, data near b = c = 0 stall at the
    # round-off plateau before a = 0
    monkeypatch.setattr(u1, "KAPPA", 0.0)
    phi = u1.BoundaryData(lambda x, y: 0.2 * x * x + 0.01 * x - 0.01 * y)
    with pytest.warns(u1.ContinuationStalledWarning):
        sol = u1.solve_dirichlet(phi, 0.0, _disc(33), tol=1e-10)
    *done, last = sol.trace
    assert [rec.level for rec in sol.trace] == [4.0 ** -k for k in range(len(sol.trace))]
    assert all(rec.stop == "converged" for rec in done)
    assert sol.continuation_a == done[-1].level
    assert last.stop == "damping underflow"
    assert last.fresh[-1] and last.step_lengths[-1] == 0.0
    assert last.residuals[-1] == last.residuals[-2] > 1e-10
    assert sol.newton_iters == sum(len(rec.step_lengths) for rec in done)
    assert sol.factorizations == sum(sum(rec.fresh) for rec in sol.trace)


def test_stall_warning_points_at_the_caller(monkeypatch):
    monkeypatch.setattr(u1, "KAPPA", 0.0)
    monkeypatch.setattr(u1, "MAX_NEWTON", 25)
    phi = u1.BoundaryData(lambda x, y: 0.2 * x * x + 0.01 * x - 0.01 * y)
    with pytest.warns(u1.ContinuationStalledWarning) as record:
        u1.solve_dirichlet(phi, 0.0, _disc(33), tol=1e-10)
    assert record[0].filename == __file__


@pytest.mark.parametrize("n", [33, 65])
def test_a_zero_ladder_stops_at_its_round_off_floor(monkeypatch, n):
    # the last rung levels off above tol but within KAPPA times the
    # round-off bound of P at its start iterate, and is accepted as it is
    phi = u1.BoundaryData(lambda x, y: 0.2 * x * x + 0.01 * x - 0.01 * y)
    dom, tol = _disc(n), 1e-10
    starts, newton = [], u1._newton

    def recording(ops, domain, a, tol, initial, floor):
        starts.append(initial)
        return newton(ops, domain, a, tol, initial, floor)

    monkeypatch.setattr(u1, "_newton", recording)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sol = u1.solve_dirichlet(phi, 0.0, dom, tol=tol)
    assert caught == []
    *done, last = sol.trace
    assert last.stop == "round-off floor"
    assert all(rec.stop == "converged" for rec in done)
    Ax, bx, Axx, bxx, _, _, Ayy, byy = u1._direction_ops(dom, phi)
    f0 = np.abs(starts[-1])
    c = 1.0 / np.sqrt((Ax @ starts[-1] + bx) ** 2
                      + dom.y[dom.nodes[:, 1]] ** 2 + last.level ** 2)
    B = np.finfo(float).eps * np.max(c * (abs(Axx) @ f0 + np.abs(bxx))
                                     + 2.0 * (abs(Ayy) @ f0 + np.abs(byy)))
    assert tol < last.residuals[-1] <= 0.25 * B
    assert sol.continuation_a == last.level
    assert sol.newton_iters == sum(len(rec.step_lengths) for rec in sol.trace)
    assert sol.residual_P == last.residuals[-1] <= 10 * tol
    res = u1.p_operator(sol.f, sol.continuation_a, dom, phi)
    assert np.nanmax(np.abs(res.values)) == sol.residual_P


def _stalling_data():
    # data on which the halving-only ladder stalled at n = 65: its rung
    # a = 2^-12 stopped "damping underflow" at residual 1.59e-10
    b, c = 0.037219546802433501, -0.048148278232978931
    return u1.BoundaryData(lambda x, y: 0.2 * x * x + b * x + c * y)


def test_a_zero_ladder_reaches_its_floor_where_halving_stalled():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sol = u1.solve_dirichlet(_stalling_data(), 0.0, _disc(65), tol=1e-10)
    assert caught == []
    assert sol.continuation_a == 2.0 ** -12
    assert sol.trace[-1].stop == "round-off floor"
    assert sol.residual_P <= 10 * 1e-10
    # the work is deterministic: eight rungs and eleven factorisations,
    # where halving alone took thirteen rungs and twenty-five
    assert [rec.level for rec in sol.trace] == [
        2.0 ** -k for k in (0, 2, 4, 6, 8, 10, 11, 12)]
    assert sol.factorizations == 11


def test_a_zero_ladder_quarters_while_its_floor_is_below_tol(monkeypatch):
    # from level a_k the next level is a_k/4 exactly when KAPPA times the
    # round-off bound at (f_k, a_k/4) is at most tol, else a_k/2; from the
    # third rung on each level starts from the secant through the last two
    phi, dom, tol = _stalling_data(), _disc(65), 1e-10
    calls, newton = [], u1._newton

    def recording(ops, domain, a, tol, initial, floor):
        out = newton(ops, domain, a, tol, initial, floor)
        calls.append((a, initial, out[0]))
        return out

    monkeypatch.setattr(u1, "_newton", recording)
    sol = u1.solve_dirichlet(phi, 0.0, dom, tol=tol)
    levels = [a for a, _, _ in calls]
    assert levels == [rec.level for rec in sol.trace]
    assert all(np.frexp(a)[0] == 0.5 for a in levels)
    ops = u1._direction_ops(dom, phi)
    floor = (abs(ops[2]), abs(ops[6]))
    steps = []
    for (a, _, f), (a_next, _, _) in zip(calls, calls[1:]):
        bound = u1._round_off_bound(ops, floor, dom, a / 4, f)
        quarter = u1.KAPPA * bound <= tol
        assert a_next == (a / 4 if quarter else a / 2)
        steps.append(a / a_next)
    assert 2.0 in steps and 4.0 in steps
    for (a0, _, f0), (a1, _, f1), (a2, start, _) in zip(calls, calls[1:],
                                                          calls[2:]):
        assert np.array_equal(start, f1 + (a2 - a1) / (a1 - a0) * (f1 - f0))


def test_nonzero_level_stops_at_its_round_off_floor():
    # the a = 0 ladder accepts its last rung at the round-off floor; a solve
    # at that nonzero level from that iterate stops at the same floor at once
    phi = u1.BoundaryData(lambda x, y: 0.2 * x * x + 0.01 * x - 0.01 * y)
    dom = _disc(33)
    sol = u1.solve_dirichlet(phi, 0.0, dom, tol=1e-10)
    assert sol.trace[-1].stop == "round-off floor"
    again = u1.solve_dirichlet(phi, sol.continuation_a, dom, tol=1e-10,
                               initial=sol.fvec)
    (rec,) = again.trace
    assert rec.stop == "round-off floor" and rec.step_lengths == []
    assert rec.residuals == [sol.residual_P] and again.factorizations == 0
    assert np.array_equal(again.fvec, sol.fvec)


def test_initial_seeds_the_first_rung_at_a_zero():
    phi = u1.BoundaryData(lambda x, y: 0.2 * np.asarray(x) ** 2)
    dom = _disc(33)
    s1 = u1.solve_dirichlet(phi, 1.0, dom, tol=1e-8)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", u1.ContinuationStalledWarning)
        sol = u1.solve_dirichlet(phi, 0.0, dom, tol=1e-8, initial=s1.fvec)
        cold = u1.solve_dirichlet(phi, 0.0, dom, tol=1e-8)
    # the a = 1 rung starts from its own solution and takes no step
    first = sol.trace[0]
    assert first.level == 1.0 and first.stop == "converged"
    assert first.step_lengths == [] and sum(first.fresh) == 0
    assert first.residuals == [s1.trace[0].residuals[-1]]
    assert cold.trace[0].step_lengths
    assert [r.level for r in sol.trace] == [r.level for r in cold.trace]
    assert np.max(np.abs(sol.fvec - cold.fvec)) < 1e-6


def test_failed_chord_step_is_retried_on_a_fresh_factor(monkeypatch):
    # a kept LU that gives a NaN step when reused: no step length passes
    # the line search, which is retried on the Jacobian of its own iterate,
    # so the solve is full Newton with one factorisation per step
    factor = u1._factor

    class NaNOnReuse:
        def __init__(self, J):
            self.lu, self.used = factor(J), False

        def solve(self, rhs):
            step = self.lu.solve(rhs)
            step, self.used = (step * np.nan if self.used else step), True
            return step

    monkeypatch.setattr(u1, "_factor", NaNOnReuse)
    tol = 1e-10
    phi = u1.BoundaryData(lambda x, y: 0.2 * x * x + 0.1 * y)
    sol = u1.solve_dirichlet(phi, 0.5, _disc(33), tol=tol)
    (rec,) = sol.trace
    assert rec.stop == "converged" and all(rec.fresh)
    assert sum(rec.fresh) == len(rec.step_lengths)
    ref = _full_newton(phi, 0.5, _disc(33), tol)
    assert np.max(np.abs(sol.fvec - ref)) <= 10.0 * tol
