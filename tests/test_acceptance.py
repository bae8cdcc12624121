"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line with the measured values, then
asserts at the stated tolerances and runtime caps.
"""

import time
import warnings

import numpy as np
import pytest

from slgeo import calabi, core, evolution, families, fibrations, graphs, u1


def _report(num, label, ok, detail):
    print("criterion %-2d %-28s %s  (%s)" % (num, label,
                                             "PASS" if ok else "FAIL",
                                             detail))
    assert ok, "criterion %d: %s" % (num, detail)


def test_criterion_01_calibration_inequality():
    t0 = time.monotonic()
    min_slack = np.inf
    su_ok = True
    for m in (2, 3, 4):
        # one stack of 10000 Gaussian bases: the draws, so the planes, of
        # 10000 random_plane calls
        rng = np.random.default_rng(11)
        slack = core.plane_defects(rng.standard_normal((10000, m, 2 * m)))[1]
        min_slack = min(min_slack, slack.min())
        rng2 = np.random.default_rng(m)
        su = [core.su_rotated_real_plane(m, core.random_su_matrix(m, rng2)).basis
              for _ in range(100)]
        su_ok &= bool(core.plane_defects(np.array(su))[0].max() <= 1e-10)
    dt = time.monotonic() - t0
    ok = min_slack > -1e-12 and su_ok and dt < 10.0
    _report(1, "calibration inequality", ok,
            "min slack %.2e, su orbits %s, %.1f s" % (min_slack, su_ok, dt))


def test_criterion_02_graph_algebra():
    t0 = time.monotonic()
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(10000):
        m = rng.integers(2, 5)
        A = rng.standard_normal((m, m))
        A = 0.5 * (A + A.T)
        worst = max(worst, abs(graphs.residual_symmetric_form(A)
                               - graphs.residual_from_hessian(A)))
    witness = graphs.residual_symmetric_form(np.diag([1.0, 1.0, -2.0]))

    def potential(x):
        return (np.cos(x[0]) * np.sin(x[1]) * np.cos(x[2])
                + 0.2 * x[0] * x[1] * x[2])

    eps = [0.1, 0.05, 0.025, 0.0125]
    slope = graphs.loglog_slope(eps, graphs.linearization_gap(potential, 3, eps))
    dt = time.monotonic() - t0
    ok = (worst < 1e-12 and abs(witness - 2.0) < 1e-12
          and abs(slope - 3.0) < 0.05 and dt < 5.0)
    _report(2, "graph residual algebra", ok,
            "form agreement %.2e, witness %.15g, slope %.3f, %.1f s"
            % (worst, witness, slope, dt))


@pytest.fixture(scope="module")
def u1_solutions():
    """Shared quadratic-data solves for criteria 3 and 4."""
    phi = u1.BoundaryData(lambda x, y: 0.2 * np.asarray(x) ** 2)
    out = {}
    for n in (33, 65, 129):
        t0 = time.monotonic()
        out[n] = u1.solve_dirichlet(phi, 1.0, u1.ConvexDomain("disc", n=n),
                                    tol=1e-10)
        out["t%d" % n] = time.monotonic() - t0
    out["phi"] = phi
    return out


def test_criterion_03_u1_dirichlet_solver(u1_solutions):
    tol = 1e-10
    dom = u1.ConvexDomain("disc", n=129)
    # affine data reproduced exactly
    b, c = 0.4, -0.2
    aff = u1.BoundaryData(lambda x, y: b * np.asarray(x) + c * np.asarray(y))
    sol_aff = u1.solve_dirichlet(aff, 1.0, dom, tol=tol)
    inside = dom.inside
    affine_dev = max(np.max(np.abs(sol_aff.v.values[inside] - b)),
                     np.max(np.abs(sol_aff.u.values[inside] - c)))
    # quadratic data at 129^2
    sol = u1_solutions[129]
    crs = [u1.cr_residual(u1_solutions[n]) for n in (33, 65, 129)]
    slopes = np.log2(np.array(crs[:-1]) / np.array(crs[1:]))
    # two initial guesses
    sol_b = u1.solve_dirichlet(u1_solutions["phi"], 1.0, dom, tol=tol,
                               initial=np.zeros_like(sol.fvec))
    guess_gap = float(np.max(np.abs(sol.fvec - sol_b.fvec)))
    slowest = max(u1_solutions["t%d" % n] for n in (33, 65, 129))
    ok = (affine_dev < 1e-12 and sol.residual_P < 1e-8
          and np.all(np.abs(slopes - 2.0) < 0.2)
          and guess_gap < 10.0 * tol and slowest < 60.0)
    _report(3, "U(1) Dirichlet solver", ok,
            "affine %.1e, |P| %.1e, cr slopes %s, guess gap %.1e, %.1f s"
            % (affine_dev, sol.residual_P,
               np.round(slopes, 3).tolist(), guess_gap, slowest))


def test_criterion_04_lifted_sl_residual(u1_solutions):
    phi = u1_solutions["phi"]
    dom = u1.ConvexDomain("disc", n=129)
    worst_defect = 0.0
    worst_moment = 0.0
    n_points = np.inf
    for a in (0.7, 1.0, 1.3):
        sol = (u1_solutions[129] if a == 1.0
               else u1.solve_dirichlet(phi, a, dom, tol=1e-10))
        cloud = u1.lift_to_sl3(sol)
        n_points = min(n_points, len(cloud.points))
        worst_defect = max(worst_defect, float(np.nanmax(cloud.sl_defects)))
        worst_moment = max(worst_moment, float(np.max(np.abs(
            cloud.moment_values - 2.0 * a))))
    ok = (n_points >= 10 ** 4 and worst_defect < 1e-5
          and worst_moment < 1e-12)
    _report(4, "lifted SL residual", ok,
            "%d points, defect %.2e, moment error %.1e"
            % (n_points, worst_defect, worst_moment))


def test_criterion_05_fibrations():
    # explicit-map round trip, discriminant, topology transition
    roundtrip = 0.0
    for a, b in ((0.5, 0.3 + 0.1j), (-0.4, 0.2j), (0.0, 1.0 + 0j)):
        rec = fibrations.explicit_F_fiber(a, b)
        for p in rec.points:
            fa, fbv = fibrations.explicit_F(p)
            roundtrip = max(roundtrip, abs(fa - a), abs(fbv - complex(b)))
    sing = fibrations.discriminant_scan(np.linspace(-1.0, 1.0, 21))
    labels = [fibrations.explicit_F_fiber(a, 0.3).topology
              for a in (-0.5, 0.0, 0.5)]
    # family disjointness over >= 100 seeded pairs
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fam = u1.FibrationFamily(
            base_phi=lambda x, y: 0.2 * x * x,
            U=((-0.5, 0.5), (-0.3, 0.3), (-0.3, 0.3)),
            domain=u1.ConvexDomain("disc", n=33))
        rng = np.random.default_rng(42)
        pairs = []
        for _ in range(100):
            a = rng.uniform(-0.5, 0.5)
            b1, c1 = rng.uniform(-0.3, 0.3, 2)
            b2, c2 = rng.uniform(-0.3, 0.3, 2)
            if abs(b1 - b2) + abs(c1 - c2) < 1e-3:
                b2 += 0.05
            pairs.append(((a, b1, c1), (a, b2, c2)))
        report = u1.check_disjoint(fam, pairs)
    zero_counts = [entry.get("zeros", 0) for entry in report]
    ok = (roundtrip < 1e-10 and sing == [0.0]
          and labels == ["S1xR2", "T2_cone", "S1xR2"]
          and all(z == 0 for z in zero_counts)
          and all(entry["disjoint"] for entry in report))
    _report(5, "fibrations", ok,
            "roundtrip %.1e, discriminant %s, labels %s, "
            "difference zeros %d/100 pairs"
            % (roundtrip, sing, labels, sum(zero_counts)))


def test_criterion_06_legendrian_index():
    t0 = time.monotonic()
    G = families.l0_link_gram()
    idx = families.legendrian_index_flat_torus(G, 3)
    # the count over a box of half-width 20, walked one frequency at a time
    Ginv = np.linalg.inv(G)
    idx_loop = sum(0.0 < Ginv[0, 0] * n1 * n1 + 2 * Ginv[0, 1] * n1 * n2
                   + Ginv[1, 1] * n2 * n2 < 6.0 - 1e-12
                   for n1 in range(-20, 21) for n2 in range(-20, 21))
    mult2 = families.eigenvalue_multiplicity(G, 2.0)
    # n = (+-40, 0) lies outside that box
    mult_wide = families.eigenvalue_multiplicity(np.diag([1000.0, 1.0]), 1.6)
    dt = time.monotonic() - t0
    ok = idx == idx_loop == 6 and mult2 >= 1 and mult_wide == 2 and dt < 1.0
    _report(6, "Legendrian index", ok,
            "index %d (double loop: %d), eigenvalue-2 multiplicity %d, "
            "diag(1000, 1) multiplicity of 1.6: %d, %.2f s"
            % (idx, idx_loop, mult2, mult_wide, dt))


def test_criterion_07_moduli_dimensions():
    t0 = time.monotonic()
    quintic = families.ci_moduli_dimension(5, [5])
    cubics = families.ci_moduli_dimension(6, [3, 3])
    dt = time.monotonic() - t0
    ok = quintic == 101 and cubics == 73 and dt < 1.0
    _report(7, "moduli dimensions", ok,
            "quintic %d, two cubics %d, %.2f s" % (quintic, cubics, dt))


def test_criterion_08_calabi_solver():
    # zero source
    path0 = calabi.solve_calabi(calabi.TorusField(1, np.zeros((16, 16))),
                                tol=1e-12, t_steps=2)
    zero_dev = float(np.max(np.abs(path0.phi.values)))
    # manufactured O(h^2)
    errs = []
    for n in (16, 32, 64):
        phi_e = calabi.TorusField.from_function(
            1, n, lambda x, y: 0.1 * np.cos(x) * np.cos(y))
        f = calabi.TorusField.from_function(
            1, n, lambda x, y: np.log(1.0 - 0.1 * np.cos(x) * np.cos(y)))
        path = calabi.solve_calabi(calabi.normalize_source(f), tol=1e-12,
                                   t_steps=1)
        errs.append(float(np.max(np.abs(
            path.phi.values - (phi_e.values - np.mean(phi_e.values))))))
    slopes = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    # m = 1 against the direct Poisson solve
    f1 = calabi.normalize_source(calabi.TorusField.from_function(
        1, 32, lambda x, y: 0.1 * np.sin(x + y)))
    poisson_gap = float(np.max(np.abs(
        calabi.solve_calabi(f1, tol=1e-13, t_steps=1).phi.values
        - calabi.poisson_reference_solution(f1).values)))
    # Ricci shift rho' = rho - i ddbar f at discretization accuracy
    ricci_errs = []
    for n in (16, 32):
        fr = calabi.normalize_source(calabi.TorusField.from_function(
            1, n, lambda x, y: 0.1 * np.cos(x) * np.cos(y)))
        path = calabi.solve_calabi(fr, tol=1e-12, t_steps=1)
        ratio = calabi.ma_operator(path.phi)
        coeff, _ = calabi.ricci_form(ratio)
        xs = 2.0 * np.pi * np.arange(n) / n
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        # -i ddbar f has coefficient -(1/2) Lap f = g for f = g + const,
        # g = 0.1 cos x cos y (Lap g = -2 g)
        analytic = 0.1 * np.cos(X) * np.cos(Y)
        ricci_errs.append(float(np.max(np.abs(coeff - analytic))))
    ricci_slope = float(np.log2(ricci_errs[0] / ricci_errs[1]))
    # positivity + runtime at m = 2, n = 64
    f2 = calabi.normalize_source(calabi.TorusField.from_function(
        2, 64, lambda x1, y1, x2, y2: 0.05 * (np.cos(x1) + np.cos(y2))))
    t0 = time.monotonic()
    path2 = calabi.solve_calabi(f2, tol=1e-9, t_steps=1)
    dt2 = time.monotonic() - t0
    positive = float(np.min(calabi.ma_operator(path2.phi).values))
    ok = (zero_dev < 1e-13 and np.all(np.abs(slopes - 2.0) < 0.1)
          and poisson_gap < 1e-10 and ricci_slope > 1.7
          and positive > 0.0 and dt2 < 120.0)
    _report(8, "Calabi solver", ok,
            "zero %.1e, slopes %s, poisson %.1e, ricci slope %.2f, "
            "min det %.3f, m=2 n=64 in %.1f s"
            % (zero_dev, np.round(slopes, 3).tolist(), poisson_gap,
               ricci_slope, positive, dt2))


def test_criterion_09_evolution():
    t0 = time.monotonic()
    surf = evolution.EvolvingSurface.sphere(
        3, scale=np.exp(1j * np.pi / 6), dt=0.01)
    evolution.evolve_run(surf, 0.5)
    drift = evolution.symplectic_drift(surf)
    devs = []
    for dt_step in (0.05, 0.025):
        s = evolution.EvolvingSurface.sphere(
            3, scale=np.exp(1j * np.pi / 6), dt=dt_step)
        evolution.evolve_run(s, 0.5)
        devs.append(evolution.compare_so3(s))
    improvement = devs[0] / devs[1]
    dt = time.monotonic() - t0
    ok = (drift < 1e-6 and devs[0] < 1e-3 and improvement >= 3.5
          and dt < 60.0)
    _report(9, "surface evolution", ok,
            "drift %.1e, family deviation %.1e, dt-halving gain %.1fx, "
            "%.1f s at %d nodes"
            % (drift, devs[0], improvement, dt, len(surf.verts)))


def test_criterion_10_property_coverage():
    # the analytic results with no finite witness are covered by the
    # residual/property suites in this directory; assert the suites exist
    import pathlib
    here = pathlib.Path(__file__).parent
    suites = ["test_core.py", "test_graphs.py", "test_u1.py",
              "test_fibrations.py", "test_families.py", "test_calabi.py",
              "test_evolution.py"]
    missing = [s for s in suites if not (here / s).exists()]
    ok = not missing
    _report(10, "property-suite coverage", ok,
            "all module suites present" if ok else "missing %s" % missing)
