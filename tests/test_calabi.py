"""Tests for the torus Monge-Ampere solver, Ricci forms, and the radial
Ricci-flat profile."""

import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slgeo import calabi

EPS = np.finfo(float).eps


def _roll_hessian(v, h):
    """Reference complex Hessian (H11, H22, H12) of an m = 2 field, built
    from whole-array rolls as the solver once did."""
    def d2(ax):
        return (np.roll(v, -1, ax) - 2.0 * v + np.roll(v, 1, ax)) / h ** 2

    def mix(a, b):      # 4 h^2 times the centred mixed difference
        g = np.roll(v, -1, b) - np.roll(v, 1, b)
        return np.roll(g, -1, a) - np.roll(g, 1, a)

    s = 0.5 / (4.0 * h * h)
    H12 = s * (mix(0, 2) + mix(1, 3)) + 1j * s * (mix(0, 3) - mix(1, 2))
    return 0.5 * (d2(0) + d2(1)), 0.5 * (d2(2) + d2(3)), H12


def _recovery_error(path, phi_exact):
    target = phi_exact.values - np.mean(phi_exact.values)
    return float(np.max(np.abs(path.phi.values - target)))


def test_zero_source_gives_zero_potential():
    f = calabi.TorusField(1, np.zeros((16, 16)))
    path = calabi.solve_calabi(f, tol=1e-12, t_steps=2)
    assert np.max(np.abs(path.phi.values)) < 1e-13
    assert path.residual < 1e-13


def test_m1_discrete_manufactured_recovery():
    # forcing built from the discrete operator is recovered to round-off
    phi = calabi.TorusField.from_function(
        1, 32, lambda x, y: 0.1 * np.cos(x) * np.cos(y))
    det = calabi.ma_operator(phi)
    f = calabi.TorusField(1, np.log(det.values))
    path = calabi.solve_calabi(calabi.normalize_source(f), tol=1e-13,
                               t_steps=2)
    assert _recovery_error(path, phi) < 1e-12


def test_m1_agrees_with_poisson():
    # the m = 1 equation is linear, so the continuity solve must land on
    # the direct Poisson solution
    f = calabi.normalize_source(calabi.TorusField.from_function(
        1, 32, lambda x, y: 0.1 * np.sin(x + y)))
    p1 = calabi.solve_calabi(f, tol=1e-13, t_steps=1).phi.values
    p2 = calabi.poisson_reference_solution(f).values
    assert np.max(np.abs(p1 - p2)) < 1e-10


def test_m2_discrete_manufactured_recovery():
    phi = calabi.TorusField.from_function(
        2, 16, lambda x1, y1, x2, y2: 0.05 * np.cos(x1) * np.cos(y2))
    det = calabi.ma_operator(phi)
    f = calabi.TorusField(2, np.log(det.values))
    path = calabi.solve_calabi(calabi.normalize_source(f), tol=1e-11,
                               t_steps=3)
    assert _recovery_error(path, phi) < 1e-9


def test_positivity_guard():
    # a potential with huge concavity loses positivity of 1 + H
    phi = calabi.TorusField.from_function(
        1, 16, lambda x, y: 3.0 * np.cos(x))
    with pytest.raises(calabi.NonKahlerIterateError):
        calabi.ma_operator(phi)


# m = 2 fields that break each branch of the guard: a spike of height h^2
# makes 1 + H11 = -1 at its node while det(I + H) stays >= 0.98 everywhere;
# the wave 1.5 cos(x1 + x2) keeps 1 + H11 >= 0.26 but has det = -0.44.
def _spike(n):
    v = np.zeros((n,) * 4)
    v[11, 5, 7, 9] = (2.0 * np.pi / n) ** 2
    return calabi.TorusField(2, v)


def _wave(n):
    return calabi.TorusField.from_function(
        2, n, lambda x1, y1, x2, y2: 1.5 * np.cos(x1 + x2))


@pytest.mark.parametrize("planes", [None, 3])
@pytest.mark.parametrize("field, h11_positive", [(_spike, False),
                                                  (_wave, True)])
def test_positivity_guard_m2(field, h11_positive, planes):
    phi = field(16)
    H11, _, _ = calabi._complex_hessian(phi)
    ratio = calabi.ma_operator(phi, check_positivity=False).values
    assert (np.min(1.0 + H11) > 0.0) == h11_positive
    assert (np.min(ratio) > 0.0) != h11_positive
    # with slabs of 3 planes the spike (plane 11) sits in the fourth slab
    slab_nodes = calabi.SLAB_NODES if planes is None else planes * 16 ** 3
    with mock.patch.object(calabi, "SLAB_NODES", slab_nodes):
        with pytest.raises(calabi.NonKahlerIterateError):
            calabi.ma_operator(phi)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(4, 24), planes=st.none() | st.integers(1, 5),
       seed=st.integers(0, 2 ** 32 - 1), scale=st.floats(0.0, 1.0))
@example(n=23, planes=None, seed=1, scale=1.0)
@example(n=7, planes=2, seed=2, scale=0.5)
def test_slab_stencil_matches_roll_reference(n, planes, seed, scale):
    # slabs of `planes` planes (None: the module's own slab size) against
    # the whole-array roll stencil, on fields with |H| of order one
    h = 2.0 * np.pi / n
    v = scale * h * h * np.random.default_rng(seed).uniform(-1, 1, (n,) * 4)
    slab_nodes = calabi.SLAB_NODES if planes is None else planes * n ** 3
    with mock.patch.object(calabi, "SLAB_NODES", slab_nodes):
        ratio = calabi.ma_operator(calabi.TorusField(2, v),
                                   check_positivity=False).values
        hess = calabi._complex_hessian(calabi.TorusField(2, v))
        rho, residual = calabi.ricci_form(calabi.TorusField(2, np.exp(v)))
    H11, H22, H12 = _roll_hessian(v, h)
    tol = 64 * EPS * (1.0 + np.max(np.abs(v))) / h ** 2
    for got, ref in zip(hess, (H11, H22, H12)):
        assert np.max(np.abs(got - ref)) <= tol
    ref = (1.0 + H11) * (1.0 + H22) - np.abs(H12) ** 2
    assert np.max(np.abs(ratio - ref)) <= tol
    logf = np.log(np.exp(v))
    L11, L22, L12 = _roll_hessian(logf, h)
    tol = 64 * EPS * (1.0 + np.max(np.abs(logf))) / h ** 2
    refs = (-0.5 * L11, -0.5 * L12), (-0.5 * np.conj(L12), -0.5 * L22)
    for j in range(2):
        for k in range(2):
            assert np.max(np.abs(rho[..., j, k] - refs[j][k])) <= tol
    assert residual <= 1e-13


def _stencil_outputs(v):
    """Everything the slab stencil computes from the samples v."""
    f = calabi.TorusField(v.ndim // 2, v)
    ratio = calabi._volume_ratio(v, f.h, np.empty_like(v),
                                 check_positivity=False)
    outputs = (ratio, calabi.ma_operator(f, check_positivity=False).values,
               *calabi.ricci_form(calabi.TorusField(f.m, np.exp(v))),
               *calabi._complex_hessian(f))
    return [np.asarray(a) for a in outputs if a is not None]


@pytest.mark.parametrize("cpus", [None, 5])
@pytest.mark.parametrize("m, n, planes", [(1, 24, 5), (2, 12, 1), (2, 12, 5),
                                          (2, 7, 3), (2, 20, None)])
def test_stencil_bitwise_independent_of_workers(m, n, planes, cpus):
    # reference: one worker walking one slab; then slabs of `planes` planes
    # (None: the module's own size; the last slab is shorter except for
    # planes = 1) on the default worker count or on more workers than
    # cores, with a short switch interval so the threads interleave
    h = 2.0 * np.pi / n
    v = h * h * np.random.default_rng(n).uniform(-1, 1, (n,) * (2 * m))
    with mock.patch.object(calabi, "SLAB_NODES", v.size), \
            mock.patch.object(calabi, "_cpus", lambda: 1):
        ref = _stencil_outputs(v)
    slab_nodes = calabi.SLAB_NODES if planes is None else planes * v[0].size
    workers = calabi._cpus() if cpus is None else cpus
    threads = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(calabi, "SLAB_NODES", slab_nodes), \
                mock.patch.object(calabi, "_cpus", lambda: workers):
            got = _stencil_outputs(v)
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == threads
    assert len(got) == len(ref)
    for a, b in zip(got, ref):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_path_records_newton_trace_and_halvings():
    # at most 9 Newton iterations: the full step needs 10, so the path
    # halves twice and reaches t = 1 in steps 0.5, 0.25, 0.25
    f = calabi.normalize_source(calabi.TorusField.from_function(
        2, 8, lambda x1, y1, x2, y2: 0.1 * (np.cos(x1) + np.cos(y2))))
    path = calabi.solve_calabi(f, tol=1e-10, t_steps=1, max_newton=9)
    assert path.steps == [0.5, 0.75, 1.0]
    assert path.halvings == [(0.0, 1.0, "max iterations"),
                             (0.5, 0.5, "max iterations")]
    # one record per Newton solve, the failed ones included
    assert [(r.level, r.stop) for r in path.trace] == [
        (1.0, "max iterations"), (0.5, "converged"), (1.0, "max iterations"),
        (0.75, "converged"), (1.0, "converged")]
    done = [r for r in path.trace if r.stop == "converged"]
    assert path.newton_iters == [len(r.step_lengths) for r in done]
    for rec in path.trace:
        rnorms, lams = rec.residuals, rec.step_lengths
        assert len(rnorms) == len(lams) + 1
        assert all(b < a for a, b in zip(rnorms, rnorms[1:]))
        assert all(0.0 < lam <= 1.0 for lam in lams)
        assert rec.fresh == [] and rec.factorizations == 0
        if rec.stop == "converged":
            assert rnorms[-1] <= 1e-10 < rnorms[0]
        else:
            assert len(lams) == 9 and rnorms[-1] > 1e-10
    assert path.residual <= 1e-10
    # phi is its own array, not a view that keeps the solver's work block
    assert path.phi.values.flags.owndata


def test_path_failure_keeps_partial_path():
    # at A = 2 a five-iteration Newton budget fails every full step, so
    # the path halves down to dt < 1e-4 and gives up early on
    f = calabi.normalize_source(calabi.TorusField.from_function(
        2, 8, lambda x1, y1, x2, y2: 2.0 * (np.cos(x1) + np.cos(y2))))
    with pytest.raises(calabi.PathFailureError) as info:
        calabi.solve_calabi(f, tol=1e-10, t_steps=1, max_newton=5)
    exc = info.value
    path = exc.path
    assert path.steps and path.steps[-1] == exc.last_good_t
    assert len(path.trace) == len(path.steps) + len(path.halvings)
    done = [r for r in path.trace if r.stop == "converged"]
    assert [r.level for r in done] == path.steps
    assert len(path.c_values) == len(path.steps)
    assert path.newton_iters == [len(r.step_lengths) for r in done]
    for rec in done:
        assert len(rec.residuals) == len(rec.step_lengths) + 1
        assert rec.residuals[-1] <= 1e-10
    t, dt, reason = path.halvings[-1]
    assert t == exc.last_good_t and 0.5 * dt < 1e-4
    assert reason == path.trace[-1].stop and reason in str(exc)
    assert path.phi is None


def _mild_m2_source():
    return calabi.normalize_source(calabi.TorusField.from_function(
        2, 8, lambda x1, y1, x2, y2: 0.1 * (np.cos(x1) + np.cos(y2))))


def test_line_search_failure_recorded_as_damping_underflow():
    # an ascent direction: no line-search step lowers the residual, so
    # every Newton solve stops at its first iteration and is halved
    solve = calabi._poisson_solve
    with mock.patch.object(calabi, "_poisson_solve",
                           lambda rhs, h: -solve(rhs, h)):
        with pytest.raises(calabi.PathFailureError) as info:
            calabi.solve_calabi(_mild_m2_source(), t_steps=1)
    path = info.value.path
    assert path.steps == [] and len(path.trace) == len(path.halvings) > 1
    for rec, (t, dt, reason) in zip(path.trace, path.halvings):
        assert t == 0.0 and rec.level == dt
        assert rec.stop == reason == "damping underflow"
        assert rec.step_lengths == [0.0]
        assert rec.residuals[1] == rec.residuals[0] > 1e-10
    assert "damping underflow" in str(info.value)


def test_unrelated_error_propagates_without_halving():
    calls = []

    def broken(rhs, h):
        calls.append(h)
        raise RuntimeError("unrelated failure")

    with mock.patch.object(calabi, "_poisson_solve", broken):
        with pytest.raises(RuntimeError, match="unrelated failure") as info:
            calabi.solve_calabi(_mild_m2_source(), t_steps=1)
    assert type(info.value) is RuntimeError
    assert len(calls) == 1


def test_step_doubles_after_each_accepted_step():
    # the A = 2 source of the test above: each failed step is halved and
    # each accepted step of length L is followed by an attempt of length
    # min(2 L, 1 - t), halvings included
    f = calabi.normalize_source(calabi.TorusField.from_function(
        2, 8, lambda x1, y1, x2, y2: 2.0 * (np.cos(x1) + np.cos(y2))))
    with pytest.raises(calabi.PathFailureError) as info:
        calabi.solve_calabi(f, tol=1e-10, t_steps=1, max_newton=5)
    path = info.value.path
    ends = path.steps
    assert len(ends) > 1 and len(path.halvings) > len(ends)
    for i, (s, e) in enumerate(zip([0.0] + ends, ends)):
        tried = [dt for t, dt, _ in path.halvings if t == s] + [e - s]
        assert tried[1:] == pytest.approx([0.5 * dt for dt in tried[:-1]])
        failed = [dt for t, dt, _ in path.halvings if t == e]
        first = failed[0] if failed else ends[i + 1] - e
        assert first == pytest.approx(min(2.0 * (e - s), 1.0 - e))


def test_manufactured_order_two_m1():
    errs = []
    for n in (16, 32, 64):
        phi_e = calabi.TorusField.from_function(
            1, n, lambda x, y: 0.1 * np.cos(x) * np.cos(y))
        # analytic volume ratio 1 + Lap(phi)/2 = 1 - 0.1 cos x cos y
        f = calabi.TorusField.from_function(
            1, n, lambda x, y: np.log(1.0 - 0.1 * np.cos(x) * np.cos(y)))
        path = calabi.solve_calabi(calabi.normalize_source(f), tol=1e-12,
                                   t_steps=1)
        errs.append(_recovery_error(path, phi_e))
    slopes = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(np.abs(slopes - 2.0) < 0.1)


def test_mean_constraint_and_c_values():
    f = calabi.normalize_source(calabi.TorusField.from_function(
        1, 16, lambda x, y: 0.2 * np.cos(x)))
    path = calabi.solve_calabi(f, tol=1e-12, t_steps=4)
    assert abs(path.phi.mean()) < 1e-13
    assert len(path.c_values) == len(path.steps)
    # c_1 approaches the analytic normalization constant as t -> 1
    assert abs(path.c_values[-1]
               + np.log(np.mean(np.exp(f.values)))) < 1e-10


# ---------------------------------------------------------------------------
# Ricci forms


def test_flat_ratio_has_zero_ricci():
    ratio = calabi.TorusField(1, np.full((16, 16), 2.5))
    coeff, res = calabi.ricci_form(ratio)
    assert np.max(np.abs(coeff)) < 1e-13
    assert res < 1e-13


def test_ricci_conformal_change_m2():
    # multiplying the ratio by e^g shifts the Ricci coefficients by the
    # complex Hessian of -g/... (rho' = rho - i ddbar g)
    base = calabi.TorusField.from_function(
        2, 16, lambda a, b, c, d: np.exp(0.05 * np.cos(a) * np.cos(d)))
    rho, res = calabi.ricci_form(base)
    assert res < 1e-12
    g = calabi.TorusField.from_function(
        2, 16, lambda a, b, c, d: 0.02 * np.sin(a + c))
    shifted = calabi.TorusField(2, base.values * np.exp(g.values))
    rho2, _ = calabi.ricci_form(shifted)
    H11, H22, H12 = calabi._complex_hessian(g)
    assert np.max(np.abs(rho2[..., 0, 0] - (rho[..., 0, 0] - 0.5 * H11))) < 1e-13
    assert np.max(np.abs(rho2[..., 1, 1] - (rho[..., 1, 1] - 0.5 * H22))) < 1e-13
    assert np.max(np.abs(rho2[..., 0, 1] - (rho[..., 0, 1] - 0.5 * H12))) < 1e-13


def test_solved_metric_ricci_matches_source():
    # after solving det(I + H) = e^{f + c}, the Ricci form of the volume
    # ratio equals -i ddbar (f + c) = -i ddbar f up to O(h^2)
    n = 32
    f = calabi.normalize_source(calabi.TorusField.from_function(
        1, n, lambda x, y: 0.1 * np.cos(x) * np.cos(y)))
    path = calabi.solve_calabi(f, tol=1e-12, t_steps=1)
    ratio = calabi.ma_operator(path.phi)
    coeff, _ = calabi.ricci_form(ratio)
    H11, _, _ = calabi._complex_hessian(f)
    assert np.max(np.abs(coeff + H11)) < 1e-10


def test_bad_calabi_input_rejected():
    for m in (1, 2):
        with pytest.raises(ValueError):
            calabi.TorusField(m, np.zeros((0,) * (2 * m)))
    f = calabi.TorusField(1, np.zeros((8, 8)))
    for kwargs in ({"t_steps": 0}, {"t_steps": -1}, {"tol": 0.0},
                   {"tol": -1e-10}):
        with pytest.raises(ValueError):
            calabi.solve_calabi(f, **kwargs)


def test_nonpositive_ratio_rejected():
    bad = calabi.TorusField(1, np.full((8, 8), -1.0))
    with pytest.raises(calabi.InvalidVolumeError):
        calabi.ricci_form(bad)


# ---------------------------------------------------------------------------
# the radial Ricci-flat profile on C^2


def test_radial_profile_flat_case():
    prof = calabi.radial_ricci_flat_profile(0.0)
    assert prof.conserved_residual < 1e-10
    assert prof.ricci_residual < 1e-8
    # C = 0 is the flat metric: f' = 1
    assert np.max(np.abs(prof.fprime - 1.0)) < 1e-10


def test_radial_profile_nontrivial_case():
    prof = calabi.radial_ricci_flat_profile(1.0)
    assert prof.conserved_residual < 1e-8
    assert prof.ricci_residual < 1e-6
    # h = f' decreases toward 1 at infinity
    assert prof.fprime[0] > prof.fprime[-1] > 1.0
