"""Tests for the torus Monge-Ampere solver, Ricci forms, and the radial
Ricci-flat profile."""

import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slgeo import calabi, evolution, u1

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


def _hessian(phi):
    """(H11, H22, H12) of a TorusField from the slab stencil, as whole
    arrays; H22 and H12 are None for m = 1."""
    H = [np.empty_like(phi.values) for _ in range(1 if phi.m == 1 else 4)]

    def slab(rows, *parts):     # H11, H22, re, im
        for out, part in zip(H, parts):
            out[rows] = part

    calabi._map_slabs(phi.values, phi.h, slab)
    if phi.m == 1:
        return H[0], None, None
    return H[0], H[1], H[2] + 1j * H[3]


def _unchecked_ratio(v, h):
    """det(I + H) of the samples v at every node, positive or not."""
    ratio = np.empty_like(v)
    calabi._volume_ratio(v, h, ratio)
    return ratio


def _goal(level, start, tol=1e-10):
    """The residual a Newton solve at level t from residual start converges
    at: tol at t = 1, short of it the geometric mean of tol and start."""
    if level == 1.0:
        return tol
    return max(tol, np.sqrt(tol * start))


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
    H11, _, _ = _hessian(phi)
    ratio = _unchecked_ratio(phi.values, phi.h)
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
        ratio = _unchecked_ratio(v, h)
        hess = _hessian(calabi.TorusField(2, v))
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
    rho01 = rho[2] + 1j * rho[3]
    got = (rho[0], rho01), (np.conj(rho01), rho[1])
    for j in range(2):
        for k in range(2):
            assert np.max(np.abs(got[j][k] - refs[j][k])) <= tol
    assert residual <= 1e-13


def _stencil_outputs(v):
    """Everything the slab stencil computes from the samples v."""
    f = calabi.TorusField(v.ndim // 2, v)
    outputs = (_unchecked_ratio(v, f.h),
               calabi.ma_operator(calabi.TorusField(f.m, 0.1 * v)).values,
               *calabi.ricci_form(calabi.TorusField(f.m, np.exp(v))),
               *_hessian(f))
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


@pytest.mark.parametrize("count, cpus", [(3, 3), (None, 1)])
def test_cpus_without_an_affinity_mask(monkeypatch, count, cpus):
    # a platform with no sched_getaffinity falls back to the CPU count,
    # and to one CPU when that count is unknown
    monkeypatch.delattr(calabi.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(calabi.os, "cpu_count", lambda: count)
    assert calabi._cpus() == cpus


@pytest.mark.parametrize("m, n", [(1, 12), (2, 7), (2, 16)])
def test_ricci_form_bitwise_whole_grid_log(m, n):
    # log f taken on each wrapped slab gives the Hessian of the whole-grid
    # log f, bit for bit
    h = 2.0 * np.pi / n
    ratio = np.exp(h * h * np.random.default_rng(n).uniform(-1, 1,
                                                            (n,) * (2 * m)))
    rho, _ = calabi.ricci_form(calabi.TorusField(m, ratio))
    H11, H22, H12 = _hessian(calabi.TorusField(m, np.log(ratio)))
    if m == 1:
        assert rho.tobytes() == (-H11).tobytes()
        return
    for got, ref in ((rho[0], H11), (rho[1], H22), (rho[2], H12.real),
                     (rho[3], H12.imag)):
        assert got.tobytes() == (-0.5 * ref).tobytes()


def test_working_set():
    # numpy's data allocations are traced, so these counts are exact up to
    # a few small Python objects; m = 2, n = 32 (one grid array is 8.4 MB),
    # two stencil threads, above the inputs
    f = calabi.normalize_source(calabi.TorusField.from_function(
        2, 32, lambda x1, y1, x2, y2: 0.05 * (np.cos(x1) + np.cos(y2))))
    grid = f.values.nbytes
    with mock.patch.object(calabi, "_cpus", lambda: 2):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            path = calabi.solve_calabi(f, tol=1e-10, t_steps=3)
            held, peak = tracemalloc.get_traced_memory()
            # the block of four, the float32 rhs, two float32 steps and the
            # FFT's complex64 half-spectrum
            assert peak - base <= 6.5 * grid
            # only path.phi outlives the solve: no cached symbol
            assert held - base <= 1.05 * grid
            ratio = calabi.ma_operator(path.phi)
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            rho, _ = calabi.ricci_form(ratio)
            # rho (4 arrays) and the threads' scratch: no whole-grid log f
            # or padded copy
            assert tracemalloc.get_traced_memory()[1] - base <= 5.5 * grid
        finally:
            tracemalloc.stop()


def test_path_records_newton_trace_and_halvings(monkeypatch):
    # at most 11 Newton iterations: the full step needs 14, and the step
    # 0.5 -> 1 from its predicted start needs more than 11, so the path
    # halves twice and reaches t = 1 in steps 0.5, 0.25, 0.25
    f = calabi.normalize_source(calabi.TorusField.from_function(
        2, 8, lambda x1, y1, x2, y2: 0.19 * (np.cos(x1) + np.cos(y2))))
    monkeypatch.setattr(calabi, "MAX_NEWTON", 11)
    path = calabi.solve_calabi(f, tol=1e-10, t_steps=1)
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
        assert rec.fresh == []
        if rec.stop == "converged":
            assert 1e-10 < rnorms[0]
            assert rnorms[-1] <= _goal(rec.level, rnorms[0])
        else:
            assert len(lams) == 11 and rnorms[-1] > 1e-10
    assert path.residual <= 1e-10
    # phi is its own array, not a view that keeps the solver's work block
    assert path.phi.values.flags.owndata


def test_path_failure_keeps_partial_path(monkeypatch):
    # at A = 2 a five-iteration Newton budget fails every full step, so
    # the path halves down to dt < 1e-4 and gives up early on
    f = calabi.normalize_source(calabi.TorusField.from_function(
        2, 8, lambda x1, y1, x2, y2: 2.0 * (np.cos(x1) + np.cos(y2))))
    monkeypatch.setattr(calabi, "MAX_NEWTON", 5)
    with pytest.raises(calabi.PathFailureError) as info:
        calabi.solve_calabi(f, tol=1e-10, t_steps=1)
    exc = info.value
    path = exc.path
    assert path.steps and "at t = %.6f:" % path.steps[-1] in str(exc)
    assert len(path.trace) == len(path.steps) + len(path.halvings)
    done = [r for r in path.trace if r.stop == "converged"]
    assert [r.level for r in done] == path.steps
    assert len(path.c_values) == len(path.steps)
    assert path.newton_iters == [len(r.step_lengths) for r in done]
    for rec in done:
        assert len(rec.residuals) == len(rec.step_lengths) + 1
        assert rec.residuals[-1] <= _goal(rec.level, rec.residuals[0])
    t, dt, reason = path.halvings[-1]
    assert t == path.steps[-1] and 0.5 * dt < 1e-4
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


def test_step_keeps_its_length_after_each_accepted_step(monkeypatch):
    # the A = 2 source of the test above: the first attempt is 1 / t_steps
    # long, each failed step is halved, and each accepted step of length L
    # is followed by an attempt of length min(L, 1 - t), so a halved path
    # does not double back to a step that fails again
    f = calabi.normalize_source(calabi.TorusField.from_function(
        2, 8, lambda x1, y1, x2, y2: 2.0 * (np.cos(x1) + np.cos(y2))))
    monkeypatch.setattr(calabi, "MAX_NEWTON", 5)
    with pytest.raises(calabi.PathFailureError) as info:
        calabi.solve_calabi(f, tol=1e-10, t_steps=1)
    path = info.value.path
    ends = path.steps
    starts = [0.0] + ends
    lengths = [1.0] + [e - s for s, e in zip(starts, ends)]
    assert len(ends) > 1
    for i, s in enumerate(starts):
        tried = [dt for t, dt, _ in path.halvings if t == s]
        tried += [e - s for e in ends[i:i + 1]]
        assert tried[0] == pytest.approx(min(lengths[i], 1.0 - s))
        assert tried[1:] == pytest.approx([0.5 * dt for dt in tried[:-1]])


def test_halved_path_reaches_t1(monkeypatch):
    # the full step fails at 20 iterations and is halved, and the later
    # steps keep the halved length up to t = 1; doubling each accepted
    # step instead fails every next attempt and stalls before t = 0.9
    f = calabi.normalize_source(calabi.TorusField.from_function(
        2, 4, lambda x1, y1, x2, y2: 0.5 * (np.cos(x1) + np.cos(y2))))
    monkeypatch.setattr(calabi, "MAX_NEWTON", 20)
    path = calabi.solve_calabi(f, tol=1e-10, t_steps=1)
    assert path.halvings and path.steps[-1] == 1.0
    assert path.residual <= 1e-10


def test_loose_levels_carry_a_stiff_path_to_t1(monkeypatch):
    # with every level solved to tol this path stalls at t = 0.917; with
    # the levels short of t = 1 stopped halfway to tol it reaches t = 1
    f = calabi.normalize_source(calabi.TorusField.from_function(
        2, 8, lambda x1, y1, x2, y2: 0.5 * (np.cos(x1) + np.cos(y2))))
    monkeypatch.setattr(calabi, "MAX_NEWTON", 20)
    path = calabi.solve_calabi(f, tol=1e-10, t_steps=3)
    assert path.steps[-1] == 1.0 and path.residual <= 1e-10
    for rec in path.trace:
        if rec.stop == "converged":
            assert rec.residuals[-1] <= _goal(rec.level, rec.residuals[0])


def test_infinite_start_residual_is_never_accepted():
    # sqrt(tol * inf) is inf, which every residual meets, so a level that
    # starts at an infinite residual aims at tol instead: with every
    # residual infinite no level converges, and with only each level's
    # start infinite each level is solved to tol
    f = _mild_m2_source()
    residual = calabi._residual
    levels = []

    def infinite(start_only):
        def call(det, f, t, level, rhs):
            s, rnorm = residual(det, f, t, level, rhs)
            start = not levels or levels[-1] != t
            levels.append(t)
            return s, (np.inf if start or not start_only else rnorm)
        return call

    with mock.patch.object(calabi, "_residual", infinite(False)):
        with pytest.raises(calabi.PathFailureError) as info:
            calabi.solve_calabi(f, t_steps=3)
    trace = info.value.path.trace
    assert trace and all(rec.stop == "damping underflow" for rec in trace)
    levels.clear()
    with mock.patch.object(calabi, "_residual", infinite(True)):
        path = calabi.solve_calabi(f, t_steps=3)
    assert len(path.steps) == 3 and path.halvings == []
    for rec in path.trace:
        assert rec.residuals[0] == np.inf and rec.stop == "converged"
        assert rec.residuals[-1] <= 1e-10


def test_readme_source_takes_fewer_iterations():
    # the levels t = 1/3 and 2/3 stop halfway to tol: 3 + 3 + 5 iterations
    # where solving each level to tol took 5 + 5 + 5
    f = calabi.normalize_source(calabi.TorusField.from_function(
        2, 16, lambda x1, y1, x2, y2: 0.05 * (np.cos(x1) + np.cos(y2))))
    path = calabi.solve_calabi(f, tol=1e-10, t_steps=3)
    assert sum(path.newton_iters) <= 11
    assert path.residual <= 1e-10


def test_float32_step_keeps_the_float64_iteration():
    # the frozen Laplacian is the Jacobian only to O(|H|), so the float32
    # step changes nothing that a float64 step would do
    solve = calabi._poisson_solve
    f = _mild_m2_source()
    path = calabi.solve_calabi(f, t_steps=3)
    with mock.patch.object(calabi, "_poisson_solve",
                           lambda rhs, h: solve(rhs.astype(float), h)):
        wide = calabi.solve_calabi(f, t_steps=3)
    assert solve(np.ones((4,) * 4, np.float32), 1.0).dtype == np.float32
    assert path.newton_iters == wide.newton_iters
    assert np.max(np.abs(path.phi.values - wide.phi.values)) <= 1e-12


@pytest.mark.parametrize("t_steps", [1, 3, 4, 6, 7, 10])
def test_m1_takes_one_iteration_per_level(t_steps):
    # the flat Laplacian is the exact m = 1 Jacobian, in float64, so each
    # level is one step from the accepted or the predicted phi; the path
    # ends at t = 1 exactly (t_steps 6, 7 and 10 sum dt to just under 1),
    # so its residual is the last record's
    f = calabi.normalize_source(calabi.TorusField.from_function(
        1, 32, lambda x, y: 0.1 * np.cos(x) * np.cos(y)))
    path = calabi.solve_calabi(f, tol=1e-12, t_steps=t_steps)
    assert path.newton_iters == [1] * t_steps
    assert path.halvings == []
    assert path.steps[-1] == 1.0
    assert path.residual == path.trace[-1].residuals[-1]


def test_predictor_starts_later_levels_lower():
    # phi_k + rho (phi_k - phi_{k-1}) starts each level after the first
    # about a hundred times closer than the accepted phi would
    path = calabi.solve_calabi(_mild_m2_source(), t_steps=4)
    first = path.trace[0].residuals[0]
    assert len(path.trace) == 4
    assert all(rec.residuals[0] < 0.1 * first for rec in path.trace[1:])


def test_non_kahler_prediction_falls_back_to_accepted_phi():
    # the stencil call that follows a converged residual is the predicted
    # start's: make it fail, as a non-Kahler start would
    f = _mild_m2_source()
    volume_ratio, residual = calabi._volume_ratio, calabi._residual
    state = {"armed": False, "fired": 0}
    starts = {}     # each level's first residual

    def checked(det, f, t, level, rhs):
        s, rnorm = residual(det, f, t, level, rhs)
        state["armed"] = rnorm <= _goal(t, starts.setdefault(t, rnorm))
        return s, rnorm

    def refusing(v, h, ratio):
        kahler = volume_ratio(v, h, ratio)
        if state["armed"]:
            state["armed"] = False
            state["fired"] += 1
            return False
        return kahler

    with mock.patch.object(calabi, "_volume_ratio", refusing), \
            mock.patch.object(calabi, "_residual", checked):
        path = calabi.solve_calabi(f, t_steps=2)
    assert state["fired"] == 1
    assert path.steps == [0.5, 1.0] and path.halvings == []
    assert [rec.stop for rec in path.trace] == ["converged"] * 2
    # the level t = 1 starts from phi at t = 0.5, which is the one-step
    # solve of the source f / 2 to that level's goal
    half = calabi.solve_calabi(calabi.TorusField(2, 0.5 * f.values),
                               tol=_goal(0.5, path.trace[0].residuals[0]),
                               t_steps=1).phi
    det = calabi.ma_operator(half).values
    target = np.exp(f.values)
    start = np.max(np.abs(det - np.mean(det) / np.mean(target) * target))
    assert path.trace[1].residuals[0] == pytest.approx(start, rel=1e-9)
    assert path.residual <= 1e-10


def test_fft_uses_the_affinity_mask():
    # scipy reads workers=-1 as os.cpu_count(), which ignores the mask
    fft, calls = calabi._fft, []

    def recording(name):
        def call(*args, workers, **kwargs):
            calls.append((name, workers))
            return getattr(fft, name)(*args, workers=workers, **kwargs)
        return call

    with mock.patch.object(calabi, "_cpus", lambda: 1), \
            mock.patch.object(calabi, "_fft", mock.Mock(
                rfftn=recording("rfftn"), irfftn=recording("irfftn"))):
        calabi._poisson_solve(np.ones((8,) * 4, np.float32), 1.0)
    assert calls == [("rfftn", 1), ("irfftn", 1)]


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


@pytest.mark.parametrize("f", [
    calabi.TorusField.from_function(1, 32, lambda x, y:
                                    800.0 * np.cos(x) * np.cos(y)),
    calabi.TorusField(2, np.full((8,) * 4, -800.0))],
    ids=["800cos", "const-800"])
def test_normalize_source_far_from_zero(f):
    # e^800 overflows and e^-800 underflows to 0, each with a
    # RuntimeWarning, which pytest raises: the shift by max f keeps every
    # exponential in range
    g = calabi.normalize_source(f)
    assert np.all(np.isfinite(g.values))
    assert abs(np.mean(np.exp(g.values)) - 1.0) <= 1e-12


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
    H11, H22, H12 = _hessian(g)
    assert np.max(np.abs(rho2[0] - (rho[0] - 0.5 * H11))) < 1e-13
    assert np.max(np.abs(rho2[1] - (rho[1] - 0.5 * H22))) < 1e-13
    assert np.max(np.abs(rho2[2] + 1j * rho2[3]
                         - (rho[2] + 1j * rho[3] - 0.5 * H12))) < 1e-13


def test_solved_metric_ricci_matches_source():
    # after solving det(I + H) = e^{f + c}, the Ricci form of the volume
    # ratio equals -i ddbar (f + c) = -i ddbar f up to O(h^2)
    n = 32
    f = calabi.normalize_source(calabi.TorusField.from_function(
        1, n, lambda x, y: 0.1 * np.cos(x) * np.cos(y)))
    path = calabi.solve_calabi(f, tol=1e-12, t_steps=1)
    ratio = calabi.ma_operator(path.phi)
    coeff, _ = calabi.ricci_form(ratio)
    H11, _, _ = _hessian(f)
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


_FLAT = calabi.TorusField(1, np.zeros((8, 8)))


@pytest.mark.parametrize("call, message", [
    (lambda: calabi.TorusField(3, np.zeros((2,) * 6)), "m must be 1 or 2"),
    (lambda: calabi.TorusField(2, np.zeros((8, 8))), "2m axes"),
    (lambda: calabi.TorusField(1, np.zeros((8, 4))), "equal length"),
    (lambda: calabi.poisson_reference_solution(
        calabi.TorusField(2, np.zeros((4,) * 4))), "m = 1 case"),
] + [(lambda tol=tol: calabi.solve_calabi(_FLAT, tol=tol),
      "tol must be positive and finite") for tol in (np.nan, np.inf)]
  + [(lambda C=C: calabi.radial_ricci_flat_profile(C),
      "C must be nonnegative and finite") for C in (-1.0, np.nan, np.inf)]
  + [(lambda v=v: calabi.TorusField(1, np.full((4, 4), v)),
      "field values must be finite") for v in (np.nan, np.inf, -np.inf)])
def test_input_guards(call, message):
    with pytest.raises(ValueError, match=message):
        call()


_DISC17 = u1.ConvexDomain("disc", n=17)
_SPHERE = evolution.EvolvingSurface.sphere(1)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((np.nan, np.inf, -np.inf)), st.integers(0, 2 ** 20))
def test_non_finite_node_rejected_at_entry(bad, node):
    # one non-finite value at a drawn node of each array input of the
    # solvers: a torus field for m = 1 and 2, a U(1) starting vector and
    # one of two surface-flow states
    for m in (1, 2):
        v = np.ones((6,) * (2 * m))
        v.flat[node % v.size] = bad
        with pytest.raises(ValueError, match="field values must be finite"):
            calabi.TorusField(m, v)
    start = np.zeros(len(_DISC17.nodes))
    start[node % start.size] = bad
    with pytest.raises(ValueError, match="one finite value per active node"):
        u1.solve_dirichlet(u1.BoundaryData(lambda x, y: 0.0 * x), 1.0,
                           _DISC17, initial=start)
    states = [_SPHERE.states[0].copy() for _ in range(2)]
    size = states[0].size
    states[node // size % 2].flat[node % size] = bad
    with pytest.raises(ValueError, match="surface states must be finite"):
        evolution.EvolvingSurface(_SPHERE.verts, _SPHERE.faces, _SPHERE.D1,
                                  _SPHERE.D2, states=states, times=[0.0, 0.1])


def test_overflowing_source_stops_non_finite():
    # e^{t f} overflows past t = 709 / 800, so s = 0 and the residual has
    # NaN nodes: each such record stops "non-finite residual" and is
    # halved, and no record converges at a non-finite residual
    f = calabi.TorusField.from_function(
        1, 16, lambda x, y: 800.0 * np.cos(x) * np.cos(y))
    with pytest.raises(calabi.PathFailureError) as info:
        calabi.solve_calabi(f, t_steps=1)
    assert abs(info.value.path.steps[-1] - 709.0 / 800.0) < 1e-3
    path = info.value.path
    nan = [rec for rec in path.trace if np.isnan(rec.residuals[-1])]
    assert nan and all(rec.stop == "non-finite residual" for rec in nan)
    assert [r for _, _, r in path.halvings].count("non-finite residual") \
        == len(nan)
    assert all(np.isfinite(rec.residuals[-1]) for rec in path.trace
               if rec.stop == "converged")


def test_nonpositive_ratio_rejected():
    bad = calabi.TorusField(1, np.full((8, 8), -1.0))
    with pytest.raises(calabi.InvalidVolumeError):
        calabi.ricci_form(bad)
    # one NaN node among positive ones, which a minimum would let through,
    # set after the field's own finite check
    for m in (1, 2):
        ratio = calabi.TorusField(m, np.ones((8,) * (2 * m)))
        ratio.values[3, 5] = np.nan
        with pytest.raises(calabi.InvalidVolumeError):
            calabi.ricci_form(ratio)


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
