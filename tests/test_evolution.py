"""Tests for the evolving-surface integrator and its SO(3) cross-check."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slgeo import evolution
from slgeo.core import plane_defects, real_coords


def test_icosphere_counts():
    for sub, n_v in ((0, 12), (1, 42), (2, 162), (3, 642)):
        verts, faces = evolution.icosphere(sub)
        assert verts.shape == (n_v, 3)
        # Euler characteristic of the sphere
        n_e = 3 * len(faces) // 2
        assert n_v - n_e + len(faces) == 2
        assert np.allclose(np.linalg.norm(verts, axis=1), 1.0)


def _loop_icosphere(subdivisions):
    # reference: each level built face by face with a midpoint dict
    verts, faces = evolution.icosphere(0)
    for _ in range(subdivisions):
        vlist = list(verts)
        midpoint = {}

        def mid(a, b):
            key = (min(a, b), max(a, b))
            if key not in midpoint:
                p = vlist[a] + vlist[b]
                vlist.append(p / np.linalg.norm(p))
                midpoint[key] = len(vlist) - 1
            return midpoint[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            new_faces += [[a, ab, ca], [ab, b, bc], [ca, bc, c],
                          [ab, bc, ca]]
        verts = np.array(vlist)
        faces = np.array(new_faces)
    return verts, faces


@pytest.mark.parametrize("sub", [0, 1, 2, 3, 4])
def test_icosphere_matches_midpoint_loop(sub):
    verts, faces = evolution.icosphere(sub)
    ref_verts, ref_faces = _loop_icosphere(sub)
    assert verts.tobytes() == ref_verts.tobytes()
    assert np.array_equal(faces, ref_faces)


def _reference_tangents(verts):
    t1 = np.cross(verts, [0.0, 0.0, 1.0])
    pole = np.linalg.norm(t1, axis=1) < 1e-8
    t1[pole] = np.cross(verts[pole], [1.0, 0.0, 0.0])
    t1 /= np.linalg.norm(t1, axis=1, keepdims=True)
    return t1, np.cross(verts, t1)


def _pushforward_per_vertex(verts, faces):
    # one 3 x 3 solve per vertex: the reference for the batched operators
    n = len(verts)
    nbrs = [set() for _ in range(n)]
    for a, b, c in faces:
        nbrs[a].update((b, c))
        nbrs[b].update((a, c))
        nbrs[c].update((a, b))
    T1, T2 = _reference_tangents(verts)
    entries = ([], [], []), ([], [], [])
    for i in range(n):
        nb = sorted(nbrs[i])
        A = (verts[nb] - verts[i]).T
        for t, (rows, cols, vals) in zip((T1[i], T2[i]), entries):
            c = A.T @ np.linalg.solve(A @ A.T, t)
            rows.extend([i] * (len(nb) + 1))
            cols.extend(nb + [i])
            vals.extend(list(c) + [-float(np.sum(c))])
    return [sp.csr_matrix((v, (r, c)), shape=(n, n)) for r, c, v in entries]


def _rotation(seed):
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))
    return q * np.sign(np.diag(r))


def _to_pole(v):
    # a rotation taking the unit vector v to (0, 0, 1): Householder
    # reflections through v + e3 and the xy-plane, after a half-turn about
    # the x-axis when v is below the equator (v + e3 vanishes at -e3)
    F = np.diag([1.0, -1.0, -1.0]) if v[2] < 0 else np.eye(3)
    u = F @ v + [0.0, 0.0, 1.0]
    H = np.eye(3) - 2.0 * np.outer(u, u) / (u @ u)
    return np.diag([1.0, 1.0, -1.0]) @ H @ F


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 4), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(("none", "random", "pole")))
@example(sub=1, seed=154, rotate="pole")   # vertex 28 of icosphere(1) is -e3
def test_batched_pushforward_matches_per_vertex(sub, seed, rotate):
    # "pole" puts a vertex on the z-axis, where t1 takes its x-axis fallback
    verts, faces = evolution.icosphere(sub)
    if rotate == "random":
        verts = verts @ _rotation(seed).T
    elif rotate == "pole":
        verts = verts @ _to_pole(verts[seed % len(verts)]).T
    for D, R in zip(evolution._pushforward_matrices(verts, faces),
                    _pushforward_per_vertex(verts, faces)):
        D.sort_indices()
        R.sort_indices()
        assert np.array_equal(D.indptr, R.indptr)
        assert np.array_equal(D.indices, R.indices)
        scale = np.max(np.abs(R.data))
        assert np.max(np.abs(D.data - R.data)) <= 1e-13 * scale


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 3), st.integers(0, 2 ** 32 - 1))
@example(2, 0)
def test_pushforward_exact_on_linear_maps(sub, seed):
    # the least-norm pushforward stencils reproduce ambient-linear maps: the
    # tangent derivatives of x -> A x are the images A t1, A t2
    verts, faces = evolution.icosphere(sub)
    if seed:
        verts = verts @ _rotation(seed).T
    D1, D2 = evolution._pushforward_matrices(verts, faces)
    A = np.random.default_rng(seed).uniform(-2.0, 2.0, (3, 3))
    t1, t2 = _reference_tangents(verts)
    assert np.max(np.abs(D1 @ (verts @ A.T) - t1 @ A.T)) <= 1e-12
    assert np.max(np.abs(D2 @ (verts @ A.T) - t2 @ A.T)) <= 1e-12
    # both directional derivatives must be tangent to the image surface
    # for the isometric case A in SO(3); use A = identity
    r1_id = D1 @ verts
    r2_id = D2 @ verts
    dots1 = np.einsum("ij,ij->i", r1_id, verts)
    dots2 = np.einsum("ij,ij->i", r2_id, verts)
    assert np.max(np.abs(dots1)) < 1e-10
    assert np.max(np.abs(dots2)) < 1e-10
    assert np.max(np.abs(np.linalg.norm(r1_id, axis=1) - 1.0)) < 1e-10


def test_sphere_drift_stays_tiny():
    surf = evolution.EvolvingSurface.sphere(
        2, scale=np.exp(1j * np.pi / 6), dt=0.01)
    evolution.evolve_run(surf, 0.5)
    assert evolution.symplectic_drift(surf) < 1e-6


def test_sphere_follows_closed_form_family():
    surf = evolution.EvolvingSurface.sphere(
        2, scale=np.exp(1j * np.pi / 6), dt=0.01)
    evolution.evolve_run(surf, 0.3)
    assert evolution.compare_so3(surf) < 1e-3


def test_dt_halving_improves_deviation():
    devs = []
    for dt in (0.05, 0.025):
        surf = evolution.EvolvingSurface.sphere(
            2, scale=np.exp(1j * np.pi / 6), dt=dt)
        evolution.evolve_run(surf, 0.5)
        devs.append(evolution.compare_so3(surf))
    assert devs[0] / devs[1] >= 3.5


def test_swept_surface_is_sl():
    surf = evolution.EvolvingSurface.sphere(
        2, scale=np.exp(1j * np.pi / 6), dt=0.02)
    evolution.evolve_run(surf, 0.2)
    assert evolution.swept_sl_defect(surf, stride=4) < 1e-10


def test_sphere_scale_recovers_parameter():
    scale = 0.8 * np.exp(1j * np.pi / 7)
    surf = evolution.EvolvingSurface.sphere(2, scale=scale, dt=0.01)
    w = evolution.sphere_scale(surf.states[0])
    assert np.max(np.abs(w - scale)) < 1e-10


def test_real_sphere_outside_family():
    # a real sphere sits at the theta = 0 edge of the closed-form family
    # and cannot be matched against it
    surf = evolution.EvolvingSurface.sphere(2, scale=1.0, dt=0.01)
    with pytest.raises(evolution.NoMatchError):
        evolution.compare_so3(surf)


@pytest.mark.parametrize("dt", [0.0, -0.01])
def test_nonpositive_dt_rejected(dt):
    # a step of dt <= 0 never advances the clock, so the run would not end
    with pytest.raises(ValueError):
        evolution.EvolvingSurface.sphere(1, dt=dt)
    surf = evolution.EvolvingSurface.sphere(1, dt=0.01)
    surf.dt = dt
    with pytest.raises(ValueError):
        evolution.evolve_run(surf, 0.1)
    assert surf.times == [0.0]


def _reference_drift(faces, state):
    p0 = state[faces[:, 0]]
    om = np.imag(np.sum(np.conj(state[faces[:, 1]] - p0)
                        * (state[faces[:, 2]] - p0), axis=1))
    return float(np.max(np.abs(om)))


def _reference_run(surf, state, dt, t_end):
    # RK4 with np.cross on separate D1 and D2 matvecs and the drift rule of
    # evolve_step: the reference for the stacked real operator
    def vel(z):
        return np.conj(np.cross(surf.D1 @ z, surf.D2 @ z))

    states, times, halvings = [state], [0.0], []
    while times[-1] < t_end - 1e-12:
        dt = min(dt, t_end - times[-1])
        z = states[-1]
        base = _reference_drift(surf.faces, z)
        while True:
            k1 = vel(z)
            k2 = vel(z + 0.5 * dt * k1)
            k3 = vel(z + 0.5 * dt * k2)
            k4 = vel(z + dt * k3)
            cand = z + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
            drift = _reference_drift(surf.faces, cand)
            if drift <= base + evolution.DRIFT_BUDGET:
                break
            halvings.append((times[-1], dt, drift))
            dt *= 0.5
        states.append(cand)
        times.append(times[-1] + dt)
    return states, times, dt, halvings


def _assert_close(a, b):
    assert np.max(np.abs(np.asarray(a) - b)) <= 1e-15 * np.max(np.abs(b))


def _bumped_sphere(sub, dt):
    # a phase-rotated sphere stretched along x: not a fixed shape of the
    # flow, so large steps break the drift budget and get halved
    surf = evolution.EvolvingSurface.sphere(sub, scale=np.exp(1j * np.pi / 6),
                                            dt=dt)
    v = surf.verts
    surf.states[0] = np.exp(1j * np.pi / 6) * v * (1.0 + 0.1 * v[:, :1] ** 2)
    return surf


@pytest.mark.parametrize("bumped", [False, True])
def test_evolve_run_matches_reference_rk4(bumped):
    if bumped:
        surf = _bumped_sphere(2, 0.05)
    else:
        surf = evolution.EvolvingSurface.sphere(
            3, scale=np.exp(1j * np.pi / 6), dt=0.02)
    states, times, dt, halvings = _reference_run(surf, surf.states[0],
                                                 surf.dt, 0.1)
    evolution.evolve_run(surf, 0.1)
    assert surf.times == times
    assert surf.dt == dt
    assert surf.halvings == halvings
    assert bool(halvings) == bumped
    assert len(surf.states) == len(states)
    for z, ref in zip(surf.states, states):
        _assert_close(z, ref)
    assert surf.drifts == [evolution.state_drift(surf, z) for z in surf.states]


def test_halvings_record_rejected_candidates():
    surf = _bumped_sphere(2, 0.05)
    evolution.evolve_run(surf, 0.01)   # the first step is cut to dt = 0.01
    assert len(surf.halvings) >= 3
    # each rejection halves dt at t = 0 and broke the budget of state 0
    for k, (t, dt, drift) in enumerate(surf.halvings):
        assert t == 0.0
        assert dt == 0.01 / 2 ** k
        assert drift > surf.drifts[0] + evolution.DRIFT_BUDGET
    assert surf.times[1] == 0.01 / 2 ** len(surf.halvings)
    assert len(surf.drifts) == len(surf.states)
    assert evolution.symplectic_drift(surf) == max(surf.drifts)


def test_diagnostics_on_constructed_surface_match_per_state():
    # the benchmark builds its surface through the constructor, so the drift
    # list starts empty and every diagnostic must fill in what it lacks
    base = evolution.EvolvingSurface.sphere(3, scale=np.exp(1j * np.pi / 5),
                                            dt=0.02)
    surf = evolution.EvolvingSurface(base.verts, base.faces, base.D1, base.D2,
                                     states=[base.states[0]], times=[0.0],
                                     dt=0.02)
    evolution.evolve_run(surf, 0.2)
    fresh = evolution.EvolvingSurface(surf.verts, surf.faces, surf.D1, surf.D2,
                                      states=list(surf.states),
                                      times=list(surf.times))
    for s in (surf, fresh):
        drift = evolution.symplectic_drift(s)
        assert drift == max(_reference_drift(s.faces, z) for z in s.states)
    assert fresh.drifts == surf.drifts

    stride = 7
    tangents = []
    for z in surf.states:
        T1, T2 = surf.D1 @ z, surf.D2 @ z
        tangents.append(np.stack([T1, T2, np.conj(np.cross(T1, T2))],
                                 axis=1)[::stride])
    bases = real_coords(np.concatenate(tangents)).reshape(-1, 3, 6)
    _assert_close(evolution.swept_sl_defect(fresh, stride=stride),
                  np.max(plane_defects(bases)[0]))

    consts, ws = [], []
    for z in surf.states:
        w = np.sqrt(np.sum(z * z, axis=1))
        ws.append(w)
        consts.append(np.abs(w) ** 3 * np.sin(3 * np.angle(w)))
    t3 = np.mean(np.concatenate(consts))
    dev = max(np.max(np.abs(np.abs(w) - t3 ** (1 / 3) * np.sin(3 * np.angle(w))
                            ** (-1 / 3)) / (t3 ** (1 / 3) * np.sin(
                                3 * np.angle(w)) ** (-1 / 3))) for w in ws)
    # compare_so3 forms r / r_model as (r^3 sin(3 theta) / t3)^(1/3), so the
    # two agree to a few rounding units of 1, not of the deviation
    assert abs(evolution.compare_so3(fresh) - dev) <= 1e-15
