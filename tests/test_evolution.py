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


def _csr(nbr, w):
    # a stencil's weights on its node table as an (n, n) sparse operator:
    # the padding slots repeat the node at weight 0 and sum into slot 0
    n, k = nbr.shape
    return sp.csr_matrix((w.ravel(), (np.repeat(np.arange(n), k),
                                      nbr.ravel())), shape=(n, n))


def _operators(verts, faces):
    nbr = evolution._neighbours(faces, len(verts))
    return [_csr(nbr, w) for w in evolution._pushforward_weights(verts, nbr)]


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
@given(st.integers(0, 4), st.integers(0, 2 ** 32 - 1))
@example(0, 0)
@example(4, 0)
def test_neighbour_table_lists_each_edge_once(sub, seed):
    # under any labelling of the nodes, any face order and any cyclic turn
    # of each face: each row is its node, then exactly its edge-set
    # neighbours once each, then the node again at weight 0
    verts, faces = evolution.icosphere(sub)
    if seed:
        rng = np.random.default_rng(seed)
        perm = rng.permutation(len(verts))
        verts = verts[np.argsort(perm)]
        faces = perm[faces[rng.permutation(len(faces))]]
        turn = rng.integers(0, 3, len(faces))[:, None]
        faces = np.take_along_axis(faces, (np.arange(3) + turn) % 3, axis=1)
    n = len(verts)
    nbr = evolution._neighbours(faces, n)
    nbrs = [set() for _ in range(n)]
    for a, b, c in faces.tolist():
        nbrs[a].update((b, c))
        nbrs[b].update((a, c))
        nbrs[c].update((a, b))
    deg = [len(s) for s in nbrs]
    assert nbr.shape == (n, 1 + max(deg))
    weights = evolution._pushforward_weights(verts, nbr)
    for i in range(n):
        row = nbr[i].tolist()
        assert row[0] == i and all(j == i for j in row[1 + deg[i]:])
        assert sorted(row[1:1 + deg[i]]) == sorted(nbrs[i])
        for w in weights:
            assert np.all(w[i, 1 + deg[i]:] == 0.0)


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
    for D, R in zip(_operators(verts, faces),
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
    D1, D2 = _operators(verts, faces)
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


def test_swept_surface_is_sl(monkeypatch):
    surf = evolution.EvolvingSurface.sphere(
        2, scale=np.exp(1j * np.pi / 6), dt=0.02)
    evolution.evolve_run(surf, 0.2)
    monkeypatch.setattr(evolution, "SWEPT_STRIDE", 4)
    assert evolution.swept_sl_defect(surf) < 1e-10


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


def _surface_at(state_of_verts, dt=0.01, sub=1):
    base = evolution.EvolvingSurface.sphere(sub, dt=dt)
    return evolution.EvolvingSurface(base.verts, base.faces, base.D1, base.D2,
                                     states=[state_of_verts(base.verts)],
                                     times=[0.0], dt=dt)


def _nan_state(v):
    return np.full(v.shape, np.nan + 0j)


def _underflow_state(v):
    # r = 2e-12 and theta = 1e-290 pass the range checks, but every
    # r^3 sin(3 theta) underflows to 0
    return 2e-12 * np.exp(1e-290j) * v


@pytest.mark.parametrize("call, error, message", [
    (lambda: evolution.EvolvingSurface.sphere(1, scale=0.0),
     evolution.InvalidChiError, "bivector vanishes"),
    (lambda: _surface_at(_nan_state), ValueError,
     "surface states must be finite"),
    (lambda: evolution.compare_so3(_surface_at(_underflow_state)),
     evolution.NoMatchError, "constant is nonpositive"),
] + [(lambda dt=dt: evolution.EvolvingSurface.sphere(1, dt=dt), ValueError,
      "dt must be positive and finite") for dt in (np.nan, np.inf)]
  + [(lambda t=t: evolution.evolve_run(_surface_at(lambda v: v + 0j), t),
      ValueError, "t_end must be finite") for t in (np.nan, np.inf, -np.inf)])
def test_input_guards(call, error, message):
    with pytest.raises(error, match=message):
        call()


def _reference_drift(faces, state):
    p0 = state[faces[:, 0]]
    om = np.imag(np.sum(np.conj(state[faces[:, 1]] - p0)
                        * (state[faces[:, 2]] - p0), axis=1))
    return float(np.max(np.abs(om)))


def _reference_run(surf, state, dt, t_end):
    # RK4 with np.cross on separate sparse D1 and D2 matvecs, each step dt
    # but the last: the reference for the stacked stencil
    D1, D2 = _csr(surf.nbr, surf.D1), _csr(surf.nbr, surf.D2)

    def vel(z):
        return np.conj(np.cross(D1 @ z, D2 @ z))

    states, times = [state], [0.0]
    while times[-1] < t_end - 1e-12:
        h = min(dt, t_end - times[-1])
        z = states[-1]
        k1 = vel(z)
        k2 = vel(z + 0.5 * h * k1)
        k3 = vel(z + 0.5 * h * k2)
        k4 = vel(z + h * k3)
        states.append(z + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4))
        times.append(times[-1] + h)
    return states, times


def _assert_close(a, b):
    assert np.max(np.abs(np.asarray(a) - b)) <= 1e-15 * np.max(np.abs(b))


def _bumped_sphere(sub, dt, phase=np.pi / 6):
    # a phase-rotated sphere stretched along x: not a fixed shape of the
    # flow, so its drift grows from the first step
    return _surface_at(
        lambda v: np.exp(1j * phase) * v * (1.0 + 0.1 * v[:, :1] ** 2),
        dt, sub)


@pytest.mark.parametrize("bumped", [False, True])
def test_evolve_run_matches_reference_rk4(bumped):
    if bumped:
        surf = _bumped_sphere(2, 0.03)
    else:
        surf = evolution.EvolvingSurface.sphere(
            3, scale=np.exp(1j * np.pi / 6), dt=0.02)
    dt = surf.dt
    states, times = _reference_run(surf, surf.states[0], dt, 0.1)
    evolution.evolve_run(surf, 0.1)
    assert surf.times == times
    assert surf.dt == dt   # the cut last step leaves the given dt
    assert len(surf.states) == len(states)
    for z, ref in zip(surf.states, states):
        _assert_close(z, ref)
    assert surf.drifts == [evolution.state_drift(surf, z) for z in surf.states]


def test_stretched_sphere_drift_is_the_space_error():
    # the drift at t = 0.3 is set by the mesh, not by the time step: 15
    # steps of 0.02 end where 60 steps of 0.005 do
    drifts = []
    for dt in (0.02, 0.005):
        surf = _bumped_sphere(2, dt, phase=0.3)
        evolution.evolve_run(surf, 0.3)
        assert len(surf.states) - 1 == round(0.3 / dt)
        drifts.append(evolution.symplectic_drift(surf))
    assert drifts[0] > 1e-4   # far above a round sphere's
    assert abs(drifts[0] - drifts[1]) <= 1e-8


def test_run_past_blow_up_time_stops():
    # w0 = e^{i pi/6} reaches infinity at T* ~ 1.214 under dw/dt = conj(w)^2
    surf = evolution.EvolvingSurface.sphere(
        2, scale=np.exp(1j * np.pi / 6), dt=0.005)
    with pytest.raises(evolution.StepRejectedError,
                       match="left the finite range"):
        evolution.evolve_run(surf, 2.0)
    assert 1.1 < surf.times[-1] < 1.3
    assert all(np.isfinite(z).all() for z in surf.states)
    assert np.isfinite(surf.drifts).all()
    assert len(surf.drifts) == len(surf.states) == len(surf.times)


def _compare_so3_array(surf):
    # the (states x nodes) formula that compare_so3 folds state by state
    ws = [evolution.sphere_scale(z) for z in surf.states]
    consts = np.array([np.abs(w) ** 3 * np.sin(3 * np.angle(w)) for w in ws])
    ratio = np.cbrt(consts / np.mean(consts))
    return float(max(ratio.max() - 1.0, 1.0 - ratio.min()))


@pytest.mark.parametrize("make, t_end", [
    # criterion 9's two compared runs, README's evolve, a stretched sphere
    (lambda: evolution.EvolvingSurface.sphere(
        3, scale=np.exp(1j * np.pi / 6), dt=0.05), 0.5),
    (lambda: evolution.EvolvingSurface.sphere(
        3, scale=np.exp(1j * np.pi / 6), dt=0.025), 0.5),
    (lambda: evolution.EvolvingSurface.sphere(
        3, scale=np.exp(1j * np.pi / 6), dt=0.01), 0.5),
    (lambda: _bumped_sphere(2, 0.02, phase=np.pi / 5), 0.2)],
    ids=["criterion-9-0.05", "criterion-9-0.025", "readme", "constructed"])
def test_compare_so3_fold_matches_array_formula(make, t_end):
    surf = make()
    evolution.evolve_run(surf, t_end)
    assert abs(evolution.compare_so3(surf) - _compare_so3_array(surf)) <= 1e-14


def test_diagnostics_on_constructed_surface_match_per_state(monkeypatch):
    # the benchmark builds its surface through the constructor, which
    # records the drift of every state it is given
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
    monkeypatch.setattr(evolution, "SWEPT_STRIDE", stride)
    tangents = []
    for z in surf.states:
        # the full-grid tangents, of which swept_sl_defect takes a subset
        T1, T2 = evolution._tangents(surf.nbr, surf.W, z)
        tangents.append(np.stack([T1, T2, np.conj(np.cross(T1, T2))],
                                 axis=1)[::stride])
    bases = real_coords(np.concatenate(tangents)).reshape(-1, 3, 6)
    _assert_close(evolution.swept_sl_defect(fresh),
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
