"""Tests for the evolving-surface integrator and its SO(3) cross-check."""

import numpy as np
import pytest

from slgeo import evolution


def test_icosphere_counts():
    for sub, n_v in ((0, 12), (1, 42), (2, 162), (3, 642)):
        verts, faces = evolution.icosphere(sub)
        assert verts.shape == (n_v, 3)
        # Euler characteristic of the sphere
        n_e = 3 * len(faces) // 2
        assert n_v - n_e + len(faces) == 2
        assert np.allclose(np.linalg.norm(verts, axis=1), 1.0)


def test_pushforward_exact_on_linear_maps():
    # the least-norm pushforward stencils reproduce ambient-linear maps
    verts, faces = evolution.icosphere(2)
    D1, D2 = evolution._pushforward_matrices(verts, faces)
    A = np.array([[0.3, -1.2, 0.5], [2.0, 0.1, -0.7], [0.0, 1.1, 0.4]])
    target = verts @ A.T
    # tangent derivatives of a linear map equal the map of the tangents;
    # check consistency through the defining normal equations instead
    r1 = D1 @ target
    r2 = D2 @ target
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


def test_probe_index_out_of_range():
    surf = evolution.EvolvingSurface.sphere(
        2, scale=np.exp(1j * np.pi / 6), dt=0.05)
    evolution.evolve_run(surf, 0.1)
    with pytest.raises(evolution.NoMatchError):
        evolution.compare_so3(surf, probe_indices=[10 ** 6])


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
