"""Tests for the flat Calabi-Yau package and SL plane predicates."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slgeo import core


def test_normalization_residual_vanishes():
    for m in (1, 2, 3, 4):
        pkg = core.standard_cy_package(m)
        assert core.normalization_residual(pkg) < 1e-12


def test_invalid_dimension_rejected():
    with pytest.raises(core.InvalidDimensionError):
        core.standard_cy_package(0)
    with pytest.raises(core.InvalidDimensionError):
        core.standard_cy_package(-2)


def test_real_plane_is_sl():
    # R^m inside C^m: omega and Im Omega both restrict to zero
    for m in (2, 3, 4):
        pkg = core.standard_cy_package(m)
        basis = np.zeros((m, 2 * m))
        for j in range(m):
            basis[j, 2 * j] = 1.0
        plane = core.TangentPlane(m, basis)
        assert core.sl_defect(plane, pkg) < 1e-14
        assert abs(core.calibration_defect(plane, pkg)) < 1e-14
        assert core.is_sl_plane(plane, pkg)


def test_rotated_lagrangian_phase():
    # e^{i theta} R^2 in C^2 stays Lagrangian with Im Omega = sin(2 theta)
    pkg = core.standard_cy_package(2)
    theta = 0.3
    basis = np.array([
        [np.cos(theta), np.sin(theta), 0.0, 0.0],
        [0.0, 0.0, np.cos(theta), np.sin(theta)],
    ])
    plane = core.TangentPlane(2, basis)
    assert abs(core.sl_defect(plane, pkg) - np.sin(2 * theta)) < 1e-12
    assert not core.is_sl_plane(plane, pkg)


def test_complex_line_not_lagrangian():
    # a complex line in C^2 pairs with omega at full strength
    pkg = core.standard_cy_package(2)
    basis = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
    ])
    plane = core.TangentPlane(2, basis)
    assert abs(core.sl_defect(plane, pkg) - 1.0) < 1e-12
    assert not core.is_sl_plane(plane, pkg)


def test_degenerate_plane_rejected():
    pkg = core.standard_cy_package(2)
    basis = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [2.0, 0.0, 0.0, 0.0],
    ])
    plane = core.TangentPlane(2, basis)
    with pytest.raises(core.DegeneratePlaneError):
        core.sl_defect(plane, pkg)


def test_su_orbit_of_real_plane_is_sl():
    rng = np.random.default_rng(7)
    for m in (2, 3, 4):
        pkg = core.standard_cy_package(m)
        for _ in range(25):
            gamma = core.random_su_matrix(m, rng)
            plane = core.su_rotated_real_plane(m, gamma)
            assert core.is_sl_plane(plane, pkg, tol=1e-10)


def test_calibration_slack_nonnegative():
    rng = np.random.default_rng(3)
    for m in (2, 3):
        # one stack of 500 Gaussian bases: the draws of 500 random_plane calls
        slack = core.plane_defects(rng.standard_normal((500, m, 2 * m)))[1]
        assert np.all(slack > -1e-12)


def test_coordinate_round_trip():
    rng = np.random.default_rng(0)
    z = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    assert np.allclose(core.complex_coords(core.real_coords(z)), z)
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    M = core.complex_matrix_to_real(A)
    assert np.allclose(core.real_matrix_to_complex(M), A)
    # the real representation intertwines J with multiplication by i
    J = core.standard_J(3)
    assert np.allclose(M @ J, J @ M)


def _loop_matrix_to_real(A):
    # reference: the (Re, Im) interleaving written out entry by entry
    m = A.shape[0]
    M = np.zeros((2 * m, 2 * m))
    for j in range(m):
        for k in range(m):
            M[2 * j, 2 * k] = A[j, k].real
            M[2 * j, 2 * k + 1] = -A[j, k].imag
            M[2 * j + 1, 2 * k] = A[j, k].imag
            M[2 * j + 1, 2 * k + 1] = A[j, k].real
    return M


def _loop_kahler_form(m):
    W = np.zeros((2 * m, 2 * m))
    for j in range(m):
        W[2 * j, 2 * j + 1] = 1.0
        W[2 * j + 1, 2 * j] = -1.0
    return W


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_coordinate_layout_matches_loops(m):
    rng = np.random.default_rng(m)
    A = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    M = core.complex_matrix_to_real(A)
    assert np.array_equal(M, _loop_matrix_to_real(A))
    back = np.array([[M[2 * j, 2 * k] + 1j * M[2 * j + 1, 2 * k]
                      for k in range(m)] for j in range(m)])
    assert np.array_equal(core.real_matrix_to_complex(M), back)
    # bitwise, so no entry of the Kahler form is a negative zero
    W = core.standard_cy_package(m).kahler_form
    assert W.tobytes() == _loop_kahler_form(m).tobytes()
    assert np.array_equal(core.standard_J(m), _loop_kahler_form(m).T)
    gamma = core.random_su_matrix(m, rng)
    basis = np.zeros((m, 2 * m))
    for j in range(m):
        basis[j] = core.real_coords(gamma[:, j])
    assert np.array_equal(core.su_rotated_real_plane(m, gamma).basis, basis)


def test_moment_map_constant_on_invariant_torus():
    # the diagonal U(1)^2 subgroup of SU(3) preserves the torus
    # |z_1| = |z_2| = |z_3| = r and its moment map is constant there
    action = core.su_diagonal_action(3, (1, -1, 0))
    rng = np.random.default_rng(1)
    r = 1.3
    pts = r * np.exp(1j * rng.uniform(0, 2 * np.pi, (64, 3)))
    vals = core.moment_map_values(action, pts)
    assert np.max(np.abs(vals - vals[0])) < 1e-12


def test_moment_map_separates_radii():
    action = core.su_diagonal_action(2, (1, -1))
    v1 = core.moment_map_values(action, np.array([1.0 + 0j, 0.5 + 0j]))[0, 0]
    v2 = core.moment_map_values(action, np.array([0.5 + 0j, 1.0 + 0j]))[0, 0]
    # the Hamiltonian is |z1|^2 - |z2|^2
    assert abs(v1 - 0.75) < 1e-12
    assert abs(v2 + 0.75) < 1e-12


def test_invalid_action_rejected():
    with pytest.raises(core.InvalidActionError):
        core.su_diagonal_action(2, (1, 1))  # not traceless


def test_random_su_matrix_is_special_unitary():
    rng = np.random.default_rng(9)
    for m in (2, 3, 4):
        g = core.random_su_matrix(m, rng)
        assert np.allclose(g @ g.conj().T, np.eye(m), atol=1e-12)
        assert abs(np.linalg.det(g) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# the batched plane kernel


def _restricted_sl(basis, orientation):
    # reference: max(|omega|, |Im Omega|) on an oriented orthonormal frame
    # from this plane's own QR, with omega and Omega from the CY package;
    # the omega part is the largest pairing over a < b
    pkg = core.standard_cy_package(basis.shape[0])
    q, r = np.linalg.qr(basis.T)
    frame = (q * np.sign(np.diag(r))).T
    frame[-1] *= orientation
    pair = frame @ pkg.kahler_form @ frame.T
    omega = np.max(np.abs(pair[np.triu_indices(pkg.m, k=1)]), initial=0.0)
    return max(omega, abs(pkg.holomorphic_volume(frame).imag))


@st.composite
def plane_stacks(draw):
    """(m, bases, orientations): Gaussian planes then SU(m)-rotated real
    planes in C^m, each oriented by a drawn sign."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    su = [core.su_rotated_real_plane(m, core.random_su_matrix(m, rng)).basis
          for _ in range(n)]
    bases = np.concatenate([rng.standard_normal((n, m, 2 * m)), su])
    signs = np.array(draw(st.lists(st.sampled_from((1, -1)),
                                   min_size=2 * n, max_size=2 * n)))
    return m, bases, signs


@settings(max_examples=60, deadline=None)
@given(plane_stacks(), st.integers(1, 5))
def test_plane_defects_match_per_plane(stack, chunk):
    m, bases, signs = stack
    pkg = core.standard_cy_package(m)
    planes = [core.TangentPlane(m, b, int(o)) for b, o in zip(bases, signs)]
    oriented = bases.copy()
    oriented[:, -1] *= signs[:, None]
    with mock.patch.object(core, "PLANE_CHUNK", chunk):
        sl, slack = core.plane_defects(oriented)
    assert np.max(np.abs(sl - [core.sl_defect(p, pkg) for p in planes])) <= 1e-14
    assert np.max(np.abs(
        slack - [core.calibration_defect(p, pkg) for p in planes])) <= 1e-14
    # references: the per-plane restriction, and vol_V - Re Omega(basis)
    # from the Gram determinant
    ref_sl = [_restricted_sl(b, o) for b, o in zip(bases, signs)]
    assert np.max(np.abs(sl - ref_sl)) <= 1e-14
    vol = np.sqrt(np.linalg.det(bases @ bases.swapaxes(-1, -2)))
    ref_slack = vol - signs * np.linalg.det(
        core.complex_coords(bases).swapaxes(-1, -2)).real
    assert np.all(np.abs(slack - ref_slack) <= 1e-13 * np.maximum(vol, 1.0))
    assert np.all(slack >= -1e-12)
    # the SU(m) orbit of R^m is SL, and calibrated when positively oriented
    half = len(bases) // 2
    assert np.all(sl[half:] < 1e-12)
    assert np.all(np.abs(slack[half:][signs[half:] > 0]) < 1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(2, 9), st.integers(0, 2 ** 32 - 1),
       st.integers(1, 4), st.data())
def test_plane_defects_reject_rank_deficient_basis(m, n, seed, chunk, data):
    rng = np.random.default_rng(seed)
    bases = rng.standard_normal((n, m, 2 * m))
    k = data.draw(st.integers(0, n - 1))
    row = data.draw(st.integers(0, m - 1))
    # row `row` of basis k becomes a multiple of another row, or zero for m = 1
    factor = data.draw(st.floats(-3.0, 3.0))
    bases[k, row] = factor * bases[k, (row + 1) % m] if m > 1 else 0.0
    with mock.patch.object(core, "PLANE_CHUNK", chunk):
        with pytest.raises(core.DegeneratePlaneError):
            core.plane_defects(bases)
