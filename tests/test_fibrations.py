"""Tests for the SL fibrations of C^3: the Dirichlet families, the
explicit piecewise-smooth map, and the T^2-cone fibration."""

import warnings

import numpy as np
import pytest

from slgeo import fibrations as fib
from slgeo import u1


# ---------------------------------------------------------------------------
# the explicit map


def test_explicit_F_branch_values():
    a, b = fib.explicit_F((0.0, 0.0, 0.7 + 0.2j))
    assert a == 0.0 and b == 0.7 + 0.2j
    a, b = fib.explicit_F((1.0, 0.0, 0.0))
    assert abs(a - 0.5) < 1e-15 and abs(b) < 1e-15
    a, b = fib.explicit_F((1.0, 1.0, 0.0))
    assert abs(a) < 1e-15 and abs(b - 1.0) < 1e-15


@pytest.mark.parametrize("a,b", [(0.5, 0.3 + 0.1j), (-0.4, 0.2j),
                                 (0.0, 1.0 + 0j)])
def test_explicit_fiber_round_trip_and_sl(a, b):
    rec = fib.explicit_F_fiber(a, b)
    worst = 0.0
    for p in rec.points:
        fa, fbv = fib.explicit_F(p)
        worst = max(worst, abs(fa - a), abs(fbv - complex(b)))
    assert worst < 1e-10
    assert rec.sl_residual_max < 1e-10


@pytest.mark.parametrize("a, b", [(np.nan, 0.3), (np.inf, 0.3),
                                  (0.5, complex(np.nan, 0.0)),
                                  (0.5, complex(0.0, -np.inf))])
def test_explicit_fiber_rejects_nonfinite_level(a, b):
    with pytest.raises(ValueError, match="a and b must be finite"):
        fib.explicit_F_fiber(a, b)


@pytest.mark.parametrize("a", [4e307, -4e307])
def test_explicit_fiber_at_the_largest_levels(a):
    rec = fib.explicit_F_fiber(a, 0.3)
    assert np.all(np.isfinite(rec.points))
    worst = max(abs(fib.explicit_F(p)[0] - a) for p in rec.points)
    assert worst <= 1e-15 * abs(a)


@pytest.mark.parametrize("a", [1e308, -1e308])
def test_explicit_fiber_rejects_overflowing_level(a):
    with pytest.raises(ValueError, match=r"\|a\| <= 4\.494e\+307"):
        fib.explicit_F_fiber(a, 0.3)


def test_explicit_fiber_topology_transition():
    labels = [fib.explicit_F_fiber(a, 0.3).topology
              for a in (-0.5, 0.0, 0.5)]
    assert labels == ["S1xR2", "T2_cone", "S1xR2"]


def test_explicit_fiber_singular_point():
    rec = fib.explicit_F_fiber(0.0, 0.4 + 0.1j)
    assert rec.singular_points == [(0.0, 0.0, 0.4 + 0.1j)]
    rec2 = fib.explicit_F_fiber(0.3, 0.4)
    assert rec2.singular_points == []


@pytest.mark.parametrize("a", [-0.5, -1e-30, 0.0, 1e-30, 0.5])
def test_explicit_fiber_singular_points_are_sampled_apexes(a):
    # the record is singular exactly where its own sample reaches
    # z1 = z2 = 0, which only the a = 0 fibre does, however small |a| is
    rec = fib.explicit_F_fiber(a, 0.4 + 0.1j)
    pts = rec.points
    apex = pts[(pts[:, 0] == 0) & (pts[:, 1] == 0)]
    assert rec.singular_points == [tuple(p) for p in apex]
    assert rec.topology == ("T2_cone" if len(apex) else "S1xR2")
    assert len(apex) == (a == 0.0)


def test_explicit_map_is_only_piecewise_smooth():
    # one-sided derivatives across |z1| = |z2| disagree by O(1)
    jump = fib.explicit_F_smoothness_jump(0.0, 0.3)
    assert jump > 0.01


def test_discriminant_is_exactly_a_zero():
    sing = fib.discriminant_scan(np.linspace(-1.0, 1.0, 21))
    assert sing == [0.0]


def test_discriminant_scan_skips_tiny_nonzero_levels():
    # both circle radii are below 1e-13 at these levels, yet the fibres
    # are smooth; a = 0 keeps its apex
    levels = [-1e-26, -4e-27, 1e-27, 4e-27, 1e-26]
    assert fib.discriminant_scan(levels) == []
    assert fib.discriminant_scan(levels + [0.0]) == [0.0]


# ---------------------------------------------------------------------------
# the T^2-cone fibration


def test_hl_jacobian_matches_finite_differences():
    rng = np.random.default_rng(0)
    z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    J = fib.harvey_lawson_jacobian(z)
    h = 1e-7
    x = np.concatenate([np.asarray(z).real, np.asarray(z).imag])
    # coordinates interleave as (Re z1, Im z1, Re z2, ...)
    x = np.array([z[0].real, z[0].imag, z[1].real, z[1].imag,
                  z[2].real, z[2].imag])
    for col in range(6):
        dx = np.zeros(6)
        dx[col] = h
        zp = (x + dx)[0::2] + 1j * (x + dx)[1::2]
        zm = (x - dx)[0::2] + 1j * (x - dx)[1::2]
        fd = (np.array(fib.harvey_lawson_F(zp))
              - np.array(fib.harvey_lawson_F(zm))) / (2 * h)
        assert np.max(np.abs(fd - J[:, col])) < 1e-6


def _indexed_hl_jacobian(z):
    # reference: the rows written out with index arithmetic
    x = np.empty(z.shape[:-1] + (6,))
    x[..., 0::2], x[..., 1::2] = z.real, z.imag
    J = np.zeros(z.shape[:-1] + (3, 6))
    J[..., 0, 0:2] = 2 * x[..., 0:2]
    J[..., 0, 4:6] = -2 * x[..., 4:6]
    J[..., 1, 2:4] = 2 * x[..., 2:4]
    J[..., 1, 4:6] = -2 * x[..., 4:6]
    z1, z2, z3 = np.moveaxis(z, -1, 0)
    w = np.stack(np.broadcast_arrays(z2 * z3, z1 * z3, z1 * z2), axis=-1)
    J[..., 2, 0::2] = w.imag
    J[..., 2, 1::2] = w.real
    return J


def test_hl_jacobian_matches_indexed_rows():
    rng = np.random.default_rng(3)
    z = rng.standard_normal((4, 5, 3)) + 1j * rng.standard_normal((4, 5, 3))
    z[0, 0] = 0.0
    z[1, 1, 2] = 0.0
    J = fib.harvey_lawson_jacobian(z)
    assert J.shape == (4, 5, 3, 6)
    assert np.array_equal(J, _indexed_hl_jacobian(z))
    assert np.array_equal(fib.harvey_lawson_jacobian(z[2, 3]),
                          _indexed_hl_jacobian(z[2, 3]))


def test_hl_rank_drops_only_at_singular_orbits():
    assert fib.jacobian_rank(
        fib.harvey_lawson_jacobian([1.0, 1.0, 1.0])) == 3
    assert fib.jacobian_rank(
        fib.harvey_lawson_jacobian([0.0, 0.0, 0.0])) == 0


def test_hl_fiber_classification():
    rec = fib.classify_fiber_hl(0.0, 0.0, 0.0)
    assert rec.topology == "T2_cone"
    assert rec.singular_points == [(0.0, 0.0, 0.0)]
    assert rec.sl_residual_max < 1e-12
    rec2 = fib.classify_fiber_hl(1.0, 1.0, 0.0)
    assert rec2.topology == "T3_like"
    assert rec2.sl_residual_max < 1e-12


def test_hl_level_values_round_trip():
    rec = fib.classify_fiber_hl(1.0, -0.5, 0.3)
    for p in rec.points:
        vals = fib.harvey_lawson_F(p)
        assert abs(vals[0] - 1.0) < 1e-10
        assert abs(vals[1] + 0.5) < 1e-10
        assert abs(vals[2] - 0.3) < 1e-10


@pytest.mark.parametrize("level", [(1.0, 1.0, 100.0), (0.5, -0.5, -10.0)])
def test_hl_empty_level_rejected(level):
    # |c| exceeds r1 r2 rho at every sampled rho (at most 10 and 9.5)
    with pytest.raises(fib.EmptyFiberError, match="no points"):
        fib.classify_fiber_hl(*level)


@pytest.mark.parametrize("level", [(-0.3, 0.2, 0.05), (0.2, -0.3, 0.0)])
def test_hl_fiber_where_a_negative_level_dominates(level):
    # at rho_min the radius of the dominant negative level vanishes, and
    # its radicand rounds below zero
    rec = fib.classify_fiber_hl(*level)
    assert np.isfinite(rec.sl_residual_max)
    assert rec.sl_residual_max <= 1e-10
    for p in rec.points:
        assert np.max(np.abs(np.subtract(fib.harvey_lawson_F(p), level))) <= 1e-10


# ---------------------------------------------------------------------------
# Dirichlet fibration families


@pytest.fixture(scope="module")
def family():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return u1.FibrationFamily(
            base_phi=lambda x, y: 0.2 * x * x,
            U=((-0.5, 0.5), (-0.3, 0.3), (-0.3, 0.3)),
            domain=u1.ConvexDomain("disc", n=33))


def test_family_fiber_topology(family):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rec = family.fiber((0.25, 0.1, 0.0))
        rec0 = family.fiber((0.0, 0.0, 0.0))
    assert rec.topology == "S1xR2"
    assert rec0.topology == "T2_cone"
    assert len(rec0.singular_points) == 1


def test_family_fibers_disjoint(family):
    pairs = [((0.25, 0.1, 0.0), (0.25, 0.2, 0.0)),
             ((0.25, 0.1, 0.0), (-0.25, 0.1, 0.0))]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = u1.check_disjoint(family, pairs)
    assert all(entry["disjoint"] for entry in report)


def test_empty_parameter_box_rejected():
    with pytest.raises(fib.InvalidRegionError):
        u1.FibrationFamily(base_phi=lambda x, y: 0.0,
                           U=((0.5, -0.5), (0.0, 1.0), (0.0, 1.0)),
                           domain=u1.ConvexDomain("disc", n=33))


def test_member_outside_parameter_box_rejected(family):
    # a = 0.9 and b = 2.0 both lie outside U
    with pytest.raises(fib.InvalidRegionError):
        family.fiber((0.9, 2.0, 0.0))
    # the ends of U are members
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert family.solution((0.5, 0.3, -0.3)).a == 0.5
    for alpha in ((0.0, 0.3 + 1e-9, 0.0), (-0.5 - 1e-9, 0.0, 0.0),
                  (0.0, 0.0, float("nan"))):
        with pytest.raises(fib.InvalidRegionError):
            family.solution(alpha)
