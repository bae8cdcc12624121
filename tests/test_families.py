"""Tests for the closed-form model families, cone decay, the Legendrian
index count, and complete-intersection moduli dimensions."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slgeo import families
from slgeo.core import real_coords


# ---------------------------------------------------------------------------
# model families are pointwise special Lagrangian


FAMILIES = [
    ("hl_cone_L0", {}),
    ("hl_Lt", {"t": 1.0}),
    ("hl_Lt", {"t": 0.3}),
    ("so3_Lt", {"t": 1.0}),
    ("quadric_L", {"a1": 1, "a2": 2, "c": 1.0}),
    ("branched_leading", {}),
]


@pytest.mark.parametrize("name,extra", FAMILIES)
def test_family_sweep_is_sl(name, extra):
    fam = families.ModelFamily(name, extra)
    worst = families.sl_residual_sweep(fam, n_samples=400, seed=0)
    assert worst < 1e-12


@pytest.mark.parametrize("name,extra", FAMILIES)
def test_family_point_stack_matches_single_calls(name, extra):
    fam = families.ModelFamily(name, extra)
    params = fam.sample_params(np.random.default_rng(1), 64)
    z, rows = families.family_point(fam, params)
    assert z.shape == (64, 3) and rows.shape == (64, 3, 3)
    eps = np.finfo(float).eps
    for k, p in enumerate(params):
        z1, rows1 = families.family_point(fam, p)
        for stacked, single in ((z[k], z1), (rows[k], rows1)):
            assert stacked.shape == single.shape
            assert np.all(np.abs(stacked - single)
                          <= 8 * eps * np.maximum(1.0, np.abs(single)))


@pytest.mark.parametrize("name,extra,bad", [
    ("hl_cone_L0", {}, (0.0, 1.0, 2.0)),                      # radius 0
    ("so3_Lt", {"t": 1.0}, (0.0, 1.0, 2.0)),                  # theta 0
    ("quadric_L", {"a1": 1, "a2": 2, "c": 1.0}, (0.3, 1.0, 0.0)),  # x3 = 0
])
def test_family_point_stack_rejects_one_bad_row(name, extra, bad):
    fam = families.ModelFamily(name, extra)
    params = fam.sample_params(np.random.default_rng(2), 64)
    families.family_point(fam, params)
    params[17] = bad
    with pytest.raises(families.ParameterRangeError):
        families.family_point(fam, params)


def test_family_parameter_validation():
    with pytest.raises(families.ParameterRangeError):
        families.ModelFamily("hl_Lt", {"t": -1.0})
    with pytest.raises(families.ParameterRangeError):
        families.ModelFamily("quadric_L", {"a1": 2, "a2": 4, "c": 1.0})


@pytest.mark.parametrize("call, error, message", [
    (lambda: families.ModelFamily("nope"), ValueError, "unknown family"),
    (lambda: families.ModelFamily("branched_leading",
                                  {"u": [1, 0, 0], "v": [2, 0, 0]}),
     families.ParameterRangeError, "linearly independent"),
    (lambda: families.ModelFamily("branched_leading",
                                  {"u": [1, 0, 0], "v": [1j, 1, 0]}),
     families.ParameterRangeError, "omega"),
    (lambda: families.ac_decay_rate(families.ModelFamily("quadric_L"), [8.0]),
     ValueError, "no decay model"),
    (lambda: families.legendrian_index_flat_torus(np.eye(3), 3), ValueError,
     "symmetric 2x2"),
    (lambda: families.legendrian_index_flat_torus([[1, 0.5], [0, 1]], 3),
     ValueError, "symmetric 2x2"),
    (lambda: families.legendrian_index_flat_torus(np.diag([1.0, -1.0]), 3),
     ValueError, "positive definite"),
    (lambda: families.lower_bound_lind(-1, 0, 3), ValueError, "nonnegative"),
    (lambda: families.lower_bound_lind(0, -2, 3), ValueError, "nonnegative"),
    (lambda: families.ci_moduli_dimension(5, []), ValueError,
     "at least one degree"),
    (lambda: families.ci_moduli_dimension(6, [2, 3]), ValueError,
     "mixed degrees"),
] + [(lambda n=n: families.sl_residual_sweep(
          families.ModelFamily("hl_cone_L0"), n), ValueError,
      "n_samples must be at least 1") for n in (0, -5)
] + [(lambda name=name, t=t: families.ModelFamily(name, {"t": t}),
      families.ParameterRangeError, "t must be positive and finite")
     for name in ("hl_Lt", "so3_Lt")
     for t in (0.0, np.nan, np.inf, 1e200, 2 * families.ModelFamily.T_MAX)])
def test_input_guards(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_branched_truncation_bound():
    # remainder bound 3 s^2 + 2 s^3 for a patch of size s; slope >= 2
    s = np.array([0.1, 0.05, 0.025])
    b = np.array([families.branched_truncation_bound(x) for x in s])
    slope = np.polyfit(np.log(s), np.log(b), 1)[0]
    assert slope >= 2.0
    assert abs(families.branched_truncation_bound(0.1) - 0.032) < 1e-12


def test_hl_family_scales_linearly():
    # L_t = t L_1 for the explicit family
    fam1 = families.ModelFamily("hl_Lt", {"t": 1.0})
    fam2 = families.ModelFamily("hl_Lt", {"t": 2.0})
    z1, _ = families.family_point(fam1, (0.8, 0.4, 0.3))
    z2, _ = families.family_point(fam2, (0.8, 0.8, 0.6))
    assert np.allclose(2.0 * z1, z2)


# ---------------------------------------------------------------------------
# asymptotic-cone decay rates


def test_hl_lt_decay_rate():
    fam = families.ModelFamily("hl_Lt", {"t": 1.0})
    fit = families.ac_decay_rate(fam, radii=np.array([8.0, 16.0, 32.0, 64.0]))
    assert not fit.degenerate
    assert abs(fit.slope + 1.0) < 0.05


@pytest.mark.parametrize("t", [0.5, 1.0])
def test_so3_lt_decay_rate(t):
    # the r = 64 draws need theta within 1.6e-7 of the interval ends at
    # t = 0.5; a clamp short of that would sample a smaller radius there
    fam = families.ModelFamily("so3_Lt", {"t": t})
    fit = families.ac_decay_rate(fam, radii=np.array([8.0, 16.0, 32.0, 64.0]))
    assert not fit.degenerate
    assert abs(fit.slope + 2.0) < 0.05


def test_cone_self_distance_degenerate():
    fam = families.ModelFamily("hl_cone_L0", {})
    fit = families.ac_decay_rate(fam, radii=np.array([8.0, 16.0, 32.0]))
    assert fit.degenerate


def _distance_to_cone_per_point(fam, z):
    # reference: the distance of one point at a time
    if fam.name in ("hl_cone_L0", "hl_Lt"):
        rho1, rho2 = abs(z[0]), abs(z[1])
        r = max((rho1 + 2.0 * rho2) / 3.0, 0.0)
        return float(np.sqrt((rho1 - r) ** 2 + 2.0 * (rho2 - r) ** 2))
    x = real_coords(z[None, :])[0]
    d1 = np.linalg.norm(x[1::2])
    zr = np.exp(-1j * np.pi / 3) * z
    d2 = np.linalg.norm(real_coords(zr[None, :])[0][1::2])
    return float(min(d1, d2))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["hl_cone_L0", "hl_Lt", "so3_Lt"]),
       st.floats(0.1, 3.0), st.integers(0, 2 ** 32 - 1))
def test_stacked_cone_distance_matches_per_point(name, t, seed):
    fam = families.ModelFamily(name, {"t": t} if name != "hl_cone_L0" else {})
    z, _ = families.family_point(
        fam, fam.sample_params(np.random.default_rng(seed), 40))
    d = families.distance_to_cone(fam, z.reshape(4, 10, 3))
    assert d.shape == (4, 10)
    ref = np.array([_distance_to_cone_per_point(fam, p) for p in z])
    # the hl distances are differences of radii, and |z| from a stack
    # and from one point can differ in the last bit, so the error is
    # measured against |z|
    assert np.all(np.abs(d.ravel() - ref) <= 1e-15 * np.linalg.norm(z, axis=1))


def test_cone_distance_without_cone_rejected():
    fam = families.ModelFamily("quadric_L", {})
    with pytest.raises(ValueError):
        families.distance_to_cone(fam, np.zeros((2, 3), dtype=complex))


def test_small_radii_warns():
    fam = families.ModelFamily("hl_Lt", {"t": 2.0})
    with pytest.warns(families.UnreliableFitWarning):
        families.ac_decay_rate(fam, radii=np.array([1.0, 2.0, 3.0]))


# ---------------------------------------------------------------------------
# Legendrian index of cone links


def test_l0_link_gram_matrix():
    G = families.l0_link_gram()
    assert np.allclose(G, np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0)


def _loop_eigenvalues(gram, half):
    # reference: the frequency box |n1|, |n2| <= half walked one (n1, n2)
    # at a time
    Ginv = np.linalg.inv(gram)
    lams = []
    for n1 in range(-half, half + 1):
        for n2 in range(-half, half + 1):
            if n1 == 0 and n2 == 0:
                continue
            lams.append(Ginv[0, 0] * n1 * n1 + 2 * Ginv[0, 1] * n1 * n2
                        + Ginv[1, 1] * n2 * n2)
    return np.array(lams)


def test_l0_index_is_six():
    G = families.l0_link_gram()
    assert families.legendrian_index_flat_torus(G, 3) == 6
    # the same count over a box of half-width 40
    lams = _loop_eigenvalues(G, 40)
    assert np.count_nonzero((0.0 < lams) & (lams < 6.0 - 1e-12)) == 6


def test_identity_gram_index():
    # unit torus link of T^2 in m = 3: lattice points with |n|^2 in (0, 6)
    assert families.legendrian_index_flat_torus(np.eye(2), 3) == 20


def test_eigenvalue_two_present():
    # the coordinate eigenvalue m - 1 = 2 appears on the L0 link
    G = families.l0_link_gram()
    mult = families.eigenvalue_multiplicity(G, 2.0)
    assert mult >= 1


@pytest.mark.parametrize("gram, message", [
    ([[1.0, 0.5], [0.0, 1.0]], "symmetric 2x2"),
    (np.diag([1.0, -1.0]), "positive definite"),
    (np.ones((2, 2)), "positive definite")],
    ids=["nonsymmetric", "indefinite", "singular"])
def test_bad_gram_rejected(gram, message):
    with pytest.raises(ValueError, match=message):
        families.eigenvalue_multiplicity(gram, 2.0)
    with pytest.raises(ValueError, match=message):
        families.legendrian_index_flat_torus(gram, 3)


def test_box_wider_than_bound_rejected():
    # half-width (2m lam_max(G))^{1/2} > 2000 is refused before the box is
    # built; the widest allowed box is counted
    with pytest.raises(ValueError, match="wider than 2000"):
        families.legendrian_index_flat_torus(np.eye(2), 2 * 10 ** 6)
    with pytest.raises(ValueError, match="wider than 2000"):
        families.eigenvalue_multiplicity(np.diag([1e7, 1.0]), 0.5)
    with pytest.raises(ValueError, match="wider than 2000"):
        families.eigenvalue_multiplicity(np.eye(2), np.nan)
    assert families.eigenvalue_multiplicity(np.eye(2), 1999.0 ** 2) == 4


# grams R(theta) diag(big, big / ratio) R(theta)^T with eigenvalue ratios up
# to 1e3; the example is the anisotropic gram whose eigenvalue 1.6, at
# n = (+-40, 0), lies outside a box of half-width 20
@settings(max_examples=60, deadline=None)
@given(st.floats(0.3, 30.0), st.floats(1.0, 1e3), st.floats(0.0, np.pi),
       st.integers(1, 4), st.floats(-1.0, 8.0))
@example(1000.0, 1000.0, 0.0, 1, 1.6)
def test_lattice_counts_match_double_loop(big, ratio, theta, m, value):
    rot = np.array([[np.cos(theta), -np.sin(theta)],
                    [np.sin(theta), np.cos(theta)]])
    G = rot @ np.diag([big, big / ratio]) @ rot.T
    # |n|^2 <= lambda(n) lam_max(G) <= lambda(n) tr(G): every eigenvalue up
    # to the bound lies in this box, wider than the one the library takes
    bound = max(2.0 * m, value)
    lams = _loop_eigenvalues(G, int(np.sqrt(bound * np.trace(G))) + 2)
    assert families.legendrian_index_flat_torus(G, m) == np.count_nonzero(
        (0.0 < lams) & (lams < 2.0 * m - 1e-12))
    # every eigenvalue below 2m, and the drawn value
    for v in set(lams[lams < 2.0 * m]) | {value}:
        assert families.eigenvalue_multiplicity(G, v) == np.count_nonzero(
            np.abs(lams - v) <= 1e-9)


def test_index_rejects_nonpositive_dimension():
    with pytest.raises(ValueError):
        families.legendrian_index_flat_torus(families.l0_link_gram(), 0)


def test_lower_bound_composition():
    assert families.lower_bound_lind(2, 1, 3) == 2 * 3 + 1 * 6
    assert families.lower_bound_lind(0, 0, 3) == 0


# ---------------------------------------------------------------------------
# complete-intersection moduli dimensions


def test_quintic_dimension():
    assert families.ci_moduli_dimension(5, [5]) == 101


def test_two_cubics_dimension():
    assert families.ci_moduli_dimension(6, [3, 3]) == 73


def test_moduli_error_cases():
    with pytest.raises(families.DegenerateModuliError):
        families.ci_moduli_dimension(5, [1])
    with pytest.raises(families.OverdeterminedModuliError):
        families.ci_moduli_dimension(3, [2])
