"""Closed-form special Lagrangian model families in C^3.

Families:

  hl_cone_L0       the T^2-cone {(r e^{i t1}, r e^{i t2}, r e^{-i(t1+t2)})}
  hl_Lt            its smoothing ((|z|^2+t^2)^{1/2} e^{i t1}, z, e^{-i t1} zbar)
  so3_Lt           the SO(3)-invariant family e^{i t1} r(t1) S^2 with
                   r^3 sin(3 t1) = t^3 on t1 in (0, pi/3)
  quadric_L        (e^{i a1 t1} x1, e^{i a2 t1} x2, i e^{i a3 t1} x3) on the
                   quadric a1 x1^2 + a2 x2^2 + a3 x3^2 = c, a3 = -a1-a2
  branched_leading leading-order double cover of an SL 3-plane branched
                   along a real line

All immersions carry analytic first derivatives, so tangent planes are
exact and the pointwise SL defect of each family is round-off only.
`family_point` takes a stack of parameter triples (..., 3) and returns
the points (..., 3) and their complex tangent rows (..., 3, 3) as arrays.
The module also fits asymptotic-cone decay rates, enumerates the
Legendrian index of flat-torus cone links by dual-lattice counting, and
computes the classical moduli dimensions of complete-intersection
Calabi-Yau 3-folds.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import broadcast_stack, conj_cross, plane_defects, real_coords


class ParameterRangeError(ValueError):
    """Family parameters outside their validity range."""


class DegenerateModuliError(ValueError):
    """Moduli dimension request for a degenerate (linear) system."""


class OverdeterminedModuliError(ValueError):
    """Moduli dimension came out negative."""


class UnreliableFitWarning(UserWarning):
    """Decay-rate fit used radii inside the compact core."""


@dataclass
class ModelFamily:
    """A named closed-form SL family.  `extra` holds family constants
    (t for the smoothings, (a1, a2, c) for the quadrics, (u, v) for the
    branched leading term)."""

    name: str
    extra: dict = field(default_factory=dict)

    _NAMES = ("hl_cone_L0", "hl_Lt", "so3_Lt", "quadric_L", "branched_leading")
    # the largest t: L_t = t L_1, and plane volumes grow like t^3
    T_MAX = np.finfo(float).max ** 0.25

    def __post_init__(self):
        if self.name not in self._NAMES:
            raise ValueError("unknown family %r" % self.name)
        if self.name in ("hl_Lt", "so3_Lt"):
            t = self.extra.get("t", 1.0)
            if not 0 < t <= self.T_MAX:
                raise ParameterRangeError(
                    "t must be positive and finite, at most %.3g" % self.T_MAX)
            self.extra["t"] = float(t)
        if self.name == "quadric_L":
            a1 = int(self.extra.get("a1", 1))
            a2 = int(self.extra.get("a2", 2))
            if a1 <= 0 or a2 <= 0 or math.gcd(a1, a2) != 1:
                raise ParameterRangeError("a1, a2 must be positive coprime")
            self.extra.update(a1=a1, a2=a2, a3=-a1 - a2,
                              c=float(self.extra.get("c", 1.0)))
        if self.name == "branched_leading":
            u = np.asarray(self.extra.get("u", [1.0, 0, 0]), dtype=complex)
            v = np.asarray(self.extra.get("v", [0, 1.0, 0]), dtype=complex)
            if np.linalg.matrix_rank(np.stack([u, v])) < 2:
                raise ParameterRangeError("u, v must be linearly independent")
            if abs(np.vdot(u, v).imag) > 1e-12:   # omega(u, v) = Im <u, v>
                raise ParameterRangeError("u, v must satisfy omega(u, v) = 0")
            self.extra.update(u=u, v=v, w=0.5 * conj_cross(u, v))

    def sample_params(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n parameter triples drawn from the interior of the valid range."""
        if self.name == "hl_cone_L0":
            r = rng.uniform(0.2, 3.0, n)
            th = rng.uniform(0.0, 2 * np.pi, (n, 2))
            return np.column_stack([r, th])
        if self.name == "hl_Lt":
            th = rng.uniform(0.0, 2 * np.pi, n)
            z = rng.uniform(-2.0, 2.0, (n, 2))
            return np.column_stack([th, z])
        if self.name == "so3_Lt":
            th = rng.uniform(0.05, np.pi / 3 - 0.05, n)
            al = rng.uniform(0.2, np.pi - 0.2, n)
            be = rng.uniform(0.0, 2 * np.pi, n)
            return np.column_stack([th, al, be])
        if self.name == "quadric_L":
            a1, a2, c = self.extra["a1"], self.extra["a2"], self.extra["c"]
            th = rng.uniform(0.0, 2 * np.pi, n)
            # radius chosen so a1 x1^2 + a2 x2^2 clears c by a margin
            ang = rng.uniform(0.0, 2 * np.pi, n)
            q = max(c, 0.0) + rng.uniform(0.5, 4.0, n)
            qu = a1 * np.cos(ang) ** 2 + a2 * np.sin(ang) ** 2
            rad = np.sqrt(q / qu)
            return np.column_stack([th, rad * np.cos(ang), rad * np.sin(ang)])
        # branched_leading: a patch around the branch point
        xyt = rng.uniform(-1.0, 1.0, (n, 3))
        xyt[:, 1:] += np.sign(xyt[:, 1:]) * 0.05  # stay off the branch line
        return xyt


def family_point(fam: ModelFamily, params):
    """Points (..., 3) of the family at a parameter stack (..., 3) and their
    analytic tangent rows (..., 3, 3), both complex; real_coords of the
    rows is a stack of plane bases."""
    p = np.moveaxis(np.asarray(params, dtype=float), -1, 0)
    name = fam.name
    if name == "hl_cone_L0":
        r, t1, t2 = p
        if np.any(r <= 0):
            raise ParameterRangeError("cone radius must be positive")
        e1, e2 = np.exp(1j * t1), np.exp(1j * t2)
        e3 = np.exp(-1j * (t1 + t2))
        z = broadcast_stack([r * e1, r * e2, r * e3])
        tb = [broadcast_stack([e1, e2, e3]),
              broadcast_stack([1j * r * e1, 0, -1j * r * e3]),
              broadcast_stack([0, 1j * r * e2, -1j * r * e3])]
    elif name == "hl_Lt":
        t = fam.extra["t"]
        th, x, y = p
        zc = x + 1j * y
        rad = np.sqrt(x * x + y * y + t * t)
        e = np.exp(1j * th)
        z = broadcast_stack([rad * e, zc, np.conj(zc) * np.conj(e)])
        tb = [broadcast_stack([1j * rad * e, 0, -1j * np.conj(zc) * np.conj(e)]),
              broadcast_stack([x / rad * e, 1.0, np.conj(e)]),
              broadcast_stack([y / rad * e, 1j, -1j * np.conj(e)])]
    elif name == "so3_Lt":
        t = fam.extra["t"]
        th, al, be = p
        if not np.all((0.0 < th) & (th < np.pi / 3)):
            raise ParameterRangeError("theta must lie in (0, pi/3)")
        s3 = np.sin(3 * th)
        r = t * s3 ** (-1.0 / 3.0)
        dr = -r * np.cos(3 * th) / s3
        u = (np.sin(al) * np.cos(be), np.sin(al) * np.sin(be), np.cos(al))
        du_al = (np.cos(al) * np.cos(be), np.cos(al) * np.sin(be), -np.sin(al))
        du_be = (-np.sin(al) * np.sin(be), np.sin(al) * np.cos(be), 0.0)
        e = np.exp(1j * th)
        z = broadcast_stack([e * r * x for x in u])
        tb = [broadcast_stack([e * (dr + 1j * r) * x for x in u]),
              broadcast_stack([e * r * x for x in du_al]),
              broadcast_stack([e * r * x for x in du_be])]
    elif name == "quadric_L":
        a1, a2, a3 = fam.extra["a1"], fam.extra["a2"], fam.extra["a3"]
        c = fam.extra["c"]
        th, x1, x2 = p
        x3sq = (a1 * x1 ** 2 + a2 * x2 ** 2 - c) / (a1 + a2)
        if np.any(x3sq < 1e-12):
            raise ParameterRangeError("(x1, x2) too close to the x3 = 0 slice")
        x3 = np.sqrt(x3sq)
        e1, e2, e3 = (np.exp(1j * a1 * th), np.exp(1j * a2 * th),
                      np.exp(1j * a3 * th))
        z = broadcast_stack([e1 * x1, e2 * x2, 1j * e3 * x3])
        d31 = a1 * x1 / ((a1 + a2) * x3)
        d32 = a2 * x2 / ((a1 + a2) * x3)
        tb = [broadcast_stack([1j * a1 * e1 * x1, 1j * a2 * e2 * x2,
                               1j * 1j * a3 * e3 * x3]),
              broadcast_stack([e1, 0, 1j * e3 * d31]),
              broadcast_stack([0, e2, 1j * e3 * d32])]
    else:  # branched_leading
        u, v, w = fam.extra["u"], fam.extra["v"], fam.extra["w"]
        g_uv = float(np.real(np.vdot(u, v)))
        nu2 = float(np.real(np.vdot(u, u)))
        x, y, t = p[..., None]
        z = (x + 0.25 * g_uv * t * t) * u + (y * y - 0.25 * nu2 * t * t) * v \
            + 2 * y * t * w
        tb = [u,
              2 * y * v + 2 * t * w,
              0.5 * g_uv * t * u - 0.5 * nu2 * t * v + 2 * y * w]
    return z, broadcast_stack(tb, axis=-2)


def sl_residual_sweep(fam: ModelFamily, n_samples: int = 1000,
                      seed: int = 0) -> float:
    """Max SL defect of analytic tangent planes over seeded samples."""
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1, got %r" % (n_samples,))
    rng = np.random.default_rng(seed)
    tangents = family_point(fam, fam.sample_params(rng, n_samples))[1]
    return float(np.max(plane_defects(real_coords(tangents))[0]))


def branched_truncation_bound(patch_size: float) -> float:
    """Sup over |x|, |y|, |t| <= s of the leading-order truncation bound
    x^2 + |xy| + |xt| + |y|^3 + |t|^3 for the branched double cover."""
    s = float(patch_size)
    return s * s + s * s + s * s + s ** 3 + s ** 3


# ---------------------------------------------------------------------------
# distance to the asymptotic cone and decay-rate fitting


def distance_to_cone(fam: ModelFamily, points) -> np.ndarray:
    """Euclidean distances from family points (..., 3) to their cone.

    hl_Lt projects onto the T^2-cone in closed form (phases match, the
    radius minimizes a quadratic); so3_Lt uses the plane pair
    R^3 union e^{i pi/3} R^3, at distances |Im z| and |Im(e^{-i pi/3} z)|;
    the cone families are their own cone.
    """
    z = np.asarray(points, dtype=complex)
    if fam.name in ("hl_cone_L0", "hl_Lt"):
        rho1, rho2 = np.abs(z[..., 0]), np.abs(z[..., 1])
        # matched phases leave a 1D least squares over the cone radius
        r = np.maximum((rho1 + 2.0 * rho2) / 3.0, 0.0)
        return np.sqrt((rho1 - r) ** 2 + 2.0 * (rho2 - r) ** 2)
    if fam.name == "so3_Lt":
        return np.minimum(
            np.linalg.norm(z.imag, axis=-1),
            np.linalg.norm((np.exp(-1j * np.pi / 3) * z).imag, axis=-1))
    raise ValueError("family %r has no registered asymptotic cone" % fam.name)


@dataclass
class DecayFit:
    slope: float
    degenerate: bool = False


def ac_decay_rate(fam: ModelFamily, radii) -> DecayFit:
    """Least-squares slope of log(sup distance to cone) against log r, the
    sup taken over 16 seeded parameter draws per radius."""
    n_phase = 16
    radii = np.asarray(radii, dtype=float)
    rng = np.random.default_rng(0)
    t = fam.extra.get("t", 0.0)
    if np.any(radii < 3.0 * t):
        warnings.warn("some radii lie inside the compact core; fit may be "
                      "unreliable", UnreliableFitWarning)
    dists = np.empty(radii.size)
    for k, rho in enumerate(radii):
        if fam.name == "hl_Lt":
            th, phi = rng.uniform(0, 2 * np.pi, (n_phase, 2)).T
            params = np.column_stack([th, rho * np.cos(phi), rho * np.sin(phi)])
        elif fam.name == "so3_Lt":
            coin, al, be = rng.uniform([0.0, 0.3, 0.0],
                                       [1.0, np.pi - 0.3, 2 * np.pi],
                                       (n_phase, 3)).T
            # radius r(theta) = rho picks theta near the ends of (0, pi/3),
            # clamped only to stay inside that open interval
            th = np.arcsin(min((t / rho) ** 3, 1.0)) / 3.0
            th = np.clip(np.where(coin < 0.5, np.pi / 3 - th, th),
                         np.nextafter(0.0, 1.0), np.nextafter(np.pi / 3, 0.0))
            params = np.column_stack([th, al, be])
        elif fam.name == "hl_cone_L0":
            params = np.column_stack([np.full(n_phase, rho),
                                      rng.uniform(0, 2 * np.pi, (n_phase, 2))])
        else:
            raise ValueError("no decay model for %r" % fam.name)
        dists[k] = np.max(distance_to_cone(fam, family_point(fam, params)[0]))
    if np.max(dists) < 1e-13:
        return DecayFit(np.nan, degenerate=True)
    slope = float(np.polyfit(np.log(radii), np.log(dists), 1)[0])
    return DecayFit(slope)


# ---------------------------------------------------------------------------
# flat-torus cone links and the Legendrian index


def l0_link_gram() -> np.ndarray:
    """Gram matrix of the L0 cone link torus.

    The link is the image of (t1, t2) -> (e^{i t1}, e^{i t2},
    e^{-i(t1+t2)}) / sqrt(3) in the unit 5-sphere; the pulled-back metric
    is constant, so one base point determines it.
    """
    frame = np.array([[1j, 0.0, -1j], [0.0, 1j, -1j]]) / np.sqrt(3.0)
    return np.array([[np.real(np.vdot(a, b)) for b in frame] for a in frame])


# the widest frequency box, |n1|, |n2| <= BOX_MAX: 4001^2 eigenvalues
BOX_MAX = 2000


def _lattice_eigenvalues(gram: np.ndarray, bound: float) -> np.ndarray:
    """lambda(n) = n^T G^{-1} n for every nonzero integer frequency n in the
    least box |n1|, |n2| <= c with lam_min(G^{-1}) c^2 > bound: outside it
    |n| > c, so every lambda there exceeds bound."""
    G = np.asarray(gram, dtype=float)
    if G.shape != (2, 2) or not np.allclose(G, G.T):
        raise ValueError("gram must be a symmetric 2x2 matrix")
    evals = np.linalg.eigvalsh(G)
    if evals[0] <= 0:
        raise ValueError("gram must be positive definite")
    # c is the least integer above (bound / lam_min(G^{-1}))^{1/2}, and
    # lam_min(G^{-1}) = 1 / lam_max(G)
    half = np.sqrt(max(bound, 0.0) * evals[1])
    if not half < BOX_MAX:
        raise ValueError("eigenvalues up to %g need a frequency box wider "
                         "than %d" % (bound, BOX_MAX))
    c = int(half) + 1
    Ginv = np.linalg.inv(G)
    k = np.arange(-c, c + 1)
    n1, n2 = np.meshgrid(k, k, indexing="ij", sparse=True)
    lam = Ginv[0, 0] * n1 * n1 + 2 * Ginv[0, 1] * n1 * n2 + Ginv[1, 1] * n2 * n2
    return lam[(n1 != 0) | (n2 != 0)]


def legendrian_index_flat_torus(gram: np.ndarray, m: int) -> int:
    """Eigenvalues of the Laplacian on the flat torus R^2 / 2 pi Z^2 with
    metric Gram matrix G are lambda(n) = n^T G^{-1} n over integer
    frequencies n; count those in (0, 2m) with multiplicity."""
    if m < 1:
        raise ValueError("complex dimension m must be at least 1")
    lam = _lattice_eigenvalues(gram, 2.0 * m)
    return int(np.count_nonzero((0.0 < lam) & (lam < 2.0 * m - 1e-12)))


def eigenvalue_multiplicity(gram: np.ndarray, value: float) -> int:
    """Multiplicity of a given Laplacian eigenvalue on the flat torus link,
    to 1e-9 (raw report used for rigidity inspection)."""
    lam = _lattice_eigenvalues(gram, value + 1e-9)
    return int(np.count_nonzero(np.abs(lam - value) <= 1e-9))


def lower_bound_lind(k_spheres: int, k_other: int, m: int) -> int:
    """Lower bound for the Legendrian index from linear-function
    eigenfunctions: m per sphere end, 2m per other end."""
    if k_spheres < 0 or k_other < 0:
        raise ValueError("end counts must be nonnegative")
    return m * k_spheres + 2 * m * k_other


# ---------------------------------------------------------------------------
# moduli dimensions of complete-intersection Calabi-Yau 3-folds


def ci_moduli_dimension(num_vars: int, degrees) -> int:
    """Dimension of the space of defining systems modulo rescaling and the
    projective automorphism group.

    k hypersurfaces of equal degree d in n variables span a point of the
    Grassmannian Gr(k, D), D = C(n+d-1, d); the dimension is
    k (D - k) - (n^2 - 1), which for k = 1 is D - 1 - (n^2 - 1).
    """
    n = int(num_vars)
    if n < 2:   # the hypersurfaces live in P^{n-1}
        raise ValueError("num_vars must be at least 2, got %d" % n)
    degrees = [int(d) for d in degrees]
    if not degrees:
        raise ValueError("need at least one degree")
    if any(d < 2 for d in degrees):
        raise DegenerateModuliError("degrees must be at least 2")
    if len(set(degrees)) != 1:
        raise ValueError("mixed degrees are not supported")
    k, d = len(degrees), degrees[0]
    D = math.comb(n + d - 1, d)
    dim = k * (D - k) - (n * n - 1)
    if dim < 0:
        raise OverdeterminedModuliError("moduli dimension %d is negative" % dim)
    return dim
