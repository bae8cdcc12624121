"""Special Lagrangian fibrations of subsets of C^3.

Three constructions:

  * families of U(1)-invariant Dirichlet problems Phi(a, b, c) =
    phi + b x + c y over a convex domain, whose solved potentials lift to
    pairwise-disjoint SL 3-folds N_alpha;
  * the explicit piecewise-smooth fibration F(z) = (a, b) with
    2a = |z1|^2 - |z2|^2 and a three-branch formula for b, whose fibers
    are T^2-cones at a = 0 and S^1 x R^2 otherwise;
  * the T^2-cone fibration (|z1|^2-|z3|^2, |z2|^2-|z3|^2, Im(z1 z2 z3)),
    sampled in closed form along its U(1)^2 orbits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .core import (broadcast_stack, moment_map_values, plane_defects,
                   real_coords)

if TYPE_CHECKING:  # u1 loads scipy, which only the Dirichlet families need
    from .u1 import BoundaryData, ConvexDomain, PotentialSolution

RANK_RTOL = 1e-8  # singular-value ratio below which the Jacobian drops rank


class InvalidRegionError(ValueError):
    """The parameter region U is empty along some axis, or alpha lies outside it."""


class EmptyFiberError(ValueError):
    """The requested level set contains no points."""


@dataclass
class FiberRecord:
    alpha: tuple
    points: np.ndarray                  # (N, 3) complex
    topology: str                       # T2_cone | S1xR2 | plane_pair | T3_like | other
    singular_points: list
    sl_residual_max: float


@dataclass
class FibrationFamily:
    """Dirichlet-problem family Phi(a, b, c) = base_phi + b x + c y.

    U is ((a_min, a_max), (b_min, b_max), (c_min, c_max)), closed ranges
    that every requested alpha must lie in.  Solutions are cached per
    alpha.  The paper's condition on same-a parameter pairs, that the
    difference of their boundary data has exactly one maximum and one
    minimum, holds in every such family: two distinct members differ on
    the boundary by (b - b') x + (c - c') y, a nonzero linear function,
    which has exactly one of each on the boundary of a strictly convex
    domain.
    """

    base_phi: BoundaryData
    U: tuple
    domain: ConvexDomain
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        for lo, hi in self.U:
            if hi < lo:
                raise InvalidRegionError("empty parameter range (%g, %g)" % (lo, hi))

    def boundary_data(self, alpha) -> BoundaryData:
        from .u1 import BoundaryData
        a, b, c = alpha
        base = self.base_phi
        return BoundaryData(lambda x, y: base(x, y) + b * np.asarray(x)
                            + c * np.asarray(y))

    def solution(self, alpha) -> PotentialSolution:
        from .u1 import solve_dirichlet
        key = tuple(float(v) for v in alpha)
        if not all(lo <= v <= hi for v, (lo, hi) in zip(key, self.U)):
            raise InvalidRegionError("alpha %r lies outside U = %r" % (key, self.U))
        if key not in self._cache:
            self._cache[key] = solve_dirichlet(
                self.boundary_data(key), key[0], self.domain)
        return self._cache[key]

    def fiber(self, alpha) -> FiberRecord:
        from .u1 import lift_to_sl3, singular_points
        sol = self.solution(alpha)
        cloud = lift_to_sl3(sol, samples_per_node=2)
        sing = singular_points(sol)
        # a != 0 solutions have no singular points
        topo = {0: "S1xR2", 1: "T2_cone"}.get(len(sing), "other")
        finite = cloud.sl_defects[np.isfinite(cloud.sl_defects)]
        res = float(np.max(finite)) if finite.size else 0.0
        return FiberRecord(tuple(alpha), cloud.points, topo,
                           [(0.0, 0.0, z3) for _, z3 in sing], res)


def check_disjoint(fam: FibrationFamily, alpha_pairs):
    """Disjointness report for parameter pairs.

    Same-a pairs must have zero difference zeros of (u, v); different-a
    pairs are separated by the moment-map level |z1|^2 - |z2|^2 = 2a, and
    report the least distance between 200 seeded points of each fiber.
    """
    from .u1 import difference_zeros
    rng = np.random.default_rng(0)
    report = []
    for alpha, alpha2 in alpha_pairs:
        entry = {"alpha": tuple(alpha), "alpha2": tuple(alpha2)}
        if alpha[0] == alpha2[0]:
            s1 = fam.solution(alpha)
            s2 = fam.solution(alpha2)
            rep = difference_zeros(s1, s2)
            entry["mechanism"] = "difference-zeros"
            entry["zeros"] = rep.total
            entry["identical"] = rep.identical
            entry["disjoint"] = (rep.total == 0) and not rep.identical
        else:
            c1 = fam.fiber(alpha)
            c2 = fam.fiber(alpha2)
            lvl1, lvl2 = (0.5 * moment_map_values((1, -1, 0), c.points)
                          for c in (c1, c2))
            entry["mechanism"] = "moment-level"
            entry["level_error"] = float(max(np.max(np.abs(lvl1 - alpha[0])),
                                             np.max(np.abs(lvl2 - alpha2[0]))))
            entry["disjoint"] = bool(
                abs(alpha[0] - alpha2[0]) > 2.0 * entry["level_error"])
            idx1 = rng.choice(len(c1.points), min(200, len(c1.points)),
                              replace=False)
            idx2 = rng.choice(len(c2.points), min(200, len(c2.points)),
                              replace=False)
            p1, p2 = (np.concatenate([p.real, p.imag], axis=-1)
                      for p in (c1.points[idx1], c2.points[idx2]))
            d = np.linalg.norm(p1[:, None, :] - p2[None, :, :], axis=-1)
            entry["min_distance"] = float(np.min(d))
        report.append(entry)
    return report


# ---------------------------------------------------------------------------
# the explicit piecewise-smooth fibration of C^3


def explicit_F(p) -> tuple:
    """(a, b) with 2a = |z1|^2 - |z2|^2 and the three-branch b formula."""
    z1, z2, z3 = (complex(v) for v in p)
    a = 0.5 * (abs(z1) ** 2 - abs(z2) ** 2)
    if a == 0.0 and z1 == 0 and z2 == 0:
        b = z3
    elif a >= 0.0 and z1 != 0:
        b = z3 + np.conj(z1) * np.conj(z2) / abs(z1)
    else:
        b = z3 + np.conj(z1) * np.conj(z2) / abs(z2)
    return float(a), complex(b)


def explicit_F_fiber(a: float, b: complex) -> FiberRecord:
    """Sampled fiber of the explicit fibration.

    Points are z1 = r1 e^{i t1}, z2 = r2 e^{i t2} with
    r1^2 - r2^2 = 2a, and z3 = b - min(r1, r2) e^{-i(t1 + t2)}, over an
    (s = r2, t1, t2) grid in node-major order: 12 values of s from its
    least value s0 to sqrt(s0^2 + 4), 8 phases per circle.
    """
    n_r, n_phase, r_max = 12, 8, 2.0
    b = complex(b)
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ValueError("a and b must be finite, got %r, %r" % (a, b))
    smin = np.sqrt(max(0.0, -2.0 * a))
    s = np.linspace(smin, np.sqrt(smin ** 2 + r_max ** 2), n_r)
    t = 2 * np.pi * np.arange(n_phase) / n_phase
    e1, e2 = np.exp(1j * t)[:, None], np.exp(1j * t)[None, :]
    e3 = np.exp(-1j * (t[:, None] + t[None, :]))
    r2 = s[:, None, None]
    r1 = np.sqrt(np.maximum(r2 ** 2 + 2.0 * a, 0.0))
    rmin = np.minimum(r1, r2)
    pts = broadcast_stack([r1 * e1, r2 * e2, b - rmin * e3]).reshape(n_r, -1, 3)
    # where both radii are exactly zero (a = 0, s = 0) the whole orbit is
    # the single point (0, 0, b)
    apex = ((r1 == 0.0) & (r2 == 0.0))[:, 0, 0]
    keep = np.ones(pts.shape[:2], dtype=bool)
    keep[apex, 1:] = False
    pts[apex, 0] = (0.0, 0.0, b)
    # analytic tangent in (s, t1, t2), r1 dr1 = r2 dr2; where one circle
    # collapses (rmin < 1e-6) the chart is singular but the fiber is smooth
    # for a != 0, so those points carry no tangent
    tan = rmin[:, 0, 0] >= 1e-6
    r1, r2, rmin = r1[tan], r2[tan], rmin[tan]
    dr1 = r2 / r1
    drmin = np.where(r1 <= r2, dr1, 1.0)
    rows = broadcast_stack([broadcast_stack([dr1 * e1, e2, -drmin * e3]),
                            broadcast_stack([1j * r1 * e1, 0, 1j * rmin * e3]),
                            broadcast_stack([0, 1j * r2 * e2, 1j * rmin * e3])],
                           axis=-2)
    defects = plane_defects(real_coords(rows).reshape(-1, 3, 6))[0]
    sing = [(0.0, 0.0, b)] if apex.any() else []
    topo = "T2_cone" if sing else "S1xR2"
    return FiberRecord((a, b.real, b.imag), pts[keep], topo, sing,
                       float(np.max(defects, initial=0.0)))


def explicit_F_smoothness_jump(b: complex = 0.0, r: float = 1.0) -> float:
    """One-sided derivative mismatch of the explicit fibration across the
    wall |z1| = |z2|, witnessing piecewise (not global) smoothness."""
    h = 1e-6
    b = complex(b)
    t1 = 0.7
    z1 = r * np.exp(1j * t1)
    z2 = r + 0.0j
    z3 = b - r * np.exp(-1j * t1)
    def F_at(eps):
        return np.array(explicit_F((z1 * (1 + eps), z2, z3))[1])
    d_plus = (F_at(h) - F_at(0.0)) / h
    d_minus = (F_at(0.0) - F_at(-h)) / h
    return float(abs(d_plus - d_minus))


# ---------------------------------------------------------------------------
# the T^2-cone fibration of C^3


def harvey_lawson_F(p) -> tuple:
    z1, z2, z3 = (complex(v) for v in p)
    return (abs(z1) ** 2 - abs(z3) ** 2,
            abs(z2) ** 2 - abs(z3) ** 2,
            float(np.imag(z1 * z2 * z3)))


def harvey_lawson_jacobian(p) -> np.ndarray:
    """Real 3 x 6 Jacobians (..., 3, 6) of the T^2-cone fibration at
    points p (..., 3).  The gradient of a real function F is
    real_coords(2 dF/dzbar); for F = Im(z1 z2 z3),
    dF/dzbar_k = (i/2) conj(d(z1 z2 z3)/dz_k)."""
    z1, z2, z3 = np.moveaxis(np.asarray(p, dtype=complex), -1, 0)
    w = broadcast_stack([z2 * z3, z1 * z3, z1 * z2])
    dF = broadcast_stack([broadcast_stack([z1, 0, -z3]),
                          broadcast_stack([0, z2, -z3]),
                          0.5j * np.conj(w)], axis=-2)
    return real_coords(2 * dF)


def _rank(s: np.ndarray) -> np.ndarray:
    """Numerical rank from descending singular values (..., k): those above
    RANK_RTOL times the largest (none if the largest is 0)."""
    return np.sum(s > RANK_RTOL * s[..., :1], axis=-1)


def jacobian_rank(J: np.ndarray) -> int:
    return int(_rank(np.linalg.svd(J, compute_uv=False)))


def classify_fiber_hl(a: float, b: float, c: float) -> FiberRecord:
    """Sample the level set of the T^2-cone fibration along U(1)^2 orbits.

    Radii follow from rho = |z3| in closed form, at 10 values of rho from
    its least value rho0 to sqrt(rho0^2 + 4), 8 phases per circle; the total
    phase is fixed by the Im(z1 z2 z3) = c equation.  One batched SVD of
    the Jacobians gives both the rank test and the tangent planes (their
    kernels).
    """
    n_rho, n_phase, rho_max = 10, 8, 2.0
    rho_min = np.sqrt(max(0.0, -a, -b))
    rho = np.linspace(rho_min, np.sqrt(rho_min ** 2 + rho_max ** 2), n_rho)
    # at rho_min the radicand of the vanishing radius can round below 0
    r1 = np.sqrt(np.maximum(a + rho ** 2, 0.0))
    r2 = np.sqrt(np.maximum(b + rho ** 2, 0.0))
    prod = r1 * r2 * rho
    on = (prod > 0.0) & (prod >= abs(c))
    r1, r2, rho, prod = (v[on, None, None] for v in (r1, r2, rho, prod))
    sigma = np.arcsin(np.clip(c / prod, -1.0, 1.0))
    t = 2 * np.pi * np.arange(n_phase) / n_phase
    t1, t2 = t[:, None], t[None, :]
    z = broadcast_stack([r1 * np.exp(1j * t1), r2 * np.exp(1j * t2),
                         rho * np.exp(1j * (sigma - t1 - t2))]).reshape(-1, 3)
    origin = a == 0.0 and b == 0.0 and c == 0.0
    if not (len(z) or origin):
        raise EmptyFiberError("no points on the (%.3g, %.3g, %.3g) level"
                              % (a, b, c))
    _, s, vt = np.linalg.svd(harvey_lawson_jacobian(z))
    singular = _rank(s) < 3
    sing = [tuple(p) for p in z[singular]]
    if origin:
        z = np.concatenate([np.zeros((1, 3), dtype=complex), z])
        sing.insert(0, (0.0, 0.0, 0.0))
    defects = plane_defects(vt[~singular, 3:, :])[0]
    topo = "T2_cone" if sing else "T3_like"
    return FiberRecord((a, b, c), z, topo, sing,
                       float(np.max(defects, initial=0.0)))


def discriminant_scan(a_values, b: complex = 0.0):
    """Levels a of the explicit fibration whose fiber over (a, b) contains
    singular points.  The result is codimension 1 in the base: exactly
    the a = 0 slice.
    """
    return [float(a) for a in a_values
            if explicit_F_fiber(float(a), b).singular_points]
