"""Special Lagrangian fibrations of subsets of C^3 in closed form:

  * the explicit piecewise-smooth fibration F(z) = (a, b) with
    2a = |z1|^2 - |z2|^2 and a three-branch formula for b, whose fibers
    are T^2-cones at a = 0 and S^1 x R^2 otherwise;
  * the T^2-cone fibration (|z1|^2-|z3|^2, |z2|^2-|z3|^2, Im(z1 z2 z3)),
    sampled along its U(1)^2 orbits.

The U(1)-invariant Dirichlet families N_alpha live in :mod:`slgeo.u1`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import broadcast_stack, plane_defects, real_coords

RANK_RTOL = 1e-8  # singular-value ratio below which the Jacobian drops rank


class InvalidRegionError(ValueError):
    """The parameter region U is empty along some axis, or alpha lies outside it."""


class EmptyFiberError(ValueError):
    """The requested level set contains no points."""


@dataclass
class FiberRecord:
    points: np.ndarray                  # (N, 3) complex
    topology: str                       # T2_cone | S1xR2 | T3_like | other
    singular_points: list
    sl_residual_max: float


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
    a_max = np.finfo(float).max / 4     # 2a and the squared radii stay finite
    if not (abs(a) <= a_max and np.isfinite(b)):
        raise ValueError("a and b must be finite with |a| <= %.4g, got "
                         "%r, %r" % (a_max, a, b))
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
    return FiberRecord(pts[keep], topo, sing,
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
    return FiberRecord(z, topo, sing, float(np.max(defects, initial=0.0)))


def discriminant_scan(a_values, b: complex = 0.0):
    """Levels a of the explicit fibration whose fiber over (a, b) contains
    singular points.  The result is codimension 1 in the base: exactly
    the a = 0 slice.
    """
    return [float(a) for a in a_values
            if explicit_F_fiber(float(a), b).singular_points]
