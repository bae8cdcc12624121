"""Evolution of surfaces in C^3 sweeping special Lagrangian 3-folds.

The node velocity is the vector field obtained by contracting the
pushed-forward area bivector chi of the surface with Re Omega and raising
the resulting covector with the flat metric.  In complex coordinates this
is velocity = conj(T1 x T2) where T1, T2 are the pushed-forward tangent
vectors and x is the bilinear coordinate cross product.

The flow preserves the vanishing of the symplectic pullback, and for a
round sphere scaled by a unit complex number w it reduces to the scalar
equation dw/dt = conj(w)^2, whose orbits are the SO(3)-invariant family
r^3 sin(3 theta) = const.

Discretization: icosphere mesh; per-node pushforward weights are fixed
linear combinations of neighbor positions that reproduce two orthonormal
reference tangents exactly (so they are exact for ambient-linear maps);
explicit RK4 in time with drift-based step rejection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .core import plane_defects, real_coords

DRIFT_BUDGET = 1e-6  # symplectic drift a step may add before dt is halved


class InvalidChiError(ValueError):
    """The area bivector vanishes at some node."""


class StepRejectedError(RuntimeError):
    """A step exceeded the symplectic-drift budget even at minimum dt."""


class NoMatchError(RuntimeError):
    """The evolved surface could not be fitted to the closed-form family."""


def icosphere(subdivisions: int = 3):
    """Triangulated unit sphere: icosahedron with subdivided, reprojected
    faces.  Returns (vertices (N, 3), triangles (T, 3)); N = 642 at
    subdivisions = 3."""
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array([
        [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
        [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
        [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
    ], dtype=float)
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    faces = np.array([
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ])
    for _ in range(subdivisions):
        # edges ab, bc, ca of each face in turn; the midpoints are new
        # vertices, numbered in the order their edges are first met
        edges = np.sort(faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
        uniq, first, inverse = np.unique(edges, axis=0, return_index=True,
                                         return_inverse=True)
        order = np.argsort(first)
        p = verts[uniq[order, 0]] + verts[uniq[order, 1]]
        # each row's norm as np.linalg.norm computes it, one dot product
        p /= np.sqrt(p[:, None, :] @ p[:, :, None])[:, 0]
        ab, bc, ca = (len(verts) + np.argsort(order)[inverse.reshape(-1)]
                      ).reshape(-1, 3).T
        a, b, c = faces.T
        faces = np.stack([a, ab, ca, ab, b, bc, ca, bc, c, ab, bc, ca],
                         axis=1).reshape(-1, 3)
        verts = np.concatenate([verts, p])
    return verts, faces


def _pushforward_matrices(verts, faces):
    """Sparse operators D1, D2 with (D @ positions) the pushforwards of two
    orthonormal reference tangents t1, t2 at each node (t1 x t2 outward).

    Coefficients are the minimum-norm exact solution of
    sum_j c_j (x_j - x_i) = t, so they reproduce d(phi)(t) exactly
    whenever phi is affine on the ambient space.  Nodes of equal degree
    share one batched solve of A^T A y = [t1 t2].
    """
    n = len(verts)
    edges = faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    loops = np.repeat(np.arange(n)[:, None], 2, axis=1)   # the diagonal slots
    rows, cols = np.divmod(np.unique(
        np.concatenate([edges, edges[:, ::-1], loops]) @ [n, 1]), n)
    deg = np.bincount(rows, minlength=n)
    indptr = np.concatenate([[0], np.cumsum(deg)])
    t1 = np.cross(verts, [0.0, 0.0, 1.0])
    pole = np.linalg.norm(t1, axis=1) < 1e-8
    t1[pole] = np.cross(verts[pole], [1.0, 0.0, 0.0])
    t1 /= np.linalg.norm(t1, axis=1, keepdims=True)
    T = np.stack([t1, np.cross(verts, t1)], axis=2)           # (n, 3, 2)
    vals = np.empty((len(rows), 2))
    for k in np.unique(deg):
        idx = np.flatnonzero(deg == k)
        slots = indptr[idx, None] + np.arange(k)                # (g, k)
        A = verts[cols[slots]] - verts[idx, None]   # (g, k, 3), zero self row
        vals[slots] = A @ np.linalg.solve(np.swapaxes(A, 1, 2) @ A, T[idx])
    vals[rows == cols] = -np.add.reduceat(vals, indptr[:-1])
    return tuple(sp.csr_matrix((vals[:, d], cols, indptr), shape=(n, n))
                 for d in (0, 1))


@dataclass
class EvolvingSurface:
    """A triangulated surface evolving in C^3.

    states holds complex (N, 3) node-position snapshots; chi is the unit
    area bivector encoded by the two pushforward operators, stacked as D.
    drifts[i] is the symplectic drift of states[i]; halvings holds
    (t, dt, drift) for each rejected RK4 candidate.
    """

    verts: np.ndarray
    faces: np.ndarray
    D1: sp.csr_matrix = field(repr=False)
    D2: sp.csr_matrix = field(repr=False)
    states: list = field(default_factory=list)
    times: list = field(default_factory=list)
    dt: float = 0.01
    drifts: list = field(default_factory=list)
    halvings: list = field(default_factory=list)
    D: sp.csr_matrix = field(init=False, repr=False)

    def __post_init__(self):
        self.D = sp.vstack([self.D1, self.D2], format="csr")

    @classmethod
    def sphere(cls, subdivisions: int = 3, scale: complex = 1.0,
               dt: float = 0.01) -> "EvolvingSurface":
        if not dt > 0:
            raise ValueError("dt must be positive, got %r" % (dt,))
        verts, faces = icosphere(subdivisions)
        D1, D2 = _pushforward_matrices(verts, faces)
        surf = cls(verts, faces, D1, D2, dt=dt)
        surf.states.append(scale * verts.astype(complex))
        surf.times.append(0.0)
        chi = surf.velocity(surf.states[0])
        if np.min(np.linalg.norm(chi, axis=1)) < 1e-12:
            raise InvalidChiError("area bivector vanishes at a node")
        return surf

    def velocity(self, state: np.ndarray) -> np.ndarray:
        """conj(T1 x T2) rowwise; the contraction of the pushed-forward
        bivector with Re Omega, metric-raised."""
        return _conj_cross(*_tangents(self.D, state))


def _tangents(D, z):
    """(T1, T2), the two row halves of D @ z, for complex node-major
    (N, ..., 3) z: one real matvec over all of it."""
    z = np.ascontiguousarray(z, dtype=complex)
    t = (D @ z.reshape(len(z), -1).view(float)).view(complex)
    return t.reshape((2, -1) + z.shape[1:])


def _conj_cross(a, b):
    """conj(a x b) over the last axis."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    c = np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0],
                 axis=-1)
    return np.conj(c, out=c)


def _rk4(surf: EvolvingSurface, state: np.ndarray, dt: float) -> np.ndarray:
    k1 = surf.velocity(state)
    k2 = surf.velocity(state + 0.5 * dt * k1)
    k3 = surf.velocity(state + 0.5 * dt * k2)
    k4 = surf.velocity(state + dt * k3)
    return state + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)


def state_drift(surf: EvolvingSurface, state: np.ndarray) -> float:
    """Max discrete symplectic pullback over mesh triangles."""
    p0 = np.take(state, surf.faces[:, 0], axis=0)
    e1 = np.take(state, surf.faces[:, 1], axis=0) - p0
    e2 = np.take(state, surf.faces[:, 2], axis=0) - p0
    om = (np.conj(e1) * e2).imag
    return float(np.max(np.abs(om[:, 0] + om[:, 1] + om[:, 2])))


def _recorded_drifts(surf: EvolvingSurface) -> list:
    """surf.drifts, extended by the states it does not cover yet."""
    surf.drifts.extend(state_drift(surf, s)
                       for s in surf.states[len(surf.drifts):])
    return surf.drifts


def evolve_step(surf: EvolvingSurface) -> EvolvingSurface:
    """One accepted RK4 step; halves dt while the drift budget is exceeded,
    recording each rejected candidate in surf.halvings."""
    state = surf.states[-1]
    base = _recorded_drifts(surf)[-1]
    dt = surf.dt
    while True:
        cand = _rk4(surf, state, dt)
        drift = state_drift(surf, cand)
        if drift <= max(base, 0.0) + DRIFT_BUDGET:
            break
        surf.halvings.append((surf.times[-1], dt, drift))
        dt *= 0.5
        if dt < 1e-12:
            raise StepRejectedError("drift budget unattainable at dt = %g" % dt)
    surf.states.append(cand)
    surf.drifts.append(drift)
    surf.times.append(surf.times[-1] + dt)
    surf.dt = dt
    return surf


def evolve_run(surf: EvolvingSurface, t_end: float) -> EvolvingSurface:
    if not surf.dt > 0:  # a step of dt <= 0 never advances the clock
        raise ValueError("dt must be positive, got %r" % (surf.dt,))
    while surf.times[-1] < t_end - 1e-12:
        surf.dt = min(surf.dt, t_end - surf.times[-1])
        evolve_step(surf)
    return surf


def symplectic_drift(surf: EvolvingSurface) -> float:
    """Max discrete pullback of omega over all cells and recorded times."""
    return max(_recorded_drifts(surf))


def swept_sl_defect(surf: EvolvingSurface, stride: int = 50) -> float:
    """Max SL defect of 3-planes (surface tangents, velocity) over a node
    subsample of all states; the swept 3-fold is SL when this vanishes."""
    n = len(surf.verts)
    D = surf.D[np.r_[0:n:stride, n:2 * n:stride]]
    cols = np.unique(D.indices)              # the nodes the subsample reads
    T1, T2 = _tangents(D[:, cols], np.stack([s[cols] for s in surf.states],
                                            axis=1))
    tangents = np.stack([T1, T2, _conj_cross(T1, T2)], axis=-2)
    bases = real_coords(tangents).reshape(-1, 3, 6)
    return float(np.max(plane_defects(bases)[0], initial=0.0))


# ---------------------------------------------------------------------------
# comparison against the SO(3)-invariant closed-form family


def sphere_scale(state: np.ndarray) -> np.ndarray:
    """Per-node complex scale w with state = w * (real unit vectors);
    recovered from the bilinear square sum, principal branch."""
    w2 = np.sum(state * state, axis=1)
    return np.sqrt(w2)


def compare_so3(surf: EvolvingSurface) -> float:
    """Max relative radial deviation of the recorded states from the family
    r^3 sin(3 theta) = const, with the constant fitted per run."""
    consts = np.empty((len(surf.states), len(surf.verts)))
    for k, state in enumerate(surf.states):
        w = sphere_scale(state)
        r = np.abs(w)
        th = np.angle(w)
        if np.any(r < 1e-12) or np.any(th <= 0) or np.any(th >= np.pi / 3):
            raise NoMatchError("state %d left the family parameter range" % k)
        consts[k] = r ** 3 * np.sin(3 * th)
    t3 = float(np.mean(consts))
    if t3 <= 0:
        raise NoMatchError("fitted family constant is nonpositive")
    consts /= t3
    ratio = np.cbrt(consts, out=consts)   # r / r_model, r_model on the family
    return float(max(ratio.max() - 1.0, 1.0 - ratio.min()))
