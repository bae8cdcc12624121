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

Discretization: icosphere mesh; per node a fixed-width stencil of its own
and its neighbours' positions whose weights reproduce two orthonormal
reference tangents exactly (so they are exact for ambient-linear maps);
explicit RK4 in time at the given step; the drift is recorded, not used.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import conj_cross, plane_defects, real_coords

SWEPT_STRIDE = 50  # swept_sl_defect reads every SWEPT_STRIDE-th node


class InvalidChiError(ValueError):
    """The area bivector vanishes at some node."""


class StepRejectedError(RuntimeError):
    """A step left the finite range, as past the blow-up time of a flow."""


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


def _neighbours(faces, n):
    """(n, K) table, K = 1 + max degree: row i is i, each neighbour j once
    (one half-edge i -> j on a closed oriented mesh), then i as padding."""
    tails = faces.ravel()
    order = np.argsort(tails, kind="stable")
    deg = np.bincount(tails, minlength=n)
    slot = np.arange(1, len(tails) + 1) - np.repeat(np.cumsum(deg) - deg, deg)
    nbr = np.repeat(np.arange(n)[:, None], 1 + deg.max(), axis=1)
    nbr[tails[order], slot] = faces[:, [1, 2, 0]].ravel()[order]
    return nbr


def _pushforward_weights(verts, nbr):
    """Weights D1, D2 on the node table nbr: sum_k D[i, k] x[nbr[i, k]] is
    the pushforward of one of two orthonormal reference tangents t1, t2
    at node i (t1 x t2 outward), and slot 0 holds minus the row sum.

    They are the minimum-norm exact solution of sum_j c_j (x_j - x_i) = t,
    so they reproduce d(phi)(t) exactly whenever phi is ambient-affine.
    The own and padding slots are zero rows of A with weight 0, so one
    batched solve of A^T A y = [t1 t2] serves every degree."""
    t1 = np.cross(verts, [0.0, 0.0, 1.0])
    pole = np.linalg.norm(t1, axis=1) < 1e-8
    t1[pole] = np.cross(verts[pole], [1.0, 0.0, 0.0])
    t1 /= np.linalg.norm(t1, axis=1, keepdims=True)
    T = np.stack([t1, np.cross(verts, t1)], axis=2)           # (n, 3, 2)
    A = verts[nbr] - verts[:, None]                            # (n, K, 3)
    W = np.swapaxes(A @ np.linalg.solve(np.swapaxes(A, 1, 2) @ A, T), 1, 2)
    W[:, :, 0] = -W.sum(axis=2)
    return W[:, 0], W[:, 1]


@dataclass
class EvolvingSurface:
    """A triangulated surface evolving in C^3.

    states holds complex (N, 3) node-position snapshots; chi is the unit
    area bivector, encoded by the stencil weights D1, D2 (stacked as W)
    on the node table nbr.  drifts[i] is the symplectic drift of states[i].
    """

    verts: np.ndarray
    faces: np.ndarray
    D1: np.ndarray = field(repr=False)
    D2: np.ndarray = field(repr=False)
    states: list = field(default_factory=list)
    times: list = field(default_factory=list)
    dt: float = 0.01
    drifts: list = field(init=False)
    nbr: np.ndarray = field(init=False, repr=False)
    W: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not 0 < self.dt < np.inf:
            raise ValueError("dt must be positive and finite, got %r"
                             % (self.dt,))
        if not all(np.isfinite(s).all() for s in self.states):
            raise ValueError("surface states must be finite")
        self.nbr = _neighbours(self.faces, len(self.verts))
        self.W = np.stack([self.D1, self.D2], axis=1)
        self.drifts = [state_drift(self, s) for s in self.states]

    @classmethod
    def sphere(cls, subdivisions: int = 3, scale: complex = 1.0,
               dt: float = 0.01) -> "EvolvingSurface":
        verts, faces = icosphere(subdivisions)
        D1, D2 = _pushforward_weights(verts, _neighbours(faces, len(verts)))
        surf = cls(verts, faces, D1, D2, [scale * verts.astype(complex)],
                   [0.0], dt)
        chi = surf.velocity(surf.states[0])
        if np.min(np.linalg.norm(chi, axis=1)) < 1e-12:
            raise InvalidChiError("area bivector vanishes at a node")
        return surf

    def velocity(self, state: np.ndarray) -> np.ndarray:
        """conj(T1 x T2) rowwise; the contraction of the pushed-forward
        bivector with Re Omega, metric-raised."""
        return conj_cross(*_tangents(self.nbr, self.W, state))


def _tangents(nbr, W, z):
    """(T1, T2) on the rows of node table nbr with (n, 2, K) weights W, for
    complex node-major (N, ..., 3) z: one gather and one batched product."""
    z = np.ascontiguousarray(z, dtype=complex)
    t = W @ np.take(z.reshape(len(z), -1).view(float), nbr, axis=0)
    t = t.view(complex).reshape((len(nbr), 2) + z.shape[1:])
    return t[:, 0], t[:, 1]


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


def evolve_run(surf: EvolvingSurface, t_end: float) -> EvolvingSurface:
    """RK4 steps of surf.dt, the last one cut to end at t_end; raises
    StepRejectedError at a step whose state or drift is not finite."""
    if not np.isfinite(t_end):
        raise ValueError("t_end must be finite, got %r" % (t_end,))
    if not surf.dt > 0:  # a step of dt <= 0 never advances the clock
        raise ValueError("dt must be positive, got %r" % (surf.dt,))
    while surf.times[-1] < t_end - 1e-12:
        dt = min(surf.dt, t_end - surf.times[-1])
        with np.errstate(over="ignore", invalid="ignore"):
            state = _rk4(surf, surf.states[-1], dt)
            drift = state_drift(surf, state)
        if not (np.isfinite(drift) and np.isfinite(state).all()):
            raise StepRejectedError("the step from t = %.6g left the finite "
                                    "range" % surf.times[-1])
        surf.states.append(state)
        surf.drifts.append(drift)
        surf.times.append(surf.times[-1] + dt)
    return surf


def symplectic_drift(surf: EvolvingSurface) -> float:
    """Max discrete pullback of omega over all cells and recorded times."""
    return max(surf.drifts)


def swept_sl_defect(surf: EvolvingSurface) -> float:
    """Max SL defect of 3-planes (surface tangents, velocity) at every
    SWEPT_STRIDE-th node of all states; zero when the swept 3-fold is SL."""
    rows = surf.nbr[::SWEPT_STRIDE]
    cols, sub = np.unique(rows, return_inverse=True)   # the nodes it reads
    T1, T2 = _tangents(sub.reshape(rows.shape), surf.W[::SWEPT_STRIDE],
                       np.stack([s[cols] for s in surf.states], axis=1))
    tangents = np.stack([T1, T2, conj_cross(T1, T2)], axis=-2)
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
    lo, hi, total = np.inf, -np.inf, 0.0
    for k, state in enumerate(surf.states):
        w = sphere_scale(state)
        r = np.abs(w)
        th = np.angle(w)
        if np.any(r < 1e-12) or np.any(th <= 0) or np.any(th >= np.pi / 3):
            raise NoMatchError("state %d left the family parameter range" % k)
        c = r ** 3 * np.sin(3 * th)
        lo, hi, total = min(lo, c.min()), max(hi, c.max()), total + c.sum()
    t3 = float(total) / (len(surf.states) * len(surf.verts))
    if t3 <= 0:
        raise NoMatchError("fitted family constant is nonpositive")
    # r / r_model = cbrt(c / t3) is monotone in c, so lo and hi bound it
    return float(max(np.cbrt(hi / t3) - 1.0, 1.0 - np.cbrt(lo / t3)))
