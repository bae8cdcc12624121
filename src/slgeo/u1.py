"""Dirichlet solver for the U(1)-invariant potential equation on convex domains.

The equation solved is

    P(f) = ((df/dx)^2 + y^2 + a^2)^{-1/2} d2f/dx2 + 2 d2f/dy2 = 0

on a strictly convex domain S symmetric under (x, y) -> (x, -y), with
f = phi on the boundary.  Writing u = df/dy and v = df/dx, solutions are
equivalent to the nonlinear Cauchy-Riemann system

    du/dx = dv/dy,    dv/dx = -2 (v^2 + y^2 + a^2)^{1/2} du/dy,

and lift to U(1)-invariant special Lagrangian 3-folds of C^3 through

    z1 z2 = v + i y,   z3 = x + i u,   |z1|^2 - |z2|^2 = 2a.

Discretization: second-order finite differences on a boundary-fitted mask
(Shortley-Weller unequal arms at cut nodes, boundary values injected along
grid lines), damped Newton with a harmonic-extension initial guess and
chord steps on a kept sparse LU, and continuation a_k = 2^{-k} for
the degenerate a = 0 problem.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .core import (NewtonRecord, broadcast_stack, moment_map_values,
                   plane_defects, real_coords)
from .gridio import GridField

EPS_REG = 1e-12  # coefficient clamp guard for a = 0 evaluation only
DAMPING_MIN = 2.0 ** -20  # smallest line-search step before a stall
KAPPA = 0.25  # a = 0 rungs stop at KAPPA times the round-off bound of P
ACCEPTED = ("converged", "round-off floor")  # Newton stops that keep a level


class NewtonDivergenceError(RuntimeError):
    """Damped Newton failed; carries the :class:`~slgeo.core.NewtonRecord`
    of the failed solve and its last residual norm."""

    def __init__(self, record):
        self.record, self.residual = record, record.residuals[-1]
        super().__init__("%s at residual %.3e" % (record.stop, self.residual))


@dataclass
class ConvexDomain:
    """A disc or axis-aligned ellipse, gridded on its bounding box.

    n is the node count per axis (forced odd so that the y = 0 symmetry
    line is a grid row).  Nodes strictly inside the domain are active;
    arms cut by the boundary carry the fractional arm length and the cut
    point for Dirichlet injection.
    """

    kind: str = "disc"
    rx: float = 1.0
    ry: float = 1.0
    n: int = 33

    def __post_init__(self):
        if self.kind not in ("disc", "ellipse"):
            raise ValueError("kind must be disc or ellipse")
        if self.kind == "disc":
            self.ry = self.rx
        if not (0 < self.rx < np.inf and 0 < self.ry < np.inf):
            raise ValueError("radii must be positive and finite")
        if self.n < 17:
            raise ValueError("grid resolution must be >= 17")
        if self.n % 2 == 0:
            self.n += 1
        self.hx = 2.0 * self.rx / (self.n - 1)
        self.hy = 2.0 * self.ry / (self.n - 1)
        self.x = -self.rx + self.hx * np.arange(self.n)
        self.y = -self.ry + self.hy * np.arange(self.n)
        X, Y = np.meshgrid(self.x, self.y, indexing="ij")
        self.inside = (X / self.rx) ** 2 + (Y / self.ry) ** 2 < 1.0 - 1e-12
        self.index = -np.ones((self.n, self.n), dtype=int)
        ii, jj = np.nonzero(self.inside)
        self.index[ii, jj] = np.arange(ii.size)
        self.nodes = np.stack([ii, jj], axis=1)
        self._build_arms()

    def _build_arms(self):
        """Per inside node and direction (+x, -x, +y, -y): the neighbour's
        unknown index or -1, the arm length, and the boundary cut point of
        cut arms (zero elsewhere)."""
        ii, jj = self.nodes.T
        index = np.pad(self.index, 1, constant_values=-1)
        x, y = self.x[ii], self.y[jj]
        N = ii.size
        self.arm_nbr = np.empty((N, 4), dtype=int)
        self.arm_len = np.empty((N, 4))
        self.arm_cut = np.zeros((N, 4, 2))
        for d, (di, dj) in enumerate(((1, 0), (-1, 0), (0, 1), (0, -1))):
            nbr = index[ii + 1 + di, jj + 1 + dj]
            cut = nbr < 0
            dx, dy = di * self.hx, dj * self.hy
            h = abs(dx) + abs(dy)
            # fraction t in (0, 1] with (x + t dx, y + t dy) on the boundary
            xc, yc = x[cut], y[cut]
            A = (dx / self.rx) ** 2 + (dy / self.ry) ** 2
            B = 2.0 * (xc * dx / self.rx ** 2 + yc * dy / self.ry ** 2)
            C = (xc / self.rx) ** 2 + (yc / self.ry) ** 2 - 1.0
            t = (-B + np.sqrt(np.maximum(B * B - 4.0 * A * C, 0.0))) / (2.0 * A)
            t = np.minimum(np.maximum(t, 1e-6), 1.0)
            self.arm_nbr[:, d] = nbr
            self.arm_len[:, d] = h
            self.arm_len[cut, d] = t * h
            self.arm_cut[cut, d, 0] = xc + t * dx
            self.arm_cut[cut, d, 1] = yc + t * dy


@dataclass
class BoundaryData:
    """Dirichlet data phi on the domain boundary, sampled from a callable.

    func is called with two float arrays of boundary-point coordinates
    (x, y) and returns the data at those points.
    """

    func: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def __call__(self, x, y):
        vals = np.asarray(self.func(np.asarray(x, dtype=float),
                                    np.asarray(y, dtype=float)), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ValueError("boundary data must be finite")
        return vals


def _direction_ops(dom: ConvexDomain, phi: BoundaryData):
    """Sparse first/second difference operators on the unknown vector.

    Returns (Ax, bx, Axx, bxx, Ay, by, Ayy, byy) with A @ f + b the
    derivative values at the active nodes; b carries the boundary values
    injected at the cut points.
    """
    N = dom.nodes.shape[0]
    rows = np.arange(N)
    ops = ()
    for dp, dm in ((0, 1), (2, 3)):
        hp, hm = dom.arm_len[:, dp], dom.arm_len[:, dm]
        inp, inm = dom.arm_nbr[:, dp] >= 0, dom.arm_nbr[:, dm] >= 0
        fp = phi(*dom.arm_cut[~inp, dp].T)
        fm = phi(*dom.arm_cut[~inm, dm].T)
        # (plus, minus, centre) weights of the first derivative, second
        # order on unequal arms, and of the Shortley-Weller second derivative
        first = (hm / (hp * (hp + hm)), -hp / (hm * (hp + hm)),
                 (hp - hm) / (hp * hm))
        second = (2.0 / (hp * (hp + hm)), 2.0 / (hm * (hp + hm)),
                  -2.0 / (hp * hm))
        for cp, cm, cc in (first, second):
            A = sp.csr_matrix(
                (np.concatenate([cc, cp[inp], cm[inm]]),
                 (np.concatenate([rows, rows[inp], rows[inm]]),
                  np.concatenate([rows, dom.arm_nbr[inp, dp],
                                  dom.arm_nbr[inm, dm]]))), shape=(N, N))
            b = np.zeros(N)
            b[~inp] += cp[~inp] * fp
            b[~inm] += cm[~inm] * fm
            ops += (A, b)
    return ops


@dataclass
class PotentialSolution:
    """A solved potential f with its derived pair (u, v) = (f_y, f_x)."""

    domain: ConvexDomain
    a: float
    f: GridField
    u: GridField
    v: GridField
    residual_P: float
    newton_iters: int
    fvec: np.ndarray = field(repr=False, default=None)
    # for a = 0 solves: the level where the ladder ended, at tol or at its
    # round-off floor; residual_P is evaluated against the equation there
    continuation_a: float = None
    # one NewtonRecord per Newton solve (continuation level), and the
    # sparse factorisations summed over them
    trace: list = field(default_factory=list)
    factorizations: int = 0


def _coefficient(v, y, a):
    return 1.0 / np.sqrt(np.maximum(v * v + y * y + a * a, EPS_REG ** 2))


def _p_residual(ops, yv, a, f):
    """P(f) = c(f_x, y, a) f_xx + 2 f_yy at the active nodes, from the
    operators of :func:`_direction_ops`."""
    Ax, bx, Axx, bxx, _, _, Ayy, byy = ops
    return (_coefficient(Ax @ f + bx, yv, a) * (Axx @ f + bxx)
            + 2.0 * (Ayy @ f + byy))


def p_operator(f: GridField, a: float, domain: ConvexDomain,
               phi: BoundaryData) -> GridField:
    """Evaluate P(f) at the active nodes of a field on the domain's grid,
    with the boundary arms taking their values from phi."""
    return _to_field(domain, _p_residual(
        _direction_ops(domain, phi), domain.y[domain.nodes[:, 1]], a,
        f.values[domain.inside]))


def _to_field(domain: ConvexDomain, vec) -> GridField:
    """Active-node values as a masked grid field, NaN elsewhere."""
    arr = np.full((domain.n, domain.n), np.nan)
    arr[domain.inside] = vec
    return GridField(arr, -domain.rx, -domain.ry, domain.hx, domain.hy,
                     mask=domain.inside.copy())


def solve_dirichlet(phi: BoundaryData, a: float, domain: ConvexDomain,
                    tol: float = 1e-10, max_newton: int = 40,
                    initial: np.ndarray | None = None) -> PotentialSolution:
    """Damped-Newton Dirichlet solve along a ladder of levels in a.

    For a != 0 the equation is uniformly elliptic and the ladder is the
    single level a.  For a = 0 the solution is the continuation limit
    along a_k = 2^{-k}, stopped when successive iterates agree to tol in
    sup norm, or at the first level accepted at its round-off floor (see
    _newton), a bound on rounding in P that grows like 1/a.  The first
    level starts from initial, or from the harmonic extension of phi; each
    later level starts from the one before.  If the first level fails,
    NewtonDivergenceError carries its record; after a later failure a
    ContinuationStalledWarning keeps the last accepted level, whose
    record's final residual, max |P(f)|, is residual_P.
    """
    if not 0 < tol < np.inf:
        raise ValueError("tol must be positive and finite, got %r" % (tol,))
    if not abs(a) <= np.sqrt(np.finfo(float).max):
        raise ValueError("a must be finite with a finite square, got %r" % (a,))
    if initial is not None and not (np.shape(initial) == (len(domain.nodes),)
                                    and np.all(np.isfinite(initial))):
        raise ValueError("initial must hold one finite value per active node "
                         "(%d)" % len(domain.nodes))
    ops = _direction_ops(domain, phi)
    floor = None if a != 0.0 else (abs(ops[2]), abs(ops[6]))
    fv, trace = initial, []
    for ak in [a] if a != 0.0 else [2.0 ** -k for k in range(60)]:
        fk, rec = _newton(ops, domain, ak, tol, max_newton, fv, floor)
        trace.append(rec)
        if rec.stop not in ACCEPTED:
            if len(trace) == 1:   # no level converged
                raise NewtonDivergenceError(rec)
            warnings.warn("continuation stalled at a = %g (residual %.2e); "
                          "returning the last converged level"
                          % (ak, rec.residuals[-1]),
                          ContinuationStalledWarning, stacklevel=2)
            break
        prev, fv = fv, fk   # _newton returns a new array each level
        if rec.stop != "converged" or (len(trace) > 1
                                       and np.max(np.abs(fv - prev)) < tol):
            break
    return _package(a, domain, ops, fv, trace)


class ContinuationStalledWarning(UserWarning):
    """Continuation toward a = 0 stopped before the iterate tolerance."""


def _factor(J):
    """Sparse LU of J: minimum-degree ordering on the pattern of J^T + J,
    as for a structurally symmetric matrix, with partial pivoting."""
    return spla.splu(J.tocsc(), permc_spec="MMD_AT_PLUS_A",
                     options=dict(SymmetricMode=True))


def _newton(ops, domain, a, tol, max_newton, initial=None, floor=None):
    """Damped Newton for P(f) = 0 at level a; returns (last f, NewtonRecord).

    The Jacobian's LU is kept while full steps at least halve the residual
    2-norm (chord steps) and refactored after a damped or weaker step.  A
    line search that fails on a kept LU is retried on a fresh one, so a
    stall is declared only on a fresh Jacobian.  Given floor = (|A_xx|,
    |A_yy|), a residual above tol but within KAPPA times the round-off
    bound eps max[c (|A_xx| |f| + |b_xx|) + 2 (|A_yy| |f| + |b_yy|)] of P
    at the start iterate stops "round-off floor".
    """
    Ax, bx, Axx, bxx, _, _, Ayy, byy = ops
    yv = domain.y[domain.nodes[:, 1]]
    rec = NewtonRecord(float(a))

    def factor(M):
        rec.factorizations += 1
        return _factor(M)

    def jacobian(fv):
        v = Ax @ fv + bx
        c = _coefficient(v, yv, a)
        return factor(sp.diags(c) @ Axx + 2.0 * Ayy
                      + sp.diags((Axx @ fv + bxx) * (-v * c ** 3)) @ Ax)

    def line_search(fv, rnorm, step):
        lam = 1.0
        while lam >= DAMPING_MIN:
            cand = fv + lam * step
            cres = _p_residual(ops, yv, a, cand)
            if np.linalg.norm(cres) < rnorm:
                return lam, cand, cres
            lam *= 0.5
        return None

    if initial is None:   # harmonic extension of phi
        fv = factor(Axx + Ayy).solve(-(bxx + byy))
    else:
        fv = np.asarray(initial, dtype=float).copy()
    res = _p_residual(ops, yv, a, fv)
    stop_at = tol
    if floor is not None:
        af = np.abs(fv)
        bound = (_coefficient(Ax @ fv + bx, yv, a) * (floor[0] @ af + np.abs(bxx))
                 + 2.0 * (floor[1] @ af + np.abs(byy)))
        stop_at = max(tol, KAPPA * np.finfo(float).eps * float(np.max(bound)))
    lu = None
    for it in range(max_newton + 1):
        rec.residuals.append(float(np.max(np.abs(res))))
        if rec.residuals[-1] <= stop_at:
            rec.stop = "converged" if rec.residuals[-1] <= tol else "round-off floor"
            break
        if it == max_newton:
            rec.stop = "max iterations"
            break
        rnorm = np.linalg.norm(res)
        fresh = lu is None
        if fresh:
            lu = jacobian(fv)
        found = line_search(fv, rnorm, lu.solve(-res))
        if found is None and not fresh:
            fresh, lu = True, jacobian(fv)
            found = line_search(fv, rnorm, lu.solve(-res))
        rec.fresh.append(fresh)
        if found is None:
            rec.step_lengths.append(0.0)
            rec.residuals.append(rec.residuals[-1])
            rec.stop = "damping underflow"
            break
        lam, fv, res = found
        rec.step_lengths.append(lam)
        if lam < 1.0 or np.linalg.norm(res) > 0.5 * rnorm:
            lu = None
    return fv, rec


def _package(a, domain, ops, fv, trace):
    """The solution at fv, the iterate of the last accepted Newton solve,
    whose record gives residual_P."""
    Ax, bx, _, _, Ay, by, _, _ = ops
    v = Ax @ fv + bx
    u = Ay @ fv + by
    done = [r for r in trace if r.stop in ACCEPTED]
    return PotentialSolution(
        domain=domain, a=a, f=_to_field(domain, fv), u=_to_field(domain, u),
        v=_to_field(domain, v), residual_P=done[-1].residuals[-1],
        newton_iters=sum(len(r.step_lengths) for r in done),
        fvec=fv, continuation_a=done[-1].level if a == 0.0 else None,
        trace=trace, factorizations=sum(r.factorizations for r in trace))


# ---------------------------------------------------------------------------
# verification of the nonlinear Cauchy-Riemann system


def _deep_interior(domain: ConvexDomain, margin: int = 1) -> np.ndarray:
    """Nodes whose (2*margin+1)-stencil lies entirely inside the domain."""
    ok = domain.inside.copy()
    for _ in range(margin):
        grown = ok.copy()
        grown[1:, :] &= ok[:-1, :]
        grown[:-1, :] &= ok[1:, :]
        grown[:, 1:] &= ok[:, :-1]
        grown[:, :-1] &= ok[:, 1:]
        ok = grown
    return ok


def _central(field: np.ndarray, axis: int, h: float) -> np.ndarray:
    out = np.full_like(field, np.nan)
    if axis == 0:
        out[1:-1, :] = (field[2:, :] - field[:-2, :]) / (2.0 * h)
    else:
        out[:, 1:-1] = (field[:, 2:] - field[:, :-2]) / (2.0 * h)
    return out


def _vanishing_threshold(v: np.ndarray) -> float:
    """|v| below which v counts as zero: 1e-3 max |v|, at least 10 eps."""
    vmax = np.nanmax(np.abs(v))
    return max(10 * np.finfo(float).eps, 1e-3 * (vmax if np.isfinite(vmax) else 0.0))


def cr_residual(sol: PotentialSolution) -> float:
    """Max deep-interior residual of the nonlinear Cauchy-Riemann system.

    For a = 0 the nodes (x, 0) where v vanishes to grid tolerance are
    excluded (u, v need not be differentiable there).  The statistic uses
    a two-node interior margin: the first ring inside the cut boundary
    carries the boundary scheme's lower-order truncation, which would
    mask the second-order interior behavior.
    """
    dom = sol.domain
    deep = _deep_interior(dom, 2)
    uvals, vvals = sol.u.values, sol.v.values
    ux = _central(uvals, 0, dom.hx)
    uy = _central(uvals, 1, dom.hy)
    vx = _central(vvals, 0, dom.hx)
    vy = _central(vvals, 1, dom.hy)
    _, Y = sol.f.coords()
    root = np.sqrt(vvals ** 2 + Y ** 2 + sol.a ** 2)
    r1 = np.abs(ux - vy)
    r2 = np.abs(vx + 2.0 * root * uy)
    sel = deep & np.isfinite(r1) & np.isfinite(r2)
    if sol.a == 0.0:
        axis = np.abs(Y) < 0.5 * dom.hy
        sel &= ~(axis & (np.abs(vvals) < _vanishing_threshold(vvals)))
    if not np.any(sel):
        return 0.0
    return float(max(np.max(r1[sel]), np.max(r2[sel])))


def singular_points(sol: PotentialSolution):
    """Singular points (0, 0, x + i u(x, 0)) of the lifted 3-fold for a = 0."""
    if sol.a != 0.0:
        return []
    dom = sol.domain
    j0 = dom.n // 2     # the y = 0 row, as n is odd
    vrow = sol.v.values[:, j0]
    urow = sol.u.values[:, j0]
    ok = dom.inside[:, j0] & np.isfinite(vrow)
    small = ok & (np.abs(vrow) < _vanishing_threshold(sol.v.values))
    # runs [lo, hi) of consecutive below-threshold nodes: a run with active
    # nodes on both sides is one transversal zero (keep its best node),
    # otherwise it is a genuine segment of zeros
    edges = np.diff(np.concatenate([[0], small.astype(int), [0]]))
    picks = []
    for lo, hi in zip(np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)):
        if lo > 0 and hi < dom.n and ok[lo - 1] and ok[hi]:
            picks.append(lo + int(np.argmin(np.abs(vrow[lo:hi]))))
        else:
            picks.extend(range(lo, hi))
    # transversal crossings that jump the threshold between two nodes
    big = ok & ~small
    i0 = np.flatnonzero(big[:-1] & big[1:] & (vrow[:-1] * vrow[1:] < 0.0))
    picks.extend(np.where(np.abs(vrow[i0]) <= np.abs(vrow[i0 + 1]), i0, i0 + 1))
    return [(float(dom.x[i]), complex(dom.x[i], urow[i])) for i in sorted(picks)]


# ---------------------------------------------------------------------------
# zero counting for pairs of solutions


def winding_number(vectors: np.ndarray):
    """Winding of a closed polyline of 2D vectors around the origin; a
    (..., k, 2) stack of polylines gives an integer array."""
    ang = np.arctan2(vectors[..., 1], vectors[..., 0])
    d = (np.roll(ang, -1, axis=-1) - ang + np.pi) % (2.0 * np.pi) - np.pi
    w = np.round(np.sum(d, axis=-1) / (2.0 * np.pi)).astype(int)
    return w if w.ndim else int(w)


@dataclass
class DifferenceZeroReport:
    zeros: list        # [((x, y), winding)]
    total: int         # count with multiplicity
    identical: bool = False


def difference_zeros(s1: PotentialSolution,
                     s2: PotentialSolution) -> DifferenceZeroReport:
    """Isolated zeros of (u1 - u2, v1 - v2) in the open domain, with winding
    number as the multiplicity surrogate; identical when the difference
    vanishes at every deep-interior node."""
    dom, other = s1.domain, s2.domain
    if (dom.n, dom.rx, dom.ry) != (other.n, other.rx, other.ry):
        raise ValueError("solutions live on different grids")
    du = s1.u.values - s2.u.values
    dv = s1.v.values - s2.v.values
    deep = _deep_interior(dom, 1)
    sel = deep & np.isfinite(du) & np.isfinite(dv)
    if np.nanmax(np.abs(du[sel])) <= 0.0 and np.nanmax(np.abs(dv[sel])) <= 0.0:
        return DifferenceZeroReport([], 0, identical=True)
    # one (n-1, n-1, 4, 2) stack of cell corners (i,j), (i+1,j), (i+1,j+1),
    # (i,j+1); unselected nodes are filled with a harmless (1, 0)
    vec = np.stack([np.where(sel, du, 1.0), np.where(sel, dv, 0.0)], axis=-1)
    corners = [np.s_[:-1, :-1], np.s_[1:, :-1], np.s_[1:, 1:], np.s_[:-1, 1:]]
    vecs = np.stack([vec[c] for c in corners], axis=2)
    cells = np.all([sel[c] for c in corners], axis=0)
    w = winding_number(vecs)
    # zero exactly on a corner: count it once
    w[np.min(np.hypot(vecs[..., 0], vecs[..., 1]), axis=-1) == 0.0] = 1
    zeros = [((float(dom.x[i] + 0.5 * dom.hx), float(dom.y[j] + 0.5 * dom.hy)),
              int(w[i, j])) for i, j in zip(*np.nonzero(cells & (w != 0)))]
    return DifferenceZeroReport(zeros, int(sum(abs(w) for _, w in zeros)))


# ---------------------------------------------------------------------------
# lifting to special Lagrangian 3-folds in C^3


def _central4(field: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Fourth-order central first derivative; NaN within two nodes of the
    array edge."""
    out = np.full_like(field, np.nan)
    if axis == 0:
        out[2:-2, :] = (-field[4:, :] + 8 * field[3:-1, :]
                        - 8 * field[1:-3, :] + field[:-4, :]) / (12.0 * h)
    else:
        out[:, 2:-2] = (-field[:, 4:] + 8 * field[:, 3:-1]
                        - 8 * field[:, 1:-3] + field[:, :-4]) / (12.0 * h)
    return out


@dataclass
class LiftedCloud:
    """Sampled points of a lifted SL 3-fold; no tangent planes are kept."""

    points: np.ndarray          # (N, 3) complex
    sl_defects: np.ndarray      # (N,), NaN where excluded
    moment_values: np.ndarray   # core.moment_map_values((1, -1, 0)) per point
    n_excluded: int = 0


def lift_to_sl3(sol: PotentialSolution, samples_per_node: int = 4) -> LiftedCloud:
    """Sample the lifted SL 3-fold and the SL defects of its tangent planes.

    All derivative fields are fourth-order central differences of the
    potential f on the uniform grid.  Because the stencils commute, the
    discrete identity du/dx = dv/dy holds exactly and the omega pullback
    of the lifted tangent planes vanishes to round-off; the Im Omega
    defect carries only the solver's truncation error.  The lift
    z1 z2 = v + i y, z3 = x + i u, z1 = R e^{i theta} with
    R = sqrt(a + |w|_a), |w|_a = sqrt(a^2 + |v + i y|^2), is evaluated over
    all valid nodes and angles at once, node-major.  A node's samples are one
    orbit of diag(e^{i theta}, e^{-i theta}, 1), which lies in SU(3) and so
    carries the tangent plane at theta = 0, spanned by d/dx, d/dy and
    d/dtheta, onto the one at theta with the same defect: one plane per node
    goes to :func:`core.plane_defects`, and none is stored.  Nodes where R
    vanishes are skipped.  Near the singular set of an a = 0 solution
    (v = y = 0) points are kept with a NaN defect.  n_excluded counts the
    samples of both.
    """
    if samples_per_node < 1:
        raise ValueError("samples_per_node must be at least 1")
    dom = sol.domain
    a = sol.a
    F = sol.f.values
    u = _central4(F, 1, dom.hy)
    v = _central4(F, 0, dom.hx)
    ux = _central4(u, 0, dom.hx)
    uy = _central4(u, 1, dom.hy)
    vx = _central4(v, 0, dom.hx)
    vy = _central4(v, 1, dom.hy)
    X, Y = sol.f.coords()
    sel = _deep_interior(dom, 4) & np.isfinite(ux) & np.isfinite(vx)
    s = a + np.sqrt(a * a + np.abs(v[sel] + 1j * Y[sel]) ** 2)
    excluded = int(np.count_nonzero(s < 1e-14))
    sel[sel] = s >= 1e-14
    # per node, as columns that broadcast against the angles
    x, y, u, ux, uy, v, vx, vy = [f[sel][:, None]
                                  for f in (X, Y, u, ux, uy, v, vx, vy)]
    w = v + 1j * y
    q = np.sqrt(a * a + np.abs(w) ** 2)
    R = np.sqrt(a + q)
    Rx = (v * vx) / q / (2.0 * R)
    Ry = (v * vy + y) / q / (2.0 * R)

    thetas = 2.0 * np.pi * np.arange(samples_per_node) / samples_per_node
    z1 = R * np.exp(1j * thetas)
    z2 = w / z1
    # rows: the tangent vectors d/dx, d/dy, d/dtheta in C^3 at theta = 0
    tangents = broadcast_stack(
        [broadcast_stack([Rx, (vx * R - w * Rx) / R ** 2, 1.0 + 1j * ux]),
         broadcast_stack([Ry, ((vy + 1j) * R - w * Ry) / R ** 2, 1j * uy]),
         broadcast_stack([1j * R, -1j * z2[:, :1], 0.0])], axis=-2)
    near_singular = (a == 0.0) & (np.abs(w[:, 0]) < 1e-8)
    defects = np.full(len(R), np.nan)
    defects[~near_singular] = plane_defects(
        real_coords(tangents[~near_singular]).reshape(-1, 3, 6))[0]
    excluded += int(np.count_nonzero(near_singular))
    points = broadcast_stack([z1, z2, x + 1j * u]).reshape(-1, 3)
    return LiftedCloud(points, np.repeat(defects, samples_per_node),
                       moment_map_values((1, -1, 0), points),
                       excluded * samples_per_node)
