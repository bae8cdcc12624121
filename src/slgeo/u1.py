"""Dirichlet solver for the U(1)-invariant potential equation on convex domains.

The equation solved is

    P(f) = ((df/dx)^2 + y^2 + a^2)^{-1/2} d2f/dx2 + 2 d2f/dy2 = 0

on a strictly convex domain S symmetric under (x, y) -> (x, -y), with
f = phi on the boundary.  Writing u = df/dy and v = df/dx, solutions are
equivalent to the nonlinear Cauchy-Riemann system

    du/dx = dv/dy,    dv/dx = -2 (v^2 + y^2 + a^2)^{1/2} du/dy,

and lift to U(1)-invariant special Lagrangian 3-folds of C^3 through

    z1 z2 = v + i y,   z3 = x + i u,   |z1|^2 - |z2|^2 = 2a.

The data phi + b x + c y over a parameter box lift to the disjoint SL
3-folds N_alpha of a fibration (:class:`FibrationFamily`,
:func:`check_disjoint`).

Discretization: second-order finite differences on a boundary-fitted mask
(Shortley-Weller unequal arms at cut nodes, boundary values injected along
grid lines), damped Newton from the mean of phi's row and column
interpolants with chord steps on a kept sparse LU, and, for the degenerate
a = 0 problem, continuation down powers of two from a = 1 with a secant
predictor.
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
from .fibrations import FiberRecord, InvalidRegionError
from .gridio import GridField

EPS_REG = 1e-12  # coefficient clamp guard for a = 0 evaluation only
DAMPING_MIN = 2.0 ** -20  # smallest line-search step before a stall
MAX_NEWTON = 40  # Newton steps per level before "max iterations"
KAPPA = 0.25  # every level stops at KAPPA times the round-off bound of P
ACCEPTED = ("converged", "round-off floor")  # Newton stops that keep a level


class NewtonDivergenceError(RuntimeError):
    """Damped Newton failed; carries the :class:`~slgeo.core.NewtonRecord`
    of the failed solve, whose last residual norm the message gives."""

    def __init__(self, rec):
        self.record = rec
        super().__init__("%s at residual %.3e" % (rec.stop, rec.residuals[-1]))


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
            # fraction t in (1 / (n - 1), 1] with (x + t dx, y + t dy) on the
            # boundary; C < -1e-12 inside, so the root is real, and a
            # neighbour on the boundary gives t = 1 only up to rounding
            xc, yc = x[cut], y[cut]
            A = (dx / self.rx) ** 2 + (dy / self.ry) ** 2
            B = 2.0 * (xc * dx / self.rx ** 2 + yc * dy / self.ry ** 2)
            C = (xc / self.rx) ** 2 + (yc / self.ry) ** 2 - 1.0
            t = np.minimum((-B + np.sqrt(B * B - 4.0 * A * C)) / (2.0 * A), 1.0)
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
    injected at the cut points.  Each A is built in canonical CSR, a row
    holding its minus neighbour, its node and its plus neighbour (column
    order, as nodes are numbered x-major) bar cut arms; the two operators
    of a direction share that pattern (indices and indptr).
    """
    N = dom.nodes.shape[0]
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
        keep = np.stack([inm, np.ones(N, dtype=bool), inp], axis=1)
        cols = np.stack([dom.arm_nbr[:, dm], np.arange(N), dom.arm_nbr[:, dp]], 1)
        cols, ptr = cols[keep], np.append(0, np.cumsum(keep.sum(axis=1)))
        for cp, cm, cc in (first, second):
            A = sp.csr_matrix((np.stack([cm, cc, cp], 1)[keep], cols, ptr), (N, N))
            cols, ptr = A.indices, A.indptr
            b = np.zeros(N)
            b[~inp] += cp[~inp] * fp
            b[~inm] += cm[~inm] * fm
            ops += (A, b)
    return ops


def _line_average(domain: ConvexDomain, phi: BoundaryData) -> np.ndarray:
    """Newton start: at each active node the mean of the straight-line
    interpolants of phi along its grid row and its grid column, between the
    two boundary cut points of that line (the harmonic extension for
    quadratic phi on a disc)."""
    start = np.zeros(len(domain.nodes))
    for ax in (0, 1):
        line = domain.nodes[:, 1 - ax]   # the line's index on the other axis
        ends, vals = np.zeros((2, domain.n)), np.zeros((2, domain.n))
        for e in (0, 1):   # the + and - ends
            cut = domain.arm_nbr[:, 2 * ax + e] < 0
            pts = domain.arm_cut[cut, 2 * ax + e]
            ends[e, line[cut]], vals[e, line[cut]] = pts[:, ax], phi(*pts.T)
        (zp, zm), (fp, fm) = ends[:, line], vals[:, line]
        t = ((domain.x, domain.y)[ax][domain.nodes[:, ax]] - zm) / (zp - zm)
        start += 0.5 * (fm + t * (fp - fm))
    return start


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
    # sparse LUs summed over them, the fresh steps of the trace
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
                    tol: float = 1e-10,
                    initial: np.ndarray | None = None) -> PotentialSolution:
    """Damped-Newton Dirichlet solve along a ladder of levels in a.

    For a != 0 the equation is uniformly elliptic and the ladder is the
    single level a.  For a = 0 the solution is the continuation limit
    along powers of two from a = 1: from a_k the ladder steps to a_k/4 if
    KAPPA times the round-off bound of P at (f_k, a_k/4) is at most tol,
    else to a_k/2.  It stops when successive iterates agree to tol in sup
    norm, or at the first level accepted at its round-off floor; every
    level, whatever its a, stops at tol or at that floor (see _newton).
    The first level starts from initial or from _line_average of phi, the
    second from f_0, and later ones from the secant through the last two;
    only Jacobians are factored, and each level takes at most MAX_NEWTON
    steps.  If the first level fails, NewtonDivergenceError carries its
    record; after a later failure a ContinuationStalledWarning keeps the
    last accepted level, whose record's final residual, max |P(f)|, is
    residual_P.
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
    floor = (abs(ops[2]), abs(ops[6]))
    fv = _line_average(domain, phi) if initial is None else initial
    trace, ak = [], a if a != 0.0 else 1.0
    for k in range(1 if a != 0.0 else 60):
        if k:   # quarter the level while its round-off floor stays below tol
            ak /= 4.0 if KAPPA * _round_off_bound(
                ops, floor, domain, ak / 4.0, fv) <= tol else 2.0
        start = fv if k < 2 else fv + (ak - trace[-1].level) / (
            trace[-1].level - trace[-2].level) * (fv - prev)
        fk, rec = _newton(ops, domain, ak, tol, start, floor)
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


def _jacobian(ops, yv, a, f):
    """Jacobian of P at f, (c A_xx + 2 A_yy) + w A_x with c = c(f_x, y, a)
    and w = -c^3 f_x f_xx, scaling the data of the pattern A_x and A_xx share."""
    Ax, bx, Axx, bxx, _, _, Ayy, _ = ops
    v = Ax @ f + bx
    c = _coefficient(v, yv, a)
    rows = np.repeat(np.arange(len(f)), np.diff(Ax.indptr))
    cAxx, wAx = (sp.csr_matrix((A.data * s[rows], A.indices, A.indptr), A.shape)
                 for A, s in ((Axx, c), (Ax, (Axx @ f + bxx) * (-v * c ** 3))))
    return (cAxx + 2.0 * Ayy) + wAx


def _factor(J):
    """Sparse LU of J: minimum-degree ordering on the pattern of J^T + J,
    as for a structurally symmetric matrix, with partial pivoting.  Panel
    width 4 and supernode relaxation 1, not SuperLU's 20 and 10, take the
    a = 1 LU at n = 129 from 34.2 to 25.2 ms, with solves as fast."""
    # scanned relax 1,3,5,10 x panel 4,6,8,20, n = 65-513: panel 4, relax a tie
    return spla.splu(J.tocsc(), permc_spec="MMD_AT_PLUS_A", relax=1,
                     panel_size=4, options=dict(SymmetricMode=True))


def _round_off_bound(ops, floor, domain, a, f):
    """Round-off bound of P(f) at level a, given floor = (|A_xx|, |A_yy|)."""
    Ax, bx, _, bxx, _, _, _, byy = ops
    return np.finfo(float).eps * float(np.max(
        _coefficient(Ax @ f + bx, domain.y[domain.nodes[:, 1]], a)
        * (floor[0] @ np.abs(f) + np.abs(bxx))
        + 2.0 * (floor[1] @ np.abs(f) + np.abs(byy))))


def _newton(ops, domain, a, tol, initial, floor):
    """Damped Newton for P(f) = 0 at level a; returns (last f, NewtonRecord).

    The Jacobian's LU is kept while full steps at least halve the residual
    2-norm (chord steps) and refactored after a damped or weaker step, or
    after one whose ratio, kept up, would not reach the stop level in the
    steps left of MAX_NEWTON.  A line search that fails on a kept LU is
    retried on a fresh one, so a stall is declared only on a fresh
    Jacobian.  The stop level is max(tol, KAPPA times the round-off bound
    of P at the start iterate, _round_off_bound with floor = (|A_xx|,
    |A_yy|)); a residual above tol but within it stops "round-off floor".
    """
    yv = domain.y[domain.nodes[:, 1]]
    rec = NewtonRecord(float(a))

    def line_search(fv, rnorm, step):
        lam = 1.0
        while lam >= DAMPING_MIN:
            cand = fv + lam * step
            cres = _p_residual(ops, yv, a, cand)
            if np.linalg.norm(cres) < rnorm:
                return lam, cand, cres
            lam *= 0.5
        return None

    fv = np.asarray(initial, dtype=float).copy()
    res = _p_residual(ops, yv, a, fv)
    stop_at = max(tol, KAPPA * _round_off_bound(ops, floor, domain, a, fv))
    lu = None
    for it in range(MAX_NEWTON + 1):
        rec.residuals.append(float(np.max(np.abs(res))))
        if rec.residuals[-1] <= stop_at:
            rec.stop = "converged" if rec.residuals[-1] <= tol else "round-off floor"
            break
        if it == MAX_NEWTON:
            rec.stop = "max iterations"
            break
        rnorm = np.linalg.norm(res)
        fresh = lu is None
        if fresh:
            lu = _factor(_jacobian(ops, yv, a, fv))
        found = line_search(fv, rnorm, lu.solve(-res))
        if found is None and not fresh:
            fresh, lu = True, _factor(_jacobian(ops, yv, a, fv))
            found = line_search(fv, rnorm, lu.solve(-res))
        rec.fresh.append(fresh)
        if found is None:
            rec.step_lengths.append(0.0)
            rec.residuals.append(rec.residuals[-1])
            rec.stop = "damping underflow"
            break
        lam, fv, res = found
        rec.step_lengths.append(lam)
        rho = float(np.linalg.norm(res) / rnorm)
        if (lam < 1.0 or rho > 0.5 or rho ** (MAX_NEWTON - it - 1)
                * np.max(np.abs(res)) > stop_at):
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
        trace=trace, factorizations=sum(sum(r.fresh) for r in trace))


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
    ux, uy, vx, vy = (np.gradient(w, h, axis=ax) for w in (uvals, vvals)
                      for ax, h in ((0, dom.hx), (1, dom.hy)))
    _, Y = sol.f.coords()
    root = np.sqrt(vvals ** 2 + Y ** 2 + sol.a ** 2)
    r1 = np.abs(ux - vy)
    r2 = np.abs(vx + 2.0 * root * uy)
    sel = deep & np.isfinite(r1) & np.isfinite(r2)
    if sol.a == 0.0:
        axis = np.abs(Y) < 0.5 * dom.hy
        sel &= ~(axis & (np.abs(vvals) < _vanishing_threshold(vvals)))
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
# zero counting for pairs of solutions; the fibrations N_alpha


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
        a, b, c = alpha
        base = self.base_phi
        return BoundaryData(lambda x, y: base(x, y) + b * np.asarray(x)
                            + c * np.asarray(y))

    def solution(self, alpha) -> PotentialSolution:
        key = tuple(float(v) for v in alpha)
        if not all(lo <= v <= hi for v, (lo, hi) in zip(key, self.U)):
            raise InvalidRegionError("alpha %r lies outside U = %r" % (key, self.U))
        if key not in self._cache:
            self._cache[key] = solve_dirichlet(
                self.boundary_data(key), key[0], self.domain)
        return self._cache[key]

    def fiber(self, alpha) -> FiberRecord:
        sol = self.solution(alpha)
        cloud = lift_to_sl3(sol, samples_per_node=2)
        sing = singular_points(sol)
        # a != 0 solutions have no singular points
        topo = {0: "S1xR2", 1: "T2_cone"}.get(len(sing), "other")
        finite = cloud.sl_defects[np.isfinite(cloud.sl_defects)]
        res = float(np.max(finite)) if finite.size else 0.0
        return FiberRecord(cloud.points, topo,
                           [(0.0, 0.0, z3) for _, z3 in sing], res)


def check_disjoint(fam: FibrationFamily, alpha_pairs):
    """Disjointness report for parameter pairs.

    Same-a pairs must have zero difference zeros of (u, v); different-a
    pairs are separated by the moment-map level |z1|^2 - |z2|^2 = 2a.
    """
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
            clouds = [lift_to_sl3(fam.solution(al), samples_per_node=2)
                      for al in (alpha, alpha2)]
            lvl1, lvl2 = (0.5 * c.moment_values for c in clouds)
            entry["mechanism"] = "moment-level"
            entry["level_error"] = float(max(np.max(np.abs(lvl1 - alpha[0])),
                                             np.max(np.abs(lvl2 - alpha2[0]))))
            entry["disjoint"] = bool(
                abs(alpha[0] - alpha2[0]) > 2.0 * entry["level_error"])
        report.append(entry)
    return report


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
