"""Monge-Ampere solver for the Calabi problem on flat tori T^{2m}, m = 1, 2.

Solves (omega + i ddbar phi)^m = e^f omega^m by the continuity method:
f_t = t f + c_t with e^{c_t} int e^{t f} = int 1, each step solved by a
damped Newton iteration preconditioned with the flat-metric Laplacian
(inverted by FFT with the second-order difference symbol, so the
preconditioner is the exact Jacobian at phi = 0; for m = 2 it is only
good to O(|H|), so the step is taken in float32), each level after the
first starting from a secant prediction.  A level short of t = 1 only
seeds the next prediction, so it stops halfway to tol on a log scale
from its start residual; t = 1 is solved to tol.  Each Newton solve
records a core.NewtonRecord, as the U(1) solver's do, with the level t in
place of a; a step whose record does not stop "converged" is halved.

The nodewise volume ratio is det(I + H) with H_{jk} = 2 phi_{z_j zbar_k};
for m = 1 this is 1 + Laplacian(phi)/2 and the equation is linear.  One
stencil computes H for the operator, the Ricci form and the Newton loop:
it cuts axis 0 into slabs of a few planes, wraps each slab's halo into
per-thread scratch and takes every difference from slices, forming
|H12|^2 as re^2 + im^2 in place, so each slab's arrays stay in cache.  The
slabs run on the process's CPUs, one thread each, as the FFT does; they
write disjoint rows and their minima are taken after the join, so results
do not depend on the thread count.  Ricci forms of volume ratios are
computed as -i ddbar log f, and the radial Ricci-flat profile on C^2
integrates f'(f' + u f'') = 1.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.fft as _fft

from .core import NewtonRecord


class NonKahlerIterateError(RuntimeError):
    """An iterate lost positivity of omega + i ddbar phi."""


class PathFailureError(RuntimeError):
    """Continuity path could not be completed; path is the partial
    :class:`ContinuityPath` (phi and residual unset) up to its last level,
    path.steps[-1] (0.0 if no step was accepted), which the message gives."""

    def __init__(self, msg, path):
        super().__init__(msg)
        self.path = path


class InvalidVolumeError(ValueError):
    """Volume ratio must be positive everywhere."""


@dataclass
class TorusField:
    """Periodic real samples on the torus (R / 2 pi Z)^{2m}.

    Axes are ordered (x1, y1) for m = 1 and (x1, y1, x2, y2) for m = 2,
    each with n nodes of spacing 2 pi / n.
    """

    m: int
    values: np.ndarray

    def __post_init__(self):
        if self.m not in (1, 2):
            raise ValueError("m must be 1 or 2")
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 * self.m:
            raise ValueError("field must have 2m axes")
        n = self.values.shape[0]
        if any(s != n for s in self.values.shape):
            raise ValueError("all axes must have equal length")
        if n == 0:
            raise ValueError("grid must have at least one node per axis")
        # two reductions, no full-grid temporary; a NaN propagates to both
        if not np.all(np.isfinite((np.min(self.values), np.max(self.values)))):
            raise ValueError("field values must be finite")
        self.n = n
        self.h = 2.0 * np.pi / n

    def mean(self) -> float:
        return float(np.mean(self.values))

    @classmethod
    def from_function(cls, m: int, n: int, func) -> "TorusField":
        """Samples of func(x1, y1[, x2, y2]), called elementwise on
        broadcasting axis arrays rather than 2m full-size grids."""
        x = 2.0 * np.pi * np.arange(n) / n
        axes = np.meshgrid(*([x] * 2 * m), indexing="ij", sparse=True)
        return cls(m, np.broadcast_to(func(*axes), (n,) * 2 * m).copy())


# nodes per slab of the Hessian stencil, so that a slab's scratch stays in
# a core's cache (n = 32, m = 2: two planes of 32^3 nodes, 0.5 MB per array)
SLAB_NODES = 2 ** 16
MAX_NEWTON = 200  # Newton steps per continuity level before "max iterations"


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity mask on this platform
        return os.cpu_count() or 1


def _hessian_slab(S: np.ndarray, h: float, scratch):
    """Complex Hessian H_{jk} = 2 v_{z_j zbar_k} on the inner planes of S, a
    slab of samples v wrapped with one halo node on each side of every axis.

    Takes every difference from slices of S, in real arithmetic, and writes
    into the leading planes of the scratch arrays: H11, and for m = 2 H22,
    re, im and the first differences along axes 0 and 1.  Returns (H11,
    H22, re, im), views on the slab's nodes with H12 = re + i im; H22, re
    and im are None for m = 1.
    """
    k, n, dims = S.shape[0] - 2, S.shape[1] - 2, S.ndim
    c = slice(1, n + 1)

    def at(ax, d):
        """v shifted by d along axis ax, on the slab's nodes."""
        idx = [slice(1, k + 1)] + [c] * (dims - 1)
        idx[ax] = slice(idx[ax].start + d, idx[ax].stop + d)
        return S[tuple(idx)]

    def half_laplacian(axes, out):
        """(sum of the four neighbours in the plane of axes - 4 v) / 2h^2"""
        np.multiply(at(0, 0), -4.0, out=out)
        for ax in axes:
            out += at(ax, 1)
            out += at(ax, -1)
        out *= 0.5 / h ** 2
        return out

    H11 = half_laplacian((0, 1), scratch[0][:k])
    if dims == 2:
        return H11, None, None, None
    H22, re, im, d0, d1 = (a[:k] for a in scratch[1:])
    half_laplacian((2, 3), H22)
    # first differences along axes 0 and 1, on the halo of axes 2 and 3
    # too, shared by the four mixed derivatives
    np.subtract(S[2:, c], S[:-2, c], out=d0)
    np.subtract(S[1:-1, 2:], S[1:-1, :-2], out=d1)
    s = 0.5 / (4.0 * h * h)
    np.subtract(d0[:, :, 2:, c], d0[:, :, :-2, c], out=re)
    re += d1[:, :, c, 2:]
    re -= d1[:, :, c, :-2]
    re *= s
    np.subtract(d0[:, :, c, 2:], d0[:, :, c, :-2], out=im)
    im -= d1[:, :, 2:, c]
    im += d1[:, :, :-2, c]
    im *= s
    return H11, H22, re, im


def _map_slabs(v: np.ndarray, h: float, func, log: bool = False):
    """func(rows, H11, H22, re, im) on each slab of SLAB_NODES // v[0].size
    axis-0 planes of the complex Hessian of periodic samples v, or of log v
    if log is set (see :func:`_hessian_slab`); returns the values func
    returned.

    The slabs are dealt in turn to one thread per CPU, no more threads than
    slabs, each with its own scratch, allocated here, into which it wraps
    each slab and its halo from v: no padded copy of the grid exists.  func
    must write only the rows it is given, so the results do not depend on
    the thread count.  The threads end before this returns.
    """
    n = v.shape[0]
    planes = min(n, max(1, SLAB_NODES // v[0].size))
    starts = range(0, n, planes)
    workers = min(len(starts), _cpus())
    slab = (planes,) + v.shape[1:]
    wide = tuple(s + 2 for s in slab)       # the slab and its halo
    layout = [wide, slab] if v.ndim == 2 else (
        [wide] + [slab] * 4 + [slab[:2] + wide[2:]] * 2)
    scratch = [[np.empty(s) for s in layout] for _ in range(workers)]
    inner = (slice(1, -1),) * (v.ndim - 1)

    def walk(first):
        wrapped, *rest = scratch[first]
        out = []
        for lo in starts[first::workers]:
            k = min(planes, n - lo)
            S = wrapped[:k + 2]
            for i in range(k + 2):
                S[(i,) + inner] = v[(lo - 1 + i) % n]
            for ax in range(1, v.ndim):     # then the faces, corners too
                T = S.swapaxes(0, ax)
                T[0], T[-1] = T[-2], T[1]
            if log:
                np.log(S, out=S)
            out.append(func(slice(lo, lo + k), *_hessian_slab(S, h, rest)))
        return out

    with ThreadPoolExecutor(workers) as pool:
        return np.array([r for rs in pool.map(walk, range(workers))
                         for r in rs])


def _volume_ratio(v: np.ndarray, h: float, ratio: np.ndarray) -> bool:
    """Writes det(I + H) of the samples v into ratio, every node of it;
    returns whether the iterate is Kahler: False if the least 1 + H11 or
    det(I + H) is <= 0 (a NaN node alone does not make it False)."""
    def slab(rows, H11, H22, re, im):
        """writes the slab's det(I + H); returns its least 1 + H11 or
        det(I + H)"""
        out = ratio[rows]
        if H22 is None:
            return np.min(np.add(H11, 1.0, out=out))
        # (1 + H11)(1 + H22) - |H12|^2
        H11 += 1.0
        H22 += 1.0
        np.multiply(H11, H22, out=out)
        np.square(re, out=re)
        re += np.square(im, out=im)
        out -= re
        return min(np.min(H11), np.min(out))

    return not np.min(_map_slabs(v, h, slab)) <= 0.0


def ma_operator(phi: TorusField) -> TorusField:
    """Nodewise ratio (omega + i ddbar phi)^m / omega^m = det(I + H)."""
    ratio = np.empty_like(phi.values)
    if not _volume_ratio(phi.values, phi.h, ratio):
        raise NonKahlerIterateError(
            "1 + H11 has nonpositive nodes" if phi.m == 1
            else "omega + i ddbar phi lost positivity")
    return TorusField(phi.m, ratio)


def normalize_source(f: TorusField) -> TorusField:
    """Shift f by the constant making the discrete mean of e^f equal 1,
    c = -(M + log mean e^{f - M}) with M = max f, so no e^f overflows."""
    top = np.max(f.values)
    shifted = np.subtract(f.values, top)
    c = -(top + np.log(np.mean(np.exp(shifted, out=shifted))))
    return TorusField(f.m, f.values + c)


def _poisson_solve(rhs: np.ndarray, h: float) -> np.ndarray:
    """Zero-mean solution of the 2nd-order-difference Laplace equation
    Delta s = rhs on the periodic grid, via FFT with the FD symbol, formed
    one axis-0 plane of the half-spectrum at a time, in the precision of
    rhs (a float32 rhs gives a complex64 spectrum and a float32 s)."""
    n, dims = rhs.shape[0], rhs.ndim
    sym1 = ((2.0 * np.cos(2.0 * np.pi * np.arange(n) / n) - 2.0)
            / h ** 2).astype(rhs.dtype, copy=False)
    rest = np.ix_(*[sym1] * (dims - 2), sym1[:n // 2 + 1])
    rhat = _fft.rfftn(rhs, workers=_cpus())
    for i, plane in enumerate(rhat):
        symbol = sum(rest, sym1[i])
        if i == 0:
            symbol.flat[0] = np.inf     # the constant mode, mapped to 0
        plane *= np.divide(1.0, symbol, out=symbol)
    return _fft.irfftn(rhat, s=rhs.shape, workers=_cpus(), overwrite_x=True)


@dataclass
class ContinuityPath:
    """A continuity-method solve and what it did.

    ``trace`` holds one :class:`~slgeo.core.NewtonRecord` per Newton solve,
    accepted or failed, at the level t it aimed at.  Per accepted step: the
    level t (``steps``), the discrete constant c_t and the iteration count;
    for t < 1, c_t is that of an iterate accepted at its level's goal
    max(tol, sqrt(tol r0)), r0 the level's start residual, not at tol.
    Each failed step is one ``halvings`` entry (t, dt, reason): the step of
    length dt from level t stopped for the reason its record gives.
    """

    steps: list = field(default_factory=list)       # t values
    c_values: list = field(default_factory=list)
    newton_iters: list = field(default_factory=list)
    trace: list = field(default_factory=list)
    halvings: list = field(default_factory=list)
    phi: TorusField = None
    residual: float = np.nan


def solve_calabi(f: TorusField, tol: float = 1e-10,
                 t_steps: int = 10) -> ContinuityPath:
    """Continuity-method solve of det(I + H(phi)) = e^{f_t} up to t = 1.

    Each step runs damped quasi-Newton with the flat-Laplacian
    preconditioner (exact Jacobian for m = 1, so that case is a single
    linear solve per step; for m = 2 it is the Jacobian only to O(|H|), so
    the Poisson solve runs in float32 at no cost in iterations).  A step
    whose Newton solve fails is halved: its record stops "damping
    underflow" (no step down to 2^-12 lowered the residual), "max
    iterations" (MAX_NEWTON steps) or "non-finite residual" (a NaN node,
    as when e^{t f} overflows).  The first step is 1 / t_steps long; after
    an accepted step of length L the next is dt = min(L, 1 - t) long and
    starts from the secant predictor phi_k + (dt / L)(phi_k - phi_{k-1}),
    or from phi_k if that is not Kahler; a halved retry starts from phi_k.
    Only the level t = 1 is solved to tol.  A level short of it seeds the
    next prediction and converges at max(tol, sqrt(tol r0)), halfway to
    tol on a log scale from its start residual r0, or at tol if r0 is not
    finite; that goal shrinks with the step, so short steps near t = 1
    hand the last level little slack.
    A step that would end within 1e-14 of t = 1 ends at t = 1 exactly, so
    the path's residual is the final record's last residual, the max norm
    of det(I + H) - e^{f + c} at the returned phi.

    The additive constant c_t is determined discretely from the
    solvability condition mean(det(I + H)) = mean(e^{t f + c_t}): for
    m = 1 the grid mean of det(I + H) is identically 1 and c_t equals
    the analytic value -log mean(e^{t f}), while for m = 2 the quadratic
    terms of the determinant leave an O(h^2) grid-mean defect, so c_t is
    updated from the current iterate.  The reported c_values and
    residual use the discrete constant.

    The solve works in one block of four grid-size arrays: the accepted
    iterate, the Newton iterate (or the one accepted before, which the
    predictor overwrites), its line-search candidate and det(I + H) of the
    last iterate evaluated.  The residual is never stored: the pass that
    tests a candidate writes -2 times it into the FFT's input, float32 for
    m = 2.  A start from phi_k recomputes its det(I + H), except at t = 0,
    where phi is zero and det(I + H) is 1 at every node.  The Newton step
    the FFT returns is kept until the next one is returned, across
    continuity steps too: freeing it sooner let the heap give the FFT's
    memory back to the system and fault it in again every iteration.
    """
    if not 0 < tol < np.inf:
        raise ValueError("tol must be positive and finite, got %r" % (tol,))
    if t_steps < 1:
        raise ValueError("t_steps must be at least 1")
    path = ContinuityPath()
    phi, trial, cand, det = np.zeros((4,) + f.values.shape)
    rhs = np.empty(f.values.shape, np.float32 if f.m == 2 else float)
    t = 0.0
    dt = 1.0 / t_steps
    last = 0.0      # the last step's length if it was accepted, else 0
    while t < 1.0:
        t_next = t + dt if t + dt < 1.0 - 1e-14 else 1.0
        if last:    # trial holds the iterate accepted before phi: predict
            trial -= phi                    # phi + (dt / last)(phi - trial)
            trial *= (t - t_next) / last
            trial += phi
        if not (last and _volume_ratio(trial, f.h, det)):
            np.copyto(trial, phi)
            if t:
                _volume_ratio(phi, f.h, det)
            else:   # phi is the zero field, where det(I + H) is exactly 1
                det.fill(1.0)
        # e^{t f} may overflow; the record stops on the NaN residual it gives
        with np.errstate(over="ignore"):
            level = np.mean(np.exp(np.multiply(f.values, t_next, out=cand),
                                   out=cand))
        s, rnorm = _residual(det, f, t_next, level, rhs)
        rec = NewtonRecord(t_next, [rnorm])
        # short of t = 1, halfway to tol on a log scale unless r0 is inf/NaN
        goal = (max(tol, np.sqrt(tol) * np.sqrt(rnorm))
                if t_next < 1.0 and rnorm < np.inf else tol)
        while rnorm > goal and len(rec.step_lengths) < MAX_NEWTON:
            step = _poisson_solve(rhs, f.h)
            lam = 1.0
            while lam >= 2.0 ** -12:
                np.add(trial, np.multiply(step, lam, out=cand), out=cand)
                cand -= np.mean(cand)
                if _volume_ratio(cand, f.h, det):
                    sc, cnorm = _residual(det, f, t_next, level, rhs)
                    if cnorm < rnorm:
                        trial, cand = cand, trial
                        rnorm, s = cnorm, sc
                        rec.residuals.append(rnorm)
                        rec.step_lengths.append(lam)
                        break
                lam *= 0.5
            else:
                rec.step_lengths.append(0.0)
                rec.residuals.append(rnorm)
                rec.stop = "damping underflow"
                break
        rec.stop = rec.stop or ("converged" if rnorm <= goal
                                else "non-finite residual" if np.isnan(rnorm)
                                else "max iterations")
        path.trace.append(rec)
        if rec.stop != "converged":
            path.halvings.append((t, t_next - t, rec.stop))
            dt = 0.5 * (t_next - t)
            last = 0.0      # the retry starts from the accepted phi
            if dt < 1e-4:
                raise PathFailureError(
                    "continuity path stalled at t = %.6f: %s at residual %.3e"
                    % (t, rec.stop, rec.residuals[-1]), path)
            continue
        phi, trial = trial, phi
        last, t = t_next - t, t_next
        path.steps.append(t)
        path.c_values.append(float(np.log(s)))
        path.newton_iters.append(len(rec.step_lengths))
    step = None     # before the copy, so the heap can shrink first
    path.phi = TorusField(f.m, phi.copy())
    path.residual = rec.residuals[-1]
    return path


def _residual(det, f: TorusField, t, level, rhs):
    """s = mean(det) / level, level the grid mean of e^{t f}, and the max
    norm of the residual det - s e^{t f} (NaN if a node is), formed in
    slabs of axis-0 planes as the stencil's, writing -2 times it into rhs."""
    s = np.mean(det) / level
    planes = max(1, SLAB_NODES // det[0].size)
    scratch = np.empty((planes,) + det.shape[1:])
    hi = 0.0
    # overflow and 0 * inf leave NaN nodes; hi carries them to the record
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(det), planes):
            rows = slice(start, start + planes)
            r = scratch[:len(det[rows])]
            np.exp(np.multiply(f.values[rows], t, out=r), out=r)
            np.subtract(det[rows], np.multiply(r, s, out=r), out=r)
            hi = np.maximum(hi, np.maximum(np.max(r), -np.min(r)))
            np.multiply(r, -2.0, out=rhs[rows])
    return s, float(hi)


def poisson_reference_solution(f: TorusField) -> TorusField:
    """m = 1 linear solution: Delta phi = 2 (e^{f + c} - 1), zero mean."""
    if f.m != 1:
        raise ValueError("reference Poisson solve is the m = 1 case")
    target = np.exp(normalize_source(f).values)
    rhs = 2.0 * (target - 1.0)
    rhs = rhs - np.mean(rhs)
    return TorusField(1, _poisson_solve(rhs, f.h))


# ---------------------------------------------------------------------------
# Ricci forms of volume ratios


def ricci_form(ratio: TorusField):
    """rho = -i ddbar log f for a volume-ratio field f > 0 (NaN rejected).

    m = 1: returns (coefficient, 0.0), the coefficient against the area form
    (i/2) dz ^ dzbar, equal to -(1/2) Laplacian(log f).  m = 2: returns a
    (4, n, n, n, n) float array of the coefficients rho_{j kbar} =
    -(log f)_{z_j zbar_k}: rho_{0 0}, rho_{1 1}, Re rho_{0 1} and
    Im rho_{0 1}, with rho_{1 0} = conj rho_{0 1} implied, so the form is
    Hermitian by construction; and 0.0.  The second value is a residual
    that is zero by construction (closedness is automatic for commuting
    central stencils), kept while callers unpack two values.
    """
    vals = ratio.values
    if not np.min(vals) > 0.0:      # a NaN minimum fails too
        raise InvalidVolumeError("volume ratio must be positive")
    # m = 1: -2 (log f)_{z zbar} = -Lap(log f) / 2 = -H11
    rho = np.empty((1 if ratio.m == 1 else 4,) + vals.shape)
    scale = -1.0 if ratio.m == 1 else -0.5

    def slab(rows, *H):
        """writes the slab's rho from H11 (and H22, Re H12, Im H12)"""
        for r, a in zip(rho, H):
            np.multiply(a, scale, out=r[rows])

    _map_slabs(vals, ratio.h, slab, log=True)
    return (rho[0] if ratio.m == 1 else rho), 0.0


# ---------------------------------------------------------------------------
# the radial Ricci-flat profile on C^2


@dataclass
class RadialProfile:
    u: np.ndarray
    fprime: np.ndarray
    conserved_residual: float   # max deviation of u^2 f'^2 - u^2 from 2C
    ricci_residual: float


def radial_ricci_flat_profile(C: float) -> RadialProfile:
    """Integrate the Ricci-flat condition f'(u) (f'(u) + u f''(u)) = 1 for
    radial Kahler potentials f(|z|^2) on C^2, reporting f' at 200 points
    of u up to 4.

    The first integral is u^2 f'(u)^2 - u^2 = 2C, which is verified along
    the trajectory; an independent Ricci diagnostic evaluates
    -i ddbar log(det g) on a 2D slice through the numerical profile.
    """
    from scipy.integrate import solve_ivp
    from scipy.interpolate import make_interp_spline

    if not 0 <= C < np.inf:
        raise ValueError("C must be nonnegative and finite, got %r" % (C,))
    u_max, n = 4.0, 200   # u_max covers the diagnostic patch, u < 2.5
    u0 = min(u_max / n, 0.02)
    us = np.linspace(u0, u_max, n)
    h0 = np.sqrt(1.0 + 2.0 * C / u0 ** 2)

    def rhs(u, y):
        return (1.0 - y[0] ** 2) / (u * y[0])

    dense = np.linspace(u0, u_max, 2001)
    sol = solve_ivp(rhs, (u0, u_max), [h0], t_eval=dense, rtol=1e-12,
                    atol=1e-14, method="DOP853")
    spline = make_interp_spline(dense, sol.y[0], k=5)
    fprime = spline(us)
    conserved = us ** 2 * fprime ** 2 - us ** 2
    conserved_res = float(np.max(np.abs(conserved - 2.0 * C)))

    # Independent Ricci diagnostic on a 2D radial slice (z2-plane fixed):
    # det g = f'(u) (f'(u) + u f''(u)) should be identically 1, so
    # rho = -i ddbar log(det g) vanishes.  The profile enters through a
    # quintic spline so the slice field carries only solver error.
    dspline = spline.derivative()
    hp = 0.05
    ax = np.arange(0.6, 1.101, hp)
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    U = X ** 2 + Y ** 2
    detg = spline(U) * (spline(U) + U * dspline(U))
    # -(1/2) Laplacian(log det g), 5-point stencil on the interior nodes
    logf = np.log(detg)
    coeff = -0.5 * (
        (logf[2:, 1:-1] - 2 * logf[1:-1, 1:-1] + logf[:-2, 1:-1]) / hp ** 2
        + (logf[1:-1, 2:] - 2 * logf[1:-1, 1:-1] + logf[1:-1, :-2]) / hp ** 2)
    ricci_res = float(np.nanmax(np.abs(coeff)))
    return RadialProfile(us, fprime, conserved_res, ricci_res)
