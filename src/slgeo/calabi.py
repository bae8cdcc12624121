"""Monge-Ampere solver for the Calabi problem on flat tori T^{2m}, m = 1, 2.

Solves (omega + i ddbar phi)^m = e^f omega^m by the continuity method:
f_t = t f + c_t with e^{c_t} int e^{t f} = int 1, each step solved by a
damped Newton iteration preconditioned with the flat-metric Laplacian
(inverted by FFT with the second-order difference symbol, so the
preconditioner is the exact Jacobian at phi = 0).  Each Newton solve
returns a core.NewtonRecord, as the U(1) solver's do, with the level t in
place of a; a step whose record does not stop "converged" is halved.

The nodewise volume ratio is det(I + H) with H_{jk} = 2 phi_{z_j zbar_k};
for m = 1 this is 1 + Laplacian(phi)/2 and the equation is linear.  One
stencil computes H for the operator, the Ricci form and the Newton loop:
it pads the field once by wrapping and cuts axis 0 into slabs of a few
planes, taking every difference from slices and forming |H12|^2 as
re^2 + im^2 in place, so each slab's arrays stay in cache.  The slabs run
on the process's CPUs, one thread each, as the FFT does; they write
disjoint rows and their minima are taken after the join, so results do
not depend on the thread count.  Ricci forms of volume ratios are
computed as -i ddbar log f, and the radial Ricci-flat profile on C^2
integrates f'(f' + u f'') = 1.
"""

from __future__ import annotations

import functools
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
    :class:`ContinuityPath` up to last_good_t (phi and residual unset)."""

    def __init__(self, msg, last_good_t, path):
        super().__init__(msg)
        self.last_good_t = last_good_t
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


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity mask on this platform
        return os.cpu_count() or 1


def _hessian_slab(P: np.ndarray, lo: int, planes: int, h: float, scratch):
    """Complex Hessian H_{jk} = 2 v_{z_j zbar_k} on the axis-0 planes lo to
    lo + planes of the samples v, from their wrap-padded copy P.

    Takes every difference from slices of P, in real arithmetic, and writes
    into the leading planes of the scratch arrays: H11, and for m = 2 H22,
    re, im and the first differences along axes 0 and 1.  Returns (rows,
    H11, H22, re, im), views on the nodes v[rows] with H12 = re + i im;
    H22, re and im are None for m = 1.
    """
    S = P[lo:lo + planes + 2]     # the slab and a halo plane each side
    k, n, dims = S.shape[0] - 2, P.shape[1] - 2, P.ndim
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
        return slice(lo, lo + k), H11, None, None, None
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
    return slice(lo, lo + k), H11, H22, re, im


def _map_slabs(v: np.ndarray, h: float, func) -> np.ndarray:
    """func(rows, H11, H22, re, im) on each slab of SLAB_NODES // v[0].size
    axis-0 planes of the complex Hessian of periodic samples v (see
    :func:`_hessian_slab`); returns the values func returned.

    Pads v once by wrapping.  The slabs are dealt in turn to one thread per
    CPU, no more threads than slabs, each with its own scratch, allocated
    here; numpy releases the GIL inside the slab arithmetic.  func must
    write only the rows it is given, so the results do not depend on the
    thread count.  The threads end before this returns.
    """
    n = v.shape[0]
    planes = min(n, max(1, SLAB_NODES // v[0].size))
    P = np.pad(v, 1, mode="wrap")
    starts = range(0, n, planes)
    workers = min(len(starts), _cpus())
    slab = (planes,) + v.shape[1:]
    layout = [slab] if v.ndim == 2 else (
        [slab] * 4 + [slab[:2] + P.shape[2:]] * 2)
    scratch = [[np.empty(s) for s in layout] for _ in range(workers)]

    def walk(first):
        return [func(*_hessian_slab(P, lo, planes, h, scratch[first]))
                for lo in starts[first::workers]]

    with ThreadPoolExecutor(workers) as pool:
        return np.array([r for rs in pool.map(walk, range(workers))
                         for r in rs])


def _complex_hessian(phi: TorusField):
    """H_{jk} = 2 phi_{z_j zbar_k}; returns (H11, H22, H12) real/complex
    arrays (H22, H12 are None for m = 1)."""
    H = [np.empty_like(phi.values) for _ in range(1 if phi.m == 1 else 4)]

    def slab(rows, *parts):     # H11, H22, re, im
        for out, part in zip(H, parts):
            out[rows] = part

    _map_slabs(phi.values, phi.h, slab)
    if phi.m == 1:
        return H[0], None, None
    return H[0], H[1], H[2] + 1j * H[3]


def _volume_ratio(v: np.ndarray, h: float, ratio: np.ndarray) -> np.ndarray:
    """Writes det(I + H) of the samples v into ratio and returns ratio;
    raises NonKahlerIterateError, with every node of ratio written, if
    1 + H11 or det(I + H) is nonpositive at a node."""
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

    minima = _map_slabs(v, h, slab)
    if np.min(minima) <= 0.0:
        raise NonKahlerIterateError(
            "1 + H11 has nonpositive nodes" if v.ndim == 2
            else "omega + i ddbar phi lost positivity")
    return ratio


def ma_operator(phi: TorusField) -> TorusField:
    """Nodewise ratio (omega + i ddbar phi)^m / omega^m = det(I + H)."""
    return TorusField(phi.m, _volume_ratio(
        phi.values, phi.h, np.empty_like(phi.values)))


def normalize_source(f: TorusField) -> TorusField:
    """Shift f by the constant making the discrete mean of e^f equal 1."""
    c = -np.log(np.mean(np.exp(f.values)))
    return TorusField(f.m, f.values + c)


def _poisson_solve(rhs: np.ndarray, h: float) -> np.ndarray:
    """Zero-mean solution of the 2nd-order-difference Laplace equation
    Delta s = rhs on the periodic grid, via FFT with the FD symbol."""
    rhat = _fft.rfftn(rhs, workers=-1)
    rhat *= _inverse_symbol(rhs.shape[0], rhs.ndim, h)
    return _fft.irfftn(rhat, s=rhs.shape, workers=-1, overwrite_x=True)


@functools.lru_cache(maxsize=1)
def _inverse_symbol(n: int, dims: int, h: float) -> np.ndarray:
    """1 / (FD Laplacian symbol) in the rfftn half-spectrum shape, 0 on the
    constant mode; read-only, since every solve on the grid shares it."""
    k = np.arange(n)
    sym1 = (2.0 * np.cos(2.0 * np.pi * k / n) - 2.0) / h ** 2
    symbol = sum(np.ix_(*[sym1] * (dims - 1), sym1[:n // 2 + 1]))
    symbol.flat[0] = 1.0        # the constant mode, mapped to 0 below
    inverse = 1.0 / symbol
    inverse.flat[0] = 0.0
    inverse.flags.writeable = False
    return inverse


@dataclass
class ContinuityPath:
    """A continuity-method solve and what it did.

    ``trace`` holds one :class:`~slgeo.core.NewtonRecord` per Newton solve,
    accepted or failed, at the level t it aimed at.  Per accepted step: the
    level t (``steps``), the discrete constant c_t and the iteration count.
    Each failed step is one ``halvings`` entry (t, dt, reason): the step of
    length dt from level t stopped for the reason its record gives.
    """

    f: TorusField
    steps: list = field(default_factory=list)       # t values
    c_values: list = field(default_factory=list)
    newton_iters: list = field(default_factory=list)
    trace: list = field(default_factory=list)
    halvings: list = field(default_factory=list)
    phi: TorusField = None
    residual: float = np.nan


def solve_calabi(f: TorusField, tol: float = 1e-10, t_steps: int = 10,
                 max_newton: int = 200) -> ContinuityPath:
    """Continuity-method solve of det(I + H(phi)) = e^{f_t} up to t = 1.

    Each step runs damped quasi-Newton with the flat-Laplacian
    preconditioner (exact Jacobian for m = 1, so that case is a single
    linear solve per step).  A step whose Newton solve fails is halved;
    after each accepted step the step length doubles again, up to 1 / t_steps.

    The additive constant c_t is determined discretely from the
    solvability condition mean(det(I + H)) = mean(e^{t f + c_t}): for
    m = 1 the grid mean of det(I + H) is identically 1 and c_t equals
    the analytic value -log mean(e^{t f}), while for m = 2 the quadratic
    terms of the determinant leave an O(h^2) grid-mean defect, so c_t is
    updated from the current iterate.  The reported c_values and
    residual use the discrete constant.

    The solve works in one block of eight grid-size arrays: beyond it, an
    iteration allocates only the FFT's arrays and the stencil's padded copy
    and per-thread scratch.
    """
    if not 0 < tol < np.inf:
        raise ValueError("tol must be positive and finite, got %r" % (tol,))
    if t_steps < 1:
        raise ValueError("t_steps must be at least 1")
    path = ContinuityPath(f=f)
    work = np.empty((8,) + f.values.shape)
    # the accepted iterate and its det(I + H); the trial iterate of a step
    phi, det, trial_phi, trial_det = work[:4]
    phi[...] = 0.0
    _volume_ratio(phi, f.h, det)
    t = 0.0
    dt = 1.0 / t_steps
    while t < 1.0 - 1e-14:
        t_next = min(1.0, t + dt)
        np.copyto(trial_phi, phi)
        np.copyto(trial_det, det)
        ct, rec = _newton_step(trial_phi, trial_det, work[4:], f, t_next,
                               tol, max_newton)
        path.trace.append(rec)
        if rec.stop != "converged":
            path.halvings.append((t, t_next - t, rec.stop))
            dt = 0.5 * (t_next - t)
            if dt < 1e-4:
                raise PathFailureError(
                    "continuity path stalled at t = %.6f: %s at residual %.3e"
                    % (t, rec.stop, rec.residuals[-1]), t, path)
            continue
        phi, det, trial_phi, trial_det = trial_phi, trial_det, phi, det
        t = t_next
        path.steps.append(t)
        path.c_values.append(ct)
        path.newton_iters.append(len(rec.step_lengths))
        dt = min(2.0 * dt, 1.0 / t_steps)
    path.phi = TorusField(f.m, phi.copy())
    base = np.exp(f.values, out=work[4])
    R, _ = _discrete_residual(det, base, np.mean(base), work[5])
    path.residual = float(np.maximum(R.max(), -R.min()))
    return path


def _discrete_residual(det, base, base_mean, out):
    """Residual det(I + H) - e^{t f + c}, into out, with c fixed by the
    grid-mean solvability condition; zero grid mean by construction."""
    s = np.mean(det) / base_mean
    return np.subtract(det, np.multiply(base, s, out=out), out=out), s


def _newton_step(phi, det, scratch, f: TorusField, t, tol, max_newton):
    """Damped quasi-Newton solve at level t from the iterate phi and its
    det(I + H), which it overwrites with the accepted ones; scratch holds
    four more grid-size arrays.

    Returns c_t of the last accepted iterate and the solve's NewtonRecord;
    a failed solve raises nothing: its record stops "damping underflow" (no
    step down to 2^-12 lowered the residual) or "max iterations".
    """
    phi0 = phi
    R, cand, step, base = scratch
    base_mean = np.mean(np.exp(np.multiply(f.values, t, out=base), out=base))
    R, s = _discrete_residual(det, base, base_mean, R)
    rnorm = float(np.maximum(R.max(), -R.min()))     # max |R|, no |R| array
    rec = NewtonRecord(t, [rnorm])
    while rnorm > tol and len(rec.step_lengths) < max_newton:
        step[...] = _poisson_solve(np.multiply(R, -2.0, out=cand), f.h)
        lam = 1.0
        while lam >= 2.0 ** -12:
            np.add(phi, np.multiply(step, lam, out=cand), out=cand)
            cand -= np.mean(cand)
            try:    # det and R are free once the step is computed
                _volume_ratio(cand, f.h, det)
            except NonKahlerIterateError:
                lam *= 0.5
                continue
            _, sc = _discrete_residual(det, base, base_mean, R)
            cnorm = float(np.maximum(R.max(), -R.min()))
            if cnorm < rnorm:
                phi, cand = cand, phi
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
    rec.stop = rec.stop or ("converged" if rnorm <= tol else "max iterations")
    if phi is not phi0:
        np.copyto(phi0, phi)
    return float(np.log(s)), rec


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
    """rho = -i ddbar log f for a positive volume-ratio field.

    m = 1: returns (coefficient field, closedness residual) where the
    coefficient is against the area form (i/2) dz ^ dzbar, equal to
    -(1/2) Laplacian(log f).  m = 2: returns the 2 x 2 complex coefficient
    arrays rho_{j kbar} = -(log f)_{z_j zbar_k} and the residual.
    Closedness is automatic for commuting central stencils; the reported
    residual is the Hermitian-symmetry defect of the coefficients.
    """
    vals = ratio.values
    if np.min(vals) <= 0.0:
        raise InvalidVolumeError("volume ratio must be positive")
    logf = np.log(vals)
    if ratio.m == 1:
        H11, _, _ = _complex_hessian(TorusField(1, logf))
        return -H11, 0.0  # -2 (log f)_{z zbar} = -Laplacian(log f) / 2
    rho = np.empty(vals.shape + (2, 2), dtype=complex)
    r = rho.view(float)  # (..., 2, 4): row j is Re, Im of rho_{j0}, rho_{j1}

    def slab(rows, H11, H22, re, im):
        """writes the slab's rho; returns its Hermitian-symmetry defect
        |rho_{0 1} - conj(rho_{1 0})|"""
        q = r[rows]
        for a in (H11, H22, re, im):
            a *= -0.5
        q[..., 0, 0], q[..., 1, 2] = H11, H22
        q[..., 0, 2], q[..., 0, 3], q[..., 1, 0] = re, im, re
        np.negative(im, out=q[..., 1, 1])
        q[..., 0, 1] = q[..., 1, 3] = 0.0
        np.subtract(q[..., 0, 2], q[..., 1, 0], out=re)
        np.add(q[..., 0, 3], q[..., 1, 1], out=im)
        return np.max(np.hypot(re, im, out=re))

    residual = float(np.max(_map_slabs(logf, ratio.h, slab)))
    return rho, residual


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
