"""Monge-Ampere solver for the Calabi problem on flat tori T^{2m}, m = 1, 2.

Solves (omega + i ddbar phi)^m = e^f omega^m by the continuity method:
f_t = t f + c_t with e^{c_t} int e^{t f} = int 1, each step solved by a
damped Newton iteration preconditioned with the flat-metric Laplacian
(inverted by FFT with the second-order difference symbol, so the
preconditioner is the exact Jacobian at phi = 0).

The nodewise volume ratio is det(I + H) with H_{jk} = 2 phi_{z_j zbar_k};
for m = 1 this is 1 + Laplacian(phi)/2 and the equation is linear.  Ricci
forms of volume ratios are computed as -i ddbar log f, and the radial
Ricci-flat profile on C^2 integrates f'(f' + u f'') = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.fft as _fft
from scipy.integrate import solve_ivp
from scipy.interpolate import make_interp_spline

from .gridio import GridField


class NonKahlerIterateError(RuntimeError):
    """An iterate lost positivity of omega + i ddbar phi."""


class PathFailureError(RuntimeError):
    """Continuity path could not be completed."""

    def __init__(self, msg, last_good_t):
        super().__init__(msg)
        self.last_good_t = last_good_t


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
        self.n = n
        self.h = 2.0 * np.pi / n

    def mean(self) -> float:
        return float(np.mean(self.values))

    @classmethod
    def from_function(cls, m: int, n: int, func) -> "TorusField":
        x = 2.0 * np.pi * np.arange(n) / n
        grids = np.meshgrid(*([x] * 2 * m), indexing="ij")
        return cls(m, func(*grids))


def _d2(v: np.ndarray, ax: int, h: float) -> np.ndarray:
    return (np.roll(v, -1, ax) - 2.0 * v + np.roll(v, 1, ax)) / h ** 2


def _complex_hessian(phi: TorusField):
    """H_{jk} = 2 phi_{z_j zbar_k}; returns (H11, H22, H12) real/complex
    arrays (H22, H12 are None for m = 1)."""
    v, h = phi.values, phi.h
    if phi.m == 1:
        H11 = 0.5 * (_d2(v, 0, h) + _d2(v, 1, h))
        return H11, None, None
    H11 = 0.5 * (_d2(v, 0, h) + _d2(v, 1, h))
    H22 = 0.5 * (_d2(v, 2, h) + _d2(v, 3, h))
    # share the axis-2 and axis-3 first differences across the four mixed
    # derivatives (12 rolls instead of 16)
    g2 = np.roll(v, -1, 2)
    g2 -= np.roll(v, 1, 2)
    g3 = np.roll(v, -1, 3)
    g3 -= np.roll(v, 1, 3)
    s = 0.5 / (4.0 * h * h)

    def mix(g, ax):
        out = np.roll(g, -1, ax)
        out -= np.roll(g, 1, ax)
        return out

    re = mix(g2, 0)
    re += mix(g3, 1)
    im = mix(g3, 0)
    im -= mix(g2, 1)
    H12 = s * re + (1j * s) * im
    return H11, H22, H12


def ma_operator(phi: TorusField, check_positivity: bool = True) -> TorusField:
    """Nodewise ratio (omega + i ddbar phi)^m / omega^m = det(I + H)."""
    H11, H22, H12 = _complex_hessian(phi)
    if phi.m == 1:
        ratio = 1.0 + H11
        if check_positivity and np.min(ratio) <= 0.0:
            raise NonKahlerIterateError("1 + H11 has nonpositive nodes")
        return TorusField(1, ratio)
    ratio = (1.0 + H11) * (1.0 + H22) - np.abs(H12) ** 2
    if check_positivity and (np.min(1.0 + H11) <= 0.0 or np.min(ratio) <= 0.0):
        raise NonKahlerIterateError("omega + i ddbar phi lost positivity")
    return TorusField(2, ratio)


def normalize_source(f: TorusField) -> TorusField:
    """Shift f by the constant making the discrete mean of e^f equal 1."""
    c = -np.log(np.mean(np.exp(f.values)))
    return TorusField(f.m, f.values + c)


def _poisson_solve(rhs: np.ndarray, h: float) -> np.ndarray:
    """Zero-mean solution of the 2nd-order-difference Laplace equation
    Delta s = rhs on the periodic grid, via FFT with the FD symbol."""
    n = rhs.shape[0]
    dims = rhs.ndim
    k = np.arange(n)
    sym1 = (2.0 * np.cos(2.0 * np.pi * k / n) - 2.0) / h ** 2
    symbol = np.zeros(rhs.shape)
    for ax in range(dims):
        shape = [1] * dims
        shape[ax] = n
        symbol = symbol + sym1.reshape(shape)
    rhat = _fft.rfftn(rhs, workers=-1)
    sym_r = symbol[tuple([slice(None)] * (dims - 1) + [slice(0, n // 2 + 1)])]
    sym_r = sym_r.copy()
    zero = np.abs(sym_r) < 1e-300
    sym_r[zero] = 1.0
    shat = rhat / sym_r
    shat[tuple([0] * dims)] = 0.0
    out = _fft.irfftn(shat, s=rhs.shape, axes=tuple(range(dims)), workers=-1)
    return out


@dataclass
class ContinuityPath:
    f: TorusField
    steps: list = field(default_factory=list)       # t values
    c_values: list = field(default_factory=list)
    newton_iters: list = field(default_factory=list)
    phi: TorusField = None
    residual: float = np.nan


def solve_calabi(f: TorusField, tol: float = 1e-10, t_steps: int = 10,
                 max_newton: int = 200, initial: TorusField | None = None
                 ) -> ContinuityPath:
    """Continuity-method solve of det(I + H(phi)) = e^{f_t} up to t = 1.

    Each step runs damped quasi-Newton with the flat-Laplacian
    preconditioner (exact Jacobian for m = 1, so that case is a single
    linear solve per step).  Steps halve adaptively on failure.

    The additive constant c_t is determined discretely from the
    solvability condition mean(det(I + H)) = mean(e^{t f + c_t}): for
    m = 1 the grid mean of det(I + H) is identically 1 and c_t equals
    the analytic value -log mean(e^{t f}), while for m = 2 the quadratic
    terms of the determinant leave an O(h^2) grid-mean defect, so c_t is
    updated from the current iterate.  The reported c_values and
    residual use the discrete constant.
    """
    m, h = f.m, f.h
    path = ContinuityPath(f=f)
    phi = np.zeros_like(f.values) if initial is None else initial.values.copy()
    phi = phi - np.mean(phi)
    t = 0.0
    dt = 1.0 / t_steps
    while t < 1.0 - 1e-14:
        t_next = min(1.0, t + dt)
        try:
            phi_new, iters, ct = _newton_step(phi, f, t_next, tol, max_newton)
        except (NonKahlerIterateError, RuntimeError) as exc:
            dt *= 0.5
            if dt < 1e-4:
                raise PathFailureError(
                    "continuity path stalled at t = %.6f: %s" % (t, exc), t)
            continue
        phi = phi_new
        t = t_next
        path.steps.append(t)
        path.c_values.append(ct)
        path.newton_iters.append(iters)
    path.phi = TorusField(m, phi)
    base = np.exp(f.values)
    R, _ = _discrete_residual(phi, m, base, np.mean(base))
    path.residual = float(np.max(np.abs(R)))
    return path


def _discrete_residual(phi_values, m, base, base_mean):
    """Residual det(I + H) - e^{t f + c} with c fixed by the grid-mean
    solvability condition; zero grid mean by construction."""
    det = ma_operator(TorusField(m, phi_values)).values
    s = np.mean(det) / base_mean
    return det - s * base, s


def _newton_step(phi0, f: TorusField, t, tol, max_newton):
    m, h = f.m, f.h
    base = np.exp(t * f.values)
    base_mean = np.mean(base)

    phi = phi0.copy()
    R, s = _discrete_residual(phi, m, base, base_mean)
    rnorm = np.max(np.abs(R))
    for it in range(max_newton):
        if rnorm <= tol:
            return phi, it, float(np.log(s))
        step = _poisson_solve(-2.0 * R, h)
        lam = 1.0
        while lam >= 2.0 ** -12:
            cand = phi + lam * step
            cand = cand - np.mean(cand)
            try:
                Rc, sc = _discrete_residual(cand, m, base, base_mean)
            except NonKahlerIterateError:
                lam *= 0.5
                continue
            cnorm = np.max(np.abs(Rc))
            if cnorm < rnorm:
                phi, R, rnorm, s = cand, Rc, cnorm, sc
                break
            lam *= 0.5
        else:
            raise RuntimeError("line search failed at residual %.3e" % rnorm)
    if rnorm <= tol:
        return phi, max_newton, float(np.log(s))
    raise RuntimeError("Newton did not reach tol, residual %.3e" % rnorm)


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


def ricci_form(ratio):
    """rho = -i ddbar log f for a positive volume-ratio field.

    m = 1: returns (coefficient field, closedness residual) where the
    coefficient is against the area form (i/2) dz ^ dzbar, equal to
    -(1/2) Laplacian(log f).  m = 2: returns the 2 x 2 complex coefficient
    arrays rho_{j kbar} = -(log f)_{z_j zbar_k} and the residual.
    Closedness is automatic for commuting central stencils; the reported
    residual is the Hermitian-symmetry defect of the coefficients.

    Accepts a periodic TorusField or a plain GridField (non-periodic;
    the coefficient is then computed on interior nodes only).
    """
    if isinstance(ratio, GridField):
        vals = ratio.values
        if np.nanmin(vals) <= 0.0:
            raise InvalidVolumeError("volume ratio must be positive")
        logf = np.log(vals)
        coeff = np.full_like(vals, np.nan)
        coeff[1:-1, 1:-1] = -0.5 * (
            (logf[2:, 1:-1] - 2 * logf[1:-1, 1:-1] + logf[:-2, 1:-1])
            / ratio.hx ** 2
            + (logf[1:-1, 2:] - 2 * logf[1:-1, 1:-1] + logf[1:-1, :-2])
            / ratio.hy ** 2)
        return GridField(coeff, ratio.x0, ratio.y0, ratio.hx, ratio.hy), 0.0
    vals = ratio.values
    if np.min(vals) <= 0.0:
        raise InvalidVolumeError("volume ratio must be positive")
    logf = TorusField(ratio.m, np.log(vals))
    H11, H22, H12 = _complex_hessian(logf)
    if ratio.m == 1:
        coeff = -H11  # -2 (log f)_{z zbar} = -Laplacian(log f) / 2
        return coeff, 0.0
    rho = np.empty(vals.shape + (2, 2), dtype=complex)
    rho[..., 0, 0] = -0.5 * H11
    rho[..., 1, 1] = -0.5 * H22
    rho[..., 0, 1] = -0.5 * H12
    rho[..., 1, 0] = -0.5 * np.conj(H12)
    residual = float(np.max(np.abs(rho[..., 0, 1] - np.conj(rho[..., 1, 0]))))
    return rho, residual


# ---------------------------------------------------------------------------
# the radial Ricci-flat profile on C^2


@dataclass
class RadialProfile:
    u: np.ndarray
    fprime: np.ndarray
    conserved_residual: float   # max deviation of u^2 f'^2 - u^2 from 2C
    ricci_residual: float


def radial_ricci_flat_profile(C: float, u_max: float = 4.0,
                              n: int = 200) -> RadialProfile:
    """Integrate the Ricci-flat condition f'(u) (f'(u) + u f''(u)) = 1 for
    radial Kahler potentials f(|z|^2) on C^2.

    The first integral is u^2 f'(u)^2 - u^2 = 2C, which is verified along
    the trajectory; an independent Ricci diagnostic evaluates
    -i ddbar log(det g) on a 2D slice through the numerical profile.
    """
    if C < 0:
        raise ValueError("C must be nonnegative")
    if u_max < 3.0:
        raise ValueError("u_max must cover the diagnostic patch (>= 3)")
    u0 = min(u_max / n, 0.02)
    us = np.linspace(u0, u_max, n)
    h0 = np.sqrt(1.0 + 2.0 * C / u0 ** 2)

    def rhs(u, y):
        return (1.0 - y[0] ** 2) / (u * y[0])

    dense = np.linspace(u0, u_max, 2001)
    sol = solve_ivp(rhs, (u0, u_max), [h0], t_eval=dense, rtol=1e-12,
                    atol=1e-14, method="DOP853")
    profile_spline = make_interp_spline(dense, sol.y[0], k=5)
    fprime = profile_spline(us)
    conserved = us ** 2 * fprime ** 2 - us ** 2
    conserved_res = float(np.max(np.abs(conserved - 2.0 * C)))

    # Independent Ricci diagnostic on a 2D radial slice (z2-plane fixed):
    # det g = f'(u) (f'(u) + u f''(u)) should be identically 1, so
    # rho = -i ddbar log(det g) vanishes.  The profile enters through a
    # quintic spline so the slice field carries only solver error.
    spline = profile_spline
    dspline = spline.derivative()
    hp = 0.05
    ax = np.arange(0.6, 1.101, hp)
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    U = X ** 2 + Y ** 2
    detg = spline(U) * (spline(U) + U * dspline(U))
    patch = GridField(detg, ax[0], ax[0], hp, hp)
    coeff, _ = ricci_form(patch)
    ricci_res = float(np.nanmax(np.abs(coeff.values)))
    return RadialProfile(us, fprime, conserved_res, ricci_res)
