"""Lagrangian graphs over R^m and the special Lagrangian graph equation.

The graph of df over R^m is Lagrangian for any potential f; it is special
Lagrangian exactly when Im det_C(I + i Hess f) = 0.  Expanding the complex
determinant in the eigenvalues of A = Hess f gives the odd elementary
symmetric combination

    Im prod_j (1 + i lambda_j) = e_1(A) - e_3(A) + e_5(A) - ...

whose linear term e_1(A) = tr A = Laplacian(f) is the linearization of the
equation at f = 0.

Potentials are closed forms: a callable f taking an (m,) point.  Second
derivatives are taken by central differences with step FD_STEP.
"""

from __future__ import annotations

import itertools
from typing import Callable

import numpy as np

FD_STEP = 1e-5  # central-difference step for closed-form potentials


def hessian(func: Callable[[np.ndarray], float], x) -> np.ndarray:
    """Symmetrized central-difference Hessian of func at the point x.

    m = len(x); at(d) samples func at the offset FD_STEP * d from x, for an
    integer vector d.
    """
    x = np.asarray(x, dtype=float)
    m = x.shape[0]

    def at(d):
        return func(x + FD_STEP * d)

    E = np.eye(m, dtype=int)
    H = np.empty((m, m))
    f0 = at(0 * E[0])
    for i in range(m):
        H[i, i] = (at(E[i]) - 2.0 * f0 + at(-E[i])) / FD_STEP ** 2
        for j in range(i + 1, m):
            H[i, j] = H[j, i] = (at(E[i] + E[j]) - at(E[i] - E[j])
                                 - at(E[j] - E[i]) + at(-E[i] - E[j])
                                 ) / (4.0 * FD_STEP ** 2)
    return 0.5 * (H + H.T)


def residual_from_hessian(A: np.ndarray) -> np.ndarray | float:
    """Im det_C(I + iA) for each symmetric matrix A of a stack (..., m, m)."""
    A = np.asarray(A, dtype=float)
    return np.linalg.det(np.eye(A.shape[-1]) + 1j * A).imag


def residual_symmetric_form(A: np.ndarray) -> float:
    """The same residual through elementary symmetric functions.

    Im prod(1 + i lambda_j) = sum over odd k of (-1)^{(k-1)/2} e_k(A).
    """
    A = np.asarray(A, dtype=float)
    m = A.shape[0]
    if m > 4:
        raise ValueError("symmetric-function form implemented for m <= 4")
    lam = np.linalg.eigvalsh(A)
    # e_k from the characteristic polynomial coefficients of lam
    coeffs = np.poly(lam)  # x^m - e1 x^{m-1} + e2 x^{m-2} - ...
    e = [(-1) ** k * coeffs[k] for k in range(m + 1)]
    return float(sum((-1) ** ((k - 1) // 2) * e[k] for k in range(1, m + 1, 2)))


def linearization_gap(func: Callable[[np.ndarray], float], m: int,
                      eps_list) -> list[float]:
    """max-point |residual(eps * f) - eps * Laplacian(f)| for each eps.

    The points are the 5^m probe box around the origin.  Measures the size
    of the nonlinear tail of the graph equation; for m = 3 potentials it
    equals eps^3 |det Hess f| at each point.
    """
    H = np.array([hessian(func, x) for x in _probe_points(m)])
    trace = np.trace(H, axis1=1, axis2=2)
    return [float(np.max(np.abs(residual_from_hessian(eps * H) - eps * trace)))
            for eps in eps_list]


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    xs = np.log(np.asarray(xs, dtype=float))
    ys = np.log(np.asarray(ys, dtype=float))
    return float(np.polyfit(xs, ys, 1)[0])


def _probe_points(m: int):
    """The 5^m points of the box [-1, 1]^m at spacing 1/2."""
    return list(itertools.product(*[np.linspace(-1.0, 1.0, 5)] * m))
