"""Lagrangian graphs over R^m and the special Lagrangian graph equation.

The graph of df over R^m is Lagrangian for any potential f; it is special
Lagrangian exactly when Im det_C(I + i Hess f) = 0.  Expanding the complex
determinant in the eigenvalues of A = Hess f gives the odd elementary
symmetric combination

    Im prod_j (1 + i lambda_j) = e_1(A) - e_3(A) + e_5(A) - ...

whose linear term e_1(A) = tr A = Laplacian(f) is the linearization of the
equation at f = 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

FD_STEP = 1e-5  # central-difference step for closed-form potentials


class OutOfStencilError(IndexError):
    """Central differences were requested at a node without interior margin."""


@dataclass
class GraphPotential:
    """A scalar potential on R^m, either gridded samples or a closed form.

    For gridded potentials `values` is an m-dimensional array sampled on a
    uniform rectangular grid with per-axis `spacing`; for closed forms pass
    a callable `func` taking an (m,) point (second derivatives are then
    taken by tight central differences).
    """

    m: int
    values: np.ndarray | None = None
    spacing: np.ndarray | None = None
    func: Callable[[np.ndarray], float] | None = None

    def __post_init__(self):
        if (self.values is None) == (self.func is None):
            raise ValueError("provide exactly one of values or func")
        if self.values is not None:
            self.values = np.asarray(self.values, dtype=float)
            if self.values.ndim != self.m:
                raise ValueError("grid dimensionality does not match m")
            if not np.all(np.isfinite(self.values)):
                raise ValueError("potential has non-finite samples")
            self.spacing = np.broadcast_to(
                np.asarray(self.spacing, dtype=float), (self.m,)).copy()
            if not np.all((self.spacing > 0) & (self.spacing < np.inf)):
                raise ValueError("grid spacing must be positive and finite")


def hessian(f: GraphPotential, node) -> np.ndarray:
    """Symmetrized central-difference Hessian of f at a node (or point).

    at(d) samples f at the integer offset d from the node: a grid index
    offset, or a multiple of FD_STEP for closed forms.
    """
    m = f.m
    if f.func is not None:
        x = np.asarray(node, dtype=float)
        h = np.full(m, FD_STEP)

        def at(d):
            return f.func(x + FD_STEP * d)
    else:
        idx = tuple(int(k) for k in node)
        for ax, k in enumerate(idx):
            if k < 1 or k > f.values.shape[ax] - 2:
                raise OutOfStencilError("node %r lacks a one-node margin on axis %d" % (idx, ax))
        h = f.spacing

        def at(d):
            return f.values[tuple(np.add(idx, d))]
    E = np.eye(m, dtype=int)
    H = np.empty((m, m))
    f0 = at(0 * E[0])
    for i in range(m):
        H[i, i] = (at(E[i]) - 2.0 * f0 + at(-E[i])) / h[i] ** 2
        for j in range(i + 1, m):
            H[i, j] = H[j, i] = (at(E[i] + E[j]) - at(E[i] - E[j])
                                 - at(E[j] - E[i]) + at(-E[i] - E[j])
                                 ) / (4.0 * h[i] * h[j])
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


def linearization_gap(f: GraphPotential, eps_list) -> list[float]:
    """max-node |residual(eps * f) - eps * Laplacian(f)| for each eps.

    Measures the size of the nonlinear tail of the graph equation; for
    m = 3 potentials it equals eps^3 |det Hess f| at each node.
    """
    H = np.array([hessian(f, node) for node in _interior_nodes(f)]
                 ).reshape(-1, f.m, f.m)
    trace = np.trace(H, axis1=1, axis2=2)
    return [float(np.max(np.abs(residual_from_hessian(eps * H) - eps * trace),
                         initial=0.0))
            for eps in eps_list]


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    xs = np.log(np.asarray(xs, dtype=float))
    ys = np.log(np.asarray(ys, dtype=float))
    return float(np.polyfit(xs, ys, 1)[0])


def _interior_nodes(f: GraphPotential):
    """Grid nodes with a one-node margin; for closed forms a small probe
    box around the origin."""
    axes = ([np.linspace(-1.0, 1.0, 5)] * f.m if f.func is not None
            else [range(1, n - 1) for n in f.values.shape])
    return list(itertools.product(*axes))
