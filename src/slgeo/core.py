"""Flat Calabi-Yau structure on C^m and pointwise calibration tests.

Real coordinates (x_1, ..., x_{2m}) on R^{2m} are paired into complex
coordinates z_j = x_{2j-1} + i x_{2j}.  The standard structure is

    g     = sum |dz_j|^2,
    omega = (i/2) sum dz_j ^ dzbar_j,
    Omega = dz_1 ^ ... ^ dz_m,

normalized so that omega^m / m! = (-1)^{m(m-1)/2} (i/2)^m Omega ^ Omegabar.
An oriented m-plane V is special Lagrangian iff omega|_V = 0 and
Im Omega|_V = 0 (for the orientation with Re Omega|_V >= 0).

:class:`NewtonRecord` is the one Newton trace of the U(1) and Calabi
solvers; it lives here because this module loads only numpy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np


class InvalidDimensionError(ValueError):
    """Complex dimension m is out of the supported range."""


class DegeneratePlaneError(ValueError):
    """Plane basis is (numerically) linearly dependent."""


class InvalidActionError(ValueError):
    """Diagonal weights that do not sum to zero: the action leaves SU(m)."""


@dataclass
class NewtonRecord:
    """One damped Newton solve at a level (a for U(1), t for Calabi): the
    max-norm residual before each step and at the end, the accepted
    line-search step of each step (0.0 where none was found), U(1)'s
    Jacobian refreshes (``fresh``, ``factorizations``) and why it stopped:
    "converged", "round-off floor" (a U(1) a = 0 rung accepted at the
    round-off bound of P), "damping underflow", "max iterations" or
    "non-finite residual" (Calabi)."""

    level: float
    residuals: list = field(default_factory=list)
    step_lengths: list = field(default_factory=list)
    fresh: list = field(default_factory=list)
    factorizations: int = 0
    stop: str = ""


def complex_coords(v: np.ndarray) -> np.ndarray:
    """Map real vectors (..., 2m) to complex vectors (..., m)."""
    v = np.asarray(v, dtype=float)
    return v[..., 0::2] + 1j * v[..., 1::2]


def real_coords(z: np.ndarray) -> np.ndarray:
    """Inverse of :func:`complex_coords`."""
    z = np.asarray(z, dtype=complex)
    out = np.empty(z.shape[:-1] + (2 * z.shape[-1],))
    out[..., 0::2] = z.real
    out[..., 1::2] = z.imag
    return out


def broadcast_stack(parts, axis: int = -1) -> np.ndarray:
    """np.stack after broadcasting, so scalar entries fill out the stack."""
    return np.stack(np.broadcast_arrays(*parts), axis=axis)


def standard_J(m: int) -> np.ndarray:
    """Complex-structure matrix J on R^{2m} (rotation by i in each z_j plane)."""
    return complex_matrix_to_real(1j * np.eye(m))


def _perm_sign(perm) -> int:
    sign = 1
    perm = list(perm)
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


@dataclass(frozen=True)
class CYPackage:
    """The standard flat Calabi-Yau package (g, omega, Omega) on C^m.

    The metric is the identity; kahler_form is the dense 2m x 2m real
    matrix W of omega, omega(v, w) = v^T W w; Omega is evaluated as a
    complex determinant of coordinates.
    """

    m: int
    kahler_form: np.ndarray = field(repr=False)

    def holomorphic_volume(self, vectors: np.ndarray) -> complex:
        """Omega(v_1, ..., v_m) as the complex determinant of coordinates."""
        vectors = np.asarray(vectors, dtype=float)
        if vectors.shape != (self.m, 2 * self.m):
            raise ValueError("expected %d vectors in R^%d" % (self.m, 2 * self.m))
        return complex(np.linalg.det(complex_coords(vectors).T))


def standard_cy_package(m: int) -> CYPackage:
    """Build the flat structure on C^m.  Raises for m < 1."""
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise InvalidDimensionError("complex dimension must be an integer >= 1, got %r" % (m,))
    m = int(m)
    # omega(v, w) = g(Jv, w), so W = J^T
    return CYPackage(m=m, kahler_form=standard_J(m).T)


def normalization_residual(pkg: CYPackage) -> float:
    """Residual of omega^m/m! = (-1)^{m(m-1)/2} (i/2)^m Omega^Omegabar.

    Both sides are evaluated on the standard basis 2m-vector
    (e_1, ..., e_{2m}); the left side is a Pfaffian over perfect matchings,
    the right a signed sum over m-subsets.
    """
    m = pkg.m
    basis = np.eye(2 * m)
    lhs = _pfaffian(pkg.kahler_form)
    rhs = 0.0 + 0.0j
    for subset in itertools.combinations(range(2 * m), m):
        comp = tuple(i for i in range(2 * m) if i not in subset)
        sign = _perm_sign(subset + comp)
        rhs += sign * pkg.holomorphic_volume(basis[list(subset)]) * \
            np.conj(pkg.holomorphic_volume(basis[list(comp)]))
    rhs *= (-1) ** (m * (m - 1) // 2) * (1j / 2) ** m
    return abs(lhs - rhs)


def _pfaffian(A: np.ndarray) -> float:
    """Pfaffian of a small antisymmetric matrix by matching expansion."""
    n = A.shape[0]
    if n == 0:
        return 1.0
    total = 0.0
    # expand along row 0
    for j in range(1, n):
        if A[0, j] == 0.0:
            continue
        rest = [k for k in range(1, n) if k != j]
        sub = A[np.ix_(rest, rest)]
        total += (-1) ** (j - 1) * A[0, j] * _pfaffian(sub)
    return total


@dataclass
class TangentPlane:
    """An oriented real m-plane in R^{2m}, spanned by the rows of `basis`."""

    m: int
    basis: np.ndarray
    orientation: int = 1

    def __post_init__(self):
        self.basis = np.asarray(self.basis, dtype=float)
        if self.basis.shape != (self.m, 2 * self.m):
            raise ValueError("basis must be m vectors in R^{2m}")
        if self.orientation not in (+1, -1):
            raise ValueError("orientation must be +1 or -1")


def _frames(bases: np.ndarray):
    """Orthonormal frames (N, m, 2m) of a stack of bases, and the m-volume
    of each basis.  One batched QR; R gets a positive diagonal, so each
    frame keeps the orientation of its basis."""
    q, r = np.linalg.qr(bases.swapaxes(-1, -2))
    diag = r.diagonal(0, -2, -1)
    size = np.abs(diag)
    # each |R_jj| against its own row's length, so that one long row does
    # not make the others look degenerate
    scale = np.maximum(1.0, np.linalg.norm(bases, axis=-1))
    if (size < 1e-13 * scale).any():
        raise DegeneratePlaneError("plane basis is degenerate")
    frames = (q * np.sign(diag)[..., None, :]).swapaxes(-1, -2)
    return frames, size.prod(axis=-1)


def is_sl_plane(plane: TangentPlane, pkg: CYPackage, tol: float = 1e-10) -> bool:
    """Special Lagrangian test: the SL defect, which does not depend on the
    orientation, is at most tol."""
    if not 0 < tol < np.inf:
        raise ValueError("tol must be positive and finite, got %r" % (tol,))
    return sl_defect(plane, pkg) <= tol


# planes per batched QR and determinant: bounds the temporaries, which
# for 45,000 planes at once add about 15 MB to the peak RSS
PLANE_CHUNK = 2048


def plane_defects(bases) -> tuple[np.ndarray, np.ndarray]:
    """SL defect and calibration slack of each plane in a stack (N, m, 2m).

    Plane k is spanned by the rows of bases[k] and oriented by their order.
    The SL defect is max(|omega|_V|, |Im Omega|_V|) on the oriented
    orthonormal frame, and vanishes iff the plane is SL; for m > 2, where
    omega|_V is not a top form on V, its omega part is the largest
    |omega(e_a, e_b)| over the frame, a norm-style scalar.  The slack is
    vol_V - Re Omega(basis) >= 0, the calibration inequality.  Planes go
    through in chunks of PLANE_CHUNK, each one batched QR and one batched
    complex determinant.  Raises DegeneratePlaneError if any basis is
    rank-deficient.
    """
    bases = np.asarray(bases, dtype=float)
    if bases.ndim != 3 or bases.shape[2] != 2 * bases.shape[1]:
        raise ValueError("bases must have shape (N, m, 2m)")
    sl = np.empty(bases.shape[0])
    slack = np.empty(bases.shape[0])
    for lo in range(0, bases.shape[0], PLANE_CHUNK):
        chunk = slice(lo, lo + PLANE_CHUNK)
        frames, vol = _frames(bases[chunk])
        z = complex_coords(frames)
        # omega(e_a, e_b) = Im <e_a, e_b> = x_a . y_b - y_a . x_b: written as
        # g - g^T it is exactly antisymmetric, with a zero diagonal
        g = z.real @ z.imag.swapaxes(-1, -2)
        omega = np.abs(g - g.swapaxes(-1, -2)).max(axis=(-2, -1))
        hol = np.linalg.det(z.swapaxes(-1, -2))  # Omega(frame)
        sl[chunk] = np.maximum(omega, np.abs(hol.imag))
        # Omega(basis) = vol * Omega(frame)
        slack[chunk] = vol * (1.0 - hol.real)
    return sl, slack


def _oriented_stack(plane: TangentPlane, pkg: CYPackage) -> np.ndarray:
    """The plane as a stack of one basis, its last row carrying the
    orientation."""
    if plane.m != pkg.m:
        raise ValueError("plane and package dimensions differ")
    basis = plane.basis[None].copy()
    basis[0, -1] *= plane.orientation
    return basis


def sl_defect(plane: TangentPlane, pkg: CYPackage) -> float:
    """max(|omega|_V|, |Im Omega|_V|) on the orthonormal frame; 0 iff SL."""
    return float(plane_defects(_oriented_stack(plane, pkg))[0][0])


def calibration_defect(plane: TangentPlane, pkg: CYPackage) -> float:
    """vol_V - Re Omega|_V for the given oriented basis; >= 0 for every plane."""
    return float(plane_defects(_oriented_stack(plane, pkg))[1][0])


# ---------------------------------------------------------------------------
# linear maps and the diagonal-torus moment map


def complex_matrix_to_real(A: np.ndarray) -> np.ndarray:
    """Real 2m x 2m representation of a complex m x m matrix."""
    A = np.asarray(A, dtype=complex)
    # columns 2k and 2k + 1 are A e_k and A (i e_k) in real coordinates
    cols = np.stack([A.T, 1j * A.T], axis=1).reshape(-1, A.shape[0])
    return real_coords(cols).T


def moment_map_values(weights, points) -> np.ndarray:
    """Hamiltonian sum_j w_j |z_j|^2 of the diagonal action
    z_j -> e^{i w_j theta} z_j at each point of a stack (..., m).

    The weights must sum to zero, so that the action lies in SU(m); for
    (1, -1, 0) this is the U(1) level |z1|^2 - |z2|^2 of the lifted SL
    3-folds.  The Hamiltonian is fixed up to an additive constant; this one
    vanishes at the origin.
    """
    weights = np.asarray(weights, dtype=float)
    if abs(np.sum(weights)) > 1e-12:
        raise InvalidActionError("diagonal weights must sum to zero")
    return np.abs(points) ** 2 @ weights


def random_su_matrix(m: int, rng: np.random.Generator) -> np.ndarray:
    """Random SU(m) element: exponential of a random traceless anti-Hermitian
    matrix A, as V diag(e^{i lam}) V^H from the eigenpairs of the Hermitian
    -iA."""
    X = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    A = (X - X.conj().T) / 2.0
    A -= np.trace(A) / m * np.eye(m)
    lam, V = np.linalg.eigh(-1j * A)
    return (V * np.exp(1j * lam)) @ V.conj().T


def random_plane(m: int, rng: np.random.Generator) -> TangentPlane:
    """Random oriented m-plane in R^{2m} (Gaussian basis)."""
    return TangentPlane(m, rng.standard_normal((m, 2 * m)))


def su_rotated_real_plane(m: int, gamma: np.ndarray) -> TangentPlane:
    """The plane gamma . R^m for gamma in SU(m), with its pushed-forward basis."""
    return TangentPlane(m, real_coords(np.asarray(gamma).T))
