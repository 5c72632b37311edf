"""Tolerance-aware numerical linear algebra shared by the decision procedures.

Everything here is a thin, policy-carrying layer over numpy: rank decisions
use a relative singular-value cutoff, identity checks use a residual bound
scaled by the data, and eigenvalues are clustered to a width. Real and
complex inputs are both first class; real arrays are never promoted to
complex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

REAL = "real"
COMPLEX = "complex"

_DTYPES = {REAL: np.float64, COMPLEX: np.complex128}


def dtype_for(field: str) -> np.dtype:
    try:
        return np.dtype(_DTYPES[field])
    except KeyError:
        raise ValueError(f"field must be 'real' or 'complex', got {field!r}") from None


def as_field_array(data, field: str) -> np.ndarray:
    """Coerce to the field's dtype, rejecting non-finite and lossy casts."""
    arr = np.asarray(data)
    if field == REAL and np.iscomplexobj(arr):
        if arr.size and np.max(np.abs(arr.imag)) != 0.0:
            raise ValueError("complex data supplied for a real-field object")
        arr = arr.real
    arr = arr.astype(dtype_for(field))
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError("non-finite entries (NaN/Inf) are not allowed")
    return arr


@dataclass(frozen=True)
class ToleranceProfile:
    """Numerical policy: rank cutoff, residual bound, eigenvalue cluster width."""

    eps_rank: float = 1e-8
    eps_residual: float = 1e-8
    eps_eig: float = 1e-8

    def __post_init__(self) -> None:
        for name in ("eps_rank", "eps_residual", "eps_eig"):
            value = getattr(self, name)
            if not (0.0 < value < 1e-2):
                raise ValueError(f"{name} must lie in (0, 1e-2), got {value}")


DEFAULT_TOL = ToleranceProfile()


def residual_ok(residual: float, scale: float, eps: float) -> bool:
    return residual <= eps * (1.0 + scale)


def numerical_rank(singular_values: np.ndarray, tol: ToleranceProfile) -> int:
    """Rank at the relative cutoff ``eps_rank * sigma_max``.

    The reference scale is floored at 1 so that a matrix vanishing within
    roundoff (for instance pi(s) - I for a conjugated trivial block) reads
    as zero instead of keeping noise directions; matrices in this library
    are built from isometries and have natural scale >= 1 whenever nonzero.
    """
    if singular_values.size == 0:
        return 0
    cutoff = tol.eps_rank * max(float(singular_values[0]), 1.0)
    return int(np.sum(singular_values > cutoff))


def null_space_basis(matrix: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (as columns) of the numerical null space.

    The basis dimension is ``cols - rank`` with rank decided by the relative
    singular-value cutoff ``eps_rank * sigma_max``. A tall matrix is reduced
    to its ``cols x cols`` triangular factor first: R has the same singular
    values and right singular vectors, and no ``rows x rows`` factor is formed.
    """
    matrix = np.atleast_2d(np.asarray(matrix))
    rows, cols = matrix.shape
    if rows == 0 or cols == 0:
        return np.eye(cols, dtype=matrix.dtype)
    if rows > cols:
        matrix = np.linalg.qr(matrix, mode="r")
    _, s, vh = np.linalg.svd(matrix, full_matrices=True)
    rank = numerical_rank(s, tol)
    return vh[rank:].conj().T


def orthonormal_columns(matrix: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (as columns) of the column space."""
    matrix = np.atleast_2d(np.asarray(matrix))
    if matrix.shape[1] == 0:
        return matrix.copy()
    u, s, _ = np.linalg.svd(matrix, full_matrices=False)
    return u[:, : numerical_rank(s, tol)]


@dataclass(frozen=True)
class AffineSolution:
    """Solution set of a consistent linear system: particular + null space."""

    particular: np.ndarray
    homogeneous: np.ndarray  # columns span the null space

    @property
    def dim(self) -> int:
        return self.homogeneous.shape[1]


def solve_affine_system(
    matrix: np.ndarray, rhs: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL
) -> AffineSolution | None:
    """Full solution set of ``A x = c``, or None when inconsistent.

    Consistency means the least-squares residual stays below
    ``eps_residual * (1 + ||c||)``.
    """
    matrix = np.atleast_2d(np.asarray(matrix))
    rhs = np.asarray(rhs)
    if matrix.shape[0] != rhs.shape[0]:
        raise ValueError(f"incompatible shapes {matrix.shape} and {rhs.shape}")
    if matrix.shape[0] == 0:
        particular = np.zeros(matrix.shape[1], dtype=matrix.dtype)
        return AffineSolution(particular, np.eye(matrix.shape[1], dtype=matrix.dtype))
    particular, *_ = np.linalg.lstsq(matrix, rhs, rcond=None)
    residual = float(np.linalg.norm(matrix @ particular - rhs))
    if not residual_ok(residual, float(np.linalg.norm(rhs)), tol.eps_residual):
        return None
    return AffineSolution(particular, null_space_basis(matrix, tol))


def hermitian_eigensystem(
    matrix: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL
) -> list[tuple[float, np.ndarray]]:
    """Clustered spectral decomposition of a self-adjoint matrix.

    Returns ``(eigenvalue, orthonormal eigenbasis)`` pairs in ascending
    order; eigenvalues closer than ``eps_eig`` are merged into one cluster
    whose basis spans the combined eigenspace.
    """
    matrix = np.atleast_2d(np.asarray(matrix))
    scale = float(np.linalg.norm(matrix))
    if not residual_ok(float(np.linalg.norm(matrix - matrix.conj().T)), scale, tol.eps_residual):
        raise ValueError("matrix is not self-adjoint within tolerance")
    values, vectors = np.linalg.eigh(matrix)
    clusters: list[tuple[float, np.ndarray]] = []
    start = 0
    for i in range(1, len(values) + 1):
        if i == len(values) or values[i] - values[i - 1] > tol.eps_eig:
            block = vectors[:, start:i]
            clusters.append((float(np.mean(values[start:i])), block))
            start = i
    return clusters


def frobenius(matrix: np.ndarray) -> float:
    return float(np.linalg.norm(matrix))


def vec(matrix: np.ndarray) -> np.ndarray:
    """Row-major flattening; inverse of ``unvec``."""
    return np.asarray(matrix).reshape(-1)


def unvec(v: np.ndarray, rows: int, cols: int) -> np.ndarray:
    return np.asarray(v).reshape(rows, cols)


def random_vector(dim: int, field: str, rng: np.random.Generator) -> np.ndarray:
    if field == COMPLEX:
        return (rng.standard_normal(dim) + 1j * rng.standard_normal(dim)) / np.sqrt(2.0)
    return rng.standard_normal(dim)
