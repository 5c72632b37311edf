"""Tolerance-aware numerical linear algebra shared by the decision procedures.

Everything here is a thin, policy-carrying layer over numpy: rank decisions
use a relative singular-value cutoff, identity checks use a residual bound
scaled by the data, and eigenvalues are clustered to a width. Real and
complex inputs are both first class; real arrays are never promoted to
complex.
"""

from __future__ import annotations

import math
import operator
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

    @property
    def cluster_width(self) -> float:
        """w = sqrt(max(eps_eig, eps_rank, eps_residual)), 1e-4 by default.

        The commutant solver chains eigenvalues of its Hermitian element that
        lie closer than w, and ``null_space_basis`` takes Gram eigenvalues up
        to w^2 (relative) as null-space candidates. w is at least
        sqrt(eps_rank) > 10 eps_rank, so both stay far wider than the rank
        cutoff (README "How the commutant is solved").
        """
        return math.sqrt(max(self.eps_eig, self.eps_rank, self.eps_residual))


DEFAULT_TOL = ToleranceProfile()


def residual_ok(residual: float, scale: float, eps: float) -> bool:
    return residual <= eps * (1.0 + scale)


def numerical_rank(
    singular_values: np.ndarray, tol: ToleranceProfile, sigma_max: float | None = None
) -> int:
    """Rank at the relative cutoff ``eps_rank * sigma_max``.

    ``sigma_max`` defaults to the largest of ``singular_values``; a caller
    holding part of a spectrum passes the whole matrix's. The reference scale
    is floored at 1 so that a matrix vanishing within roundoff (for instance
    pi(s) - I for a conjugated trivial block) reads as zero instead of
    keeping noise directions; matrices in this library are built from
    isometries and have natural scale >= 1 whenever nonzero.
    """
    if singular_values.size == 0:
        return 0
    if sigma_max is None:
        sigma_max = float(singular_values[0])
    cutoff = tol.eps_rank * max(sigma_max, 1.0)
    return int(np.sum(singular_values > cutoff))


def null_space_basis(matrix: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL, apply=None) -> np.ndarray:
    """Orthonormal basis (as columns) of the numerical null space of A.

    A is ``matrix``, or, with ``apply``, the operator ``X -> apply(X)`` (a
    2-D array of A times the columns of X) and ``matrix`` is its Gram matrix
    A*A. The dimension is ``cols - rank`` with rank decided by
    ``numerical_rank`` at ``eps_rank * max(sigma_max, 1)``. An explicit A
    goes to one SVD, thin unless A is wide, so no ``rows x rows`` factor is
    formed and A is never squared. An implicit A is split along the
    eigenvectors of its Gram matrix. The candidates are the eigenvectors
    with eigenvalue at most ``w^2 * max(lambda_max, 1)`` (w the profile's
    ``cluster_width``). They and the other eigenvectors span invariant
    subspaces of A*A, so A's singular values split between them, and those
    on the others exceed ``w * max(sigma_max, 1)``, far above the rank
    cutoff: the rank decided on the SVD of A on the candidates alone, with
    sigma_max = sqrt(lambda_max), is the one a full SVD of A would make
    (README "How the commutant is solved").
    """
    matrix = np.atleast_2d(np.asarray(matrix))
    if 0 in matrix.shape:
        return np.eye(matrix.shape[1], dtype=matrix.dtype)
    if apply is None:
        _, s, vh = np.linalg.svd(matrix, full_matrices=matrix.shape[0] < matrix.shape[1])
        return vh[numerical_rank(s, tol) :].conj().T
    values, vectors = np.linalg.eigh(matrix)
    top = max(float(values.max(initial=0.0)), 0.0)
    sigma_max = math.sqrt(top)
    candidates = vectors[:, values <= tol.cluster_width**2 * max(top, 1.0)]
    image = apply(candidates)
    if np.linalg.norm(image) <= tol.eps_rank * max(sigma_max, 1.0):
        # ||A C||_F bounds every singular value on the candidates: the SVD
        # would find all of them null
        return candidates
    _, s, vh = np.linalg.svd(image, full_matrices=image.shape[0] < image.shape[1])
    return candidates @ vh[numerical_rank(s, tol, sigma_max) :].conj().T


@dataclass(frozen=True)
class RangeSplit:
    """A matrix A split by one SVD at the ``numerical_rank`` cutoff.

    ``image`` and ``kernel`` are orthonormal columns spanning the range and
    the null space of A, and ``pinv`` is A+ over the kept singular values:
    ``pinv @ y`` is the minimum-norm least-squares solution of A x = y, and
    it lies in the kernel's orthogonal complement. The SVD is thin unless A
    is wide, so ``image`` is ``orthonormal_columns(A)``. The arrays are
    read-only.
    """

    image: np.ndarray
    kernel: np.ndarray
    pinv: np.ndarray

    @classmethod
    def of(cls, matrix: np.ndarray, tol: ToleranceProfile) -> RangeSplit:
        u, s, vh = np.linalg.svd(matrix, full_matrices=matrix.shape[0] < matrix.shape[1])
        rank = numerical_rank(s, tol)
        u, kept = u[:, :rank], vh[:rank].conj().T
        return cls(read_only(u), read_only(vh[rank:].conj().T), read_only(kept @ (u.conj().T / s[:rank, None])))


def read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


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


def solve_affine_system(matrix: np.ndarray, rhs: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL) -> AffineSolution | None:
    """Full solution set of ``A x = c``, or None when inconsistent.

    One SVD of A decides it. The system is consistent when a least-squares
    solution x has exact residual ``||A x - c||`` within
    ``eps_residual * (1 + ||c||)``, whatever eps_rank is: x is first the
    minimum-norm one over A's singular directions above the rank cutoff,
    orthogonal to the homogeneous part (A's null space at that cutoff); if
    that misses the bound, x also uses the directions below the cutoff that
    ``numpy.linalg.lstsq`` resolves (singular values above
    ``eps_machine * max(rows, cols) * max(sigma_max, 1)``, floored at 1 as in
    ``numerical_rank``, so a matrix vanishing within roundoff resolves none).
    """
    matrix, rhs = np.atleast_2d(np.asarray(matrix)), np.asarray(rhs)
    if matrix.shape[0] != rhs.shape[0]:
        raise ValueError(f"incompatible shapes {matrix.shape} and {rhs.shape}")
    u, s, vh = np.linalg.svd(matrix, full_matrices=matrix.shape[0] < matrix.shape[1])
    rank = numerical_rank(s, tol)
    resolved = int(np.sum(s > np.finfo(float).eps * max(matrix.shape) * max(s.max(initial=0.0), 1.0)))
    coordinates = u.conj().T @ rhs
    bound = tol.eps_residual * (1.0 + float(np.linalg.norm(rhs)))
    for count in (rank, resolved) if resolved > rank else (rank,):
        particular = vh[:count].conj().T @ (coordinates[:count] / s[:count])
        if float(np.linalg.norm(matrix @ particular - rhs)) <= bound:
            return AffineSolution(particular, vh[rank:].conj().T)
    return None


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


def worst_of(residuals) -> float:
    """The largest of ``residuals`` (0.0 for none), or the first NaN among
    them: ``max`` keeps its running value against a NaN, so a residual
    accumulated by it reads as a number for an input that holds a NaN."""
    worst = 0.0
    for residual in residuals:
        if math.isnan(residual):
            return residual
        worst = max(worst, residual)
    return worst


def random_vectors(count: int, dim: int, field: str, rng: np.random.Generator) -> np.ndarray:
    """``count`` standard Gaussian rows of length ``dim`` from one generator call.

    A complex row takes its real parts, then its imaginary parts, each pair
    scaled by 1/sqrt 2, so row k has the bits the k-th of ``count``
    successive one-row draws would have had.
    """
    if field == COMPLEX:
        z = rng.standard_normal((count, 2, dim))
        return (z[:, 0] + 1j * z[:, 1]) / np.sqrt(2.0)
    return rng.standard_normal((count, dim))


def int_at_least(name: str, value, minimum: int, error: type[ValueError] = ValueError) -> int:
    """``value`` as a plain int >= minimum; bools and non-integral numbers are refused."""
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None
    if value < minimum:
        raise error(f"{name} must be >= {minimum}")
    return value


def checked_seed(seed, error: type[ValueError] = ValueError) -> int | None:
    """A seed for ``np.random.default_rng``: None or a non-negative integer."""
    return None if seed is None else int_at_least("seed", seed, 0, error)
