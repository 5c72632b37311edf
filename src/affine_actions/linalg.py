"""Tolerance-aware numerical linear algebra shared by the decision procedures.

Everything here is a thin, policy-carrying layer over numpy: rank decisions
use a relative singular-value cutoff, identity checks use a residual bound
scaled by the data, and eigenvalues are clustered to a width. Real and
complex inputs are both first class; real arrays are never promoted to
complex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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

# refinement steps of solve_affine_system after each first solve
_REFINEMENTS = 2


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
    ``numerical_rank`` at ``eps_rank * max(sigma_max, 1)``. A wide A goes to
    a full SVD, a tall or implicit one through ``GramSplit``, and no
    ``rows x rows`` factor is formed.
    """
    matrix = np.atleast_2d(np.asarray(matrix))
    if 0 in matrix.shape:
        return np.eye(matrix.shape[1], dtype=matrix.dtype)
    if apply is None:
        if matrix.shape[0] <= matrix.shape[1]:
            _, s, vh = np.linalg.svd(matrix, full_matrices=True)
            return vh[numerical_rank(s, tol) :].conj().T
        matrix, apply = matrix.conj().T @ matrix, explicit_operator(matrix)
    return GramSplit.of(matrix, apply, tol).null_space(tol)


@dataclass(frozen=True)
class GramSplit:
    """An operator A split along the eigenvectors of its Gram matrix A*A.

    ``candidates`` are the eigenvectors with eigenvalue at most
    ``w^2 * max(lambda_max, 1)`` (w the profile's ``cluster_width``), and
    ``image`` is A applied to them; ``complement`` holds the other
    eigenvectors, with eigenvalues ``complement_values``. Both span
    invariant subspaces of A*A, so A's singular values split between them,
    and those of the complement exceed ``w * max(sigma_max, 1)``, far above
    the rank cutoff: the rank decided on the SVD of ``image`` alone, with
    sigma_max = sqrt(lambda_max), is the one a full SVD of A would make
    (README "How the commutant is solved").
    """

    candidates: np.ndarray
    image: np.ndarray
    complement: np.ndarray
    complement_values: np.ndarray
    sigma_max: float

    @classmethod
    def of(cls, gram: np.ndarray, apply, tol: ToleranceProfile) -> GramSplit:
        values, vectors = np.linalg.eigh(gram)
        top = max(float(values.max(initial=0.0)), 0.0)
        small = values <= tol.cluster_width**2 * max(top, 1.0)
        candidates = vectors[:, small]
        return cls(candidates, apply(candidates), vectors[:, ~small], values[~small], math.sqrt(top))

    @cached_property
    def svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return np.linalg.svd(self.image, full_matrices=self.image.shape[0] < self.image.shape[1])

    def null_space(self, tol: ToleranceProfile) -> np.ndarray:
        if np.linalg.norm(self.image) <= tol.eps_rank * max(self.sigma_max, 1.0):
            # ||A C||_F bounds every singular value on the candidates: the
            # SVD would find all of them null
            return self.candidates
        _, s, vh = self.svd
        return self.candidates @ vh[numerical_rank(s, tol, self.sigma_max) :].conj().T

    def least_squares(self, apply, rhs: np.ndarray, count: int) -> np.ndarray:
        """Minimum-norm least-squares solution of ``A x = rhs`` over the
        complement and the leading ``count`` singular directions of the
        candidates; ``apply(Y, adjoint=True)`` must give A* Y.

        The complement is solved through A*A, whose eigenvalues there are at
        least w^2 lambda_max; the candidates through the SVD of A on them,
        applied to what the complement part leaves of ``rhs``.
        """
        normal = self.complement.conj().T @ apply(rhs[:, None], adjoint=True)[:, 0]
        x = self.complement @ (normal / self.complement_values)
        rest = rhs - apply(x[:, None])[:, 0]
        u, s, vh = self.svd
        u, s, vh = u[:, :count], s[:count], vh[:count]
        return x + self.candidates @ (vh.conj().T @ ((u.conj().T @ rest) / s))


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
    matrix: np.ndarray, rhs: np.ndarray | None, tol: ToleranceProfile = DEFAULT_TOL, apply=None
) -> AffineSolution | None:
    """Full solution set of ``A x = c``, or None when inconsistent.

    The system is ``matrix`` = A and ``rhs`` = c, or, with ``apply``, the
    Gram matrix ``matrix`` of the augmented operator M = [A, -c] and its
    action: ``apply(X)`` is M X and ``apply(Y, adjoint=True)`` is M* Y
    (``rhs`` is then None). The system is consistent when a least-squares
    solution x has exact residual ``||A x - c||`` within
    ``eps_residual * (1 + ||c||)``, whatever eps_rank is: x is first the
    minimum-norm one over A's directions above the rank cutoff, orthogonal
    to the homogeneous part (A's null space at that cutoff); if that misses
    the bound, x also uses the directions below the cutoff that
    ``numpy.linalg.lstsq`` resolves (singular values above
    ``eps_machine * size * sigma_max``). Each x is refined on its exact
    residual (``GramSplit.least_squares`` solves part of it through A*A,
    which costs up to eps_machine / w^2 of its accuracy, and a step wins
    that factor back) while the residual at least halves.
    """
    if apply is None:
        matrix, rhs = np.atleast_2d(np.asarray(matrix)), np.asarray(rhs)
        if matrix.shape[0] != rhs.shape[0]:
            raise ValueError(f"incompatible shapes {matrix.shape} and {rhs.shape}")
        augmented = np.column_stack([matrix, -rhs]).astype(np.result_type(matrix, rhs))
        matrix, apply = augmented.conj().T @ augmented, explicit_operator(augmented)

    def system(columns: np.ndarray, adjoint: bool = False) -> np.ndarray:
        # A: the augmented operator without its last column
        if adjoint:
            return apply(columns, adjoint=True)[:-1]
        return apply(np.vstack([columns, np.zeros((1, columns.shape[1]), dtype=columns.dtype)]))

    size = len(matrix) - 1
    rhs = -apply(np.eye(size + 1, dtype=matrix.dtype)[:, -1:])[:, 0]
    bound = tol.eps_residual * (1.0 + float(np.linalg.norm(rhs)))
    split = GramSplit.of(matrix[:-1, :-1], system, tol)
    singular = split.svd[1]
    rank = numerical_rank(singular, tol, split.sigma_max)
    resolved = int(np.sum(singular > np.finfo(float).eps * max(len(rhs), size) * split.sigma_max))
    for count in (rank, resolved) if resolved > rank else (rank,):
        particular, residual, error = 0.0, rhs, math.inf
        for _ in range(_REFINEMENTS + 1):
            particular = particular + split.least_squares(system, residual, count)
            residual = rhs - system(particular[:, None])[:, 0]
            error, previous = float(np.linalg.norm(residual)), error
            if error <= bound:
                return AffineSolution(particular, split.null_space(tol))
            if error > previous / 2:
                break
    return None


def explicit_operator(matrix: np.ndarray):
    """``apply`` for an explicit matrix: X -> A X, or A* Y with ``adjoint``."""
    return lambda columns, adjoint=False: (matrix.conj().T if adjoint else matrix) @ columns


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
