import numpy as np
import pytest

from affine_actions.linalg import (
    DEFAULT_TOL,
    ToleranceProfile,
    as_field_array,
    hermitian_eigensystem,
    null_space_basis,
    numerical_rank,
    orthonormal_columns,
    solve_affine_system,
)

from helpers import lstsq_solve

RNG = np.random.default_rng(7)


def test_tolerance_profile_bounds():
    with pytest.raises(ValueError):
        ToleranceProfile(eps_rank=0.0)
    with pytest.raises(ValueError):
        ToleranceProfile(eps_residual=0.5)


def test_as_field_array_rejects_nan_and_complex_into_real():
    with pytest.raises(ValueError):
        as_field_array([np.nan], "real")
    with pytest.raises(ValueError):
        as_field_array([1 + 1j], "real")
    assert as_field_array([1.0], "complex").dtype == np.complex128


def test_null_space_of_zero_matrix_is_everything():
    basis = null_space_basis(np.zeros((2, 2)))
    assert basis.shape == (2, 2)
    assert np.allclose(basis.conj().T @ basis, np.eye(2))


def test_null_space_of_identity_is_empty():
    assert null_space_basis(np.eye(3)).shape == (3, 0)


def test_null_space_rank_one():
    basis = null_space_basis(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert basis.shape == (2, 1)
    expected = np.array([1.0, -1.0]) / np.sqrt(2.0)
    assert min(np.linalg.norm(basis[:, 0] - expected), np.linalg.norm(basis[:, 0] + expected)) < 1e-12


@pytest.mark.parametrize("field", ["real", "complex"])
def test_null_space_residual_and_orthonormality_random(field):
    for _ in range(25):
        rows, cols = int(RNG.integers(1, 7)), int(RNG.integers(1, 7))
        mat = RNG.standard_normal((rows, cols))
        if field == "complex":
            mat = mat + 1j * RNG.standard_normal((rows, cols))
        # plant some rank deficiency
        if cols >= 2:
            mat[:, -1] = mat[:, 0]
        basis = null_space_basis(mat)
        if basis.shape[1]:
            norm = np.linalg.norm(mat)
            assert np.linalg.norm(mat @ basis, axis=0).max() <= DEFAULT_TOL.eps_residual * (1 + norm)
            gram = basis.conj().T @ basis
            assert np.linalg.norm(gram - np.eye(basis.shape[1])) <= DEFAULT_TOL.eps_residual


@pytest.mark.parametrize("field", ["real", "complex"])
def test_null_space_of_tall_matrix_matches_direct_svd(field):
    # tall inputs are decided through their Gram matrix; the rank decision
    # and the null space must be those of a direct full SVD of the same matrix
    for _ in range(25):
        cols = int(RNG.integers(1, 9))
        rows = cols + int(RNG.integers(1, 30))
        rank = int(RNG.integers(0, cols + 1))
        left, right = RNG.standard_normal((rows, rank)), RNG.standard_normal((rank, cols))
        if field == "complex":
            left = left + 1j * RNG.standard_normal((rows, rank))
        mat = left @ right
        _, s, vh = np.linalg.svd(mat, full_matrices=True)
        expected = vh[numerical_rank(s, DEFAULT_TOL) :].conj().T
        basis = null_space_basis(mat)
        assert basis.shape == expected.shape == (cols, cols - rank)
        r = np.linalg.qr(mat, mode="r")
        assert np.allclose(np.linalg.svd(r, compute_uv=False), s, rtol=0, atol=1e-12 * max(s[0], 1.0))
        assert np.linalg.norm(basis.conj().T @ basis - np.eye(cols - rank)) <= DEFAULT_TOL.eps_residual
        # same subspace: the projectors agree
        assert np.linalg.norm(basis @ basis.conj().T - expected @ expected.conj().T) <= DEFAULT_TOL.eps_residual
        if basis.shape[1]:
            assert np.linalg.norm(mat @ basis, axis=0).max() <= DEFAULT_TOL.eps_residual * (1 + np.linalg.norm(mat))


def planted(rows: int, singular_values, field: str, rng) -> np.ndarray:
    """A rows x len(singular_values) matrix with exactly these singular values."""
    cols = len(singular_values)
    left = rng.standard_normal((rows, cols)) + (1j * rng.standard_normal((rows, cols)) if field == "complex" else 0)
    right = rng.standard_normal((cols, cols)) + (1j * rng.standard_normal((cols, cols)) if field == "complex" else 0)
    return np.linalg.qr(left)[0] @ np.diag(singular_values) @ np.linalg.qr(right)[0].conj().T


@pytest.mark.parametrize("sigma_max", [0.5, 1.0, 40.0])
@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("form", ["explicit", "gram"])
def test_planted_singular_values_are_decided_as_a_full_svd_decides(form, field, sigma_max):
    # sigma_max * 1e-6 lies above the cutoff eps_rank * max(sigma_max, 1) and
    # must be kept in the rank; sigma_max * 1e-10 lies below it and must be
    # null, as for a full SVD of the explicit matrix
    rng = np.random.default_rng(int(sigma_max * 10) + (field == "complex"))
    values = sigma_max * np.array([1.0, 0.3, 1e-3, 1e-6, 1e-10, 0.0])
    mat = planted(40, values, field, rng)
    _, s, vh = np.linalg.svd(mat, full_matrices=True)
    expected = vh[numerical_rank(s, DEFAULT_TOL) :].conj().T
    gram = mat.conj().T @ mat
    basis = null_space_basis(mat) if form == "explicit" else null_space_basis(gram, DEFAULT_TOL, mat.__matmul__)
    assert expected.shape[1] == 2
    assert basis.shape == expected.shape
    assert np.linalg.norm(basis @ basis.conj().T - expected @ expected.conj().T) <= 1e-8
    assert np.linalg.norm(mat @ basis) <= DEFAULT_TOL.eps_rank * max(sigma_max, 1.0)


@pytest.mark.parametrize("form", ["explicit", "gram"])
def test_small_operator_keeps_the_cutoff_floor(form):
    # sigma_max < 1: the cutoff is eps_rank * 1, so 5e-9 is null although it
    # is far above eps_rank * sigma_max; the candidate threshold carries the
    # same floor, or that direction would never reach the rank decision
    rng = np.random.default_rng(3)
    mat = planted(120, np.array([2e-5] * 100 + [5e-9]), "real", rng)
    basis = null_space_basis(mat) if form == "explicit" else null_space_basis(mat.T @ mat, DEFAULT_TOL, mat.__matmul__)
    assert basis.shape == (101, 1)
    assert np.linalg.norm(mat @ basis) <= 1e-8


def test_null_space_of_implicit_zero_operator_is_everything():
    # no rows: A*A = 0, every unknown is a candidate and null
    basis = null_space_basis(np.zeros((4, 4)), DEFAULT_TOL, lambda columns: np.zeros((0, columns.shape[1])))
    assert basis.shape == (4, 4)
    assert np.allclose(basis.conj().T @ basis, np.eye(4))


@pytest.mark.parametrize("field", ["real", "complex"])
def test_solve_affine_matches_the_least_squares_reference(field):
    for _ in range(20):
        rows, cols = int(RNG.integers(1, 12)), int(RNG.integers(1, 6))
        mat = planted(max(rows, cols), RNG.standard_normal(cols) * (RNG.random(cols) < 0.7), field, RNG)
        rhs = mat @ RNG.standard_normal(cols) if RNG.random() < 0.8 else RNG.standard_normal(mat.shape[0])
        solution, reference = solve_affine_system(mat, rhs), lstsq_solve(mat, rhs)
        assert (solution is None) == (reference is None)
        if solution is None:
            continue
        # the particular solution is the minimum-norm one, as lstsq's
        assert np.linalg.norm(solution.particular - reference[0]) <= 1e-8 * (1 + np.linalg.norm(rhs))
        assert solution.dim == reference[1].shape[1]
        h1, h2 = solution.homogeneous, reference[1]
        assert np.linalg.norm(h1 @ h1.conj().T - h2 @ h2.conj().T) <= 1e-8
        assert np.linalg.norm(h1.conj().T @ solution.particular) <= 1e-8 * (1 + np.linalg.norm(solution.particular))


def test_null_space_without_columns():
    for basis in (
        null_space_basis(np.zeros((5, 0))),
        null_space_basis(np.zeros((0, 0)), DEFAULT_TOL, lambda columns: np.zeros((3, columns.shape[1]))),
    ):
        assert basis.shape == (0, 0)


LSTSQ_PROFILES = [
    ToleranceProfile(),
    ToleranceProfile(eps_rank=1e-12, eps_residual=1e-6),
    ToleranceProfile(eps_rank=1e-6, eps_residual=1e-12),
]


@pytest.mark.parametrize("tol", LSTSQ_PROFILES, ids=["default", "rank-below-residual", "rank-above-residual"])
@pytest.mark.parametrize("field", ["real", "complex"])
def test_solve_affine_consistency_is_the_least_squares_rule(field, tol):
    # the verdict is that of lstsq with the residual bound, whatever eps_rank
    # is: singular values on both sides of each cutoff, and right-hand sides
    # 0.1 and 10 times the bound out of the column space
    rng = np.random.default_rng(11 + (field == "complex"))
    verdicts = set()
    for _ in range(30):
        values = np.array([3.0, 1.0, 1e-3, 1e-5, 1e-9, 1e-11, 0.0])
        mat = planted(12, rng.permutation(values), field, rng)
        rhs = mat @ planted(7, np.ones(1), field, rng)[:, 0]
        if rng.random() < 2 / 3:
            left = np.linalg.svd(mat)[0][:, 7:]
            miss = left @ planted(5, np.ones(1), field, rng)[:, 0]
            rhs = rhs + rng.choice([0.1, 10.0]) * tol.eps_residual * (1 + np.linalg.norm(rhs)) * miss
        reference = lstsq_solve(mat, rhs, tol)
        solution = solve_affine_system(mat, rhs, tol)
        assert (solution is None) == (reference is None)
        verdicts.add(solution is None)
        if solution is not None:
            assert np.linalg.norm(mat @ solution.particular - rhs) <= tol.eps_residual * (1 + np.linalg.norm(rhs))
            # the null vectors are those of the reference up to the noise
            # of the smallest gap, so compare dimension and residual
            assert solution.dim == reference[1].shape[1]
            assert np.linalg.norm(mat @ solution.homogeneous) <= tol.eps_rank * values[0]
    assert verdicts == {True, False}


def test_null_space_of_tall_matrix_keeps_real_dtype():
    mat = np.vstack([np.eye(3)[:, :2] @ np.ones((2, 4)), np.zeros((5, 4))])
    basis = null_space_basis(mat)
    assert basis.dtype == np.float64
    assert basis.shape == (4, 3)


def test_solve_affine_identity():
    sol = solve_affine_system(np.eye(2), np.array([1.0, 2.0]))
    assert sol is not None
    assert np.allclose(sol.particular, [1.0, 2.0])
    assert sol.homogeneous.shape == (2, 0)


def test_solve_affine_inconsistent():
    assert solve_affine_system(np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([0.0, 1.0])) is None


def test_solve_affine_underdetermined():
    sol = solve_affine_system(np.array([[1.0, 1.0]]), np.array([2.0]))
    assert sol is not None
    assert abs(sol.particular.sum() - 2.0) < 1e-12
    assert sol.homogeneous.shape == (2, 1)
    direction = sol.homogeneous[:, 0]
    assert abs(direction[0] + direction[1]) < 1e-12


def test_solve_affine_random_consistency():
    for _ in range(20):
        rows, cols = int(RNG.integers(1, 6)), int(RNG.integers(1, 6))
        mat = RNG.standard_normal((rows, cols))
        x = RNG.standard_normal(cols)
        rhs = mat @ x
        sol = solve_affine_system(mat, rhs)
        assert sol is not None
        assert np.linalg.norm(mat @ sol.particular - rhs) <= DEFAULT_TOL.eps_residual * (1 + np.linalg.norm(rhs))
        if sol.homogeneous.shape[1]:
            assert np.linalg.norm(mat @ sol.homogeneous, axis=0).max() <= DEFAULT_TOL.eps_residual * (
                1 + np.linalg.norm(mat)
            )


def test_hermitian_eigensystem_examples():
    clusters = hermitian_eigensystem(np.diag([0.0, 4.0]))
    assert [round(v, 12) for v, _ in clusters] == [0.0, 4.0]

    clusters = hermitian_eigensystem(np.eye(2))
    assert len(clusters) == 1
    assert clusters[0][1].shape == (2, 2)

    clusters = hermitian_eigensystem(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose([v for v, _ in clusters], [1.0, 3.0])


def test_hermitian_eigensystem_rejects_nonsymmetric():
    with pytest.raises(ValueError):
        hermitian_eigensystem(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_eigensystem_reconstruction_random():
    for _ in range(10):
        n = int(RNG.integers(1, 6))
        raw = RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n))
        mat = raw + raw.conj().T
        clusters = hermitian_eigensystem(mat)
        rebuilt = sum(v * (b @ b.conj().T) for v, b in clusters)
        norm = np.linalg.norm(mat)
        # reconstruction error includes the cluster-averaging width
        assert np.linalg.norm(rebuilt - mat) <= (DEFAULT_TOL.eps_residual + DEFAULT_TOL.eps_eig) * (1 + norm)
        for _, b in clusters:
            proj = b @ b.conj().T
            assert np.linalg.norm(proj @ proj - proj) <= DEFAULT_TOL.eps_residual * (1 + 1)


def test_orthonormal_columns_spans_column_space():
    mat = np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0]])
    basis = orthonormal_columns(mat)
    assert basis.shape == (3, 1)
