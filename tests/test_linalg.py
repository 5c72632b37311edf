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
    # tall inputs go through QR first; the rank decision and the null space
    # must be those of a direct full SVD of the same matrix
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
