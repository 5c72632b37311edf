"""The reduced intertwiner system: agreement with the dense Kronecker
reference, invariance of the decision under the symmetries the maths
guarantees, the edge cases of the eigenbasis reduction, and large d."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from affine_actions import (
    AffineAction,
    GroupPresentation,
    Representation,
    ToleranceProfile,
    affine_commutant,
    analyze_direct_sum,
    check_equivalence,
    commutant_basis,
    decide_irreducibility,
    direct_sum,
    fixed_subspace,
    intertwining_residual,
)
from affine_actions.actions import unit_scale
from affine_actions.linalg import numerical_rank
from affine_actions.reps import intertwiner_system

from helpers import (
    FAMILIES,
    TOL,
    dihedral_group,
    f2_group,
    kronecker_intertwiner_system,
    permuted,
    random_action,
    random_dihedral_rep,
    random_field_vector,
    random_free_rep,
    random_isometry,
    z_group,
)

def family_action(family: str, field: str, seed: int, double: bool, max_dim: int = 6) -> AffineAction:
    rng = np.random.default_rng(seed)
    dim = 3 if family == "heisenberg" and rng.random() < 0.5 else int(rng.integers(1, max_dim + 1))
    action = random_action(FAMILIES[family](rng, dim, field), rng)
    return direct_sum(action, action) if double else action


def reference_null_space(matrix: np.ndarray, tol: ToleranceProfile = TOL) -> tuple[np.ndarray, float]:
    """Null space by a direct full SVD of the dense system, and its rank cutoff."""
    _, s, vh = np.linalg.svd(matrix, full_matrices=True)
    return vh[numerical_rank(s, tol) :].conj().T, tol.eps_rank * max(float(s[0]) if s.size else 0.0, 1.0)


def commutant_dim(action: AffineAction) -> int:
    return len(affine_commutant(action).pairs)


# -- differential test against the Kronecker reference ---------------------


@pytest.mark.parametrize("double", [False, True], ids=["single", "double"])
@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_reduced_system_matches_kronecker_reference(family, field, double):
    for seed in range(12):
        action = family_action(family, field, seed, double)
        rep = action.rep
        s = unit_scale(TOL, action)
        values = [b / s for b in action.cocycle.values]

        ref_matrix = kronecker_intertwiner_system(rep, rep, values, values)[0]
        ref_linear_matrix = kronecker_intertwiner_system(rep, rep)[0]
        ref_affine, affine_cutoff = reference_null_space(ref_matrix)
        ref_linear, linear_cutoff = reference_null_space(ref_linear_matrix)
        pairs = affine_commutant(action).pairs
        basis = commutant_basis(rep)
        assert len(pairs) == ref_affine.shape[1], (family, seed)
        assert len(basis) == ref_linear.shape[1], (family, seed)
        reference_reducible = ref_affine.shape[1] > fixed_subspace(rep).shape[1]
        assert decide_irreducibility(action).reducible == reference_reducible, (family, seed)

        # every lifted basis vector is a null vector of the dense system
        for pair in pairs:
            column = np.concatenate([pair.deviation.reshape(-1), pair.translation / s])
            assert np.linalg.norm(ref_matrix @ column) <= affine_cutoff, (family, seed)
        for element in basis:
            assert np.linalg.norm(ref_linear_matrix @ element.reshape(-1)) <= linear_cutoff, (family, seed)
        # the lifted bases are orthonormal in (vec U, t/s) and in vec T
        for columns in (
            [np.concatenate([p.deviation.reshape(-1), p.translation / s]) for p in pairs],
            [element.reshape(-1) for element in basis],
        ):
            if columns:
                stacked = np.column_stack(columns)
                assert np.linalg.norm(stacked.conj().T @ stacked - np.eye(len(columns))) <= 1e-10, (family, seed)


def test_reduced_system_has_fewer_unknowns_on_generic_input():
    rng = np.random.default_rng(3)
    for field, per_coordinate in (("real", 2), ("complex", 1)):
        action = random_action(random_free_rep(f2_group(), 10, field, rng), rng)
        values = action.cocycle.values
        matrix, rhs, _ = intertwiner_system(action.rep, action.rep, values, values)
        # a generic unitary has simple eigenvalues, so H does too; a real
        # orthogonal matrix pairs e^{+-i theta} into one eigenvalue of H
        # (except at +-1), so its clusters have size at most 2
        assert matrix.shape[0] == 2 * (100 + 10)
        assert 10 + 10 <= matrix.shape[1] <= per_coordinate * 10 + 10
        assert rhs.shape == (matrix.shape[0],)
        assert matrix.dtype == action.rep.dtype


# -- invariance of the decision ---------------------------------------------

INVARIANCE_FAMILIES = ["f2", "dihedral", "z2-abelian", "heisenberg", "s3"]

cases = st.tuples(
    st.sampled_from(INVARIANCE_FAMILIES),
    st.sampled_from(["real", "complex"]),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)


@settings(max_examples=40, deadline=None)
@given(cases, st.integers(0, 2**32 - 1))
def test_verdict_invariant_under_generator_permutation(case, perm_seed):
    action = family_action(*case)
    perm = list(np.random.default_rng(perm_seed).permutation(action.presentation.num_generators))
    if perm[0] == 0:
        perm = perm[1:] + perm[:1]  # a new first generator, so a new eigenbasis
    other = permuted(action, perm)
    assert decide_irreducibility(other).reducible == decide_irreducibility(action).reducible
    assert commutant_dim(other) == commutant_dim(action)


@settings(max_examples=40, deadline=None)
@given(cases, st.integers(0, 2**32 - 1))
def test_verdict_invariant_under_change_of_basis(case, basis_seed):
    action = family_action(*case)
    q = random_isometry(action.dim, action.field, np.random.default_rng(basis_seed))
    rep = Representation(
        action.presentation, action.field, [q @ m @ q.conj().T for m in action.rep.matrices], dim=action.dim
    )
    other = AffineAction.from_values(rep, [q @ b for b in action.cocycle.values])
    assert decide_irreducibility(other).reducible == decide_irreducibility(action).reducible
    assert commutant_dim(other) == commutant_dim(action)


@settings(max_examples=40, deadline=None)
@given(cases, st.floats(-6.0, 9.0))
def test_verdict_invariant_under_cocycle_scaling(case, log_scale):
    action = family_action(*case)
    scale = 10.0**log_scale
    other = AffineAction.from_values(action.rep, [scale * b for b in action.cocycle.values])
    assert decide_irreducibility(other).reducible == decide_irreducibility(action).reducible
    assert commutant_dim(other) == commutant_dim(action)


# -- edge cases of the reduction ------------------------------------------


def test_no_generators_keeps_every_unknown():
    rep = Representation(GroupPresentation([]), "complex", [], dim=3)
    matrix, rhs, lift = intertwiner_system(rep, rep, [], [])
    assert matrix.shape == (0, 12) and rhs.shape == (0,)
    # Q = I and one cluster: the lift is the identity embedding
    assert np.allclose(lift(np.eye(12)), np.eye(12))
    assert len(commutant_basis(rep)) == 9


@pytest.mark.parametrize("field", ["real", "complex"])
def test_scalar_first_generator_is_one_cluster(field):
    rng = np.random.default_rng(5)
    d = 4
    mats = [-np.eye(d), random_isometry(d, field, rng), random_isometry(d, field, rng)]
    rep = Representation(GroupPresentation(["a", "b", "c"]), field, mats, dim=d)
    matrix, _, _ = intertwiner_system(rep, rep)
    assert matrix.shape[1] == d * d
    assert len(commutant_basis(rep)) == 1


def test_conjugate_phases_share_a_cluster_but_not_the_commutant():
    theta = 0.7
    rep = Representation(z_group(), "complex", [np.diag([np.exp(1j * theta), np.exp(-1j * theta)])])
    matrix, _, _ = intertwiner_system(rep, rep)
    # H = 2 cos(theta) I: both coordinates in one cluster, four unknowns
    assert matrix.shape[1] == 4
    basis = commutant_basis(rep)
    assert len(basis) == 2
    for element in basis:
        assert abs(element[0, 1]) < 1e-10 and abs(element[1, 0]) < 1e-10


@pytest.mark.parametrize(
    "tol, digits",
    [(TOL, 9), (ToleranceProfile(eps_rank=1e-3, eps_residual=1e-3), 4)],
    ids=["default", "loose"],
)
def test_clusters_absorb_accepted_isometry_defects(tol, digits):
    # a rotation with its diagonal rounded apart in the last digit: H has two
    # eigenvalues 2 * 10^-digits apart, yet the dense system keeps J = [[0, -1],
    # [1, 0]] in the commutant at the rank cutoff, so the two must share a
    # cluster (at eps_eig = 1e-8 and digits = 4 a width of sqrt(eps_eig) would
    # split them)
    c, s = round(np.cos(1.0), digits), round(np.sin(1.0), digits)
    m = np.array([[c, -s], [s, c + 10.0**-digits]])
    rep = Representation(z_group(), "real", [m], tol=tol)
    reference, _ = reference_null_space(kronecker_intertwiner_system(rep, rep)[0], tol)
    assert len(commutant_basis(rep, tol)) == reference.shape[1] == 2


@pytest.mark.parametrize("field", ["real", "complex"])
def test_equivalence_with_unitary_conjugate_is_found_and_certified(field):
    rng = np.random.default_rng(11)
    action = random_action(random_dihedral_rep(5, field, rng), rng)
    q = random_isometry(5, field, rng)
    shift = random_field_vector(5, field, rng)
    rep = Representation(dihedral_group(), field, [q @ m @ q.conj().T for m in action.rep.matrices])
    # conjugate by the affine isometry v -> q v - shift
    values = [q @ b + (q @ m @ q.conj().T) @ shift - shift for m, b in zip(action.rep.matrices, action.cocycle.values)]
    other = AffineAction.from_values(rep, values)
    result = check_equivalence(action, other)
    assert result.equivalent
    assert result.residuals["intertwining"] == intertwining_residual(action, other, result.intertwiner)
    assert result.residuals["intertwining"] <= 1e-8
    assert numerical_rank(np.linalg.svd(result.intertwiner.linear, compute_uv=False), TOL) == 5


def test_equivalence_between_different_dimensions_is_definitely_not_found():
    rng = np.random.default_rng(12)
    small = random_action(random_free_rep(f2_group(), 2, "real", rng), rng)
    large = random_action(random_free_rep(f2_group(), 3, "real", rng), rng)
    for a1, a2 in ((small, large), (large, small)):
        result = check_equivalence(a1, a2)
        assert not result.equivalent and not result.probabilistic


# -- large d ---------------------------------------------------------------


def test_large_real_f2_action_is_irreducible():
    rng = np.random.default_rng(1)
    rep = random_free_rep(f2_group(), 96, "real", rng)
    action = AffineAction.from_values(rep, [rng.standard_normal(96) for _ in range(2)])
    verdict = decide_irreducibility(action)
    assert verdict.irreducible
    assert len(verdict.commutant) == 0


def test_large_double_is_reducible_with_projections():
    rng = np.random.default_rng(2)
    rep = random_free_rep(f2_group(), 48, "real", rng)
    action = AffineAction.from_values(rep, [rng.standard_normal(48) for _ in range(2)])
    analysis = analyze_direct_sum(action, action)
    assert analysis.verdict.reducible
    assert analysis.projections is not None
    assert analysis.projections.residuals["intertwining"] <= 1e-8
