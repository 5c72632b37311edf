"""The reduced intertwiner system in Gram form: agreement with the dense
Kronecker reference and with the row-stacked first-generator reduction it
replaced, invariance of the decision under the symmetries the maths
guarantees, the edge cases of the eigenbasis reduction, near-degenerate
spectra and isometry defects, and large d."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from affine_actions import (
    AffineAction,
    Cocycle,
    GroupPresentation,
    Representation,
    ToleranceProfile,
    affine_commutant,
    analyze_direct_sum,
    check_equivalence,
    commutant_basis,
    conjugate_by_translation,
    decide_irreducibility,
    direct_sum,
    fixed_points,
    fixed_subspace,
    intertwining_residual,
)
from affine_actions.actions import _moved_values, unit_scale
from affine_actions.linalg import (
    null_space_basis,
    numerical_rank,
    orthonormal_columns,
    residual_ok,
    solve_affine_system,
)
from affine_actions.reps import _generic_weights, boundary_split, hom_basis, intertwiner_system

from helpers import (
    FAMILIES,
    TOL,
    dihedral_group,
    f2_group,
    free_abelian_group,
    kronecker_intertwiner_system,
    lstsq_solve,
    permuted,
    qr_null_space,
    random_action,
    random_dihedral_rep,
    random_field_vector,
    random_free_rep,
    random_isometry,
    random_orthogonal,
    row_stacked_intertwiner_system,
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
        s = unit_scale(action)
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


def same_subspace(a: np.ndarray, b: np.ndarray) -> float:
    """Distance between the orthogonal projectors onto two column spans."""
    return float(np.linalg.norm(a @ a.conj().T - b @ b.conj().T))


def coboundary_rule_solution(a1: AffineAction, a2: AffineAction, s: float):
    """The solve of ``check_equivalence`` at scale s: sum_j x_j T_j b1 + c
    = b2 with c in the image of ``boundary_split(pi2)``. Returns the
    particular solution as one (vec T, t) column with t = B2+ (sum_j x_j
    T_j b1 - b2), and the vec T columns of the homogeneous part; None when
    the system is inconsistent."""
    homs, split = hom_basis(a1.rep, a2.rep), boundary_split(a2.rep)
    moved, rhs = _moved_values(homs, a1, s), a2.cocycle.coordinates() / s
    solution = solve_affine_system(np.hstack([moved, split.image]), rhs, a1.tol)
    if solution is None:
        return None
    vec, x = homs.reshape(len(homs), -1).T, solution.particular[: len(homs)]
    return np.concatenate([vec @ x, split.pinv @ (moved @ x - rhs)]), vec @ solution.homogeneous[: len(homs)]


def against_lstsq_reference(a1: AffineAction, a2: AffineAction, tol: ToleranceProfile, label):
    """The coboundary rule of ``check_equivalence`` against the row-stacked
    least-squares solve of the joint (T, t) system. Asserts that both reach
    the same consistency verdict; when consistent, returns the residual of
    the rule's particular (T, t) in the joint system, the reference's bound
    eps_residual (1 + ||rhs||) on it, ||T|| + ||t||, and orthonormal bases
    of the vec T spans of the two solution sets. None when inconsistent."""
    s = unit_scale(a1, a2)
    values1, values2 = [b / s for b in a1.cocycle.values], [b / s for b in a2.cocycle.values]
    matrix, rhs, ref_lift = row_stacked_intertwiner_system(a1.rep, a2.rep, values1, values2, tol)
    reference, solution = lstsq_solve(matrix, rhs, tol), coboundary_rule_solution(a1, a2, s)
    assert (solution is None) == (reference is None), label
    if solution is None:
        return None
    particular, spans = solution
    # ref_lift is an isometric embedding: its adjoint gives reduced unknowns
    embedding = ref_lift(np.eye(matrix.shape[1], dtype=matrix.dtype))
    residual = float(np.linalg.norm(matrix @ (embedding.conj().T @ particular) - rhs))
    bound = tol.eps_residual * (1.0 + float(np.linalg.norm(rhs)))
    n = a1.dim * a2.dim
    size = float(np.linalg.norm(particular[:n]) + np.linalg.norm(particular[n:]))
    return residual, bound, size, orthonormal_columns(spans, tol), orthonormal_columns(ref_lift(reference[1])[:n], tol)


@pytest.mark.parametrize("double", [False, True], ids=["single", "double"])
@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_gram_path_matches_row_stacked_qr_reference(family, field, double):
    for seed in range(12):
        action = family_action(family, field, seed, double)
        rep = action.rep
        s = unit_scale(action)
        values = [b / s for b in action.cocycle.values]
        gram, apply, lift = intertwiner_system(rep, rep)
        matrix, _, ref_lift = row_stacked_intertwiner_system(rep, rep)
        basis, reference = lift(null_space_basis(gram, TOL, apply)), ref_lift(qr_null_space(matrix))
        assert basis.shape == reference.shape, (family, seed)
        assert same_subspace(basis, reference) <= 1e-8, (family, seed)
        # the staged affine commutant spans the joint system's null space
        matrix, _, ref_lift = row_stacked_intertwiner_system(rep, rep, values)
        reference = ref_lift(qr_null_space(matrix))
        pairs = affine_commutant(action).pairs
        basis = np.array([np.concatenate([p.deviation.reshape(-1), p.translation / s]) for p in pairs]).T
        basis = basis.reshape(len(reference), len(pairs))
        assert basis.shape == reference.shape, (family, seed)
        assert same_subspace(basis, reference) <= 1e-8, (family, seed)
        # the equivalence search's coboundary rule: the verdict, a particular
        # (T, t) and the vec T span of the joint least-squares solve
        compared = against_lstsq_reference(action, action, TOL, (family, seed))
        assert compared is not None, (family, seed)
        residual, bound, _, spans, ref_spans = compared
        assert residual <= bound, (family, seed)
        assert spans.shape == ref_spans.shape, (family, seed)
        assert same_subspace(spans, ref_spans) <= 1e-8, (family, seed)


def test_gram_matrix_is_the_system_gram_matrix():
    # A*A from the assembled entries against A applied to the identity
    for seed, (family, field) in enumerate([("f2", "real"), ("f2", "complex"), ("dihedral", "complex"), ("s3", "real")]):
        rep = family_action(family, field, seed, double=seed % 2 == 1).rep
        gram, apply, _ = intertwiner_system(rep, rep)
        matrix = apply(np.eye(len(gram), dtype=gram.dtype))
        assert matrix.dtype == rep.dtype
        assert np.linalg.norm(gram - matrix.conj().T @ matrix) <= 1e-13 * max(1.0, np.linalg.norm(gram))


def test_reduced_system_has_fewer_unknowns_on_generic_input():
    rng = np.random.default_rng(3)
    for field in ("real", "complex"):
        rep = random_free_rep(f2_group(), 10, field, rng)
        gram, apply, _ = intertwiner_system(rep, rep)
        # generic isometries give the generic Hermitian element a simple
        # spectrum: one unknown per coordinate of T~
        assert gram.shape == (10, 10)
        assert gram.dtype == rep.dtype
        assert apply(np.eye(10, dtype=gram.dtype)).shape == (2 * 100, 10)


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
    gram, apply, lift = intertwiner_system(rep, rep)
    # H = 0, so Q = I and one cluster: nine entries of T~; no equations, so
    # A*A = 0 and every unknown is null
    assert gram.shape == (9, 9) and not gram.any()
    assert apply(np.eye(9)).shape == (0, 9)
    assert np.allclose(lift(np.eye(9)), np.eye(9))
    assert null_space_basis(gram, TOL, apply).shape == (9, 9)
    assert len(commutant_basis(rep)) == 9
    # every (U, t) commutes with the empty action: nine U and three t
    assert fixed_subspace(rep).shape == (3, 3)
    assert commutant_dim(AffineAction.from_values(rep, [])) == 12


@pytest.mark.parametrize("field", ["real", "complex"])
def test_scalar_first_generator_keeps_at_most_2d_unknowns(field):
    # pi(s0) = -I made the first generator's eigenbasis one cluster of d^2
    # unknowns; the generic element takes the other generators' spectrum
    rng = np.random.default_rng(5)
    d = 4
    mats = [-np.eye(d), random_isometry(d, field, rng), random_isometry(d, field, rng)]
    rep = Representation(GroupPresentation(["a", "b", "c"]), field, mats, dim=d)
    gram, _, _ = intertwiner_system(rep, rep)
    assert gram.shape[0] <= 2 * d
    reference, _ = reference_null_space(kronecker_intertwiner_system(rep, rep)[0])
    assert len(commutant_basis(rep)) == reference.shape[1] == 1


def test_scalar_first_generator_at_d32_is_decided_in_the_reduced_space():
    rng = np.random.default_rng(6)
    d = 32
    mats = [-np.eye(d), random_isometry(d, "real", rng), random_isometry(d, "real", rng)]
    rep = Representation(GroupPresentation(["a", "b", "c"]), "real", mats, dim=d)
    action = AffineAction.from_values(rep, [rng.standard_normal(d) for _ in range(3)])
    assert intertwiner_system(rep, rep)[0].shape[0] <= 2 * d
    assert decide_irreducibility(action).irreducible


def test_conjugate_phases_fall_in_two_clusters():
    theta = 0.7
    rep = Representation(z_group(), "complex", [np.diag([np.exp(1j * theta), np.exp(-1j * theta)])])
    gram, _, _ = intertwiner_system(rep, rep)
    # the first generator's H = 2 cos(theta) I merged both coordinates; the
    # generic element's i (pi - pi*) term separates them: two unknowns
    assert gram.shape == (2, 2)
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
    assert len(commutant_basis(rep)) == reference.shape[1] == 2


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


PROFILES = {
    "default": TOL,
    "tight": ToleranceProfile(1e-12, 1e-12, 1e-12),
    "rank-below-residual": ToleranceProfile(eps_rank=1e-12, eps_residual=1e-6),
    "rank-above-residual": ToleranceProfile(eps_rank=1e-6, eps_residual=1e-12),
}


def rotation(theta: float) -> np.ndarray:
    return np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])


@pytest.mark.parametrize("profile", sorted(PROFILES))
@pytest.mark.parametrize("theta", [1e-5, 2e-4, 5e-4, 1e-3, 1e-2])
def test_small_angle_equivalence_is_decided_as_the_least_squares_reference(theta, profile):
    # pi(s) - I has singular values ~ theta on the rotation plane, so the
    # translation of the equivalence with a coboundary conjugate is ~ 1/theta:
    # the coboundary rule must reach the row-stacked least-squares verdict,
    # and its solution must meet the joint system
    tol = PROFILES[profile]
    for seed in range(4):
        rng = np.random.default_rng(seed)
        q = random_orthogonal(6, rng)
        block = np.zeros((6, 6))
        block[:2, :2], block[2:, 2:] = rotation(theta), random_orthogonal(4, rng)
        rep = Representation(z_group(), "real", [q @ block @ q.T], tol=tol)
        action = random_action(rep, rng)
        shift = q @ np.concatenate([rng.standard_normal(2) / theta, rng.standard_normal(4)])
        other = conjugate_by_translation(action, shift)
        compared = against_lstsq_reference(action, other, tol, (seed, profile))
        assert compared is not None, (seed, profile)
        # t = B+ (...) is of order 1/theta in the original coordinates, where
        # it carries a rounding error of about eps ||t||: the (T, t) meets the
        # joint system within the certification bound, which grows with ||t||
        residual, bound, size, _, _ = compared
        assert residual <= bound + tol.eps_residual * size, (seed, profile)
        assert check_equivalence(action, other).equivalent, (seed, profile)


@pytest.mark.parametrize("theta", [1e-5, 2e-4, 5e-4, 1e-3, 1e-2])
def test_small_angle_fixed_points_follow_the_coboundary_rule(theta):
    # b = (pi - I) v with ||v|| ~ 1/theta at the 1e-12 profile: a certified
    # fixed point is returned exactly when b's part off range(B), taken from
    # a full SVD of B, is within eps_residual (1 + ||b||)
    tol = PROFILES["tight"]
    for seed in range(4):
        rng = np.random.default_rng(seed)
        q = random_orthogonal(6, rng)
        block = np.zeros((6, 6))
        block[:2, :2], block[2:, 2:] = rotation(theta), random_orthogonal(4, rng)
        rep = Representation(z_group(), "real", [q @ block @ q.T], tol=tol)
        shift = q @ np.concatenate([rng.standard_normal(2) / theta, rng.standard_normal(4)])
        action = conjugate_by_translation(AffineAction.from_values(rep, [np.zeros(6)]), shift)
        b = action.cocycle.coordinates()
        u, singular, _ = np.linalg.svd(rep.boundary_map())
        image = u[:, : numerical_rank(singular, tol)]
        off_image = float(np.linalg.norm(b - image @ (image.T @ b)))
        fixed = fixed_points(action)
        assert (fixed.subspace is not None) == residual_ok(off_image, float(np.linalg.norm(b)), tol.eps_residual), seed
        if fixed.subspace is not None:
            assert fixed.subspace.contains(-shift, ToleranceProfile(eps_residual=1e-6)), seed


def test_consistency_is_decided_by_eps_residual_alone():
    # a Z^2 cocycle 1e-7 away from a coboundary, under eps_rank = 1e-12 and
    # eps_residual = 1e-6: the fixed-point equations and the equivalence with
    # a perturbed conjugate are consistent within eps_residual, although the
    # right-hand side is independent of A's columns far above the rank cutoff
    tol = PROFILES["rank-below-residual"]
    rep = Representation(free_abelian_group(2), "real", [rotation(0.7), rotation(1.9)], tol=tol)
    center = np.array([0.3, -1.2])
    values = [(m - np.eye(2)) @ center for m in rep.matrices]
    values[1] = values[1] + np.array([1e-7, 0.0])
    action = AffineAction(rep, Cocycle(rep, values))
    assert 1e-8 < action.cocycle.relator_defects[0] < 1e-6
    fixed = fixed_points(action)
    assert fixed.subspace is not None and fixed.subspace.dim == 0
    assert np.linalg.norm(fixed.subspace.base + center) <= 1e-6
    moved = conjugate_by_translation(action, np.array([1.0, 2.0]))
    perturbed = [b + np.array([0.0, 1e-7]) for b in moved.cocycle.values]
    other = AffineAction(rep, Cocycle(rep, perturbed))
    assert check_equivalence(action, other).equivalent


# -- near-degenerate spectra and isometry defects ---------------------------


@pytest.mark.parametrize("gap_in_widths", [0.1, 1.0, 10.0])
@pytest.mark.parametrize("multiplicity", [1, 2])
def test_near_degenerate_generic_spectrum(gap_in_widths, multiplicity):
    # pi = diag(e^{i theta1} I_m, e^{i theta2} I_m) on Z, with the phases
    # placed so the generic element's two eigenvalues lie gap * w apart:
    # below w they share a cluster, above it they do not, and the commutant
    # must be the reference's either way
    w = TOL.cluster_width
    weight = complex(_generic_weights(1, "complex")[0])
    # H = 2 Re(weight e^{i theta}) = 2 |weight| cos(theta + arg weight)
    alpha = np.pi / 2 - np.arcsin(np.array([0.0, gap_in_widths * w]) / (2 * abs(weight)))
    phases = np.repeat(np.exp(1j * (alpha - np.angle(weight))), multiplicity)
    rep = Representation(z_group(), "complex", [np.diag(phases)])
    lam = rep.generic_eigenbasis[0]
    assert abs((lam[-1] - lam[0]) / (gap_in_widths * w) - 1.0) < 1e-6
    gram, _, _ = intertwiner_system(rep, rep)
    d = 2 * multiplicity
    if gap_in_widths != 1.0:  # at exactly w roundoff picks the side
        assert gram.shape[0] == (d * d if gap_in_widths < 1 else d * d // 2)
    rng = np.random.default_rng(int(10 * gap_in_widths) + multiplicity)
    action = AffineAction.from_values(rep, [random_field_vector(d, "complex", rng)])
    for act in (action, direct_sum(action, action)):
        s = unit_scale(act)
        values = [b / s for b in act.cocycle.values]
        reference, _ = reference_null_space(kronecker_intertwiner_system(act.rep, act.rep, values, values)[0])
        linear, _ = reference_null_space(kronecker_intertwiner_system(act.rep, act.rep)[0])
        assert commutant_dim(act) == reference.shape[1]
        assert len(commutant_basis(act.rep)) == linear.shape[1]


@pytest.mark.parametrize("defect_in_eps", [0.3, 0.9])
@pytest.mark.parametrize("field", ["real", "complex"])
def test_isometry_defects_near_eps_residual(field, defect_in_eps):
    # generators moved off the isometries by a fraction of the validity
    # bound 2 eps_residual (of the double, whose defect is sqrt 2 times the
    # half's): the defects shift the generic element's spectrum, the clusters
    # absorb the shift, and the verdicts and dimensions are the dense
    # reference's
    for seed in range(6):
        rng = np.random.default_rng(100 + seed)
        d = int(rng.integers(2, 6))
        mats = []
        for m in random_free_rep(f2_group(), d, field, rng).matrices:
            noise = random_isometry(d, field, rng) - np.eye(d)
            mats.append(m + defect_in_eps * TOL.eps_residual / np.sqrt(2) * noise / np.linalg.norm(noise))
        rep = Representation(f2_group(), field, mats)
        assert max(rep.isometry_defects) > 0.2 * defect_in_eps * TOL.eps_residual
        half = random_action(rep, rng)
        for action in (half, direct_sum(half, half)):
            s = unit_scale(action)
            values = [b / s for b in action.cocycle.values]
            reference, _ = reference_null_space(kronecker_intertwiner_system(action.rep, action.rep, values, values)[0])
            linear, _ = reference_null_space(kronecker_intertwiner_system(action.rep, action.rep)[0])
            assert commutant_dim(action) == reference.shape[1], seed
            assert len(commutant_basis(action.rep)) == linear.shape[1], seed
            assert decide_irreducibility(action).reducible == (action is not half), seed


# -- large d ---------------------------------------------------------------


def test_large_real_f2_action_is_irreducible():
    # d = 512: the dense system would have 2 (512^2 + 512) rows (README
    # "How the commutant is solved" has the time and memory)
    rng = np.random.default_rng(1)
    rep = random_free_rep(f2_group(), 512, "real", rng)
    action = AffineAction.from_values(rep, [rng.standard_normal(512) for _ in range(2)])
    verdict = decide_irreducibility(action)
    assert verdict.irreducible
    assert len(verdict.commutant) == 0


def test_large_double_is_reducible_with_projections():
    rng = np.random.default_rng(2)
    rep = random_free_rep(f2_group(), 256, "real", rng)
    action = AffineAction.from_values(rep, [rng.standard_normal(256) for _ in range(2)])
    analysis = analyze_direct_sum(action, action)
    assert analysis.verdict.reducible
    assert analysis.projections is not None
    assert analysis.projections.residuals["intertwining"] <= 1e-8
