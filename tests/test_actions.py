import numpy as np
import pytest

from affine_actions import (
    AffineAction,
    AffineMap,
    GroupPresentation,
    Representation,
    ToleranceProfile,
    Word,
    WitnessError,
    affine_commutant,
    analyze_direct_sum,
    check_equivalence,
    check_invariance,
    commutant_residual,
    conjugate_by_translation,
    decide_irreducibility,
    direct_sum,
    fixed_points,
    fixed_subspace,
    intertwining_residual,
    invariant_subspace_from_witness,
    project_action,
)
from affine_actions.actions import ActionError, certification_scale, direct_sum
from affine_actions.linalg import residual_ok

from helpers import (
    FAMILIES,
    TOL,
    abelian_oracle_is_irreducible,
    counting_solves,
    dihedral_group,
    f2_group,
    random_abelian_rep,
    random_action,
    random_action_for,
    random_field_vector,
    random_free_rep,
    roundoff_identity_action,
    z2_group,
    z_group,
)

RNG = np.random.default_rng(23)


def glide_action():
    z = z_group()
    rep = Representation(z, "real", [np.diag([1.0, -1.0])])
    return AffineAction.from_values(rep, [np.array([1.0, 2.0])])


def dihedral_action():
    dih = dihedral_group()
    rep = Representation(dih, "complex", [np.eye(1, dtype=complex), -np.eye(1, dtype=complex)])
    return AffineAction.from_values(rep, [np.array([1.0 + 0j]), np.array([0.0 + 0j])])


def translation_action(value=1.0):
    z = z_group()
    rep = Representation(z, "real", [np.eye(1)])
    return AffineAction.from_values(rep, [np.array([value])])


def test_evaluate_glide_generator():
    action = glide_action()
    mapping = action.evaluate(action.presentation.parse_word("t"))
    assert np.allclose(mapping(np.array([0.0, 0.0])), [1.0, 2.0])
    assert np.allclose(mapping(np.array([5.0, 3.0])), [6.0, -1.0])


def test_evaluate_glide_square_translates_along_axis():
    action = glide_action()
    mapping = action.evaluate(action.presentation.parse_word("t t"))
    assert np.allclose(mapping.linear, np.eye(2))
    assert np.allclose(mapping.translation, [2.0, 0.0])


def test_evaluate_empty_word_is_identity_map():
    action = glide_action()
    mapping = action.evaluate(Word())
    assert np.allclose(mapping.linear, np.eye(2))
    assert np.allclose(mapping.translation, [0.0, 0.0])


def test_evaluate_composition_law_random_words():
    rep = random_free_rep(f2_group(), 3, "complex", RNG)
    action = random_action(rep, RNG)
    for _ in range(25):
        u = Word(tuple((int(RNG.integers(0, 2)), int(RNG.choice([1, -1]))) for _ in range(int(RNG.integers(0, 7)))))
        v = Word(tuple((int(RNG.integers(0, 2)), int(RNG.choice([1, -1]))) for _ in range(int(RNG.integers(0, 7)))))
        combined = action.evaluate(u * v)
        composed = action.evaluate(u).compose(action.evaluate(v))
        assert np.linalg.norm(combined.linear - composed.linear) < 1e-10
        assert np.linalg.norm(combined.translation - composed.translation) < 1e-10


def test_fixed_points_of_coboundary_action():
    rep = random_free_rep(f2_group(), 3, "complex", RNG)
    v = random_field_vector(3, "complex", RNG)
    values = [m @ v - v for m in rep.matrices]
    action = AffineAction.from_values(rep, values)
    subspace = fixed_points(action).subspace
    assert subspace is not None
    assert subspace.contains(-v)


def test_fixed_points_glide_empty():
    assert fixed_points(glide_action()).subspace is None


def test_fixed_points_trivial_action_whole_space():
    z = z_group()
    rep = Representation(z, "real", [np.eye(2)])
    action = AffineAction.from_values(rep, [np.zeros(2)])
    subspace = fixed_points(action).subspace
    assert subspace is not None and subspace.dim == 2


def test_fixed_points_of_a_roundoff_identity_translation_are_empty():
    # every point moves by e1; the roundoff of q q^T - I must not be
    # inverted into a whole-space "fixed" subspace with a huge base
    for seed in range(20):
        assert fixed_points(roundoff_identity_action(seed)).subspace is None, seed


def test_affine_commutant_glide_structure():
    pairs = affine_commutant(glide_action()).pairs
    assert len(pairs) == 2
    for pair in pairs:
        u, t = pair.deviation, pair.translation
        assert abs(u[0, 0]) < 1e-10
        assert abs(u[0, 1]) < 1e-10 and abs(u[1, 0]) < 1e-10
        assert abs(u[1, 1] + t[1]) < 1e-10  # t_y = -u


def test_affine_commutant_dihedral_trivial():
    assert affine_commutant(dihedral_action()).pairs == ()


def test_affine_commutant_everything_for_point_mass():
    z = z_group()
    rep = Representation(z, "complex", [np.eye(1, dtype=complex)])
    action = AffineAction.from_values(rep, [np.zeros(1, dtype=complex)])
    assert len(affine_commutant(action).pairs) == 2  # all (U, t) on C^1


def test_commutant_elements_commute_with_random_words():
    action = glide_action()
    pairs = affine_commutant(action).pairs
    for _ in range(20):
        word = Word(tuple((0, int(RNG.choice([1, -1]))) for _ in range(int(RNG.integers(0, 6)))))
        mapping = action.evaluate(word)
        for pair in pairs:
            element = pair.as_affine_map()
            lhs = element.compose(mapping)
            rhs = mapping.compose(element)
            assert np.linalg.norm(lhs.linear - rhs.linear) < 1e-9
            assert np.linalg.norm(lhs.translation - rhs.translation) < 1e-9


def test_glide_is_reducible_with_axis_witness():
    verdict = decide_irreducibility(glide_action())
    assert verdict.reducible
    sub = verdict.witness_subspace
    assert sub.dim == 1
    assert abs(sub.base[1] - 1.0) < 1e-8  # the axis y = 1
    assert abs(abs(sub.directions[0, 0]) - 1.0) < 1e-8


def test_dihedral_is_irreducible():
    verdict = decide_irreducibility(dihedral_action())
    assert verdict.irreducible
    assert verdict.translation_directions.shape == (1, 0)


def test_translations_are_irreducible_with_full_directions():
    verdict = decide_irreducibility(translation_action())
    assert verdict.irreducible
    assert verdict.translation_directions.shape == (1, 1)


def test_double_of_any_action_is_reducible():
    action = dihedral_action()
    verdict = decide_irreducibility(direct_sum(action, action))
    assert verdict.reducible


def test_witness_extraction_glide_hand_values():
    action = glide_action()
    witness = AffineMap(np.diag([1.0, 2.0]) * 0 + np.diag([1.0, 0.0]) @ np.eye(2), np.zeros(2))
    # proper witness: U = diag(0, 1), t = (0, -1)
    witness = AffineMap(np.eye(2) + np.diag([0.0, 1.0]), np.array([0.0, -1.0]))
    subspace = invariant_subspace_from_witness(action, witness)
    assert abs(subspace.base[1] - 1.0) < 1e-10
    assert subspace.dim == 1
    assert abs(abs(subspace.directions[0, 0]) - 1.0) < 1e-10


def test_witness_extraction_reads_a_complex_linear_part_with_a_real_translation():
    # the glide witness with a complex-typed linear part and a real
    # translation: the commutant residual takes both in the wider type
    action = glide_action()
    witness = AffineMap(np.eye(2, dtype=complex) + np.diag([0.0, 1.0]), np.array([0.0, -1.0]))
    subspace = invariant_subspace_from_witness(action, witness)
    assert subspace.dim == 1
    assert abs(subspace.base[1] - 1.0) < 1e-10


def test_witness_extraction_does_not_depend_on_the_witness_norm():
    # the glide witness U = c diag(0, 1), t = c (0, -1) at several c: the
    # witness is rescaled to unit ||U|| before its subspace is read off
    action = glide_action()
    subspaces = [
        invariant_subspace_from_witness(action, AffineMap(np.eye(2) + c * np.diag([0.0, 1.0]), np.array([0.0, -c])))
        for c in (1.0, 1e-3, 1e-5, 1e-7)
    ]
    for subspace in subspaces:
        assert subspace.dim == 1
        assert np.linalg.norm(subspace.base - np.array([0.0, 1.0])) <= 1e-8
        assert abs(abs(subspace.directions[0, 0]) - 1.0) <= 1e-8


def test_witness_extraction_from_projection_through_fixed_point():
    # trivial rep with b = 0: the projector onto an axis commutes, and the
    # extracted subspace is an invariant line through the fixed point
    z = z_group()
    rep = Representation(z, "real", [np.eye(2)])
    action = AffineAction.from_values(rep, [np.zeros(2)])
    projector_map = AffineMap(np.diag([1.0, 0.0]), np.zeros(2))
    subspace = invariant_subspace_from_witness(action, projector_map)
    assert subspace.dim == 1
    assert np.linalg.norm(subspace.base) < 1e-10
    assert abs(abs(subspace.directions[0, 0]) - 1.0) < 1e-10


def test_witness_with_identity_linear_part_rejected():
    action = glide_action()
    with pytest.raises(WitnessError):
        invariant_subspace_from_witness(action, AffineMap(np.eye(2), np.array([1.0, 0.0])))


def test_witness_outside_commutant_rejected():
    action = glide_action()
    bogus = AffineMap(np.eye(2) + np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros(2))
    with pytest.raises(WitnessError):
        invariant_subspace_from_witness(action, bogus)


def test_project_glide_onto_vertical_axis():
    action = glide_action()
    basis = np.array([[0.0], [1.0]])
    projected = project_action(action, basis)
    assert np.allclose(projected.rep.matrices[0], [[-1.0]])
    assert np.allclose(projected.cocycle.values[0], [2.0])
    verdict = decide_irreducibility(projected)
    assert verdict.reducible  # fixed point at y = 1
    sub = fixed_points(projected).subspace
    assert sub is not None and abs(sub.base[0] - 1.0) < 1e-10


def test_project_onto_whole_space_is_same_action():
    action = glide_action()
    projected = project_action(action, np.eye(2))
    assert np.allclose(projected.rep.matrices[0], action.rep.matrices[0])
    assert np.allclose(projected.cocycle.values[0], action.cocycle.values[0])


def test_project_rejects_non_invariant_subspace():
    action = glide_action()
    bad = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
    with pytest.raises(ActionError):
        project_action(action, bad)


@pytest.mark.parametrize(
    "basis, message",
    [
        (np.array([[2.0], [0.0]]), "not orthonormal"),
        (np.zeros((2, 0)), r"k >= 1, got \(2, 0\)"),
        (np.eye(3)[:, :1], r"k >= 1, got \(3, 1\)"),
        (np.array([0.0, 1.0]), r"k >= 1, got \(2,\)"),
    ],
)
def test_project_refuses_a_basis_that_is_not_an_orthonormal_frame(basis, message):
    with pytest.raises(ActionError, match=message):
        project_action(glide_action(), basis)


def disjoint_irreducible_pair():
    """Two irreducible F2 actions with disjoint linear parts (1-dim vs 2-dim)."""
    f2 = f2_group()
    char_rep = Representation(f2, "complex", [np.array([[1j]]), np.eye(1, dtype=complex)])
    a1 = AffineAction.from_values(char_rep, [np.zeros(1, dtype=complex), np.ones(1, dtype=complex)])
    two_rep = Representation(
        f2,
        "complex",
        [np.diag([1j, -1j]), np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)],
    )
    a2 = AffineAction.from_values(two_rep, [np.array([1.0 + 0j, 0.0]), np.zeros(2, dtype=complex)])
    return a1, a2


def test_projected_actions_of_irreducible_sum_are_irreducible():
    # (A6): projecting an irreducible action onto an invariant subspace stays
    # irreducible; the factor embeddings of a disjoint sum are invariant
    a1, a2 = disjoint_irreducible_pair()
    total = direct_sum(a1, a2)
    assert decide_irreducibility(total).irreducible
    basis1 = np.vstack([np.eye(1), np.zeros((2, 1))]).astype(complex)
    basis2 = np.vstack([np.zeros((1, 2)), np.eye(2)]).astype(complex)
    for basis in (basis1, basis2):
        assert decide_irreducibility(project_action(total, basis)).irreducible


def test_direct_sum_independent_translation_tuples_irreducible():
    z2 = z2_group()
    rep = Representation(z2, "complex", [np.eye(1, dtype=complex)] * 2)
    beta1 = AffineAction.from_values(rep, [np.array([1.0 + 0j]), np.array([0.5 + 0j])])
    beta2 = AffineAction.from_values(rep, [np.array([0.0 + 0j]), np.array([1.0 + 0j])])
    assert decide_irreducibility(direct_sum(beta1, beta2)).irreducible


def test_direct_sum_disjoint_linear_parts_irreducible():
    a1, a2 = disjoint_irreducible_pair()
    assert decide_irreducibility(direct_sum(a1, a2)).irreducible


def test_only_an_irreducible_sum_assembles_its_boundary_split():
    # a Reducible verdict is read off a pair with U != 0, so a double builds
    # no split at its own size; an Irreducible one carries the fixed space,
    # the kernel of that split
    rng = np.random.default_rng(5)
    half = random_action(random_free_rep(f2_group(), 3, "real", rng), rng)
    double = direct_sum(half, half)
    assert decide_irreducibility(double).reducible
    assert "boundary" not in double.rep._solves
    total = direct_sum(*disjoint_irreducible_pair())
    verdict = decide_irreducibility(total)
    assert verdict.irreducible and "boundary" in total.rep._solves
    assert verdict.translation_directions is fixed_subspace(total.rep)


def test_direct_sum_requires_matching_presentations_and_fields():
    f2_real = AffineAction.from_values(
        Representation(f2_group(), "real", [np.eye(1), np.eye(1)]), [np.ones(1), np.zeros(1)]
    )
    with pytest.raises(ActionError):
        direct_sum(translation_action(), f2_real)  # different presentations
    z_complex = AffineAction.from_values(
        Representation(z_group(), "complex", [np.eye(1, dtype=complex)]),
        [np.ones(1, dtype=complex)],
    )
    with pytest.raises(ActionError):
        direct_sum(translation_action(), z_complex)  # different fields
    # same group, different dimensions is allowed
    combined = direct_sum(glide_action(), translation_action())
    assert combined.dim == 3


@pytest.mark.parametrize("operation", [direct_sum, analyze_direct_sum, check_equivalence], ids=lambda f: f.__name__)
def test_two_actions_at_different_profiles_are_refused(operation):
    # each action is decided at its representation's profile, so a call on
    # two actions needs them to share one, in either argument order
    loose_rep = Representation(z_group(), "real", [np.diag([1.0, -1.0])], tol=ToleranceProfile(eps_residual=1e-6))
    loose = AffineAction.from_values(loose_rep, [np.array([1.0, 2.0])])
    for a1, a2 in ((glide_action(), loose), (loose, glide_action())):
        with pytest.raises(ActionError, match="common tolerance profile"):
            operation(a1, a2)
    # equal profiles built apart are one profile
    operation(glide_action(), AffineAction.from_values(
        Representation(z_group(), "real", [np.diag([1.0, -1.0])], tol=ToleranceProfile()), [np.array([1.0, 2.0])]
    ))


def test_conjugate_by_zero_is_identity():
    action = glide_action()
    moved = conjugate_by_translation(action, np.zeros(2))
    assert np.allclose(moved.cocycle.values[0], action.cocycle.values[0])


def test_conjugate_moves_glide_axis():
    action = glide_action()
    moved = conjugate_by_translation(action, np.array([0.0, 1.0]))
    assert np.allclose(moved.cocycle.values[0], [1.0, 0.0])
    verdict = decide_irreducibility(moved)
    assert verdict.reducible
    assert abs(verdict.witness_subspace.base[1]) < 1e-8  # axis now y = 0


def test_conjugating_coboundary_action_by_fixed_point_zeroes_cocycle():
    z = z_group()
    rep = Representation(z, "real", [np.array([[-1.0]])])
    v = np.array([3.0])
    action = AffineAction.from_values(rep, [rep.matrices[0] @ v - v])
    flat = conjugate_by_translation(action, -v)
    assert np.linalg.norm(flat.cocycle.values[0]) < 1e-12


def test_verdict_invariant_under_translation_conjugation():
    samples = [glide_action(), dihedral_action(), translation_action()]
    for _ in range(5):
        rep = random_abelian_rep(z2_group(), 3, "complex", RNG)
        samples.append(random_action(rep, RNG))
    for action in samples:
        base = decide_irreducibility(action).reducible
        for _ in range(3):
            v = random_field_vector(action.dim, action.field, RNG)
            assert decide_irreducibility(conjugate_by_translation(action, v)).reducible == base


def test_equivalence_with_itself():
    action = dihedral_action()
    result = check_equivalence(action, action)
    assert result.equivalent
    assert intertwining_residual(action, action, result.intertwiner) < 1e-8


def test_equivalence_integer_vs_even_translations():
    result = check_equivalence(translation_action(1.0), translation_action(2.0))
    assert result.equivalent
    assert abs(result.intertwiner.linear[0, 0] - 2.0) < 1e-8


def test_equivalence_found_under_random_affine_conjugation():
    # conjugating by c*Q + t (Q an isometry, c > 0) keeps the action affine
    # isometric; the solver must recover an invertible intertwiner
    for i in range(10):
        field = "complex" if i % 2 == 0 else "real"
        dim = int(RNG.integers(1, 4))
        rep = random_free_rep(f2_group(), dim, field, RNG)
        action = random_action(rep, RNG)
        scale = float(RNG.uniform(0.5, 2.0))
        q = scale * _random_isometry(dim, field)
        shift = random_field_vector(dim, field, RNG)
        conj_rep = Representation(
            action.presentation, field, [q @ m @ np.linalg.inv(q) for m in rep.matrices]
        )
        values = [
            q @ b + shift - (q @ m @ np.linalg.inv(q)) @ shift
            for m, b in zip(rep.matrices, action.cocycle.values)
        ]
        other = AffineAction.from_values(conj_rep, values)
        result = check_equivalence(action, other, trials=20, seed=i)
        assert result.equivalent, f"sample {i}"
        assert intertwining_residual(action, other, result.intertwiner) < 1e-7


def _random_isometry(dim, field):
    gauss = RNG.standard_normal((dim, dim))
    if field == "complex":
        gauss = gauss + 1j * RNG.standard_normal((dim, dim))
    q, r = np.linalg.qr(gauss)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def test_equivalence_not_found_against_flip():
    z = z_group()
    flip_rep = Representation(z, "real", [np.array([[-1.0]])])
    flip = AffineAction.from_values(flip_rep, [np.array([1.0])])
    result = check_equivalence(translation_action(), flip)
    assert not result.equivalent


def test_analyze_double_action_yields_identity_intertwiner():
    action = dihedral_action()
    analysis = analyze_direct_sum(action, action)
    assert analysis.verdict.reducible
    proj = analysis.projections
    assert proj.v1_basis.shape == (1, 1) and proj.v2_basis.shape == (1, 1)
    ambient = proj.ambient_map()
    assert np.linalg.norm(ambient.linear - np.eye(1)) < 1e-8
    assert np.linalg.norm(ambient.translation) < 1e-8


def test_analyze_dependent_translations_scaling_intertwiner():
    analysis = analyze_direct_sum(translation_action(1.0), translation_action(2.0))
    assert analysis.verdict.reducible
    ambient = analysis.projections.ambient_map()
    # the projected actions are the full lines; the graph map doubles
    assert abs(ambient.linear[0, 0] - 2.0) < 1e-8


def test_analyze_mixed_dimension_sum_with_shared_component():
    # a1 is a character action; a2 contains the same character with a
    # doubled cocycle next to a disjoint one: the sum is reducible and the
    # analysis must locate the shared line inside a2 with a scaling map
    f2 = f2_group()
    rep1 = Representation(f2, "complex", [np.array([[1j]]), np.eye(1, dtype=complex)])
    a1 = AffineAction.from_values(rep1, [np.zeros(1, dtype=complex), np.ones(1, dtype=complex)])
    rep2 = Representation(f2, "complex", [np.diag([1j, 1.0 + 0j]), np.diag([1.0 + 0j, 1j])])
    a2 = AffineAction.from_values(rep2, [np.array([0.0, 1.0 + 0j]), np.array([2.0 + 0j, 0.0])])
    assert decide_irreducibility(a1).irreducible
    assert decide_irreducibility(a2).irreducible

    analysis = analyze_direct_sum(a1, a2)
    assert analysis.verdict.reducible
    proj = analysis.projections
    assert proj.v1_basis.shape == (1, 1)
    assert proj.v2_basis.shape == (2, 1)
    assert abs(proj.v2_basis[1, 0]) < 1e-8  # the chi-line inside a2
    # the ambient map is basis independent; the unique intertwiner between
    # the chi components sends x to (2x, 0)
    ambient = proj.ambient_map()
    assert np.allclose(ambient.linear, [[2.0], [0.0]], atol=1e-8)
    assert np.allclose(ambient.translation, 0.0, atol=1e-8)


def test_translations_along_the_fixed_space_do_not_shift_the_intertwiner():
    # pi is trivial, so every translation commutes with the sum; the block is
    # taken from the pairs with U != 0 only, whose translations are 0 here
    ambient = analyze_direct_sum(translation_action(1.0), translation_action(2.0)).projections.ambient_map()
    assert np.allclose(ambient.linear, [[2.0]], atol=1e-12) and not ambient.translation.any()


def flip_plane_actions():
    """Z acting on R^2 by diag(-1, 1), with b = 0 and with b = (0, 1): both
    are reducible (the first fixes 0, the second keeps the line x = 0)."""
    rep = Representation(z_group(), "real", [np.diag([-1.0, 1.0])])
    return AffineAction.from_values(rep, [np.zeros(2)]), AffineAction.from_values(rep, [np.array([0.0, 1.0])])


@pytest.mark.parametrize(
    "make, name",
    [
        (lambda: (glide_action(), translation_action()), "first"),
        (lambda: (translation_action(), glide_action()), "second"),
        (flip_plane_actions, "first"),
    ],
)
def test_a_reducible_distinct_summand_is_refused_before_the_sum_is_solved(make, name, monkeypatch):
    # the criterion is for irreducible summands: the summands are decided
    # first, and only their own solves run, none at d1 + d2
    calls = counting_solves(monkeypatch, factorizations=True)
    a1, a2 = make()
    with pytest.raises(ActionError, match=f"^the {name} summand is reducible; the direct-sum criterion"):
        analyze_direct_sum(a1, a2)
    got = [(kind, shape if kind != "commutant" else None) for kind, shape in calls]
    calls.clear()
    b1, b2 = make()
    for summand in (b1, b2)[: 1 if name == "first" else 2]:
        decide_irreducibility(summand)
    assert got == [(kind, shape if kind != "commutant" else None) for kind, shape in calls]
    assert any(kind == "null_space" for kind, _ in got)


def test_verdict_invariant_under_cocycle_scaling():
    # rescaling the cocycle rescales the translation unknowns only; the
    # deviation space and hence the verdict must not move across magnitudes,
    # and the double of every scaled action stays reducible with projections
    samples = [glide_action(), dihedral_action(), translation_action()]
    rep = random_free_rep(f2_group(), 2, "complex", RNG)
    samples.append(random_action(rep, RNG))
    for action in samples:
        base = decide_irreducibility(action).reducible
        for scale in (1e-6, 1e-3, 1e3, 1e6, 1e9):
            scaled = AffineAction.from_values(
                action.rep, [scale * v for v in action.cocycle.values]
            )
            assert decide_irreducibility(scaled).reducible == base, scale
            analysis = analyze_direct_sum(scaled, scaled)
            assert analysis.verdict.reducible and analysis.projections is not None, scale


def test_analyze_disjoint_pair_irreducible():
    a1, a2 = disjoint_irreducible_pair()
    analysis = analyze_direct_sum(a1, a2)
    assert analysis.irreducible
    assert analysis.projections is None


def f2_two_dim_rep():
    return Representation(
        f2_group(),
        "complex",
        [np.diag([1j, -1j]), np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)],
    )


def test_independent_classes_sum_irreducible():
    rep = f2_two_dim_rep()
    b1 = [np.array([1.0 + 0j, 0.0]), np.zeros(2, dtype=complex)]
    b2 = [np.zeros(2, dtype=complex), np.array([1.0 + 0j, 0.0])]
    a1 = AffineAction.from_values(rep, b1)
    a2 = AffineAction.from_values(rep, b2)
    assert decide_irreducibility(a1).irreducible
    assert decide_irreducibility(a2).irreducible
    assert decide_irreducibility(direct_sum(a1, a2)).irreducible


def test_dependent_classes_sum_reducible():
    rep = f2_two_dim_rep()
    b1 = [np.array([1.0 + 0j, 0.0]), np.zeros(2, dtype=complex)]
    b2 = [np.array([2.0 + 0j, 0.0]), np.zeros(2, dtype=complex)]
    a1 = AffineAction.from_values(rep, b1)
    a2 = AffineAction.from_values(rep, b2)
    total = analyze_direct_sum(a1, a2)
    assert total.verdict.reducible
    assert total.projections is not None


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("scale", [1e3, 1e6, 1e8, 1e9, 1e12])
def test_a_sum_with_a_scaled_copy_has_the_scaling_as_intertwiner(field, scale):
    # a (+) lambda a is reducible for every lambda: the projections are the
    # whole summands and the ambient map is lambda I. The block's D is about
    # 1/lambda of C at unit ||U||, so a rank cut on D would lose it
    for d in (1, 3, 5):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            a = random_action(random_free_rep(f2_group(), d, field, rng), rng)
            scaled = AffineAction.from_values(a.rep, [scale * b for b in a.cocycle.values])
            analysis = analyze_direct_sum(a, scaled)
            proj = analysis.projections
            assert analysis.verdict.reducible and proj.v1_basis.shape == proj.v2_basis.shape == (d, d)
            p1, p2 = project_action(a, proj.v1_basis), project_action(scaled, proj.v2_basis)
            residual = intertwining_residual(p1, p2, proj.intertwiner)
            bound = certification_scale((proj.intertwiner.linear, proj.intertwiner.translation), a, scaled)
            assert residual_ok(residual, bound, TOL.eps_residual), (d, seed)
            ambient = proj.ambient_map()
            assert np.abs(ambient.linear - scale * np.eye(d)).max() <= 1e-6 * scale, (d, seed)
            assert np.linalg.norm(ambient.translation) <= 1e-6 * scale, (d, seed)


def test_glide_orbit_is_total_but_action_reducible():
    # totality of the orbit does not imply irreducibility: the glide orbit
    # spans the plane while the axis stays invariant
    action = glide_action()
    words = [action.presentation.parse_word(w) for w in ("t", "t t", "t t t")]
    points = np.array([action.evaluate(w)(np.zeros(2)) for w in words])
    assert np.linalg.matrix_rank(points) == 2
    assert decide_irreducibility(action).reducible


def test_irreducible_commutant_is_exactly_fixed_translations():
    # both containments of the Schur description, on an irreducible sample
    action = translation_action()
    verdict = decide_irreducibility(action)
    assert verdict.irreducible
    fixed = fixed_subspace(action.rep)
    assert len(verdict.commutant) == fixed.shape[1]
    for pair in verdict.commutant:
        assert pair.deviation_norm < 1e-10
        off = pair.translation - fixed @ (fixed.conj().T @ pair.translation)
        assert np.linalg.norm(off) < 1e-10
    for k in range(fixed.shape[1]):
        candidate = AffineMap(np.eye(action.dim), fixed[:, k])
        assert commutant_residual(action, candidate) < 1e-10


def test_reducible_witnesses_are_sound_on_random_actions():
    reducible_seen = 0
    for _ in range(25):
        presentation = [z_group(), z2_group(), dihedral_group()][int(RNG.integers(0, 3))]
        field = "complex" if RNG.random() < 0.5 else "real"
        dim = int(RNG.integers(1, 5))
        action = random_action_for(presentation, dim, field, RNG)
        verdict = decide_irreducibility(action)
        if verdict.reducible:
            reducible_seen += 1
            sub = verdict.witness_subspace
            assert sub.dim < action.dim
            assert check_invariance(action, sub) <= 1e-6
    assert reducible_seen > 0


def test_commutant_decision_matches_abelian_oracle_sample():
    agreements = 0
    for _ in range(30):
        presentation = z_group() if RNG.random() < 0.5 else z2_group()
        dim = int(RNG.integers(1, 5))
        if RNG.random() < 0.4:
            rep = Representation(
                presentation, "complex", [np.eye(dim, dtype=complex)] * presentation.num_generators, dim=dim
            )
        else:
            rep = random_abelian_rep(presentation, dim, "complex", RNG)
        action = random_action(rep, RNG)
        ours = decide_irreducibility(action).irreducible
        oracle = abelian_oracle_is_irreducible(action)
        assert ours == oracle
        agreements += 1
    assert agreements == 30


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_evaluate_is_one_walk_bitwise(family, field):
    # one chain-rule walk gives the bits of the two separate walks
    rng = np.random.default_rng(len(family) + (field == "complex"))
    for _ in range(4):
        dim = 3 if family == "heisenberg" else int(rng.integers(1, 5))
        action = random_action(FAMILIES[family](rng, dim, field), rng)
        g = action.presentation.num_generators
        for length in (0, 1, 2, 5, 11):
            word = Word(tuple((int(rng.integers(0, g)), int(rng.choice([1, -1]))) for _ in range(length)))
            mapping = action.evaluate(word)
            assert np.array_equal(mapping.linear, action.rep.evaluate(word))
            assert np.array_equal(mapping.translation, action.cocycle.extend(word))
            assert mapping.linear.dtype == action.rep.dtype


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_affine_commutant_carries_certified_residual(family):
    rng = np.random.default_rng(len(family))
    half = random_action(FAMILIES[family](rng, 3 if family == "heisenberg" else 2, "complex"), rng)
    for action in (half, direct_sum(half, half)):
        commutant = affine_commutant(action)
        residuals = [commutant_residual(action, p) for p in commutant.pairs]
        assert commutant.residuals == {"worst_equation_defect": max(residuals, default=0.0)}
        for pair, residual in zip(commutant.pairs, residuals):
            scale = certification_scale((pair.deviation, pair.translation), action)
            assert residual <= TOL.eps_residual * (1.0 + scale)


def test_fixed_points_carry_certified_residual():
    rep = random_free_rep(f2_group(), 3, "real", RNG)
    v = random_field_vector(3, "real", RNG)
    action = AffineAction.from_values(rep, [m @ v - v for m in rep.matrices])
    result = fixed_points(action)
    assert result.residuals == {"invariance": check_invariance(action, result.subspace)}
    assert result.residuals["invariance"] <= 1e-12
    assert fixed_points(glide_action()).residuals == {}


def test_fixed_points_without_generators_is_everything():
    rep = Representation(GroupPresentation([]), "complex", [], dim=2)
    result = fixed_points(AffineAction.from_values(rep, []))
    assert result.subspace.dim == 2 and np.array_equal(result.subspace.base, np.zeros(2))
    assert result.residuals == {"invariance": 0.0}


def test_check_equivalence_refuses_negative_trials():
    with pytest.raises(ValueError, match="trials"):
        check_equivalence(translation_action(1.0), translation_action(2.0), trials=-3)
    # no trials: only the particular solution is tried, which here is invertible
    assert check_equivalence(translation_action(1.0), translation_action(2.0), trials=0).equivalent
