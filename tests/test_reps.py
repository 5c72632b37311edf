import numpy as np
import pytest

from affine_actions import (
    Cocycle,
    GroupPresentation,
    Representation,
    Word,
    commutant_action_on_classes,
    commutant_basis,
    first_cohomology,
    fixed_subspace,
    search_irreducible_cocycle,
)
from affine_actions.reps import CocycleError, RepresentationError, validity_report

from helpers import (
    FAMILIES,
    TOL,
    dihedral_group,
    doubled_rep,
    f2_group,
    heisenberg_group,
    random_c3_rep,
    random_cocycle,
    random_free_rep,
    random_s3_rep,
    reference_commutant_action_on_classes,
    reference_search_irreducible_cocycle,
    z2_group,
    z_group,
)

RNG = np.random.default_rng(11)

ROT90 = np.array([[0.0, -1.0], [1.0, 0.0]])


def trivial_rep(dim, field="complex", presentation=None):
    presentation = presentation or z_group()
    dtype = complex if field == "complex" else float
    mats = [np.eye(dim, dtype=dtype)] * presentation.num_generators
    return Representation(presentation, field, mats, dim=dim)


def test_evaluate_empty_word_is_identity():
    rep = trivial_rep(2)
    assert np.allclose(rep.evaluate(Word()), np.eye(2))


def test_evaluate_sign_character():
    z = z_group()
    rep = Representation(z, "complex", [np.array([[-1.0 + 0j]])])
    assert np.allclose(rep.evaluate(z.parse_word("t")), [[-1.0]])


def test_evaluate_rotation_square():
    z = z_group()
    rep = Representation(z, "real", [ROT90])
    assert np.allclose(rep.evaluate(z.parse_word("t t")), -np.eye(2))


def test_evaluate_inverse_is_adjoint():
    z = z_group()
    rep = Representation(z, "real", [ROT90])
    assert np.allclose(rep.evaluate(z.parse_word("t^-1")), ROT90.T)


def test_rejects_non_isometry():
    with pytest.raises(RepresentationError):
        Representation(z_group(), "real", [np.array([[2.0]])])


def test_rejects_broken_relator():
    pres = dihedral_group()
    angle = 0.3
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    # both matrices are isometries, but (st)^2 is a nontrivial rotation
    with pytest.raises(RepresentationError):
        Representation(pres, "real", [rot, np.eye(2)])


def test_cocycle_extension_examples():
    dih = dihedral_group()
    rep = Representation(dih, "complex", [np.eye(1, dtype=complex), -np.eye(1, dtype=complex)])
    b = Cocycle(rep, [np.array([1.0 + 0j]), np.array([0.0 + 0j])])
    assert np.allclose(b.extend(Word()), [0.0])
    assert np.allclose(b.extend(dih.parse_word("s t")), [-1.0])

    z = z_group()
    triv = Representation(z, "real", [np.eye(1)])
    hom = Cocycle(triv, [np.array([1.0])])
    assert np.allclose(hom.extend(z.parse_word("t t t")), [3.0])


def test_cocycle_validation_rejects_bad_values():
    dih = dihedral_group()
    # with pi(s) = +1 the relator s*s forces b(s*s) = 2 b(s), so b(s) = 0.5
    # cannot extend to a cocycle
    rep = Representation(dih, "complex", [-np.eye(1, dtype=complex), np.eye(1, dtype=complex)])
    with pytest.raises(CocycleError):
        Cocycle(rep, [np.array([0.0 + 0j]), np.array([0.5 + 0j])])


def test_cocycle_chain_rule_random_words():
    f2 = f2_group()
    rep = random_free_rep(f2, 3, "complex", RNG)
    b = random_cocycle(rep, RNG)
    for _ in range(30):
        letters_u = [(int(RNG.integers(0, 2)), int(RNG.choice([1, -1]))) for _ in range(int(RNG.integers(0, 6)))]
        letters_v = [(int(RNG.integers(0, 2)), int(RNG.choice([1, -1]))) for _ in range(int(RNG.integers(0, 6)))]
        u, v = Word(tuple(letters_u)), Word(tuple(letters_v))
        lhs = b.extend(u * v)
        rhs = b.extend(u) + rep.evaluate(u) @ b.extend(v)
        assert np.linalg.norm(lhs - rhs) < 1e-10


def test_fixed_subspace_examples():
    assert fixed_subspace(trivial_rep(2)).shape == (2, 2)

    z = z_group()
    flip = Representation(z, "complex", [-np.eye(1, dtype=complex)])
    assert fixed_subspace(flip).shape == (1, 0)

    glide_rep = Representation(z, "real", [np.diag([1.0, -1.0])])
    basis = fixed_subspace(glide_rep)
    assert basis.shape == (2, 1)
    assert abs(abs(basis[0, 0]) - 1.0) < 1e-12


def test_commutant_trivial_rep_is_everything():
    assert len(commutant_basis(trivial_rep(3))) == 9
    assert len(commutant_basis(trivial_rep(3, field="real"))) == 9


def test_commutant_diagonal_rep():
    z = z_group()
    rep = Representation(z, "real", [np.diag([1.0, -1.0])])
    basis = commutant_basis(rep)
    assert len(basis) == 2
    for mat in basis:
        assert abs(mat[0, 1]) < 1e-10 and abs(mat[1, 0]) < 1e-10


def test_commutant_rotation_real_dimension_two():
    z = z_group()
    rep = Representation(z, "real", [ROT90])
    basis = commutant_basis(rep)
    assert len(basis) == 2  # span{I, J} over the reals


def test_commutant_identity_in_span():
    rep = random_free_rep(f2_group(), 3, "complex", RNG)
    basis = commutant_basis(rep)
    stacked = np.column_stack([m.reshape(-1) for m in basis])
    target = np.eye(3, dtype=complex).reshape(-1)
    coeffs, *_ = np.linalg.lstsq(stacked, target, rcond=None)
    assert np.linalg.norm(stacked @ coeffs - target) < 1e-10


def test_commutant_commutes_with_random_words():
    rep = random_free_rep(f2_group(), 3, "complex", RNG)
    basis = commutant_basis(rep)
    for _ in range(50):
        letters = [(int(RNG.integers(0, 2)), int(RNG.choice([1, -1]))) for _ in range(int(RNG.integers(0, 8)))]
        mat = rep.evaluate(Word(tuple(letters)))
        for elem in basis:
            assert np.linalg.norm(elem @ mat - mat @ elem) <= TOL.eps_residual * (1 + np.linalg.norm(mat))


def test_cohomology_free_group_trivial():
    rep = trivial_rep(1, presentation=f2_group())
    assert first_cohomology(rep).dims == (2, 0, 2)


def test_cohomology_heisenberg_forces_center_to_vanish():
    rep = trivial_rep(1, presentation=heisenberg_group())
    basis = first_cohomology(rep)
    assert basis.dims == (2, 0, 2)
    for cocycle in basis.cocycle_basis:
        assert np.linalg.norm(cocycle.values[2]) < 1e-10  # b(z) = 0


def test_cohomology_sign_rep_of_z():
    z = z_group()
    rep = Representation(z, "complex", [-np.eye(1, dtype=complex)])
    assert first_cohomology(rep).dims == (1, 1, 0)


def test_cohomology_finite_groups_vanish():
    for _ in range(10):
        rep = random_c3_rep(int(RNG.integers(1, 5)), "complex", RNG)
        dims = first_cohomology(rep).dims
        assert dims[2] == 0
    for _ in range(10):
        rep = random_s3_rep(int(RNG.integers(1, 5)), "real", RNG)
        assert first_cohomology(rep).dims[2] == 0


def test_coboundary_dimension_complements_fixed_space():
    from helpers import random_abelian_rep, random_dihedral_rep, random_heisenberg_rep, z2_group

    builders = [
        lambda d, f: random_c3_rep(d, f, RNG),
        lambda d, f: random_s3_rep(d, f, RNG),
        lambda d, f: random_free_rep(f2_group(), d, f, RNG),
        lambda d, f: random_abelian_rep(z2_group(), d, f, RNG),
        lambda d, f: random_dihedral_rep(d, f, RNG),
        lambda d, f: random_heisenberg_rep(d, f, RNG),
    ]
    for i in range(24):
        dim = int(RNG.integers(1, 5))
        field = "complex" if i % 2 == 0 else "real"
        if i % len(builders) == 5 and field == "complex":
            dim = min(dim, 3)
        rep = builders[i % len(builders)](dim, field)
        basis = first_cohomology(rep)
        assert basis.dims[1] == rep.dim - fixed_subspace(rep).shape[1]


def test_class_representatives_orthogonal_to_coboundaries():
    rep = random_free_rep(f2_group(), 2, "complex", RNG)
    basis = first_cohomology(rep)
    for h in basis.class_representatives:
        for b in basis.coboundary_basis:
            assert abs(b.coordinates().conj() @ h.coordinates()) < 1e-10


def test_commutant_action_identity_on_classes():
    rep = trivial_rep(2)
    basis = first_cohomology(rep)
    mats = commutant_action_on_classes(rep, basis, commutant=[np.eye(2, dtype=complex)])
    assert np.allclose(mats[0], np.eye(2))


def test_commutant_action_diagonal_operator():
    rep = trivial_rep(2)
    basis = first_cohomology(rep)
    t_mat = np.diag([2.0 + 0j, 3.0 + 0j])
    mats = commutant_action_on_classes(rep, basis, commutant=[t_mat])
    assert np.allclose(np.sort(np.linalg.eigvals(mats[0])).round(8), [2.0, 3.0])


def test_commutant_action_trivial_cohomology_gives_empty_matrices():
    z = z_group()
    rep = Representation(z, "complex", [-np.eye(1, dtype=complex)])
    basis = first_cohomology(rep)
    mats = commutant_action_on_classes(rep, basis)
    assert all(m.shape == (0, 0) for m in mats)


def test_search_irreducible_cocycle_z_dim1_yes():
    rep = trivial_rep(1)
    result = search_irreducible_cocycle(rep, trials=5, seed=3)
    assert result.found
    assert np.linalg.norm(result.witness.values[0]) > 1e-8
    # the witness assembles into a certified irreducible action
    from affine_actions import AffineAction, decide_irreducibility

    assert decide_irreducibility(AffineAction(rep, result.witness)).irreducible


def test_search_irreducible_cocycle_finite_group_no():
    c2 = GroupPresentation(["s"], ["s s"])
    rep = Representation(c2, "complex", [-np.eye(1, dtype=complex)])
    result = search_irreducible_cocycle(rep, trials=5, seed=3)
    assert not result.found
    assert result.probabilistic


def test_search_irreducible_cocycle_trivial_dim2_probably_no():
    result = search_irreducible_cocycle(trivial_rep(2), trials=10, seed=3)
    assert not result.found


def test_search_irreducible_cocycle_two_dim_free_group_rep():
    # irreducible 2-dim rep of the free group: the commutant is scalar and
    # the cohomology 2-dimensional, so a generic class separates
    rep = Representation(
        f2_group(),
        "complex",
        [np.diag([1j, -1j]), np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)],
    )
    assert first_cohomology(rep).dims == (4, 2, 2)
    result = search_irreducible_cocycle(rep, trials=5, seed=1)
    assert result.found


def test_cohomology_z2_nontrivial_character_vanishes():
    # one-dimensional rep of Z^2 with both generators acting nontrivially:
    # the commutator relator pins the cocycle space to dimension 1, all
    # coboundaries
    z2 = GroupPresentation(["t1", "t2"], ["t1 t2 t1^-1 t2^-1"])
    rep = Representation(
        z2, "complex", [np.array([[np.exp(0.7j)]]), np.array([[np.exp(1.9j)]])]
    )
    assert first_cohomology(rep).dims == (1, 1, 0)


def test_validity_report_keeps_the_constructor_order_and_messages():
    # a non-isometry that also breaks the relator s s: the isometry failure comes first
    pres = dihedral_group()
    mats = [np.eye(1, dtype=complex), np.array([[2.0j]])]
    rep = Representation(pres, "complex", mats, validate=False)
    report = validity_report(TOL, rep)
    assert report.checks == {"isometry": False, "representation_relators": False}
    assert report.residuals == {
        "isometry_defects": list(rep.isometry_defects),
        "representation_relator_defects": list(rep.relator_defects),
    }
    assert str(report.failure) == "matrix for 's' is not an isometry (defect 3.000e+00)"
    assert not report.passed
    with pytest.raises(RepresentationError, match=r"^matrix for 's' is not an isometry \(defect 3.000e\+00\)$"):
        Representation(pres, "complex", mats)

    # isometries with (st)^2 a nontrivial rotation: relator 1 fails
    angle = 0.3
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    report = validity_report(TOL, Representation(pres, "real", [rot, np.eye(2)], validate=False))
    assert report.checks == {"isometry": True, "representation_relators": False}
    assert str(report.failure).startswith("relator 1 does not evaluate to the identity (defect ")
    with pytest.raises(RepresentationError, match=r"^relator 1 does not evaluate"):
        Representation(pres, "real", [rot, np.eye(2)])


def test_validity_report_of_a_cocycle():
    dih = dihedral_group()
    rep = Representation(dih, "complex", [-np.eye(1, dtype=complex), np.eye(1, dtype=complex)])
    values = [np.array([0.0 + 0j]), np.array([0.5 + 0j])]
    cocycle = Cocycle(rep, values, validate=False)
    report = validity_report(TOL, rep, cocycle)
    assert report.checks == {"isometry": True, "representation_relators": True, "cocycle_relators": False}
    assert report.residuals["cocycle_relator_defects"] == [1.0, 0.0]
    assert str(report.failure) == "relator 0 has cocycle residual 1.000e+00"
    with pytest.raises(CocycleError, match=r"^relator 0 has cocycle residual 1.000e\+00$"):
        Cocycle(rep, values)
    assert validity_report(TOL, cocycle=Cocycle(rep, [np.array([1.0 + 0j]), np.zeros(1)])).passed


def test_first_cohomology_reports_its_worst_relator_defect():
    rep = random_c3_rep(4, "real", RNG)
    basis = first_cohomology(rep)
    worst = max((max(c.relator_defects, default=0.0) for c in basis.cocycle_basis), default=0.0)
    assert basis.residuals == {"worst_cocycle_relator_defect": worst}
    assert worst <= 1e-12


def _family_reps(family, field):
    """A few representations of the family with their doubles rho (+) rho."""
    rng = np.random.default_rng(len(family) + 7 * (field == "complex"))
    for dim in (1, 2, 3):
        half = FAMILIES[family](rng, 3 if family == "heisenberg" else dim, field)
        yield half
        yield doubled_rep(half)


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_class_action_matches_per_class_reference(family, field):
    for rep in _family_reps(family, field):
        basis = first_cohomology(rep)
        commutant = commutant_basis(rep)
        got = commutant_action_on_classes(rep, basis, commutant)
        want = reference_commutant_action_on_classes(rep, basis, commutant)
        assert len(got) == len(want) == len(commutant)
        for a, b in zip(got, want):
            assert a.shape == b.shape == (basis.dims[2],) * 2
            assert a.dtype == rep.dtype
            assert np.max(np.abs(a - b), initial=0.0) <= 1e-10


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_search_matches_per_class_reference(family, field):
    for rep in _family_reps(family, field):
        for seed in range(5):
            result = search_irreducible_cocycle(rep, trials=5, seed=seed)
            found, coords, trials_used = reference_search_irreducible_cocycle(rep, 5, seed)
            assert (result.found, result.trials_used) == (found, trials_used)
            if found:
                assert np.max(np.abs(result.witness.coordinates() - coords)) <= 1e-10


def test_search_reference_covers_found_and_exhausted_searches():
    # the differential search test sees both outcomes and nontrivial classes
    outcomes = set()
    for family in ("f2", "z2-identity", "heisenberg"):
        for rep in _family_reps(family, "complex"):
            found, _, trials_used = reference_search_irreducible_cocycle(rep, 5, 0)
            outcomes.add((found, trials_used == 5))
    assert {(True, False), (False, True)} <= outcomes


SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])

NON_COMMUTING = {
    # rho = chi (+) trivial; H^1 lives on one summand and the swap moves it
    # onto the other, where the relators forbid it
    "dihedral": (dihedral_group(), [np.eye(2), np.diag([-1.0, 1.0])]),
    "heisenberg": (heisenberg_group(), [np.diag([np.exp(0.7j), 1.0]), np.eye(2), np.eye(2)]),
    "z2": (z2_group(), [np.diag([np.exp(0.7j), 1.0]), np.diag([np.exp(1.9j), 1.0])]),
}


@pytest.mark.parametrize("name", sorted(NON_COMMUTING))
def test_class_action_rejects_a_non_commuting_operator(name):
    presentation, mats = NON_COMMUTING[name]
    field = "complex" if any(np.iscomplexobj(m) for m in mats) else "real"
    rep = Representation(presentation, field, mats, dim=2)
    basis = first_cohomology(rep)
    assert basis.dims[2] > 0
    assert max(np.linalg.norm(SWAP @ m - m @ SWAP) for m in mats) > 0.1
    identity = commutant_action_on_classes(rep, basis, commutant=[np.eye(2)])
    assert np.allclose(identity[0], np.eye(basis.dims[2]))
    with pytest.raises(CocycleError, match=r"^relator \d+ has cocycle residual "):
        commutant_action_on_classes(rep, basis, commutant=[np.eye(2), SWAP])
    with pytest.raises(CocycleError, match=r"^relator \d+ has cocycle residual "):
        reference_commutant_action_on_classes(rep, basis, [SWAP])


def test_class_action_refuses_complex_operators_on_a_real_representation():
    rep = trivial_rep(2, "real")
    with pytest.raises(ValueError, match="^complex data supplied for a real-field object$"):
        commutant_action_on_classes(rep, first_cohomology(rep), commutant=[1j * np.eye(2)])


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_cohomology_views_carry_the_certified_columns(family):
    for field in ("real", "complex"):
        for rep in _family_reps(family, field):
            basis = first_cohomology(rep)
            bases = (basis.cocycle_basis, basis.coboundary_basis, basis.class_representatives)
            matrices = (basis.cocycles, basis.coboundaries, basis.classes)
            assert basis.dims == tuple(m.shape[1] for m in matrices)
            for views, columns, defects in zip(bases, matrices, basis.relator_defects):
                assert len(views) == columns.shape[1]
                for k, view in enumerate(views):
                    assert np.array_equal(view.coordinates(), columns[:, k])
                    assert view.relator_defects == tuple(defects[:, k])
                    # the batched certificate agrees with the chain-rule walk
                    walked = Cocycle(rep, view.values).relator_defects
                    assert np.allclose(walked, view.relator_defects, rtol=0.0, atol=1e-12)
            walked_worst = max(
                (max(Cocycle(rep, c.values).relator_defects, default=0.0) for c in basis.cocycle_basis),
                default=0.0,
            )
            assert abs(basis.residuals["worst_cocycle_relator_defect"] - walked_worst) <= 1e-12
