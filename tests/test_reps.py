import gc
import weakref

import numpy as np
import pytest

from affine_actions import (
    AffineAction,
    Cocycle,
    GroupPresentation,
    Representation,
    ToleranceProfile,
    Word,
    check_equivalence,
    coboundary,
    commutant_action_on_classes,
    commutant_basis,
    decide_irreducibility,
    direct_sum,
    first_cohomology,
    fixed_subspace,
    search_irreducible_cocycle,
)
from affine_actions import actions as actions_module
from affine_actions import reps as reps_module
from affine_actions.linalg import orthonormal_columns, random_vectors
from affine_actions.reps import CocycleError, RepresentationError, boundary_split, validity_report

from helpers import (
    FAMILIES,
    TOL,
    counting_solves,
    dihedral_group,
    doubled_rep,
    f2_group,
    free_abelian_group,
    heisenberg_group,
    random_action,
    random_c3_rep,
    random_cocycle,
    random_dihedral_rep,
    random_field_vector,
    random_free_rep,
    random_s3_rep,
    random_vector,
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


def _f2_rep():
    return Representation(f2_group(), "real", [np.eye(2)] * 2)


# the count and shape refusals of the two constructors
BAD_CONSTRUCTIONS = {
    "matrix-count": (lambda: Representation(f2_group(), "real", [np.eye(2)]), "expected 2 matrices, got 1"),
    "no-generators-no-dim": (
        lambda: Representation(GroupPresentation([]), "real", []), "dimension is required for a generator-free"
    ),
    "zero-dim": (lambda: Representation(GroupPresentation([]), "real", [], dim=0), "dimension must be >= 1"),
    "matrix-shape": (
        lambda: Representation(f2_group(), "real", [np.eye(2), np.eye(3)]),
        r"matrix for 'b' has shape \(3, 3\), expected \(2, 2\)",
    ),
    "non-square-matrix": (
        lambda: Representation(z_group(), "real", [np.ones((1, 2))]), r"shape \(1, 2\), expected \(1, 1\)"
    ),
    "value-count": (lambda: Cocycle(_f2_rep(), [np.zeros(2)]), "expected 2 vectors, got 1"),
    "value-shape": (
        lambda: Cocycle(_f2_rep(), [np.zeros(2), np.zeros(3)]), r"value has shape \(3,\), expected \(2,\)"
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_CONSTRUCTIONS))
def test_constructors_refuse_a_wrong_count_or_shape(case):
    build, message = BAD_CONSTRUCTIONS[case]
    error = CocycleError if case.startswith("value") else RepresentationError
    with pytest.raises(error, match=message):
        build()


@pytest.mark.parametrize("field", ["real", "complex"])
def test_coboundary_is_the_cocycle_of_the_action_fixing_minus_v(field):
    rng = np.random.default_rng(3)
    rep = random_free_rep(f2_group(), 3, field, rng)
    v = random_field_vector(3, field, rng)
    cocycle = coboundary(rep, v)
    assert all(np.array_equal(b, m @ v - v) for m, b in zip(rep.matrices, cocycle.values))
    action = AffineAction(rep, cocycle)
    for word in ("a", "b^-1", "a b a^-1 b"):
        moved = action.evaluate(rep.presentation.parse_word(word))(-v)
        assert np.linalg.norm(moved + v) <= 1e-12
    assert decide_irreducibility(action).reducible


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


@pytest.mark.parametrize("validate", [True, False])
def test_a_cocycle_whose_norm_overflows_is_refused(validate):
    # ||b|| squares its entries: at 1e160 max_norm would be inf, and every
    # bound and scale that reads it NaN or zero
    rep = Representation(z_group(), "real", [np.eye(1)])
    with pytest.raises(CocycleError, match="^cocycle norm overflows"):
        Cocycle(rep, [np.array([1e160])], validate=validate)
    assert Cocycle(rep, [np.array([1e154])], validate=validate).max_norm == 1e154


def test_a_direct_sum_whose_cocycle_norm_overflows_is_refused():
    # each summand's norm is 1e154; the sum's concatenated value squares to 2e308
    rep = Representation(z_group(), "real", [np.eye(1)])
    half = AffineAction.from_values(rep, [np.array([1e154])])
    with pytest.raises(CocycleError, match="^cocycle norm overflows"):
        direct_sum(half, half)


def test_a_cocycle_at_1e150_is_still_decided():
    rep = Representation(z_group(), "real", [np.eye(1)])
    assert decide_irreducibility(AffineAction.from_values(rep, [np.array([1e150])])).irreducible


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


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("dim", [1, 2, 5])
def test_stacked_step_equals_per_slice_steps(dim, field):
    # the lattice tests step stacks of states; each row must keep the bits of its own step
    rng = np.random.default_rng(10 * dim + (field == "complex"))
    rep = random_free_rep(f2_group(), dim, field, rng)
    b = Cocycle(rep, [random_field_vector(dim, field, rng) for _ in range(2)])
    values = np.stack([random_field_vector(dim, field, rng) for _ in range(7)])
    prefixes = np.stack([rep.evaluate(Word(((i % 2, 1), (1 - i % 2, -1)) * i)) for i in range(7)])
    for gen in (0, 1):
        for sign in (1, -1):
            stacked_values, stacked_prefixes = b.step(values, prefixes, gen, sign)
            for i in range(len(values)):
                value, prefix = b.step(values[i], prefixes[i], gen, sign)
                assert np.array_equal(stacked_values[i], value)
                assert np.array_equal(stacked_prefixes[i], prefix)


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_step_has_the_bits_of_the_chain_rule(family, field):
    # b(w s) = b(w) + pi(w) b(s) and pi(w s) = pi(w) pi(s), with
    # b(s^-1) = -pi(s)* b(s) and pi(s^-1) = pi(s)*, for single states and stacks
    rng = np.random.default_rng(sorted(FAMILIES).index(family) + 20 * (field == "complex"))
    dim = 3 if family == "heisenberg" else 2
    action = random_action(FAMILIES[family](rng, dim, field), rng)
    cocycle, rep = action.cocycle, action.rep
    values = np.stack([random_field_vector(dim, field, rng) for _ in range(5)])
    prefixes = np.stack([rep.evaluate(Word(((i % rep.presentation.num_generators, 1),) * i)) for i in range(5)])
    for gen, (m, b) in enumerate(zip(rep.matrices, cocycle.values)):
        adjoint = m.conj().T
        chain_rule = {
            1: lambda v, p: (v + p @ b, p @ m),
            -1: lambda v, p: (v - p @ (adjoint @ b), p @ adjoint),
        }
        for sign, rule in chain_rule.items():
            for v, p in [(values, prefixes)] + list(zip(values, prefixes)):
                (value, prefix), (expected_value, expected_prefix) = cocycle.step(v, p, gen, sign), rule(v, p)
                assert np.array_equal(value, expected_value) and np.array_equal(prefix, expected_prefix)


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


def test_commutant_is_solved_once_per_representation(monkeypatch):
    calls = counting_solves(monkeypatch)
    rep = random_free_rep(f2_group(), 4, "complex", RNG)
    first, second = commutant_basis(rep), commutant_basis(rep)
    assert len(calls) == 1
    assert all(a is b for a, b in zip(first, second))


def test_cached_commutant_equals_a_fresh_solve():
    rep = random_free_rep(f2_group(), 4, "real", RNG)
    commutant_basis(rep)
    fresh = Representation(rep.presentation, rep.field, rep.matrices)
    for cached, new in zip(commutant_basis(rep), commutant_basis(fresh), strict=True):
        assert np.array_equal(cached, new)


def test_cached_commutant_is_read_only():
    rep = random_free_rep(f2_group(), 3, "complex", RNG)
    basis = commutant_basis(rep)
    with pytest.raises(ValueError):
        basis[0][0, 0] = 1.0
    basis.clear()  # the returned list is the caller's own
    assert len(commutant_basis(rep)) == 1
    for array in rep.generic_eigenbasis:
        assert not array.flags.writeable


def test_search_reuses_the_cached_commutant(monkeypatch):
    rep = doubled_rep(random_free_rep(f2_group(), 3, "real", RNG))
    commutant_basis(rep)
    calls = counting_solves(monkeypatch)
    search_irreducible_cocycle(rep, trials=5, seed=1)
    # no second commutant solve, and one boundary split for the cohomology
    # and every confirmation
    assert [kind for kind, _ in calls] == ["boundary"]


def test_second_decision_on_a_representation_solves_nothing_again(monkeypatch):
    rep = doubled_rep(random_free_rep(f2_group(), 3, "complex", RNG))
    decide_irreducibility(AffineAction(rep, random_cocycle(rep, RNG)))
    calls = counting_solves(monkeypatch)
    for _ in range(2):
        decide_irreducibility(AffineAction(rep, random_cocycle(rep, RNG)))
    assert calls == []  # neither the commutant nor the boundary map again


def test_the_solve_store_is_keyed_by_stage_name():
    # one profile per representation: every stage is solved once, at rep.tol
    loose = ToleranceProfile(eps_rank=1e-6, eps_residual=1e-6)
    rep = Representation(dihedral_group(), "real", [np.eye(1), -np.eye(1)], tol=loose)
    first_cohomology(rep)
    assert search_irreducible_cocycle(rep, trials=5, seed=0).found
    commutant_action_on_classes(rep)
    assert sorted(rep._solves) == ["boundary", "cohomology", "commutant", "relators"]


def test_boundary_split_is_one_read_only_thin_svd():
    # Z on R^3 by a rotation of a plane, fixing a line
    mat = np.eye(3)
    mat[:2, :2] = ROT90
    rep = Representation(z_group(), "real", [mat])
    split, boundary = boundary_split(rep), rep.boundary_map()
    for array in (split.image, split.kernel, split.pinv):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[...] = 0.0
    assert fixed_subspace(rep) is split.kernel
    assert np.array_equal(split.image, orthonormal_columns(boundary))
    assert split.kernel.shape == (3, 1) and abs(abs(split.kernel[2, 0]) - 1.0) < 1e-15
    assert np.allclose(split.pinv, np.linalg.pinv(boundary), atol=1e-14)


def test_a_representation_with_filled_caches_is_freed_by_reference_counting():
    # the caches hold arrays only: no cycle keeps a dropped representation
    # (and everything solved on it) alive until the cyclic collector runs
    rep = Representation(dihedral_group(), "real", [np.eye(1), -np.eye(1)])
    gc.disable()
    try:
        first_cohomology(rep)
        search_irreducible_cocycle(rep, trials=2, seed=0)
        ref = weakref.ref(rep)
        del rep
        assert ref() is None
    finally:
        gc.enable()


def counting_relator_solves(monkeypatch, rep: Representation) -> list:
    """Record every null-space solve of the relator coefficient matrix of ``rep``."""
    from affine_actions import reps

    relators = reps._relator_coefficient_matrix(rep)
    calls, solve = [], reps.null_space_basis

    def counted(matrix, *args, **kwargs):
        if matrix.shape == relators.shape and np.array_equal(matrix, relators):
            calls.append(matrix.shape)
        return solve(matrix, *args, **kwargs)

    monkeypatch.setattr(reps, "null_space_basis", counted)
    return calls


def cohomology_arrays(basis) -> tuple[np.ndarray, ...]:
    return (basis.cocycles, basis.coboundaries, basis.classes, *basis.relator_defects)


def test_cohomology_is_solved_once_per_representation(monkeypatch):
    # the character t -> 1, s -> -1 of the infinite dihedral group: H^1 is one class
    rep = Representation(dihedral_group(), "real", [np.eye(1), -np.eye(1)])
    calls = counting_relator_solves(monkeypatch, rep)
    basis = first_cohomology(rep)
    assert basis.dims == (2, 1, 1) and len(calls) == 1
    assert search_irreducible_cocycle(rep, trials=5, seed=1).found
    assert search_irreducible_cocycle(rep, trials=5, seed=2).found
    again = first_cohomology(rep)
    assert all(a is b for a, b in zip(cohomology_arrays(again), cohomology_arrays(basis), strict=True))
    assert len(calls) == 1


def test_cached_cohomology_cannot_be_changed_by_a_caller():
    rep = doubled_rep(random_free_rep(f2_group(), 2, "complex", RNG))
    basis = first_cohomology(rep)
    for array in cohomology_arrays(basis):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[...] = 0.0
    worst = basis.residuals["worst_cocycle_relator_defect"]
    basis.residuals["worst_cocycle_relator_defect"] = 1.0
    assert first_cohomology(rep).residuals == {"worst_cocycle_relator_defect": worst}


def test_the_relator_matrix_is_built_once_per_representation(monkeypatch):
    # c = h = 1, so the search builds the class action, which reads the
    # relator coefficient matrix that first_cohomology built
    rep = Representation(dihedral_group(), "real", [np.eye(1), -np.eye(1)])
    builds, build = [], reps_module._relator_coefficient_matrix
    monkeypatch.setattr(reps_module, "_relator_coefficient_matrix", lambda r: builds.append(r) or build(r))
    assert first_cohomology(rep).dims[2] == len(commutant_basis(rep)) == 1
    assert search_irreducible_cocycle(rep, trials=5, seed=0).found
    commutant_action_on_classes(rep)
    first_cohomology(rep)
    assert builds == [rep]


def test_a_search_at_a_loose_profile_validates_its_witness_at_that_profile():
    # Z^2 by rotations through 1e-6 and 2e-6, built at a loose profile: the
    # found class has a cocycle relator residual of about 4e-7, within that
    # profile's bound and outside the default one, and both the search and
    # the witness's validation decide at rep.tol
    def rotation(theta):
        return np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])

    loose = ToleranceProfile(eps_rank=1e-4, eps_residual=1e-4)
    rep = Representation(free_abelian_group(2), "real", [rotation(1e-6), rotation(2e-6)], tol=loose)
    result = search_irreducible_cocycle(rep, trials=5, seed=0)
    assert result.found and result.trials_used == 1
    witness = Cocycle(rep, result.witness.values)
    assert not validity_report(TOL, cocycle=witness).passed
    assert decide_irreducibility(AffineAction(rep, witness)).irreducible


def rho_sum(rho: Representation, copies: int) -> Representation:
    """rho (+) ... (+) rho, block diagonal."""
    mats = [np.kron(np.eye(copies), m) for m in rho.matrices]
    return Representation(rho.presentation, rho.field, mats, dim=copies * rho.dim)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_in_order_screen_matches_the_reference_search(field):
    # rho^(+k) is found iff k copies fit in H^1(rho): both outcomes occur
    rng = np.random.default_rng(21 + (field == "complex"))
    outcomes = set()
    for rho in (random_free_rep(f2_group(), 2, field, rng), random_dihedral_rep(2, field, rng)):
        for copies in (1, 2, 3):
            rep = rho_sum(rho, copies)
            for seed in range(4):
                result = search_irreducible_cocycle(rep, trials=20, seed=seed)
                found, coords, trials_used = reference_search_irreducible_cocycle(rep, 20, seed)
                assert (result.found, result.trials_used) == (found, trials_used), (copies, seed)
                if found:
                    assert np.max(np.abs(result.witness.coordinates() - coords)) <= 1e-12
                outcomes.add(found)
    assert outcomes == {True, False}


def block_rep(presentation: GroupPresentation, field: str, blocks) -> Representation:
    """The direct sum of the given per-generator matrix lists, block diagonal."""
    dtype = complex if field == "complex" else float
    mats = []
    for parts in zip(*blocks):
        dim = sum(p.shape[0] for p in parts)
        mat, at = np.zeros((dim, dim), dtype=dtype), 0
        for p in parts:
            mat[at : at + p.shape[0], at : at + p.shape[0]] = p
            at += p.shape[0]
        mats.append(mat)
    return Representation(presentation, field, mats)


def dihedral_character_and_rotations(field: str, characters: int, rotations: int) -> Representation:
    """chi^(+characters) (+) rot^(+rotations) on the infinite dihedral group,
    with chi: t -> 1, s -> -1 and rot a plane rotation for t, a flip for s."""
    c, s = np.cos(1.1), np.sin(1.1)
    chi = [np.eye(1), -np.eye(1)]
    rot = [np.array([[c, -s], [s, c]]), np.diag([1.0, -1.0])]
    return block_rep(dihedral_group(), field, [chi] * characters + [rot] * rotations)


def counting(monkeypatch, module, name: str) -> list:
    """Replace ``module.name`` by a wrapper recording each call's result."""
    results, original = [], getattr(module, name)

    def wrapper(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(module, name, wrapper)
    return results


def count_exceeds_cohomology_reps():
    # commutant dimension c > h = dim H^1, so no class is separating
    rng = np.random.default_rng(23)
    for field in ("real", "complex"):
        yield rho_sum(random_free_rep(f2_group(), 3, field, rng), 4)  # h = 12, c = 16
        yield dihedral_character_and_rotations(field, 3, 0)  # h = 3, c = 9
        yield dihedral_character_and_rotations(field, 1, 2)  # h = 1, c = 5
    yield rho_sum(random_free_rep(f2_group(), 2, "complex", rng), 3)  # h = 6, c = 9


def test_a_commutant_larger_than_h1_ends_the_search_before_any_draw(monkeypatch):
    for rep in count_exceeds_cohomology_reps():
        h, c = first_cohomology(rep).dims[2], len(commutant_basis(rep))
        assert 0 < h < c
        moves = counting(monkeypatch, reps_module, "commutant_action_on_classes")
        draws = counting(monkeypatch, np.random, "default_rng")
        result = search_irreducible_cocycle(rep, trials=20, seed=3)
        assert moves == [] and draws == []
        monkeypatch.undo()
        found, _, trials_used = reference_search_irreducible_cocycle(rep, 20, 3)
        assert (result.found, result.witness, result.trials_used) == (found, None, trials_used) == (False, None, 20)


def test_a_search_the_count_admits_still_runs_every_trial(monkeypatch):
    # F2 on chi (+) chi (+) rho3 with chi: a -> -1, b -> 1: h = 1 + 1 + 3 = 5
    # equals c = 4 + 1, yet no class is separating, since the two copies of
    # chi share one class line
    rho3 = random_free_rep(f2_group(), 3, "real", np.random.default_rng(29))
    chi = [-np.eye(1), np.eye(1)]
    rep = block_rep(f2_group(), "real", [chi, chi, list(rho3.matrices)])
    assert first_cohomology(rep).dims[2] == len(commutant_basis(rep)) == 5
    moves = counting(monkeypatch, reps_module, "commutant_action_on_classes")
    ranks = counting(monkeypatch, reps_module, "numerical_rank")
    result = search_irreducible_cocycle(rep, trials=20, seed=0)
    assert (result.found, result.trials_used) == (False, 20)
    assert reference_search_irreducible_cocycle(rep, 20, 0)[::2] == (False, 20)
    assert len(moves) == 1 and len(ranks) == 20 and max(ranks) < 5


@pytest.mark.parametrize("field", ["real", "complex"])
def test_a_found_search_screens_and_confirms_only_up_to_its_trial(monkeypatch, field):
    rng = np.random.default_rng(31)
    for rep in (
        rho_sum(random_free_rep(f2_group(), 3, field, rng), 2),
        rho_sum(random_free_rep(f2_group(), 4, field, rng), 4),
        dihedral_character_and_rotations(field, 1, 0),
        Representation(z2_group(), field, [np.eye(1)] * 2),  # h = 2, c = 1
    ):
        c, h = len(commutant_basis(rep)), first_cohomology(rep).dims[2]
        spectra = counting(monkeypatch, np.linalg, "svd")
        ranks = counting(monkeypatch, reps_module, "numerical_rank")
        verdicts = counting(monkeypatch, actions_module, "decide_irreducibility")
        result = search_irreducible_cocycle(rep, trials=20, seed=5)
        monkeypatch.undo()
        # one (h, c) map per screened trial, none beyond the confirmed one;
        # the screens take singular values only, while the confirmation's
        # null-space SVDs also return their factors
        screens = [s.shape for s in spectra if isinstance(s, np.ndarray)]
        assert result.found and screens == [(min(h, c),)] * result.trials_used
        assert len(ranks) == result.trials_used
        assert len(verdicts) == sum(rank == c for rank in ranks)
        assert [v.reducible for v in verdicts][-1] is False


@pytest.mark.parametrize("field", ["real", "complex"])
def test_one_call_draws_have_the_bits_of_one_draw_per_trial(field):
    for trials, dim in ((1, 1), (20, 5), (7, 12), (3, 0)):
        one_call, per_trial = np.random.default_rng(trials), np.random.default_rng(trials)
        drawn = random_vectors(trials, dim, field, one_call)
        expected = np.array([random_vector(dim, field, per_trial) for _ in range(trials)]).reshape(trials, dim)
        assert drawn.dtype == expected.dtype and drawn.shape == (trials, dim)
        assert np.array_equal(drawn.view(np.float64), expected.view(np.float64))
        assert one_call.standard_normal() == per_trial.standard_normal()  # the same stream position


BAD_COUNTS = [2.5, True, "3", None, np.float64(3.0)]
BAD_SEEDS = [-1, 2.5, True, "0", np.float64(1.0)]


def test_search_and_equivalence_counts_and_seeds_must_be_integers():
    rep = Representation(z_group(), "real", [np.eye(1)])
    action = AffineAction.from_values(rep, [np.array([1.0])])
    for trials in BAD_COUNTS + [0, -1]:
        with pytest.raises(ValueError, match="trials"):
            search_irreducible_cocycle(rep, trials=trials)
    for trials in BAD_COUNTS + [-1]:
        with pytest.raises(ValueError, match="trials"):
            check_equivalence(action, action, trials=trials)
    for seed in BAD_SEEDS:
        with pytest.raises(ValueError, match="seed"):
            search_irreducible_cocycle(rep, seed=seed)
        with pytest.raises(ValueError, match="seed"):
            check_equivalence(action, action, seed=seed)


def test_numpy_integer_counts_and_seeds_still_work():
    rep = rho_sum(random_free_rep(f2_group(), 2, "complex", np.random.default_rng(37)), 3)  # c > h
    result = search_irreducible_cocycle(rep, trials=np.int64(7), seed=np.int64(2))
    assert result.trials_used == 7 and type(result.trials_used) is int
    rep = Representation(z2_group(), "real", [np.eye(1)] * 2)
    found = search_irreducible_cocycle(rep, trials=np.int32(4), seed=np.uint8(9))
    assert found.trials_used == search_irreducible_cocycle(rep, trials=4, seed=9).trials_used == 1
    assert np.array_equal(found.witness.coordinates(), search_irreducible_cocycle(rep, 4, 9).witness.coordinates())
    action = AffineAction.from_values(Representation(z_group(), "real", [np.eye(1)]), [np.array([1.0])])
    assert check_equivalence(action, action, trials=np.int64(0), seed=np.int64(1)).equivalent


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


def with_commutant(monkeypatch, elements) -> None:
    """Make ``commutant_basis`` return ``elements`` for every representation."""
    monkeypatch.setattr(reps_module, "commutant_basis", lambda rep: list(elements))


def test_commutant_action_identity_on_classes(monkeypatch):
    rep = trivial_rep(2)
    with_commutant(monkeypatch, [np.eye(2, dtype=complex)])
    mats = commutant_action_on_classes(rep)
    assert len(mats) == 1 and np.allclose(mats[0], np.eye(2))


def test_commutant_action_diagonal_operator(monkeypatch):
    rep = trivial_rep(2)
    with_commutant(monkeypatch, [np.diag([2.0 + 0j, 3.0 + 0j])])
    mats = commutant_action_on_classes(rep)
    assert np.allclose(np.sort(np.linalg.eigvals(mats[0])).round(8), [2.0, 3.0])


def test_commutant_action_reads_the_representations_commutant_and_classes():
    # the trivial representation on C^2: the commutant is all of M_2(C)
    # and every cocycle is a class, so each element acts as itself
    rep = trivial_rep(2)
    mats = commutant_action_on_classes(rep)
    assert len(mats) == len(commutant_basis(rep)) == 4
    classes = first_cohomology(rep).classes
    for t_mat, m in zip(commutant_basis(rep), mats):
        assert np.allclose(classes @ m, t_mat @ classes)


def test_commutant_action_trivial_cohomology_gives_empty_matrices():
    z = z_group()
    rep = Representation(z, "complex", [-np.eye(1, dtype=complex)])
    mats = commutant_action_on_classes(rep)
    assert len(mats) == 1 and all(m.shape == (0, 0) for m in mats)


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
    worst = float(basis.relator_defects[0].max(initial=0.0))
    assert basis.residuals == {"worst_cocycle_relator_defect": worst}
    walked = max((max(c.relator_defects, default=0.0) for c in basis.cocycle_basis), default=0.0)
    assert abs(walked - worst) <= 1e-12
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
        got = commutant_action_on_classes(rep)
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
def test_class_action_rejects_a_non_commuting_operator(name, monkeypatch):
    presentation, mats = NON_COMMUTING[name]
    field = "complex" if any(np.iscomplexobj(m) for m in mats) else "real"
    rep = Representation(presentation, field, mats, dim=2)
    basis = first_cohomology(rep)
    assert basis.dims[2] > 0
    assert max(np.linalg.norm(SWAP @ m - m @ SWAP) for m in mats) > 0.1
    with_commutant(monkeypatch, [np.eye(2)])
    identity = commutant_action_on_classes(rep)
    assert np.allclose(identity[0], np.eye(basis.dims[2]))
    with_commutant(monkeypatch, [np.eye(2), SWAP])
    with pytest.raises(CocycleError, match=r"^relator \d+ has cocycle residual "):
        commutant_action_on_classes(rep)
    with pytest.raises(CocycleError, match=r"^relator \d+ has cocycle residual "):
        reference_commutant_action_on_classes(rep, basis, [SWAP])


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
                    # an unvalidated view walks its defects on first read,
                    # and the walk agrees with the batched certificate
                    assert "relator_defects" not in vars(view)
                    assert np.allclose(view.relator_defects, defects[:, k], rtol=0.0, atol=1e-12)
            walked_worst = max(
                (max(Cocycle(rep, c.values).relator_defects, default=0.0) for c in basis.cocycle_basis),
                default=0.0,
            )
            assert abs(basis.residuals["worst_cocycle_relator_defect"] - walked_worst) <= 1e-12
