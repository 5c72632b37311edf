"""The staged commutant solve (the commutant of pi, the boundary split, a
per-cocycle annihilator) and the two-step equivalence search, against the
dense Kronecker system in the full unknowns (vec T, t) with a QR null space
and a least-squares solve (``tests/helpers.py``); and the stages of a direct
sum, assembled from its summands' solves, against the same stages solved on
a plain representation of the sum's matrices, with the sum's decision split
into two annihilators at summand size; the equivalent projections a direct
sum's analysis reads off one row block of its commutant; and a plain
action's witness subspace against the codimension of the minimal invariant
subspace in the Kronecker reference."""

import numpy as np
import pytest

from affine_actions import (
    AffineAction,
    AffineMap,
    Cocycle,
    GroupPresentation,
    Representation,
    affine_commutant,
    analyze_direct_sum,
    check_equivalence,
    check_invariance,
    commutant_basis,
    commutant_residual,
    conjugate_by_translation,
    decide_irreducibility,
    direct_sum,
    intertwining_residual,
    invariant_subspace_from_witness,
    project_action,
)
from affine_actions.actions import ActionError, certification_scale, unit_scale
from affine_actions.linalg import numerical_rank, residual_ok
from affine_actions.problem_io import load_problem
from affine_actions.reps import _generic_weights, boundary_split, hom_basis

from helpers import (
    FAMILIES,
    FIXTURES,
    TOL,
    analyzed,
    check_witness,
    counting_solves,
    f2_group,
    fixed_point_action,
    kronecker_intertwiner_system,
    lstsq_solve,
    qr_null_space,
    random_action,
    random_cocycle,
    random_dihedral_rep,
    random_field_vector,
    random_free_rep,
    random_isometry,
    symmetric_actions,
)

DIMS = (1, 2, 3, 4, 6)
SEEDS = (0, 1, 2)


def family_cases(family: str, field: str):
    """(label, action) for every dimension and seed: the action alone, its
    double a (+) a, and a (+) a' with a' a second random action of the family."""
    for d in DIMS:
        for seed in SEEDS:
            rng = np.random.default_rng(1000 * d + seed)
            a = random_action(FAMILIES[family](rng, d, field), rng)
            other = random_action(FAMILIES[family](rng, d, field), rng)
            for kind, action in (("alone", a), ("a+a", direct_sum(a, a)), ("a+a'", direct_sum(a, other))):
                yield (d, seed, kind), action


def reference_dims(action: AffineAction) -> tuple[int, int, int]:
    """Dimensions of the affine commutant, the commutant of pi and the fixed
    space from the dense Kronecker system, the cocycle at unit scale."""
    rep = action.rep
    s = unit_scale(action)
    values = [b / s for b in action.cocycle.values]
    affine = qr_null_space(kronecker_intertwiner_system(rep, rep, values, values)[0]).shape[1]
    linear = qr_null_space(kronecker_intertwiner_system(rep, rep)[0]).shape[1]
    return affine, linear, qr_null_space(rep.boundary_map()).shape[1]


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_staged_commutant_matches_the_kronecker_reference(family, field):
    for label, action in family_cases(family, field):
        affine, linear, fixed = reference_dims(action)
        assert len(affine_commutant(action).pairs) == affine, label
        assert len(commutant_basis(action.rep)) == linear, label
        assert decide_irreducibility(action).reducible == (affine > fixed), label


def certified_equivalence(a1: AffineAction, a2: AffineAction) -> bool:
    """check_equivalence finds an intertwiner, and it meets the certification bound."""
    result = check_equivalence(a1, a2)
    if not result.equivalent:
        return False
    mapping = result.intertwiner
    residual = intertwining_residual(a1, a2, mapping)
    return residual_ok(residual, certification_scale((mapping.linear, mapping.translation), a1, a2), TOL.eps_residual)


def reference_consistent(a1: AffineAction, a2: AffineAction) -> bool:
    """The dense system T pi1 = pi2 T, T b1 - (pi2 - I) t = b2 has a
    least-squares solution within the residual bound."""
    s = unit_scale(a1, a2)
    values1, values2 = [b / s for b in a1.cocycle.values], [b / s for b in a2.cocycle.values]
    return lstsq_solve(*kronecker_intertwiner_system(a1.rep, a2.rep, values1, values2)) is not None


def equivalent_pairs(action: AffineAction, rng):
    """The action against a translation conjugate, a unitary rebasing and a dilation."""
    d, field = action.dim, action.field
    yield "translation", conjugate_by_translation(action, random_field_vector(d, field, rng))
    q = random_isometry(d, field, rng)
    rep = Representation(action.presentation, field, [q @ m @ q.conj().T for m in action.rep.matrices])
    yield "rebasing", AffineAction.from_values(rep, [q @ b for b in action.cocycle.values])
    yield "dilation", AffineAction.from_values(action.rep, [3.7 * b for b in action.cocycle.values])


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("family", ["f2", "dihedral", "z-abelian", "s3"])
def test_equivalence_is_found_and_certified_where_the_reference_solves(family, field):
    for seed in SEEDS:
        rng = np.random.default_rng(50 + seed)
        action = random_action(FAMILIES[family](rng, 4, field), rng)
        for kind, other in equivalent_pairs(action, rng):
            assert reference_consistent(action, other), (kind, seed)
            assert certified_equivalence(action, other), (kind, seed)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_inequivalent_pairs_are_definitely_not_found(field):
    for seed in SEEDS:
        rng = np.random.default_rng(70 + seed)
        for group, build in (("f2", lambda: random_free_rep(f2_group(), 3, field, rng)),
                             ("dihedral", lambda: random_dihedral_rep(4, field, rng))):
            rep = build()
            action = random_action(rep, rng)
            # a second class on the same representation, and an action on a
            # second representation, generically with no intertwiner to it
            for other in (random_action(rep, rng), random_action(build(), rng)):
                if reference_consistent(action, other):
                    # a generic F2 pair never is; a dihedral one may be,
                    # since its H^1 is small
                    assert group == "dihedral", seed
                    continue
                result = check_equivalence(action, other)
                assert not result.equivalent and not result.probabilistic, (group, seed)


# -- direct sums assembled from their summands' solves ------------------------

SUM_SEEDS = (0, 1, 2, 3)


def value_equal_copy(action: AffineAction) -> AffineAction:
    """The same action on a second representation object with copied matrices."""
    rep = action.rep
    copy = Representation(rep.presentation, rep.field, [m.copy() for m in rep.matrices], dim=rep.dim)
    return AffineAction.from_values(copy, [b.copy() for b in action.cocycle.values])


def plain(action: AffineAction) -> AffineAction:
    """The action on a Representation of the same matrices that keeps no summands."""
    rep = action.rep
    flat = Representation(rep.presentation, rep.field, rep.matrices, dim=rep.dim, validate=False)
    return AffineAction(flat, Cocycle(flat, action.cocycle.values, validate=False))


def sum_cases(family: str, field: str):
    """(label, a1, a2) for every dimension and seed: a (+) a, a (+) a copy of
    a, a (+) a', the nested (a (+) a') (+) a, r (+) a and a (+) r, with r
    the reducible zero-cocycle action on the representation of a'. The
    commutant of r (+) a has only top-row pairs when a is irreducible and
    Hom(pi', pi) = 0; that of a (+) r has bottom-row pairs with C = 0."""
    for d in DIMS:
        for seed in SUM_SEEDS:
            rng = np.random.default_rng(2000 * d + seed)
            a = random_action(FAMILIES[family](rng, d, field), rng)
            other = random_action(FAMILIES[family](rng, d, field), rng)
            reducible = fixed_point_action(other)
            for kind, a1, a2 in (
                ("a+a", a, a),
                ("a+copy", a, value_equal_copy(a)),
                ("a+a'", a, other),
                ("(a+a')+a", direct_sum(a, other), a),
                ("r+a", reducible, a),
                ("a+r", a, reducible),
            ):
                yield (d, seed, kind), a1, a2


def projector(columns: np.ndarray) -> np.ndarray:
    return columns @ columns.conj().T


def assert_same_span(got: np.ndarray, want: np.ndarray, label) -> None:
    assert got.shape == want.shape, label
    assert np.abs(projector(got) - projector(want)).max(initial=0.0) <= 1e-8, label


def vec_columns(basis) -> np.ndarray:
    return np.column_stack([np.asarray(t).reshape(-1) for t in basis])


def generic_element(rep: Representation) -> np.ndarray:
    z = np.einsum("s,sij->ij", _generic_weights(len(rep.matrices), rep.field), np.asarray(rep.matrices))
    return z + z.conj().T


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_sum_stages_match_a_solve_at_the_sum_dimension(family, field):
    for label, a1, a2 in sum_cases(family, field):
        action = direct_sum(a1, a2)
        reference = plain(action)
        rep, ref = action.rep, reference.rep
        assert rep._summands is not None and ref._summands is None, label
        assert_same_span(vec_columns(commutant_basis(rep)), vec_columns(commutant_basis(ref)), label)
        split, ref_split = boundary_split(rep), boundary_split(ref)
        assert_same_span(split.kernel, ref_split.kernel, label)
        assert_same_span(split.image, ref_split.image, label)
        scale = 1.0 + np.abs(ref_split.pinv).max(initial=0.0)
        assert np.abs(split.pinv - ref_split.pinv).max(initial=0.0) <= 1e-8 * scale, label
        values, q, _ = rep.generic_eigenbasis
        assert np.abs(q @ np.diag(values) @ q.conj().T - generic_element(rep)).max() <= 1e-12, label


def pair_columns(pairs, scale: float) -> np.ndarray:
    """Orthonormal columns spanning the pairs as vectors (vec U, t/s)."""
    columns = np.column_stack([np.concatenate([p.deviation.reshape(-1), p.translation / scale]) for p in pairs])
    return np.linalg.qr(columns)[0]


def assert_witness_certified(label, action: AffineAction, verdict) -> None:
    """The witness map has U != 0 and meets the commutant equations, and its
    subspace is proper, orthonormal and invariant, each within the
    certification bound."""
    witness, subspace = verdict.witness_map, verdict.witness_subspace
    u, t = witness.deviation, witness.translation
    assert np.linalg.norm(u) > TOL.eps_residual, label
    bound = certification_scale((u, t), action)
    assert residual_ok(commutant_residual(action, witness), bound, TOL.eps_residual), label
    k = subspace.directions
    assert subspace.dim < action.dim, label
    assert np.abs(k.conj().T @ k - np.eye(subspace.dim)).max(initial=0.0) <= 1e-10, label
    bound = certification_scale((subspace.base,), action)
    assert residual_ok(check_invariance(action, subspace), bound, TOL.eps_residual), label


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_sum_decision_matches_a_decision_at_the_sum_dimension(family, field):
    """The row-block decision of a sum against the one of a plain
    representation of its matrices: the verdict, the number of commutant
    pairs and their span, and a certified witness on each side."""
    for label, a1, a2 in sum_cases(family, field):
        action = direct_sum(a1, a2)
        reference = plain(action)
        verdict, ref_verdict = decide_irreducibility(action), decide_irreducibility(reference)
        assert verdict.reducible == ref_verdict.reducible, label
        assert len(verdict.commutant) == len(ref_verdict.commutant), label
        if verdict.commutant:
            s = unit_scale(action)
            assert_same_span(pair_columns(verdict.commutant, s), pair_columns(ref_verdict.commutant, s), label)
        if verdict.reducible:
            assert_witness_certified(label, action, verdict)
            assert_witness_certified(label, reference, ref_verdict)


def test_the_grid_has_top_only_and_zero_c_blocks():
    """On generic F2 summands of d >= 2, r (+) a has only top-row pairs, so
    its witness comes from the top block, and a (+) r has a bottom block
    with C = 0; both name the reducible summand. (At d = 1 two real
    characters may be equal.)"""
    for label, a1, a2 in sum_cases("f2", "real"):
        if label[0] == 1 or label[2] not in ("r+a", "a+r"):
            continue
        d1 = a1.dim
        verdict = decide_irreducibility(direct_sum(a1, a2))
        moving = [p.deviation for p in verdict.commutant if p.deviation.any()]
        u = verdict.witness_map.deviation
        if label[2] == "r+a":
            assert moving and not any(m[d1:].any() for m in moving), label
            assert u[:d1].any() and not u[d1:].any(), label
        else:
            assert np.abs(u[d1:, :d1]).max() <= 1e-12 and u[d1:, d1:].any(), label
        with pytest.raises(ActionError, match=f"{'first' if label[2] == 'r+a' else 'second'} summand is reducible"):
            analyze_direct_sum(a1, a2)


def symmetric_summands(a1: AffineAction, a2: AffineAction, rng):
    """(kind, a1', a2') with a1' (+) a2' conjugate to a1 (+) a2: each
    summand moved by ``symmetric_actions`` (one lambda for both, a
    block-diagonal change of basis of the sum)."""
    for (kind, b1, _), (_, b2, _) in zip(symmetric_actions(a1, rng), symmetric_actions(a2, rng)):
        yield kind, b1, b2


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_sum_verdict_is_invariant_under_the_symmetries(family, field):
    rng = np.random.default_rng(17)
    for label, a1, a2 in sum_cases(family, field):
        if label[1] not in SUM_SEEDS[:2]:
            continue
        verdict = decide_irreducibility(direct_sum(a1, a2))
        for kind, b1, b2 in symmetric_summands(a1, a2, rng):
            moved = direct_sum(b1, b2)
            other = decide_irreducibility(moved)
            assert other.reducible == verdict.reducible, (label, kind)
            assert len(other.commutant) == len(verdict.commutant), (label, kind)
            if other.reducible:
                assert_witness_certified((label, kind), moved, other)
                assert other.witness_subspace.dim == verdict.witness_subspace.dim, (label, kind)


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_hom_back_is_the_adjoint_of_hom_forth(family, field):
    for d in DIMS:
        rng = np.random.default_rng(3000 + d)
        rep1, rep2 = FAMILIES[family](rng, d, field), FAMILIES[family](rng, d, field)
        forth, back = hom_basis(rep1, rep2), hom_basis(rep2, rep1)
        adjoints = forth.conj().transpose(0, 2, 1)
        assert len(back) == len(forth), d
        if len(back):
            assert_same_span(vec_columns(adjoints), vec_columns(back), d)


def test_sum_eigenbasis_diagonalizes_the_generic_element():
    rng = np.random.default_rng(11)
    a = random_action(random_free_rep(f2_group(), 3, "complex", rng), rng)
    b = random_action(random_free_rep(f2_group(), 2, "complex", rng), rng)
    rep = direct_sum(a, b).rep
    values, q, p = rep.generic_eigenbasis
    assert np.abs(q @ np.diag(values) @ q.conj().T - generic_element(rep)).max() <= 1e-12
    assert np.abs(q.conj().T @ q - np.eye(5)).max() <= 1e-12
    assert np.abs(q @ p @ q.conj().T - np.asarray(rep.matrices)).max() <= 1e-12


def assert_certified_equivalence(label, a1: AffineAction, a2: AffineAction) -> None:
    result = check_equivalence(a1, a2)
    assert result.equivalent and not result.probabilistic, label
    t_mat, t = result.intertwiner.linear, result.intertwiner.translation
    assert numerical_rank(np.linalg.svd(t_mat, compute_uv=False), TOL) == a1.dim, label
    residual = intertwining_residual(a1, a2, result.intertwiner)
    assert result.residuals == {"intertwining": residual}, label
    assert residual_ok(residual, certification_scale((t_mat, t), a1, a2), TOL.eps_residual), label


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_a_sum_is_equivalent_to_its_swap_and_its_plain_form(family, field):
    """``check_equivalence`` reads the generic eigenbasis of a sum (one
    ``eigh`` at d1 + d2): a (+) b against b (+) a and against a plain
    representation of its block matrices, each Equivalent with a certified
    intertwiner."""
    for d1, d2 in ((1, 1), (1, 2), (2, 3), (3, 3)):
        rng = np.random.default_rng(7000 + 10 * d1 + d2)
        a = random_action(FAMILIES[family](rng, d1, field), rng)
        b = random_action(FAMILIES[family](rng, d2, field), rng)
        total = direct_sum(a, b)
        for kind, other in (("swap", direct_sum(b, a)), ("plain", plain(total))):
            assert_certified_equivalence((d1, d2, kind), total, other)


def test_generator_free_sum_splits_like_its_plain_form():
    presentation = GroupPresentation([], [])
    reps = [Representation(presentation, "real", [], dim=d) for d in (2, 3)]
    total = direct_sum(*(AffineAction.from_values(r, []) for r in reps))
    split, ref = boundary_split(total.rep), boundary_split(plain(total).rep)
    assert split.image.shape == ref.image.shape == (0, 0)
    assert split.pinv.shape == ref.pinv.shape == (5, 0)
    assert_same_span(split.kernel, ref.kernel, "kernel")
    assert len(commutant_basis(total.rep)) == 25


def commutant_solves(calls) -> int:
    return sum(kind == "commutant" for kind, _ in calls)


def test_double_after_deciding_its_summand_solves_nothing(monkeypatch):
    rng = np.random.default_rng(12)
    a = random_action(random_free_rep(f2_group(), 4, "real", rng), rng)
    decide_irreducibility(a)
    calls = counting_solves(monkeypatch)
    analysis = analyze_direct_sum(a, a)
    assert analysis.verdict.reducible and analysis.projections is not None
    assert calls == []


def test_double_after_deciding_its_summand_factorizes_nothing_at_the_sum_dimension(monkeypatch):
    # three generators, so the g d rows of a summand's annihilator are not 2d
    rng = np.random.default_rng(16)
    d = 4
    a = random_action(random_free_rep(GroupPresentation(["a", "b", "c"]), d, "real", rng), rng)
    decide_irreducibility(a)
    calls = counting_solves(monkeypatch, factorizations=True)
    analysis = analyze_direct_sum(a, a)
    assert analysis.verdict.reducible and analysis.projections is not None
    # no eigensolve, and two annihilators of g d rows and c + h = 2 columns
    assert calls == [("null_space", (3 * d, 2)), ("null_space", (3 * d, 2))]


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_double_witness_matches_the_stacked_rule_at_the_sum_dimension(family, field):
    """The witness of a (+) a read at summand size (the pair count, or the
    diagonal embedding of a's own subspace) against the stacked rule on a
    plain representation of the sum's matrices."""
    for label, a1, a2 in sum_cases(family, field):
        if label[2] not in ("a+a", "a+copy"):
            continue
        action = direct_sum(a1, a2)
        verdict, reference = decide_irreducibility(action), decide_irreducibility(plain(action))
        assert verdict.reducible and reference.reducible, label
        got, want = verdict.witness_subspace, reference.witness_subspace
        assert got.dim == want.dim, label
        assert np.abs(projector(got.directions) - projector(want.directions)).max(initial=0.0) <= 1e-8, label
        assert np.linalg.norm(got.base - want.base) <= 1e-8 * (1.0 + np.linalg.norm(want.base)), label
        assert np.abs(verdict.witness_map.linear - reference.witness_map.linear).max() <= 1e-8, label


def test_sum_defects_are_computed_only_when_asked():
    rng = np.random.default_rng(18)
    a = random_action(random_dihedral_rep(3, "real", rng), rng)
    total = direct_sum(a, a)
    decide_irreducibility(total)
    rep, cocycle = total.rep, total.cocycle
    assert {"isometry_defects", "relator_defects"}.isdisjoint(vars(rep)), "the unvalidated sum computed its defects"
    assert "relator_defects" not in vars(cocycle)
    assert {"isometry_defects", "relator_defects"} <= set(vars(a.rep)), "a validated summand computes them at once"
    eye = np.eye(rep.dim)
    relators = rep.presentation.relators
    assert rep.isometry_defects == tuple(float(np.linalg.norm(m.T @ m - eye)) for m in rep.matrices)
    assert rep.relator_defects == tuple(float(np.linalg.norm(rep.evaluate(r) - eye)) for r in relators)
    assert cocycle.relator_defects == tuple(float(np.linalg.norm(cocycle.extend(r))) for r in relators)
    assert cocycle.max_norm == max(float(np.linalg.norm(b)) for b in cocycle.values)


def cold_action(rep: Representation, rng) -> AffineAction:
    """A random cocycle on a fresh copy of ``rep``, so no solve is cached on it."""
    values = [b.copy() for b in random_cocycle(rep, rng).values]
    fresh = Representation(rep.presentation, rep.field, [m.copy() for m in rep.matrices], dim=rep.dim)
    return AffineAction.from_values(fresh, values)


def test_value_equal_summands_share_one_solve(monkeypatch):
    rng = np.random.default_rng(13)
    rep = random_free_rep(f2_group(), 3, "complex", rng)
    a, copy = cold_action(rep, rng), cold_action(rep, rng)
    calls = counting_solves(monkeypatch)
    total = direct_sum(a, copy)
    assert total.rep._summands == (a.rep, a.rep)
    decide_irreducibility(total)
    assert commutant_solves(calls) == 1
    assert [shape for kind, shape in calls if kind == "boundary"] == [(6, 3)]


def test_distinct_summands_take_two_commutants_and_one_hom(monkeypatch):
    rng = np.random.default_rng(14)
    group = f2_group()
    a = cold_action(random_free_rep(group, 3, "real", rng), rng)
    b = cold_action(random_free_rep(group, 2, "real", rng), rng)
    calls = counting_solves(monkeypatch)
    decide_irreducibility(direct_sum(a, b))
    assert commutant_solves(calls) == 3
    assert [shape for kind, shape in calls if kind == "boundary"] == [(6, 3), (4, 2)]


def test_assembled_arrays_are_read_only():
    rng = np.random.default_rng(15)
    group = f2_group()
    a = random_action(random_free_rep(group, 3, "complex", rng), rng)
    b = random_action(random_free_rep(group, 2, "complex", rng), rng)
    for total in (direct_sum(a, b), direct_sum(direct_sum(a, b), a), direct_sum(a, a)):
        split = boundary_split(total.rep)
        arrays = [*commutant_basis(total.rep), split.image, split.kernel, split.pinv, *total.rep.generic_eigenbasis]
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 1.0


# -- equivalent projections from one commutant row block ----------------------


def witness_cases(family: str, field: str):
    """(label, a1, a2) for every dimension and seed: a (+) a, a (+) 2.5a,
    a (+) a' with a' a second cocycle on pi, a (+) b with b an action on a
    second representation of the family, and (a (+) a) (+) a."""
    for d in DIMS:
        for seed in SEEDS:
            rng = np.random.default_rng(4000 * d + seed)
            a = random_action(FAMILIES[family](rng, d, field), rng)
            scaled = AffineAction.from_values(a.rep, [2.5 * b for b in a.cocycle.values])
            other = random_action(a.rep, rng)
            b = random_action(FAMILIES[family](rng, d, field), rng)
            for kind, a1, a2 in (
                ("a+a", a, a),
                ("a+2.5a", a, scaled),
                ("a+a'", a, other),
                ("a+b", a, b),
                ("(a+a)+a", direct_sum(a, a), a),
            ):
                yield (d, seed, kind), a1, a2


def fixture_cases():
    """(label, a1, a2): the double of every problem fixture, and the glide
    next to the translation of Z."""
    actions = {p.stem: load_problem(p).build_action() for p in sorted(FIXTURES.glob("*.json")) if p.stem != "c2xz_setup"}
    for name, action in actions.items():
        yield f"{name} double", action, action
    yield "glide+translation", actions["glide"], actions["z_translation"]


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_reducible_sums_have_certified_projections_or_a_reducible_summand(family, field):
    for label, a1, a2 in witness_cases(family, field):
        check_witness(label, a1, a2)


def test_fixture_doubles_have_certified_projections():
    for label, a1, a2 in fixture_cases():
        check_witness(label, a1, a2)


def same_result(left, right) -> bool:
    if left is None or isinstance(left, ActionError):
        return type(left) is type(right) and str(left) == str(right)
    pieces = [(p.v1_basis, p.v2_basis, p.intertwiner.linear, p.intertwiner.translation) for p in (left, right)]
    return all(np.array_equal(x, y) for x, y in zip(*pieces))


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_projections_draw_nothing_and_repeat_bit_for_bit(family, field, monkeypatch):
    cases = list(witness_cases(family, field))

    def no_generator(*args, **kwargs):
        raise AssertionError("analyze_direct_sum created a random generator")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    for label, a1, a2 in cases:
        first = analyzed(a1, a2)
        assert same_result(first, analyzed(a1, a2)), label
        if a1 is a2:
            assert same_result(first, analyzed(a1, value_equal_copy(a2))), label


# -- the witness subspace of a plain action: the minimal invariant subspace --


def plain_reducible_cases(family: str, field: str):
    """(label, action, verdict) for every dimension and seed: a random
    action of the family and the zero cocycle on its representation (always
    reducible: U = I, t = 0 is a witness), whichever is reducible."""
    for d in DIMS:
        for seed in SEEDS:
            rng = np.random.default_rng(5000 * d + seed)
            a = random_action(FAMILIES[family](rng, d, field), rng)
            for kind, action in (("b", a), ("zero", fixed_point_action(a))):
                verdict = decide_irreducibility(action)
                if verdict.reducible:
                    yield (d, seed, kind), action, verdict


def reference_codimension(action: AffineAction) -> int:
    """The rank of the U-parts of the dense Kronecker commutant (the cocycle
    at unit scale), stacked: the codimension of the minimal invariant
    affine subspace."""
    rep, d = action.rep, action.dim
    s = unit_scale(action)
    values = [b / s for b in action.cocycle.values]
    kernel = qr_null_space(kronecker_intertwiner_system(rep, rep, values, values)[0])
    stacked = np.vstack([column[: d * d].reshape(d, d) for column in kernel.T])
    return numerical_rank(np.linalg.svd(stacked, compute_uv=False), TOL)


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_plain_witness_subspace_is_the_minimal_invariant_subspace(family, field):
    """The witness subspace K has dimension d - rank of the stacked U-parts
    of the Kronecker reference; the action restricted to K (translated to
    its base, then projected) is irreducible; the zero cocycle gives the
    fixed point 0; and the witness map is the nearest-point map onto K."""
    cases = list(plain_reducible_cases(family, field))
    assert cases
    for label, action, verdict in cases:
        subspace, witness = verdict.witness_subspace, verdict.witness_map
        assert subspace.dim == action.dim - reference_codimension(action), label
        if subspace.dim:
            moved = conjugate_by_translation(action, subspace.base)
            assert decide_irreducibility(project_action(moved, subspace.directions)).irreducible, label
        if label[2] == "zero":
            assert subspace.dim == 0 and not subspace.base.any(), label
        assert np.abs(witness.linear - projector(subspace.directions)).max() <= 1e-12, label
        assert np.array_equal(witness.translation, subspace.base), label


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_plain_verdict_is_invariant_under_the_symmetries(family, field):
    """Each symmetry keeps the verdict and a certified witness whose
    subspace has the same dimension, and the verdict's witness carried over
    by it gives a subspace of that dimension too."""
    rng = np.random.default_rng(17)
    for label, action, verdict in plain_reducible_cases(family, field):
        for kind, moved, carry in symmetric_actions(action, rng):
            other = decide_irreducibility(moved)
            assert other.reducible, (label, kind)
            assert_witness_certified((label, kind), moved, other)
            assert other.witness_subspace.dim == verdict.witness_subspace.dim, (label, kind)
            u, t = carry(verdict.witness_map.deviation, verdict.witness_map.translation)
            subspace = invariant_subspace_from_witness(moved, AffineMap(np.eye(len(u)) + u, t))
            assert subspace.dim == verdict.witness_subspace.dim, (label, kind)


def test_plain_reducible_decision_factorizes_nothing_past_its_annihilator(monkeypatch):
    # a rotation of R^4 has no fixed vector, so every commutant element
    # sends b to a coboundary and the action is reducible
    rng = np.random.default_rng(19)
    action = random_action(FAMILIES["z"](rng, 4, "real"), rng)
    decide_irreducibility(action)
    calls = counting_solves(monkeypatch, factorizations=True)
    affine_commutant(action)
    annihilator = list(calls)
    calls.clear()
    assert decide_irreducibility(action).reducible
    # no eigensolve, and no null space but the annihilator's
    assert annihilator and calls == annihilator
