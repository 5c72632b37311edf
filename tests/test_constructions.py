import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from affine_actions import (
    AffineAction,
    CosetTable,
    GroupPresentation,
    InducedSetup,
    Representation,
    SubgroupSpec,
    ToleranceProfile,
    check_center_translations,
    check_restriction_theorem,
    check_translation_characterization,
    decide_irreducibility,
    fixed_points,
    induce_action,
    QuadraticFormResult,
    Word,
    orbit_hull_probe,
    quadratic_form_test,
    restrict_action,
)
from affine_actions.actions import unit_scale
from affine_actions import constructions
from affine_actions.constructions import (
    ConstructionError,
    _HULL_STOP,
    _hull_distances,
    _min_norm_points,
    _orbit_cloud,
    _commutator_pair,
    _is_heisenberg_shaped,
    _psi_grid,
    is_free_abelian,
)
from affine_actions.problem_io import load_problem
from affine_actions.reps import Cocycle, CocycleError, RepresentationError

from helpers import (
    FIXTURES,
    _lattice_word,
    TOL,
    dihedral_group,
    draw_orbit_words,
    f2_group,
    free_abelian_group,
    heisenberg_group,
    permuted,
    random_action,
    random_field_vector,
    random_heisenberg_rep,
    random_isometry,
    reference_batched_hull_distances,
    reference_hull_distance,
    reference_nnls_hull_distance,
    reference_orbit_hull_probe,
    reference_quadratic_form_test,
    squared_norm,
    total_random_abelian_action,
    walked_point,
    z2_group,
    z_group,
)

# an overflow or invalid value in the orbit probe fails the test instead of
# hiding behind a finite-looking or infinite distance
WARNINGS_FAIL = pytest.mark.filterwarnings("error::RuntimeWarning")

RNG = np.random.default_rng(37)


def dihedral_action():
    dih = dihedral_group()
    rep = Representation(dih, "complex", [np.eye(1, dtype=complex), -np.eye(1, dtype=complex)])
    return AffineAction.from_values(rep, [np.array([1.0 + 0j]), np.array([0.0 + 0j])])


def glide_action():
    z = z_group()
    rep = Representation(z, "real", [np.diag([1.0, -1.0])])
    return AffineAction.from_values(rep, [np.array([1.0, 2.0])])


def z_translation_action(dim=1, value=1.0):
    z = z_group()
    rep = Representation(z, "real", [np.eye(dim)])
    vec = np.zeros(dim)
    vec[0] = value
    return AffineAction.from_values(rep, [vec])


def c2xz_setup():
    ambient = GroupPresentation(["a", "t"], ["a a", "a t a^-1 t^-1"])
    sub = z_group()
    table = CosetTable(
        (ambient.parse_word("1"), ambient.parse_word("a")),
        ((1, 0), (0, 1)),
        ((sub.parse_word("1"), sub.parse_word("1")), (sub.parse_word("t"), sub.parse_word("t"))),
    )
    return InducedSetup(ambient, sub, table)


def test_restrict_dihedral_to_translations_is_irreducible():
    action = dihedral_action()
    sub = SubgroupSpec(action.presentation, ("t",))
    restricted = restrict_action(action, sub)
    assert restricted.presentation.relators == ()
    assert np.allclose(restricted.rep.matrices[0], [[1.0]])
    assert np.allclose(restricted.cocycle.values[0], [1.0])
    assert decide_irreducibility(restricted).irreducible


def test_restrict_to_trivial_subgroup_reducible():
    action = dihedral_action()
    restricted = restrict_action(action, SubgroupSpec(action.presentation, ()))
    assert restricted.presentation.num_generators == 0
    assert decide_irreducibility(restricted).reducible


def test_restrict_glide_to_even_powers():
    action = glide_action()
    restricted = restrict_action(action, SubgroupSpec(action.presentation, ("t t",)))
    assert np.allclose(restricted.rep.matrices[0], np.eye(2))
    assert np.allclose(restricted.cocycle.values[0], [2.0, 0.0])
    assert decide_irreducibility(restricted).reducible


def test_restriction_inherits_the_validity_of_its_action():
    # pi(a) has isometry defect 1.91e-8, within the bound 2e-8; pi(a^2)
    # doubles it to 3.8e-8, which a bound of the restriction's own refused
    def rotation(angle):
        return np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])

    f2 = f2_group()
    rep = Representation(f2, "real", [(1 + 6.75e-9) * rotation(0.7), rotation(1.3)])
    action = AffineAction.from_values(rep, [np.array([1.0, 0.0]), np.array([0.0, 2.0])])
    restricted = restrict_action(action, SubgroupSpec(f2, ("a a", "b")))
    assert restricted.rep.isometry_defects[0] > 2 * action.tol.eps_residual
    assert np.array_equal(restricted.rep.matrices[0], rep.matrices[0] @ rep.matrices[0])
    assert np.array_equal(restricted.cocycle.values[1], action.cocycle.values[1])
    assert restricted.tol == action.tol


def test_induce_translations_to_c2xz_is_reducible_with_diagonal_witness():
    induced = induce_action(z_translation_action(), c2xz_setup())
    assert induced.dim == 2
    assert np.allclose(induced.rep.matrices[0], [[0.0, 1.0], [1.0, 0.0]])  # a swaps
    assert np.allclose(induced.rep.matrices[1], np.eye(2))  # t acts trivially
    assert np.allclose(induced.cocycle.values[1], [1.0, 1.0])
    verdict = decide_irreducibility(induced)
    assert verdict.reducible
    direction = verdict.witness_subspace.directions[:, 0]
    assert abs(abs(direction @ np.ones(2) / np.sqrt(2.0)) - 1.0) < 1e-8


def test_induce_index_one_returns_same_action():
    z = z_group()
    table = CosetTable((z.parse_word("1"),), ((0,),), ((z.parse_word("t"),),))
    setup = InducedSetup(z, z, table)
    action = z_translation_action()
    induced = induce_action(action, setup)
    assert np.allclose(induced.rep.matrices[0], action.rep.matrices[0])
    assert np.allclose(induced.cocycle.values[0], action.cocycle.values[0])


def test_induce_zero_cocycle_gives_permutation_action_with_fixed_point():
    action = z_translation_action(value=0.0)
    induced = induce_action(action, c2xz_setup())
    assert np.linalg.norm(np.concatenate(induced.cocycle.values)) < 1e-12
    assert decide_irreducibility(induced).reducible
    assert fixed_points(induced).subspace is not None


def test_induce_translations_up_the_dihedral_tower():
    # index-2 table for <t> inside the infinite dihedral group; the second
    # Schreier word is u^-1, exercising the inverse-letter cocycle rule
    dih = dihedral_group()
    sub = GroupPresentation(["u"])
    table = CosetTable(
        (dih.parse_word("1"), dih.parse_word("s")),
        ((0, 1), (1, 0)),
        ((sub.parse_word("u"), sub.parse_word("u^-1")), (sub.parse_word("1"), sub.parse_word("1"))),
    )
    setup = InducedSetup(dih, sub, table)
    rep = Representation(sub, "real", [np.eye(1)])
    translations = AffineAction.from_values(rep, [np.array([1.0])])
    induced = induce_action(translations, setup)
    assert np.allclose(induced.rep.matrices[0], np.eye(2))
    assert np.allclose(induced.cocycle.values[0], [1.0, -1.0])
    assert np.allclose(induced.rep.matrices[1], [[0.0, 1.0], [1.0, 0.0]])
    verdict = decide_irreducibility(induced)
    assert verdict.reducible  # the antidiagonal line y = -x is invariant
    direction = verdict.witness_subspace.directions[:, 0]
    assert abs(abs(direction @ np.array([1.0, -1.0]) / np.sqrt(2.0)) - 1.0) < 1e-8


def test_induce_rejects_bad_schreier_words():
    setup = c2xz_setup()
    broken_table = CosetTable(
        setup.table.transversal,
        setup.table.action,
        (
            (setup.subgroup.parse_word("t"), setup.subgroup.parse_word("t")),  # wrong a-row
            setup.table.schreier[1],
        ),
    )
    broken = InducedSetup(setup.ambient, setup.subgroup, broken_table)
    with pytest.raises((RepresentationError, CocycleError)):
        induce_action(z_translation_action(), broken)


def test_induce_rejects_invalid_table():
    setup = c2xz_setup()
    broken_table = CosetTable(
        setup.table.transversal,
        ((1, 1), (0, 1)),
        setup.table.schreier,
    )
    with pytest.raises(ConstructionError):
        induce_action(z_translation_action(), InducedSetup(setup.ambient, setup.subgroup, broken_table))


def dihedral_index2_table():
    dih = dihedral_group()
    sub = GroupPresentation(["u"])
    table = CosetTable(
        (dih.parse_word("1"), dih.parse_word("s")),
        ((0, 1), (1, 0)),
        ((sub.parse_word("u"), sub.parse_word("u^-1")), (sub.parse_word("1"), sub.parse_word("1"))),
    )
    return sub, table


def test_restriction_theorem_dihedral():
    action = dihedral_action()
    sub_pres, table = dihedral_index2_table()
    sub = SubgroupSpec(action.presentation, ("t",), sub_pres)
    report = check_restriction_theorem(action, sub, table)
    assert report.passed, report.failures()


def test_restriction_theorem_finite_index_in_z():
    action = z_translation_action()
    z = action.presentation
    table = CosetTable(
        (z.parse_word("1"), z.parse_word("t"), z.parse_word("t t")),
        ((1, 2, 0),),
        ((z.parse_word("1"), z.parse_word("1"), z.parse_word("t")),),
    )
    sub = SubgroupSpec(z, ("t t t",))
    report = check_restriction_theorem(action, sub, table)
    assert report.passed


def test_restriction_theorem_index_one_trivial():
    action = dihedral_action()
    dih = action.presentation
    table = CosetTable(
        (dih.parse_word("1"),),
        ((0,), (0,)),
        ((dih.parse_word("t"),), (dih.parse_word("s"),)),
    )
    sub = SubgroupSpec(dih, ("t", "s"), dihedral_group())
    assert check_restriction_theorem(action, sub, table).passed


def test_restriction_theorem_names_the_dimension_of_k_when_the_restriction_is_reducible():
    # the trivial subgroup has infinite index, so the certificate for 3Z
    # does not hold for it: the restriction fixes every point, and K is one
    action = z_translation_action()
    z = action.presentation
    table = CosetTable(
        (z.parse_word("1"), z.parse_word("t"), z.parse_word("t t")),
        ((1, 2, 0),),
        ((z.parse_word("1"), z.parse_word("1"), z.parse_word("t")),),
    )
    report = check_restriction_theorem(action, SubgroupSpec(z, ("1",)), table)
    (failure,) = report.failures()
    assert failure.name == "restriction-irreducible"
    assert failure.detail == "restricted action reducible; minimal invariant subspace of dimension 0"


def test_restriction_theorem_reports_reducible_input():
    action = glide_action()
    sub = SubgroupSpec(action.presentation, ("t t",))
    z = action.presentation
    table = CosetTable(
        (z.parse_word("1"), z.parse_word("t")),
        ((1, 0),),
        ((z.parse_word("1"), z.parse_word("t")),),
    )
    report = check_restriction_theorem(action, sub, table)
    assert not report.passed
    assert "ambient-irreducible" in {c.name for c in report.failures()}


def heisenberg_translation_action():
    heis = heisenberg_group()
    rep = Representation(heis, "complex", [np.eye(2, dtype=complex)] * 3, dim=2)
    values = [
        np.array([1.0 + 0j, 0.0]),
        np.array([0.0, 1.0 + 0j]),
        np.zeros(2, dtype=complex),
    ]
    return AffineAction.from_values(rep, values)


def test_center_check_heisenberg_passes():
    action = heisenberg_translation_action()
    report = check_center_translations(action, ["z"])
    assert report.passed, report.failures()


def test_center_check_all_generators_of_abelian_action():
    z2 = z2_group()
    rep = Representation(z2, "real", [np.eye(2)] * 2, dim=2)
    action = AffineAction.from_values(rep, [np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    report = check_center_translations(action, ["t1", "t2"])
    assert report.passed


def test_center_check_rejects_non_central_word():
    # 2-dim dihedral rep: pi(t) is a rotation, pi(s) a reflection, so the
    # representation itself witnesses that t is not central
    dih = dihedral_group()
    angle = 2 * np.pi / 5
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    refl = np.diag([1.0, -1.0])
    rep = Representation(dih, "real", [rot, refl])
    action = AffineAction.from_values(rep, [np.zeros(2), np.zeros(2)])
    report = check_center_translations(action, ["t"])
    assert not report.passed
    assert any("not central" in c.detail for c in report.failures())


def test_center_check_flags_scalar_rep_word_moving_off_fixed_space():
    # in the 1-dim dihedral rep every matrix is scalar, so the centrality
    # precondition cannot fail; the conclusion check still reports that t
    # does not translate along the (trivial) fixed space
    report = check_center_translations(dihedral_action(), ["t"])
    assert not report.passed
    assert any(c.name.startswith("translation") for c in report.failures())


def test_center_check_vacuous_without_words():
    report = check_center_translations(dihedral_action(), [])
    assert report.passed
    assert len(report.checks) == 1  # only the irreducibility gate


def test_quadratic_form_translations():
    result = quadratic_form_test(z_translation_action())
    assert result.quadratic


def test_quadratic_form_sign_flip_violation():
    z = z_group()
    rep = Representation(z, "complex", [-np.eye(1, dtype=complex)])
    action = AffineAction.from_values(rep, [np.ones(1, dtype=complex)])
    result = quadratic_form_test(action)
    assert not result.quadratic
    assert result.violation == ((1,), (1,))
    assert decide_irreducibility(action).reducible


def test_quadratic_form_z2_translations():
    z2 = z2_group()
    rep = Representation(z2, "real", [np.eye(2)] * 2, dim=2)
    action = AffineAction.from_values(rep, [np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    result = quadratic_form_test(action)
    assert result.quadratic
    assert decide_irreducibility(action).irreducible


def test_quadratic_form_rejects_non_abelian():
    with pytest.raises(ConstructionError):
        quadratic_form_test(dihedral_action())


def test_quadratic_form_rejects_non_total_cocycle():
    with pytest.raises(ConstructionError):
        quadratic_form_test(z_translation_action(dim=2))


def test_quadratic_form_matches_irreducibility_on_random_actions():
    checked = 0
    attempts = 0
    while checked < 30 and attempts < 300:
        attempts += 1
        action = total_random_abelian_action(RNG)
        if action is None:
            continue
        result = quadratic_form_test(action, window=3)
        verdict = decide_irreducibility(action)
        assert result.quadratic == verdict.irreducible, (
            result.violation,
            verdict.tag,
            [np.round(np.linalg.eigvals(m), 4) for m in action.rep.matrices],
        )
        checked += 1
    assert checked == 30


def test_nilpotent_class_detection():
    assert is_free_abelian(z_group())
    assert is_free_abelian(z2_group())
    assert not is_free_abelian(dihedral_group())
    assert _is_heisenberg_shaped(heisenberg_group())
    assert not _is_heisenberg_shaped(dihedral_group())


XYZ = ["x", "y", "z"]
CENTRAL = ["x z x^-1 z^-1", "y z y^-1 z^-1"]
NOT_HEISENBERG = {
    "four-generators": (["x", "y", "z", "w"], ["x y x^-1 y^-1 z^-1", *CENTRAL]),
    "a-relator-of-another-shape": (XYZ, ["x x", *CENTRAL]),
    "five-letters-without-a-commutator": (XYZ, ["x y x y z^-1", *CENTRAL]),
    "a-bracket-with-a-sixth-letter": (XYZ, ["x y x^-1 y^-1 z^-1 z^-1", *CENTRAL]),
    "two-brackets": (XYZ, ["x y x^-1 y^-1 z^-1", "y x y^-1 x^-1 z^-1", *CENTRAL]),
    "bracket-times-z": (XYZ, ["x y x^-1 y^-1 z", *CENTRAL]),
    "bracket-is-x": (XYZ, ["x y x^-1 y^-1 x^-1", "x y x^-1 y^-1", "x z x^-1 z^-1"]),
    "no-bracket": (XYZ, ["x y x^-1 y^-1", *CENTRAL]),
    "z-not-central": (XYZ, ["x y x^-1 y^-1 z^-1", "x z x^-1 z^-1"]),
}


@pytest.mark.parametrize("case", sorted(NOT_HEISENBERG))
def test_a_presentation_off_the_heisenberg_shape_is_refused(case):
    generators, relators = NOT_HEISENBERG[case]
    presentation = GroupPresentation(generators, relators)
    assert not _is_heisenberg_shaped(presentation)
    if not is_free_abelian(presentation):  # "no-bracket" is Z^3, which is admitted
        rep = Representation(presentation, "real", [np.eye(1)] * len(generators))
        action = AffineAction.from_values(rep, [np.zeros(1)] * len(generators))
        message = "^presentation is not in the nilpotent fixture class; the characterization does not apply$"
        with pytest.raises(ConstructionError, match=message):
            check_translation_characterization(action)


@pytest.mark.parametrize(
    "word, pair",
    [
        ("x y x^-1 y^-1", (0, 1)),
        ("y^-1 x y x^-1", (0, 1)),
        ("z x z^-1 x^-1", (0, 2)),
        ("x y x^-1", None),  # three letters
        ("x y z^-1 y^-1", None),  # a third generator
        ("x y x^-1 z^-1", None),
        ("x y x y^-1", None),  # x not inverted
        ("x y x^-1 y", None),  # y not inverted
    ],
)
def test_commutator_pair_reads_a_commutator_of_two_distinct_generators(word, pair):
    assert _commutator_pair(GroupPresentation(XYZ).parse_word(word)) == pair


def test_translation_characterization_heisenberg():
    report = check_translation_characterization(heisenberg_translation_action())
    assert report.passed


def test_translation_characterization_refuses_dihedral():
    with pytest.raises(ConstructionError):
        check_translation_characterization(dihedral_action())


def test_translation_characterization_abelian_translations():
    report = check_translation_characterization(z_translation_action())
    assert report.passed


def test_translation_characterization_vacuous_on_reducible():
    z = z_group()
    rep = Representation(z, "complex", [-np.eye(1, dtype=complex)])
    action = AffineAction.from_values(rep, [np.ones(1, dtype=complex)])
    report = check_translation_characterization(action)
    assert report.passed
    assert report.checks[0].name == "vacuous"


def test_heisenberg_random_actions_never_irreducible_with_nontrivial_linear_part():
    for _ in range(25):
        dim = int(RNG.integers(1, 4))
        field = "complex" if RNG.random() < 0.6 else "real"
        rep = random_heisenberg_rep(dim if field == "real" or dim != 3 else 3, field, RNG)
        action = random_action(rep, RNG)
        verdict = decide_irreducibility(action)
        worst = max(np.linalg.norm(m - np.eye(action.dim)) for m in action.rep.matrices)
        assert not (verdict.irreducible and worst > 1e-8)


@WARNINGS_FAIL
def test_orbit_probe_glide_sees_bounded_vertical_hull():
    report = orbit_hull_probe(glide_action(), np.zeros(2), budget=150, radius=5.0, seed=5)
    far = [p for p in report.probes if abs(p.point[1] - 1.0) > 2.0]
    assert far, "probe grid should contain points away from the orbit band"
    assert all(p.hull_distance > 0.5 for p in far)


@WARNINGS_FAIL
def test_orbit_probe_translations_fill_the_line():
    report = orbit_hull_probe(z_translation_action(), np.zeros(1), budget=150, radius=5.0, seed=5)
    assert report.max_distance < 1e-6


@WARNINGS_FAIL
def test_orbit_probe_fixed_point_action_measures_plain_distance():
    report = orbit_hull_probe(z_translation_action(value=0.0), np.zeros(1), budget=5, radius=3.0, seed=1)
    for probe in report.probes:
        assert abs(probe.hull_distance - abs(probe.point[0])) < 1e-9


@WARNINGS_FAIL
def test_orbit_probe_induced_action_stays_on_diagonal():
    # the induced C2xZ action moves the origin only along the diagonal, so
    # off-diagonal probes stay far from the hull
    induced = induce_action(z_translation_action(), c2xz_setup())
    report = orbit_hull_probe(induced, np.zeros(2), budget=120, radius=4.0, seed=9)
    off_diagonal = [p for p in report.probes if abs(p.point[0] - p.point[1]) > 2.0]
    assert off_diagonal
    assert all(p.hull_distance > 1.0 for p in off_diagonal)


@WARNINGS_FAIL
def test_orbit_probe_rejects_complex_actions():
    with pytest.raises(ConstructionError):
        orbit_hull_probe(dihedral_action(), np.zeros(1), budget=5, radius=1.0)


@WARNINGS_FAIL
@pytest.mark.parametrize("radius", [-1.0, 0.0, float("nan"), float("inf"), -float("inf")])
def test_orbit_probe_refuses_radius_that_is_not_finite_and_positive(radius):
    # such a ball holds no probe (or only the origin), so the report would
    # read like a hull that fills it
    with pytest.raises(ConstructionError, match="radius"):
        orbit_hull_probe(glide_action(), np.zeros(2), budget=5, radius=radius)


# -- lattice scans: ψ walk and row scan; orbit probes against NNLS ------------


def spanning_translations(k: int, field: str, rng) -> AffineAction:
    """Identity linear part and k random translations of F^k: irreducible, psi is a quadratic form."""
    rep = Representation(free_abelian_group(k), field, [np.eye(k)] * k, dim=k)
    return AffineAction.from_values(rep, [random_field_vector(k, field, rng) for _ in range(k)])


def rotating_coboundary(angles, field: str, v) -> AffineAction:
    """Commuting rotations (phases of C^1, or plane rotations of R^2) with the
    coboundary of v: reducible, and psi(x) = 2|v|^2 (1 - cos(x . angles)) is
    not a quadratic form."""
    if field == "complex":
        mats = [np.exp(1j * a) * np.eye(1) for a in angles]
    else:
        mats = [np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]]) for a in angles]
    rep = Representation(free_abelian_group(len(angles)), field, mats, dim=mats[0].shape[0])
    return AffineAction.from_values(rep, [m @ v - v for m in mats])


def scaled(action: AffineAction, factor: float) -> AffineAction:
    return AffineAction.from_values(action.rep, [factor * b for b in action.cocycle.values])


def scan_inputs(k: int, field: str, rng) -> list[AffineAction]:
    """Spanning translations (full scan) and rotating coboundaries at wide and
    at narrow angles; the narrow ones pass the first pairs of the scan and
    violate further on, so the scan order decides which pair is reported."""
    actions = [spanning_translations(k, field, rng)]
    if field == "real" and k == 1:
        # one plane rotation does not span R^2; the sign flip is the rotation of R^1
        rep = Representation(free_abelian_group(1), "real", [-np.eye(1)])
        return actions + [AffineAction.from_values(rep, [rng.standard_normal(1)])]
    for low, high in ((0.3, np.pi - 0.3), (1e-4, 1e-3)):
        v = random_field_vector(1 if field == "complex" else 2, field, rng)
        actions.append(rotating_coboundary(rng.uniform(low, high, size=k), field, v))
    return actions


def assert_matches_reference_scan(action: AffineAction, window: int) -> QuadraticFormResult:
    # the reference runs on the unit-scaled action; max_defect comes back in caller units
    s = unit_scale(action)
    unit = AffineAction(action.rep, Cocycle(action.rep, [b / s for b in action.cocycle.values], validate=False))
    reference = reference_quadratic_form_test(unit, window, action.tol)
    result = quadratic_form_test(action, window)
    assert result == dataclasses.replace(reference, max_defect=reference.max_defect * s**2)
    return result


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize(
    "k,window", [(k, w) for k in (1, 2, 3) for w in (1, 2, 3)] + [(4, 1), (4, 2)]
)
def test_quadratic_scan_matches_pairwise_reference(k, window, field):
    rng = np.random.default_rng(100 * k + 10 * window + (field == "complex"))
    results = [assert_matches_reference_scan(a, window) for a in scan_inputs(k, field, rng)]
    assert results[0].quadratic
    assert not any(r.quadratic for r in results[1:])


def test_quadratic_scan_matches_reference_on_random_abelian_actions():
    rng = np.random.default_rng(55)
    tags = set()
    checked = 0
    while checked < 24:
        action = total_random_abelian_action(rng)
        if action is None:
            continue
        tags.add(assert_matches_reference_scan(action, 1 + checked % 3).tag)
        checked += 1
    assert tags == {"Quadratic", "ViolatedAt"}


def test_quadratic_scan_reports_first_violation_in_scan_order():
    # narrow angles: the row of the origin always passes, the row of
    # (1, 0, ..., 0) is scanned next, and the narrow rotations pass it too
    rng = np.random.default_rng(21)
    late = 0
    for field in ("real", "complex"):
        for k in (2, 3):
            for window in (2, 3):
                result = assert_matches_reference_scan(scan_inputs(k, field, rng)[2], window)
                late += result.violation[0] != (1,) + (0,) * (k - 1)
    assert late > 0


@pytest.mark.parametrize("factor", [1e-6, 1.0, 1e3, 1e9])
def test_quadratic_form_invariant_under_dilation(factor):
    translations = spanning_translations(2, "real", np.random.default_rng(5))
    assert quadratic_form_test(scaled(translations, factor)).quadratic
    rotating = rotating_coboundary([0.7, 1.9], "real", np.array([1.0, 0.5]))
    base = quadratic_form_test(rotating)
    result = quadratic_form_test(scaled(rotating, factor))
    assert decide_irreducibility(scaled(rotating, factor)).reducible
    assert not result.quadratic
    assert result.violation == base.violation
    # max_defect is reported in the caller's units, those of ||b||^2
    assert result.max_defect == pytest.approx(factor**2 * base.max_defect, rel=1e-9)


def test_quadratic_form_near_zero_cocycle_fails_totality():
    # max ||b(s)|| <= eps_residual: s = 1, and values of size 1e-9 have rank 0
    rotating = rotating_coboundary([0.7, 1.9], "real", np.array([1.0, 0.5]))
    with pytest.raises(ConstructionError, match="totality"):
        quadratic_form_test(scaled(rotating, 1e-9))


def test_quadratic_form_k4_window3_translations():
    action = spanning_translations(4, "real", np.random.default_rng(43))
    result = quadratic_form_test(action, window=3)
    assert result.quadratic
    assert result.violation is None and result.window == 3


def invariance_input(seed: int) -> AffineAction:
    rng = np.random.default_rng(seed)
    kind = seed % 3
    if kind == 0:
        return spanning_translations(int(rng.integers(1, 4)), "real", rng)
    if kind == 1:
        return rotating_coboundary(rng.uniform(0.3, np.pi - 0.3, size=int(rng.integers(2, 4))), "real", rng.standard_normal(2))
    while (action := total_random_abelian_action(rng)) is None:
        pass
    return action


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
def test_quadratic_flag_invariant_under_generator_permutation(seed, perm_seed):
    action = invariance_input(seed)
    perm = list(np.random.default_rng(perm_seed).permutation(action.presentation.num_generators))
    assert quadratic_form_test(permuted(action, perm), 2).quadratic == quadratic_form_test(action, 2).quadratic


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
def test_quadratic_flag_invariant_under_change_of_basis(seed, basis_seed):
    action = invariance_input(seed)
    q = random_isometry(action.dim, action.field, np.random.default_rng(basis_seed))
    rep = Representation(
        action.presentation, action.field, [q @ m @ q.conj().T for m in action.rep.matrices], dim=action.dim
    )
    other = AffineAction.from_values(rep, [q @ b for b in action.cocycle.values])
    assert quadratic_form_test(other, 2).quadratic == quadratic_form_test(action, 2).quadratic


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(-6.0, 9.0))
def test_quadratic_flag_invariant_under_cocycle_scaling(seed, log_scale):
    action = invariance_input(seed)
    other = scaled(action, 10.0**log_scale)
    assert quadratic_form_test(other, 2).quadratic == quadratic_form_test(action, 2).quadratic


def free_rotation_action() -> AffineAction:
    """F2 on R^3 by two seeded generic rotations, with a seeded cocycle (any
    values are a cocycle of a free group): no two letters commute, so the
    drawn words hold letters next to their inverses that free reduction
    would cancel."""
    rng = np.random.default_rng(31)
    rep = Representation(f2_group(), "real", [random_isometry(3, "real", rng) for _ in range(2)])
    return AffineAction.from_values(rep, [rng.standard_normal(3) for _ in range(2)])


def cubic_lattice_action(dim: int) -> AffineAction:
    """Z^dim acting by translations along a seeded orthonormal frame."""
    frame = random_isometry(dim, "real", np.random.default_rng(dim))
    rep = Representation(free_abelian_group(dim), "real", [np.eye(dim)] * dim, dim=dim)
    return AffineAction.from_values(rep, list(frame.T))


ORBIT_CASES = {
    # (action, budget, radius, seed): the calls of the orbit tests above and
    # of the CLI test, and a non-commuting, non-translation action
    "glide": (glide_action, 150, 5.0, 5),
    "glide-cli": (lambda: load_problem(FIXTURES / "glide.json").build_action(), 60, 4.0, 2),
    "translation": (z_translation_action, 150, 5.0, 5),
    # every orbit point is the origin: a one-point hull, and every probe stops at step 1
    "zero-cocycle": (lambda: z_translation_action(value=0.0), 5, 3.0, 1),
    "induced": (lambda: induce_action(z_translation_action(), c2xz_setup()), 120, 4.0, 9),
    # a negative radius leaves no probe inside the ball: the library refuses it
    "empty-grid": (glide_action, 10, -1.0, 3),
    "cubic-d2": (lambda: cubic_lattice_action(2), 400, 5.0, 1),
    "cubic-d3": (lambda: cubic_lattice_action(3), 400, 5.0, 1),
    "cubic-d6": (lambda: cubic_lattice_action(6), 400, 5.0, 1),
    "free-rotations": (free_rotation_action, 240, 3.0, 7),
}


@WARNINGS_FAIL
@pytest.mark.parametrize("case", sorted(ORBIT_CASES))
def test_orbit_probe_matches_per_probe_reference(case):
    build, budget, radius, seed = ORBIT_CASES[case]
    action = build()
    origin = np.zeros(action.dim)
    reference = reference_orbit_hull_probe(action, origin, budget, radius, seed)
    if case == "empty-grid":
        assert reference.probes == () and reference.orbit_size == budget + 1
        with pytest.raises(ConstructionError, match="radius"):
            orbit_hull_probe(action, origin, budget=budget, radius=radius, seed=seed)
        # the hull solve still takes an empty set of targets
        cloud = origin[None, :]
        assert _hull_distances(cloud, np.zeros((0, action.dim))).shape == (0,)
        return
    report = orbit_hull_probe(action, origin, budget=budget, radius=radius, seed=seed)
    assert report.orbit_size == reference.orbit_size == budget + 1
    assert [p.point for p in report.probes] == [p.point for p in reference.probes]
    for probe, expected in zip(report.probes, reference.probes):
        assert abs(probe.hull_distance - expected.hull_distance) <= 1e-12 * (radius + expected.hull_distance)
    if case == "zero-cocycle":
        assert all(p.hull_distance == abs(p.point[0]) for p in report.probes)


# -- stacked walks against the per-point walks, and block edges ---------------


def mixed_identity_actions(k: int, field: str, rng) -> list[AffineAction]:
    """Z^k on F^2 with generators of three kinds, in two orders: the flip
    diag(1, -1), exact identities, and I with one entry a ulp above 1. The
    cocycle identity (pi(t) - I) b(s) = (pi(s) - I) b(t) puts b of every
    generator but the flip on the flip's fixed line."""
    ulp = np.eye(2)
    ulp[1, 1] = np.nextafter(1.0, 2.0)
    kinds = {"flip": np.diag([1.0, -1.0]), "identity": np.eye(2), "ulp": ulp}
    names = ["flip", "identity", "ulp", "identity"][:k]
    actions = []
    for order in (names, names[::-1]) if k > 1 else (["identity"], ["ulp"]):
        rep = Representation(free_abelian_group(k), field, [kinds[n] for n in order], dim=2)
        line = np.array([1.0, 0.0])
        values = [
            random_field_vector(2, field, rng) if n == "flip" else random_field_vector(1, field, rng) * line
            for n in order
        ]
        actions.append(AffineAction.from_values(rep, values))
    return actions


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("k,reach", [(1, 6), (2, 4), (3, 3), (4, 2)])
def test_psi_grid_equals_one_extend_per_point(k, reach, field, monkeypatch):
    # generators with pi(s) exactly I take running sums, every other one
    # (a ulp off I included) takes one Cocycle.step per power and side
    rng = np.random.default_rng(200 + 10 * k + (field == "complex"))
    actions = scan_inputs(k, field, rng)
    if k <= 2:
        while len(actions) < 6:
            action = total_random_abelian_action(rng)
            if action is not None and action.presentation.num_generators == k:
                actions.append(action)
    actions += mixed_identity_actions(k, field, rng)
    steps = []
    step = Cocycle.step

    def counted_step(self, value, prefix, gen, sign):
        steps.append(gen)
        return step(self, value, prefix, gen, sign)

    monkeypatch.setattr(Cocycle, "step", counted_step)
    for action in actions:
        steps.clear()
        psi = _psi_grid(action.cocycle, k, reach)
        stepped = [g for g, m in enumerate(action.rep.matrices) if not np.array_equal(m, np.eye(action.dim))]
        assert sorted(steps) == sorted(stepped * 2 * reach)
        expected = np.empty_like(psi)
        for x in itertools.product(range(-reach, reach + 1), repeat=k):
            value = action.cocycle.extend(_lattice_word(x))
            expected[tuple(c + reach for c in x)] = squared_norm(value)
        assert np.array_equal(psi, expected)


def per_word_cloud(action: AffineAction, origin, budget: int, seed: int, max_word_length: int = 12):
    """One ``walked_point`` per word, drawn as the orbit probe draws them:
    one ``Cocycle.step`` per drawn letter."""
    rng = np.random.default_rng(seed)
    words = draw_orbit_words(rng, budget, action.presentation.num_generators, max_word_length)
    return np.array([origin] + [walked_point(action, letters, origin) for letters in words])


@WARNINGS_FAIL
@pytest.mark.parametrize("max_word_length", [0, 1, 3, 12])
@pytest.mark.parametrize("words_per_block", [None, 1, 7])
@pytest.mark.parametrize("case", sorted(ORBIT_CASES))
def test_orbit_cloud_equals_one_step_per_drawn_letter(case, words_per_block, max_word_length, monkeypatch):
    # the words are walked as drawn, longest first: short maxima give many
    # ties and blocks whose rows all stop at once (at 0, every row is empty);
    # glide and the translations have one generator, the other cases two to
    # six. Each point is also the image of the origin under the group
    # element of its word, up to roundoff.
    build, budget, _, seed = ORBIT_CASES[case]
    action = build()
    if words_per_block is not None:
        monkeypatch.setattr(constructions, "_ORBIT_BLOCK_ELEMENTS", words_per_block * action.dim**2)
    words = draw_orbit_words(np.random.default_rng(seed), budget, action.presentation.num_generators, max_word_length)
    for origin in (np.zeros(action.dim), np.random.default_rng(seed).standard_normal(action.dim)):
        cloud = _orbit_cloud(action, origin, budget, np.random.default_rng(seed), max_word_length)
        assert np.array_equal(cloud, per_word_cloud(action, origin, budget, seed, max_word_length))
        evaluated = np.array([origin] + [action.evaluate(Word(letters))(origin) for letters in words])
        bound = 1e-12 * (np.linalg.norm(origin) + max_word_length * action.cocycle.max_norm)
        assert np.all(np.linalg.norm(cloud - evaluated, axis=1) <= bound)


@WARNINGS_FAIL
def test_orbit_probe_one_word_past_a_whole_block():
    action = cubic_lattice_action(6)
    block = constructions._ORBIT_BLOCK_ELEMENTS // action.dim**2
    origin = np.random.default_rng(3).standard_normal(action.dim)
    budget = block + 1
    cloud = _orbit_cloud(action, origin, budget, np.random.default_rng(4), 12)
    assert np.array_equal(cloud, per_word_cloud(action, origin, budget, 4))
    report = orbit_hull_probe(action, origin, budget=budget, radius=3.0, seed=4)
    reference = reference_orbit_hull_probe(action, origin, budget, 3.0, 4)
    assert report.orbit_size == reference.orbit_size == budget + 1
    assert [p.point for p in report.probes] == [p.point for p in reference.probes]
    for probe, expected in zip(report.probes, reference.probes):
        assert abs(probe.hull_distance - expected.hull_distance) <= 1e-12 * (3.0 + expected.hull_distance)


@WARNINGS_FAIL
def test_orbit_cloud_without_generators_is_the_origin_repeated():
    rep = Representation(GroupPresentation([]), "real", [], dim=2)
    action = AffineAction.from_values(rep, [])
    origin = np.array([1.5, -2.0])
    cloud = _orbit_cloud(action, origin, 40, np.random.default_rng(3), 12)
    assert np.array_equal(cloud, np.tile(origin, (41, 1)))
    assert np.array_equal(cloud, per_word_cloud(action, origin, 40, 3))


class CountingGenerator:
    """Forwards ``integers`` and ``random`` to a seeded generator and counts the calls."""

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.calls = 0

    def integers(self, *args, **kwargs):
        self.calls += 1
        return self.rng.integers(*args, **kwargs)

    def random(self, *args, **kwargs):
        self.calls += 1
        return self.rng.random(*args, **kwargs)


@WARNINGS_FAIL
def test_orbit_cloud_draws_every_word_in_at_most_three_calls():
    action = cubic_lattice_action(3)
    calls = []
    for budget in (10, 1000):
        rng = CountingGenerator(11)
        _orbit_cloud(action, np.zeros(3), budget, rng, 12)
        calls.append(rng.calls)
    assert calls[0] == calls[1] <= 3


def orbit_case_problem(case: str) -> tuple[np.ndarray, np.ndarray]:
    """The orbit cloud and probe grid of one ``ORBIT_CASES`` entry, drawn as
    the orbit probe draws them."""
    build, budget, radius, seed = ORBIT_CASES[case]
    action = build()
    rng = np.random.default_rng(seed)
    cloud = _orbit_cloud(action, np.zeros(action.dim), budget, rng, 12)
    return cloud, constructions._probe_grid(action.dim, radius, rng)


# the orbit cases whose radius the probe accepts
HULL_CASES = sorted(set(ORBIT_CASES) - {"empty-grid"})


def problem_scale(points: np.ndarray, targets: np.ndarray) -> float:
    return float(max(np.abs(points).max(), np.abs(targets).max()))


@WARNINGS_FAIL
@pytest.mark.parametrize("case", HULL_CASES)
def test_hull_distances_match_nnls_and_never_exceed_frank_wolfe(case):
    # every probe agrees with an independent per-probe NNLS solve, and the
    # capped Frank-Wolfe loops, whose iterates are hull points, bound it above
    cloud, grid = orbit_case_problem(case)
    scale = problem_scale(cloud, grid)
    distances = _hull_distances(cloud, grid)
    exact = np.array([reference_nnls_hull_distance(cloud, q) for q in grid])
    assert np.all(np.abs(distances - exact) <= 1e-12 * scale)
    assert np.all(distances <= reference_batched_hull_distances(cloud, grid) + 1e-12 * scale)
    frank_wolfe = np.array([reference_hull_distance(cloud, q) for q in grid])
    assert np.all(distances <= frank_wolfe + 1e-12 * scale)


def unit_cube_problem(d: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The vertices of [0, 1]^d, interior points and repeats; targets outside,
    inside and on the faces of the cube."""
    vertices = np.array(list(itertools.product([0.0, 1.0], repeat=d)))
    interior = rng.random((20, d))
    points = rng.permutation(np.vstack([vertices, interior, vertices[:3], interior[:3]]))
    targets = rng.uniform(-1.5, 2.5, size=(150, d))
    on_faces = rng.random((20, d))
    on_faces[np.arange(20), rng.integers(0, d, 20)] = rng.integers(0, 2, 20)
    return points, np.vstack([targets, rng.random((20, d)), on_faces, vertices[:2]])


@WARNINGS_FAIL
@pytest.mark.parametrize("d", [1, 2, 3, 4, 6])
def test_hull_distances_to_the_unit_cube(d):
    points, targets = unit_cube_problem(d, np.random.default_rng(700 + d))
    expected = np.linalg.norm(targets - np.clip(targets, 0.0, 1.0), axis=1)
    assert np.all(np.abs(_hull_distances(points, targets) - expected) <= 1e-12 * problem_scale(points, targets))


@WARNINGS_FAIL
def test_hull_distances_to_one_point_and_to_a_segment():
    rng = np.random.default_rng(710)
    targets = rng.uniform(-4.0, 4.0, size=(60, 3))
    point = np.array([[0.5, -1.0, 2.0]])
    expected = np.linalg.norm(targets - point, axis=1)
    assert np.all(np.abs(_hull_distances(point, targets) - expected) <= 1e-12 * 6.0)
    # a collinear cloud in R^3: the hull is the segment between its extreme points
    base, direction = np.array([1.0, 2.0, -1.0]), np.array([0.6, -0.8, 0.0])
    t = np.concatenate([rng.uniform(-2.0, 3.0, 40), [-2.0, 3.0, 0.5, 0.5]])
    points = base + t[:, None] * direction
    along = np.clip((targets - base) @ direction, -2.0, 3.0)
    expected = np.linalg.norm(targets - base - along[:, None] * direction, axis=1)
    assert np.all(np.abs(_hull_distances(points, targets) - expected) <= 1e-12 * problem_scale(points, targets))


@WARNINGS_FAIL
@pytest.mark.parametrize("case", ["cube-d3", "cube-d6"] + HULL_CASES)
def test_hull_distances_carry_a_certificate(case):
    # the corral weights give a hull point at the reported distance (an upper
    # bound), and the best vertex for it gives the separating bound
    # max(0, <x, s - q>) / |x| from below; Wolfe's stop leaves at most
    # sqrt(_HULL_STOP) max_j |p_j - q| between the two
    if case.startswith("cube"):
        points, targets = unit_cube_problem(int(case[-1]), np.random.default_rng(720))
    else:
        points, targets = orbit_case_problem(case)
    scale = problem_scale(points, targets)
    distances, corral, weights = _min_norm_points(points, targets)
    assert np.all(weights >= 0.0) and np.allclose(weights.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
    offsets = np.einsum("ik,ikj->ij", weights, points[corral]) - targets
    assert np.all(np.abs(np.linalg.norm(offsets, axis=1) - distances) <= 1e-12 * scale)
    for x, q, reported in zip(offsets, targets, distances):
        gaps = points - q
        norm = float(np.linalg.norm(x))
        lower = max(0.0, float(np.min(gaps @ x))) / norm if norm else 0.0
        slack = np.sqrt(_HULL_STOP) * float(np.linalg.norm(gaps, axis=1).max())
        assert lower - 1e-12 * scale <= reported <= lower + slack + 1e-12 * scale


@WARNINGS_FAIL
@pytest.mark.parametrize("factor", [1e-150, 1.0, 1e150])
def test_hull_distances_are_equivariant_under_scaling_and_shifts(factor):
    points, targets = orbit_case_problem("cubic-d3")
    distances = _hull_distances(points, targets)
    shift = factor * np.array([3.0, -7.0, 0.5])
    moved = _hull_distances(factor * points + shift, factor * targets + shift)
    assert np.all(np.isfinite(moved))
    assert np.all(np.abs(moved - factor * distances) <= 1e-12 * factor * problem_scale(points, targets))


@WARNINGS_FAIL
def test_orbit_probe_far_from_the_origin_gives_finite_distances():
    origin = np.array([1e300, 1e300])
    report = orbit_hull_probe(glide_action(), origin, budget=40, radius=5.0, seed=3)
    reference = reference_orbit_hull_probe(glide_action(), origin, 40, 5.0, 3)
    assert all(np.isfinite(p.hull_distance) and p.hull_distance > 1e299 for p in report.probes)
    for probe, expected in zip(report.probes, reference.probes):
        assert abs(probe.hull_distance - expected.hull_distance) <= 1e-12 * 1e300


@WARNINGS_FAIL
@pytest.mark.parametrize("radius", [1e-300, 1e-160, 1.0, 5.0, 1e160, 1e300])
def test_probe_grid_keeps_every_ball_point_at_any_radius(radius):
    # the ball test runs at unit scale: squared coordinates would underflow
    # at 1e-160 (keeping the corners) and overflow at 1e160 (keeping the origin only)
    counts = []
    for d in (1, 2, 3):
        report = orbit_hull_probe(cubic_lattice_action(d), np.zeros(d), budget=20, radius=radius, seed=1)
        assert all(np.isfinite(p.hull_distance) for p in report.probes)
        counts.append(len(report.probes))
    assert counts == [5, 13, 33]


@WARNINGS_FAIL
@pytest.mark.parametrize("d", [1, 2, 3, 6])
def test_orbit_probe_refuses_a_radius_whose_probe_axis_overflows(d):
    with pytest.raises(ConstructionError, match="radius"):
        orbit_hull_probe(cubic_lattice_action(d), np.zeros(d), budget=5, radius=1e308)


@WARNINGS_FAIL
@pytest.mark.parametrize("value", [-1, 2.5, True, "3", None])
def test_orbit_probe_refuses_a_bad_max_word_length(value):
    with pytest.raises(ConstructionError, match="max_word_length must be"):
        orbit_hull_probe(glide_action(), np.zeros(2), budget=5, max_word_length=value)


@WARNINGS_FAIL
@pytest.mark.parametrize("seed", [-1, 2.5, True, "3"])
def test_orbit_probe_refuses_a_bad_seed(seed):
    with pytest.raises(ConstructionError, match="seed must be"):
        orbit_hull_probe(glide_action(), np.zeros(2), budget=5, seed=seed)


@WARNINGS_FAIL
def test_orbit_probe_takes_integer_seeds_with_an_unchanged_stream():
    # d = 6 draws its probe grid from the seeded stream after the words
    action, origin = cubic_lattice_action(6), np.zeros(6)
    report = orbit_hull_probe(action, origin, budget=40, seed=np.int64(2))
    assert report == orbit_hull_probe(action, origin, budget=40, seed=2)
    reference = reference_orbit_hull_probe(action, origin, 40, 5.0, 2)
    assert [p.point for p in report.probes] == [p.point for p in reference.probes]
    assert orbit_hull_probe(action, origin, budget=40, seed=None).orbit_size == 41


@WARNINGS_FAIL
def test_orbit_probe_takes_integer_max_word_lengths():
    origin = np.array([0.5, -1.0])
    report = orbit_hull_probe(glide_action(), origin, budget=7, seed=2, max_word_length=np.int64(3))
    assert report == orbit_hull_probe(glide_action(), origin, budget=7, seed=2, max_word_length=3)
    # words of length 0: the cloud is the origin budget + 1 times
    cloud = _orbit_cloud(glide_action(), origin, 7, np.random.default_rng(2), 0)
    assert np.array_equal(cloud, np.tile(origin, (8, 1)))
    report = orbit_hull_probe(glide_action(), origin, budget=7, seed=2, max_word_length=0)
    assert report.orbit_size == 8
    for probe in report.probes:
        assert abs(probe.hull_distance - np.linalg.norm(np.array(probe.point) - origin)) <= 1e-12 * 6.0


def scan_order(k: int, window: int) -> dict[tuple[int, ...], int]:
    inner = sorted(
        itertools.product(range(-window, window + 1), repeat=k),
        key=lambda x: (max(map(abs, x), default=0), sum(map(abs, x)), tuple(-c for c in x)),
    )
    return {x: i for i, x in enumerate(inner)}


@pytest.mark.parametrize("window", [2, 3])
def test_scan_violation_after_the_first_block_on_its_first_and_last_row(window):
    # narrow rotations of R^2 violate at rows spread over the scan; keep the
    # first draws whose violating row opens a later block and closes one
    k = 4
    order = scan_order(k, window)
    block = max(1, constructions._SCAN_BLOCK_ELEMENTS // len(order))
    rng = np.random.default_rng(90 + window)
    wanted = {0: None, block - 1: None}
    for _ in range(400):
        low = 10 ** rng.uniform(-5, -3)
        action = rotating_coboundary(rng.uniform(low, 3 * low, size=k), "real", rng.standard_normal(2))
        result = quadratic_form_test(action, window)
        row = None if result.quadratic else order[result.violation[0]]
        # the reference scans row * (2w+1)^k pairs in Python: keep it small
        if row is not None and block <= row < 300 and wanted.get(row % block, 0) is None:
            wanted[row % block] = action
        if all(a is not None for a in wanted.values()):
            break
    assert all(a is not None for a in wanted.values())
    for action in wanted.values():
        assert not assert_matches_reference_scan(action, window).quadratic


@pytest.mark.parametrize("rows_per_block", [1, 2, 5])
@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("k,window", [(2, 2), (3, 1), (3, 2)])
def test_quadratic_scan_matches_reference_at_small_blocks(k, window, field, rows_per_block, monkeypatch):
    monkeypatch.setattr(constructions, "_SCAN_BLOCK_ELEMENTS", rows_per_block * (2 * window + 1) ** k)
    rng = np.random.default_rng(300 + 10 * k + window)
    for action in scan_inputs(k, field, rng):
        assert_matches_reference_scan(action, window)


def first_pair_reading(z: tuple[int, ...], order: dict[tuple[int, ...], int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The first pair (x, y) of the scan whose defect reads psi(z): one with
    z among x + y, x - y, x and y."""
    rows = sorted(order, key=order.get)
    for x in rows:
        if x == z:
            return x, rows[0]
        columns = [tuple(a - b for a, b in zip(z, x)), tuple(b - a for a, b in zip(z, x)), z]
        columns = [y for y in columns if y in order]
        if columns:
            return x, min(columns, key=order.get)
    raise AssertionError(f"no pair reads {z}")


# inf - inf in a defect warns as it makes the NaN the scan must catch
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("planted", [np.nan, np.inf])
@pytest.mark.parametrize("z,later_block", [((4, 0, 0), False), ((1, -1, 0), False), ((6, 6, 6), True), ((-5, 6, 1), True)])
def test_scan_fails_at_the_first_pair_that_reads_a_nonfinite_psi(z, later_block, planted, monkeypatch):
    # a NaN or infinite psi leaves the scale finite and fails the first pair
    # whose defect reads it, in the first block or a later one
    k, window = 3, 3
    order = scan_order(k, window)
    expected = first_pair_reading(z, order)
    block = max(1, constructions._SCAN_BLOCK_ELEMENTS // len(order))
    assert (order[expected[0]] >= block) == later_block

    def planted_grid(cocycle, k, reach):
        psi = _psi_grid(cocycle, k, reach)
        psi[tuple(c + reach for c in z)] = planted
        return psi

    monkeypatch.setattr(constructions, "_psi_grid", planted_grid)
    result = quadratic_form_test(spanning_translations(k, "real", np.random.default_rng(8)), window)
    assert result.violation == expected
    assert not np.isfinite(result.max_defect)


def test_scan_order_is_cached_and_read_only():
    inner = constructions._scan_order(3, 2)
    assert constructions._scan_order(3, 2) is inner
    assert not inner.flags.writeable
    with pytest.raises(ValueError):
        inner[0, 0] = 1
    order = scan_order(3, 2)
    assert [tuple(x) for x in inner.tolist()] == sorted(order, key=order.get)


def test_scan_representatives_are_the_first_of_each_pair_and_cached():
    for k, window in [(1, 1), (1, 4), (2, 3), (3, 2), (4, 2)]:
        keep = constructions._scan_representatives(k, window)
        assert constructions._scan_representatives(k, window) is keep and not keep.flags.writeable
        inner = [tuple(x) for x in constructions._scan_order(k, window).tolist()]
        position = {x: i for i, x in enumerate(inner)}
        kept = [inner[i] for i in keep.tolist()]
        # ascending, 0 included, and exactly the earlier of each {x, -x}
        assert keep.tolist() == sorted(keep.tolist()) and (0,) * k in kept
        assert kept == [x for x in inner if position[x] <= position[tuple(-c for c in x)]]
        assert len(kept) == (len(inner) + 1) // 2


def counting_representatives(monkeypatch) -> list:
    """Record every (k, window) whose scan read one representative per +-x."""
    calls, original = [], constructions._scan_representatives

    def counted(k, window):
        calls.append((k, window))
        return original(k, window)

    monkeypatch.setattr(constructions, "_scan_representatives", counted)
    return calls


# the pairwise reference reads (2w+1)^2k pairs in Python: k = 4 stops at w = 2
EVEN_SCANS = (
    [(k, w, field) for k in (1, 2) for w in range(1, 7) for field in ("real", "complex")]
    + [(3, w, "real") for w in (1, 2, 3)] + [(3, 2, "complex"), (4, 1, "real"), (4, 2, "real")]
)


@pytest.mark.parametrize("k,window,field", EVEN_SCANS)
def test_an_even_psi_scans_one_pair_per_orbit_with_the_pairwise_result(k, window, field, monkeypatch):
    # translations give psi(-x) = psi(x) bit for bit; cocycle scales spread over 1e-6 .. 1e6
    calls = counting_representatives(monkeypatch)
    rng = np.random.default_rng(700 + 10 * k + window + 100 * (field == "complex"))
    action = scaled(spanning_translations(k, field, rng), 10.0 ** rng.uniform(-6, 6))
    assert assert_matches_reference_scan(action, window).quadratic
    assert calls == [(k, window)]


def tight_translations(k: int, eps_residual: float, rng) -> AffineAction:
    """Spanning translations held to eps_residual, where the roundoff of psi
    fails the identity (the cocycle relators are not checked)."""
    rep = Representation(free_abelian_group(k), "real", [np.eye(k)] * k, dim=k, tol=ToleranceProfile(eps_residual=eps_residual))
    return AffineAction(rep, Cocycle(rep, [rng.standard_normal(k) for _ in range(k)], validate=False))


@pytest.mark.parametrize("rows_per_block", [None, 3])
@pytest.mark.parametrize("k,window", [(2, 6), (3, 3), (4, 2)])
def test_an_even_psi_fails_at_the_first_roundoff_violation_of_the_full_scan(k, window, rows_per_block, monkeypatch):
    # eps_residual in 1e-17.5 .. 1e-14.5: keep the first draws whose violating
    # row is in the first block of the reduced scan and in a later one
    if rows_per_block is not None:
        monkeypatch.setattr(constructions, "_SCAN_BLOCK_ELEMENTS", rows_per_block * (2 * window + 1) ** k)
    keep = constructions._scan_representatives(k, window)
    block = max(1, constructions._SCAN_BLOCK_ELEMENTS // len(keep))
    order = scan_order(k, window)
    rng = np.random.default_rng(800 + 10 * k + window)
    wanted = {False: None, True: None} if block < len(keep) else {False: None}
    for _ in range(300):
        action = tight_translations(k, 10.0 ** rng.uniform(-17.5, -14.5), rng)
        result = quadratic_form_test(action, window)
        if not result.quadratic:
            row = int(np.searchsorted(keep, order[result.violation[0]]))
            # the reference scans row * (2w+1)^k pairs in Python: keep it small
            if order[result.violation[0]] < 400 and wanted.get(row >= block, 0) is None:
                wanted[row >= block] = action
        if all(a is not None for a in wanted.values()):
            break
    assert all(a is not None for a in wanted.values())
    calls = counting_representatives(monkeypatch)
    for action in wanted.values():
        assert not assert_matches_reference_scan(action, window).quadratic
    assert calls == [(k, window)] * len(wanted)


def test_rotations_take_the_full_scan_and_flips_the_reduced_one(monkeypatch):
    # a rotation's psi(-x) differs from psi(x) in its last bits; a flip's
    # pi(s) = -I negates exactly, so its psi is even
    calls = counting_representatives(monkeypatch)
    rng = np.random.default_rng(31)
    for k, window in [(1, 3), (2, 2), (3, 2)]:
        for action in scan_inputs(k, "real", rng)[1:]:
            calls.clear()
            assert not assert_matches_reference_scan(action, window).quadratic
            assert calls == ([(k, window)] if k == 1 else []), (k, window)
    flips = Representation(free_abelian_group(2), "real", [np.diag([-1.0, 1.0]), np.diag([1.0, -1.0])], dim=2)
    calls.clear()
    assert not assert_matches_reference_scan(AffineAction.from_values(flips, [np.array([1.3, 0.0]), np.array([0.0, 0.7])]), 3).quadratic
    assert calls == [(2, 3)]


# inf - inf in a defect warns as it makes the NaN the scan must catch
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("planted,even", [(np.inf, True), (-np.inf, True), (np.nan, False)])
@pytest.mark.parametrize("z", [(0, 0, 0), (4, 0, 0), (1, -1, 0), (6, 6, 6), (-5, 6, 1)])
def test_a_symmetric_nonfinite_psi_fails_at_the_first_pair_that_reads_it(z, planted, even, monkeypatch):
    # planted at z and -z: +-inf keeps psi even (the reduced scan), NaN does
    # not; psi(0) is first read by the diagonal pair (0, 0)
    k, window = 3, 3
    order = scan_order(k, window)
    minus = tuple(-c for c in z)
    expected = min(first_pair_reading(z, order), first_pair_reading(minus, order), key=lambda p: (order[p[0]], order[p[1]]))

    def planted_grid(cocycle, k, reach):
        psi = _psi_grid(cocycle, k, reach)
        for point in (z, minus):
            psi[tuple(c + reach for c in point)] = planted
        return psi

    monkeypatch.setattr(constructions, "_psi_grid", planted_grid)
    calls = counting_representatives(monkeypatch)
    result = quadratic_form_test(spanning_translations(k, "real", np.random.default_rng(8)), window)
    assert result.violation == expected
    assert not np.isfinite(result.max_defect)
    assert calls == ([(k, window)] if even else [])


def test_quadratic_scan_memory_stays_far_below_the_pair_matrix():
    # the (2401 x 2401) defects of all pairs would take 46 MB; every block is small
    action = spanning_translations(4, "real", np.random.default_rng(43))
    quadratic_form_test(action, window=3)
    tracemalloc.start()
    try:
        result = quadratic_form_test(action, window=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.quadratic
    assert peak < 8 * 2**20


@WARNINGS_FAIL
@pytest.mark.parametrize("origin", [np.zeros((2, 1)), np.zeros(3), 0.0])
def test_orbit_probe_refuses_an_origin_of_the_wrong_shape(origin):
    with pytest.raises(ConstructionError, match="origin has shape"):
        orbit_hull_probe(glide_action(), origin, budget=5)


@WARNINGS_FAIL
@pytest.mark.parametrize("value", [True, False, 2.0, 2.5, "2", None])
def test_lattice_tests_refuse_non_integer_counts(value):
    with pytest.raises(ConstructionError, match="window must be an integer"):
        quadratic_form_test(spanning_translations(2, "real", np.random.default_rng(1)), window=value)
    with pytest.raises(ConstructionError, match="budget must be an integer"):
        orbit_hull_probe(glide_action(), np.zeros(2), budget=value)


@WARNINGS_FAIL
def test_lattice_tests_store_plain_int_counts():
    action = spanning_translations(2, "real", np.random.default_rng(1))
    result = quadratic_form_test(action, window=np.int64(2))
    assert type(result.window) is int and result == quadratic_form_test(action, window=2)
    report = orbit_hull_probe(glide_action(), np.zeros(2), budget=np.int32(5), seed=1)
    assert report.orbit_size == 6 and report == orbit_hull_probe(glide_action(), np.zeros(2), budget=5, seed=1)
    with pytest.raises(ConstructionError, match="window must be >= 1"):
        quadratic_form_test(action, window=np.int64(0))
