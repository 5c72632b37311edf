"""The staged commutant solve (the commutant of pi, the boundary split, a
per-cocycle annihilator) and the two-step equivalence search, against the
dense Kronecker system in the full unknowns (vec T, t) with a QR null space
and a least-squares solve (``tests/helpers.py``)."""

import numpy as np
import pytest

from affine_actions import (
    AffineAction,
    Representation,
    affine_commutant,
    check_equivalence,
    commutant_basis,
    conjugate_by_translation,
    decide_irreducibility,
    direct_sum,
    intertwining_residual,
)
from affine_actions.actions import certification_scale, unit_scale
from affine_actions.linalg import residual_ok

from helpers import (
    FAMILIES,
    TOL,
    f2_group,
    kronecker_intertwiner_system,
    lstsq_solve,
    qr_null_space,
    random_action,
    random_dihedral_rep,
    random_field_vector,
    random_free_rep,
    random_isometry,
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
    s = unit_scale(TOL, action)
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
    s = unit_scale(TOL, a1, a2)
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
