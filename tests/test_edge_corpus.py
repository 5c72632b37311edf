"""An edge corpus of fresh draws for the irreducibility decision.

Every family of ``tests/helpers.py``, real and complex, d = 1..6, seeds
10..29, with a random cocycle and with the zero cocycle; each action is
drawn from ``default_rng(7919 d + seed)``, which then draws its four
``symmetric_actions`` moves. Each action and each move is decided: none may
raise InternalCheckError, no move may flip the verdict, and a Reducible
move keeps the dimension of the witness subspace. Each action and each sum
below also has its pairs checked against its verdict
(``check_pairs_match_the_verdict``): an Irreducible verdict's pairs are the
translations along its fixed space, a Reducible one has a pair with U != 0.

Each action is also summed with itself, with a second random cocycle a' on
its representation, with a random action b on a second representation of
the family (a' and b drawn after a from a fresh ``default_rng(7919 d +
seed)``) and with lambda times itself for lambda in {1e8, 1e9}, and the
sum analyzed (``helpers.check_witness``): a double has the diagonal
projections, another sum raises ActionError iff a summand is reducible,
and otherwise has certified projections or is irreducible; none raises
InternalCheckError. The three-summand sum (a (+) 1e8 a) (+) 1e16 a, one
flat record of three copies at three frame scales, is decided too: it
raises no InternalCheckError and keeps the witness dimension of
(a (+) a) (+) a (``helpers.check_three_summands``).

The full sweep also decides the four copies ((a (+) a) (+) a) (+) a of
each action, which must keep the witness dimension of the double a (+) a:
four row blocks per pair, on every family and field.

Each action with a random cocycle is also summed with m - 1 more actions
on its representation, m = 2, 3, 4, with independent random cocycles
scaled by ``MULTIPLE_SCALES``: one distinct summand in the record, with m
copies at m frame scales (``check_multiple``). Each such sum keeps the
verdict and the witness dimension of the plain decision at the sum's
dimension of the same cocycles unscaled (a scale per copy commutes with
the representation), has its pairs checked against its verdict and raises
no InternalCheckError.

The tier-1 tests run seeds 15 and 24 and the first decision that exited 13
under the former witness rule. The full sweep also runs the whole
three-scale grid of ``helpers.three_scale_cases`` (every family, seeds
40-42), of which the stage tests run a slice. It runs as a script:

    PYTHONPATH=src python tests/test_edge_corpus.py
"""

from __future__ import annotations

import sys
import time

import numpy as np
import pytest

from affine_actions import (
    AffineAction,
    Cocycle,
    Representation,
    check_invariance,
    commutant_residual,
    decide_irreducibility,
    direct_sum,
)
from affine_actions.actions import InternalCheckError, certification_scale
from affine_actions.linalg import residual_ok
from affine_actions.reps import _copies

from helpers import (
    FAMILIES,
    TOL,
    check_three_summands,
    check_witness,
    fixed_point_action,
    random_action,
    scaled,
    symmetric_actions,
    three_scale_cases,
)

FIELDS = ("real", "complex")
DIMS = range(1, 7)
SEEDS = range(10, 30)
SLICE_SEEDS = (15, 24)
MULTIPLE_SCALES = (1.0, 1e8, 1e-4, 1e4)


def corpus_cases(family: str, field: str, seeds):
    """(label, action, rng) for every dimension and seed, the random
    cocycle first; ``rng`` continues the draw the action came from."""
    for d in DIMS:
        for seed in seeds:
            rng = np.random.default_rng(7919 * d + seed)
            a = random_action(FAMILIES[family](rng, d, field), rng)
            for kind, action in (("random", a), ("zero", fixed_point_action(a))):
                yield (family, field, d, seed, kind), action, rng


def check_case(label, action, rng) -> int:
    """Decide the action and its four moves; return the number of moves."""
    verdict = decide_irreducibility(action)
    moves = 0
    for kind, moved, _ in symmetric_actions(action, rng):
        other = decide_irreducibility(moved)
        assert other.reducible == verdict.reducible, (label, kind, "verdict flipped")
        if other.reducible:
            dims = (verdict.witness_subspace.dim, other.witness_subspace.dim)
            assert dims[0] == dims[1], (label, kind, "witness dimension moved", dims)
        moves += 1
    return moves


def check_pairs_match_the_verdict(label, action) -> None:
    """The affine Schur lemma on the decided pairs: an Irreducible verdict's
    pairs all have U = 0, number ``translation_directions.shape[1]`` and
    translate within that span to eps_residual (1 + ||t||); a Reducible
    verdict has a pair with U != 0."""
    verdict = decide_irreducibility(action)
    if verdict.reducible:
        assert any(p.deviation.any() for p in verdict.commutant), (label, "no pair with U != 0")
        return
    fixed = verdict.translation_directions
    assert len(verdict.commutant) == fixed.shape[1], (label, "pair count", len(verdict.commutant), fixed.shape)
    for pair in verdict.commutant:
        assert not pair.deviation.any(), (label, "U != 0")
        t = pair.as_affine_map().translation
        off = float(np.linalg.norm(t - fixed @ (fixed.conj().T @ t)))
        assert residual_ok(off, float(np.linalg.norm(t)), TOL.eps_residual), (label, "translation off the fixed space")


def sum_cases(family: str, field: str, seeds):
    """(label, a1, a2): each corpus action (random and zero cocycle) summed
    with itself, with a', with b and with 1e8 and 1e9 times itself."""
    for d in DIMS:
        for seed in seeds:
            rng = np.random.default_rng(7919 * d + seed)
            a = random_action(FAMILIES[family](rng, d, field), rng)
            other = random_action(a.rep, rng)
            b = random_action(FAMILIES[family](rng, d, field), rng)
            for kind, action in (("random", a), ("zero", fixed_point_action(a))):
                multiples = [(f"{lam:.0e}a", scaled(action, lam)) for lam in (1e8, 1e9)]
                for partner, summand in (("double", action), ("a'", other), ("b", b), *multiples):
                    yield (family, field, d, seed, kind, partner), action, summand


def three_summand_cases(family: str, field: str, seeds):
    """(label, (a (+) 1e8 a) (+) 1e16 a, (a (+) a) (+) a) for each corpus
    action, random and zero cocycle."""
    for label, action, _ in corpus_cases(family, field, seeds):
        total = direct_sum(direct_sum(action, scaled(action, 1e8)), scaled(action, 1e16))
        yield (*label, "1e8a+1e16a"), total, direct_sum(direct_sum(action, action), action)


def four_copy_cases(family: str, field: str, seeds):
    """(label, ((a (+) a) (+) a) (+) a, a (+) a) for each corpus action,
    random and zero cocycle."""
    for label, action, _ in corpus_cases(family, field, seeds):
        total = direct_sum(direct_sum(direct_sum(action, action), action), action)
        yield (*label, "4a"), total, direct_sum(action, action)


def multiple_cases(family: str, field: str, seeds):
    """(label, total, unscaled) for each corpus action a with a random
    cocycle: total = a_1 (+) .. (+) a_m for m = 2, 3, 4, a_1 = a and a_i a
    fresh random cocycle on a's representation scaled by
    ``MULTIPLE_SCALES[i - 1]``; unscaled is the same sum at scale 1."""
    for d in DIMS:
        for seed in seeds:
            rng = np.random.default_rng(7919 * d + seed)
            a = random_action(FAMILIES[family](rng, d, field), rng)
            total = unscaled = a
            for m, lam in zip(range(2, 5), MULTIPLE_SCALES[1:]):
                summand = random_action(a.rep, rng)
                total, unscaled = direct_sum(total, scaled(summand, lam)), direct_sum(unscaled, summand)
                yield (family, field, d, seed, f"{m}a_i"), total, unscaled


def check_multiple(label, total: AffineAction, unscaled: AffineAction) -> None:
    """The record of m copies of one representation holds one distinct
    summand; the verdict and witness dimension are those of the plain
    decision of ``unscaled`` on a representation that keeps no summands,
    and the pairs match the verdict."""
    assert len(_copies(total.rep)) == 1, (label, "distinct summands", len(_copies(total.rep)))
    verdict = decide_irreducibility(total)
    flat = Representation(total.presentation, total.field, total.rep.matrices, dim=total.dim, validate=False)
    want = decide_irreducibility(AffineAction(flat, Cocycle(flat, unscaled.cocycle.values, validate=False)))
    assert verdict.reducible == want.reducible, (label, "verdict differs from the plain decision")
    if verdict.reducible:
        dims = (verdict.witness_subspace.dim, want.witness_subspace.dim)
        assert dims[0] == dims[1], (label, "witness dimension", dims)
    check_pairs_match_the_verdict(label, total)


def test_zero_cocycle_on_complex_z_at_d6_seed15_is_reducible_with_a_certified_witness():
    # the former rule cut a cluster of two singular values 3.5e-8 apart in
    # squares and raised "extracted subspace failed certification"
    rng = np.random.default_rng(7919 * 6 + 15)
    action = fixed_point_action(random_action(FAMILIES["z"](rng, 6, "complex"), rng))
    verdict = decide_irreducibility(action)
    assert verdict.reducible
    subspace, witness = verdict.witness_subspace, verdict.witness_map
    assert subspace.dim == 0 and not subspace.base.any()
    bound = certification_scale((witness.deviation, witness.translation), action)
    assert residual_ok(commutant_residual(action, witness), bound, TOL.eps_residual)
    bound = certification_scale((subspace.base,), action)
    assert residual_ok(check_invariance(action, subspace), bound, TOL.eps_residual)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_corpus_slice_keeps_verdict_and_witness_dimension_under_the_symmetries(family, field):
    for label, action, rng in corpus_cases(family, field, SLICE_SEEDS):
        check_case(label, action, rng)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_corpus_slice_sums_are_refused_or_certified(family, field):
    for label, a1, a2 in sum_cases(family, field, SLICE_SEEDS):
        check_witness(label, a1, a2)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_corpus_slice_pairs_match_the_verdict(family, field):
    for label, action, _ in corpus_cases(family, field, SLICE_SEEDS):
        check_pairs_match_the_verdict(label, action)
    for label, a1, a2 in sum_cases(family, field, SLICE_SEEDS):
        check_pairs_match_the_verdict(label, direct_sum(a1, a2))


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_corpus_slice_three_summand_sums_keep_the_witness_dimension(family, field):
    for label, total, reference in three_summand_cases(family, field, SLICE_SEEDS):
        check_three_summands(label, total, reference)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_corpus_slice_multiples_keep_the_plain_verdict(family, field):
    for case in multiple_cases(family, field, SLICE_SEEDS):
        check_multiple(*case)


def main() -> int:
    start = time.perf_counter()
    print(f"edge corpus: seeds {SEEDS.start}-{SEEDS.stop - 1}, d {DIMS.start}-{DIMS.stop - 1}, "
          f"{len(FAMILIES)} families x {len(FIELDS)} fields x {{random, zero}} cocycle, rng 7919 d + seed; "
          "each action summed with itself, a', b and 1e8 and 1e9 times itself, and "
          "(a (+) 1e8 a) (+) 1e16 a and ((a (+) a) (+) a) (+) a; the sums of m = 2..4 independent cocycles "
          "on each representation; the three-scale grid, seeds 40-42")
    decisions = moves = sums = 0
    failures = []

    def run(check, label, *args) -> int:
        """check(label, *args), its failure recorded; the moves it counted."""
        try:
            return check(label, *args) or 0
        except (AssertionError, InternalCheckError) as exc:
            failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return 0

    for family in sorted(FAMILIES):
        for field in FIELDS:
            for label, action, rng in corpus_cases(family, field, SEEDS):
                moves += run(check_case, label, action, rng)
                run(check_pairs_match_the_verdict, label, action)
                decisions += 1
            for label, a1, a2 in sum_cases(family, field, SEEDS):
                run(check_witness, label, a1, a2)
                run(check_pairs_match_the_verdict, label, direct_sum(a1, a2))
                sums += 1
            for case in (*three_summand_cases(family, field, SEEDS), *four_copy_cases(family, field, SEEDS)):
                run(check_three_summands, *case)
                sums += 1
            for case in multiple_cases(family, field, SEEDS):
                run(check_multiple, *case)
                sums += 1
    for case in three_scale_cases(sorted(FAMILIES), (40, 41, 42)):
        run(check_three_summands, *case)
        sums += 1
    for line in failures:
        print("FAIL", line)
    print(f"{decisions} actions, {moves} moved decisions, {sums} sums, {len(failures)} failures "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
