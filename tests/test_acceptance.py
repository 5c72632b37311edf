"""Acceptance suite.

Each test implements one acceptance criterion at its pinned tolerance and
prints a single PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of a failing run).
"""

import json
import time
from contextlib import contextmanager

import numpy as np

from affine_actions import (
    AffineAction,
    AffineMap,
    Representation,
    check_center_translations,
    check_invariance,
    commutant_residual,
    decide_irreducibility,
    direct_sum,
    analyze_direct_sum,
    first_cohomology,
    fixed_points,
    fixed_subspace,
    intertwining_residual,
    project_action,
    quadratic_form_test,
    restrict_action,
)
from affine_actions.cli import main as cli_main
from affine_actions.problem_io import load_problem

from helpers import (
    FIXTURES,
    abelian_oracle_is_irreducible,
    dihedral_group,
    f2_group,
    identity_rep,
    random_abelian_rep,
    random_action,
    random_action_for,
    random_c3_rep,
    random_heisenberg_rep,
    random_s3_rep,
    total_random_abelian_action,
    z2_group,
    z_group,
)


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def run_machine(capsys, *args):
    start = time.perf_counter()
    code = cli_main([str(a) for a in args] + ["--machine"])
    elapsed = time.perf_counter() - start
    doc = json.loads(capsys.readouterr().out)
    return code, doc, elapsed


def test_criterion_01_glide_witness_line(capsys):
    with criterion(1, "glide example: reducible with axis witness"):
        code, doc, elapsed = run_machine(capsys, "irreducible", FIXTURES / "glide.json")
        assert code == 10
        assert doc["verdict"] == "Reducible"
        sub = doc["witness"]["invariant_subspace"]
        base = np.array(sub["base"])
        directions = np.array(sub["directions"]).reshape(2, sub["dim"])
        assert sub["dim"] == 1
        # base point lies on the line y = 1
        assert abs(base[1] - 1.0) <= 1e-6
        # direction is horizontal within angle 1e-6
        angle = np.arccos(min(1.0, abs(directions[0, 0])))
        assert angle <= 1e-6
        assert elapsed < 1.0


def test_criterion_02_infinite_dihedral(capsys):
    with criterion(2, "infinite dihedral: irreducible, restriction, center, linear part"):
        start = time.perf_counter()
        problem = load_problem(FIXTURES / "dihedral.json")
        action = problem.build_action()
        verdict = decide_irreducibility(action)
        assert verdict.irreducible

        restricted = restrict_action(action, problem.subgroup)
        assert decide_irreducibility(restricted).irreducible

        report = check_center_translations(action, problem.central_words)
        assert report.passed  # vacuous: the center word list is empty

        deviation = max(
            np.linalg.norm(m - np.eye(action.dim)) for m in action.rep.matrices
        )
        assert deviation > 1e-8  # nontrivial linear part
        assert time.perf_counter() - start < 1.0


def test_criterion_03_induced_action_reducible(capsys):
    with criterion(3, "induced C2xZ example: reducible"):
        code, doc, elapsed = run_machine(
            capsys, "induce", FIXTURES / "z_translation.json", FIXTURES / "c2xz_setup.json"
        )
        assert code == 10
        assert doc["verdict"] == "Reducible"
        assert elapsed < 1.0


def test_criterion_04_diagonal_law():
    with criterion(4, "diagonal law: a (+) a reducible with identity intertwiner"):
        rng = np.random.default_rng(404)
        presentations = [z_group(), f2_group(), dihedral_group()]
        for i in range(50):
            presentation = presentations[i % 3]
            field = "complex" if i % 2 == 0 else "real"
            dim = int(rng.integers(1, 5))
            action = random_action_for(presentation, dim, field, rng)
            analysis = analyze_direct_sum(action, action)
            assert analysis.verdict.reducible, f"sample {i}: diagonal sum not reducible"
            proj = analysis.projections
            assert proj is not None
            p1 = project_action(action, proj.v1_basis)
            p2 = project_action(action, proj.v2_basis)
            assert intertwining_residual(p1, p2, proj.intertwiner) <= 1e-6
            ambient = proj.ambient_map()
            assert proj.v1_basis.shape[1] == dim  # the whole space on both sides
            assert np.linalg.norm(ambient.linear - np.eye(dim)) <= 1e-6
            assert np.linalg.norm(ambient.translation) <= 1e-6


def test_criterion_05_disjointness_and_independence():
    with criterion(5, "disjoint linear parts and independent classes"):
        f2 = f2_group()
        char_rep = Representation(f2, "complex", [np.array([[1j]]), np.eye(1, dtype=complex)])
        char_action = AffineAction.from_values(
            char_rep, [np.zeros(1, dtype=complex), np.ones(1, dtype=complex)]
        )
        other_char_rep = Representation(f2, "complex", [np.eye(1, dtype=complex), np.array([[1j]])])
        other_char_action = AffineAction.from_values(
            other_char_rep, [np.ones(1, dtype=complex), np.zeros(1, dtype=complex)]
        )
        two_rep = Representation(
            f2, "complex", [np.diag([1j, -1j]), np.array([[0, 1], [1, 0]], dtype=complex)]
        )
        b1 = AffineAction.from_values(two_rep, [np.array([1, 0], dtype=complex), np.zeros(2, dtype=complex)])
        b2 = AffineAction.from_values(two_rep, [np.zeros(2, dtype=complex), np.array([1, 0], dtype=complex)])
        dependent = AffineAction.from_values(
            two_rep, [np.array([2, 0], dtype=complex), np.zeros(2, dtype=complex)]
        )

        # all five ingredients are irreducible on their own
        for action in (char_action, other_char_action, b1, b2, dependent):
            assert decide_irreducibility(action).irreducible

        # pairwise disjoint linear parts: sums stay irreducible (two pairs)
        assert decide_irreducibility(direct_sum(char_action, b1)).irreducible
        assert decide_irreducibility(direct_sum(char_action, other_char_action)).irreducible

        # two independent classes over one irreducible linear part
        basis = first_cohomology(two_rep)
        coords = np.column_stack(
            [basis.class_coordinates(b1.cocycle), basis.class_coordinates(b2.cocycle)]
        )
        assert np.linalg.matrix_rank(coords, tol=1e-8) == 2  # independence precondition
        assert decide_irreducibility(direct_sum(b1, b2)).irreducible

        # dependent classes: the sum is reducible
        assert decide_irreducibility(direct_sum(b1, dependent)).reducible


def test_criterion_06_abelian_oracle_agreement():
    with criterion(6, "joint-eigenspace oracle agrees on 200 random abelian actions"):
        rng = np.random.default_rng(606)
        start = time.perf_counter()
        checked = 0
        verdict_mix = {True: 0, False: 0}
        while checked < 200:
            presentation = z_group() if rng.random() < 0.5 else z2_group()
            dim = int(rng.integers(1, 5))
            if rng.random() < 0.4:
                rep = identity_rep(presentation, dim, "complex")
            else:
                rep = random_abelian_rep(presentation, dim, "complex", rng)
            action = random_action(rep, rng)
            ours = decide_irreducibility(action).irreducible
            oracle = abelian_oracle_is_irreducible(action, residual_tol=1e-8)
            assert ours == oracle, f"sample {checked}: decision {ours}, oracle {oracle}"
            verdict_mix[ours] += 1
            checked += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.1f}s"
        assert verdict_mix[True] > 0 and verdict_mix[False] > 0


def test_criterion_07_quadratic_form_equivalence():
    with criterion(7, "parallelogram test matches irreducibility on 100 actions"):
        rng = np.random.default_rng(707)
        checked = 0
        verdict_mix = {True: 0, False: 0}
        while checked < 100:
            action = total_random_abelian_action(rng)
            if action is None:
                continue
            result = quadratic_form_test(action, window=3)
            verdict = decide_irreducibility(action)
            assert result.quadratic == verdict.irreducible, (
                f"sample {checked}: quadratic={result.quadratic}, verdict={verdict.tag}"
            )
            verdict_mix[verdict.irreducible] += 1
            checked += 1
        assert verdict_mix[True] > 0 and verdict_mix[False] > 0


def test_criterion_08_nilpotent_characterization():
    with criterion(8, "no irreducible Heisenberg action has a nontrivial linear part"):
        rng = np.random.default_rng(808)
        for i in range(100):
            field = "complex" if i % 2 == 0 else "real"
            dim = int(rng.integers(1, 4))
            rep = random_heisenberg_rep(dim, field, rng)
            action = random_action(rep, rng)
            verdict = decide_irreducibility(action)
            deviation = max(
                np.linalg.norm(m - np.eye(action.dim)) for m in action.rep.matrices
            )
            assert not (verdict.irreducible and deviation > 1e-8), f"sample {i}"


def test_criterion_09_finite_group_vanishing():
    with criterion(9, "finite groups: H1 = 0 and every action has a fixed point"):
        rng = np.random.default_rng(909)
        for i in range(100):
            dim = int(rng.integers(1, 5))
            if i % 2 == 0:
                field = "complex" if i % 4 == 0 else "real"
                rep = random_c3_rep(dim, field, rng)
            else:
                field = "complex" if i % 4 == 1 else "real"
                rep = random_s3_rep(dim, field, rng)
            basis = first_cohomology(rep)
            assert basis.dims[2] == 0, f"sample {i}: dim H1 = {basis.dims[2]}"
            action = random_action(rep, rng)
            assert fixed_points(action).subspace is not None, f"sample {i}: no fixed point"


def _fixture_actions():
    for path in sorted(FIXTURES.glob("*.json")):
        if path.name == "c2xz_setup.json":
            continue
        problem = load_problem(path)
        yield path.name, problem.build_action()


def test_criterion_10_schur_structure_on_irreducible_fixtures():
    with criterion(10, "irreducible commutants are exactly the fixed-space translations"):
        seen_irreducible = 0
        for name, action in _fixture_actions():
            verdict = decide_irreducibility(action)
            if verdict.reducible:
                continue
            seen_irreducible += 1
            fixed = fixed_subspace(action.rep)
            # containment 1: every commutant pair is a fixed-space translation
            assert len(verdict.commutant) == fixed.shape[1], name
            for pair in verdict.commutant:
                assert pair.deviation_norm <= 1e-8, name
                off = pair.translation - fixed @ (fixed.conj().T @ pair.translation)
                assert np.linalg.norm(off) <= 1e-8 * (1 + np.linalg.norm(pair.translation)), name
            # containment 2: every fixed-space translation solves the system
            for k in range(fixed.shape[1]):
                candidate = AffineMap(
                    np.eye(action.dim, dtype=action.rep.dtype), fixed[:, k]
                )
                assert commutant_residual(action, candidate) <= 1e-8, name
        assert seen_irreducible >= 5


def test_criterion_11_witness_soundness_everywhere():
    with criterion(11, "every reducible verdict carries a verified invariant subspace"):
        rng = np.random.default_rng(1111)
        reducible_count = 0

        def check(action, label):
            nonlocal reducible_count
            verdict = decide_irreducibility(action)
            if verdict.irreducible:
                return
            reducible_count += 1
            sub = verdict.witness_subspace
            assert sub is not None, label
            assert 0 <= sub.dim < action.dim, label
            assert check_invariance(action, sub) <= 1e-6, label
            assert commutant_residual(action, verdict.witness_map) <= 1e-6, label

        for name, action in _fixture_actions():
            check(action, name)
        from affine_actions import induce_action
        from affine_actions.problem_io import load_induction_setup

        setup = load_induction_setup(FIXTURES / "c2xz_setup.json")
        check(induce_action(load_problem(FIXTURES / "z_translation.json").build_action(), setup), "induced")

        presentations = [z_group(), z2_group(), f2_group(), dihedral_group()]
        for i in range(40):
            presentation = presentations[i % 4]
            field = "complex" if i % 2 == 0 else "real"
            dim = int(rng.integers(1, 5))
            check(random_action_for(presentation, dim, field, rng), f"random-{i}")
        assert reducible_count >= 20
