import argparse
import json
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from affine_actions import Representation, ToleranceProfile, analyze_direct_sum, decide_irreducibility, direct_sum
from affine_actions import actions as actions_module, cli
from affine_actions.actions import InternalCheckError
from affine_actions.cli import VERBS, build_parser, main
from affine_actions.problem_io import (
    action_to_problem,
    load_problem,
    problem_from_dict,
    problem_to_dict,
    save_problem,
)
from affine_actions.reps import RepresentationError

from helpers import FIXTURES, f2_group, random_action, random_free_rep, roundoff_identity_action, surface_group_pair


def run_cli(args, capsys):
    code = main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_machine(args, capsys):
    code, out, _ = run_cli(list(args) + ["--machine"], capsys)
    return code, json.loads(out)


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.json") if p.name != "c2xz_setup.json"))
def test_problem_files_round_trip(name):
    problem = load_problem(FIXTURES / name)
    dumped = problem_to_dict(problem)
    again = problem_from_dict(json.loads(json.dumps(dumped)))
    assert problem_to_dict(again) == dumped
    for a, b in zip(problem.matrices, again.matrices):
        assert np.array_equal(a, b)
    for a, b in zip(problem.cocycle_values, again.cocycle_values):
        assert np.array_equal(a, b)


def test_a_profile_and_a_seed_round_trip():
    data = json.loads((FIXTURES / "glide.json").read_text())
    data["tolerances"] = {"rank": 1e-9, "residual": 1e-7, "eig": 1e-6}
    data["seed"] = 11
    dumped = problem_to_dict(problem_from_dict(data))
    assert dumped["tolerances"] == data["tolerances"] and dumped["seed"] == 11
    again = problem_from_dict(json.loads(json.dumps(dumped)))
    assert again.tolerances == ToleranceProfile(1e-9, 1e-7, 1e-6) and again.seed == 11
    assert problem_to_dict(again) == dumped


def test_verify_glide_passes(capsys):
    code, doc = run_machine(["verify", FIXTURES / "glide.json"], capsys)
    assert code == 0
    assert doc["verdict"] == "pass"
    assert doc["residuals"]["isometry_defects"][0] < 1e-12


def test_verify_failure_reports_named_invariant(tmp_path, capsys):
    data = json.loads((FIXTURES / "glide.json").read_text())
    data["matrices"]["t"] = [2.0, 0.0, 0.0, 1.0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, doc = run_machine(["verify", bad], capsys)
    assert code == 10
    assert doc["verdict"] == "fail"
    assert doc["checks"]["isometry"] is False


def test_verify_cocycle_failure(tmp_path, capsys):
    # pi(s) = +1 forces b(s) = 0 through the relator s*s
    data = {
        "format_version": "1",
        "field": "complex",
        "presentation": {"generators": ["t", "s"], "relators": ["s s", "s t s t"]},
        "dim": 1,
        "matrices": {"t": [[-1.0, 0.0]], "s": [[1.0, 0.0]]},
        "cocycle": {"t": [[0.0, 0.0]], "s": [[0.5, 0.0]]},
    }
    bad = tmp_path / "bad_cocycle.json"
    bad.write_text(json.dumps(data))
    code, doc = run_machine(["verify", bad], capsys)
    assert code == 10
    assert doc["checks"]["cocycle_relators"] is False
    assert doc["checks"]["isometry"] is True


def test_irreducible_exit_codes_and_witness(capsys):
    code, doc = run_machine(["irreducible", FIXTURES / "glide.json"], capsys)
    assert code == 10
    assert doc["verdict"] == "Reducible"
    base = [pair for pair in doc["witness"]["invariant_subspace"]["base"]]
    assert abs(base[1] - 1.0) < 1e-8

    code, doc = run_machine(["irreducible", FIXTURES / "dihedral.json"], capsys)
    assert code == 0
    assert doc["verdict"] == "Irreducible"
    assert doc["fixed_space_dimension"] == 0


def test_irreducible_on_large_cocycle_double(tmp_path, capsys):
    # a valid reducible input at cocycle scale 1e9: the verdict and its
    # certified witness must not depend on the magnitude of b
    rng = np.random.default_rng(7)
    half = random_action(random_free_rep(f2_group(), 4, "real", rng), rng, scale=1e9)
    path = tmp_path / "double.json"
    save_problem(action_to_problem(direct_sum(half, half)), path)
    code, doc = run_machine(["irreducible", path], capsys)
    assert code == 10
    assert doc["verdict"] == "Reducible"
    assert doc["witness"]["invariant_subspace"]["dim"] < 8


@pytest.mark.parametrize("verb", ["verify", "irreducible", "abelian-test"])
def test_a_cocycle_norm_that_overflows_is_invalid_input(verb, tmp_path, capsys):
    # Z on R by the translation 1e160: ||b||^2 overflows, so every verb
    # refuses the file (exit 12) instead of certifying against a NaN bound
    data = json.loads((FIXTURES / "z_translation.json").read_text())
    for value, code, verdict in ((1e160, 12, "error"), (1e150, 0, None)):
        data["cocycle"]["t"] = [value]
        path = tmp_path / "z.json"
        path.write_text(json.dumps(data))
        got, doc = run_machine([verb, path], capsys)
        assert got == code, (value, doc)
        if verdict == "error":
            assert doc["error"].startswith("cocycle norm overflows")
    if verb == "irreducible":
        assert doc["verdict"] == "Irreducible"


def test_irreducible_human_output_not_json(capsys):
    code, out, _ = run_cli(["irreducible", FIXTURES / "dihedral.json"], capsys)
    assert code == 0
    assert out.startswith("irreducible: Irreducible")
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_commutant_command(capsys):
    code, doc = run_machine(["commutant", FIXTURES / "glide.json"], capsys)
    assert code == 0
    assert doc["dimension"] == 2


def test_fixed_points_command(capsys):
    code, doc = run_machine(["fixed-points", FIXTURES / "glide.json"], capsys)
    assert code == 10
    assert doc["verdict"] == "Empty"
    code, doc = run_machine(["fixed-points", FIXTURES / "z_flip.json"], capsys)
    assert code == 0
    assert abs(doc["subspace"]["base"][0][0] - 0.5) < 1e-10


def test_fixed_points_command_on_a_roundoff_identity_translation(tmp_path, capsys):
    path = tmp_path / "near_identity.json"
    save_problem(action_to_problem(roundoff_identity_action(0)), path)
    code, doc = run_machine(["fixed-points", path], capsys)
    assert code == 10
    assert doc["verdict"] == "Empty"


def test_cohomology_dimensions(capsys):
    code, doc = run_machine(["cohomology", FIXTURES / "f2_trivial.json"], capsys)
    assert code == 0
    assert doc["verdict"] == {"cocycles": 2, "coboundaries": 0, "classes": 2}

    _, doc = run_machine(["cohomology", FIXTURES / "heisenberg_trivial.json"], capsys)
    assert doc["verdict"] == {"cocycles": 2, "coboundaries": 0, "classes": 2}
    for rep_values in doc["class_representatives"]:
        assert np.allclose(np.array(rep_values["z"]), 0.0)

    _, doc = run_machine(["cohomology", FIXTURES / "z_flip.json"], capsys)
    assert doc["verdict"] == {"cocycles": 1, "coboundaries": 1, "classes": 0}

    _, doc = run_machine(["cohomology", FIXTURES / "c3_rotation.json"], capsys)
    assert doc["verdict"]["classes"] == 0


def test_exists_irreducible_command(capsys):
    code, doc = run_machine(["exists-irreducible", FIXTURES / "z_trivial_c1.json"], capsys)
    assert code == 0 and doc["verdict"] == "Yes"
    code, doc = run_machine(["exists-irreducible", FIXTURES / "z_trivial_c2.json"], capsys)
    assert code == 10 and doc["verdict"] == "ProbablyNo" and doc["probabilistic"]
    code, doc = run_machine(["exists-irreducible", FIXTURES / "c2_flip.json"], capsys)
    assert code == 10


def test_direct_sum_diagonal(capsys):
    code, doc = run_machine(
        ["direct-sum", FIXTURES / "dihedral.json", FIXTURES / "dihedral.json"], capsys
    )
    assert code == 10
    assert doc["verdict"] == "EquivalentProjections"
    ambient = doc["witness"]["ambient_intertwiner"]
    assert abs(complex(*ambient["linear"][0]) - 1.0) < 1e-8


def test_direct_sum_disjoint_pair(capsys):
    code, doc = run_machine(
        ["direct-sum", FIXTURES / "f2_character.json", FIXTURES / "f2_irred2d_b1.json"], capsys
    )
    assert code == 0
    assert doc["verdict"] == "IrreducibleSum"


def test_direct_sum_takes_no_seed(capsys):
    dihedral = FIXTURES / "dihedral.json"
    code, _, err = run_cli(["direct-sum", dihedral, dihedral, "--seed", "1"], capsys)
    assert code == 11 and "--seed" in err


@pytest.mark.parametrize(
    "first, second, which",
    [
        ("f2_trivial.json", "f2_character.json", "first"),
        ("f2_irred2d_b1.json", "f2_trivial.json", "second"),
        ("z_flip.json", "z_trivial_c1.json", "first"),
    ],
)
def test_direct_sum_with_a_reducible_summand_is_invalid_input(capsys, first, second, which):
    # the sum is reducible, but the criterion's hypothesis fails: no
    # equivalent projections come out of its commutant
    code, doc = run_machine(["direct-sum", FIXTURES / first, FIXTURES / second], capsys)
    assert code == 12 and doc["error"].startswith(f"the {which} summand is reducible")


def test_equivalence_command(capsys):
    code, doc = run_machine(
        ["equivalence", FIXTURES / "z_translation.json", FIXTURES / "z_even_translation.json"],
        capsys,
    )
    assert code == 0
    assert abs(doc["intertwiner"]["linear"][0] - 2.0) < 1e-8

    code, doc = run_machine(
        ["equivalence", FIXTURES / "z_translation.json", FIXTURES / "z_flip.json"], capsys
    )
    assert code == 12  # field mismatch is an input error


def test_restrict_command(capsys):
    code, doc = run_machine(["restrict", FIXTURES / "dihedral.json"], capsys)
    assert code == 0
    assert doc["verdict"] == "Irreducible"
    assert doc["restricted_action"]["presentation"]["generators"] == ["u"]

    code, doc = run_machine(["restrict", FIXTURES / "glide.json"], capsys)
    assert code == 10


def test_restrict_requires_subgroup(capsys):
    code, doc = run_machine(["restrict", FIXTURES / "z_translation.json"], capsys)
    assert code == 12
    assert "subgroup" in doc["error"]


def test_induce_command(capsys):
    code, doc = run_machine(
        ["induce", FIXTURES / "z_translation.json", FIXTURES / "c2xz_setup.json"], capsys
    )
    assert code == 10
    assert doc["verdict"] == "Reducible"
    assert doc["cosets"] == 2
    assert doc["induced_action"]["dim"] == 2


@pytest.mark.parametrize(
    "args, key",
    [
        (["restrict", FIXTURES / "dihedral.json"], "restricted_action"),
        (["induce", FIXTURES / "z_translation.json", FIXTURES / "c2xz_setup.json"], "induced_action"),
    ],
    ids=["restrict", "induce"],
)
def test_an_emitted_action_keeps_the_profile_it_was_decided_at(args, key, tmp_path, capsys):
    code, doc = run_machine(args, capsys)
    assert "tolerances" not in doc[key]  # the default profile is not written
    code, doc = run_machine(args + ["--tol-rank", "1e-10", "--tol-residual", "1e-10"], capsys)
    assert doc[key]["tolerances"] == {"rank": 1e-10, "residual": 1e-10, "eig": 1e-8}
    path = tmp_path / "emitted.json"
    path.write_text(json.dumps(doc[key]))
    assert load_problem(path).tolerance() == ToleranceProfile(1e-10, 1e-10, 1e-8)
    again, decided = run_machine(["irreducible", path], capsys)
    assert (again, decided["verdict"]) == (code, doc["verdict"])


def _setup_edit(edit):
    """A copy of the induction setup fixture's text with ``edit`` applied to its data."""

    def text():
        data = json.loads((FIXTURES / "c2xz_setup.json").read_text())
        return json.dumps(edit(data) or data)

    return text


SETUP_REFUSALS = {
    "malformed-json": (lambda: "{not json", "line 1, column 2"),
    "top-level-array": (lambda: "[]", "top level: expected a JSON object"),
    "format-version": (_setup_edit(lambda d: d.update(format_version="2")), "format_version must be '1'"),
    "ambient-not-object": (_setup_edit(lambda d: d.update(ambient=["a"])), "ambient: expected an object"),
    "unknown-key": (_setup_edit(lambda d: d.update(index=2)), "top level: unknown keys ['index']"),
    "schreier-undeclared-generator": (
        _setup_edit(lambda d: d["coset_table"]["schreier"].update(u=["1", "1"])),
        "coset_table.schreier: unknown keys ['u']",
    ),
}


@pytest.mark.parametrize("case", sorted(SETUP_REFUSALS))
def test_a_malformed_induction_setup_is_located(case, tmp_path, capsys):
    text, message = SETUP_REFUSALS[case]
    setup = tmp_path / f"{case}.json"
    setup.write_text(text())
    code, doc = run_machine(["induce", FIXTURES / "z_translation.json", setup], capsys)
    assert code == 11, doc
    assert doc["error"].startswith(f"{setup}: {message}"), doc["error"]


def test_center_check_command(capsys):
    code, doc = run_machine(["center-check", FIXTURES / "heisenberg_trivial.json"], capsys)
    assert code == 0
    code, doc = run_machine(["center-check", FIXTURES / "dihedral.json"], capsys)
    assert code == 0  # no central words: vacuous pass


def test_abelian_test_command(capsys):
    code, doc = run_machine(["abelian-test", FIXTURES / "z2_translations.json"], capsys)
    assert code == 0
    assert doc["verdict"] == "Quadratic" and doc["verdicts_agree"]

    code, doc = run_machine(["abelian-test", FIXTURES / "z_flip.json"], capsys)
    assert code == 10
    assert doc["verdict"] == "ViolatedAt" and doc["violation"] == [[1], [1]]
    assert doc["verdicts_agree"]

    code, doc = run_machine(["abelian-test", FIXTURES / "dihedral.json"], capsys)
    assert code == 12


def test_nilpotent_check_command(capsys):
    code, doc = run_machine(["nilpotent-check", FIXTURES / "heisenberg_trivial.json"], capsys)
    assert code == 0


def test_orbit_probe_command(capsys):
    code, doc = run_machine(
        ["orbit-probe", FIXTURES / "glide.json", "--budget", "60", "--radius", "4.0", "--seed", "2"],
        capsys,
    )
    assert code == 0
    assert doc["orbit_size"] == 61
    assert doc["probabilistic"] is True
    assert doc["max_hull_distance"] > 0.5


def test_orbit_probe_rejects_complex(capsys):
    code, doc = run_machine(["orbit-probe", FIXTURES / "z_flip.json"], capsys)
    assert code == 12


def test_bad_invocation_maps_to_usage_exit(capsys):
    assert main(["no-such-verb"]) == 11
    capsys.readouterr()
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_missing_file_is_usage_error(capsys):
    code, doc = run_machine(["irreducible", "/nonexistent/problem.json"], capsys)
    assert code == 11
    assert "error" in doc


def test_malformed_json_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code, doc = run_machine(["irreducible", bad], capsys)
    assert code == 11
    assert "line" in doc["error"]


def test_unknown_key_rejected(tmp_path, capsys):
    data = json.loads((FIXTURES / "glide.json").read_text())
    data["surprise"] = 1
    bad = tmp_path / "extra.json"
    bad.write_text(json.dumps(data))
    code, doc = run_machine(["irreducible", bad], capsys)
    assert code == 11
    assert "surprise" in doc["error"]


def test_wrong_matrix_length_reports_location(tmp_path, capsys):
    data = json.loads((FIXTURES / "glide.json").read_text())
    data["matrices"]["t"] = [1.0, 0.0]
    bad = tmp_path / "short.json"
    bad.write_text(json.dumps(data))
    code, doc = run_machine(["verify", bad], capsys)
    assert code == 11
    assert "matrices.t" in doc["error"]


def _set(path, value):
    """An edit of a problem file's data: ``value`` at the key path ``path``."""

    def edit(data):
        *parents, last = path
        for key in parents:
            data = data.setdefault(key, {})
        data[last] = value

    return edit


TOO_BIG_FOR_A_FLOAT = 10**400
BAD_FIELD_TYPES = {
    "dim-true": ("z_translation.json", _set(["dim"], True), "dim"),
    "central-word-number": ("glide.json", _set(["central_words"], [5]), "central_words"),
    "central-words-string": ("glide.json", _set(["central_words"], "t"), "central_words"),
    "central-word-undeclared": ("glide.json", _set(["central_words"], ["u"]), "central_words"),
    "subgroup-generator-number": ("glide.json", _set(["subgroup", "generators"], [5]), "subgroup.generators"),
    "matrix-entry-overflow": ("glide.json", _set(["matrices", "t"], [TOO_BIG_FOR_A_FLOAT, 0, 0, 1]), "matrices.t"),
    "cocycle-entry-overflow": ("glide.json", _set(["cocycle", "t"], [TOO_BIG_FOR_A_FLOAT, 0]), "cocycle.t"),
    "seed-true": ("glide.json", _set(["seed"], True), "seed"),
    "tolerance-string": ("glide.json", _set(["tolerances"], {"rank": "1e-9"}), "tolerances.rank"),
    "complex-part-string": ("z_trivial_c1.json", _set(["matrices", "t"], [["1.0", 0.0]]), "matrices.t"),
    "complex-part-bool": ("z_trivial_c1.json", _set(["matrices", "t"], [[True, 0.0]]), "matrices.t"),
    "complex-part-word": ("z_trivial_c1.json", _set(["cocycle", "t"], [["x", 0]]), "cocycle.t"),
    "transversal-undeclared": (
        "glide.json",
        _set(["coset_table"], {"transversal": ["1", "u"], "action": {"t": [0, 1]}, "schreier": {"t": ["t", "t"]}}),
        "coset_table.transversal",
    ),
    # json writes and reads the NaN, Infinity and -Infinity literals
    "matrix-entry-nan": ("glide.json", _set(["matrices", "t"], [float("nan"), 0.0, 0.0, 1.0]), "matrices.t"),
    "cocycle-entry-infinity": ("glide.json", _set(["cocycle", "t"], [float("inf"), 0.0]), "cocycle.t"),
    "cocycle-entry-minus-infinity": ("glide.json", _set(["cocycle", "t"], [0.0, float("-inf")]), "cocycle.t"),
    "complex-part-nan": ("z_trivial_c1.json", _set(["matrices", "t"], [[1.0, float("nan")]]), "matrices.t"),
    "tolerance-infinity": ("glide.json", _set(["tolerances"], {"rank": float("inf")}), "tolerances.rank"),
    # an unknown key of any object is refused where it stands
    "presentation-unknown-key": ("dihedral.json", _set(["presentation", "relator"], ["s s"]), "presentation"),
    "matrices-undeclared-generator": ("glide.json", _set(["matrices", "u"], [1.0, 0.0, 0.0, 1.0]), "matrices"),
    "tolerances-unknown-key": ("glide.json", _set(["tolerances", "rnak"], 1e-9), "tolerances"),
    "subgroup-unknown-key": ("glide.json", _set(["subgroup", "generator"], ["t"]), "subgroup"),
    "subgroup-presentation-unknown-key": (
        "glide.json",
        _set(["subgroup", "presentation"], {"generators": ["u"], "relator": []}),
        "subgroup.presentation",
    ),
    "coset-table-unknown-key": (
        "glide.json",
        _set(["coset_table"], {"transversal": ["1"], "action": {"t": [0]}, "schreier": {"t": ["t"]}, "index": 1}),
        "coset_table",
    ),
    "schreier-undeclared-generator": (
        "glide.json",
        _set(["coset_table"], {"transversal": ["1"], "action": {"t": [0]}, "schreier": {"t": ["t"], "u": ["1"]}}),
        "coset_table.schreier",
    ),
    # every other refusal of a problem file's parser
    "array-not-a-list": ("glide.json", _set(["matrices", "t"], 1.0), "matrices.t: expected an array"),
    "complex-entry-not-a-pair": (
        "z_trivial_c1.json",
        _set(["matrices", "t"], [1.0]),
        "matrices.t: complex entries must be [re, im] pairs",
    ),
    "generators-not-strings": (
        "glide.json",
        _set(["presentation", "generators"], ["t", 5]),
        "presentation.generators: expected a list of strings",
    ),
    "relators-not-a-list": (
        "dihedral.json",
        _set(["presentation", "relators"], "s s"),
        "presentation.relators: expected a list of word strings",
    ),
    "generator-name-invalid": (
        "glide.json",
        _set(["presentation", "generators"], ["2t"]),
        "presentation: invalid generator name '2t'",
    ),
    "generator-name-duplicate": (
        "glide.json",
        _set(["presentation", "generators"], ["t", "t"]),
        "presentation: duplicate generator name 't'",
    ),
    "transversal-empty": (
        "glide.json",
        _set(["coset_table"], {"transversal": [], "action": {"t": []}, "schreier": {"t": []}}),
        "coset_table.transversal: expected a non-empty list",
    ),
    "coset-action-missing-generator": (
        "glide.json",
        _set(["coset_table"], {"transversal": ["1"], "action": {}, "schreier": {"t": ["t"]}}),
        "coset_table.action: missing generator 't'",
    ),
    "schreier-missing-generator": (
        "glide.json",
        _set(["coset_table"], {"transversal": ["1"], "action": {"t": [0]}, "schreier": {}}),
        "coset_table.schreier: missing generator 't'",
    ),
    "coset-row-not-integers": (
        "glide.json",
        _set(["coset_table"], {"transversal": ["1"], "action": {"t": [0.0]}, "schreier": {"t": ["t"]}}),
        "coset_table.action.t: expected a list of coset indices",
    ),
    "format-version-wrong": ("glide.json", _set(["format_version"], "2"), "format_version: expected '1', got '2'"),
    "field-unknown": ("glide.json", _set(["field"], "quaternion"), "field: expected 'real' or 'complex'"),
    "matrices-missing-generator": ("glide.json", _set(["matrices"], {}), "matrices: missing generators ['t']"),
    "cocycle-missing-generator": ("glide.json", _set(["cocycle"], {}), "cocycle: missing generators ['t']"),
    "tolerance-out-of-range": (
        "glide.json",
        _set(["tolerances"], {"residual": 0.5}),
        "tolerances: eps_residual must lie in (0, 1e-2), got 0.5",
    ),
    "subgroup-without-generators": (
        "glide.json",
        _set(["subgroup"], {}),
        "subgroup: expected an object with a generators list",
    ),
    "subgroup-presentation-generator-count": (
        "glide.json",
        _set(["subgroup", "presentation"], {"generators": ["u", "v"]}),
        "subgroup: subgroup presentation generator count does not match the word list",
    ),
}


def test_absent_tolerance_keys_take_the_profile_defaults(tmp_path):
    data = json.loads((FIXTURES / "glide.json").read_text())
    data["tolerances"] = {"rank": 1e-9}
    path = tmp_path / "rank_only.json"
    path.write_text(json.dumps(data))
    assert load_problem(path).tolerances == ToleranceProfile(eps_rank=1e-9)


@pytest.mark.parametrize("verb", ["verify", "irreducible"])
@pytest.mark.parametrize("case", sorted(BAD_FIELD_TYPES))
def test_a_field_of_the_wrong_json_type_is_located(case, verb, tmp_path, capsys):
    fixture, edit, key = BAD_FIELD_TYPES[case]
    data = json.loads((FIXTURES / fixture).read_text())
    edit(data)
    bad = tmp_path / f"{case}.json"
    bad.write_text(json.dumps(data))
    code, doc = run_machine([verb, bad], capsys)
    assert code == 11, doc
    assert doc["error"].startswith(f"{bad}: {key}"), doc["error"]


def test_batch_mode(tmp_path, capsys):
    shutil.copy(FIXTURES / "dihedral.json", tmp_path / "a_dihedral.json")
    shutil.copy(FIXTURES / "glide.json", tmp_path / "b_glide.json")
    code, out, _ = run_cli(["irreducible", "--batch", tmp_path, "--machine"], capsys)
    assert code == 10  # worst of {0, 10}
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert [doc["verdict"] for doc in lines] == ["Irreducible", "Reducible"]
    assert all("file" in doc for doc in lines)
    # the human report heads each file's lines with its path
    code, out, _ = run_cli(["irreducible", "--batch", tmp_path], capsys)
    assert code == 10
    heads = [line for line in out.splitlines() if line.startswith("== ")]
    assert heads == [f"== {tmp_path / 'a_dihedral.json'}", f"== {tmp_path / 'b_glide.json'}"]
    assert out.splitlines()[1] == "irreducible: Irreducible"


@pytest.mark.parametrize(
    "argv, error",
    [
        (["{file}", "--batch", "{dir}"], "--batch replaces the positional file argument"),
        (["--batch", "{dir}"], "no .json files in {dir}"),
        ([], "a problem file is required"),
    ],
    ids=["file-and-batch", "empty-directory", "no-file"],
)
def test_batch_misuse_is_a_usage_error(argv, error, tmp_path, capsys):
    paths = {"file": FIXTURES / "dihedral.json", "dir": tmp_path}
    code, out, err = run_cli(["irreducible", *(a.format(**paths) for a in argv), "--machine"], capsys)
    assert code == 11 and not out
    assert err == f"error: {error.format(**paths)}\n"


def test_result_documents_carry_standard_fields(capsys):
    code, doc = run_machine(["irreducible", FIXTURES / "dihedral.json"], capsys)
    for key in ("format_version", "command", "arguments", "wall_time_s", "exit_code", "probabilistic"):
        assert key in doc
    assert doc["exit_code"] == code

    code, doc = run_machine(["irreducible", "/nonexistent/problem.json"], capsys)
    for key in ("format_version", "command", "arguments", "wall_time_s", "exit_code", "error"):
        assert key in doc
    assert doc["exit_code"] == 11


@pytest.mark.parametrize("message", ["Unable to allocate 1.16 TiB for an array", ""])
@pytest.mark.parametrize(
    "verb,name,call",
    [("abelian-test", "z2_translations.json", "quadratic_form_test"), ("orbit-probe", "glide.json", "orbit_hull_probe")],
)
def test_allocation_failure_exits_as_invalid_input(verb, name, call, message, monkeypatch, capsys):
    # what `--window 100000` or `--budget 100000000000` meet, without allocating anything
    def out_of_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, call, out_of_memory)
    code, doc = run_machine([verb, FIXTURES / name], capsys)
    assert code == doc["exit_code"] == 12
    assert doc["verdict"] == "error"
    assert doc["error"] == f"{verb}: out of memory" + (f" ({message})" if message else "")
    code, out, err = run_cli([verb, FIXTURES / name], capsys)
    assert code == 12 and out == f"error: {doc['error']}\n" and not err


def test_an_internal_check_failure_exits_13_with_an_error_document(monkeypatch, capsys):
    # the exit code of a result the library built itself that fails its own check
    def failed_certification(*args, **kwargs):
        raise InternalCheckError("witness map failed certification (residual 1.000e+00)")

    monkeypatch.setattr(cli, "decide_irreducibility", failed_certification)
    code, doc = run_machine(["irreducible", FIXTURES / "glide.json"], capsys)
    assert code == doc["exit_code"] == 13
    assert doc["verdict"] == "error"
    assert doc["error"] == "witness map failed certification (residual 1.000e+00)"
    code, out, err = run_cli(["irreducible", FIXTURES / "glide.json"], capsys)
    assert code == 13 and out == f"error: {doc['error']}\n" and not err


def test_valid_summands_with_equal_proper_projections_are_certified(monkeypatch, tmp_path, capsys):
    """Each summand is valid at its own dimension, 9, and the equal 2-dim
    projections are certified against the summands: they are not held to
    validity bounds of their own, which tighten with the dimension and would
    refuse them (as an internal failure, exit 13)."""
    a1, a2 = surface_group_pair()
    assert a1.rep.relator_defects[0] == pytest.approx(3.96e-8, rel=1e-3)
    assert not decide_irreducibility(a1).reducible and not decide_irreducibility(a2).reducible
    paths = [tmp_path / "a1.json", tmp_path / "a2.json"]
    for action, path in zip((a1, a2), paths):
        save_problem(action_to_problem(action), path)
    code, doc = run_machine(["direct-sum", *paths], capsys)
    assert code == doc["exit_code"] == 10, doc
    assert doc["verdict"] == "EquivalentProjections" and doc["witness"]["v_dim"] == 2
    projected = []
    project = actions_module.project_action
    monkeypatch.setattr(actions_module, "project_action", lambda a, w: projected.append(project(a, w)) or projected[-1])
    proj = analyze_direct_sum(a1, a2).projections
    assert proj is not None and proj.v1_basis.shape == proj.v2_basis.shape == (9, 2)
    assert proj.residuals["intertwining"] <= 1e-12
    assert len(projected) == 2
    for p in projected:
        assert p.dim == 2 and {"isometry_defects", "relator_defects"}.isdisjoint(vars(p.rep))


def test_console_script_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "affine_actions.cli", "irreducible", str(FIXTURES / "dihedral.json")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0
    assert "Irreducible" in result.stdout


def test_a_reader_that_closes_the_pipe_early_gets_no_traceback():
    # as `| head -c 10` does: the pipe closes before the CLI writes, so its
    # writes fail; it stops quietly with the worst code of the calls it ran
    argv = [sys.executable, "-m", "affine_actions.cli", "verify", "--batch", str(FIXTURES), "--machine"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    documented = (cli.EXIT_OK, cli.EXIT_NEGATIVE, cli.EXIT_USAGE, cli.EXIT_INPUT, cli.EXIT_INTERNAL)
    assert proc.wait(timeout=60) in documented
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


# one file per validity bound, each violating only that bound
PERTURBED = {
    "non_isometry": ("glide.json", {"matrices": {"t": [2.0, 0.0, 0.0, 1.0]}}, "isometry"),
    # a quarter turn, so s s s is not the identity; b = 0 keeps the cocycle relator
    "broken_rep_relator": (
        "c3_rotation.json",
        {"matrices": {"s": [0.0, -1.0, 1.0, 0.0]}, "cocycle": {"s": [0.0, 0.0]}},
        "representation_relators",
    ),
    # with pi(s) = +1 the relator s s forces b(s s) = 2 b(s) = 0
    "broken_cocycle_relator": (
        "dihedral.json",
        {"matrices": {"s": [[1.0, 0.0]]}, "cocycle": {"s": [[0.5, 0.0]]}},
        "cocycle_relators",
    ),
}


def test_verify_passes_iff_build_action_succeeds(tmp_path, capsys):
    paths = [p for p in sorted(FIXTURES.glob("*.json")) if p.name != "c2xz_setup.json"]
    failing = {}
    for name, (fixture, changes, check) in PERTURBED.items():
        data = json.loads((FIXTURES / fixture).read_text())
        for section, values in changes.items():
            data[section].update(values)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        paths.append(path)
        failing[path] = check
    for path in paths:
        code, doc = run_machine(["verify", path], capsys)
        try:
            load_problem(path).build_action()
            built = True
        except ValueError:
            built = False
        assert built == (code == 0) == (doc["verdict"] == "pass") == (path not in failing), path
        if path in failing:
            assert [name for name, ok in doc["checks"].items() if not ok] == [failing[path]]


@pytest.mark.parametrize("radius", ["-1", "0", "nan", "1e308"])
def test_orbit_probe_refuses_radius_that_is_not_finite_and_positive(radius, capsys):
    # at 1e308 the probe axis linspace(-r, r, 5) overflows, which left no probe
    code, doc = run_machine(["orbit-probe", FIXTURES / "glide.json", "--radius", radius], capsys)
    assert code == 12 and doc["verdict"] == "error"
    assert "radius" in doc["error"]


def test_equivalence_refuses_negative_trials(capsys):
    args = ["equivalence", FIXTURES / "z_translation.json", FIXTURES / "z_even_translation.json"]
    code, doc = run_machine(args + ["--trials", "-3"], capsys)
    assert code == 12 and "trials" in doc["error"]
    code, doc = run_machine(args + ["--trials", "0"], capsys)
    assert code == 0 and doc["verdict"] == "Equivalent"


@pytest.mark.parametrize(
    "args",
    [
        ["exists-irreducible", "z_flip.json"],  # H^1 = 0: the search draws nothing
        ["equivalence", "z_translation.json", "z_even_translation.json"],
        ["orbit-probe", "glide.json"],
    ],
)
def test_a_negative_seed_is_refused_even_when_nothing_is_drawn(capsys, args):
    code, doc = run_machine([args[0]] + [FIXTURES / name for name in args[1:]] + ["--seed", "-1"], capsys)
    assert code == 12 and doc["error"] == "seed must be >= 0"


def test_readme_lists_every_verb_and_flag():
    readme = (FIXTURES.parent / "README.md").read_text()
    verb_block = readme.split("exposes one verb per operation:")[1].split("```")[1]
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(verb_block.split()) == sorted(subparsers.choices) == sorted(VERBS)
    flags = {
        option
        for parser in subparsers.choices.values()
        for action in parser._actions
        for option in action.option_strings
    } - {"-h", "--help"}
    flags_paragraph = readme.split("\nFlags:")[1].split("\n\n")[0]
    assert set(re.findall(r"`(--[a-z-]+)", flags_paragraph)) == flags


# -- the shared parser --------------------------------------------------------


def test_build_parser_returns_one_shared_parser():
    assert build_parser() is build_parser()


def test_parser_is_built_on_first_use_not_at_import():
    code = "import affine_actions.cli as c; print(c.build_parser.cache_info().currsize)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "0"


def _normal_doc(args, capsys):
    code, doc = run_machine(args, capsys)
    doc.pop("wall_time_s")
    return code, doc


def test_shared_parser_carries_no_flag_values_between_calls(capsys):
    glide = FIXTURES / "glide.json"
    code, doc = run_machine(["orbit-probe", glide, "--budget", "60", "--seed", "2"], capsys)
    assert code == 0 and doc["arguments"]["budget"] == 60 and doc["arguments"]["seed"] == 2
    code, doc = run_machine(["orbit-probe", glide], capsys)
    assert code == 0 and doc["arguments"]["budget"] == 200 and "seed" not in doc["arguments"]


@pytest.mark.parametrize(
    "first, first_code",
    [(["irreducible", "--no-such-flag"], 11), (["no-such-verb"], 11), (["irreducible", "--help"], 0)],
    ids=["bad-flag", "bad-verb", "help"],
)
def test_parser_exits_leave_the_next_call_unchanged(first, first_code, capsys):
    args = ["irreducible", FIXTURES / "glide.json"]
    expected = _normal_doc(args, capsys)
    assert main(first) == first_code
    capsys.readouterr()
    assert _normal_doc(args, capsys) == expected


def test_batch_call_leaves_no_file_key_in_the_next_call(tmp_path, capsys):
    shutil.copy(FIXTURES / "dihedral.json", tmp_path / "dihedral.json")
    code, out, _ = run_cli(["irreducible", "--batch", tmp_path, "--machine"], capsys)
    assert code == 0 and "file" in json.loads(out)
    code, doc = run_machine(["irreducible", FIXTURES / "dihedral.json"], capsys)
    assert code == 0 and "file" not in doc and "batch" not in doc["arguments"]


def test_warm_calls_construct_no_parser(monkeypatch, capsys):
    # counts every ArgumentParser, the subparsers included; timing-free
    run_cli(["verify", FIXTURES / "glide.json"], capsys)
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    calls = [
        ["irreducible", FIXTURES / "dihedral.json"],
        ["commutant", FIXTURES / "glide.json"],
        ["orbit-probe", FIXTURES / "glide.json", "--budget", "60"],
        ["direct-sum", FIXTURES / "dihedral.json", FIXTURES / "dihedral.json"],
        ["induce", FIXTURES / "z_translation.json", FIXTURES / "c2xz_setup.json"],
    ]
    for args in calls:
        code, _ = run_machine(args, capsys)
        assert code in (0, 10)
    assert built == []


# -- direct sums of summands near the isometry bound ----------------------------


def _off_isometry_action(defect_in_eps, validate=True):
    """A real F2 action on R^3 whose generators have isometry defect
    defect_in_eps * eps_residual: each is a rotation scaled by (1 + t)."""
    rng = np.random.default_rng(5)
    rep = random_free_rep(f2_group(), 3, "real", rng)
    # ||((1 + t)^2 - 1) I||_F = defect for t below
    t = np.sqrt(1 + defect_in_eps * rep.tol.eps_residual / np.sqrt(3)) - 1
    scaled = Representation(f2_group(), "real", [(1 + t) * m for m in rep.matrices], validate=validate)
    return random_action(scaled, rng)


def test_direct_sum_accepts_summands_near_the_isometry_bound(tmp_path, capsys):
    # the sum's isometry defect is sqrt 2 * 1.6 eps, above the one-block bound
    # 2 eps; each summand is within its own bound
    action = _off_isometry_action(1.6)
    assert max(action.rep.isometry_defects) == pytest.approx(1.6 * action.tol.eps_residual, rel=1e-3)
    path = tmp_path / "near.json"
    save_problem(action_to_problem(action), path)
    code, doc = run_machine(["direct-sum", path, path], capsys)
    assert code in (0, 10) and doc["verdict"] != "error", doc.get("error")
    assert analyze_direct_sum(action, action).sum_action.dim == 6


def test_direct_sum_refuses_a_summand_beyond_the_isometry_bound(tmp_path, capsys):
    action = _off_isometry_action(3.0, validate=False)
    with pytest.raises(RepresentationError, match="not an isometry"):
        analyze_direct_sum(action, action)
    with pytest.raises(RepresentationError, match="not an isometry"):
        direct_sum(_off_isometry_action(0.5), action)
    path = tmp_path / "far.json"
    save_problem(action_to_problem(action), path)
    code, doc = run_machine(["direct-sum", path, path], capsys)
    assert code == 12 and "not an isometry" in doc["error"]


def _fixture_with_its_own_profile(tmp_path, name, section, generator, value):
    """A problem fixture, and a copy that declares residual 1e-6, with one
    generator's entry of ``section`` replaced by ``value``."""
    data = json.loads((FIXTURES / f"{name}.json").read_text())
    data[section][generator] = value
    data["tolerances"] = {"residual": 1e-6}
    path = tmp_path / f"{name}_loose.json"
    path.write_text(json.dumps(data))
    return FIXTURES / f"{name}.json", path


# equivalence takes the glide and a copy 1e-7 off isometry, which needs the
# declared residual to build. direct-sum refuses a reducible summand as
# invalid input, so it takes the irreducible dihedral and a copy with b(t)
# doubled: a (+) 2a is reducible. (A copy of it 1e-7 off isometry has no
# intertwiner from the fixture at the rank cut, and its sum is irreducible.)
LOOSE_COPIES = {
    "direct-sum": ("dihedral", "cocycle", "t", [[2.0, 0.0]]),
    "equivalence": ("glide", "matrices", "t", [1.0 + 1e-7, 0.0, 0.0, -1.0]),
}


@pytest.mark.parametrize("verb", ["direct-sum", "equivalence"])
@pytest.mark.parametrize("swap", [False, True])
def test_two_files_with_different_profiles_are_a_usage_error(verb, swap, tmp_path, capsys):
    # each file's profile is resolved with the flags applied; they must agree
    # whatever the argument order, and a --tol flag that makes them agree runs
    files = _fixture_with_its_own_profile(tmp_path, *LOOSE_COPIES[verb])
    files = files[::-1] if swap else files
    code, doc = run_machine([verb, *files], capsys)
    assert code == 11 and doc["verdict"] == "error"
    assert all(str(path) in doc["error"] for path in files) and "--tol" in doc["error"]
    code, doc = run_machine([verb, *files, "--tol-residual", "1e-6"], capsys)
    assert code == 10 and doc["verdict"] != "error", doc.get("error")
