"""The CLI contract: exit codes and ``--machine`` documents stay as recorded.

``cli_contract.json`` holds, for every call below, the exit code, the
``--machine`` document (without ``wall_time_s`` and the ``arguments`` echo)
and the first line of the human output, as recorded before the CLI became
one verb table. Each call must keep its exit code, its key paths, its
non-float leaves (the verdict among them) and its first human line, with
floats equal within ``1e-9 (1 + |x|)``. The deliberate differences are
listed in ``REFUSED`` and ``ADDED_KEYS``.

Calls run from the repository root with relative fixture paths, so the
documents hold no machine-specific paths. To re-record (only when the
contract changes on purpose):

    PYTHONPATH=src python tests/test_cli_contract.py --record

Re-recording rewrites only the entries whose call no longer passes the
comparison above; the ``REFUSED`` calls and every passing call keep their
recorded entry.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
from pathlib import Path

import pytest

from affine_actions import (
    AffineMap,
    AffineSubspace,
    CommutantPair,
    check_invariance,
    commutant_residual,
    induce_action,
    intertwining_residual,
    project_action,
)
from affine_actions.actions import certification_scale
from affine_actions.cli import main
from affine_actions.linalg import residual_ok
from affine_actions.problem_io import array_from_json, load_induction_setup, load_problem

ROOT = Path(__file__).resolve().parent.parent
SNAPSHOT = Path(__file__).resolve().parent / "cli_contract.json"

ONE_FILE_VERBS = (
    "verify", "irreducible", "commutant", "fixed-points", "cohomology", "exists-irreducible",
    "restrict", "center-check", "abelian-test", "nilpotent-check", "orbit-probe",
)
PROBLEMS = sorted(
    f"fixtures/{p.name}" for p in (ROOT / "fixtures").glob("*.json") if p.name != "c2xz_setup.json"
)
CALLS = (
    [[verb, path] for verb in ONE_FILE_VERBS for path in PROBLEMS]
    + [[verb, path, path] for verb in ("direct-sum", "equivalence") for path in PROBLEMS]
    + [
        ["direct-sum", "fixtures/f2_character.json", "fixtures/f2_irred2d_b1.json"],
        # refused as invalid input (exit 12): the first summand is reducible,
        # so the direct-sum criterion does not apply
        ["direct-sum", "fixtures/f2_trivial.json", "fixtures/f2_character.json"],
        ["equivalence", "fixtures/z_translation.json", "fixtures/z_even_translation.json"],
        ["equivalence", "fixtures/z_translation.json", "fixtures/z_flip.json"],
        ["equivalence", "fixtures/z_translation.json", "fixtures/z_even_translation.json", "--trials", "0"],
        ["equivalence", "fixtures/z_translation.json", "fixtures/z_even_translation.json", "--trials", "-3"],
        ["induce", "fixtures/z_translation.json", "fixtures/c2xz_setup.json"],
        ["orbit-probe", "fixtures/glide.json", "--budget", "60", "--radius", "4.0", "--seed", "2"],
        ["orbit-probe", "fixtures/glide.json", "--radius", "-1"],
        ["orbit-probe", "fixtures/glide.json", "--radius", "0"],
        ["orbit-probe", "fixtures/glide.json", "--radius", "nan"],
        ["abelian-test", "fixtures/z2_translations.json", "--window", "1"],
        ["exists-irreducible", "fixtures/z_trivial_c1.json", "--trials", "0"],
        ["irreducible", "fixtures/glide.json", "--tol-residual", "1e-6"],
        ["irreducible", "fixtures/glide.json", "--tol-rank", "0.5"],
        ["irreducible", "fixtures/no_such_problem.json"],
    ]
)

# calls the recorded CLI accepted and that are now refused as invalid input
# (exit 12): a radius that is not finite and positive leaves the orbit probe
# without probes, and a negative trial count drew no samples
REFUSED = {
    "orbit-probe fixtures/glide.json --radius -1",
    "orbit-probe fixtures/glide.json --radius 0",
    "orbit-probe fixtures/glide.json --radius nan",
    "equivalence fixtures/z_translation.json fixtures/z_even_translation.json --trials -3",
}
# keys a verb's documents gained: every result document now says whether it
# is probabilistic
ADDED_KEYS = {"verify": {"probabilistic": False}}


# calls re-recorded when the commutant solve moved to the Gram matrix of a
# generic Hermitian element, and again (all but "commutant glide", plus the
# dihedral and z2_translations doubles and the c2_flip equivalence) when it
# was split into the commutant of pi, the boundary map and a per-cocycle
# annihilator, and the equivalence search into a Hom basis and a small
# explicit system, and the doubles but the dihedral one once more when a
# direct sum's commutant came to be assembled from its summands' blocks: a
# null-space basis is not unique (the c2_flip intertwiner is a sample along
# one with the opposite sign), so only float leaves under "witness", "basis"
# or "intertwiner" changed. Every double was re-recorded once more when its
# equivalent projections came to be read off one row block of the commutant
# instead of a search over U*U eigenspaces: the bases are now the identity
# (some had the opposite sign) and the ambient intertwiner the identity to
# roundoff, so only float leaves under "witness" and "residuals" changed.
# The last three were re-recorded when a plain action's invariant subspace
# came to be read off one SVD of U instead of an eigensolve of U*U and a
# null space of its top eigenspace: the subspace is the same, and only the
# sign of its direction vector changed. The self-equivalences after it (and
# c2_flip once more) were re-recorded when the equivalence search came to
# solve T b1 - b2 in range(pi2 - I) on the cached boundary split: its
# particular solution is now the minimum-norm one in the Hom coefficients and
# the image coordinates, not in the coefficients and the rotated translation,
# so only float leaves under "intertwiner" changed (and "residuals" within
# roundoff)
RERECORDED = (
    ["irreducible", "fixtures/c3_rotation.json"],
    ["commutant", "fixtures/c3_rotation.json"],
    ["commutant", "fixtures/glide.json"],
    *(["direct-sum", path, path] for path in PROBLEMS),
    ["equivalence", "fixtures/c2_flip.json", "fixtures/c2_flip.json"],
    ["irreducible", "fixtures/glide.json"],
    ["irreducible", "fixtures/glide.json", "--tol-residual", "1e-6"],
    ["induce", "fixtures/z_translation.json", "fixtures/c2xz_setup.json"],
    *(
        ["equivalence", f"fixtures/{name}.json", f"fixtures/{name}.json"]
        for name in ("c3_rotation", "f2_trivial", "glide", "z_flip", "z_trivial_c1", "z_trivial_c2")
    ),
)


def run(argv: list[str]) -> tuple[int, dict, str]:
    """Exit code, machine document and first human line of one call."""
    docs = []
    for machine in (True, False):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv + (["--machine"] if machine else []))
        docs.append(out.getvalue())
    doc = json.loads(docs[0])
    doc.pop("wall_time_s")
    doc.pop("arguments")
    return code, doc, (docs[1].splitlines() or [""])[0]


def leaves(node, path=()):
    """{key path: leaf} of a JSON document; list indices are path entries."""
    if isinstance(node, dict):
        return {p: v for k, child in node.items() for p, v in leaves(child, path + (k,)).items()}
    if isinstance(node, list):
        return {p: v for i, child in enumerate(node) for p, v in leaves(child, path + (i,)).items()}
    return {path: node}


def same_leaf(old, new) -> bool:
    if isinstance(old, float) and isinstance(new, float):
        if math.isnan(old) or math.isnan(new):
            return math.isnan(old) and math.isnan(new)
        return abs(old - new) <= 1e-9 * (1.0 + abs(old))
    return type(old) is type(new) and old == new


def _recorded():
    return {" ".join(entry["argv"]): entry for entry in json.loads(SNAPSHOT.read_text())}


def mismatch(argv: list[str], entry: dict, result: tuple[int, dict, str]) -> str | None:
    """Why a call's result breaks its recorded entry, or None if it keeps the
    exit code, the key paths, every leaf and the first human line."""
    code, doc, first_line = result
    if code != entry["exit_code"]:
        return f"exit code {code}, recorded {entry['exit_code']}"
    old = leaves(dict(entry["doc"], **ADDED_KEYS.get(argv[0], {})))
    new = leaves(doc)
    if sorted(map(str, new)) != sorted(map(str, old)):
        return f"key paths differ: {sorted(map(str, set(new) ^ set(old)))}"
    bad = {p: (old[p], new[p]) for p in old if not same_leaf(old[p], new[p])}
    if bad:
        return f"leaves differ: {bad}"
    if first_line != entry["first_line"]:
        return f"first line {first_line!r}, recorded {entry['first_line']!r}"
    return None


@pytest.mark.parametrize("argv", CALLS, ids=" ".join)
def test_cli_contract(argv, monkeypatch):
    monkeypatch.chdir(ROOT)
    key = " ".join(argv)
    entry = _recorded()[key]
    result = run(argv)
    if key in REFUSED:
        code, doc, _ = result
        assert entry["exit_code"] == 0
        assert code == 12 and doc["exit_code"] == 12 and doc["verdict"] == "error"
        return
    assert mismatch(argv, entry, result) is None


@pytest.mark.parametrize("argv", RERECORDED, ids=" ".join)
def test_rerecorded_witnesses_reverify(argv, monkeypatch):
    """The recorded witness of each re-recorded call satisfies its defining
    equations under the certification bound ``eps_residual (1 + scale)``."""
    monkeypatch.chdir(ROOT)
    doc = _recorded()[" ".join(argv)]["doc"]
    action = load_problem(argv[1]).build_action()
    if argv[0] == "induce":
        action = induce_action(action, load_induction_setup(argv[2]))
    field, d, tol = action.field, action.dim, action.tol

    def array(data, shape):
        return array_from_json(data, field, tuple(shape), "recorded")

    def certified(residual, parts, *actions):
        return residual_ok(residual, certification_scale(parts, *actions), tol.eps_residual)

    if argv[0] == "commutant":
        assert doc["basis"]
        for element in doc["basis"]:
            pair = CommutantPair(array(element["deviation"], (d, d)), array(element["translation"], (d,)))
            assert certified(commutant_residual(action, pair), (pair.deviation, pair.translation), action)
    elif argv[0] in ("irreducible", "induce"):
        if argv[0] == "irreducible":
            recorded = doc["witness"]["commutant_map"]
            witness = AffineMap(array(recorded["linear"], recorded["shape"]), array(recorded["translation"], (d,)))
            assert certified(commutant_residual(action, witness), (witness.deviation, witness.translation), action)
        recorded = doc["witness"]["invariant_subspace"]
        subspace = AffineSubspace(array(recorded["base"], (d,)), array(recorded["directions"], (d, recorded["dim"])))
        assert certified(check_invariance(action, subspace), (subspace.base,), action)
    elif argv[0] == "equivalence":
        other = load_problem(argv[2]).build_action()
        recorded = doc["intertwiner"]
        mapping = AffineMap(array(recorded["linear"], recorded["shape"]), array(recorded["translation"], (other.dim,)))
        assert certified(intertwining_residual(action, other, mapping), (mapping.linear, mapping.translation), action, other)
    else:
        other = load_problem(argv[2]).build_action()
        witness, k = doc["witness"], doc["witness"]["v_dim"]
        p1 = project_action(action, array(witness["v1_basis"], (action.dim, k)))
        p2 = project_action(other, array(witness["v2_basis"], (other.dim, k)))
        recorded = witness["intertwiner"]
        mapping = AffineMap(array(recorded["linear"], recorded["shape"]), array(recorded["translation"], (k,)))
        assert certified(intertwining_residual(p1, p2, mapping), (mapping.linear, mapping.translation), action, other)


def test_snapshot_covers_every_call():
    assert sorted(_recorded()) == sorted(" ".join(argv) for argv in CALLS)


def merged_snapshot(recorded: dict[str, dict]) -> list[dict]:
    """The snapshot after re-recording: a call in ``REFUSED`` or one whose
    result still passes ``mismatch`` keeps its recorded entry; the others
    (and calls not yet recorded) take their new result."""
    entries = []
    for argv in CALLS:
        key = " ".join(argv)
        entry = recorded.get(key)
        if entry is None or key not in REFUSED:
            result = run(argv)
            if entry is None or mismatch(argv, entry, result) is not None:
                code, doc, first_line = result
                entry = {"argv": argv, "exit_code": code, "doc": doc, "first_line": first_line}
        entries.append(entry)
    return entries


def dump(entries: list[dict]) -> str:
    return "[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n"


def test_rerecording_keeps_the_snapshot(monkeypatch):
    monkeypatch.chdir(ROOT)
    assert dump(merged_snapshot(_recorded())) == SNAPSHOT.read_text()


def record() -> None:
    os.chdir(ROOT)
    SNAPSHOT.write_text(dump(merged_snapshot(_recorded())))


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    record()
