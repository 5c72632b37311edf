"""File-driven command line interface.

Every verb reads JSON problem files, prints witnesses together with the
residuals the library certified them with, and emits either a human-readable
report (default, stdout) or a machine-readable result document
(``--machine``, stdout only, diagnostics on stderr). Exit codes are stable:

    0   affirmative verdict (pass / Irreducible / Equivalent / Quadratic / found)
    10  negative verdict (fail / Reducible / NotFound / ViolatedAt / ProbablyNo)
    11  usage errors (missing files, malformed JSON, bad flags)
    12  invalid inputs (schema, invariant, or precondition violations, and
        sizes such as --window or --budget too large to allocate)
    13  internal consistency failure (a certified result failed re-checking)

Each verb is one entry of ``VERBS``; the parser, ``--batch`` and the
dispatch are derived from that table, and the parser is built once per
process. The verbs only format library results: every residual they print
was computed by the library.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .actions import (
    InternalCheckError,
    affine_commutant,
    analyze_direct_sum,
    check_equivalence,
    decide_irreducibility,
    fixed_points,
)
from .constructions import (
    check_center_translations,
    check_translation_characterization,
    induce_action,
    orbit_hull_probe,
    quadratic_form_test,
    restrict_action,
)
from .problem_io import (
    FORMAT_VERSION,
    ProblemFileError,
    action_to_problem,
    affine_map_to_json,
    array_to_json,
    by_generator,
    load_induction_setup,
    load_problem,
    problem_to_dict,
    subspace_to_json,
)
from .reps import first_cohomology, search_irreducible_cocycle

EXIT_OK = 0
EXIT_NEGATIVE = 10
EXIT_USAGE = 11
EXIT_INPUT = 12
EXIT_INTERNAL = 13


def _seed(problem, args) -> int:
    if args.seed is not None:
        return args.seed
    return problem.seed if problem.seed is not None else 0


# ---------------------------------------------------------------------------
# formatters: each takes the parsed arguments, the first problem file and
# the verb's inputs (the built action of every problem file, then the
# induction setup; for verify, which must inspect invalid data, the file's
# validity report) and returns (affirmative, document, human_lines)


def _verify(args, problem, report):
    res = report.residuals
    lines = [f"verify: {'pass' if report.passed else 'FAIL'}"]
    lines += [f"  {name}: {'ok' if ok else 'FAILED'}" for name, ok in report.checks.items()]
    lines.append(f"  max isometry defect: {max(res['isometry_defects'], default=0.0):.3e}")
    lines.append(
        f"  max relator defect: rep {max(res['representation_relator_defects'], default=0.0):.3e}, "
        f"cocycle {max(res['cocycle_relator_defects'], default=0.0):.3e}"
    )
    doc = {"verdict": "pass" if report.passed else "fail", "checks": report.checks, "residuals": res}
    return report.passed, doc, lines


def _irreducible(args, problem, action):
    verdict = decide_irreducibility(action)
    doc = {"verdict": verdict.tag, "commutant_dimension": verdict.solved.dimension}
    lines = [f"irreducible: {verdict.tag}"]
    if verdict.reducible:
        doc["witness"] = {
            "commutant_map": affine_map_to_json(verdict.witness_map, action.field),
            "invariant_subspace": subspace_to_json(verdict.witness_subspace, action.field),
        }
        doc["residuals"] = dict(verdict.residuals)
        lines.append(
            f"  invariant subspace: base {np.round(verdict.witness_subspace.base, 6).tolist()}"
            f", dim {verdict.witness_subspace.dim}"
        )
    else:
        fixed = verdict.translation_directions
        doc["translation_directions"] = array_to_json(fixed, action.field)
        doc["fixed_space_dimension"] = int(fixed.shape[1])
        lines.append(f"  commutant = translations along a {fixed.shape[1]}-dimensional fixed space")
    return verdict.irreducible, doc, lines


def _commutant(args, problem, action):
    commutant = affine_commutant(action)
    basis = [
        {
            "deviation": array_to_json(pair.deviation, action.field),
            "translation": array_to_json(pair.translation, action.field),
            "deviation_norm": pair.deviation_norm,
        }
        for pair in commutant.pairs
    ]
    doc = {
        "verdict": "computed",
        "dimension": len(basis),
        "basis": basis,
        "residuals": dict(commutant.residuals),
    }
    lines = [f"commutant: dimension {len(basis)}"]
    lines += [f"  pair {i}: |U| = {p.deviation_norm:.6f}" for i, p in enumerate(commutant.pairs)]
    return True, doc, lines


def _fixed_points(args, problem, action):
    result = fixed_points(action)
    subspace = result.subspace
    if subspace is None:
        return False, {"verdict": "Empty"}, ["fixed-points: Empty"]
    doc = {
        "verdict": "FixedPoints",
        "subspace": subspace_to_json(subspace, action.field),
        "residuals": dict(result.residuals),
    }
    lines = [
        "fixed-points: nonempty",
        f"  base {np.round(subspace.base, 6).tolist()}, dimension {subspace.dim}",
    ]
    return True, doc, lines


def _cohomology(args, problem, action):
    basis = first_cohomology(action.rep)
    nz, nb, nh = basis.dims
    doc = {
        "verdict": {"cocycles": nz, "coboundaries": nb, "classes": nh},
        "class_representatives": [
            by_generator(action.presentation, cocycle.values, action.field)
            for cocycle in basis.class_representatives
        ],
        "residuals": dict(basis.residuals),
    }
    return True, doc, [f"cohomology: dim Z1 = {nz}, dim B1 = {nb}, dim H1 = {nh}"]


def _exists_irreducible(args, problem, action):
    # the search returns only witnesses whose action decide_irreducibility
    # found Irreducible
    result = search_irreducible_cocycle(action.rep, trials=args.trials, seed=_seed(problem, args))
    if result.found:
        doc = {
            "verdict": "Yes",
            "witness_cocycle": by_generator(action.presentation, result.witness.values, action.field),
            "trials_used": result.trials_used,
        }
        return True, doc, [f"exists-irreducible: Yes (trial {result.trials_used})"]
    doc = {"verdict": "ProbablyNo", "trials_used": result.trials_used, "probabilistic": True}
    return False, doc, [
        f"exists-irreducible: ProbablyNo after {result.trials_used} trials (probabilistic)"
    ]


def _direct_sum(args, problem, a1, a2):
    analysis = analyze_direct_sum(a1, a2)
    if analysis.irreducible:
        return True, {"verdict": "IrreducibleSum"}, ["direct-sum: IrreducibleSum"]
    proj = analysis.projections
    doc = {
        "verdict": "EquivalentProjections",
        "witness": {
            "v1_basis": array_to_json(proj.v1_basis, a1.field),
            "v2_basis": array_to_json(proj.v2_basis, a2.field),
            "v_dim": int(proj.v1_basis.shape[1]),
            "intertwiner": affine_map_to_json(proj.intertwiner, a1.field),
            "ambient_intertwiner": affine_map_to_json(proj.ambient_map(), a1.field),
        },
        "residuals": dict(proj.residuals),
    }
    lines = [
        "direct-sum: Reducible (equivalent projected actions)",
        f"  projected dimension {proj.v1_basis.shape[1]}, "
        f"intertwining defect {proj.residuals['intertwining']:.3e}",
    ]
    return False, doc, lines


def _equivalence(args, problem, a1, a2):
    result = check_equivalence(a1, a2, trials=args.trials, seed=_seed(problem, args))
    if result.equivalent:
        doc = {
            "verdict": "Equivalent",
            "intertwiner": affine_map_to_json(result.intertwiner, a1.field),
            "residuals": dict(result.residuals),
        }
        return True, doc, ["equivalence: Equivalent"]
    doc = {"verdict": "NotFound", "probabilistic": result.probabilistic}
    note = " (probabilistic)" if result.probabilistic else " (system unsolvable)"
    return False, doc, [f"equivalence: NotFound{note}"]


def _restrict(args, problem, action):
    if problem.subgroup is None:
        raise ValueError("restrict requires a 'subgroup' section in the problem file")
    restricted = restrict_action(action, problem.subgroup)
    verdict = decide_irreducibility(restricted)
    doc = {
        "verdict": verdict.tag,
        "restricted_action": problem_to_dict(action_to_problem(restricted)),
    }
    lines = [f"restrict: verdict {verdict.tag} on {restricted.dim}-dimensional restricted action"]
    return verdict.irreducible, doc, lines


def _induce(args, problem, action, setup):
    induced = induce_action(action, setup)
    verdict = decide_irreducibility(induced)
    doc = {
        "verdict": verdict.tag,
        "induced_action": problem_to_dict(action_to_problem(induced)),
        "cosets": setup.table.num_cosets,
    }
    if verdict.reducible:
        doc["witness"] = {
            "invariant_subspace": subspace_to_json(verdict.witness_subspace, induced.field)
        }
    lines = [
        f"induce: {setup.table.num_cosets} cosets, induced dimension {induced.dim}",
        f"  verdict {verdict.tag}",
    ]
    return verdict.irreducible, doc, lines


def _property_report(verb: str, report, note: str = ""):
    """The document and lines of a ``PropertyReport``: one entry per check."""
    doc = {
        "verdict": "pass" if report.passed else "fail",
        "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail} for c in report.checks],
    }
    lines = [f"{verb}: {'pass' if report.passed else 'FAIL'}{note}"]
    lines += [f"  {c.name}: {'ok' if c.passed else 'FAILED ' + c.detail}" for c in report.checks]
    return report.passed, doc, lines


def _center_check(args, problem, action):
    report = check_center_translations(action, problem.central_words)
    return _property_report("center-check", report, f" ({len(problem.central_words)} central words)")


def _nilpotent_check(args, problem, action):
    report = check_translation_characterization(action)
    return _property_report("nilpotent-check", report)


def _abelian_test(args, problem, action):
    result = quadratic_form_test(action, window=args.window)
    verdict = decide_irreducibility(action)
    agree = result.quadratic == verdict.irreducible
    doc = {
        "verdict": result.tag,
        "violation": list(map(list, result.violation)) if result.violation else None,
        "window": result.window,
        "irreducibility": verdict.tag,
        "verdicts_agree": agree,
        "max_parallelogram_defect": result.max_defect,
    }
    lines = [f"abelian-test: {result.tag}" + (f" at {result.violation}" if result.violation else "")]
    lines.append(f"  irreducibility verdict: {verdict.tag} (agreement: {agree})")
    return result.quadratic, doc, lines


def _orbit_probe(args, problem, action):
    report = orbit_hull_probe(
        action, np.zeros(action.dim), budget=args.budget, radius=args.radius, seed=_seed(problem, args)
    )
    doc = {
        "verdict": "evidence",
        "orbit_size": report.orbit_size,
        "probes": [{"point": list(p.point), "hull_distance": p.hull_distance} for p in report.probes],
        "max_hull_distance": report.max_distance,
        "probabilistic": True,
    }
    lines = [
        f"orbit-probe: {report.orbit_size} orbit points, {len(report.probes)} probes "
        f"in radius {args.radius} (Monte-Carlo evidence only)",
        f"  max hull distance {report.max_distance:.4f}, "
        f"mean {report.mean_distance:.4f}",
    ]
    return True, doc, lines


# ---------------------------------------------------------------------------
# the verb table


@dataclass(frozen=True)
class Verb:
    """One verb: its formatter, its input files and its extra flags.

    ``files`` is 1 (one problem file, or ``--batch`` over a directory), 2
    (two problem files) or "setup" (a problem file and an induction setup
    file). ``flags`` name entries of ``FLAGS``. ``builds`` is False only for
    ``verify``, which reports on data that may not build an action: it gets
    the file's ``ValidityReport`` instead.
    """

    run: Callable
    files: int | str = 1
    flags: tuple[str, ...] = ()
    builds: bool = True


VERBS = {
    "verify": Verb(_verify, builds=False),
    "irreducible": Verb(_irreducible),
    "commutant": Verb(_commutant),
    "fixed-points": Verb(_fixed_points),
    "cohomology": Verb(_cohomology),
    "exists-irreducible": Verb(_exists_irreducible, flags=("trials", "seed")),
    "direct-sum": Verb(_direct_sum, files=2),
    "equivalence": Verb(_equivalence, files=2, flags=("trials", "seed")),
    "restrict": Verb(_restrict),
    "induce": Verb(_induce, files="setup"),
    "center-check": Verb(_center_check),
    "abelian-test": Verb(_abelian_test, flags=("window",)),
    "nilpotent-check": Verb(_nilpotent_check),
    "orbit-probe": Verb(_orbit_probe, flags=("seed", "budget", "radius")),
}

FLAGS = {
    "batch": {"default": None, "help": "process every *.json file in a directory"},
    "tol-rank": {"type": float, "default": None, "help": "relative singular-value cutoff"},
    "tol-residual": {"type": float, "default": None, "help": "residual bound for identity checks"},
    "tol-eig": {"type": float, "default": None, "help": "eigenvalue clustering width"},
    "machine": {"action": "store_true", "help": "emit only the JSON result document"},
    "trials": {"type": int, "default": 20},
    "seed": {"type": int, "default": None},
    "window": {"type": int, "default": 3},
    "budget": {"type": int, "default": 200},
    "radius": {"type": float, "default": 5.0},
}
_COMMON_FLAGS = ("tol-rank", "tol-residual", "tol-eig", "machine")

_POSITIONALS = {
    1: [("file", "problem file")],
    2: [("file", "first problem file"), ("file2", "second problem file")],
    "setup": [
        ("file", "problem file with the subgroup action"),
        ("setup", "induction setup file (ambient, subgroup, coset table)"),
    ],
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser derived from the verb table, built on first use and then
    shared by every call in the process; callers must not mutate it."""
    parser = argparse.ArgumentParser(
        prog="affine-actions",
        description="Irreducibility and structure of affine isometric actions of finitely presented groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, verb in VERBS.items():
        p = sub.add_parser(name)
        for dest, help_text in _POSITIONALS[verb.files]:
            p.add_argument(dest, nargs="?" if verb.files == 1 else None, help=help_text)
        batch = ("batch",) if verb.files == 1 else ()
        for flag in batch + _COMMON_FLAGS + verb.flags:
            p.add_argument(f"--{flag}", **FLAGS[flag])
    return parser


def _dispatch(args):
    """Load the problem file(s), resolve the tolerance (each file's profile
    with the flags applied; two files must agree), build the actions, run the verb."""
    verb = VERBS[args.command]
    problems = [load_problem(args.file)] + ([load_problem(args.file2)] if verb.files == 2 else [])
    tol, *others = [p.tolerance(args.tol_rank, args.tol_residual, args.tol_eig) for p in problems]
    if any(other != tol for other in others):
        raise ProblemFileError(
            f"{args.file} and {args.file2} resolve to different tolerance profiles; "
            "choose one with --tol-rank, --tol-residual and --tol-eig"
        )
    inputs = [p.build_action(tol) for p in problems] if verb.builds else [problems[0].validate(tol)[0]]
    if verb.files == "setup":
        inputs.append(load_induction_setup(args.setup))
    return verb.run(args, problems[0], *inputs)


def _run_one(args) -> tuple[int, dict, list[str]]:
    """Exit code, result document and human lines of one call."""
    start = time.perf_counter()
    lines = []
    try:
        affirmative, payload, lines = _dispatch(args)
        code = EXIT_OK if affirmative else EXIT_NEGATIVE
        payload.setdefault("probabilistic", False)
    except (ProblemFileError, OSError) as exc:
        code, payload = EXIT_USAGE, {"error": str(exc), "verdict": "error"}
    except ValueError as exc:
        code, payload = EXIT_INPUT, {"error": str(exc), "verdict": "error"}
    except MemoryError as exc:
        # a size flag asked for more than the host can allocate
        error = f"{args.command}: out of memory" + (f" ({exc})" if str(exc) else "")
        code, payload = EXIT_INPUT, {"error": error, "verdict": "error"}
    except InternalCheckError as exc:
        code, payload = EXIT_INTERNAL, {"error": str(exc), "verdict": "error"}
    skip = {"command", "machine"}
    doc = {
        "format_version": FORMAT_VERSION,
        "command": args.command,
        "arguments": {k: v for k, v in vars(args).items() if k not in skip and v is not None},
        "wall_time_s": time.perf_counter() - start,
        "exit_code": code,
    }
    doc.update(payload)
    return code, doc, lines


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors
        return EXIT_OK if exc.code == 0 else EXIT_USAGE

    batch = getattr(args, "batch", None)
    files = [args.file] if batch is None else [str(p) for p in sorted(Path(batch).glob("*.json"))]
    error = None
    if batch is not None and args.file is not None:
        error = "--batch replaces the positional file argument"
    elif not files:
        error = f"no .json files in {batch}"
    elif files == [None]:
        error = "a problem file is required"
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE

    worst = EXIT_OK
    try:
        for path in files:
            args.file = path
            code, doc, lines = _run_one(args)
            worst = max(worst, code)
            if batch is not None:
                doc["file"] = path
            if args.machine:
                print(json.dumps(doc))
                continue
            if batch is not None:
                print(f"== {path}")
            if "error" in doc:
                print(f"error: {doc['error']}")
            for line in lines:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (``| head``): stop, and point stdout at
        # devnull so the interpreter's final flush does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return worst


if __name__ == "__main__":
    sys.exit(main())
