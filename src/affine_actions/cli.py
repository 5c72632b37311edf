"""File-driven command line interface.

Every verb reads JSON problem files, prints witnesses together with the
residuals the library certified them with, and emits either a human-readable
report (default, stdout) or a machine-readable result document
(``--machine``, stdout only, diagnostics on stderr). Exit codes are stable:

    0   affirmative verdict (pass / Irreducible / Equivalent / Quadratic / found)
    10  negative verdict (fail / Reducible / NotFound / ViolatedAt / ProbablyNo)
    11  usage errors (missing files, malformed JSON, bad flags)
    12  invalid inputs (schema, invariant, or precondition violations)
    13  internal consistency failure (a certified result failed re-checking)
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from .actions import (
    InternalCheckError,
    affine_commutant,
    analyze_direct_sum,
    certification_scale,
    certify,
    check_equivalence,
    check_invariance,
    commutant_residual,
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
from .linalg import ToleranceProfile, residual_ok
from .problem_io import (
    FORMAT_VERSION,
    ProblemFile,
    ProblemFileError,
    action_to_problem,
    affine_map_to_json,
    array_to_json,
    load_induction_setup,
    load_problem,
    problem_to_dict,
    subspace_to_json,
)
from .reps import Cocycle, Representation, first_cohomology, search_irreducible_cocycle

EXIT_OK = 0
EXIT_NEGATIVE = 10
EXIT_USAGE = 11
EXIT_INPUT = 12
EXIT_INTERNAL = 13


class CliInputError(Exception):
    pass


def _resolve_tol(problem: ProblemFile, args) -> ToleranceProfile:
    base = problem.tolerances or ToleranceProfile()
    try:
        return ToleranceProfile(
            eps_rank=args.tol_rank if args.tol_rank is not None else base.eps_rank,
            eps_residual=args.tol_residual if args.tol_residual is not None else base.eps_residual,
            eps_eig=args.tol_eig if args.tol_eig is not None else base.eps_eig,
        )
    except ValueError as exc:
        raise CliInputError(str(exc)) from exc


def _resolve_seed(problem: ProblemFile, args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    return problem.seed if problem.seed is not None else 0


# ---------------------------------------------------------------------------
# verb handlers: each takes the parsed arguments, the first problem file, the
# resolved tolerance and the built action of every problem file (none for
# verify, which must inspect invalid actions), and returns
# (exit_code, document, human_lines)


def _cmd_verify(args, problem, tol):
    rep = Representation(
        problem.presentation, problem.field, problem.matrices, dim=problem.dim, tol=tol, validate=False
    )
    cocycle = Cocycle(rep, problem.cocycle_values, tol, validate=False)
    iso = rep.isometry_defects()
    rep_rel = [rep.relator_residual(r) for r in problem.presentation.relators]
    coc_rel = cocycle.relator_residuals()
    scale = max((float(np.linalg.norm(v)) for v in cocycle.values), default=0.0)
    checks = {
        "isometry": all(residual_ok(d, 1.0, tol.eps_residual) for d in iso),
        "representation_relators": all(
            residual_ok(d, np.sqrt(problem.dim), tol.eps_residual) for d in rep_rel
        ),
        "cocycle_relators": all(residual_ok(d, scale, tol.eps_residual) for d in coc_rel),
    }
    passed = all(checks.values())
    doc = {
        "verdict": "pass" if passed else "fail",
        "checks": checks,
        "residuals": {
            "isometry_defects": iso,
            "representation_relator_defects": rep_rel,
            "cocycle_relator_defects": coc_rel,
        },
    }
    lines = [f"verify: {'pass' if passed else 'FAIL'}"]
    for name, ok in checks.items():
        lines.append(f"  {name}: {'ok' if ok else 'FAILED'}")
    lines.append(f"  max isometry defect: {max(iso, default=0.0):.3e}")
    lines.append(f"  max relator defect: rep {max(rep_rel, default=0.0):.3e}, cocycle {max(coc_rel, default=0.0):.3e}")
    return (EXIT_OK if passed else EXIT_NEGATIVE), doc, lines


def _cmd_irreducible(args, problem, tol, action):
    verdict = decide_irreducibility(action, tol)
    doc = {"verdict": verdict.tag, "commutant_dimension": len(verdict.commutant)}
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
    doc["probabilistic"] = False
    return (EXIT_NEGATIVE if verdict.reducible else EXIT_OK), doc, lines


def _cmd_commutant(args, problem, tol, action):
    pairs = affine_commutant(action, tol)
    worst = 0.0
    serialized = []
    for pair in pairs:
        scale = certification_scale((pair.deviation, pair.translation), action)
        worst = max(worst, certify(commutant_residual(action, pair), scale, tol, "commutant basis element"))
        serialized.append(
            {
                "deviation": array_to_json(pair.deviation, action.field),
                "translation": array_to_json(pair.translation, action.field),
                "deviation_norm": pair.deviation_norm,
            }
        )
    doc = {
        "verdict": "computed",
        "dimension": len(pairs),
        "basis": serialized,
        "residuals": {"worst_equation_defect": worst},
        "probabilistic": False,
    }
    lines = [f"commutant: dimension {len(pairs)}"]
    lines.extend(
        f"  pair {i}: |U| = {p.deviation_norm:.6f}" for i, p in enumerate(pairs)
    )
    return EXIT_OK, doc, lines


def _cmd_fixed_points(args, problem, tol, action):
    subspace = fixed_points(action, tol)
    if subspace is None:
        return EXIT_NEGATIVE, {"verdict": "Empty", "probabilistic": False}, ["fixed-points: Empty"]
    scale = certification_scale((subspace.base,), action)
    defect = certify(check_invariance(action, subspace, tol), scale, tol, "fixed-point subspace")
    doc = {
        "verdict": "FixedPoints",
        "subspace": subspace_to_json(subspace, action.field),
        "residuals": {"invariance": defect},
        "probabilistic": False,
    }
    lines = [
        "fixed-points: nonempty",
        f"  base {np.round(subspace.base, 6).tolist()}, dimension {subspace.dim}",
    ]
    return EXIT_OK, doc, lines


def _cmd_cohomology(args, problem, tol, action):
    basis = first_cohomology(action.rep, tol)
    nz, nb, nh = basis.dims
    worst = max(
        (max(c.relator_residuals(), default=0.0) for c in basis.cocycle_basis), default=0.0
    )
    doc = {
        "verdict": {"cocycles": nz, "coboundaries": nb, "classes": nh},
        "class_representatives": [
            {
                name: array_to_json(v, action.field)
                for name, v in zip(problem.presentation.generators, cocycle.values)
            }
            for cocycle in basis.class_representatives
        ],
        "residuals": {"worst_cocycle_relator_defect": worst},
        "probabilistic": False,
    }
    lines = [f"cohomology: dim Z1 = {nz}, dim B1 = {nb}, dim H1 = {nh}"]
    return EXIT_OK, doc, lines


def _cmd_exists_irreducible(args, problem, tol, action):
    # the search returns only witnesses whose action decide_irreducibility
    # found Irreducible
    result = search_irreducible_cocycle(
        action.rep, trials=args.trials, seed=_resolve_seed(problem, args), tol=tol
    )
    if result.found:
        doc = {
            "verdict": "Yes",
            "witness_cocycle": {
                name: array_to_json(v, action.field)
                for name, v in zip(problem.presentation.generators, result.witness.values)
            },
            "trials_used": result.trials_used,
            "probabilistic": False,
        }
        lines = [f"exists-irreducible: Yes (trial {result.trials_used})"]
        return EXIT_OK, doc, lines
    doc = {"verdict": "ProbablyNo", "trials_used": result.trials_used, "probabilistic": True}
    return EXIT_NEGATIVE, doc, [
        f"exists-irreducible: ProbablyNo after {result.trials_used} trials (probabilistic)"
    ]


def _cmd_direct_sum(args, problem, tol, a1, a2):
    analysis = analyze_direct_sum(a1, a2, tol, seed=_resolve_seed(problem, args))
    if analysis.irreducible:
        doc = {"verdict": "IrreducibleSum", "probabilistic": False}
        return EXIT_OK, doc, ["direct-sum: IrreducibleSum"]
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
        "probabilistic": False,
    }
    lines = [
        "direct-sum: Reducible (equivalent projected actions)",
        f"  projected dimension {proj.v1_basis.shape[1]}, "
        f"intertwining defect {proj.residuals['intertwining']:.3e}",
    ]
    return EXIT_NEGATIVE, doc, lines


def _cmd_equivalence(args, problem, tol, a1, a2):
    result = check_equivalence(a1, a2, trials=args.trials, seed=_resolve_seed(problem, args), tol=tol)
    if result.equivalent:
        doc = {
            "verdict": "Equivalent",
            "intertwiner": affine_map_to_json(result.intertwiner, a1.field),
            "residuals": dict(result.residuals),
            "probabilistic": False,
        }
        return EXIT_OK, doc, ["equivalence: Equivalent"]
    doc = {"verdict": "NotFound", "probabilistic": result.probabilistic}
    note = " (probabilistic)" if result.probabilistic else " (system unsolvable)"
    return EXIT_NEGATIVE, doc, [f"equivalence: NotFound{note}"]


def _cmd_restrict(args, problem, tol, action):
    if problem.subgroup is None:
        raise CliInputError("restrict requires a 'subgroup' section in the problem file")
    restricted = restrict_action(action, problem.subgroup)
    verdict = decide_irreducibility(restricted, tol)
    doc = {
        "verdict": verdict.tag,
        "restricted_action": problem_to_dict(action_to_problem(restricted)),
        "probabilistic": False,
    }
    lines = [f"restrict: verdict {verdict.tag} on {restricted.dim}-dimensional restricted action"]
    return (EXIT_NEGATIVE if verdict.reducible else EXIT_OK), doc, lines


def _cmd_induce(args, problem, tol, action):
    setup = load_induction_setup(args.setup)
    induced = induce_action(action, setup, tol)
    verdict = decide_irreducibility(induced, tol)
    doc = {
        "verdict": verdict.tag,
        "induced_action": problem_to_dict(action_to_problem(induced)),
        "cosets": setup.table.num_cosets,
        "probabilistic": False,
    }
    if verdict.reducible:
        doc["witness"] = {
            "invariant_subspace": subspace_to_json(verdict.witness_subspace, induced.field)
        }
    lines = [
        f"induce: {setup.table.num_cosets} cosets, induced dimension {induced.dim}",
        f"  verdict {verdict.tag}",
    ]
    return (EXIT_NEGATIVE if verdict.reducible else EXIT_OK), doc, lines


def _cmd_center_check(args, problem, tol, action):
    report = check_center_translations(action, problem.central_words, tol)
    doc = {
        "verdict": "pass" if report.passed else "fail",
        "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail} for c in report.checks
        ],
        "probabilistic": False,
    }
    lines = [f"center-check: {'pass' if report.passed else 'FAIL'} ({len(problem.central_words)} central words)"]
    lines.extend(f"  {c.name}: {'ok' if c.passed else 'FAILED ' + c.detail}" for c in report.checks)
    return (EXIT_OK if report.passed else EXIT_NEGATIVE), doc, lines


def _cmd_abelian_test(args, problem, tol, action):
    result = quadratic_form_test(action, window=args.window, tol=tol)
    verdict = decide_irreducibility(action, tol)
    agree = result.quadratic == verdict.irreducible
    doc = {
        "verdict": result.tag,
        "violation": list(map(list, result.violation)) if result.violation else None,
        "window": result.window,
        "irreducibility": verdict.tag,
        "verdicts_agree": agree,
        "max_parallelogram_defect": result.max_defect,
        "probabilistic": False,
    }
    lines = [f"abelian-test: {result.tag}" + (f" at {result.violation}" if result.violation else "")]
    lines.append(f"  irreducibility verdict: {verdict.tag} (agreement: {agree})")
    return (EXIT_OK if result.quadratic else EXIT_NEGATIVE), doc, lines


def _cmd_nilpotent_check(args, problem, tol, action):
    report = check_translation_characterization(action, "nilpotent", tol)
    doc = {
        "verdict": "pass" if report.passed else "fail",
        "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail} for c in report.checks
        ],
        "probabilistic": False,
    }
    lines = [f"nilpotent-check: {'pass' if report.passed else 'FAIL'}"]
    lines.extend(f"  {c.name}: {'ok' if c.passed else 'FAILED'}" for c in report.checks)
    return (EXIT_OK if report.passed else EXIT_NEGATIVE), doc, lines


def _cmd_orbit_probe(args, problem, tol, action):
    origin = np.zeros(action.dim)
    report = orbit_hull_probe(
        action,
        origin,
        budget=args.budget,
        radius=args.radius,
        seed=_resolve_seed(problem, args),
        tol=tol,
    )
    distances = [p.hull_distance for p in report.probes]
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
        f"mean {float(np.mean(distances)) if distances else 0.0:.4f}",
    ]
    return EXIT_OK, doc, lines


_HANDLERS = {
    "verify": _cmd_verify,
    "irreducible": _cmd_irreducible,
    "commutant": _cmd_commutant,
    "fixed-points": _cmd_fixed_points,
    "cohomology": _cmd_cohomology,
    "exists-irreducible": _cmd_exists_irreducible,
    "direct-sum": _cmd_direct_sum,
    "equivalence": _cmd_equivalence,
    "restrict": _cmd_restrict,
    "induce": _cmd_induce,
    "center-check": _cmd_center_check,
    "abelian-test": _cmd_abelian_test,
    "nilpotent-check": _cmd_nilpotent_check,
    "orbit-probe": _cmd_orbit_probe,
}

_TWO_FILE_VERBS = {"direct-sum", "equivalence"}
_BATCHABLE = set(_HANDLERS) - _TWO_FILE_VERBS - {"induce"}


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--tol-rank", type=float, default=None, help="relative singular-value cutoff")
    sub.add_argument("--tol-residual", type=float, default=None, help="residual bound for identity checks")
    sub.add_argument("--tol-eig", type=float, default=None, help="eigenvalue clustering width")
    sub.add_argument("--machine", action="store_true", help="emit only the JSON result document")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affine-actions",
        description="Irreducibility and structure of affine isometric actions of finitely presented groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in _HANDLERS:
        p = sub.add_parser(name)
        if name == "induce":
            p.add_argument("file", help="problem file with the subgroup action")
            p.add_argument("setup", help="induction setup file (ambient, subgroup, coset table)")
        elif name in _TWO_FILE_VERBS:
            p.add_argument("file", help="first problem file")
            p.add_argument("file2", help="second problem file")
        else:
            p.add_argument("file", nargs="?", help="problem file")
            if name in _BATCHABLE:
                p.add_argument("--batch", default=None, help="process every *.json file in a directory")
        _add_common_flags(p)
        if name in ("exists-irreducible", "equivalence"):
            p.add_argument("--trials", type=int, default=20)
        if name in ("exists-irreducible", "equivalence", "direct-sum", "orbit-probe"):
            p.add_argument("--seed", type=int, default=None)
        if name == "abelian-test":
            p.add_argument("--window", type=int, default=3)
        if name == "orbit-probe":
            p.add_argument("--budget", type=int, default=200)
            p.add_argument("--radius", type=float, default=5.0)
    return parser


def _dispatch(args):
    """Load the problem file(s), resolve the tolerance, build the actions, run the verb."""
    paths = [args.file, args.file2] if args.command in _TWO_FILE_VERBS else [args.file]
    problems = [load_problem(path) for path in paths]
    tol = _resolve_tol(problems[0], args)
    actions = [] if args.command == "verify" else [p.build_action(tol) for p in problems]
    return _HANDLERS[args.command](args, problems[0], tol, *actions)


def _run_one(args) -> tuple[int, dict]:
    start = time.perf_counter()
    lines = []
    try:
        code, payload, lines = _dispatch(args)
    except (ProblemFileError, OSError) as exc:
        code, payload = EXIT_USAGE, {"error": str(exc), "verdict": "error"}
    except (CliInputError, ValueError) as exc:
        code, payload = EXIT_INPUT, {"error": str(exc), "verdict": "error"}
    except InternalCheckError as exc:
        code, payload = EXIT_INTERNAL, {"error": str(exc), "verdict": "error"}
    doc = {
        "format_version": FORMAT_VERSION,
        "command": args.command,
        "arguments": _echo_arguments(args),
        "wall_time_s": time.perf_counter() - start,
        "exit_code": code,
    }
    doc.update(payload)
    doc["_human"] = lines
    return code, doc


def _echo_arguments(args) -> dict:
    skip = {"command", "machine"}
    return {
        key: value
        for key, value in vars(args).items()
        if key not in skip and value is not None and not key.startswith("_")
    }


def _emit(doc: dict, machine: bool, stream=None) -> None:
    stream = stream or sys.stdout
    lines = doc.pop("_human", [])
    if machine:
        json.dump(doc, stream)
        stream.write("\n")
    else:
        if "error" in doc:
            print(f"error: {doc['error']}", file=stream)
        for line in lines:
            print(line, file=stream)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors
        return EXIT_OK if exc.code == 0 else EXIT_USAGE

    batch_dir = getattr(args, "batch", None)
    if batch_dir is not None:
        if args.file is not None:
            print("error: --batch replaces the positional file argument", file=sys.stderr)
            return EXIT_USAGE
        files = sorted(Path(batch_dir).glob("*.json"))
        if not files:
            print(f"error: no .json files in {batch_dir}", file=sys.stderr)
            return EXIT_USAGE
        worst = EXIT_OK
        for path in files:
            args.file = str(path)
            code, doc = _run_one(args)
            doc["file"] = str(path)
            if not args.machine:
                print(f"== {path}")
            _emit(doc, args.machine)
            worst = max(worst, code)
        return worst

    if getattr(args, "file", None) is None:
        print("error: a problem file is required", file=sys.stderr)
        return EXIT_USAGE
    code, doc = _run_one(args)
    _emit(doc, args.machine)
    return code


if __name__ == "__main__":
    sys.exit(main())
