"""JSON problem files and machine-readable result documents.

A problem file declares a presentation, a scalar field, per-generator
matrices (flat row-major number arrays; complex scalars as [re, im] pairs)
and cocycle vectors, plus optional tolerances, a subgroup, a coset table,
central words, and a seed. Parsing is strict: unknown fields, wrong shapes
and undeclared names are errors with a pointer to the offending key.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .actions import AffineAction, AffineMap, AffineSubspace
from .constructions import InducedSetup, SubgroupSpec
from .linalg import COMPLEX, DEFAULT_TOL, REAL, ToleranceProfile
from .reps import Cocycle, Representation, ValidityReport, validity_report
from .words import CosetTable, GroupPresentation, Word

FORMAT_VERSION = "1"


class ProblemFileError(ValueError):
    """Malformed problem file; the message names the offending location."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _real_from_json(value, where: str) -> float:
    """A JSON number as a finite float; Python's ``json`` also reads the
    ``NaN``, ``Infinity`` and ``-Infinity`` literals, which are refused here."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ProblemFileError(f"{where}: expected a real number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ProblemFileError(f"{where}: integer too large for a float") from None
    if not math.isfinite(number):
        raise ProblemFileError(f"{where}: expected a finite number, got {value!r}")
    return number


def _scalar_from_json(value, field: str, where: str):
    if field == COMPLEX:
        if not (isinstance(value, list) and len(value) == 2):
            raise ProblemFileError(f"{where}: complex entries must be [re, im] pairs")
        return complex(_real_from_json(value[0], where), _real_from_json(value[1], where))
    return _real_from_json(value, where)


def array_to_json(array: np.ndarray, field: str) -> list:
    """The entries in row-major order as floats: real parts, or [re, im] pairs."""
    array = np.asarray(array).reshape(-1)
    if field == COMPLEX:
        pairs = np.empty((array.size, 2))
        pairs[:, 0], pairs[:, 1] = array.real, array.imag
        return pairs.tolist()
    return array.real.astype(np.float64).tolist()


def by_generator(presentation: GroupPresentation, arrays, field: str) -> dict:
    """Per-generator arrays (matrices or cocycle values) keyed by generator name."""
    return {name: array_to_json(a, field) for name, a in zip(presentation.generators, arrays)}


def array_from_json(data, field: str, shape: tuple[int, ...], where: str) -> np.ndarray:
    if not isinstance(data, list):
        raise ProblemFileError(f"{where}: expected an array")
    expected = int(np.prod(shape)) if shape else 0
    if len(data) != expected:
        raise ProblemFileError(f"{where}: expected {expected} entries, got {len(data)}")
    values = [_scalar_from_json(v, field, where) for v in data]
    dtype = np.complex128 if field == COMPLEX else np.float64
    return np.array(values, dtype=dtype).reshape(shape)


def _object(data, where: str, keys, expected: str = "an object") -> dict:
    """``data`` if it is a JSON object with no key outside ``keys``, else a
    ProblemFileError located at ``where``. Every object of a problem or
    setup file is read through it, so a misspelt field is refused."""
    if not isinstance(data, dict):
        raise ProblemFileError(f"{where}: expected {expected}")
    unknown = data.keys() - keys
    if unknown:
        raise ProblemFileError(f"{where}: unknown keys {sorted(unknown)}; expected keys among {list(keys)}")
    return data


def _word_strings(data, where: str) -> list[str]:
    if not isinstance(data, list) or not all(isinstance(w, str) for w in data):
        raise ProblemFileError(f"{where}: expected a list of word strings")
    return data


def _words_from_json(data, parse, where: str) -> tuple[Word, ...]:
    """The words of a list of word strings, each parsed by ``parse``."""
    try:
        return tuple(parse(w) for w in _word_strings(data, where))
    except ValueError as exc:
        raise ProblemFileError(f"{where}: {exc}") from exc


def _presentation_from_json(data, where: str) -> GroupPresentation:
    data = _object(data, where, ("generators", "relators"), "an object with generators/relators")
    generators = data.get("generators")
    if not isinstance(generators, list) or not all(isinstance(g, str) for g in generators):
        raise ProblemFileError(f"{where}.generators: expected a list of strings")
    relators = data.get("relators", [])
    if not isinstance(relators, list) or not all(isinstance(r, str) for r in relators):
        raise ProblemFileError(f"{where}.relators: expected a list of word strings")
    try:
        return GroupPresentation(tuple(generators), tuple(relators))
    except ValueError as exc:
        raise ProblemFileError(f"{where}: {exc}") from exc


def presentation_to_json(presentation: GroupPresentation) -> dict:
    return {
        "generators": list(presentation.generators),
        "relators": [presentation.format_word(r) for r in presentation.relators],
    }


def _coset_table_from_json(data, ambient: GroupPresentation, subgroup: GroupPresentation | None, where: str) -> CosetTable:
    data = _object(data, where, ("transversal", "action", "schreier"))
    transversal_raw = data.get("transversal")
    if not isinstance(transversal_raw, list) or not transversal_raw:
        raise ProblemFileError(f"{where}.transversal: expected a non-empty list of word strings")
    transversal = _words_from_json(transversal_raw, ambient.parse_word, f"{where}.transversal")
    expected = "an object mapping generator names to rows"
    action_raw = _object(data.get("action"), f"{where}.action", ambient.generators, expected)
    schreier_raw = _object(data.get("schreier"), f"{where}.schreier", ambient.generators, expected)
    action_rows = []
    schreier_rows = []
    word_parser = subgroup.parse_word if subgroup is not None else ambient.parse_word
    for name in ambient.generators:
        if name not in action_raw:
            raise ProblemFileError(f"{where}.action: missing generator {name!r}")
        if name not in schreier_raw:
            raise ProblemFileError(f"{where}.schreier: missing generator {name!r}")
        row = action_raw[name]
        if not isinstance(row, list) or not all(_is_int(x) for x in row):
            raise ProblemFileError(f"{where}.action.{name}: expected a list of coset indices")
        action_rows.append(tuple(row))
        schreier_rows.append(_words_from_json(schreier_raw[name], word_parser, f"{where}.schreier.{name}"))
    return CosetTable(transversal, action_rows, schreier_rows)


def coset_table_to_json(table: CosetTable, ambient: GroupPresentation, subgroup: GroupPresentation | None) -> dict:
    fmt = subgroup.format_word if subgroup is not None else ambient.format_word
    return {
        "transversal": [ambient.format_word(w) for w in table.transversal],
        "action": {name: list(row) for name, row in zip(ambient.generators, table.action)},
        "schreier": {
            name: [fmt(w) for w in row] for name, row in zip(ambient.generators, table.schreier)
        },
    }


@dataclass(frozen=True)
class ProblemFile:
    """Parsed contents of a problem file (not yet validated numerically)."""

    field: str
    presentation: GroupPresentation
    dim: int
    matrices: tuple[np.ndarray, ...]
    cocycle_values: tuple[np.ndarray, ...]
    tolerances: ToleranceProfile | None = None
    subgroup: SubgroupSpec | None = None
    coset_table: CosetTable | None = None
    central_words: tuple[Word, ...] = ()
    seed: int | None = None

    def tolerance(self, eps_rank=None, eps_residual=None, eps_eig=None) -> ToleranceProfile:
        """The file's profile (or the default) with the given fields overridden."""
        overrides = {"eps_rank": eps_rank, "eps_residual": eps_residual, "eps_eig": eps_eig}
        base = self.tolerances or ToleranceProfile()
        return replace(base, **{k: v for k, v in overrides.items() if v is not None})

    def validate(self, tol: ToleranceProfile | None = None) -> tuple[ValidityReport, AffineAction]:
        """The validity report of the data and the action built from it, valid or not."""
        tol = tol or self.tolerance()
        rep = Representation(
            self.presentation, self.field, self.matrices, dim=self.dim, tol=tol, validate=False
        )
        cocycle = Cocycle(rep, self.cocycle_values, validate=False)
        return validity_report(tol, rep, cocycle), AffineAction(rep, cocycle)

    def build_action(self, tol: ToleranceProfile | None = None) -> AffineAction:
        """The action, if it passes ``validate``; else its first failure is raised."""
        report, action = self.validate(tol)
        if report.failure is not None:
            raise report.failure
        return action


_PROBLEM_KEYS = (
    "format_version",
    "field",
    "presentation",
    "dim",
    "matrices",
    "cocycle",
    "tolerances",
    "subgroup",
    "coset_table",
    "central_words",
    "seed",
)


def problem_from_dict(data: dict) -> ProblemFile:
    data = _object(data, "top level", _PROBLEM_KEYS, "a JSON object")
    if data.get("format_version") != FORMAT_VERSION:
        raise ProblemFileError(
            f"format_version: expected {FORMAT_VERSION!r}, got {data.get('format_version')!r}"
        )
    field = data.get("field")
    if field not in (REAL, COMPLEX):
        raise ProblemFileError(f"field: expected 'real' or 'complex', got {field!r}")
    presentation = _presentation_from_json(data.get("presentation"), "presentation")
    dim = data.get("dim")
    if not _is_int(dim) or dim < 1:
        raise ProblemFileError(f"dim: expected a positive integer, got {dim!r}")

    raw = {}
    for key in ("matrices", "cocycle"):
        raw[key] = _object(data.get(key, {}), key, presentation.generators, "an object keyed by generator name")
        missing = set(presentation.generators) - set(raw[key])
        if missing:
            raise ProblemFileError(f"{key}: missing generators {sorted(missing)}")
    matrices = tuple(
        array_from_json(raw["matrices"][name], field, (dim, dim), f"matrices.{name}")
        for name in presentation.generators
    )
    values = tuple(
        array_from_json(raw["cocycle"][name], field, (dim,), f"cocycle.{name}")
        for name in presentation.generators
    )

    tolerances = None
    if "tolerances" in data:
        names = ("rank", "residual", "eig")
        tol_raw = _object(data["tolerances"], "tolerances", names)
        eps = {f"eps_{k}": _real_from_json(tol_raw[k], f"tolerances.{k}") for k in names if k in tol_raw}
        try:
            tolerances = ToleranceProfile(**eps)
        except ValueError as exc:
            raise ProblemFileError(f"tolerances: {exc}") from exc

    subgroup = None
    if "subgroup" in data:
        sub_raw = _object(data["subgroup"], "subgroup", ("generators", "presentation"))
        if "generators" not in sub_raw:
            raise ProblemFileError("subgroup: expected an object with a generators list")
        words = tuple(_word_strings(sub_raw["generators"], "subgroup.generators"))
        sub_pres = None
        if "presentation" in sub_raw:
            sub_pres = _presentation_from_json(sub_raw["presentation"], "subgroup.presentation")
        try:
            subgroup = SubgroupSpec(presentation, words, sub_pres)
        except ValueError as exc:
            raise ProblemFileError(f"subgroup: {exc}") from exc

    coset_table = None
    if "coset_table" in data:
        sub_pres = subgroup.presentation if subgroup is not None else None
        coset_table = _coset_table_from_json(data["coset_table"], presentation, sub_pres, "coset_table")

    central = _words_from_json(data.get("central_words", []), presentation.parse_word, "central_words")
    seed = data.get("seed")
    if seed is not None and not _is_int(seed):
        raise ProblemFileError(f"seed: expected an integer, got {seed!r}")
    return ProblemFile(
        field, presentation, dim, matrices, values, tolerances, subgroup, coset_table, central, seed
    )


def problem_to_dict(problem: ProblemFile) -> dict:
    data: dict = {
        "format_version": FORMAT_VERSION,
        "field": problem.field,
        "presentation": presentation_to_json(problem.presentation),
        "dim": problem.dim,
        "matrices": by_generator(problem.presentation, problem.matrices, problem.field),
        "cocycle": by_generator(problem.presentation, problem.cocycle_values, problem.field),
    }
    if problem.tolerances is not None:
        data["tolerances"] = {
            "rank": problem.tolerances.eps_rank,
            "residual": problem.tolerances.eps_residual,
            "eig": problem.tolerances.eps_eig,
        }
    if problem.subgroup is not None:
        sub: dict = {
            "generators": [
                problem.presentation.format_word(w) for w in problem.subgroup.generator_words
            ]
        }
        if problem.subgroup.presentation is not None:
            sub["presentation"] = presentation_to_json(problem.subgroup.presentation)
        data["subgroup"] = sub
    if problem.coset_table is not None:
        sub_pres = problem.subgroup.presentation if problem.subgroup is not None else None
        data["coset_table"] = coset_table_to_json(problem.coset_table, problem.presentation, sub_pres)
    if problem.central_words:
        data["central_words"] = [problem.presentation.format_word(w) for w in problem.central_words]
    if problem.seed is not None:
        data["seed"] = problem.seed
    return data


def load_problem(path: str | Path) -> ProblemFile:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ProblemFileError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    try:
        return problem_from_dict(data)
    except ProblemFileError as exc:
        raise ProblemFileError(f"{path}: {exc}") from exc


def save_problem(problem: ProblemFile, path: str | Path) -> None:
    Path(path).write_text(json.dumps(problem_to_dict(problem), indent=2) + "\n")


def load_induction_setup(path: str | Path) -> InducedSetup:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ProblemFileError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    try:
        data = _object(data, "top level", ("format_version", "ambient", "subgroup", "coset_table"), "a JSON object")
        if data.get("format_version") != FORMAT_VERSION:
            raise ProblemFileError(f"format_version must be {FORMAT_VERSION!r}")
        ambient = _presentation_from_json(data.get("ambient"), "ambient")
        subgroup = _presentation_from_json(data.get("subgroup"), "subgroup")
        table = _coset_table_from_json(data.get("coset_table"), ambient, subgroup, "coset_table")
    except ProblemFileError as exc:
        raise ProblemFileError(f"{path}: {exc}") from exc
    return InducedSetup(ambient, subgroup, table)


def action_to_problem(action: AffineAction) -> ProblemFile:
    """The problem file of an action, with its tolerance profile unless that is the default."""
    return ProblemFile(
        action.field,
        action.presentation,
        action.dim,
        action.rep.matrices,
        action.cocycle.values,
        None if action.tol == DEFAULT_TOL else action.tol,
    )


def affine_map_to_json(mapping: AffineMap, field: str) -> dict:
    return {
        "linear": array_to_json(mapping.linear, field),
        "translation": array_to_json(mapping.translation, field),
        "shape": list(mapping.linear.shape),
    }


def subspace_to_json(subspace: AffineSubspace, field: str) -> dict:
    return {
        "base": array_to_json(subspace.base, field),
        "directions": array_to_json(subspace.directions, field),
        "dim": subspace.dim,
        "ambient_dim": subspace.ambient_dim,
    }
