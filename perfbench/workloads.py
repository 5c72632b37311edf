"""The four benchmark workloads: seeded inputs, the timed calls and their checks.

Inputs come from the benchmark's own generators (modelled on the test suite's
builders but independent of them, so a test edit cannot change a workload) and
from the fixture copies under ``perfbench/fixtures``. Every op is one public call
into the library; its expected outcome follows from how its input was built,
and any witness it returns is re-verified outside the timed region.

A check returns None when the op's outcome is right, ``failed(...)`` when the
library refused (an expected kind of failure that is counted but is not a wrong
answer), or ``wrong(...)`` when it returned a verdict or witness that is false.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import affine_actions as aa
from affine_actions import cli, problem_io

FIXTURES = Path(__file__).resolve().parent / "fixtures"

# Re-verification bound, relative to the data scale: loose enough for every
# numerically sound witness, tight enough that a wrong one cannot pass.
CHECK_EPS = 1e-7


def failed(detail: str) -> tuple[str, str]:
    return ("failed", detail)


def wrong(detail: str) -> tuple[str, str]:
    return ("wrong", detail)


@dataclass
class Case:
    """One timed public call and the check of its outcome."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], tuple[str, str] | None]


# -- generators --------------------------------------------------------------

F2 = aa.GroupPresentation(["a", "b"])
DIHEDRAL = aa.GroupPresentation(["t", "s"], ["s s", "s t s t"])


def random_isometry(dim: int, field: str, rng: np.random.Generator) -> np.ndarray:
    if field == "complex":
        gauss = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    else:
        gauss = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(gauss)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def random_vector(dim: int, field: str, rng: np.random.Generator) -> np.ndarray:
    if field == "complex":
        return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return rng.standard_normal(dim)


def generic_f2_action(dim: int, field: str, rng: np.random.Generator) -> aa.AffineAction:
    """Generic isometries and cocycle on F2: Irreducible for every dim >= 3."""
    rep = aa.Representation(F2, field, [random_isometry(dim, field, rng) for _ in range(2)])
    return aa.AffineAction.from_values(rep, [random_vector(dim, field, rng) for _ in range(2)])


def _action(presentation, field, matrices, values) -> aa.AffineAction:
    rep = aa.Representation(presentation, field, matrices)
    return aa.AffineAction.from_values(rep, values)


def block_diag(blocks: list[np.ndarray]) -> np.ndarray:
    dim = sum(b.shape[0] for b in blocks)
    out = np.zeros((dim, dim), dtype=np.result_type(*blocks))
    pos = 0
    for b in blocks:
        out[pos : pos + b.shape[0], pos : pos + b.shape[0]] = b
        pos += b.shape[0]
    return out


def symmetry_variants(base: aa.AffineAction, rng: np.random.Generator) -> dict[str, aa.AffineAction]:
    """Actions conjugate to ``base``, so they share its verdict.

    Scaling b -> lam*b is conjugation by a dilation. Scales at or below 1e-9 are
    left out: the policy for an essentially zero cocycle is undecided.
    """
    field, mats, values = base.field, base.rep.matrices, base.cocycle.values
    q = random_isometry(base.dim, field, rng)
    variants = {"base": base}
    for lam in (1e-6, 1e6, 1e9):
        variants[f"lam{lam:.0e}"] = _action(F2, field, mats, [lam * b for b in values])
    variants["translated"] = aa.conjugate_by_translation(base, random_vector(base.dim, field, rng))
    variants["rebased"] = _action(F2, field, [q @ m @ q.conj().T for m in mats], [q @ b for b in values])
    variants["swapped"] = _action(F2, field, mats[::-1], values[::-1])
    return variants


# -- re-verification -----------------------------------------------------------


def _ok(residual: float, scale: float) -> bool:
    return residual <= CHECK_EPS * (1.0 + scale)


def _cocycle_scale(action: aa.AffineAction) -> float:
    return max((float(np.linalg.norm(b)) for b in action.cocycle.values), default=0.0)


def check_irreducible(verdict) -> tuple[str, str] | None:
    return None if verdict.irreducible else wrong("Reducible, expected Irreducible")


def check_reducible(action: aa.AffineAction, verdict) -> tuple[str, str] | None:
    """A Reducible verdict whose commutant element and subspace re-verify."""
    if not verdict.reducible:
        return wrong("Irreducible, expected Reducible")
    w, sub = verdict.witness_map, verdict.witness_subspace
    b = _cocycle_scale(action)
    scale = float(np.linalg.norm(w.deviation)) + float(np.linalg.norm(w.translation)) + b
    if not _ok(aa.commutant_residual(action, w), scale):
        return wrong("witness map fails the commutant equations")
    if sub.dim >= action.dim:
        return wrong("witness subspace is not proper")
    if not _ok(aa.check_invariance(action, sub), float(np.linalg.norm(sub.base)) + b):
        return wrong("witness subspace is not invariant")
    return None


def check_double(half: aa.AffineAction, analysis) -> tuple[str, str] | None:
    """Reducible sum with projections of ``half`` that the intertwiner matches."""
    bad = check_reducible(analysis.sum_action, analysis.verdict)
    if bad:
        return bad
    proj = analysis.projections
    if proj is None:
        return wrong("reducible sum without equivalent projections")
    try:
        p1 = aa.project_action(half, proj.v1_basis)
        p2 = aa.project_action(half, proj.v2_basis)
    except ValueError as exc:
        return wrong(f"projection basis rejected: {exc}")
    m = proj.intertwiner
    scale = float(np.linalg.norm(m.linear)) + float(np.linalg.norm(m.translation)) + _cocycle_scale(half)
    if not _ok(aa.intertwining_residual(p1, p2, m), scale):
        return wrong("projection intertwiner fails re-verification")
    return None


# -- dense_decide --------------------------------------------------------------


def dense_decide(seed: int, workdir: Path) -> list[Case]:
    """Commutant decisions at d up to 32, doubles, and verdict-invariance variants."""
    rng = np.random.default_rng(seed)
    cases = []
    for field, dim in (("real", 16), ("real", 24), ("real", 32), ("complex", 16), ("complex", 24)):
        single = generic_f2_action(dim, field, rng)
        half = generic_f2_action(dim // 2, field, rng)
        cases.append(_decide_case(f"single/{field}/d{dim}", single))
        cases.append(_double_case(f"double/{field}/d{dim}", half))
    for field in ("real", "complex"):
        variants = symmetry_variants(generic_f2_action(8, field, rng), rng)
        for label, action in variants.items():
            cases.append(_decide_case(f"variant/{field}/d8/{label}", action))
            cases.append(_double_case(f"variant/{field}/d16/{label}-double", action))
    return cases


def _decide_case(name: str, action: aa.AffineAction) -> Case:
    return Case(name, lambda: aa.decide_irreducibility(action), check_irreducible)


def _double_case(name: str, half: aa.AffineAction) -> Case:
    return Case(name, lambda: aa.analyze_direct_sum(half, half), lambda r: check_double(half, r))


# -- cohomology_search ---------------------------------------------------------


@dataclass
class Summand:
    """An irreducible building block with its known invariants."""

    matrices: list[np.ndarray]
    z: int  # cocycle-space dimension
    b: int  # coboundary-space dimension
    h: int  # dim H^1

    @property
    def dim(self) -> int:
        return self.matrices[0].shape[0]


def _f2_irrep(m: int, field: str, rng) -> Summand:
    # generic isometries: irreducible, scalar commutant, no fixed vectors
    # (needs m >= 3 over the reals, where two plane rotations would commute)
    return Summand([random_isometry(m, field, rng) for _ in range(2)], 2 * m, m, m)


def _dihedral_character(field: str) -> Summand:
    # t -> 1, s -> -1: the translation/reflection action on a line
    dtype = complex if field == "complex" else float
    return Summand([np.eye(1, dtype=dtype), -np.eye(1, dtype=dtype)], 2, 1, 1)


def _dihedral_rotation(field: str, rng) -> Summand:
    angle = rng.uniform(0.3, np.pi - 0.3)
    c, s = np.cos(angle), np.sin(angle)
    dtype = complex if field == "complex" else float
    rot = np.array([[c, -s], [s, c]], dtype=dtype)
    flip = np.diag([1.0, -1.0]).astype(dtype)
    return Summand([rot, flip], 2, 2, 0)


def _sum_rep(presentation, field, parts: list[tuple[Summand, int]], rng) -> aa.Representation:
    """Direct sum of summands with multiplicities, in a random orthonormal basis."""
    blocks = [summand for summand, k in parts for _ in range(k)]
    dim = sum(s.dim for s in blocks)
    q = random_isometry(dim, field, rng)
    gens = presentation.num_generators
    mats = [q @ block_diag([s.matrices[g] for s in blocks]) @ q.conj().T for g in range(gens)]
    return aa.Representation(presentation, field, mats)


def cohomology_search(seed: int, workdir: Path) -> list[Case]:
    """H^1, commutant and separating-class search on rho^(+k) families.

    The search finds a separating class iff every irreducible summand occurs
    with multiplicity k at most dim H^1 of that summand (k <= m on F2).
    """
    rng = np.random.default_rng(seed)
    families = []
    for field, m, k in (
        ("real", 3, 2), ("real", 3, 4), ("real", 4, 3), ("real", 4, 4), ("real", 3, 5),
        ("real", 4, 5), ("real", 10, 2), ("complex", 3, 2), ("complex", 2, 3), ("complex", 4, 2),
        ("complex", 3, 4), ("complex", 4, 4), ("complex", 5, 3),
    ):
        families.append((f"f2/{field}/m{m}k{k}", F2, field, [(_f2_irrep(m, field, rng), k)]))
    for field in ("real", "complex"):
        chi = _dihedral_character(field)
        families.append((f"dihedral/{field}/chi1", DIHEDRAL, field, [(chi, 1)]))
        families.append((f"dihedral/{field}/chi3", DIHEDRAL, field, [(chi, 3)]))
        rot = _dihedral_rotation(field, rng)
        families.append((f"dihedral/{field}/chi1+rot2", DIHEDRAL, field, [(chi, 1), (rot, 2)]))
    cases = []
    for name, presentation, field, parts in families:
        rep = _sum_rep(presentation, field, parts, rng)
        dims = tuple(sum(getattr(s, key) * k for s, k in parts) for key in ("z", "b", "h"))
        commutant_dim = sum(k * k for _, k in parts)
        found = all(k <= s.h for s, k in parts)
        cases += _rep_cases(name, rep, dims, commutant_dim, found, seed)
    return cases


def _rep_cases(name: str, rep, dims, commutant_dim: int, found: bool, seed: int) -> list[Case]:
    """H^1, the commutant and the 20-trial search, all on the same representation."""
    return [
        Case(f"{name}/h1", lambda: aa.first_cohomology(rep), lambda res: _check_h1(res, dims)),
        Case(
            f"{name}/commutant",
            lambda: aa.commutant_basis(rep),
            lambda res: _check_commutant(rep, res, commutant_dim),
        ),
        Case(
            f"{name}/search",
            lambda: aa.search_irreducible_cocycle(rep, trials=20, seed=seed),
            lambda res: _check_search(rep, res, found),
        ),
    ]


def _check_h1(basis, dims) -> tuple[str, str] | None:
    if basis.dims != dims:
        return wrong(f"dimensions {basis.dims}, expected {dims}")
    reps = [h.coordinates() for h in basis.class_representatives]
    bounds = [c.coordinates() for c in basis.coboundary_basis]
    if reps:
        h = np.column_stack(reps)
        if not _ok(float(np.linalg.norm(h.conj().T @ h - np.eye(h.shape[1]))), 0.0):
            return wrong("class representatives are not orthonormal")
        if bounds and not _ok(float(np.linalg.norm(np.column_stack(bounds).conj().T @ h)), 0.0):
            return wrong("class representatives are not orthogonal to the coboundaries")
    return None


def _check_commutant(rep, basis, expected: int) -> tuple[str, str] | None:
    if len(basis) != expected:
        return wrong(f"commutant dimension {len(basis)}, expected {expected}")
    for t in basis:
        defect = max(float(np.linalg.norm(t @ m - m @ t)) for m in rep.matrices)
        if not _ok(defect, float(np.linalg.norm(t))):
            return wrong("commutant element does not commute")
    return None


def _check_search(rep, result, expected_found: bool) -> tuple[str, str] | None:
    if result.found != expected_found:
        return wrong(f"found={result.found}, expected {expected_found}")
    if not result.found:
        return None if result.trials_used == 20 else wrong(f"gave up after {result.trials_used} trials")
    action = aa.AffineAction(rep, result.witness)
    if aa.decide_irreducibility(action).reducible:
        return wrong("separating cocycle gives a reducible action")
    return None


# -- lattice_words -------------------------------------------------------------


def free_abelian(k: int) -> aa.GroupPresentation:
    names = [f"t{i + 1}" for i in range(k)]
    relators = [f"{a} {b} {a}^-1 {b}^-1" for i, a in enumerate(names) for b in names[i + 1 :]]
    return aa.GroupPresentation(names, relators)


def lattice_words(seed: int, workdir: Path) -> list[Case]:
    """Word evaluation and pair scans on Z^k, orbit probes, restriction and induction."""
    rng = np.random.default_rng(seed)
    cases = []
    # the (2, 6) full scan runs on five lattices, so that the median op is one
    # case of fixed cost rather than whichever of several similar ops is faster
    for k, w, copies in ((2, 6, 5), (3, 3, 1), (4, 2, 1)):
        zk = free_abelian(k)
        for copy in range(copies):
            # identity linear part, spanning translations: psi is a quadratic form
            translation = _action(zk, "real", [np.eye(k)] * k, [rng.standard_normal(k) for _ in range(k)])
            cases.append(_quadratic_case(f"quadratic/identity/k{k}w{w}/{copy}", translation, w, _check_quadratic))
        # commuting plane rotations with the coboundary of v: never quadratic
        angles = rng.uniform(0.3, np.pi - 0.3, size=k)
        v = rng.standard_normal(2)
        rots = [np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]]) for a in angles]
        rotating = _action(zk, "real", rots, [r @ v - v for r in rots])
        check = functools.partial(_check_violation, angles=angles, v=v)
        cases.append(_quadratic_case(f"quadratic/rotating/k{k}w{w}", rotating, w, check))
    for dim in (2, 3, 6):
        # the cubic lattice Z^dim in a seeded orthonormal frame: an irreducible
        # action whose orbit geometry, and so the probe cost, is the same on every seed
        frame = random_isometry(dim, "real", rng)
        action = _action(free_abelian(dim), "real", [np.eye(dim)] * dim, list(frame.T))
        cases.append(Case(f"orbit/d{dim}", functools.partial(_orbit_probe, action, seed), _check_orbit))
    for fixture, reducible in (("glide", True), ("dihedral", False)):
        problem = problem_io.load_problem(FIXTURES / f"{fixture}.json")
        cases.append(_restrict_case(f"restrict/{fixture}", problem.build_action(), problem.subgroup, reducible))
    setup = problem_io.load_induction_setup(FIXTURES / "c2xz_setup.json")
    for fixture in ("z_translation", "z_even_translation"):
        action = problem_io.load_problem(FIXTURES / f"{fixture}.json").build_action()
        cases.append(Case(f"induce/{fixture}", lambda a=action: aa.induce_action(a, setup), _check_induced))
    return cases


def _restrict_case(name: str, action: aa.AffineAction, sub, reducible: bool) -> Case:
    check = functools.partial(_check_restricted, action, sub, reducible=reducible)
    return Case(name, lambda: aa.restrict_action(action, sub), check)


def _quadratic_case(name: str, action: aa.AffineAction, window: int, check) -> Case:
    return Case(name, lambda: aa.quadratic_form_test(action, window=window), check)


def _orbit_probe(action: aa.AffineAction, seed: int):
    return aa.orbit_hull_probe(action, np.zeros(action.dim), budget=1000, seed=seed)


def _check_quadratic(result) -> tuple[str, str] | None:
    return None if result.quadratic else wrong(f"ViolatedAt {result.violation}, expected Quadratic")


def _check_violation(result, *, angles, v) -> tuple[str, str] | None:
    if result.quadratic:
        return wrong("Quadratic, expected ViolatedAt")
    # psi(x) = ||(R(x.theta) - I) v||^2 = 2|v|^2 (1 - cos(x.theta)), independent of the library
    def psi(x):
        return 2.0 * float(v @ v) * (1.0 - np.cos(float(np.dot(x, angles))))

    x, y = (np.array(p) for p in result.violation)
    defect = abs(psi(x + y) + psi(x - y) - 2.0 * (psi(x) + psi(y)))
    if defect <= 1e-6 * float(v @ v):
        return wrong(f"reported pair {result.violation} is not a violation")
    return None


def _check_orbit(report) -> tuple[str, str] | None:
    distances = [p.hull_distance for p in report.probes]
    if report.orbit_size != 1001 or not distances:
        return wrong(f"orbit of {report.orbit_size} points with {len(distances)} probes")
    if not all(np.isfinite(d) and d >= 0.0 for d in distances):
        return wrong("hull distance is negative or not finite")
    return None


def _check_restricted(action, sub, restricted, *, reducible: bool) -> tuple[str, str] | None:
    for i, word in enumerate(sub.generator_words):
        expected = action.evaluate(word)
        got = restricted.generator_maps()[i]
        if not np.allclose(got.linear, expected.linear) or not np.allclose(got.translation, expected.translation):
            return wrong("restricted generator differs from the evaluated word")
    if aa.decide_irreducibility(restricted).reducible != reducible:
        return wrong("restricted action has the wrong verdict")
    return None


def _check_induced(induced) -> tuple[str, str] | None:
    # a translation action of Z induced to C2 x Z keeps the diagonal invariant
    if induced.dim != 2:
        return wrong(f"induced dimension {induced.dim}, expected 2")
    return check_reducible(induced, aa.decide_irreducibility(induced))


# -- cli_batch -----------------------------------------------------------------


@dataclass(frozen=True)
class CliExpect:
    """Expected outcome of one CLI call: exit code, verdict and a document check."""

    code: int
    verdict: object = None  # None: not asserted
    doc_check: Callable[[dict], bool] | None = None

    @property
    def refusal(self) -> bool:
        return self.code == cli.EXIT_INPUT


def _from_json(data, shape) -> np.ndarray:
    arr = np.array(data, dtype=float)
    if arr.ndim == 2:  # complex scalars are [re, im] pairs
        arr = arr[:, 0] + 1j * arr[:, 1]
    return arr.reshape(shape)


def _subspace(doc: dict) -> aa.AffineSubspace:
    n, k = doc["ambient_dim"], doc["dim"]
    return aa.AffineSubspace(_from_json(doc["base"], (n,)), _from_json(doc["directions"], (n, k)))


def _affine_map(doc: dict) -> aa.AffineMap:
    rows, cols = doc["shape"]
    return aa.AffineMap(_from_json(doc["linear"], (rows, cols)), _from_json(doc["translation"], (rows,)))


def _invariant(action, key):
    def check(doc):
        sub = _subspace(doc[key]["invariant_subspace"] if key == "witness" else doc[key])
        return _ok(aa.check_invariance(action, sub), float(np.linalg.norm(sub.base)) + _cocycle_scale(action))

    return check


def _intertwines(a1, a2):
    def check(doc):
        m = _affine_map(doc["intertwiner"])
        scale = float(np.linalg.norm(m.linear)) + float(np.linalg.norm(m.translation)) + _cocycle_scale(a2)
        return _ok(aa.intertwining_residual(a1, a2, m), scale)

    return check


def _projections_intertwine(half):
    def check(doc):
        w = doc["witness"]
        d, k = half.dim, w["v_dim"]
        p1 = aa.project_action(half, _from_json(w["v1_basis"], (d, k)))
        p2 = aa.project_action(half, _from_json(w["v2_basis"], (d, k)))
        m = _affine_map(w["intertwiner"])
        scale = float(np.linalg.norm(m.linear)) + float(np.linalg.norm(m.translation)) + _cocycle_scale(half)
        return _ok(aa.intertwining_residual(p1, p2, m), scale)

    return check


def _fixture_calls() -> list[tuple[list[str], CliExpect]]:
    """The (verb, files) pairs and outcomes asserted by the CLI test suite.

    ``verify`` runs on every problem fixture: each is a valid problem file, so
    each passes.
    """
    f = {p.stem: str(p) for p in FIXTURES.glob("*.json")}
    glide = problem_io.load_problem(FIXTURES / "glide.json").build_action()
    glide_invariant = _invariant(glide, "witness")

    def glide_witness(doc):
        return abs(doc["witness"]["invariant_subspace"]["base"][1] - 1.0) < 1e-8 and glide_invariant(doc)

    def diagonal(doc):
        return abs(complex(*doc["witness"]["ambient_intertwiner"]["linear"][0]) - 1.0) < 1e-8

    calls = [(["verify", f[name]], CliExpect(0, "pass")) for name in sorted(f) if name != "c2xz_setup"]
    calls += [
        (["irreducible", f["glide"]], CliExpect(10, "Reducible", glide_witness)),
        (["irreducible", f["dihedral"]], CliExpect(0, "Irreducible", lambda d: d["fixed_space_dimension"] == 0)),
        (["commutant", f["glide"]], CliExpect(0, "computed", lambda d: d["dimension"] == 2)),
        (["fixed-points", f["glide"]], CliExpect(10, "Empty")),
        (
            ["fixed-points", f["z_flip"]],
            CliExpect(0, "FixedPoints", lambda d: abs(d["subspace"]["base"][0][0] - 0.5) < 1e-10),
        ),
        (["cohomology", f["f2_trivial"]], CliExpect(0, {"cocycles": 2, "coboundaries": 0, "classes": 2})),
        (["cohomology", f["heisenberg_trivial"]], CliExpect(0, {"cocycles": 2, "coboundaries": 0, "classes": 2})),
        (["cohomology", f["z_flip"]], CliExpect(0, {"cocycles": 1, "coboundaries": 1, "classes": 0})),
        (["cohomology", f["c3_rotation"]], CliExpect(0, None, lambda d: d["verdict"]["classes"] == 0)),
        (["exists-irreducible", f["z_trivial_c1"]], CliExpect(0, "Yes")),
        (["exists-irreducible", f["z_trivial_c2"]], CliExpect(10, "ProbablyNo", lambda d: d["probabilistic"] is True)),
        (["exists-irreducible", f["c2_flip"]], CliExpect(10)),
        (["direct-sum", f["dihedral"], f["dihedral"]], CliExpect(10, "EquivalentProjections", diagonal)),
        (["direct-sum", f["f2_character"], f["f2_irred2d_b1"]], CliExpect(0, "IrreducibleSum")),
        (
            ["equivalence", f["z_translation"], f["z_even_translation"]],
            CliExpect(0, "Equivalent", lambda d: abs(d["intertwiner"]["linear"][0] - 2.0) < 1e-8),
        ),
        (["equivalence", f["z_translation"], f["z_flip"]], CliExpect(12)),
        (
            ["restrict", f["dihedral"]],
            CliExpect(0, "Irreducible", lambda d: d["restricted_action"]["presentation"]["generators"] == ["u"]),
        ),
        (["restrict", f["glide"]], CliExpect(10)),
        (["restrict", f["z_translation"]], CliExpect(12)),
        (
            ["induce", f["z_translation"], f["c2xz_setup"]],
            CliExpect(10, "Reducible", lambda d: d["cosets"] == 2 and d["induced_action"]["dim"] == 2),
        ),
        (["center-check", f["heisenberg_trivial"]], CliExpect(0)),
        (["center-check", f["dihedral"]], CliExpect(0)),
        (["abelian-test", f["z2_translations"]], CliExpect(0, "Quadratic", lambda d: d["verdicts_agree"])),
        (
            ["abelian-test", f["z_flip"]],
            CliExpect(10, "ViolatedAt", lambda d: d["violation"] == [[1], [1]] and d["verdicts_agree"]),
        ),
        (["abelian-test", f["dihedral"]], CliExpect(12)),
        (["nilpotent-check", f["heisenberg_trivial"]], CliExpect(0)),
        (
            ["orbit-probe", f["glide"], "--budget", "60", "--radius", "4.0", "--seed", "2"],
            CliExpect(0, "evidence", lambda d: d["orbit_size"] == 61 and d["max_hull_distance"] > 0.5),
        ),
        (["orbit-probe", f["z_flip"]], CliExpect(12)),
    ]
    return calls


def _generated_calls(rng, workdir: Path) -> list[tuple[list[str], CliExpect]]:
    """Problem files written during set-up, with verdicts implied by their construction."""

    def save(name, action):
        path = workdir / f"{name}.json"
        problem_io.save_problem(problem_io.action_to_problem(action), path)
        return str(path)

    calls = []
    for dim in (4, 8, 12):
        single = generic_f2_action(dim, "real", rng)
        half = generic_f2_action(dim // 2, "real", rng)
        double = aa.direct_sum(half, half)
        shifted = aa.conjugate_by_translation(single, rng.standard_normal(dim))
        s, h, dbl, sh = (
            save(f"{n}_d{dim}", a) for n, a in (("single", single), ("half", half), ("double", double), ("shifted", shifted))
        )
        calls += [
            (["verify", s], CliExpect(0, "pass")),
            (["irreducible", s], CliExpect(0, "Irreducible")),
            (["irreducible", dbl], CliExpect(10, "Reducible", _invariant(double, "witness"))),
            (["commutant", s], CliExpect(0, "computed", lambda d: d["dimension"] == 0)),
            (["cohomology", s], CliExpect(0, {"cocycles": 2 * dim, "coboundaries": dim, "classes": dim})),
            (["exists-irreducible", s], CliExpect(0, "Yes")),
            (["direct-sum", h, h], CliExpect(10, "EquivalentProjections", _projections_intertwine(half))),
            (["equivalence", s, sh], CliExpect(0, "Equivalent", _intertwines(single, shifted))),
            (["fixed-points", s], CliExpect(10, "Empty")),
        ]
    half = generic_f2_action(4, "real", rng)
    scaled = _action(F2, "real", half.rep.matrices, [1e9 * b for b in half.cocycle.values])
    double = aa.direct_sum(scaled, scaled)
    # a valid reducible input that the baseline refuses with exit 12
    calls.append((["irreducible", save("double_lam1e9_d8", double)], CliExpect(10, "Reducible", _invariant(double, "witness"))))
    return calls


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv + ["--machine"])
    return code, out.getvalue()


def _check_cli(result, expect: CliExpect) -> tuple[str, str] | None:
    """Classify by return code and verdict, never by the document's own exit_code."""
    code, stdout = result
    try:
        doc = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return wrong(f"exit {code} without a JSON document")
    if code == cli.EXIT_INTERNAL:
        return failed(f"exit 13: {doc.get('error', '')[:80]}")
    if code in (cli.EXIT_INPUT, cli.EXIT_USAGE) and code != expect.code:
        return failed(f"exit {code}: {doc.get('error', '')[:80]}")
    if code != expect.code:
        return wrong(f"exit {code}, expected {expect.code}")
    if expect.refusal:
        return None if doc.get("verdict") == "error" else wrong("refusal without an error document")
    if expect.verdict is not None and doc.get("verdict") != expect.verdict:
        return wrong(f"verdict {doc.get('verdict')!r}, expected {expect.verdict!r}")
    if expect.doc_check is not None and not expect.doc_check(doc):
        return wrong("result document fails its check")
    return None


def cli_batch(seed: int, workdir: Path) -> list[Case]:
    """Every CLI verb in-process on the fixtures and on generated problem files."""
    rng = np.random.default_rng(seed)
    calls = _fixture_calls() + _generated_calls(rng, workdir)
    cases = [
        Case(" ".join([argv[0]] + [Path(a).stem if a.endswith(".json") else a for a in argv[1:]]),
             lambda argv=argv: _run_cli(argv), lambda r, e=expect: _check_cli(r, e))
        for argv, expect in calls
    ]
    return cases


WORKLOADS = {
    "dense_decide": dense_decide,
    "cohomology_search": cohomology_search,
    "lattice_words": lattice_words,
    "cli_batch": cli_batch,
}
