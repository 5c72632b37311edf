"""Structural constructions: restriction, induction, and class-specific tests.

Restriction evaluates an action on subgroup generator words over a free
presentation (the Schur decision needs no relators). Induction along a
coset table builds the block-permutation action on n*d coordinates from the
fundamental-domain formula; the ambient relator residuals of the result are
what validates the table's Schreier words. The remaining operations are
property checks tied to specific group classes (center, free abelian,
Heisenberg-like) plus a Monte-Carlo convex-hull probe of orbits.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .actions import AffineAction, decide_irreducibility, unit_scale
from .linalg import (
    REAL,
    ToleranceProfile,
    as_field_array,
    frobenius,
    int_at_least,
    numerical_rank,
    residual_ok,
)
from .reps import Cocycle, Representation, fixed_subspace
from .words import (
    CosetTable,
    GroupPresentation,
    PropertyCheck,
    PropertyReport,
    Word,
    free_presentation,
    validate_coset_table,
)


class ConstructionError(ValueError):
    """Invalid inputs to a structural construction."""


# working-memory bounds: defect elements per block of rows of the
# parallelogram scan, and prefix elements per block of orbit words
_SCAN_BLOCK_ELEMENTS = 4096
_ORBIT_BLOCK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class SubgroupSpec:
    """A subgroup given by generator words in an ambient presentation."""

    ambient: GroupPresentation
    generator_words: tuple[Word, ...]
    presentation: GroupPresentation | None = None

    def __init__(
        self,
        ambient: GroupPresentation,
        generator_words,
        presentation: GroupPresentation | None = None,
    ) -> None:
        words = tuple(
            w if isinstance(w, Word) else ambient.parse_word(w) for w in generator_words
        )
        for w in words:
            ambient.check_word(w)
        if presentation is not None and presentation.num_generators != len(words):
            raise ConstructionError(
                "subgroup presentation generator count does not match the word list"
            )
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "generator_words", words)
        object.__setattr__(self, "presentation", presentation)


@dataclass(frozen=True)
class InducedSetup:
    """Ambient and subgroup presentations plus the coset table linking them."""

    ambient: GroupPresentation
    subgroup: GroupPresentation
    table: CosetTable


def restrict_action(action: AffineAction, sub: SubgroupSpec) -> AffineAction:
    """Action of the subgroup, over the free presentation on its generators."""
    if sub.ambient != action.presentation:
        raise ConstructionError("subgroup spec targets a different presentation")
    if sub.presentation is not None:
        names = sub.presentation.generators
    else:
        names = tuple(f"h{i}" for i in range(len(sub.generator_words)))
    free = free_presentation(names)
    maps = [action.evaluate(w) for w in sub.generator_words]
    rep = Representation(free, action.field, [m.linear for m in maps], dim=action.dim, tol=action.tol)
    return AffineAction.from_values(rep, [m.translation for m in maps])


def induce_action(action: AffineAction, setup: InducedSetup, tol: ToleranceProfile | None = None) -> AffineAction:
    """Induce a subgroup action to the ambient group along a coset table.

    Generator s sends the block at coset y to coset sigma_s(y), twisted by
    the subgroup element u_{s,y} = t_{sigma_s(y)}^-1 s t_y evaluated in the
    subgroup action; the induced cocycle places b(u_{s,y}) in the target
    block. Ambient relator residuals of the result validate the Schreier
    words: bad table data fails representation or cocycle construction.
    """
    tol = tol or action.tol
    if action.presentation != setup.subgroup:
        raise ConstructionError("action is not over the setup's subgroup presentation")
    report = validate_coset_table(setup.ambient, setup.table)
    if not report.passed:
        names = ", ".join(c.name for c in report.failures())
        raise ConstructionError(f"coset table fails combinatorial validation: {names}")
    n = setup.table.num_cosets
    d = action.dim
    dtype = action.rep.dtype
    matrices = []
    values = []
    for perm, schreier_row in zip(setup.table.action, setup.table.schreier):
        big = np.zeros((n * d, n * d), dtype=dtype)
        vec_parts = np.zeros(n * d, dtype=dtype)
        for y, x in enumerate(perm):
            block = action.evaluate(schreier_row[y])
            big[x * d : (x + 1) * d, y * d : (y + 1) * d] = block.linear
            vec_parts[x * d : (x + 1) * d] = block.translation
        matrices.append(big)
        values.append(vec_parts)
    rep = Representation(setup.ambient, action.field, matrices, dim=n * d, tol=tol)
    return AffineAction.from_values(rep, values)


def check_restriction_theorem(
    action: AffineAction,
    sub: SubgroupSpec,
    index_certificate: CosetTable,
    tol: ToleranceProfile | None = None,
) -> PropertyReport:
    """Irreducibility must survive restriction to a finite-index subgroup.

    The coset table only serves as a finite-index certificate here; its
    combinatorial invariants are checked, the Schreier words are not used.
    """
    tol = tol or action.tol
    checks = []
    table_report = validate_coset_table(sub.ambient, index_certificate)
    checks.append(
        PropertyCheck(
            "index-certificate",
            table_report.passed,
            "" if table_report.passed else ", ".join(c.name for c in table_report.failures()),
        )
    )
    ambient_verdict = decide_irreducibility(action, tol)
    checks.append(
        PropertyCheck(
            "ambient-irreducible",
            ambient_verdict.irreducible,
            "" if ambient_verdict.irreducible else "restriction theorem needs an irreducible input",
        )
    )
    if ambient_verdict.irreducible:
        restricted = restrict_action(action, sub)
        verdict = decide_irreducibility(restricted, tol)
        detail = ""
        if verdict.reducible:
            detail = (
                "restricted action reducible; witness deviation norm "
                f"{max(p.deviation_norm for p in verdict.commutant):.3e}"
            )
        checks.append(PropertyCheck("restriction-irreducible", verdict.irreducible, detail))
    return PropertyReport("finite-index-restriction", tuple(checks))


def check_center_translations(
    action: AffineAction, central_words, tol: ToleranceProfile | None = None
) -> PropertyReport:
    """Central elements of an irreducible action translate along the fixed space.

    Each word must first commute with every generator at the representation
    level; failing that is a precondition error for that word.
    """
    tol = tol or action.tol
    presentation = action.presentation
    words = [w if isinstance(w, Word) else presentation.parse_word(w) for w in central_words]
    checks = []
    verdict = decide_irreducibility(action, tol)
    checks.append(
        PropertyCheck(
            "action-irreducible",
            verdict.irreducible,
            "" if verdict.irreducible else "center check applies to irreducible actions",
        )
    )
    fixed = fixed_subspace(action.rep, tol)
    for i, word in enumerate(words):
        label = presentation.format_word(word)
        value, matrix = action.cocycle.walk(word)
        central_defect = max(
            (frobenius(matrix @ m - m @ matrix) for m in action.rep.matrices), default=0.0
        )
        if not residual_ok(central_defect, 1.0, tol.eps_residual):
            checks.append(
                PropertyCheck(
                    f"central[{i}]:{label}",
                    False,
                    f"word is not central at the representation level (defect {central_defect:.3e})",
                )
            )
            continue
        linear_defect = frobenius(matrix - np.eye(action.dim))
        off_fixed = float(np.linalg.norm(value - fixed @ (fixed.conj().T @ value)))
        ok = residual_ok(linear_defect, 1.0, tol.eps_residual) and residual_ok(
            off_fixed, float(np.linalg.norm(value)), tol.eps_residual
        )
        detail = "" if ok else f"linear defect {linear_defect:.3e}, off-fixed norm {off_fixed:.3e}"
        checks.append(PropertyCheck(f"translation[{i}]:{label}", ok, detail))
    return PropertyReport("center-translations", tuple(checks))


def _commutator_pair(word: Word) -> tuple[int, int] | None:
    """Indices (i, j) when the word is a commutator of two distinct generators."""
    if len(word.letters) != 4:
        return None
    (g0, s0), (g1, s1), (g2, s2), (g3, s3) = word.letters
    if g0 != g2 or g1 != g3 or g0 == g1:
        return None
    if s0 == -s2 and s1 == -s3:
        return (min(g0, g1), max(g0, g1))
    return None


def is_free_abelian(presentation: GroupPresentation) -> bool:
    """True when the relators are exactly the pairwise generator commutators."""
    k = presentation.num_generators
    needed = {(i, j) for i in range(k) for j in range(i + 1, k)}
    seen = set()
    for relator in presentation.relators:
        pair = _commutator_pair(relator)
        if pair is None:
            return False
        seen.add(pair)
    return seen == needed


@dataclass(frozen=True)
class QuadraticFormResult:
    """Parallelogram-identity scan of x -> ||b(x)||^2 over a lattice window.

    ``max_defect`` is the largest parallelogram defect scanned, in the
    caller's units (those of ||b||^2); on a violation it is the defect of
    the violating pair, since every pair scanned before it passed.
    """

    quadratic: bool
    violation: tuple[tuple[int, ...], tuple[int, ...]] | None
    window: int
    max_defect: float

    @property
    def tag(self) -> str:
        return "Quadratic" if self.quadratic else "ViolatedAt"


def _spans(vectors, dim: int, tol: ToleranceProfile) -> bool:
    """Whether the vectors span the whole space, at the rank cutoff."""
    matrix = np.column_stack(vectors) if vectors else np.zeros((dim, 0))
    singular = np.linalg.svd(matrix, compute_uv=False) if min(matrix.shape) else np.zeros(0)
    return numerical_rank(singular, tol) == dim


def _squared_norms(values: np.ndarray) -> list[float]:
    """``float(np.linalg.norm(v) ** 2)`` for each row ``v``, with the same bits.

    ``norm`` takes the square root of the dot product of ``v`` with itself
    (of its real and imaginary parts, summed, for complex ``v``); the row
    dots below are the same BLAS dots, and the square is a Python float
    power as in the scalar expression (an array power can round differently).
    """
    def dots(x):
        return (x[:, None, :] @ x[:, :, None])[:, 0, 0]

    squares = dots(values.real) + dots(values.imag) if np.iscomplexobj(values) else dots(values)
    return [r**2 for r in np.sqrt(squares).tolist()]


def _powers(cocycle: Cocycle, values: np.ndarray, prefixes: np.ndarray, gen: int, reach: int):
    """(column, b, pi) of every state times s^p for p in [-reach, reach].

    ``column`` is p + reach. Each side takes one stacked ``Cocycle.step`` per
    power, and only its current layer is held.
    """
    yield reach, values, prefixes
    for sign in (1, -1):
        v, p = values, prefixes
        for power in range(1, reach + 1):
            v, p = cocycle.step(v, p, gen, sign)
            yield reach + sign * power, v, p


def _psi_grid(cocycle: Cocycle, k: int, reach: int) -> np.ndarray:
    """psi(x) = ||b(x)||^2 on the cube [-reach, reach]^k, indexed by x + reach.

    The word of x is t1^x1 ... tk^xk. The grid is filled one coordinate at a
    time: the states (b(w), pi(w)) of all points of the first j coordinates
    take their powers of t_{j+1} together, so each point costs one row of
    one stacked ``Cocycle.step``, in the order ``Cocycle.extend`` applies
    them. The last coordinate reduces each layer to squared norms as it is
    made, so at most (2 reach + 1)^(k-1) prefixes are alive at once.
    """
    rep = cocycle.representation
    side = 2 * reach + 1
    values = np.zeros((1, rep.dim), dtype=rep.dtype)
    prefixes = np.eye(rep.dim, dtype=rep.dtype)[None]
    for gen in range(k - 1):
        next_values = np.empty((len(values), side, rep.dim), dtype=rep.dtype)
        next_prefixes = np.empty((len(values), side, rep.dim, rep.dim), dtype=rep.dtype)
        for column, v, p in _powers(cocycle, values, prefixes, gen, reach):
            next_values[:, column], next_prefixes[:, column] = v, p
        values = next_values.reshape(-1, rep.dim)
        prefixes = next_prefixes.reshape(-1, rep.dim, rep.dim)
    psi = np.empty((len(values), side))
    for column, v, _ in _powers(cocycle, values, prefixes, k - 1, reach):
        psi[:, column] = _squared_norms(v)
    return psi.reshape((side,) * k)


def quadratic_form_test(
    action: AffineAction, window: int = 3, tol: ToleranceProfile | None = None
) -> QuadraticFormResult:
    """Check ||b(.)||^2 for the parallelogram identity on a free-abelian group.

    Requires the cocycle values to span the whole space (totality); under
    that hypothesis the identity holds on the lattice iff the action is
    irreducible, which is what the accompanying property suite asserts.

    The pairs (x, y) of [-window, window]^k are scanned row by row in a fixed
    order (nearest the origin first, in blocks of about
    ``_SCAN_BLOCK_ELEMENTS`` defects) and the first pair whose defect
    |psi(x+y) + psi(x-y) - 2 psi(x) - 2 psi(y)| exceeds
    eps_residual * (1 + max psi) is reported. The cocycle is divided by
    ``unit_scale`` first, so the result does not depend on the magnitude of
    b; ``max_defect`` is multiplied back by s^2. Near-zero policy: when
    max ||b(s)|| <= eps_residual, s = 1, and values that small normally
    fall under the rank cutoff and fail the totality check.
    """
    tol = tol or action.tol
    presentation = action.presentation
    if not is_free_abelian(presentation):
        raise ConstructionError("quadratic form test requires a free abelian presentation")
    window = int_at_least("window", window, 1, ConstructionError)
    k = presentation.num_generators
    s = unit_scale(tol, action)
    cocycle = Cocycle(
        action.rep,
        [b / s for b in action.cocycle.values],
        validate=False,
        relator_defects=tuple(r / s for r in action.cocycle.relator_defects),
    )
    if not _spans(cocycle.values, action.dim, tol):
        raise ConstructionError("cocycle values do not span the space (totality fails)")

    reach = 2 * window
    psi = _psi_grid(cocycle, k, reach).ravel()
    scale = float(psi.max())
    inner = np.array(list(itertools.product(range(-window, window + 1), repeat=k)))
    size = np.abs(inner)
    # nearest the origin first: by max |x|, then sum |x|, then -x
    inner = inner[np.lexsort(np.vstack([-inner[:, ::-1].T, size.sum(axis=1), size.max(axis=1)]))]
    # flat index of x in the grid is centre + x . strides, so x + y and x - y
    # are index sums and differences
    strides = (2 * reach + 1) ** np.arange(k - 1, -1, -1)
    offsets = inner @ strides
    rows = reach * int(strides.sum()) + offsets
    psi_y = psi[rows]
    block = max(1, _SCAN_BLOCK_ELEMENTS // len(offsets))
    max_defect = 0.0
    for start in range(0, len(rows), block):
        fx = rows[start : start + block, None]
        defect = np.abs(psi[fx + offsets] + psi[fx - offsets] - 2.0 * (psi[fx] + psi_y))
        failed = ~residual_ok(defect, scale, tol.eps_residual)  # NaN fails too
        if failed.any():
            # the flat argmax is the first failing row's first failing column
            i, j = np.unravel_index(np.argmax(failed), failed.shape)
            pair = (tuple(inner[start + i].tolist()), tuple(inner[j].tolist()))
            return QuadraticFormResult(False, pair, window, float(defect[i, j]) * s**2)
        max_defect = max(max_defect, float(defect.max()))
    return QuadraticFormResult(True, None, window, max_defect * s**2)


_HEISENBERG_CLASS = "heisenberg"
_ABELIAN_CLASS = "abelian"


def _is_heisenberg_shaped(presentation: GroupPresentation) -> bool:
    """Three generators x, y, z with [x,y] = z central.

    Matches relator sets of the form {[x,y]z^-1 or z^-1... , [x,z], [y,z]}
    up to generator order: one relator expressing a commutator of two
    generators as a third, plus commutators making the third central.
    """
    if presentation.num_generators != 3:
        return False
    central_pairs = set()
    bracket: tuple[int, int, int] | None = None
    for relator in presentation.relators:
        pair = _commutator_pair(relator)
        if pair is not None:
            central_pairs.add(pair)
            continue
        if len(relator.letters) != 5:
            return False
        (g0, s0), (g1, s1), (g2, s2), (g3, s3), (g4, s4) = relator.letters
        if g0 == g2 and g1 == g3 and s0 == -s2 and s1 == -s3 and s4 == -1 and g4 not in (g0, g1):
            if bracket is not None:
                return False
            bracket = (g0, g1, g4)
            continue
        return False
    if bracket is None:
        return False
    z = bracket[2]
    needed = {tuple(sorted((z, g))) for g in range(3) if g != z}
    return needed <= central_pairs


def fixture_class(presentation: GroupPresentation) -> str | None:
    if is_free_abelian(presentation):
        return _ABELIAN_CLASS
    if _is_heisenberg_shaped(presentation):
        return _HEISENBERG_CLASS
    return None


def check_translation_characterization(
    action: AffineAction, class_tag: str, tol: ToleranceProfile | None = None
) -> PropertyReport:
    """Irreducible abelian/nilpotent actions are spanning translation actions.

    Refuses presentations outside the recognized fixture classes (free
    abelian; Heisenberg-shaped for the nilpotent tag). For a reducible
    action the conclusion is vacuous and reported as such.
    """
    tol = tol or action.tol
    tag = class_tag.lower()
    if tag not in (_ABELIAN_CLASS, "nilpotent"):
        raise ConstructionError(f"class tag must be 'abelian' or 'nilpotent', got {class_tag!r}")
    cls = fixture_class(action.presentation)
    if cls is None or (tag == _ABELIAN_CLASS and cls != _ABELIAN_CLASS):
        raise ConstructionError(
            f"presentation is not in the {class_tag} fixture class; the characterization does not apply"
        )
    verdict = decide_irreducibility(action, tol)
    if verdict.reducible:
        return PropertyReport(
            "translation-characterization",
            (PropertyCheck("vacuous", True, "action is reducible; nothing to check"),),
        )
    checks = []
    worst = max(
        (frobenius(m - np.eye(action.dim)) for m in action.rep.matrices), default=0.0
    )
    checks.append(
        PropertyCheck(
            "linear-part-trivial",
            residual_ok(worst, 1.0, tol.eps_residual),
            f"max generator deviation from identity {worst:.3e}",
        )
    )
    checks.append(PropertyCheck("cocycle-spans", _spans(action.cocycle.values, action.dim, tol)))
    return PropertyReport("translation-characterization", tuple(checks))


@dataclass(frozen=True)
class ProbeResult:
    point: tuple[float, ...]
    hull_distance: float


@dataclass(frozen=True)
class OrbitHullReport:
    """Monte-Carlo evidence about the convex hull of one orbit.

    Each distance is the exact distance from a probe to the convex hull of
    the sampled orbit (Wolfe's min-norm-point method, up to roundoff). The
    sample is random, so the distances are evidence only; they never prove
    that orbits are enveloping.
    """

    orbit_size: int
    probes: tuple[ProbeResult, ...]

    @property
    def max_distance(self) -> float:
        return max((p.hull_distance for p in self.probes), default=0.0)

    @property
    def mean_distance(self) -> float:
        return float(np.mean([p.hull_distance for p in self.probes])) if self.probes else 0.0


# Wolfe's stop rule: a target is done when ||x||^2 - <x, y_s> <= _HULL_STOP *
# max_j ||y_j||^2, with x its nearest point so far and y_s the best vertex,
# both taken relative to the target at unit scale; and a safety cap on the
# major cycles of one target (the method ends in finitely many, 3-12 on
# orbit clouds)
_HULL_STOP = 1e-12
_HULL_MAJOR_CYCLES = 256


def _hull_distances(points: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Distance from each target to conv(points) (see ``_min_norm_points``)."""
    return _min_norm_points(points, targets)[0]


def _min_norm_points(points: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Wolfe's min-norm-point method for every target: (distances, corral, weights).

    P. Wolfe, "Finding the nearest point in a polytope", Math. Programming
    11 (1976). Relative to a target q the vertices are y_j = p_j - q, and
    x = sum_k w_k y_k is a convex combination of a *corral* of at most d + 1
    affinely independent vertices. A major cycle scores every vertex by
    <x, y_j> (one (active targets) x (points) matrix for all targets), stops
    the target by ``_HULL_STOP``, when the best vertex is already in its
    corral, or at ``_HULL_MAJOR_CYCLES``, and otherwise adds that vertex. A
    minor cycle solves, for every target that needs one at once, the KKT
    system [[Y Y^T, 1], [1^T, 0]] of the corral's affine minimizer (empty
    slots of the padded (n, d + 2) corral are identity rows); when a weight
    is <= 0 it steps back to the boundary of the corral and drops the vertex
    that reached it. The problem is solved at unit scale (centred on the
    middle of the bounding box of points and targets, divided by its largest
    half-width), so the Gram matrices neither overflow nor underflow and the
    distances are equivariant under (P, Q) -> (lam P + c, lam Q + c).

    Row i of ``corral`` (point indices) and ``weights`` (0 on empty slots)
    gives the nearest point sum_k weights[i, k] points[corral[i, k]].
    """
    n, d = targets.shape
    corral = np.zeros((n, d + 2), dtype=np.intp)
    weights = np.zeros((n, d + 2))
    weights[:, 0] = 1.0
    if not n:
        return np.zeros(0), corral, weights
    lo = np.minimum(points.min(axis=0), targets.min(axis=0)) / 2
    hi = np.maximum(points.max(axis=0), targets.max(axis=0)) / 2
    scale = float(np.max(hi - lo, initial=0.0))
    if not scale > 0.0:
        return np.zeros(n), corral, weights
    points = points - (lo + hi)
    points /= scale
    targets = targets - (lo + hi)
    targets /= scale
    # squared distances |p - q|^2 by expansion: the start vertex and the stop scale
    sq = targets @ points.T
    sq *= -2.0
    sq += np.einsum("ij,ij->i", targets, targets)[:, None]
    sq += np.einsum("ij,ij->i", points, points)
    tol = _HULL_STOP * sq.max(axis=1)
    corral[:, 0] = np.argmin(sq, axis=1)
    del sq
    inside = np.zeros((n, d + 2), dtype=bool)
    inside[:, 0] = True
    nearest = points[corral[:, 0]] - targets
    active = np.arange(n)
    for _ in range(_HULL_MAJOR_CYCLES):
        x = nearest[active]
        # <x, p_j - q> = <x, p_j> - <x, q>, and <x, q> does not move the argmin
        best = np.argmin(x @ points.T, axis=1)
        gap = np.einsum("ij,ij->i", x, x - (points[best] - targets[active]))
        known = ((corral[active] == best[:, None]) & inside[active]).any(axis=1)
        go = (gap > tol[active]) & ~known
        active, best = active[go], best[go]
        if not active.size:
            break
        slot = np.argmin(inside[active], axis=1)
        corral[active, slot] = best
        inside[active, slot] = True
        _minor_cycles(points, targets, corral, weights, inside, active)
        vertices = points[corral[active]] - targets[active, None, :]
        nearest[active] = np.einsum("ik,ikj->ij", weights[active], vertices)
    return np.linalg.norm(nearest, axis=1) * scale, corral, weights


def _minor_cycles(points, targets, corral, weights, inside, rows) -> None:
    """Wolfe's minor cycles for the given rows, updating their corrals in place.

    Each pass solves the affine minimizers of all rows still in the loop
    with one batched solve. A row whose minimizer has positive weights on
    its whole corral takes them and leaves; the others move from their
    convex weights toward the minimizer until a weight reaches 0, drop that
    vertex (and any other weight that is not positive) and go round again.
    """
    k = corral.shape[1]
    diag = np.arange(k)
    while rows.size:
        mask = inside[rows]
        vertices = points[corral[rows]] - targets[rows, None, :]
        kkt = np.zeros((rows.size, k + 1, k + 1))
        kkt[:, :k, :k] = vertices @ vertices.transpose(0, 2, 1)
        kkt[:, :k, :k] *= mask[:, :, None] & mask[:, None, :]
        kkt[:, diag, diag] += ~mask
        kkt[:, :k, k] = mask
        kkt[:, k, :k] = mask
        rhs = np.zeros((rows.size, k + 1, 1))
        rhs[:, k] = 1.0
        affine = np.linalg.solve(kkt, rhs)[:, :k, 0]
        low = mask & (affine <= 0.0)
        done = ~low.any(axis=1)
        weights[rows[done]] = np.where(mask[done], affine[done], 0.0)
        rows, affine, low = rows[~done], affine[~done], low[~done]
        current = weights[rows]
        # the step theta = min w_i / (w_i - a_i) over the weights a_i <= 0; a
        # zero denominator means w_i = a_i = 0, a step of 0
        step = current - affine
        ratio = np.divide(current, step, out=np.zeros_like(current), where=step > 0.0)
        ratio[~low] = np.inf
        blocking = np.argmin(ratio, axis=1)
        theta = ratio[np.arange(rows.size), blocking][:, None]
        current = theta * affine + (1.0 - theta) * current
        current[np.arange(rows.size), blocking] = 0.0
        inside[rows] &= current > 0.0
        weights[rows] = np.where(inside[rows], current, 0.0)


def _probe_grid(dim: int, radius: float, rng: np.random.Generator) -> np.ndarray:
    """The probes in the ball of ``radius``: the 5-point lattice per axis for
    ``dim <= 3``, else 200 uniform random points. The ball is tested at unit
    scale, so no squared coordinate overflows or underflows."""
    axis = np.linspace(-radius, radius, 5)
    if dim <= 3:
        grid = np.array(list(itertools.product(axis, repeat=dim)))
    else:
        grid = rng.standard_normal((200, dim))
        grid *= radius * rng.random((200, 1)) ** (1.0 / dim) / np.linalg.norm(grid, axis=1, keepdims=True)
    return grid[np.linalg.norm(grid / radius, axis=1) <= 1.0 + 1e-12]


def orbit_hull_probe(
    action: AffineAction,
    origin,
    budget: int = 200,
    radius: float = 5.0,
    seed: int | None = 0,
    max_word_length: int = 12,
) -> OrbitHullReport:
    """Sample the orbit of a point and measure probe distances to its hull.

    Irreducible finite-dimensional real actions have enveloping orbits, so
    persistent positive distances inside the sampled ball are (Monte-Carlo)
    evidence of reducibility; small distances everywhere are evidence the
    hull fills the ball. The probes lie in the ball of ``radius`` about the
    origin, so the radius must be positive and the probe axis
    ``linspace(-radius, radius, 5)`` finite (a radius above about 4.5e307
    overflows it). ``max_word_length`` is a non-negative integer; at 0 every
    orbit point is the origin.

    The generator seeded by ``seed`` draws every word first, in three calls
    (``_orbit_cloud``), and then, for ``dim > 3``, the random probe grid;
    for ``dim <= 3`` the grid is the fixed 5-point lattice per axis. Each
    probe's distance to the hull of the whole sample is solved exactly by
    ``_hull_distances``.
    """
    if action.field != REAL:
        raise ConstructionError("orbit probe is defined for real actions")
    budget = int_at_least("budget", budget, 1, ConstructionError)
    max_word_length = int_at_least("max_word_length", max_word_length, 0, ConstructionError)
    with np.errstate(over="ignore", invalid="ignore"):
        axis_finite = np.isfinite(np.linspace(-radius, radius, 5)).all()
    if not (radius > 0 and axis_finite):
        raise ConstructionError(f"radius must be > 0 with a finite probe axis, got {radius}")
    origin = as_field_array(origin, REAL)
    if origin.shape != (action.dim,):
        raise ConstructionError(f"origin has shape {origin.shape}, expected ({action.dim},)")
    rng = np.random.default_rng(seed)
    cloud = _orbit_cloud(action, origin, budget, rng, max_word_length)
    grid = _probe_grid(action.dim, radius, rng)
    probes = tuple(
        ProbeResult(tuple(float(c) for c in q), float(dist))
        for q, dist in zip(grid, _hull_distances(cloud, grid))
    )
    return OrbitHullReport(len(cloud), probes)


def _orbit_cloud(
    action: AffineAction, origin: np.ndarray, budget: int, rng: np.random.Generator, max_word_length: int
) -> np.ndarray:
    """The origin, then its images under ``budget`` random words.

    Each word has a uniform length in [0, max_word_length] and uniform
    letters. The whole budget is drawn in three generator calls, in this
    order: every length, then every letter's generator, then every letter's
    inversion (``random() < 0.5``); the letters fill the words row by row.
    The words are freely reduced by ``_free_reduce_codes`` and walked in
    blocks of at most ``_ORBIT_BLOCK_ELEMENTS`` prefix elements, together
    by letter position: the rows sharing a letter take one stacked
    ``Cocycle.step``, so each point has the bits of
    ``action.evaluate(word)(origin)``.
    """
    g = action.presentation.num_generators
    d = action.dim
    lengths = rng.integers(0, max_word_length + 1, size=budget)
    total = int(lengths.sum())
    # letter (gen, sign) as code 2 gen + (sign < 0); -1 past the word's end;
    # the smallest signed type that holds every code and -2
    codes = np.full((budget, max_word_length), -1, dtype=np.min_scalar_type(-2 * g - 2))
    if g and total:
        letters = rng.integers(0, g, size=total)
        letters *= 2
        letters += rng.random(total) < 0.5
        codes[np.arange(max_word_length) < lengths[:, None]] = letters
    codes = _free_reduce_codes(codes)
    cloud = np.empty((budget + 1, d))
    cloud[0] = origin
    block = max(1, _ORBIT_BLOCK_ELEMENTS // d**2)
    for start in range(0, budget, block):
        n = min(block, budget - start)
        values = np.zeros((n, d))
        prefixes = np.tile(np.eye(d), (n, 1, 1))
        for column in codes[start : start + n].T:
            for code in range(2 * g):
                rows = np.flatnonzero(column == code)
                if rows.size:
                    gen, inverse = divmod(code, 2)
                    values[rows], prefixes[rows] = action.cocycle.step(
                        values[rows], prefixes[rows], gen, -1 if inverse else 1
                    )
        cloud[1 + start : 1 + start + n] = prefixes @ origin + values
    return cloud


def _free_reduce_codes(codes: np.ndarray) -> np.ndarray:
    """Free reduction of every row of a letter-code array, as ``Word`` reduces.

    Codes are ``2 gen + inverse``, so a letter's inverse is ``code ^ 1``;
    -1 pads each row past its word. One pass over the columns keeps a stack
    per row: a letter equal to ``top ^ 1`` pops the stack, any other letter
    is pushed. The reduced words come back left-aligned and padded with -1.
    """
    n, width = codes.shape
    # column 0 is a sentinel (-2 ^ 1 = -1 never equals a letter); top indexes the top letter
    stack = np.full((n, width + 1), -2, dtype=codes.dtype)
    top = np.zeros(n, dtype=np.intp)
    rows = np.arange(n)
    for column in codes.T:
        letter = column >= 0
        pop = letter & (column == stack[rows, top] ^ 1)
        push = letter & ~pop
        top += push
        top -= pop
        stack[rows[push], top[push]] = column[push]
    return np.where(np.arange(width) < top[:, None], stack[:, 1:], -1)
