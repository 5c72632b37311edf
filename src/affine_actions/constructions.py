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

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .actions import AffineAction, decide_irreducibility, unit_scale
from .linalg import (
    REAL,
    ToleranceProfile,
    as_field_array,
    checked_seed,
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
# parallelogram scan (16384 scanned the k = 4, window = 2 and k = 3,
# window = 3 cubes faster than 4096 and 65536; a whole k = 4, window = 3
# scan peaks at 1.7 MB traced), and prefix elements per block of orbit words
# (a translation action's orbit words hold no prefixes and are not blocked)
_SCAN_BLOCK_ELEMENTS = 16384
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
    """Action of the subgroup, over the free presentation on its generators.

    The restriction keeps the action's profile and inherits its validity,
    as ``project_action`` does: its generators are words of a valid action,
    whose isometry defects grow with the word length (a square doubles
    them), so they are not held to bounds of their own. A free presentation
    has no relators, so there is nothing else to check.
    """
    if sub.ambient != action.presentation:
        raise ConstructionError("subgroup spec targets a different presentation")
    if sub.presentation is not None:
        names = sub.presentation.generators
    else:
        names = tuple(f"h{i}" for i in range(len(sub.generator_words)))
    free = free_presentation(names)
    maps = [action.evaluate(w) for w in sub.generator_words]
    linear = [m.linear for m in maps]
    rep = Representation(free, action.field, linear, dim=action.dim, tol=action.tol, validate=False)
    return AffineAction(rep, Cocycle(rep, [m.translation for m in maps], validate=False))


def induce_action(action: AffineAction, setup: InducedSetup) -> AffineAction:
    """Induce a subgroup action to the ambient group along a coset table.

    Generator s sends the block at coset y to coset sigma_s(y), twisted by
    the subgroup element u_{s,y} = t_{sigma_s(y)}^-1 s t_y evaluated in the
    subgroup action; the induced cocycle places b(u_{s,y}) in the target
    block. Ambient relator residuals of the result validate the Schreier
    words: bad table data fails representation or cocycle construction.
    The induced representation keeps the action's profile.
    """
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
    rep = Representation(setup.ambient, action.field, matrices, dim=n * d, tol=action.tol)
    return AffineAction.from_values(rep, values)


def check_restriction_theorem(
    action: AffineAction,
    sub: SubgroupSpec,
    index_certificate: CosetTable,
) -> PropertyReport:
    """Irreducibility must survive restriction to a finite-index subgroup.

    The coset table only serves as a finite-index certificate here; its
    combinatorial invariants are checked, the Schreier words are not used.
    """
    checks = []
    table_report = validate_coset_table(sub.ambient, index_certificate)
    checks.append(
        PropertyCheck(
            "index-certificate",
            table_report.passed,
            "" if table_report.passed else ", ".join(c.name for c in table_report.failures()),
        )
    )
    ambient_verdict = decide_irreducibility(action)
    checks.append(
        PropertyCheck(
            "ambient-irreducible",
            ambient_verdict.irreducible,
            "" if ambient_verdict.irreducible else "restriction theorem needs an irreducible input",
        )
    )
    if ambient_verdict.irreducible:
        restricted = restrict_action(action, sub)
        verdict = decide_irreducibility(restricted)
        detail = ""
        if verdict.reducible:
            detail = (
                "restricted action reducible; witness deviation norm "
                f"{max(p.deviation_norm for p in verdict.commutant):.3e}"
            )
        checks.append(PropertyCheck("restriction-irreducible", verdict.irreducible, detail))
    return PropertyReport("finite-index-restriction", tuple(checks))


def check_center_translations(action: AffineAction, central_words) -> PropertyReport:
    """Central elements of an irreducible action translate along the fixed space.

    Each word must first commute with every generator at the representation
    level; failing that is a precondition error for that word.
    """
    tol = action.tol
    presentation = action.presentation
    words = [w if isinstance(w, Word) else presentation.parse_word(w) for w in central_words]
    checks = []
    verdict = decide_irreducibility(action)
    checks.append(
        PropertyCheck(
            "action-irreducible",
            verdict.irreducible,
            "" if verdict.irreducible else "center check applies to irreducible actions",
        )
    )
    fixed = fixed_subspace(action.rep)
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


def _squared_norms(values: np.ndarray) -> np.ndarray:
    """The row dot ``v . v`` of each ``v`` along the last axis (of its real
    and imaginary parts, summed, for complex ``v``), in an array of shape
    ``values.shape[:-1]``: each is the BLAS dot of one ``v @ v``.
    """
    def dots(x):
        return (x[..., None, :] @ x[..., :, None])[..., 0, 0]

    return dots(values.real) + dots(values.imag) if np.iscomplexobj(values) else dots(values)


def _powers(cocycle: Cocycle, values: np.ndarray, prefixes: np.ndarray, gen: int, reach: int):
    """(columns, b, pi) of every state times s^p for p in [-reach, reach].

    ``columns`` is p + reach: one column, with ``b`` of shape ``(n, d)`` and
    ``pi`` of shape ``(n, d, d)``, or an array of m columns (a run), with
    ``b`` of shape ``(n, m, d)`` and ``pi`` broadcasting to ``(n, m, d, d)``.
    A generator with pi(s) exactly I leaves every prefix as it is, so each
    power adds the same pi(w) b(s^+-1) = +-pi(w) b(s) (pi(s)* b(s) = b(s)):
    ``prefixes @ b(s)`` is formed once, and each side's layers, p = 0
    included, are one run built by ``np.cumsum``, which adds in the order
    the steps do; the prefixes are passed on as they are. The values match
    ``Cocycle.step``'s up to the sign of a zero, which no squared norm
    sees. Any other generator takes one stacked ``Cocycle.step`` per power,
    one column at a time, and only its current layer is held.
    """
    m = cocycle.representation.matrices[gen]
    if not np.array_equal(m, np.eye(len(m))):
        yield reach, values, prefixes
        for sign in (1, -1):
            v, p = values, prefixes
            for power in range(1, reach + 1):
                v, p = cocycle.step(v, p, gen, sign)
                yield reach + sign * power, v, p
        return
    term = prefixes @ cocycle.values[gen]
    # the term each step adds on each side; both runs start at the base layer
    for sign, step in ((1, term), (-1, -term)):
        layers = np.empty((len(values), reach + 1, values.shape[1]), dtype=values.dtype)
        layers[:, 0] = values
        layers[:, 1:] = step[:, None]
        np.cumsum(layers, axis=1, out=layers)
        yield reach + sign * np.arange(reach + 1), layers, prefixes[:, None]


def _psi_grid(cocycle: Cocycle, k: int, reach: int) -> np.ndarray:
    """psi(x) = ||b(x)||^2 on the cube [-reach, reach]^k, indexed by x + reach.

    The word of x is t1^x1 ... tk^xk. The grid is filled one coordinate at a
    time: the states (b(w), pi(w)) of all points of the first j coordinates
    take their powers of t_{j+1} together (``_powers``), so each point costs
    one row of one stacked ``Cocycle.step``, or for a generator with
    pi(s) = I one term of a running sum, in the order ``Cocycle.extend``
    applies them. The last coordinate reduces each column or run to squared
    norms as it is made, with one ``_squared_norms`` call each: at most
    (2 reach + 1)^(k-1) prefixes are alive at once, and for a translation
    generator last, one side's (reach + 1) values per prefix.
    """
    rep = cocycle.representation
    side = 2 * reach + 1
    values = np.zeros((1, rep.dim), dtype=rep.dtype)
    prefixes = np.eye(rep.dim, dtype=rep.dtype)[None]
    for gen in range(k - 1):
        next_values = np.empty((len(values), side, rep.dim), dtype=rep.dtype)
        next_prefixes = np.empty((len(values), side, rep.dim, rep.dim), dtype=rep.dtype)
        for columns, v, p in _powers(cocycle, values, prefixes, gen, reach):
            next_values[:, columns], next_prefixes[:, columns] = v, p
        values = next_values.reshape(-1, rep.dim)
        prefixes = next_prefixes.reshape(-1, rep.dim, rep.dim)
    psi = np.empty((len(values), side))
    for columns, v, _ in _powers(cocycle, values, prefixes, k - 1, reach):
        psi[:, columns] = _squared_norms(v)
    return psi.reshape((side,) * k)


def quadratic_form_test(action: AffineAction, window: int = 3) -> QuadraticFormResult:
    """Check ||b(.)||^2 for the parallelogram identity on a free-abelian group.

    Requires the cocycle values to span the whole space (totality); under
    that hypothesis the identity holds on the lattice iff the action is
    irreducible, which is what the accompanying property suite asserts.

    The pairs (x, y) of [-window, window]^k are scanned row by row in a fixed
    order (nearest the origin first, ``_scan_order``) and the first pair
    whose defect |psi(x+y) + psi(x-y) - 2 psi(x) - 2 psi(y)| exceeds
    eps_residual * (1 + max psi) is reported, the max over the finite psi,
    so that a NaN or infinite psi fails the first pair that reads it. The
    rows go in blocks of about ``_SCAN_BLOCK_ELEMENTS`` defects, each block
    decided by its largest defect; only a failing block is searched, for
    its first failing pair, and the passing blocks' largest defects give
    ``max_defect``. The cocycle is divided by
    ``unit_scale`` first, so the result does not depend on the magnitude of
    b; ``max_defect`` is multiplied back by s^2. Near-zero policy: when
    max ||b(s)|| <= eps_residual, s = 1, and values that small normally
    fall under the rank cutoff and fail the totality check.
    """
    tol = action.tol
    presentation = action.presentation
    if not is_free_abelian(presentation):
        raise ConstructionError("quadratic form test requires a free abelian presentation")
    window = int_at_least("window", window, 1, ConstructionError)
    k = presentation.num_generators
    s = unit_scale(action)
    cocycle = Cocycle(action.rep, [b / s for b in action.cocycle.values], validate=False)
    if not _spans(cocycle.values, action.dim, tol):
        raise ConstructionError("cocycle values do not span the space (totality fails)")

    reach = 2 * window
    psi = _psi_grid(cocycle, k, reach).ravel()
    scale = float(psi.max(where=np.isfinite(psi), initial=0.0))
    inner = _scan_order(k, window)
    # flat index of x in the grid is centre + x . strides, so x + y and x - y
    # are index sums and differences
    strides = (2 * reach + 1) ** np.arange(k - 1, -1, -1)
    offsets = inner @ strides
    rows = reach * int(strides.sum()) + offsets
    psi_y = psi.take(rows)
    block = max(1, _SCAN_BLOCK_ELEMENTS // len(offsets))
    max_defect = 0.0
    for start in range(0, len(rows), block):
        fx = rows[start : start + block, None]
        # |psi(x+y) + psi(x-y) - 2 (psi(x) + psi(y))|, added in that order
        defect = psi.take(fx + offsets)
        defect += psi.take(fx - offsets)
        twice = psi.take(fx) + psi_y
        twice *= 2.0
        defect -= twice
        np.abs(defect, out=defect)
        worst = float(defect.max())
        if not residual_ok(worst, scale, tol.eps_residual):  # NaN fails too
            failed = ~residual_ok(defect, scale, tol.eps_residual)
            # the flat argmax is the first failing row's first failing column
            i, j = np.unravel_index(np.argmax(failed), failed.shape)
            pair = (tuple(inner[start + i].tolist()), tuple(inner[j].tolist()))
            return QuadraticFormResult(False, pair, window, float(defect[i, j]) * s**2)
        max_defect = max(max_defect, worst)
    return QuadraticFormResult(True, None, window, max_defect * s**2)


@functools.lru_cache(maxsize=32)
def _scan_order(k: int, window: int) -> np.ndarray:
    """The points of [-window, window]^k nearest the origin first: by max |x|,
    then sum |x|, then -x; one read-only array per (k, window), shared by
    every scan."""
    inner = np.array(list(itertools.product(range(-window, window + 1), repeat=k)))
    size = np.abs(inner)
    inner = inner[np.lexsort(np.vstack([-inner[:, ::-1].T, size.sum(axis=1), size.max(axis=1)]))]
    inner.setflags(write=False)
    return inner


def _is_heisenberg_shaped(presentation: GroupPresentation) -> bool:
    """Three generators x, y, z with [x,y] = z central.

    Matches relator sets of the form {[x,y] z^-1, [x,z], [y,z]} up to
    generator order: one relator expressing a commutator of two generators
    as a third, plus commutators making the third central.
    """
    if presentation.num_generators != 3:
        return False
    central_pairs = set()
    z = None
    for relator in presentation.relators:
        pair = _commutator_pair(relator)
        if pair is not None:
            central_pairs.add(pair)
            continue
        # [x, y] z^-1: a commutator on the first four letters (a prefix of a
        # reduced word is reduced), then the inverse of the third generator
        pair = _commutator_pair(Word(relator.letters[:4]))
        if pair is None or len(relator) != 5 or z is not None:
            return False
        z, sign = relator.letters[4]
        if sign != -1 or z in pair:
            return False
    return z is not None and {tuple(sorted((z, g))) for g in range(3) if g != z} <= central_pairs


def check_translation_characterization(action: AffineAction) -> PropertyReport:
    """Irreducible nilpotent actions are spanning translation actions.

    Applies to the recognized nilpotent fixture classes, free abelian and
    Heisenberg-shaped presentations, read off the action's presentation;
    any other presentation is refused with ConstructionError. For a
    reducible action the conclusion is vacuous and reported as such.
    """
    if not (is_free_abelian(action.presentation) or _is_heisenberg_shaped(action.presentation)):
        raise ConstructionError(
            "presentation is not in the nilpotent fixture class; the characterization does not apply"
        )
    verdict = decide_irreducibility(action)
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
            residual_ok(worst, 1.0, action.tol.eps_residual),
            f"max generator deviation from identity {worst:.3e}",
        )
    )
    checks.append(PropertyCheck("cocycle-spans", _spans(action.cocycle.values, action.dim, action.tol)))
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
    <x, y_j> (one (running targets) x (points) matrix for all targets), stops
    the target by ``_HULL_STOP``, when the best vertex is already in its
    corral, or at ``_HULL_MAJOR_CYCLES``, and otherwise adds that vertex; the
    minor cycles (``_minor_cycles``) then move its weights. Each running
    target keeps its corral's vertices ``(d + 2, d)`` and their bordered Gram
    from one major cycle to the next: an added vertex takes the first empty
    slot and writes one row and column of the Gram (one matrix-vector
    product), and a dropped one stays in its slot, unread, until it is
    overwritten. The running targets' corral, weights, mask, vertices, Gram,
    nearest points and targets are kept compacted: a target that stops
    writes its row to the result once and leaves the arrays. The problem is
    solved at unit scale (centred on the middle of the bounding box of
    points and targets, divided by its largest half-width), so the Gram
    matrices neither overflow nor underflow and the distances are
    equivariant under (P, Q) -> (lam P + c, lam Q + c).

    Row i of ``corral`` (point indices) and ``weights`` (0 on empty slots)
    gives the nearest point sum_k weights[i, k] points[corral[i, k]].
    """
    n, d = targets.shape
    corral = np.zeros((n, d + 2), dtype=np.intp)
    weights = np.zeros((n, d + 2))
    weights[:, 0] = 1.0
    if not n:
        return np.zeros(0), corral, weights
    # the bounding box by one min and one max over contiguous coordinate rows
    box = np.concatenate((points.T, targets.T), axis=1)
    lo, hi = box.min(axis=1) / 2, box.max(axis=1) / 2
    del box
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
    nearest = points[corral[:, 0]] - targets
    # the running targets: row i is target ids[i], with its corral's vertices
    # y_k (stale on empty slots) and their bordered Gram [[Y Y^T, 1], [1^T, 0]]
    ids = np.arange(n)
    run_corral, run_weights, x = corral.copy(), weights.copy(), nearest.copy()
    inside = np.zeros((n, d + 2), dtype=bool)
    inside[:, 0] = True
    vertices = np.zeros((n, d + 2, d))
    vertices[:, 0] = nearest
    bordered = np.zeros((n, d + 3, d + 3))
    bordered[:, 0, 0] = np.einsum("ij,ij->i", nearest, nearest)
    bordered[:, : d + 2, d + 2] = 1.0
    bordered[:, d + 2, : d + 2] = 1.0
    for _ in range(_HULL_MAJOR_CYCLES):
        # <x, p_j - q> = <x, p_j> - <x, q>, and <x, q> does not move the argmin
        best = np.argmin(x @ points.T, axis=1)
        vertex = points[best] - targets
        gap = np.einsum("ij,ij->i", x, x - vertex)
        known = ((run_corral == best[:, None]) & inside).any(axis=1)
        go = (gap > tol) & ~known
        if not go.all():
            stop = ids[~go]
            corral[stop], weights[stop], nearest[stop] = run_corral[~go], run_weights[~go], x[~go]
            ids, run_corral, run_weights, inside, x, targets, tol, best, vertex, vertices, bordered = (
                a[go]
                for a in (ids, run_corral, run_weights, inside, x, targets, tol, best, vertex, vertices, bordered)
            )
            if not ids.size:
                break
        rows = np.arange(ids.size)
        slot = np.argmin(inside, axis=1)
        run_corral[rows, slot] = best
        inside[rows, slot] = True
        # the added vertex's row and column of the Gram, its own square included
        vertices[rows, slot] = vertex
        column = (vertices @ vertex[:, :, None])[:, :, 0]
        bordered[rows, : d + 2, slot] = column
        bordered[rows, slot, : d + 2] = column
        _minor_cycles(bordered, run_weights, inside)
        x = np.einsum("ik,ikj->ij", run_weights, vertices)
    corral[ids], weights[ids], nearest[ids] = run_corral, run_weights, x
    return np.linalg.norm(nearest, axis=1) * scale, corral, weights


def _minor_cycles(bordered: np.ndarray, weights: np.ndarray, inside: np.ndarray) -> None:
    """Wolfe's minor cycles for every row, updating its weights and corral mask in place.

    ``bordered`` is the ``(n, k + 1, k + 1)`` stack of each row's bordered
    Gram [[Y Y^T, 1], [1^T, 0]] over its k corral slots, which the caller
    keeps up to date; it is read, never written. A pass masks it to the
    row's current corral (empty slots become identity rows) and solves the
    KKT systems of the affine minimizers of all rows still in the loop with
    one batched solve. A row whose minimizer has positive weights on its
    whole corral takes them and leaves; the others move from their convex
    weights toward the minimizer until a weight reaches 0, drop that vertex
    (and any other weight that is not positive) and go round again.
    """
    n, k = inside.shape
    # one right-hand side, broadcast over the stack as a (1, k + 1, 1) matrix
    rhs = np.zeros((1, k + 1, 1))
    rhs[0, k] = 1.0
    identity = np.eye(k + 1, dtype=bool)
    rows = np.arange(n)
    # the mask with the border's slot, always set
    mask = np.ones((n, k + 1), dtype=bool)
    mask[:, :k] = inside
    current = weights.copy()
    while True:
        # an empty slot's row and column are those of the identity
        kkt = np.where(mask[:, :, None] & mask[:, None, :], bordered, identity)
        affine = np.linalg.solve(kkt, rhs)[:, :k, 0]
        low = mask[:, :k] & (affine <= 0.0)
        done = ~low.any(axis=1)
        weights[rows[done]] = np.where(mask[done, :k], affine[done], 0.0)
        inside[rows[done]] = mask[done, :k]
        if done.all():
            return
        rows, bordered, mask, current, affine, low = (
            a[~done] for a in (rows, bordered, mask, current, affine, low)
        )
        # the step theta = min w_i / (w_i - a_i) over the weights a_i <= 0; a
        # zero denominator means w_i = a_i = 0, a step of 0
        step = current - affine
        ratio = np.divide(current, step, out=np.zeros_like(current), where=step > 0.0)
        ratio[~low] = np.inf
        blocking = np.argmin(ratio, axis=1)
        theta = ratio[np.arange(rows.size), blocking][:, None]
        current = theta * affine + (1.0 - theta) * current
        current[np.arange(rows.size), blocking] = 0.0
        mask[:, :k] &= current > 0.0
        current = np.where(mask[:, :k], current, 0.0)


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
    orbit point is the origin. ``seed`` is None or a non-negative integer
    (``linalg.checked_seed``).

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
    seed = checked_seed(seed, ConstructionError)
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
        ProbeResult(tuple(q), dist) for q, dist in zip(grid.tolist(), _hull_distances(cloud, grid).tolist())
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
    The words are not freely reduced (a letter next to its inverse gives
    the same group element), sorted by drawn length, longest first (stable),
    and walked together by letter position: the r words still walking at a
    position are the first r rows. ``shifts`` stacks b(s) and b(s^-1) = -pi(s)* b(s), by the
    product ``Cocycle.step`` forms, and ``mats`` pi(s) and pi(s)*, both
    ``(2g, ...)`` stacks formed for this call only. When every pi(s) is
    exactly I (a translation action) a position is one gathered add,
    ``values[:r] += shifts[codes]``, and the points are ``origin + values``.
    Otherwise the words go in blocks of at most ``_ORBIT_BLOCK_ELEMENTS``
    prefix elements, and a position is one gathered step,
    ``values[:r] + prefixes[:r] @ shifts[codes]`` and
    ``prefixes[:r] @ mats[codes]``, each row the BLAS product of its own
    step. Either way each point has the bits of ``pi(w) origin + b(w)``
    walked by one ``Cocycle.step`` per drawn letter from (0, I): ``I @ x``
    is ``x`` up to the sign of a zero, and a sum from +0 never ends on -0.
    """
    g = action.presentation.num_generators
    d = action.dim
    lengths = rng.integers(0, max_word_length + 1, size=budget)
    total = int(lengths.sum())
    # letter (gen, sign) as code 2 gen + (sign < 0); -1 past the word's end;
    # the smallest signed type that holds every code and -1
    codes = np.full((budget, max_word_length), -1, dtype=np.min_scalar_type(-2 * g - 1))
    if g and total:
        letters = rng.integers(0, g, size=total)
        letters *= 2
        letters += rng.random(total) < 0.5
        codes[np.arange(max_word_length) < lengths[:, None]] = letters
    # one row of letter codes per position, the words longest first
    order = np.argsort(-lengths, kind="stable")
    positions = np.ascontiguousarray(codes.take(order, axis=0).T)
    walking = (positions >= 0).sum(axis=1)
    # b of every letter, row 2 gen + inverse
    matrices = action.rep.matrices
    shifts = np.array([x for m, b in zip(matrices, action.cocycle.values) for x in (b, -(m.conj().T @ b))])
    shifts = shifts.reshape(2 * g, d)
    cloud = np.empty((budget + 1, d))
    cloud[0] = origin
    if all(np.array_equal(m, np.eye(d)) for m in matrices):
        values = np.zeros((budget, d))
        for column, r in zip(positions, walking.tolist()):
            if not r:
                break
            values[:r] += shifts.take(column[:r], axis=0)
        cloud[1 + order] = origin + values
        return cloud
    # pi of every letter, row 2 gen + inverse
    mats = np.array([x for m in matrices for x in (m, m.conj().T)]).reshape(2 * g, d, d)
    shifts = shifts[:, :, None]
    block = max(1, _ORBIT_BLOCK_ELEMENTS // d**2)
    for start in range(0, budget, block):
        n = min(block, budget - start)
        values = np.zeros((n, d, 1))
        prefixes = np.tile(np.eye(d), (n, 1, 1))
        for column, r in zip(positions[:, start : start + n], np.clip(walking - start, 0, n).tolist()):
            if not r:
                break
            letters = column[:r]
            values[:r] += prefixes[:r] @ shifts.take(letters, axis=0)
            prefixes[:r] = prefixes[:r] @ mats.take(letters, axis=0)
        cloud[1 + order[start : start + n]] = prefixes @ origin + values[:, :, 0]
    return cloud

