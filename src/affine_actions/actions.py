"""Affine isometric actions and the commutant-based irreducibility decision.

An affine action pairs a representation with a cocycle: g acts by
v -> pi(g)v + b(g). An affine map Av = Tv + t commutes with the whole action
iff, writing U = T - I,

    U pi(s) = pi(s) U   and   U b(s) = (pi(s) - I) t      for all generators s.

The action is irreducible exactly when every solution of this homogeneous
system has U = 0; in that case the solutions are precisely the translations
along the fixed space of the representation. When some solution has U != 0,
the U-parts of the solutions form a left ideal pi' p of the commutant, and
the minimal invariant affine subspace K = {z : p z + t_p = 0} is read off
one SVD of the stacked nonzero rows of every pair's U (see
``_kernel_subspace``). The witness is the nearest-point map onto K; both are
certified (see ``certify``) before being returned. The decision reads
only whether a stage-3 solution has U != 0 (``decide_irreducibility``);
the basis pairs are built and certified when first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    REAL,
    ToleranceProfile,
    as_field_array,
    checked_seed,
    frobenius,
    int_at_least,
    null_space_basis,
    numerical_rank,
    orthonormal_columns,
    random_vectors,
    residual_ok,
    solve_affine_system,
)
from .reps import (
    Cocycle,
    Representation,
    _block_diagonal,
    _copies,
    _generic_weights,
    _row_blocks,
    boundary_split,
    fixed_subspace,
    hom_basis,
    validity_report,
)
from .words import Word


class ActionError(ValueError):
    """Mismatched or invalid affine-action inputs."""


class WitnessError(ValueError):
    """A supplied witness fails its defining equations."""


class InternalCheckError(RuntimeError):
    """A certified result failed its own re-verification."""


@dataclass(frozen=True)
class AffineMap:
    """An affine transformation v -> linear @ v + translation."""

    linear: np.ndarray
    translation: np.ndarray

    def __post_init__(self) -> None:
        if self.linear.shape[0] != self.translation.shape[0]:
            raise ActionError("linear part and translation have mismatched dimensions")

    def __call__(self, point: np.ndarray) -> np.ndarray:
        return self.linear @ point + self.translation

    def compose(self, other: "AffineMap") -> "AffineMap":
        """self after other."""
        return AffineMap(self.linear @ other.linear, self.linear @ other.translation + self.translation)

    @property
    def deviation(self) -> np.ndarray:
        """U = T - I, the homogeneous unknown of the commutant system."""
        return self.linear - np.eye(self.linear.shape[0])


@dataclass(frozen=True)
class AffineSubspace:
    """base + span(directions); directions form an orthonormal column set."""

    base: np.ndarray
    directions: np.ndarray

    @property
    def dim(self) -> int:
        return self.directions.shape[1]

    @property
    def ambient_dim(self) -> int:
        return self.base.shape[0]

    def residual_of(self, point: np.ndarray) -> float:
        delta = point - self.base
        return float(np.linalg.norm(delta - self.directions @ (self.directions.conj().T @ delta)))

    def contains(self, point: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL) -> bool:
        return residual_ok(self.residual_of(point), float(np.linalg.norm(point)), tol.eps_residual)


class AffineAction:
    """A representation together with a cocycle on the same presentation."""

    def __init__(self, rep: Representation, cocycle: Cocycle) -> None:
        if cocycle.representation is not rep:
            raise ActionError("cocycle was built for a different representation")
        self.rep = rep
        self.cocycle = cocycle

    @classmethod
    def from_values(cls, rep: Representation, values) -> "AffineAction":
        return cls(rep, Cocycle(rep, values))

    @property
    def presentation(self):
        return self.rep.presentation

    @property
    def dim(self) -> int:
        return self.rep.dim

    @property
    def field(self) -> str:
        return self.rep.field

    @property
    def tol(self) -> ToleranceProfile:
        return self.rep.tol

    def evaluate(self, word: Word) -> AffineMap:
        """The map of a word, from one chain-rule walk (``Cocycle.walk``)."""
        value, linear = self.cocycle.walk(word)
        return AffineMap(linear, value)

    def generator_maps(self) -> list[AffineMap]:
        return [AffineMap(m, v) for m, v in zip(self.rep.matrices, self.cocycle.values)]

    def __repr__(self) -> str:
        return f"AffineAction(dim={self.dim}, field={self.field!r}, generators={self.presentation.generators})"


@dataclass(frozen=True)
class CommutantPair:
    """A basis solution (U, t) of the affine commutant system, held on its rows ``rows`` (all if None)."""

    deviation: np.ndarray
    translation: np.ndarray
    rows: slice | None = None

    def as_affine_map(self) -> AffineMap:
        rows, d = range(self.deviation.shape[1])[self.rows or slice(None)], self.deviation.shape[1]
        gap = (rows.start, d - rows.stop)
        return AffineMap(np.pad(self.deviation, (gap, (0, 0))) + np.eye(d), np.pad(self.translation, gap))

    @property
    def deviation_norm(self) -> float:
        return frobenius(self.deviation)


def cocycle_norm(*actions: AffineAction) -> float:
    """max ||b(s)|| over every generator value of the given actions (each
    cocycle's stored ``max_norm``)."""
    return max((a.cocycle.max_norm for a in actions), default=0.0)


def unit_scale(*actions: AffineAction) -> float:
    """The common scale s the cocycles are divided by before a solve.

    Dividing every cocycle by s = max ||b(s)|| conjugates each action by the
    dilation v -> v/s, so verdicts do not depend on the magnitude of b;
    translations and subspace base points found at unit scale are multiplied
    back by s. Near-zero policy: when max ||b(s)|| <= eps_residual (of the
    first action's profile, which several actions share) the cocycle is
    zero at the residual tolerance, s = 1 and the actions are solved
    unscaled.
    """
    s = cocycle_norm(*actions)
    return s if s > actions[0].tol.eps_residual else 1.0


def certification_scale(parts, *actions: AffineAction) -> float:
    """||U|| + ||t|| + max ||b(s)||, the scale of the certification bound.

    ``parts`` are the pieces of the certified map (for a subspace, its base
    point); the cocycle scale is taken over all given actions.
    """
    return sum(float(np.linalg.norm(p)) for p in parts) + cocycle_norm(*actions)


def certify(residual: float, parts, what: str, *actions: AffineAction) -> float:
    """Return ``residual`` if it meets the certification bound, else raise.

    The one bound for every result the library certifies is
    residual <= eps_residual * (1 + scale) with scale the
    ``certification_scale`` of the result's ``parts`` on the ``actions``
    (one, or the two an intertwiner joins) and eps_residual their common
    profile's, so the bound reads the same at every magnitude of the data.
    """
    if not residual_ok(residual, certification_scale(parts, *actions), actions[0].tol.eps_residual):
        raise InternalCheckError(f"{what} failed certification (residual {residual:.3e})")
    return residual


def _require_common_setting(a1: AffineAction, a2: AffineAction, what: str) -> None:
    """Refuse two actions that differ in presentation, field or tolerance
    profile, naming ``what`` needs them equal."""
    if a1.presentation != a2.presentation:
        raise ActionError(f"{what} requires identical presentations")
    if a1.field != a2.field:
        raise ActionError(f"{what} requires a common scalar field")
    if a1.tol != a2.tol:
        raise ActionError(f"{what} requires a common tolerance profile")


def _moved_values(ops: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The (g d2, n) matrix whose column j stacks T_j v(s) over the generators
    s, for a (n, d2, d) stack of operators T_j and (g, d) values v(s)."""
    return (ops @ values.T).transpose(2, 1, 0).reshape(len(values) * ops.shape[1], len(ops))


def _frame_scales(action: AffineAction) -> np.ndarray:
    """The diagonal of D^-1 for the frame D alpha D^-1 of stage 3: each
    coordinate carries the ``unit_scale`` s_i of its own copy's cocycle
    (``reps._copies``): D = diag(I/s_1, .., I/s_n), I/s for a plain action.
    Each s_i is one ``np.linalg.norm`` per generator, as a batched dot would
    round some differently and move the bits of every pair."""
    scales = np.empty(action.dim)
    for _, placements in _copies(action.rep):
        for rows in placements:
            norm = max((float(np.linalg.norm(b[rows])) for b in action.cocycle.values), default=0.0)
            scales[rows] = norm if norm > action.tol.eps_residual else 1.0
    return scales


@dataclass(frozen=True)
class SummandSolution:
    """Stage 3 of one distinct summand pi_i of ``affine_commutant``, held
    once for all its copies: the rows ``placements`` of each copy, the frame
    pairs (U', t') as a ``(k, d_i, d)`` stack ``deviations`` (frame-unit
    rows, every column of the sum) and ``(k, d_i)`` ``translations``, and
    the summand's fixed-space columns ``kernel`` ``(d_i, f)``."""

    placements: tuple[slice, ...]
    deviations: np.ndarray
    translations: np.ndarray
    kernel: np.ndarray


@dataclass(frozen=True, eq=False)
class AffineCommutant:
    """The solved commutant system of ``action``: its frame ``scales``
    (``_frame_scales``) and one ``SummandSolution`` per distinct summand.

    ``pairs`` and ``residuals`` are built on first read: the basis pairs,
    each certified on its rows, and the worst of their residuals
    (``worst_equation_defect``); a pair failing raises InternalCheckError
    there. ``moving`` (some pair has U != 0) and ``dimension`` read the
    solution and build no pair.
    """

    action: AffineAction
    scales: np.ndarray
    solutions: tuple[SummandSolution, ...]

    @property
    def moving(self) -> bool:
        return any(len(s.deviations) and s.deviations.any() for s in self.solutions)

    @property
    def dimension(self) -> int:
        """The number of ``pairs``, counted off the solution: each copy of a
        summand holds its k stage-3 pairs and its f fixed-space pairs."""
        return sum(len(s.placements) * (len(s.deviations) + s.kernel.shape[1]) for s in self.solutions)

    @property
    def pairs(self) -> tuple[CommutantPair, ...]:
        return self._certified[0]

    @property
    def residuals(self) -> dict[str, float]:
        return self._certified[1]

    @cached_property
    def _certified(self) -> tuple[tuple[CommutantPair, ...], dict[str, float]]:
        """The pairs in the order of ``affine_commutant``: every copy's
        stage-3 pairs, U = D^-1 U' D and t = D^-1 t' by distinct summand,
        then every copy's (0, D^-1 f); and the worst residual."""
        action, scales = self.action, self.scales
        pairs = [
            CommutantPair(v, t, rows)
            for s in self.solutions
            for rows in s.placements
            for v, t in zip(s.deviations * (scales[rows, None] / scales), scales[rows] * s.translations)
        ]
        pairs += [
            CommutantPair(np.zeros((len(f), action.dim), action.rep.dtype), scales[rows] * f, rows)
            for s in self.solutions
            for rows in s.placements
            for f in s.kernel.T
        ]
        residuals = [
            certify(commutant_residual(action, p), (p.deviation, p.translation), "commutant basis element", action)
            for p in pairs
        ]
        return tuple(pairs), {"worst_equation_defect": max(residuals, default=0.0)}


def affine_commutant(action: AffineAction) -> AffineCommutant:
    """The solution space {(U, t)} of the commutant system, solved.

    The full affine commutant of the action is { v -> (I+U)v + t } over the
    span of its ``pairs``. It is solved through the affine Schur lemma
    (U in the commutant pi', U b a coboundary) in three stages (README "How
    the commutant is solved"): pi' = span U_j (``commutant_basis``) and the
    boundary map B (``boundary_split``) once per representation, then per
    cocycle the x with [U_j b]_j x in range(B), with t = B+ U b, and the
    pairs (0, f) for f in the fixed space. Stage 3 is solved in the frame
    D alpha D^-1 of ``_frame_scales``: D commutes with pi, so the cocycle
    becomes D b, each copy's part at unit scale, and the pairs (U', t') map
    back by U = D^-1 U' D, t = D^-1 t' (U = U', t = s t' for D = I/s). The
    basis is orthonormal in the frame, in (vec D U D^-1, D t).

    Stage 3 splits by row block, as B^1 of a direct sum is the sum of its
    summands' B^1: each distinct summand's row block (``reps._row_blocks``)
    is solved once against its ``boundary_split`` and orthonormalized on its
    own. The result keeps that solution once per distinct summand
    (``SummandSolution``); the pairs, held in the rows of each copy
    (``CommutantPair.rows``) and each certified there, are built only when
    ``pairs`` or ``residuals`` is first read.
    """
    rep, d = action.rep, action.dim
    scales = _frame_scales(action)
    values = action.cocycle.coordinates().reshape(-1, d) / scales
    solutions = []
    for summand, placements, ops in _row_blocks(rep):
        split = boundary_split(summand)
        moved = _moved_values(ops, values)
        coefficients = null_space_basis(moved - split.image @ (split.image.conj().T @ moved), action.tol)
        u, t = ops[:0], np.zeros((0, summand.dim), rep.dtype)
        if coefficients.shape[1]:
            # the t' = B+ U' D b lie off the fixed space, so only these pairs
            # need orthonormalizing in the frame; vec U' is isometric in x
            stacked = np.linalg.qr(np.vstack([coefficients, split.pinv @ (moved @ coefficients)]))[0]
            u = (stacked[: len(ops)].T @ ops.reshape(len(ops), -1)).reshape(-1, *ops.shape[1:])
            t = stacked[len(ops) :].T
        solutions.append(SummandSolution(tuple(placements), u, t, split.kernel))
    return AffineCommutant(action, scales, tuple(solutions))


def commutant_residual(action: AffineAction, pair_or_map) -> float:
    """Worst residual of the commutant equations over all generators, a pair read on its rows."""
    u, rows = pair_or_map.deviation, getattr(pair_or_map, "rows", None) or slice(None)
    t = np.asarray(pair_or_map.translation, np.result_type(u, pair_or_map.translation))
    worst = 0.0
    for m, b in zip(action.rep.matrices, action.cocycle.values):
        linear, translation = m[:, rows] @ u, m[:, rows] @ t
        linear[rows] -= u @ m
        translation[rows] -= u @ b + t
        worst = max(worst, frobenius(linear), float(np.linalg.norm(translation)))
    return worst


@dataclass(frozen=True)
class IrreducibilityVerdict:
    """Outcome of the commutant decision, with verified witness data.

    Reducible verdicts carry the minimal invariant affine subspace K, the
    nearest-point map onto it (a commutant element with U = -p != 0, p the
    projector onto K's orthogonal directions), and the residuals both were
    certified with (``witness_commutant``, ``subspace_invariance``).
    Irreducible verdicts carry an orthonormal basis of the representation's
    fixed space: every pair then has U = 0, and the commutant consists
    exactly of the translations along it, each certified as the pair
    (0, f) it is (``fixed_translations``).

    ``solved`` is the ``affine_commutant`` the verdict was read off;
    ``commutant`` is its ``pairs``, built and certified on first read.
    """

    reducible: bool
    solved: AffineCommutant
    witness_map: AffineMap | None = None
    witness_subspace: AffineSubspace | None = None
    translation_directions: np.ndarray | None = None
    residuals: dict[str, float] = field(default_factory=dict)

    @property
    def commutant(self) -> tuple[CommutantPair, ...]:
        return self.solved.pairs

    @property
    def irreducible(self) -> bool:
        return not self.reducible

    @property
    def tag(self) -> str:
        return "Reducible" if self.reducible else "Irreducible"


@dataclass(frozen=True)
class FixedPoints:
    """The subspace of points fixed by every generator (None if empty), with
    the residual it was certified invariant with (``invariance``)."""

    subspace: AffineSubspace | None
    residuals: dict[str, float] = field(default_factory=dict)


def fixed_points(action: AffineAction) -> FixedPoints:
    """All points fixed by every generator, certified invariant.

    v is fixed iff B v = -b with B = [pi(s) - I]_s, so the cached
    ``boundary_split`` decides it: consistent when b's part off its
    ``image`` is within eps_residual (1 + ||b||); the fixed points are then
    -B+ b plus its ``kernel``, the fixed space.
    """
    split, b = boundary_split(action.rep), action.cocycle.coordinates()
    off_image = float(np.linalg.norm(b - split.image @ (split.image.conj().T @ b)))
    if not residual_ok(off_image, float(np.linalg.norm(b)), action.tol.eps_residual):
        return FixedPoints(None)
    subspace = AffineSubspace(-split.pinv @ b, split.kernel)
    defect = certify(check_invariance(action, subspace), (subspace.base,), "fixed-point subspace", action)
    return FixedPoints(subspace, {"invariance": defect})


def check_invariance(action: AffineAction, subspace: AffineSubspace) -> float:
    """Worst defect of alpha(s)K inside K over all generators."""
    return _invariance_defect(action, subspace, _moved_subspace(action, subspace))


def _moved_subspace(action: AffineAction, subspace: AffineSubspace) -> list[tuple[np.ndarray, np.ndarray]]:
    """(pi(s) base, pi(s) W) of K = base + span W, for every generator s."""
    return [(m @ subspace.base, m @ subspace.directions) for m in action.rep.matrices]


def _invariance_defect(action: AffineAction, subspace: AffineSubspace, moved) -> float:
    """``check_invariance`` from the ``_moved_subspace`` products."""
    worst = 0.0
    d_mat = subspace.directions
    for (base, directions), b in zip(moved, action.cocycle.values):
        worst = max(worst, subspace.residual_of(base + b))
        if d_mat.shape[1]:
            worst = max(worst, frobenius(directions - d_mat @ (d_mat.conj().T @ directions)))
    return worst


def invariant_subspace_from_witness(action: AffineAction, witness: AffineMap) -> AffineSubspace:
    """Proper invariant affine subspace extracted from a supplied commutant element.

    A witness that is the identity or fails the commutant equations raises
    WitnessError. The witness is rescaled to unit ||U||, so its magnitude
    does not matter, and K = -U+ t + ker U is read off one SVD of U
    (``_kernel_subspace``) and certified (see ``certify``).
    """
    tol = action.tol
    u, t = witness.deviation, witness.translation
    scale = frobenius(u)
    if scale <= tol.eps_residual:
        raise WitnessError("witness has linear part equal to the identity (U = 0)")
    residual = commutant_residual(action, witness)
    if not residual_ok(residual, certification_scale((u, t), action), tol.eps_residual):
        raise WitnessError(f"witness fails the commutant equations (residual {residual:.3e})")
    subspace = _kernel_subspace(u / scale, t / scale, tol)
    certify(check_invariance(action, subspace), (subspace.base,), "extracted subspace", action)
    return subspace


def _kernel_subspace(s: np.ndarray, t: np.ndarray, tol: ToleranceProfile) -> AffineSubspace:
    """K = -S+ T + ker S, a proper invariant affine subspace read off one
    thin SVD of S cut at ``numerical_rank``; the caller certifies it.

    S stacks row blocks V_j with V_j pi = pi_j V_j and V_j b = (pi_j - I) t_j,
    T the t_j. S+ intertwines back, so p = S+ S, the projector onto the
    joint row space, has p b = (pi - I) S+ T with no squaring of S: the
    pair (p, S+ T) keeps K = {z : p z + S+ T = 0} invariant. A tall S is
    first reduced by one QR of [S, T] = Q [R, c], as S+ T = R+ c; a wide S,
    which that QR would not shorten (as on every reducible double), goes to
    the SVD as it is.
    """
    if len(s) > s.shape[1]:
        r = np.linalg.qr(np.column_stack([s, t]), mode="r")
        s, t = r[:, :-1], r[:, -1]
    left, singular, right = np.linalg.svd(s, full_matrices=len(s) < s.shape[1])
    rank = numerical_rank(singular, tol)
    base = -right[:rank].conj().T @ ((left[:, :rank].conj().T @ t) / singular[:rank])
    return AffineSubspace(base, right[rank:].conj().T)


def _graded_directions(v: np.ndarray, weights: np.ndarray, tol: ToleranceProfile) -> np.ndarray:
    """An orthonormal basis of D^-1 span(V), D = diag(weights) > 0 and V
    orthonormal, accurate level by level of D.

    D^-1 V scales V's roundoff by the spread of D: a direction that must
    cancel the rows of the largest D^-1 (the largest-scale copies) keeps
    that roundoff there, times their scale, and a witness built on it fails
    its certification. So V is first rotated level by level, from the
    smallest weight up, so that each rotated column ends at a level: one
    SVD of the active columns on a level's rows splits off the columns
    that carry it, and the rest are set to exact zeros there: their
    singular values fall under the rank cutoff (``numerical_rank``). The
    columns of each level are then scaled by D^-1 and orthonormalized
    against those of the levels below it first, the smallest scale first,
    so each column's leading rows keep their relative accuracy; a QR runs
    on a column group's nonzero rows only, keeping its exact zeros.
    """
    groups, active = [], v
    for level in np.unique(weights):
        if not active.shape[1]:
            break
        rows = weights == level
        _, singular, right = np.linalg.svd(active[rows])
        carried = numerical_rank(singular, tol)
        active = active @ right.conj().T
        groups.append(active[:, :carried] / weights[:, None])
        active = active[:, carried:]
        active[rows] = 0.0
    basis = np.zeros((len(weights), 0), v.dtype)
    for group in reversed(groups):
        for _ in range(2):  # twice is enough (Kahan)
            group = group - basis @ (basis.conj().T @ group)
        nonzero = group.any(axis=1)
        group[nonzero] = np.linalg.qr(group[nonzero])[0]
        basis = np.hstack([basis, group])
    return basis


def _minimal_subspace(commutant: AffineCommutant) -> AffineSubspace:
    """K = D^-1 K' for K' the ``_kernel_subspace`` of the frame pairs
    (D U D^-1, D t) of stage 3 (``_frame_scales``): D commutes with pi, so
    it maps the minimal invariant subspace of alpha to the frame action's.
    Each distinct summand's solution is read once, on one copy's rows:
    every copy holds the same solved rows. D = diag(m/s_i), m = min s, so
    the frame pairs are (U', m t') of each ``SummandSolution``. D is I for
    equal scales (K = K'); else K's directions are the ``_graded_directions``
    of those of K', and D^-1 base' is taken off them."""
    scales, solutions = commutant.scales, commutant.solutions
    weights = scales.min() / scales
    s = [x.deviations.reshape(-1, len(scales)) for x in solutions]
    s = s[0] if len(s) == 1 else np.concatenate(s)  # one summand's stack is read in place
    t = scales.min() * np.concatenate([x.translations.reshape(-1) for x in solutions])
    kept = s.any(axis=1)
    if not kept.all():
        s, t = s[kept], t[kept]
    frame = _kernel_subspace(s, t, commutant.action.tol)
    if (weights == 1.0).all():
        return frame
    directions, base = _graded_directions(frame.directions, weights, commutant.action.tol), frame.base / weights
    return AffineSubspace(base - directions @ (directions.conj().T @ base), directions)


def _witness_residual(action: AffineAction, subspace: AffineSubspace, moved) -> float:
    """``commutant_residual`` of the nearest-point map onto K, (U, t) =
    (W W* - I, base), read through K's orthonormal directions W with no
    d x d product, from the ``_moved_subspace`` products. With P = W W* and
    Q = I - P, U pi - pi U = P pi Q - Q pi P, two blocks orthogonal in the
    Frobenius product, and ||P pi Q|| = ||Q pi* P||, ||X P|| = ||X W||: its
    norm is that of [Q pi W, Q pi* W]. The translation residual
    U b - (pi - I) t is -(pi - I) base - Q b."""
    w, base = subspace.directions, subspace.base
    worst = 0.0
    for m, b, (moved_base, moved_w) in zip(action.rep.matrices, action.cocycle.values, moved):
        moved = np.hstack([moved_w, m.conj().T @ w])
        translation = moved_base - base + b - w @ (w.conj().T @ b)
        worst = max(worst, frobenius(moved - w @ (w.conj().T @ moved)), float(np.linalg.norm(translation)))
    return worst


def _fixed_translation_residual(commutant: AffineCommutant, directions: np.ndarray) -> float:
    """The worst ``commutant_residual`` of the pairs (0, D^-1 f), f the
    fixed-space ``directions`` (each on one copy's rows, so D^-1 is its
    copy's scale), each certified against the bound of its pair."""
    action, worst = commutant.action, 0.0
    for f in directions.T:
        t = commutant.scales * f
        residual = max((frobenius(m @ t - t) for m in action.rep.matrices), default=0.0)
        worst = max(worst, certify(residual, (t,), "fixed-space translation", action))
    return worst


def decide_irreducibility(action: AffineAction) -> IrreducibilityVerdict:
    """Decide irreducibility via the affine commutant.

    Irreducible iff every solution pair has U = 0 (the affine Schur lemma:
    no nonzero U in the commutant of pi sends b to a coboundary), read off
    the stage-3 solution of ``affine_commutant`` (``moving``), whose pairs
    the verdict builds only when ``commutant`` is read. The generator
    equations suffice because commuting with each generator map forces
    commuting with every word (tested as a property, not assumed). Only
    stage 3 runs per cocycle, in a frame of unit cocycle scale, so the
    verdict is invariant under b -> lambda b.

    A Reducible verdict carries the minimal invariant affine subspace K and
    the nearest-point map onto it, (U, t) = (-p, base of K), both certified
    (failing raises InternalCheckError); the map through K's directions
    (``_witness_residual``). The U-parts of the pairs form a left ideal
    pi' p of pi' (A U b = (pi - I) A t for A in pi'), p the projector onto
    their joint row space, and K = {z : p z + t_p = 0} is read off the
    stacked nonzero rows of every distinct summand's solved U, in the frame
    of stage 3 (``_minimal_subspace``). An invariant K' gives the pair of
    its nearest-point map, so dim K' >= dim K: K is minimal, and its
    dimension does not depend on the null-space basis. For a (+) a, K is
    the diagonal embedding of a's own K. An Irreducible verdict carries the
    fixed space (``fixed_subspace``), whose translations its pairs are,
    each certified against its pair's bound; only then is it fetched, so a
    reducible direct sum assembles no boundary split of its own.
    """
    commutant = affine_commutant(action)
    if not commutant.moving:
        directions = fixed_subspace(action.rep)
        residuals = {"fixed_translations": _fixed_translation_residual(commutant, directions)}
        return IrreducibilityVerdict(False, commutant, translation_directions=directions, residuals=residuals)
    subspace = _minimal_subspace(commutant)
    witness = AffineMap(subspace.directions @ subspace.directions.conj().T, subspace.base)
    moved = _moved_subspace(action, subspace)
    residuals = {
        "witness_commutant": certify(
            _witness_residual(action, subspace, moved), (witness.deviation, witness.translation), "witness map", action
        ),
        "subspace_invariance": certify(
            _invariance_defect(action, subspace, moved), (subspace.base,), "extracted subspace", action
        ),
    }
    return IrreducibilityVerdict(True, commutant, witness, subspace, residuals=residuals)


def project_action(action: AffineAction, basis: np.ndarray) -> AffineAction:
    """Compress the action onto an invariant subspace, in the supplied basis.

    ``basis`` must be a ``dim x k`` matrix of orthonormal columns spanning a
    subspace invariant under the representation, or ActionError is raised.
    The projected matrices are the compressions ``W*(pi(s) W)``, formed once
    each by the invariance check, and the projected cocycle is ``W* b(s)``.
    The result keeps the action's profile and inherits its validity: it is
    not held to bounds of its own, which tighten with k (the relator bound
    is ``eps (1 + sqrt k)``), and a caller that derives a claim from it
    certifies that claim against the action, as ``analyze_direct_sum`` does.
    """
    tol = action.tol
    basis = np.asarray(basis)
    if basis.ndim != 2 or basis.shape[0] != action.dim or basis.shape[1] == 0:
        raise ActionError(f"basis must be (dim x k) with k >= 1, got {basis.shape}")
    k = basis.shape[1]
    adjoint = basis.conj().T
    if not residual_ok(frobenius(adjoint @ basis - np.eye(k)), 1.0, tol.eps_residual):
        raise ActionError("basis columns are not orthonormal")
    matrices = []
    for name, m in zip(action.presentation.generators, action.rep.matrices):
        moved = m @ basis
        matrices.append(adjoint @ moved)
        defect = frobenius(moved - basis @ matrices[-1])
        if not residual_ok(defect, 1.0, tol.eps_residual):
            raise ActionError(f"subspace is not invariant under generator {name!r} (defect {defect:.3e})")
    rep = Representation(action.presentation, action.field, matrices, dim=k, tol=tol, validate=False)
    return AffineAction(rep, Cocycle(rep, tuple(adjoint @ b for b in action.cocycle.values), validate=False))


def direct_sum(a1: AffineAction, a2: AffineAction) -> AffineAction:
    """Block-diagonal representation with concatenated cocycle values.

    The summands need one presentation, field and tolerance profile, which
    the sum keeps. Each summand is held to its own validity bounds (a sum's
    entries were, when it was built), not the sum: its block isometry defect
    is sqrt 2 times that of two equal summands, while the bound does not
    grow with the number of blocks, so its defects are computed only if asked for.

    The sum's representation keeps one flat record of its summands'
    representations in row order, a summand that is a sum giving its own
    record's entries. Every stage is read off the record's distinct entries
    and their stored solves (``reps._row_blocks``), so nothing is solved at
    the sum's dimension and a nested sum solves each distinct summand once.
    An entry whose matrices equal an earlier one's bit for bit is kept as
    that object, so a (+) a solves pi once, also when a is loaded twice.
    """
    _require_common_setting(a1, a2, "direct sum")
    for summand in (a for a in dict.fromkeys((a1, a2)) if a.rep._summands is None):
        if failure := validity_report(summand.tol, summand.rep, summand.cocycle).failure:
            raise failure
    r1, r2 = a1.rep, a2.rep
    matrices = [_block_diagonal(m1, m2) for m1, m2 in zip(r1.matrices, r2.matrices)]
    rep = Representation(a1.presentation, a1.field, matrices, dim=r1.dim + r2.dim, tol=a1.tol, validate=False)
    record = []
    for entry in (*(r1._summands or (r1,)), *(r2._summands or (r2,))):
        same = (r for r in record if r.dim == entry.dim and all(map(np.array_equal, r.matrices, entry.matrices)))
        record.append(next(same, entry))
    rep._summands = tuple(record)
    values = tuple(np.concatenate([v1, v2]) for v1, v2 in zip(a1.cocycle.values, a2.cocycle.values))
    return AffineAction(rep, Cocycle(rep, values, validate=False))


def conjugate_by_translation(action: AffineAction, vector) -> AffineAction:
    """Replace the cocycle b by b + (pi(.)v - v); the verdict is unchanged."""
    vector = as_field_array(vector, action.field)
    values = tuple(b + m @ vector - vector for m, b in zip(action.rep.matrices, action.cocycle.values))
    return AffineAction.from_values(action.rep, values)


@dataclass(frozen=True)
class EquivalenceResult:
    """Search outcome for an invertible affine intertwiner.

    A found intertwiner carries the residual it was certified with
    (``intertwining``).
    """

    equivalent: bool
    intertwiner: AffineMap | None
    probabilistic: bool
    residuals: dict[str, float] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.equivalent


def intertwining_residual(a1: AffineAction, a2: AffineAction, mapping: AffineMap) -> float:
    """Worst defect of mapping à alpha1(s) = alpha2(s) à mapping over generators:
    M L1 - L2 M and (M b1 + t) - (L2 t + b2), for mapping v -> M v + t."""
    m, t = mapping.linear, mapping.translation
    worst = 0.0
    for l1, b1, l2, b2 in zip(a1.rep.matrices, a1.cocycle.values, a2.rep.matrices, a2.cocycle.values):
        worst = max(worst, frobenius(m @ l1 - l2 @ m), frobenius((m @ b1 + t) - (l2 @ t + b2)))
    return worst


def check_equivalence(
    a1: AffineAction,
    a2: AffineAction,
    trials: int = 20,
    seed: int | None = 0,
) -> EquivalenceResult:
    """Search the intertwiner system for an invertible solution.

    Solves {T pi1(s) = pi2(s) T, T b1(s) - (pi2(s)-I)t = b2(s)} exactly, with
    both cocycles divided by one common scale (see ``unit_scale``), in two
    steps: a basis T_j of Hom(pi1, pi2) from the homogeneous
    ``intertwiner_system``, then the coboundary rule of ``fixed_points``:
    sum_j x_j T_j b1 - b2 lies in the ``image`` Y of the cached
    ``boundary_split(pi2)``, so (x, c) solves sum_j x_j T_j b1 + Y c = b2
    (``solve_affine_system``; Y is orthonormal, so no 1/theta scale of B2+
    enters) and t = B2+ (sum_j x_j T_j b1 - b2). It then samples the x of
    the affine solution set for an invertible T: the particular solution,
    then ``trials`` random ones (``trials = 0`` tries the particular
    solution only). Different dimensions and an unsolvable system are a
    definite NotFound; exhausted sampling is probabilistic. The actions need
    one presentation, field and tolerance profile.
    """
    trials = int_at_least("trials", trials, 0)
    seed = checked_seed(seed)
    _require_common_setting(a1, a2, "equivalence")
    if a1.dim != a2.dim:
        return EquivalenceResult(False, None, probabilistic=False)
    tol, d = a1.tol, a1.dim
    s = unit_scale(a1, a2)
    homs, split = hom_basis(a1.rep, a2.rep), boundary_split(a2.rep)
    moved, rhs = _moved_values(homs, a1.cocycle.coordinates().reshape(-1, d) / s), a2.cocycle.coordinates() / s
    solution = solve_affine_system(np.hstack([moved, split.image]), rhs, tol)
    if solution is None:
        return EquivalenceResult(False, None, probabilistic=False)

    samples = random_vectors(trials, solution.dim, a1.field, np.random.default_rng(seed))
    coeffs = np.column_stack([np.zeros(solution.dim, dtype=moved.dtype), samples.T])
    for x in (solution.particular[:, None] + solution.homogeneous @ coeffs)[: len(homs)].T:
        t_mat = np.tensordot(x, homs, 1)
        singular = np.linalg.svd(t_mat, compute_uv=False)
        if numerical_rank(singular, tol) < d:
            continue
        mapping = AffineMap(t_mat, s * (split.pinv @ (moved @ x - rhs)))
        residual = intertwining_residual(a1, a2, mapping)
        if residual_ok(residual, certification_scale((t_mat, mapping.translation), a1, a2), tol.eps_residual):
            return EquivalenceResult(True, mapping, False, {"intertwining": residual})
    return EquivalenceResult(False, None, probabilistic=True)


@dataclass(frozen=True)
class EquivalentProjections:
    """Equivalent projected actions witnessing reducibility of a direct sum.

    ``intertwiner`` maps the first projected action to the second, in the
    coordinates of ``v1_basis`` and ``v2_basis``; ``residuals`` holds the
    residual it was certified with (``intertwining``).
    """

    v1_basis: np.ndarray
    v2_basis: np.ndarray
    intertwiner: AffineMap
    residuals: dict[str, float] = field(default_factory=dict)

    def ambient_map(self) -> AffineMap:
        """The intertwiner as a map between the ambient subspaces."""
        linear = self.v2_basis @ self.intertwiner.linear @ self.v1_basis.conj().T
        return AffineMap(linear, self.v2_basis @ self.intertwiner.translation)


@dataclass(frozen=True)
class DirectSumAnalysis:
    sum_action: AffineAction
    verdict: IrreducibilityVerdict
    projections: EquivalentProjections | None

    @property
    def irreducible(self) -> bool:
        return self.verdict.irreducible


def analyze_direct_sum(a1: AffineAction, a2: AffineAction) -> DirectSumAnalysis:
    """Decide a1 (+) a2 and, when reducible, exhibit equivalent projections.

    The paper's criterion is for irreducible summands, so both summands are
    decided first, at summand size and from cached solves: a reducible one
    is named in an ActionError and the sum is not solved. Summands equal bit
    for bit (as arguments, whatever their records hold) are not decided:
    a (+) a is reducible whatever a is, K is the diagonal and the projected
    actions are the summands themselves, so its verdict's pairs are never
    built (``IrreducibilityVerdict.commutant``).

    Otherwise the projections are read off the bottom row block (C, D, t2)
    of the commutant pairs, U = [[A, B], [C, D]] and t = (t1, t2) in the
    summands' blocks: its bottom-row pairs combined under the fixed weights
    of ``reps._generic_weights`` (nothing is drawn) at unit ||U||, with C
    in Hom(pi1, pi2) and D in pi2'. For irreducible summands range C =
    range D and t2 lies in it (a part of C or D off the other's range would
    send b1 or b2 to a coboundary), so with its rows compressed onto
    range C, K = {(x, y) : C x + D y + t2 = 0} is by Goursat's lemma the
    graph of a bijection: the projected actions on W1 = range C* and
    W2 = range D* are equivalent through x -> -D+(C x + t2). That map is
    certified against the projected generator maps; a zero or singular
    block, or one that fails, raises InternalCheckError. The pairs are
    solved where each summand has unit scale (``affine_commutant``), so on
    a (+) lambda a both C and D keep their digits.
    """
    sum_action = direct_sum(a1, a2)
    pieces = a1.rep.matrices + a1.cocycle.values, a2.rep.matrices + a2.cocycle.values
    equal = a1.dim == a2.dim and all(map(np.array_equal, *pieces))
    if not equal:
        for name, summand in (("first", a1), ("second", a2)):
            if decide_irreducibility(summand).reducible:
                raise ActionError(
                    f"the {name} summand is reducible; the direct-sum criterion needs irreducible summands"
                )
    verdict = decide_irreducibility(sum_action)
    if verdict.irreducible:
        return DirectSumAnalysis(sum_action, verdict, None)
    return DirectSumAnalysis(sum_action, verdict, _graph_projections(a1, a2, verdict, equal))


def _graph_projections(a1: AffineAction, a2: AffineAction, verdict, equal: bool) -> EquivalentProjections:
    """The certified projections of the bottom row block of the verdict's
    commutant pairs, or the diagonal ones of a double, which reads no pair
    (see ``analyze_direct_sum``). The block is scale-free; the rank cut is
    relative to a witness with unit ||U||."""
    d1, tol = a1.dim, a1.tol
    if equal:
        # a (+) a: the block (I, -I, 0), whose subspace is the diagonal
        w1 = w2 = np.eye(d1, dtype=a1.rep.dtype)
        mapping = AffineMap(w1, np.zeros(d1, dtype=a1.rep.dtype))
        p1, p2 = a1, a2
    else:
        bottom = [p for p in verdict.commutant if p.rows.start >= d1 and p.deviation.any()]
        if not bottom:
            raise InternalCheckError("reducible direct sum of irreducible summands has no bottom-row commutant pair")
        weights = _generic_weights(len(bottom), REAL)
        gaps = [(p.rows.start - d1, d1 + a2.dim - p.rows.stop) for p in bottom]  # a2's copies, if a2 is a sum
        u = np.tensordot(weights, [np.pad(p.deviation, (gap, (0, 0))) for p, gap in zip(bottom, gaps)], 1)
        t = weights @ np.array([np.pad(p.translation, gap) for p, gap in zip(bottom, gaps)])
        scale = frobenius(u)
        rows = orthonormal_columns(u[:, :d1] / scale, tol).conj().T / scale
        c, d, t2 = rows @ u[:, :d1], rows @ u[:, d1:], rows @ t
        w1, w2 = np.linalg.qr(c.conj().T)[0], np.linalg.qr(d.conj().T)[0]
        dw2 = d @ w2
        try:
            mapping = AffineMap(-np.linalg.solve(dw2, c @ w1), -np.linalg.solve(dw2, t2))
            p1, p2 = project_action(a1, w1), project_action(a2, w2)
        except ValueError as exc:  # a singular block or a refused basis
            raise InternalCheckError(f"equivalent projections could not be formed: {exc}") from exc
    residual = certify(
        intertwining_residual(p1, p2, mapping), (mapping.linear, mapping.translation), "equivalent projections", a1, a2
    )
    return EquivalentProjections(w1, w2, mapping, {"intertwining": residual})
