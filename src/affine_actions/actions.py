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
certified (see ``certify``) before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


def certify(residual: float, parts, action: AffineAction, what: str) -> float:
    """Return ``residual`` if it meets the certification bound, else raise.

    The one bound for every result the library certifies is
    residual <= eps_residual * (1 + scale) with scale the
    ``certification_scale`` of the result's ``parts`` on ``action`` and
    eps_residual the action's, so the bound reads the same at every
    magnitude of the data.
    """
    if not residual_ok(residual, certification_scale(parts, action), action.tol.eps_residual):
        raise InternalCheckError(f"{what} failed certification (residual {residual:.3e})")
    return residual


def _moved_values(ops: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The (g d2, n) matrix whose column j stacks T_j v(s) over the generators
    s, for a (n, d2, d) stack of operators T_j and (g, d) values v(s)."""
    return (ops @ values.T).transpose(2, 1, 0).reshape(len(values) * ops.shape[1], len(ops))


def _frame_scales(action: AffineAction) -> np.ndarray:
    """The diagonal of D^-1 for the frame D alpha D^-1 of stage 3: each
    coordinate carries the ``unit_scale`` s_i of its own copy's cocycle
    (``reps._copies``): D = diag(I/s_1, .., I/s_n), I/s for a plain action."""
    scales = np.empty(action.dim)
    for _, placements in _copies(action.rep):
        for rows in placements:
            norm = max((float(np.linalg.norm(b[rows])) for b in action.cocycle.values), default=0.0)
            scales[rows] = norm if norm > action.tol.eps_residual else 1.0
    return scales


@dataclass(frozen=True)
class AffineCommutant:
    """Certified basis pairs of the commutant system, with the worst of the
    residuals they were certified with (``worst_equation_defect``)."""

    pairs: tuple[CommutantPair, ...]
    residuals: dict[str, float]


def affine_commutant(action: AffineAction) -> AffineCommutant:
    """Basis of the solution space {(U, t)} of the commutant system.

    The full affine commutant of the action is { v -> (I+U)v + t } over the
    span of the returned pairs. It is solved through the affine Schur lemma
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
    is solved once against its ``boundary_split``, orthonormalized on its
    own and held in the rows of each copy (``CommutantPair.rows``). Each
    pair is certified on its rows; one failing raises InternalCheckError.
    """
    rep, d = action.rep, action.dim
    scales = _frame_scales(action)
    values = action.cocycle.coordinates().reshape(-1, d) / scales
    pairs, fixed = [], []
    for summand, placements, ops in _row_blocks(rep):
        split = boundary_split(summand)
        fixed += [(rows, f) for rows in placements for f in split.kernel.T]
        moved = _moved_values(ops, values)
        coefficients = null_space_basis(moved - split.image @ (split.image.conj().T @ moved), action.tol)
        if not coefficients.shape[1]:
            continue
        # the t' = B+ U' D b lie off the fixed space, so only these pairs
        # need orthonormalizing in the frame; vec U' is isometric in x
        stacked = np.linalg.qr(np.vstack([coefficients, split.pinv @ (moved @ coefficients)]))[0]
        u = (stacked[: len(ops)].T @ ops.reshape(len(ops), -1)).reshape(-1, *ops.shape[1:])
        pairs += [CommutantPair(v, t, rows) for rows in placements
                  for v, t in zip(u * (scales[rows, None] / scales), scales[rows] * stacked[len(ops) :].T)]
    pairs += [CommutantPair(np.zeros((len(f), d), rep.dtype), scales[rows] * f, rows) for rows, f in fixed]
    residuals = [
        certify(commutant_residual(action, p), (p.deviation, p.translation), action, "commutant basis element")
        for p in pairs
    ]
    return AffineCommutant(tuple(pairs), {"worst_equation_defect": max(residuals, default=0.0)})


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
    fixed space: the commutant then consists exactly of the translations
    along it.
    """

    reducible: bool
    commutant: tuple[CommutantPair, ...]
    witness_map: AffineMap | None = None
    witness_subspace: AffineSubspace | None = None
    translation_directions: np.ndarray | None = None
    residuals: dict[str, float] = field(default_factory=dict)

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
    defect = certify(check_invariance(action, subspace), (subspace.base,), action, "fixed-point subspace")
    return FixedPoints(subspace, {"invariance": defect})


def check_invariance(action: AffineAction, subspace: AffineSubspace) -> float:
    """Worst defect of alpha(s)K inside K over all generators."""
    worst = 0.0
    d_mat = subspace.directions
    for m, b in zip(action.rep.matrices, action.cocycle.values):
        image = m @ subspace.base + b
        worst = max(worst, subspace.residual_of(image))
        if d_mat.shape[1]:
            moved = m @ d_mat
            worst = max(worst, frobenius(moved - d_mat @ (d_mat.conj().T @ moved)))
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
    certify(check_invariance(action, subspace), (subspace.base,), action, "extracted subspace")
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


def _minimal_subspace(action: AffineAction, pairs) -> AffineSubspace:
    """K = D^-1 K' for K' the ``_kernel_subspace`` of the frame pairs
    (D U D^-1, D t) of stage 3 (``_frame_scales``): D commutes with pi, so
    it maps the minimal invariant subspace of alpha to the frame action's.
    Only the pairs of each distinct summand's first copy are read, on their
    rows: every copy holds the same solved rows. D = diag(m/s_i), m = min s,
    is I for equal scales (K = K'); else K's directions are one QR of D^-1 V'
    on its nonzero rows, keeping exact zeros, and D^-1 base' is taken off them."""
    scales = _frame_scales(action)
    weights = scales.min() / scales
    firsts = {placements[0].start for _, placements in _copies(action.rep)}
    own = [p for p in pairs if p.rows.start in firsts]
    s = np.concatenate([p.deviation * (weights[p.rows, None] / weights) for p in own])
    t = np.concatenate([p.translation * weights[p.rows] for p in own])
    kept = s.any(axis=1)
    frame = _kernel_subspace(s[kept], t[kept], action.tol)
    if (weights == 1.0).all():
        return frame
    directions, base = frame.directions / weights[:, None], frame.base / weights
    nonzero = directions.any(axis=1)
    directions[nonzero] = np.linalg.qr(directions[nonzero])[0]
    return AffineSubspace(base - directions @ (directions.conj().T @ base), directions)


def decide_irreducibility(action: AffineAction) -> IrreducibilityVerdict:
    """Decide irreducibility via the affine commutant.

    Irreducible iff every solution pair has U = 0 (the affine Schur lemma:
    no nonzero U in the commutant of pi sends b to a coboundary). Since
    pure-translation solutions (U = 0) force their vector into the fixed
    space, that is equivalent to the scale-free test used here: the solution
    space is no larger than the fixed space. The generator equations suffice
    because commuting with each generator map forces commuting with every
    word (tested as a property, not assumed). Only stage 3 of
    ``affine_commutant`` runs per cocycle, in a frame of unit cocycle scale,
    so the verdict is invariant under b -> lambda b.

    A Reducible verdict carries the minimal invariant affine subspace K and
    the nearest-point map onto it, (U, t) = (-p, base of K), both certified
    (failing raises InternalCheckError). The U-parts of the pairs form a
    left ideal pi' p of pi' (A U b = (pi - I) A t for A in pi'), p the
    projector onto their joint row space, and K = {z : p z + t_p = 0} is
    read off the stacked nonzero rows of every pair's U, in the frame of
    stage 3 (``_minimal_subspace``). An invariant K' gives the pair of its
    nearest-point map, so dim K' >= dim K: K is minimal, and its dimension
    does not depend on the null-space basis. For a (+) a, K is the diagonal
    embedding of a's own K. Irreducible verdicts are checked against the
    fixed space (the commutant must be exactly the translations along it).
    """
    pairs = affine_commutant(action).pairs
    fixed = fixed_subspace(action.rep)
    if len(pairs) > fixed.shape[1]:
        subspace = _minimal_subspace(action, pairs)
        witness = AffineMap(subspace.directions @ subspace.directions.conj().T, subspace.base)
        residuals = {
            "witness_commutant": certify(
                commutant_residual(action, witness), (witness.deviation, witness.translation), action, "witness map"
            ),
            "subspace_invariance": certify(
                check_invariance(action, subspace), (subspace.base,), action, "extracted subspace"
            ),
        }
        return IrreducibilityVerdict(True, pairs, witness, subspace, residuals=residuals)

    if len(pairs) != fixed.shape[1]:
        raise InternalCheckError(
            f"commutant dimension {len(pairs)} < fixed-space dimension {fixed.shape[1]}"
        )
    for pair in pairs:
        off = fixed @ (fixed[pair.rows].conj().T @ pair.translation)
        off[pair.rows] -= pair.translation
        t_norm = float(np.linalg.norm(pair.translation))
        if not residual_ok(float(np.linalg.norm(off)), t_norm, action.tol.eps_residual):
            raise InternalCheckError("commutant translation leaves the fixed space")
    return IrreducibilityVerdict(False, pairs, translation_directions=fixed)


def project_action(action: AffineAction, basis: np.ndarray) -> AffineAction:
    """Compress the action onto an invariant subspace, in the supplied basis.

    ``basis`` must have orthonormal columns spanning a subspace invariant
    under the representation; the projected cocycle is the orthogonal
    projection of the original one, and the projected representation keeps
    the action's profile.
    """
    tol = action.tol
    basis = np.asarray(basis)
    if basis.ndim != 2 or basis.shape[0] != action.dim or basis.shape[1] == 0:
        raise ActionError(f"basis must be (dim x k) with k >= 1, got {basis.shape}")
    k = basis.shape[1]
    if not residual_ok(frobenius(basis.conj().T @ basis - np.eye(k)), 1.0, tol.eps_residual):
        raise ActionError("basis columns are not orthonormal")
    for name, m in zip(action.presentation.generators, action.rep.matrices):
        moved = m @ basis
        defect = frobenius(moved - basis @ (basis.conj().T @ moved))
        if not residual_ok(defect, 1.0, tol.eps_residual):
            raise ActionError(f"subspace is not invariant under generator {name!r} (defect {defect:.3e})")
    rep = Representation(
        action.presentation,
        action.field,
        tuple(basis.conj().T @ m @ basis for m in action.rep.matrices),
        dim=k,
        tol=tol,
    )
    return AffineAction.from_values(rep, tuple(basis.conj().T @ b for b in action.cocycle.values))


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
    if a1.presentation != a2.presentation:
        raise ActionError("direct sum requires identical presentations")
    if a1.field != a2.field:
        raise ActionError("direct sum requires a common scalar field")
    if a1.tol != a2.tol:
        raise ActionError("direct sum requires a common tolerance profile")
    for summand in (a for a in (a1, a2) if a.rep._summands is None):
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
    """Worst defect of mapping à alpha1(s) = alpha2(s) à mapping over generators."""
    worst = 0.0
    for g1, g2 in zip(a1.generator_maps(), a2.generator_maps()):
        left, right = mapping.compose(g1), g2.compose(mapping)
        worst = max(
            worst, frobenius(left.linear - right.linear), frobenius(left.translation - right.translation)
        )
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
    if a1.presentation != a2.presentation:
        raise ActionError("equivalence requires identical presentations")
    if a1.field != a2.field:
        raise ActionError("equivalence requires a common scalar field")
    if a1.tol != a2.tol:
        raise ActionError("equivalence requires a common tolerance profile")
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
    actions are the summands themselves.

    Otherwise the projections are read off the bottom row block (C, D, t2)
    of the commutant, U = [[A, B], [C, D]] and t = (t1, t2) in the
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
    return DirectSumAnalysis(sum_action, verdict, _graph_projections(a1, a2, verdict.commutant, equal))


def _graph_projections(a1: AffineAction, a2: AffineAction, pairs, equal: bool) -> EquivalentProjections:
    """The certified projections of the bottom row block of the commutant
    ``pairs``, or the diagonal ones of a double (see ``analyze_direct_sum``).
    The block is scale-free; the rank cut is relative to a witness with unit ||U||."""
    d1, tol = a1.dim, a1.tol
    if equal:
        # a (+) a: the block (I, -I, 0), whose subspace is the diagonal
        w1 = w2 = np.eye(d1, dtype=a1.rep.dtype)
        mapping = AffineMap(w1, np.zeros(d1, dtype=a1.rep.dtype))
        p1, p2 = a1, a2
    else:
        bottom = [p for p in pairs if p.rows.start >= d1 and p.deviation.any()]
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
        except ValueError as exc:  # a singular block, a non-invariant basis or near-tolerance validation
            raise InternalCheckError(f"equivalent projections failed re-validation: {exc}") from exc
    residual = intertwining_residual(p1, p2, mapping)
    if not residual_ok(residual, certification_scale((mapping.linear, mapping.translation), a1, a2), tol.eps_residual):
        raise InternalCheckError(f"equivalent projections failed certification (residual {residual:.3e})")
    return EquivalentProjections(w1, w2, mapping, {"intertwining": residual})
