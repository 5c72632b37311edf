"""Affine isometric actions and the commutant-based irreducibility decision.

An affine action pairs a representation with a cocycle: g acts by
v -> pi(g)v + b(g). An affine map Av = Tv + t commutes with the whole action
iff, writing U = T - I,

    U pi(s) = pi(s) U   and   U b(s) = (pi(s) - I) t      for all generators s.

The action is irreducible exactly when every solution of this homogeneous
system has U = 0; in that case the solutions are precisely the translations
along the fixed space of the representation. When some solution has U != 0,
a proper invariant affine subspace is read off one SVD of a block V of U
(the subspace {V_top z + P_top t_i = 0}, see ``_kernel_subspace``): U
itself for a plain action, one row block for a direct sum
(``_row_block_witness``). The witness and its subspace are certified (see
``certify``) before being returned.
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
    _generic_weights,
    boundary_split,
    commutant_basis,
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
    """A basis solution (U, t) of the affine commutant system."""

    deviation: np.ndarray
    translation: np.ndarray

    def as_affine_map(self) -> AffineMap:
        return AffineMap(self.deviation + np.eye(self.deviation.shape[0]), self.translation)

    @property
    def deviation_norm(self) -> float:
        return frobenius(self.deviation)


def cocycle_norm(*actions: AffineAction) -> float:
    """max ||b(s)|| over every generator value of the given actions (each
    cocycle's stored ``max_norm``)."""
    return max((a.cocycle.max_norm for a in actions), default=0.0)


def unit_scale(tol: ToleranceProfile, *actions: AffineAction) -> float:
    """The common scale s the cocycles are divided by before a solve.

    Dividing every cocycle by s = max ||b(s)|| conjugates each action by the
    dilation v -> v/s, so verdicts do not depend on the magnitude of b;
    translations and subspace base points found at unit scale are multiplied
    back by s. Near-zero policy: when max ||b(s)|| <= eps_residual the
    cocycle is zero at the residual tolerance, s = 1 and the actions are
    solved unscaled.
    """
    s = cocycle_norm(*actions)
    return s if s > tol.eps_residual else 1.0


def certification_scale(parts, *actions: AffineAction) -> float:
    """||U|| + ||t|| + max ||b(s)||, the scale of the certification bound.

    ``parts`` are the pieces of the certified map (for a subspace, its base
    point); the cocycle scale is taken over all given actions.
    """
    return sum(float(np.linalg.norm(p)) for p in parts) + cocycle_norm(*actions)


def certify(residual: float, parts, action: AffineAction, tol: ToleranceProfile, what: str) -> float:
    """Return ``residual`` if it meets the certification bound, else raise.

    The one bound for every result the library certifies is
    residual <= eps_residual * (1 + scale) with scale the
    ``certification_scale`` of the result's ``parts`` on ``action``, so the
    bound reads the same at every magnitude of the data.
    """
    if not residual_ok(residual, certification_scale(parts, action), tol.eps_residual):
        raise InternalCheckError(f"{what} failed certification (residual {residual:.3e})")
    return residual


def _moved_values(ops: np.ndarray, action: AffineAction, scale: float) -> np.ndarray:
    """The (g d2, n) matrix whose column j stacks T_j b(s) / scale over the
    generators s, for a (n, d2, d) stack of operators T_j."""
    values = action.cocycle.coordinates().reshape(-1, action.dim) / scale
    return (ops @ values.T).transpose(2, 1, 0).reshape(len(values) * ops.shape[1], len(ops))


@dataclass(frozen=True)
class AffineCommutant:
    """Certified basis pairs of the commutant system, with the worst of the
    residuals they were certified with (``worst_equation_defect``)."""

    pairs: tuple[CommutantPair, ...]
    residuals: dict[str, float]


def affine_commutant(action: AffineAction, tol: ToleranceProfile | None = None) -> AffineCommutant:
    """Basis of the solution space {(U, t)} of the commutant system.

    The full affine commutant of the action is { v -> (I+U)v + t } over the
    span of the returned pairs. It is solved through the affine Schur lemma
    (U in the commutant pi', U b a coboundary) in three stages (README "How
    the commutant is solved"): pi' = span U_j (``commutant_basis``) and the
    boundary map B (``boundary_split``) once per representation, then per
    cocycle the x with [U_j b]_j x in range(B), with t = B+ U b, and the
    pairs (0, f) for f in the fixed space. The cocycle is taken at unit
    scale (see ``unit_scale``); the basis is orthonormal in (vec U, t/s).

    For a direct sum (``direct_sum``) the third stage splits by row block,
    since B^1(pi1 (+) pi2) = B^1(pi1) (+) B^1(pi2): U b is a coboundary iff
    each row block of it is one. The first c1 + h elements of the sum's
    block commutant have only top rows, the others only bottom rows, so the
    annihilator is two problems at summand size, N1 of g d1 rows against
    ``boundary_split(pi1)`` and N2 of g d2 rows against
    ``boundary_split(pi2)``; their pairs are orthogonal, and each block
    is orthonormalized on its own (``_annihilator_blocks``).
    Each pair is certified at the action's dimension; one failing raises
    InternalCheckError.
    """
    tol = tol or action.tol
    rep, d = action.rep, action.dim
    s = unit_scale(tol, action)
    pairs = []
    for rows, ops, split in _annihilator_blocks(rep, tol):
        moved = _moved_values(ops[:, rows], action, s)
        coefficients = null_space_basis(moved - split.image @ (split.image.conj().T @ moved), tol)
        if not coefficients.shape[1]:
            continue
        # the t = B+ U b lie off the fixed space, so only these pairs need
        # orthonormalizing in (vec U, t/s); vec U is isometric in x
        stacked = np.linalg.qr(np.vstack([coefficients, split.pinv @ (moved @ coefficients)]))[0]
        deviations = (stacked[: len(ops)].T @ ops.reshape(len(ops), d * d)).reshape(-1, d, d)
        translations = np.zeros((len(deviations), d), stacked.dtype)
        translations[:, rows] = s * stacked[len(ops) :].T
        pairs += map(CommutantPair, deviations, translations)
    pairs += [CommutantPair(np.zeros((d, d), rep.dtype), s * f) for f in boundary_split(rep, tol).kernel.T]
    residuals = [
        certify(commutant_residual(action, p), (p.deviation, p.translation), action, tol, "commutant basis element")
        for p in pairs
    ]
    return AffineCommutant(tuple(pairs), {"worst_equation_defect": max(residuals, default=0.0)})


def _annihilator_blocks(rep: Representation, tol: ToleranceProfile) -> list:
    """``(rows, ops, split)`` per row block of the stage-3 annihilator: the
    commutant elements whose nonzero rows are ``rows``, and the boundary
    split those rows are solved against. A plain representation is one
    block; a direct sum is its summands' two, with the top one holding the
    first c1 + h elements of its block commutant (``reps.commutant_basis``)."""
    ops = np.asarray(commutant_basis(rep, tol))
    if rep._summands is None:
        return [(slice(None), ops, boundary_split(rep, tol))]
    r1, r2 = rep._summands
    top = (len(ops) + len(commutant_basis(r1, tol)) - len(commutant_basis(r2, tol))) // 2
    return [
        (slice(None, r1.dim), ops[:top], boundary_split(r1, tol)),
        (slice(r1.dim, None), ops[top:], boundary_split(r2, tol)),
    ]


def commutant_residual(action: AffineAction, pair_or_map) -> float:
    """Worst residual of the commutant equations over all generators."""
    u, t = pair_or_map.deviation, pair_or_map.translation
    worst = 0.0
    for m, b in zip(action.rep.matrices, action.cocycle.values):
        worst = max(worst, frobenius(u @ m - m @ u))
        worst = max(worst, float(np.linalg.norm(u @ b - (m @ t - t))))
    return worst


@dataclass(frozen=True)
class IrreducibilityVerdict:
    """Outcome of the commutant decision, with verified witness data.

    Reducible verdicts carry an affine commutant element with U != 0, the
    invariant affine subspace extracted from it, and the residuals both were
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


def fixed_points(action: AffineAction, tol: ToleranceProfile | None = None) -> FixedPoints:
    """All points fixed by every generator, certified invariant.

    v is fixed iff B v = -b with B = [pi(s) - I]_s, so the cached
    ``boundary_split`` decides it: consistent when b's part off its
    ``image`` is within eps_residual (1 + ||b||); the fixed points are then
    -B+ b plus its ``kernel``, the fixed space.
    """
    tol = tol or action.tol
    split, b = boundary_split(action.rep, tol), action.cocycle.coordinates()
    off_image = float(np.linalg.norm(b - split.image @ (split.image.conj().T @ b)))
    if not residual_ok(off_image, float(np.linalg.norm(b)), tol.eps_residual):
        return FixedPoints(None)
    subspace = AffineSubspace(-split.pinv @ b, split.kernel)
    defect = certify(check_invariance(action, subspace), (subspace.base,), action, tol, "fixed-point subspace")
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


def invariant_subspace_from_witness(
    action: AffineAction, witness: AffineMap, tol: ToleranceProfile | None = None
) -> AffineSubspace:
    """Proper invariant affine subspace extracted from a supplied commutant element.

    A witness that is the identity or fails the commutant equations raises
    WitnessError. The witness is rescaled to unit ||U||, so its magnitude
    does not matter, and K is read off one SVD of U (``_kernel_subspace``)
    and certified (see ``certify``).
    """
    tol = tol or action.tol
    u, t = witness.deviation, witness.translation
    if frobenius(u) <= tol.eps_residual:
        raise WitnessError("witness has linear part equal to the identity (U = 0)")
    residual = commutant_residual(action, witness)
    if not residual_ok(residual, certification_scale((u, t), action), tol.eps_residual):
        raise WitnessError(f"witness fails the commutant equations (residual {residual:.3e})")
    unit = _normalized_witness(u, t)
    subspace = _kernel_subspace(unit.deviation, unit.translation, tol)
    certify(check_invariance(action, subspace), (subspace.base,), action, tol, "extracted subspace")
    return subspace


def _kernel_subspace(v: np.ndarray, t_i: np.ndarray, tol: ToleranceProfile) -> AffineSubspace:
    """K = {z : V_top z + P_top t_i = 0}, a proper invariant affine subspace
    read off one SVD V = L S R*; the caller certifies it.

    V solves V b = (pi_i - I) t_i and V pi = pi_i V: U itself for a plain
    action, one row block for a sum (``_row_block_witness``). V_top = P_top V
    keeps the top singular cluster (leading sigma whose squares chain with
    gaps <= eps_eig, the rule of ``hermitian_eigensystem``, at most
    ``numerical_rank`` of them). P_top = L_top L_top* is a spectral
    projector of V V*, so it commutes with pi_i, (V_top, P_top t_i) solves
    the same equation, and V_top(pi z + b) + P_top t_i =
    pi_i (V_top z + P_top t_i) keeps K invariant. K has base -V_top+ t_i;
    for V = U it is the K of the top eigenspace of U*U.
    """
    left, singular, right = np.linalg.svd(v, full_matrices=True)
    splits = -np.diff(singular[: numerical_rank(singular, tol)] ** 2) > tol.eps_eig
    keep = int(np.argmax(np.append(splits, True))) + 1
    base = -right[:keep].conj().T @ ((left[:, :keep].conj().T @ t_i) / singular[:keep])
    return AffineSubspace(base, right[keep:].conj().T)


def _normalized_witness(u: np.ndarray, t: np.ndarray) -> AffineMap:
    """The commutant element (U, t) rescaled so U has unit norm.

    The system is homogeneous, so scaling preserves membership; without it a
    large cocycle makes every unit basis vector carry an almost-invisible U
    and the extraction would sit at the noise floor.
    """
    scale = frobenius(u)
    return AffineMap(np.eye(u.shape[0]) + u / scale, t / scale)


def decide_irreducibility(action: AffineAction, tol: ToleranceProfile | None = None) -> IrreducibilityVerdict:
    """Decide irreducibility via the affine commutant.

    Irreducible iff every solution pair has U = 0 (the affine Schur lemma:
    no nonzero U in the commutant of pi sends b to a coboundary). Since
    pure-translation solutions (U = 0) force their vector into the fixed
    space, that is equivalent to the scale-free test used here: the solution
    space is no larger than the fixed space. The generator equations suffice
    because commuting with each generator map forces commuting with every
    word (tested as a property, not assumed). The commutant of pi and the
    split of the boundary map, with the fixed space, are solved once per
    representation and reused by every cocycle over it; only the small
    annihilator test of ``affine_commutant`` runs per cocycle. The commutant
    is solved at unit cocycle scale, so the verdict is invariant under
    b -> lambda b.
    Reducible verdicts attach a witness with unit ||U|| and its invariant
    subspace, both certified; a witness failing certification raises
    InternalCheckError. For a plain action the witness is the max-norm pair
    and the subspace comes from one SVD of its U (``_kernel_subspace``), with
    no U*U eigensolve. For a direct sum it is one row block
    (``_row_block_witness``), with no factorization at the sum's
    dimension when the summands are equal bit for bit. Irreducible verdicts
    are checked against the fixed space (the commutant must be exactly the
    translations along it).
    """
    tol = tol or action.tol
    pairs = affine_commutant(action, tol).pairs
    fixed = fixed_subspace(action.rep, tol)
    if len(pairs) > fixed.shape[1]:
        if action.rep._summands is None:
            pair = max(pairs, key=lambda p: p.deviation_norm)
            witness = _normalized_witness(pair.deviation, pair.translation)
            subspace = _kernel_subspace(witness.deviation, witness.translation, tol)
        else:
            witness, subspace = _row_block_witness(action, pairs, tol)
        residuals = {
            "witness_commutant": certify(
                commutant_residual(action, witness), (witness.deviation, witness.translation), action, tol,
                "witness map",
            ),
            "subspace_invariance": certify(
                check_invariance(action, subspace), (subspace.base,), action, tol, "extracted subspace"
            ),
        }
        return IrreducibilityVerdict(True, pairs, witness, subspace, residuals=residuals)

    if len(pairs) != fixed.shape[1]:
        raise InternalCheckError(
            f"commutant dimension {len(pairs)} < fixed-space dimension {fixed.shape[1]}"
        )
    for pair in pairs:
        off = pair.translation - fixed @ (fixed.conj().T @ pair.translation)
        t_norm = float(np.linalg.norm(pair.translation))
        if not residual_ok(float(np.linalg.norm(off)), t_norm, tol.eps_residual):
            raise InternalCheckError("commutant translation leaves the fixed space")
    return IrreducibilityVerdict(False, pairs, translation_directions=fixed)


def _equal_summands(action: AffineAction) -> bool:
    """The action is a direct sum a (+) a of summands equal bit for bit."""
    r1, r2 = action.rep._summands
    return r1 is r2 and all(np.array_equal(b[: r1.dim], b[r1.dim :]) for b in action.cocycle.values)


def _row_block_witness(
    action: AffineAction, pairs, tol: ToleranceProfile
) -> tuple[AffineMap, AffineSubspace]:
    """The witness of a reducible direct sum and its subspace, from one row
    block of its commutant.

    A pair whose U has one nonzero row block V (the rows of a summand
    pi_i) and whose t has one block t_i solves V b = (pi_i - I) t_i with V
    intertwining pi with pi_i, so ``_kernel_subspace`` reads a proper
    invariant affine subspace K off one SVD of V. For summands equal bit
    for bit the block is (I, -I, 0) and K is the diagonal, with no
    factorization. Otherwise it is the combination, under the fixed
    weights of ``reps._generic_weights``, of the N2 pairs of
    ``affine_commutant`` (bottom rows, as in ``_graph_projections``), or
    of the N1 pairs when there are none, rescaled to unit ||U||.
    """
    d1, d = action.rep._summands[0].dim, action.dim
    dtype = action.rep.dtype
    if _equal_summands(action):
        u, t = np.zeros((d, d), dtype), np.zeros(d, dtype)
        u[d1:, :d1], u[d1:, d1:] = np.eye(d1), -np.eye(d1)
        u /= np.sqrt(2.0 * d1)
        diagonal = np.vstack([np.eye(d1, dtype=dtype)] * 2) / np.sqrt(2.0)
        return AffineMap(np.eye(d) + u, t), AffineSubspace(np.zeros(d, dtype), diagonal)
    moving = [p for p in pairs if p.deviation.any()]
    bottom = [p for p in moving if p.deviation[d1:].any()]
    rows = slice(d1, None) if bottom else slice(None, d1)
    block = bottom or moving
    weights = _generic_weights(len(block), REAL)
    u = np.tensordot(weights, [p.deviation for p in block], 1)
    t = weights @ np.array([p.translation for p in block])
    witness = _normalized_witness(u, t)
    return witness, _kernel_subspace(witness.deviation[rows], witness.translation[rows], tol)


def project_action(action: AffineAction, basis: np.ndarray, tol: ToleranceProfile | None = None) -> AffineAction:
    """Compress the action onto an invariant subspace, in the supplied basis.

    ``basis`` must have orthonormal columns spanning a subspace invariant
    under the representation; the projected cocycle is the orthogonal
    projection of the original one.
    """
    tol = tol or action.tol
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

    Each summand is held to its own validity bounds; the sum is not
    re-validated, since its defects combine the summands' (the block
    isometry defect is sqrt 2 times that of two equal summands) while the
    isometry bound does not grow with the number of blocks; the sum's
    defects are computed only if asked for.

    The sum's representation keeps its two summand representations, so its
    generic eigenbasis, commutant and boundary split are assembled from the
    summands' cached solves (see ``reps.commutant_basis``). Summands whose
    matrices are equal bit for bit are kept as the first one twice, so
    a (+) a solves pi once, also when a is loaded twice.
    """
    if a1.presentation != a2.presentation:
        raise ActionError("direct sum requires identical presentations")
    if a1.field != a2.field:
        raise ActionError("direct sum requires a common scalar field")
    for summand in (a1, a2):
        if failure := validity_report(summand.tol, summand.rep, summand.cocycle).failure:
            raise failure
    r1, r2 = a1.rep, a2.rep
    d1, d2 = r1.dim, r2.dim
    matrices = []
    for m1, m2 in zip(r1.matrices, r2.matrices):
        block = np.zeros((d1 + d2, d1 + d2), dtype=m1.dtype)
        block[:d1, :d1] = m1
        block[d1:, d1:] = m2
        matrices.append(block)
    rep = Representation(a1.presentation, a1.field, matrices, dim=d1 + d2, tol=a1.tol, validate=False)
    if d1 == d2 and all(np.array_equal(m1, m2) for m1, m2 in zip(r1.matrices, r2.matrices)):
        r2 = r1
    rep._summands = (r1, r2)
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
    tol: ToleranceProfile | None = None,
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
    definite NotFound; exhausted sampling is probabilistic.
    """
    trials = int_at_least("trials", trials, 0)
    seed = checked_seed(seed)
    if a1.presentation != a2.presentation:
        raise ActionError("equivalence requires identical presentations")
    if a1.field != a2.field:
        raise ActionError("equivalence requires a common scalar field")
    if a1.dim != a2.dim:
        return EquivalenceResult(False, None, probabilistic=False)
    tol = tol or a1.tol
    d = a1.dim
    s = unit_scale(tol, a1, a2)
    homs, split = hom_basis(a1.rep, a2.rep, tol), boundary_split(a2.rep, tol)
    moved, rhs = _moved_values(homs, a1, s), a2.cocycle.coordinates() / s
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


def analyze_direct_sum(
    a1: AffineAction, a2: AffineAction, tol: ToleranceProfile | None = None
) -> DirectSumAnalysis:
    """Decide a1 (+) a2 and, when reducible, exhibit equivalent projections.

    The decision solves the sum's annihilator as two problems at summand
    size (``affine_commutant``) and certifies every pair, the witness map
    and its subspace at the sum's dimension (``decide_irreducibility``).
    Write the verdict's witness as U = [[A, B], [C, D]] and t = (t1, t2)
    in the summands' blocks. Its bottom row block solves
    C b1 + D b2 = (pi2 - I) t2 with C in Hom(pi1, pi2) and D in pi2', so
    K = {(x, y) : C x + D y + t2 = 0} is an invariant affine subspace. For
    summands equal bit for bit the block is (I, -I, 0), K is the diagonal,
    and the projected actions are the summands themselves. Otherwise the
    block is the generic combination of the N2 pairs that the witness
    already is (``_row_block_witness``; nothing is drawn), refined: with P
    the projector onto range C and P_R the one onto R = range(P D), the
    block (C, D, t2) is replaced by (P_R C, P_R D, P_R t2). P_R commutes
    with pi2, so the refined block solves the same equation, and now
    range C = range D = R with t2 in R. (For irreducible summands every
    nonzero block already has range C = range D, and the refinement changes
    nothing.) By Goursat's lemma K is then the graph of a bijection: the
    projected actions on W1 = range C* and W2 = range D* are equivalent
    through x -> -D+(C x + t2), which is certified against the projected
    generator maps. The decision divides both cocycles by the one scale of
    the sum (see ``unit_scale``); the block is linear in the commutant
    translations, which come back multiplied by that scale, so it needs no
    rescaling.

    A block that is zero (the witness came from the top rows, N2 = 0) or
    fails certification means the hypothesis of the criterion fails: a
    reducible summand is named in an ActionError; two irreducible summands
    raise InternalCheckError. The summands are decided only then: a sum
    with a reducible summand whose block certifies (every fixture double,
    the reducible glide, c2_flip and z_flip among them) still returns its
    equivalent projections.
    """
    sum_action = direct_sum(a1, a2)
    tol = tol or sum_action.tol
    verdict = decide_irreducibility(sum_action, tol)
    if verdict.irreducible:
        return DirectSumAnalysis(sum_action, verdict, None)
    projections = _graph_projections(sum_action, a1, a2, verdict.witness_map, tol)
    if projections is None:
        for name, summand in (("first", a1), ("second", a2)):
            if decide_irreducibility(summand, tol).reducible:
                raise ActionError(
                    f"the {name} summand is reducible; the direct-sum criterion needs irreducible summands"
                )
        raise InternalCheckError(
            "reducible direct sum of irreducible summands, but its commutant "
            "gave no verified pair of equivalent projections"
        )
    return DirectSumAnalysis(sum_action, verdict, projections)


def _graph_projections(
    sum_action: AffineAction, a1: AffineAction, a2: AffineAction, witness: AffineMap, tol: ToleranceProfile
) -> EquivalentProjections | None:
    """The certified projections of the witness's refined bottom row block
    (see ``analyze_direct_sum``), or None."""
    d1 = a1.dim
    if _equal_summands(sum_action):
        # a (+) a: the block (I, -I, 0), whose subspace is the diagonal
        w1 = w2 = np.eye(d1, dtype=a1.rep.dtype)
        mapping = AffineMap(w1, np.zeros(d1, dtype=a1.rep.dtype))
        p1, p2 = a1, a2
    else:
        u, t = witness.deviation, witness.translation
        graph = _refined_graph(u[d1:, :d1], u[d1:, d1:], t[d1:], tol)
        if graph is None:
            return None
        w1, w2, mapping = graph
        try:
            p1, p2 = project_action(a1, w1, tol), project_action(a2, w2, tol)
        except ValueError:  # non-invariant basis or near-tolerance rep validation
            return None
    residual = intertwining_residual(p1, p2, mapping)
    if residual_ok(residual, certification_scale((mapping.linear, mapping.translation), a1, a2), tol.eps_residual):
        return EquivalentProjections(w1, w2, mapping, {"intertwining": residual})
    return None


def _refined_graph(
    c: np.ndarray, d: np.ndarray, t2: np.ndarray, tol: ToleranceProfile
) -> tuple[np.ndarray, np.ndarray, AffineMap] | None:
    """``(W1, W2, x -> -D+(C x + t2))`` for the refined row block
    (C, D, t2), or None when the refined block is zero. The block is
    scale-free; the rank cuts are relative to a witness with unit ||U||."""
    q = orthonormal_columns(c, tol)
    r = q @ orthonormal_columns(q.conj().T @ d, tol)
    if not r.shape[1]:
        return None
    c, d, t2 = r.conj().T @ c, r.conj().T @ d, r.conj().T @ t2
    w1, w2 = np.linalg.qr(c.conj().T)[0], np.linalg.qr(d.conj().T)[0]
    dw2 = d @ w2
    return w1, w2, AffineMap(-np.linalg.solve(dw2, c @ w1), -np.linalg.solve(dw2, t2))
