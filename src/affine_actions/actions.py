"""Affine isometric actions and the commutant-based irreducibility decision.

An affine action pairs a representation with a cocycle: g acts by
v -> pi(g)v + b(g). An affine map Av = Tv + t commutes with the whole action
iff, writing U = T - I,

    U pi(s) = pi(s) U   and   U b(s) = (pi(s) - I) t      for all generators s.

The action is irreducible exactly when every solution of this homogeneous
system has U = 0; in that case the solutions are precisely the translations
along the fixed space of the representation. When some solution has U != 0,
a proper invariant affine subspace is extracted from a spectral projector of
U*U, and that witness is certified (see ``certify``) before being returned.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    ToleranceProfile,
    as_field_array,
    checked_seed,
    frobenius,
    hermitian_eigensystem,
    int_at_least,
    null_space_basis,
    numerical_rank,
    orthonormal_columns,
    random_vectors,
    residual_ok,
    solve_affine_system,
    unvec,
    vec,
)
from .reps import (
    Cocycle,
    Representation,
    boundary_split,
    commutant_basis,
    fixed_subspace,
    intertwiner_system,
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
    """max ||b(s)|| over every generator value of the given actions."""
    return max((float(np.linalg.norm(b)) for a in actions for b in a.cocycle.values), default=0.0)


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


def _split_solution(column: np.ndarray, dim: int) -> CommutantPair:
    return CommutantPair(unvec(column[: dim * dim], dim, dim), column[dim * dim :])


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
    Each pair is certified; one failing raises InternalCheckError.
    """
    tol = tol or action.tol
    rep, d = action.rep, action.dim
    s = unit_scale(tol, action)
    ops = np.asarray(commutant_basis(rep, tol))
    split = boundary_split(rep, tol)
    moved = _moved_values(ops, action, s)
    coefficients = null_space_basis(moved - split.image @ (split.image.conj().T @ moved), tol)
    pairs = tuple(CommutantPair(np.zeros((d, d), rep.dtype), s * f) for f in split.kernel.T)
    if coefficients.shape[1]:
        # the t = B+ U b lie off the fixed space, so only these pairs need
        # orthonormalizing in (vec U, t/s); vec U is isometric in x
        stacked = np.linalg.qr(np.vstack([coefficients, split.pinv @ (moved @ coefficients)]))[0]
        deviations = (stacked[: len(ops)].T @ ops.reshape(len(ops), d * d)).reshape(-1, d, d)
        pairs = tuple(CommutantPair(u, s * t) for u, t in zip(deviations, stacked[len(ops) :].T)) + pairs
    residuals = [
        certify(commutant_residual(action, p), (p.deviation, p.translation), action, tol, "commutant basis element")
        for p in pairs
    ]
    return AffineCommutant(pairs, {"worst_equation_defect": max(residuals, default=0.0)})


def commutant_residual(action: AffineAction, pair_or_map) -> float:
    """Worst residual of the commutant equations over all generators."""
    u, t = pair_or_map.deviation, pair_or_map.translation
    worst = 0.0
    eye = np.eye(action.dim)
    for m, b in zip(action.rep.matrices, action.cocycle.values):
        worst = max(worst, frobenius(u @ m - m @ u))
        worst = max(worst, float(np.linalg.norm(u @ b - (m - eye) @ t)))
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
    """All points fixed by every generator, certified invariant."""
    tol = tol or action.tol
    solution = solve_affine_system(action.rep.boundary_map(), -action.cocycle.coordinates(), tol)
    if solution is None:
        return FixedPoints(None)
    subspace = AffineSubspace(solution.particular, solution.homogeneous)
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
    WitnessError; the extracted subspace is certified (see ``certify``).
    """
    tol = tol or action.tol
    u, t = witness.deviation, witness.translation
    if frobenius(u) <= tol.eps_residual:
        raise WitnessError("witness has linear part equal to the identity (U = 0)")
    residual = commutant_residual(action, witness)
    if not residual_ok(residual, certification_scale((u, t), action), tol.eps_residual):
        raise WitnessError(f"witness fails the commutant equations (residual {residual:.3e})")
    return _certified_subspace(action, u, t, tol)[0]


def _projector_base_point(basis: np.ndarray, u: np.ndarray, t: np.ndarray) -> np.ndarray:
    """v0 = (U*U|_ImE)^-1 E U* t for E the projector onto span(basis).

    The cocycle projected by E is the coboundary of v0.
    """
    compressed = basis.conj().T @ (u.conj().T @ u) @ basis
    return basis @ np.linalg.solve(compressed, basis.conj().T @ (u.conj().T @ t))


def _certified_subspace(
    action: AffineAction, u: np.ndarray, t: np.ndarray, tol: ToleranceProfile
) -> tuple[AffineSubspace, float]:
    """K = {x : Ex = -v0} and its certified invariance residual.

    With U = T - I nonzero, the top eigenspace of U*U carries a projector E
    commuting with the representation, so K is invariant.
    """
    top_value, top_basis = hermitian_eigensystem(u.conj().T @ u, tol)[-1]
    if top_value <= tol.eps_eig:
        raise InternalCheckError("top eigenvalue of U*U is numerically indistinguishable from zero")
    v0 = _projector_base_point(top_basis, u, t)
    subspace = AffineSubspace(-v0, null_space_basis(top_basis.conj().T, tol))
    if subspace.dim >= action.dim:
        raise InternalCheckError("extracted subspace is not proper")
    return subspace, certify(check_invariance(action, subspace), (v0,), action, tol, "extracted subspace")


def _normalized_witness(pair: CommutantPair) -> AffineMap:
    """The commutant element rescaled so its deviation has unit norm.

    The system is homogeneous, so scaling preserves membership; without it a
    large cocycle makes every unit basis vector carry an almost-invisible U
    and the spectral extraction would sit at the noise floor.
    """
    scale = pair.deviation_norm
    return AffineMap(np.eye(pair.deviation.shape[0]) + pair.deviation / scale, pair.translation / scale)


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
    Reducible verdicts attach the max-norm witness and its extracted
    invariant subspace, both certified; a witness failing certification
    raises InternalCheckError. Irreducible verdicts are checked against the
    fixed space (the commutant must be exactly the translations along it).
    """
    tol = tol or action.tol
    pairs = affine_commutant(action, tol).pairs
    fixed = fixed_subspace(action.rep, tol)
    if len(pairs) > fixed.shape[1]:
        witness = _normalized_witness(max(pairs, key=lambda p: p.deviation_norm))
        u, t = witness.deviation, witness.translation
        residual = commutant_residual(action, witness)
        residuals = {"witness_commutant": certify(residual, (u, t), action, tol, "witness map")}
        subspace, residuals["subspace_invariance"] = _certified_subspace(action, u, t, tol)
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
    isometry bound does not grow with the number of blocks.
    """
    if a1.presentation != a2.presentation:
        raise ActionError("direct sum requires identical presentations")
    if a1.field != a2.field:
        raise ActionError("direct sum requires a common scalar field")
    for summand in (a1, a2):
        if failure := validity_report(summand.tol, summand.rep, summand.cocycle).failure:
            raise failure
    d1, d2 = a1.dim, a2.dim
    matrices = []
    for m1, m2 in zip(a1.rep.matrices, a2.rep.matrices):
        block = np.zeros((d1 + d2, d1 + d2), dtype=m1.dtype)
        block[:d1, :d1] = m1
        block[d1:, d1:] = m2
        matrices.append(block)
    rep = Representation(a1.presentation, a1.field, matrices, dim=d1 + d2, tol=a1.tol, validate=False)
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


def equivalence_system(a1: AffineAction, a2: AffineAction, scale: float, tol: ToleranceProfile):
    """``(homs, system, rhs)``: a Hom(pi1, pi2) basis T_j, orthonormal in
    vec T, as a (h, d2, d1) stack, and the system
    sum_j x_j T_j b1(s) - (pi2(s) - I) t = b2(s) in (x, t~), both cocycles
    divided by ``scale``. As in ``intertwiner_system``, t~ = Q2* t and the
    equations are multiplied by Q2*, which keeps a translation of order
    1/theta along a rotation plane of angle theta off the other entries
    (README "How the commutant is solved").
    """
    gram, apply, lift = intertwiner_system(a1.rep, a2.rep, tol)
    _, q2, p2 = a2.rep.generic_eigenbasis
    homs = lift(null_space_basis(gram, tol, apply)).T.reshape(-1, a2.dim, a1.dim)
    shifted = (p2 - np.eye(a2.dim)).reshape(-1, a2.dim)
    rhs = (a2.cocycle.coordinates().reshape(-1, a2.dim) / scale) @ q2.conj()
    return homs, np.hstack([_moved_values(q2.conj().T @ homs, a1, scale), -shifted]), rhs.reshape(-1)


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
    ``intertwiner_system``, then the small explicit system
    sum_j x_j T_j b1(s) - (pi2(s) - I) t = b2(s) in (x, t) with
    ``solve_affine_system``. It then samples the affine solution set for an
    invertible T: the particular solution, then ``trials`` random ones
    (``trials = 0`` tries the particular solution only). Different
    dimensions and an unsolvable system are a definite NotFound; exhausted
    sampling is probabilistic.
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
    homs, system, rhs = equivalence_system(a1, a2, s, tol)
    solution = solve_affine_system(system, rhs, tol)
    if solution is None:
        return EquivalenceResult(False, None, probabilistic=False)
    q2 = a2.rep.generic_eigenbasis[1]

    samples = random_vectors(trials, solution.dim, a1.field, np.random.default_rng(seed))
    coeffs = np.column_stack([np.zeros(solution.dim, dtype=system.dtype), samples.T])
    candidates = solution.particular[:, None] + solution.homogeneous @ coeffs
    for column in candidates.T:
        t_mat = np.tensordot(column[: len(homs)], homs, 1)
        singular = np.linalg.svd(t_mat, compute_uv=False)
        if numerical_rank(singular, tol) < d:
            continue
        mapping = AffineMap(t_mat, s * (q2 @ column[len(homs) :]))
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


def _extraction_candidates(
    action: AffineAction, pairs: list[CommutantPair], d1: int, seed: int | None
) -> Iterator[CommutantPair]:
    """Commutant elements to try for the transverse-subspace extraction, made
    only as they are asked for: the projected swap (when both summands have
    dimension d1), the pairs by decreasing deviation, then 10 random
    combinations."""
    d = action.dim
    if not pairs:
        return
    columns = np.column_stack([np.concatenate([vec(p.deviation), p.translation]) for p in pairs])
    if 2 * d1 == d:
        # the coordinate-swap element certifies the diagonal whenever the two
        # summands literally coincide; its projection onto the solution space
        # is always a valid commutant element
        eye = np.eye(d1)
        swap_dev = np.block([[-eye, eye], [eye, -eye]]).astype(action.rep.dtype)
        target = np.concatenate([vec(swap_dev), np.zeros(d, dtype=action.rep.dtype)])
        yield _split_solution(columns @ (columns.conj().T @ target), d)
    yield from sorted(pairs, key=lambda p: -p.deviation_norm)
    for coeffs in random_vectors(10, len(pairs), action.field, np.random.default_rng(seed)):
        yield _split_solution(columns @ coeffs, d)


def analyze_direct_sum(
    a1: AffineAction,
    a2: AffineAction,
    tol: ToleranceProfile | None = None,
    seed: int | None = 0,
) -> DirectSumAnalysis:
    """Decide a1 (+) a2 and, when reducible, exhibit equivalent projections.

    A reducible sum of irreducible actions always admits a linear invariant
    subspace K, transverse to both summands, on which the cocycle is a
    coboundary; the graph map of K intertwines the projected actions. K is
    found among eigenspaces of U*U over commutant elements; every returned
    intertwiner is certified against the projected generator maps. The
    decision divides both cocycles by the one scale of the sum (see
    ``unit_scale``); the extraction is linear in the commutant translations,
    which come back multiplied by that scale, so it needs no rescaling.
    """
    seed = checked_seed(seed)
    sum_action = direct_sum(a1, a2)
    tol = tol or sum_action.tol
    verdict = decide_irreducibility(sum_action, tol)
    if verdict.irreducible:
        return DirectSumAnalysis(sum_action, verdict, None)

    d1 = a1.dim
    pairs = list(verdict.commutant)
    for raw in _extraction_candidates(sum_action, pairs, d1, seed):
        if raw.deviation_norm <= 1e-12:
            continue
        pair = CommutantPair(
            raw.deviation / raw.deviation_norm, raw.translation / raw.deviation_norm
        )
        gram = pair.deviation.conj().T @ pair.deviation
        clusters = hermitian_eigensystem(gram, tol)
        for value, basis in reversed(clusters):
            if value <= tol.eps_eig:
                continue
            projections = _try_graph_extraction(a1, a2, pair, basis, tol)
            if projections is not None:
                return DirectSumAnalysis(sum_action, verdict, projections)
    raise InternalCheckError(
        "reducible direct sum, but no commutant element produced a verified "
        "pair of equivalent projections"
    )


def _try_graph_extraction(
    a1: AffineAction,
    a2: AffineAction,
    pair: CommutantPair,
    basis: np.ndarray,
    tol: ToleranceProfile,
) -> EquivalentProjections | None:
    """Attempt the graph-map construction on one U*U eigenspace."""
    d1 = a1.dim
    k = basis.shape[1]
    v0 = _projector_base_point(basis, pair.deviation, pair.translation)

    q1, q2 = basis[:d1], basis[d1:]
    if min(q1.shape) == 0 or min(q2.shape) == 0:
        return None
    s1 = np.linalg.svd(q1, compute_uv=False)
    s2 = np.linalg.svd(q2, compute_uv=False)
    # transversality: both coordinate projections injective on the eigenspace;
    # absolute floor as well, since a nearly-contained eigenspace has
    # uniformly tiny singular values that a relative cut would keep
    if min(s1.min(), s2.min()) <= tol.eps_rank:
        return None
    if numerical_rank(s1, tol) < k or numerical_rank(s2, tol) < k:
        return None
    w1 = orthonormal_columns(q1, tol)
    w2 = orthonormal_columns(q2, tol)

    m1 = w1.conj().T @ q1
    m2 = w2.conj().T @ q2
    graph = m2 @ np.linalg.inv(m1)
    linear = np.linalg.inv(-graph.conj().T)

    shift = -v0
    c1 = w1.conj().T @ shift[:d1]
    c2 = w2.conj().T @ shift[d1:]
    mapping = AffineMap(linear, c2 - linear @ c1)

    try:
        p1 = project_action(a1, w1, tol)
        p2 = project_action(a2, w2, tol)
    except ValueError:  # non-invariant basis or near-tolerance rep validation
        return None
    residual = intertwining_residual(p1, p2, mapping)
    if residual_ok(residual, certification_scale((linear, mapping.translation), a1, a2), tol.eps_residual):
        return EquivalentProjections(w1, w2, mapping, {"intertwining": residual})
    return None
