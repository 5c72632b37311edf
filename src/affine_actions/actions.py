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


def affine_commutant(action: AffineAction) -> AffineCommutant:
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
    rep, d = action.rep, action.dim
    s = unit_scale(action)
    pairs = []
    for rows, ops, split in _annihilator_blocks(rep):
        moved = _moved_values(ops[:, rows], action, s)
        coefficients = null_space_basis(moved - split.image @ (split.image.conj().T @ moved), action.tol)
        if not coefficients.shape[1]:
            continue
        # the t = B+ U b lie off the fixed space, so only these pairs need
        # orthonormalizing in (vec U, t/s); vec U is isometric in x
        stacked = np.linalg.qr(np.vstack([coefficients, split.pinv @ (moved @ coefficients)]))[0]
        deviations = (stacked[: len(ops)].T @ ops.reshape(len(ops), d * d)).reshape(-1, d, d)
        translations = np.zeros((len(deviations), d), stacked.dtype)
        translations[:, rows] = s * stacked[len(ops) :].T
        pairs += map(CommutantPair, deviations, translations)
    pairs += [CommutantPair(np.zeros((d, d), rep.dtype), s * f) for f in boundary_split(rep).kernel.T]
    residuals = [
        certify(commutant_residual(action, p), (p.deviation, p.translation), action, "commutant basis element")
        for p in pairs
    ]
    return AffineCommutant(tuple(pairs), {"worst_equation_defect": max(residuals, default=0.0)})


def _annihilator_blocks(rep: Representation) -> list:
    """``(rows, ops, split)`` per row block of the stage-3 annihilator: the
    commutant elements whose nonzero rows are ``rows``, and the boundary
    split those rows are solved against. A plain representation is one
    block; a direct sum is its summands' two, with the top one holding the
    first c1 + h elements of its block commutant (``reps.commutant_basis``)."""
    ops = np.asarray(commutant_basis(rep))
    if rep._summands is None:
        return [(slice(None), ops, boundary_split(rep))]
    r1, r2 = rep._summands
    top = (len(ops) + len(commutant_basis(r1)) - len(commutant_basis(r2))) // 2
    return [
        (slice(None, r1.dim), ops[:top], boundary_split(r1)),
        (slice(r1.dim, None), ops[top:], boundary_split(r2)),
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
    first reduced by one QR of [S, T] = Q [R, c], since S+ T = R+ c.
    """
    r = np.linalg.qr(np.column_stack([s, t]), mode="r")
    left, singular, right = np.linalg.svd(r[:, :-1], full_matrices=len(r) < s.shape[1])
    rank = numerical_rank(singular, tol)
    base = -right[:rank].conj().T @ ((left[:, :rank].conj().T @ r[:, -1]) / singular[:rank])
    return AffineSubspace(base, right[rank:].conj().T)


def _minimal_subspace(pairs, tol: ToleranceProfile) -> AffineSubspace:
    """The minimal invariant affine subspace of the commutant ``pairs``: K of
    ``_kernel_subspace`` with S the nonzero rows of every pair's U stacked
    and T the matching entries of its t (see ``decide_irreducibility``)."""
    rows = np.vstack([p.deviation for p in pairs])
    kept = rows.any(axis=1)
    return _kernel_subspace(rows[kept], np.concatenate([p.translation for p in pairs])[kept], tol)


def decide_irreducibility(action: AffineAction) -> IrreducibilityVerdict:
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

    A Reducible verdict carries the minimal invariant affine subspace K and
    the nearest-point map onto it, (U, t) = (-p, base of K), both certified
    (failing raises InternalCheckError). The U-parts of the pairs form a
    left ideal pi' p of pi' (A U b = (pi - I) A t for A in pi'), p the
    projector onto their joint row space, and K = {z : p z + t_p = 0} is
    read off the stacked nonzero rows of every pair's U
    (``_minimal_subspace``). An invariant K' gives the pair of its
    nearest-point map, so dim K' >= dim K: K is minimal, and its dimension
    does not depend on the null-space basis. For a (+) a with summands
    equal bit for bit, K is read at summand size (``_double_witness``).
    Irreducible verdicts are checked against the fixed space (the commutant
    must be exactly the translations along it).
    """
    pairs = affine_commutant(action).pairs
    fixed = fixed_subspace(action.rep)
    if len(pairs) > fixed.shape[1]:
        if _equal_summands(action):
            witness, subspace = _double_witness(action, pairs)
        else:
            subspace = _minimal_subspace(pairs, action.tol)
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
        off = pair.translation - fixed @ (fixed.conj().T @ pair.translation)
        t_norm = float(np.linalg.norm(pair.translation))
        if not residual_ok(float(np.linalg.norm(off)), t_norm, action.tol.eps_residual):
            raise InternalCheckError("commutant translation leaves the fixed space")
    return IrreducibilityVerdict(False, pairs, translation_directions=fixed)


def _equal_summands(action: AffineAction) -> bool:
    """The action is a direct sum a (+) a of summands equal bit for bit."""
    if action.rep._summands is None:
        return False
    r1, r2 = action.rep._summands
    return r1 is r2 and all(np.array_equal(b[: r1.dim], b[r1.dim :]) for b in action.cocycle.values)


def _double_witness(action: AffineAction, pairs) -> tuple[AffineMap, AffineSubspace]:
    """The witness and minimal subspace of a (+) a at summand size.

    The commutant of pi (+) pi is M2(pi'), and a row block [A, B] of the
    sum's L holds A + B in a's ideal L_a, so there are 2 (c + dim L_a)
    moving pairs, c = dim pi'. With 2c of them a is irreducible, the joint
    row space is {(y, -y)} and K is the diagonal. Otherwise it also holds
    (p_a y, 0), and K is the diagonal embedding {(z, z) : z in K_a} of a's
    own minimal subspace, solved on a. The nearest-point map onto it is
    [[P, P], [P, P]] / 2 with P that of K_a's directions.
    """
    r1 = action.rep._summands[0]
    d1, dtype = r1.dim, r1.dtype
    if sum(p.deviation.any() for p in pairs) == 2 * len(commutant_basis(r1)):
        base, directions, linear = np.zeros(d1, dtype), np.eye(d1, dtype=dtype), np.eye(d1, dtype=dtype)
    else:
        summand = AffineAction(r1, Cocycle(r1, [b[:d1] for b in action.cocycle.values], validate=False))
        k = _minimal_subspace(affine_commutant(summand).pairs, r1.tol)
        base, directions = k.base, k.directions
        linear = directions @ directions.conj().T
    witness = AffineMap(np.kron(np.full((2, 2), 0.5), linear), np.concatenate([base, base]))
    return witness, AffineSubspace(witness.translation, np.vstack([directions] * 2) / np.sqrt(2.0))


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
    the sum keeps. Each summand is held to its own validity bounds; the sum
    is not re-validated, since its defects combine the summands' (the block
    isometry defect is sqrt 2 times that of two equal summands) while the
    isometry bound does not grow with the number of blocks; the sum's
    defects are computed only if asked for.

    The sum's representation keeps its two summand representations, so its
    commutant and boundary split are assembled from the summands' stored
    solves (see ``reps.commutant_basis``); its generic eigenbasis, which
    only nested sums and ``check_equivalence`` read, is one ``eigh`` at
    d1 + d2. Summands whose matrices are equal bit for bit are kept as the
    first one twice, so a (+) a solves pi once, also when a is loaded twice.
    """
    if a1.presentation != a2.presentation:
        raise ActionError("direct sum requires identical presentations")
    if a1.field != a2.field:
        raise ActionError("direct sum requires a common scalar field")
    if a1.tol != a2.tol:
        raise ActionError("direct sum requires a common tolerance profile")
    for summand in (a1, a2):
        if failure := validity_report(summand.tol, summand.rep, summand.cocycle).failure:
            raise failure
    r1, r2 = a1.rep, a2.rep
    matrices = [_block_diagonal(m1, m2) for m1, m2 in zip(r1.matrices, r2.matrices)]
    rep = Representation(a1.presentation, a1.field, matrices, dim=r1.dim + r2.dim, tol=a1.tol, validate=False)
    if r1.dim == r2.dim and all(np.array_equal(m1, m2) for m1, m2 in zip(r1.matrices, r2.matrices)):
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


def analyze_direct_sum(a1: AffineAction, a2: AffineAction) -> DirectSumAnalysis:
    """Decide a1 (+) a2 and, when reducible, exhibit equivalent projections.

    The paper's criterion is for irreducible summands, so both summands are
    decided first, at summand size and from cached solves: a reducible one
    is named in an ActionError and the sum is not solved. Summands equal bit
    for bit (``_equal_summands``) are not decided: a (+) a is reducible
    whatever a is, K is the diagonal and the projected actions are the
    summands themselves.

    The decision solves the sum's annihilator as two problems at summand
    size (``affine_commutant``) and certifies every pair, the witness map
    and its subspace at the sum's dimension (``decide_irreducibility``).
    Write a commutant element as U = [[A, B], [C, D]] and t = (t1, t2)
    in the summands' blocks. Its bottom row block solves
    C b1 + D b2 = (pi2 - I) t2 with C in Hom(pi1, pi2) and D in pi2', so
    K = {(x, y) : C x + D y + t2 = 0} is an invariant affine subspace. The
    block combines the N2 pairs (bottom rows) under the fixed weights of
    ``reps._generic_weights`` (nothing is drawn) at unit ||U||. For
    irreducible summands range C = range D and t2 lies in it (a part of C
    or D off the other's range would send b1 or b2 to a coboundary), so
    with its rows compressed onto range C, K is by Goursat's lemma the graph
    of a bijection: the projected actions on W1 = range C* and
    W2 = range D* are equivalent through x -> -D+(C x + t2). That map is
    certified against the projected generator maps; a zero or singular
    block, or one that fails, raises InternalCheckError. The block is linear
    in the commutant translations, which the decision solves at the sum's
    unit scale (``unit_scale``) and multiplies back, so it needs no
    rescaling.
    """
    sum_action = direct_sum(a1, a2)
    if not _equal_summands(sum_action):
        for name, summand in (("first", a1), ("second", a2)):
            if decide_irreducibility(summand).reducible:
                raise ActionError(
                    f"the {name} summand is reducible; the direct-sum criterion needs irreducible summands"
                )
    verdict = decide_irreducibility(sum_action)
    if verdict.irreducible:
        return DirectSumAnalysis(sum_action, verdict, None)
    return DirectSumAnalysis(sum_action, verdict, _graph_projections(sum_action, a1, a2, verdict.commutant))


def _graph_projections(sum_action: AffineAction, a1: AffineAction, a2: AffineAction, pairs) -> EquivalentProjections:
    """The certified projections of the bottom row block of the commutant
    ``pairs`` (see ``analyze_direct_sum``). The block is scale-free; the
    rank cut is relative to a witness with unit ||U||."""
    d1, tol = a1.dim, a1.tol
    if _equal_summands(sum_action):
        # a (+) a: the block (I, -I, 0), whose subspace is the diagonal
        w1 = w2 = np.eye(d1, dtype=a1.rep.dtype)
        mapping = AffineMap(w1, np.zeros(d1, dtype=a1.rep.dtype))
        p1, p2 = a1, a2
    else:
        bottom = [p for p in pairs if p.deviation[d1:].any()]
        if not bottom:
            raise InternalCheckError("reducible direct sum of irreducible summands has no bottom-row commutant pair")
        weights = _generic_weights(len(bottom), REAL)
        u = np.tensordot(weights, [p.deviation[d1:] for p in bottom], 1)
        t = weights @ np.array([p.translation[d1:] for p in bottom])
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
