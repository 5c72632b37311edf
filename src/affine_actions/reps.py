"""Isometric representations, their commutants, and first cohomology.

A representation assigns an isometric matrix to each generator of a
presentation; relators must evaluate to the identity within tolerance. A
cocycle assigns a vector to each generator subject to the relator
constraints induced by the twisted chain rule

    b(uv) = b(u) + pi(u) b(v),      b(s^-1) = -pi(s)^-1 b(s).

Cocycle-value tuples live in the coordinate space C^(g*d) (generator values
concatenated); the cocycle space is the null space of the stacked relator
expansion, coboundaries are the image of v -> (pi(s)v - v)_s, and class
representatives are chosen orthogonal to the coboundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    REAL,
    ToleranceProfile,
    as_field_array,
    frobenius,
    null_space_basis,
    numerical_rank,
    orthonormal_columns,
    random_vector,
    residual_ok,
    unvec,
)
from .words import GroupPresentation, Word


class RepresentationError(ValueError):
    """Generator matrices fail isometry or relator identities."""


class CocycleError(ValueError):
    """Generator vectors violate the relator constraints."""


class Representation:
    """Per-generator isometric matrices over a declared scalar field."""

    def __init__(
        self,
        presentation: GroupPresentation,
        field: str,
        matrices,
        dim: int | None = None,
        tol: ToleranceProfile = DEFAULT_TOL,
        validate: bool = True,
    ) -> None:
        matrices = tuple(as_field_array(m, field) for m in matrices)
        if len(matrices) != presentation.num_generators:
            raise RepresentationError(
                f"expected {presentation.num_generators} matrices, got {len(matrices)}"
            )
        if matrices:
            dim = matrices[0].shape[0]
        elif dim is None:
            raise RepresentationError("dimension is required for a generator-free presentation")
        if dim < 1:
            raise RepresentationError("dimension must be >= 1")
        for name, m in zip(presentation.generators, matrices):
            if m.shape != (dim, dim):
                raise RepresentationError(f"matrix for {name!r} has shape {m.shape}, expected {(dim, dim)}")
        self.presentation = presentation
        self.field = field
        self.matrices = matrices
        self.dim = dim
        self.tol = tol
        eye = np.eye(dim)
        self.isometry_defects = tuple(frobenius(m.conj().T @ m - eye) for m in matrices)
        self.relator_defects = tuple(frobenius(self.evaluate(r) - eye) for r in presentation.relators)
        if validate and (failure := validity_report(tol, rep=self).failure):
            raise failure

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.float64 if self.field == REAL else np.complex128)

    def evaluate(self, word: Word) -> np.ndarray:
        """Matrix of a word; inverse letters use the adjoint (isometry)."""
        self.presentation.check_word(word)
        result = np.eye(self.dim, dtype=self.dtype)
        for gen, sign in word.letters:
            m = self.matrices[gen]
            result = result @ (m if sign > 0 else m.conj().T)
        return result

    def boundary_map(self) -> np.ndarray:
        """The (g*d, d) matrix of v -> (pi(s) v - v)_s; its null space is the fixed space."""
        eye = np.eye(self.dim)
        return np.vstack([np.zeros((0, self.dim), self.dtype)] + [m - eye for m in self.matrices])

    def __repr__(self) -> str:
        return (
            f"Representation(generators={self.presentation.generators}, "
            f"field={self.field!r}, dim={self.dim})"
        )


class Cocycle:
    """One vector per generator, extended to all words by the chain rule."""

    def __init__(
        self,
        representation: Representation,
        values,
        tol: ToleranceProfile | None = None,
        validate: bool = True,
    ) -> None:
        tol = tol or representation.tol
        values = tuple(as_field_array(v, representation.field) for v in values)
        if len(values) != representation.presentation.num_generators:
            raise CocycleError(
                f"expected {representation.presentation.num_generators} vectors, got {len(values)}"
            )
        for v in values:
            if v.shape != (representation.dim,):
                raise CocycleError(f"value has shape {v.shape}, expected ({representation.dim},)")
        self.representation = representation
        self.values = values
        self.relator_defects = tuple(
            float(np.linalg.norm(self.extend(r))) for r in representation.presentation.relators
        )
        if validate and (failure := validity_report(tol, cocycle=self).failure):
            raise failure

    def extend(self, word: Word) -> np.ndarray:
        """Value on an arbitrary word via b(uv) = b(u) + pi(u) b(v)."""
        return self.walk(word)[0]

    def walk(self, word: Word) -> tuple[np.ndarray, np.ndarray]:
        """(b(w), pi(w)): one ``step`` per letter of the word from (0, I)."""
        rep = self.representation
        rep.presentation.check_word(word)
        value = np.zeros(rep.dim, dtype=rep.dtype)
        prefix = np.eye(rep.dim, dtype=rep.dtype)
        for gen, sign in word.letters:
            value, prefix = self.step(value, prefix, gen, sign)
        return value, prefix

    def step(self, value: np.ndarray, prefix: np.ndarray, gen: int, sign: int):
        """One letter of the chain rule: (b(w), pi(w)) -> (b(w s), pi(w s)).

        ``s`` is generator ``gen`` for ``sign > 0`` and its inverse otherwise,
        with b(s^-1) = -pi(s)^-1 b(s) and pi(s)^-1 = pi(s)* (isometry).
        ``walk`` (so ``extend`` and ``AffineAction.evaluate``) and the lattice
        walk of ``quadratic_form_test`` all apply these steps from (0, I), so
        one word gives the same bits in each.
        """
        m = self.representation.matrices[gen]
        if sign > 0:
            return value + prefix @ self.values[gen], prefix @ m
        minv = m.conj().T
        return value - prefix @ (minv @ self.values[gen]), prefix @ minv

    def coordinates(self) -> np.ndarray:
        """Concatenated generator values."""
        if not self.values:
            return np.zeros(0, dtype=self.representation.dtype)
        return np.concatenate(self.values)

    def __repr__(self) -> str:
        return f"Cocycle(dim={self.representation.dim}, generators={len(self.values)})"


@dataclass(frozen=True)
class ValidityReport:
    """Each check's verdict, its defects per generator or relator, and the
    first violated bound as the error a validating constructor raises."""

    checks: dict[str, bool]
    residuals: dict[str, list[float]]
    failure: ValueError | None

    @property
    def passed(self) -> bool:
        return self.failure is None


def validity_report(
    tol: ToleranceProfile, rep: Representation | None = None, cocycle: Cocycle | None = None
) -> ValidityReport:
    """Check the stored defects against the three validity bounds, in this order:

        isometry                 ||pi(s)* pi(s) - I||_F <= eps_residual (1 + 1)
        representation relators  ||pi(r) - I||_F        <= eps_residual (1 + sqrt d)
        cocycle relators         ||b(r)||               <= eps_residual (1 + max_s ||b(s)||)

    The first two need ``rep``, the last ``cocycle``. Validating constructors
    raise the report's failure; the CLI ``verify`` verb prints the report.
    """
    bounds = []  # (check, residuals key, defects, scale, error, message of defect i)
    if rep is not None:
        names = rep.presentation.generators
        bounds.append((
            "isometry", "isometry_defects", rep.isometry_defects, 1.0, RepresentationError,
            lambda i, d: f"matrix for {names[i]!r} is not an isometry (defect {d:.3e})",
        ))
        bounds.append((
            "representation_relators", "representation_relator_defects", rep.relator_defects,
            math.sqrt(rep.dim), RepresentationError,
            lambda i, d: f"relator {i} does not evaluate to the identity (defect {d:.3e})",
        ))
    if cocycle is not None:
        defects = cocycle.relator_defects  # the scale is only needed with relators
        scale = max((float(np.linalg.norm(v)) for v in cocycle.values), default=0.0) if defects else 0.0
        bounds.append((
            "cocycle_relators", "cocycle_relator_defects", defects, scale, CocycleError,
            lambda i, d: f"relator {i} has cocycle residual {d:.3e}",
        ))
    checks, residuals, failure = {}, {}, None
    for check, key, defects, scale, error, message in bounds:
        bad = [i for i, d in enumerate(defects) if not residual_ok(d, scale, tol.eps_residual)]
        checks[check] = not bad
        residuals[key] = list(defects)
        if bad and failure is None:
            failure = error(message(bad[0], defects[bad[0]]))
    return ValidityReport(checks, residuals, failure)


def cocycle_from_coordinates(rep: Representation, coords: np.ndarray) -> Cocycle:
    d, g = rep.dim, rep.presentation.num_generators
    coords = np.asarray(coords).reshape(g * d)
    return Cocycle(rep, tuple(coords[i * d : (i + 1) * d] for i in range(g)))


def coboundary(rep: Representation, vector) -> Cocycle:
    """The cocycle v -> (pi(s) v - v)_s of the action conjugated to fix v."""
    vector = as_field_array(vector, rep.field)
    return Cocycle(rep, tuple(m @ vector - vector for m in rep.matrices))


def fixed_subspace(rep: Representation, tol: ToleranceProfile | None = None) -> np.ndarray:
    """Orthonormal basis of the joint fixed space of all generator matrices."""
    return null_space_basis(rep.boundary_map(), tol or rep.tol)


def _first_generator_eigenbasis(rep: Representation) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and orthonormal eigenvectors of H = pi(s0) + pi(s0)*.

    Without generators H is taken to be 0: one eigenvalue, basis I.
    """
    if not rep.matrices:
        return np.zeros(rep.dim), np.eye(rep.dim, dtype=rep.dtype)
    m = rep.matrices[0]
    return np.linalg.eigh(m + m.conj().T)


def intertwiner_system(
    rep1: Representation,
    rep2: Representation,
    values1=None,
    values2=None,
    tol: ToleranceProfile | None = None,
):
    """Intertwiner system for T: V1 -> V2 in the eigenbasis of the first generator.

        T pi1(s) = pi2(s) T,      T b1(s) - (pi2(s) - I) t = b2(s)      for all generators s.

    Returns ``(matrix, rhs, lift)``. The unknowns are reduced coordinates:
    with Q1, Q2 eigenbases of H = pi(s0) + pi(s0)*, an intertwiner has
    T~ = Q2* T Q1 supported on pairs (p, q) whose H-eigenvalues share a
    cluster (T pi1(s0) = pi2(s0) T implies T H1 = H2 T for isometries), so
    only those entries of T~ and, with cocycle values, t~ = Q2* t are
    unknowns. Clusters are chains over the union of both spectra with links
    of width sqrt(max(eps_eig, eps_rank, eps_residual)), far wider than the
    eigenvalue shifts of an isometry accepted at the profile's tolerances:
    splitting an eigenspace would lose solutions, while a wide cluster only
    relaxes the restriction. The rows are every generator's equations,
    s0 included, multiplied by Q2*, so residuals keep their size.

    ``lift`` maps reduced solution columns to columns (vec T, t) (row-major
    vec; without cocycle values just vec T). It is an isometric embedding,
    so orthonormal null-space bases stay orthonormal. With rep1 = rep2 and
    equal values the homogeneous system is the affine commutant in
    (vec U, t), U = T - I. For real representations Q and the system are real.
    """
    tol = tol or rep1.tol
    d1, d2 = rep1.dim, rep2.dim
    dtype = rep1.dtype
    (lam1, q1), (lam2, q2) = _first_generator_eigenbasis(rep1), _first_generator_eigenbasis(rep2)
    spectrum = np.concatenate([lam1, lam2])
    order = np.argsort(spectrum, kind="stable")
    width = np.sqrt(max(tol.eps_eig, tol.eps_rank, tol.eps_residual))
    labels = np.empty(d1 + d2, dtype=int)
    labels[order] = np.concatenate([[0], np.cumsum(np.diff(spectrum[order]) > width)])
    rows_p, cols_q = np.nonzero(labels[d1:, None] == labels[None, :d1])
    k = len(rows_p)
    idx = np.arange(k)

    affine = values1 is not None
    cols = k + (d2 if affine else 0)
    per_gen = d2 * d1 + (d2 if affine else 0)
    gens = len(rep1.matrices)
    matrix = np.zeros((gens, per_gen, cols), dtype=dtype)
    rhs = np.zeros((gens, per_gen), dtype=dtype)
    for i, (m1, m2) in enumerate(zip(rep1.matrices, rep2.matrices)):
        p1, p2 = q1.conj().T @ m1 @ q1, q2.conj().T @ m2 @ q2
        # the unknown for pair (p, q) is T~ = e_p e_q^T, and T~ P1 - P2 T~ is
        # P1[q, :] in row p minus P2[:, p] in column q
        commuting = matrix[i, : d2 * d1].reshape(d2, d1, cols)
        commuting[rows_p, :, idx] = p1[cols_q, :]
        commuting[:, cols_q, idx] -= p2[:, rows_p]
        if affine:
            value_rows = matrix[i, d2 * d1 :]
            value_rows[rows_p, idx] = (q1.conj().T @ values1[i])[cols_q]
            value_rows[:, k:] = np.eye(d2) - p2
            rhs[i, d2 * d1 :] = q2.conj().T @ values2[i]

    def lift(columns: np.ndarray) -> np.ndarray:
        n = columns.shape[1]
        reduced = np.zeros((n, d2, d1), dtype=np.result_type(columns, q1, q2))
        reduced[:, rows_p, cols_q] = columns[:k].T
        full = (q2 @ reduced @ q1.conj().T).reshape(n, d2 * d1).T
        return np.vstack([full, q2 @ columns[k:]]) if affine else full

    return matrix.reshape(gens * per_gen, cols), rhs.reshape(-1), lift


def commutant_basis(rep: Representation, tol: ToleranceProfile | None = None) -> list[np.ndarray]:
    """Basis over the declared field of {T : T pi(s) = pi(s) T for all s}.

    Real representations get the real commutant; complex ones the complex
    commutant. The identity always lies in the returned span. The basis is
    the lifted null space of the commuting rows of ``intertwiner_system``
    (reduced over the first generator's eigenspaces), orthonormal in vec T.
    """
    tol = tol or rep.tol
    d = rep.dim
    matrix, _, lift = intertwiner_system(rep, rep, tol=tol)
    basis = lift(null_space_basis(matrix, tol))
    return [unvec(basis[:, k], d, d) for k in range(basis.shape[1])]


def _relator_coefficient_matrix(rep: Representation) -> np.ndarray:
    """Stacked linear map sending generator-value tuples to relator values."""
    d, g = rep.dim, rep.presentation.num_generators
    rows = []
    for relator in rep.presentation.relators:
        coeffs = [np.zeros((d, d), dtype=rep.dtype) for _ in range(g)]
        prefix = np.eye(d, dtype=rep.dtype)
        for gen, sign in relator.letters:
            m = rep.matrices[gen]
            if sign > 0:
                coeffs[gen] = coeffs[gen] + prefix
                prefix = prefix @ m
            else:
                minv = m.conj().T
                coeffs[gen] = coeffs[gen] - prefix @ minv
                prefix = prefix @ minv
        rows.append(np.hstack(coeffs) if g else np.zeros((d, 0), dtype=rep.dtype))
    if not rows:
        return np.zeros((0, g * d), dtype=rep.dtype)
    return np.vstack(rows)


@dataclass(frozen=True)
class CohomologyBasis:
    """Bases for cocycles, coboundaries, and class representatives.

    ``class_representatives`` are cocycles whose coordinate vectors are
    orthonormal and orthogonal to the coboundary span, so class coordinates
    of any cocycle z are simply <h_i, z>. Every basis cocycle passed the
    cocycle-relator bound (``validity_report``); ``residuals`` holds the
    largest relator defect among them (``worst_cocycle_relator_defect``).
    """

    cocycle_basis: tuple[Cocycle, ...]
    coboundary_basis: tuple[Cocycle, ...]
    class_representatives: tuple[Cocycle, ...]
    residuals: dict[str, float]

    @property
    def dims(self) -> tuple[int, int, int]:
        return (
            len(self.cocycle_basis),
            len(self.coboundary_basis),
            len(self.class_representatives),
        )

    def class_coordinates(self, cocycle: Cocycle) -> np.ndarray:
        coords = cocycle.coordinates()
        return np.array([h.coordinates().conj() @ coords for h in self.class_representatives])

    def cocycle_from_class(self, coefficients: np.ndarray) -> Cocycle:
        reps = self.class_representatives
        if len(reps) == 0:
            raise ValueError("cohomology is trivial; no class representatives")
        rep = reps[0].representation
        coords = sum(c * h.coordinates() for c, h in zip(coefficients, reps))
        return cocycle_from_coordinates(rep, coords)


def first_cohomology(rep: Representation, tol: ToleranceProfile | None = None) -> CohomologyBasis:
    """Cocycle space, coboundary space, and orthogonal class representatives."""
    tol = tol or rep.tol
    z_basis = null_space_basis(_relator_coefficient_matrix(rep), tol)  # (g*d, nz)
    b_basis = orthonormal_columns(rep.boundary_map(), tol)

    # class representatives: orthogonal complement of the coboundaries inside
    # the cocycle space; computed as the null space of the pairing B*Z whose
    # singular values are exactly 1 per coboundary direction, so the rank
    # cut never mistakes roundoff for a cohomology class
    if z_basis.shape[1] and b_basis.shape[1]:
        combos = null_space_basis(b_basis.conj().T @ z_basis, tol)
        h_basis = z_basis @ combos
    else:
        h_basis = z_basis

    cocycles = tuple(cocycle_from_coordinates(rep, z_basis[:, k]) for k in range(z_basis.shape[1]))
    worst = max((max(c.relator_defects, default=0.0) for c in cocycles), default=0.0)
    return CohomologyBasis(
        cocycles,
        tuple(cocycle_from_coordinates(rep, b_basis[:, k]) for k in range(b_basis.shape[1])),
        tuple(cocycle_from_coordinates(rep, h_basis[:, k]) for k in range(h_basis.shape[1])),
        {"worst_cocycle_relator_defect": worst},
    )


def commutant_action_on_classes(
    rep: Representation,
    basis: CohomologyBasis,
    commutant: list[np.ndarray] | None = None,
    tol: ToleranceProfile | None = None,
) -> list[np.ndarray]:
    """Matrices of the commutant acting on cohomology-class coordinates.

    An operator T commuting with the representation maps cocycles to
    cocycles by acting on values; the induced map on classes is expressed in
    the representative coordinates (coboundary components project away).
    """
    tol = tol or rep.tol
    if commutant is None:
        commutant = commutant_basis(rep, tol)
    h = len(basis.class_representatives)
    out = []
    for t_mat in commutant:
        action = np.zeros((h, h), dtype=rep.dtype)
        for j, h_j in enumerate(basis.class_representatives):
            moved = Cocycle(rep, tuple(t_mat @ v for v in h_j.values))
            action[:, j] = basis.class_coordinates(moved)
        out.append(action)
    return out


@dataclass(frozen=True)
class CocycleSearchResult:
    """Outcome of the randomized search for a separating cohomology class."""

    found: bool
    witness: "Cocycle | None"
    trials_used: int
    probabilistic: bool = True

    def __bool__(self) -> bool:
        return self.found


def search_irreducible_cocycle(
    rep: Representation,
    trials: int = 20,
    seed: int | None = 0,
    tol: ToleranceProfile | None = None,
) -> CocycleSearchResult:
    """Look for a cocycle whose class has trivial commutant annihilator.

    A sampled class xi is a candidate when the map S -> S.xi on the
    commutant has full rank; candidates are confirmed by running the affine
    irreducibility decision on the assembled action. A negative answer after
    all trials is probabilistic (the separating set is either empty or
    generic, so one generic sample decides with probability 1).
    """
    from .actions import AffineAction, decide_irreducibility

    if trials < 1:
        raise ValueError("trials must be >= 1")
    tol = tol or rep.tol
    basis = first_cohomology(rep, tol)
    h = len(basis.class_representatives)
    if h == 0:
        return CocycleSearchResult(False, None, 0)
    commutant = commutant_basis(rep, tol)
    action_mats = commutant_action_on_classes(rep, basis, commutant, tol)
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        xi = random_vector(h, rep.field, rng)
        annihilator_map = np.column_stack([m @ xi for m in action_mats])
        s = np.linalg.svd(annihilator_map, compute_uv=False)
        if numerical_rank(s, tol) < len(commutant):
            continue
        witness = basis.cocycle_from_class(xi)
        verdict = decide_irreducibility(AffineAction(rep, witness), tol)
        if not verdict.reducible:
            return CocycleSearchResult(True, witness, trial + 1)
    return CocycleSearchResult(False, None, trials)
