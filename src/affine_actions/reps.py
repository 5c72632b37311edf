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
from functools import cached_property

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    REAL,
    RangeSplit,
    ToleranceProfile,
    as_field_array,
    checked_seed,
    frobenius,
    int_at_least,
    null_space_basis,
    numerical_rank,
    random_vectors,
    read_only,
    residual_ok,
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
        self._solves: dict[str, object] = {}  # see _solved
        self._summands: tuple[Representation, ...] | None = None  # see actions.direct_sum
        if validate and (failure := validity_report(tol, rep=self).failure):
            raise failure

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.float64 if self.field == REAL else np.complex128)

    @cached_property
    def isometry_defects(self) -> tuple[float, ...]:
        """||pi(s)* pi(s) - I||_F per generator, computed on first use (at
        construction when validating, since ``validity_report`` reads it)."""
        eye = np.eye(self.dim)
        return tuple(frobenius(m.conj().T @ m - eye) for m in self.matrices)

    @cached_property
    def relator_defects(self) -> tuple[float, ...]:
        """||pi(r) - I||_F per relator, computed on first use like
        ``isometry_defects``."""
        eye = np.eye(self.dim)
        return tuple(frobenius(self.evaluate(r) - eye) for r in self.presentation.relators)

    @cached_property
    def generic_eigenbasis(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(eigenvalues, Q, P)`` of the generic Hermitian element

            H = Z + Z*,    Z = sum_s w_s pi(s),

        that is sum_s c_s (pi(s) + pi(s)*) + c'_s i (pi(s) - pi(s)*) for the
        fixed weights w_s = c_s + i c'_s of ``_generic_weights``, with Q its
        orthonormal eigenvectors and P the ``(g, d, d)`` stack of
        Q* pi(s) Q. The weights satisfy sum |c_s| + |c'_s| = 1, so an
        isometry defect moves H's eigenvalues by at most twice the largest
        generator defect. Real input has c' = 0, so Q stays real. Without
        generators H = 0 and Q = I. Computed once per representation, by
        one ``eigh`` at its dimension; the arrays are read-only.
        """
        mats = np.asarray(self.matrices, dtype=self.dtype).reshape(-1, self.dim, self.dim)
        z = np.einsum("s,sij->ij", _generic_weights(len(mats), self.field), mats)
        values, q = np.linalg.eigh(z + z.conj().T)
        return read_only(values), read_only(q), read_only(q.conj().T @ mats @ q)

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
    """One vector per generator, extended to all words by the chain rule.

    ``relator_defects`` are ||b(r)|| per relator, walked with ``extend`` on
    first use (at construction when validating, since ``validity_report``
    holds them to the cocycle-relator bound). ``max_norm`` is
    max_s ||b(s)||, computed once at construction: the scale of that bound,
    of ``actions.unit_scale`` and of every certification bound.
    """

    def __init__(self, representation: Representation, values, validate: bool = True) -> None:
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
        self.max_norm = max((float(np.linalg.norm(v)) for v in values), default=0.0)
        if validate and (failure := validity_report(representation.tol, cocycle=self).failure):
            raise failure

    @cached_property
    def relator_defects(self) -> tuple[float, ...]:
        return tuple(float(np.linalg.norm(self.extend(r))) for r in self.representation.presentation.relators)

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
        """One letter of the chain rule: (b(w), pi(w)) -> (b(w s), pi(w s)),

            b(w s) = b(w) + pi(w) b(s),    pi(w s) = pi(w) pi(s),

        with ``s`` generator ``gen`` for ``sign > 0`` and its inverse
        otherwise: pi(s^-1) = pi(s)* (isometry) and b(s^-1) = -pi(s)* b(s).
        It also takes stacks: values of shape ``(n, d)`` with prefixes of
        shape ``(n, d, d)`` step as n states at once, each row with the bits
        of its own step. ``walk`` (so ``extend`` and ``AffineAction.evaluate``)
        and the psi fill of ``quadratic_form_test`` apply these steps from
        (0, I), and the orbit sample of ``orbit_hull_probe`` the same
        products on gathered rows of the same letter values, one per letter
        as drawn (``walk`` takes the freely reduced letters of a ``Word``).
        Where pi(s) is exactly I the psi fill and a translation action's
        orbit sample skip ``prefix @ pi(s)``, which returns ``prefix`` up to
        the sign of a zero, and add ``prefix @ b(s)`` terms as running sums;
        the psi fill adds ``-(prefix @ b(s))`` for s^-1, as pi(s)* b(s) = b(s).
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
    bounds = []  # (check, residuals key, defects, scale, error for defect i)
    if rep is not None:
        names = rep.presentation.generators
        bounds.append((
            "isometry", "isometry_defects", rep.isometry_defects, 1.0,
            lambda i, d: RepresentationError(f"matrix for {names[i]!r} is not an isometry (defect {d:.3e})"),
        ))
        bounds.append((
            "representation_relators", "representation_relator_defects", rep.relator_defects,
            math.sqrt(rep.dim),
            lambda i, d: RepresentationError(f"relator {i} does not evaluate to the identity (defect {d:.3e})"),
        ))
    if cocycle is not None:
        bounds.append((
            "cocycle_relators", "cocycle_relator_defects", cocycle.relator_defects, cocycle.max_norm,
            _cocycle_relator_error,
        ))
    checks, residuals, failure = {}, {}, None
    for check, key, defects, scale, error in bounds:
        bad = [i for i, d in enumerate(defects) if not residual_ok(d, scale, tol.eps_residual)]
        checks[check] = not bad
        residuals[key] = list(defects)
        if bad and failure is None:
            failure = error(bad[0], defects[bad[0]])
    return ValidityReport(checks, residuals, failure)


def _cocycle_relator_error(relator: int, defect: float) -> CocycleError:
    return CocycleError(f"relator {relator} has cocycle residual {defect:.3e}")


def _certified_relator_defects(
    relators: np.ndarray, columns: np.ndarray, dim: int, tol: ToleranceProfile
) -> np.ndarray:
    """Defects ||b(r)||, one row per relator, of the cocycle-value columns
    (g*d, n), from one product with the relator coefficient matrix.

    Every column is held to the cocycle-relator bound of ``validity_report``;
    the first violating column raises its ``CocycleError``.
    """
    n = columns.shape[1]
    defects = np.linalg.norm((relators @ columns).reshape(relators.shape[0] // dim, dim, n), axis=1)
    if defects.size:
        # max_s ||b(s)|| per column, the scale of the cocycle-relator bound
        scales = np.linalg.norm(columns.reshape(-1, dim, n), axis=1).max(axis=0, initial=0.0)
        bad = np.argwhere(~residual_ok(defects, scales, tol.eps_residual).T)
        if bad.size:
            column, relator = bad[0]
            raise _cocycle_relator_error(int(relator), float(defects[relator, column]))
    return defects


def cocycle_from_coordinates(rep: Representation, coords: np.ndarray) -> Cocycle:
    d, g = rep.dim, rep.presentation.num_generators
    coords = np.asarray(coords).reshape(g * d)
    return Cocycle(rep, tuple(coords[i * d : (i + 1) * d] for i in range(g)))


def coboundary(rep: Representation, vector) -> Cocycle:
    """The cocycle v -> (pi(s) v - v)_s of the action conjugated to fix v."""
    vector = as_field_array(vector, rep.field)
    return Cocycle(rep, tuple(m @ vector - vector for m in rep.matrices))


def _solved(rep: Representation, stage: str, solve):
    """``solve()`` on the first request for ``stage``, kept in the
    representation's one store. Every solve is decided at ``rep.tol``, and
    nothing assigns ``rep.tol`` after construction, so the stage name alone
    keys it. The store holds read-only arrays, or a dict of them (a sum's
    ``"hom"`` stage, keyed by summand pair), so no reference cycle keeps
    ``rep`` alive."""
    solved = rep._solves.get(stage)
    if solved is None:
        solved = rep._solves[stage] = solve()
    return solved


def fixed_subspace(rep: Representation) -> np.ndarray:
    """Orthonormal basis of the joint fixed space of all generator matrices
    (the kernel of ``boundary_split``; read-only)."""
    return boundary_split(rep).kernel


def boundary_split(rep: Representation) -> RangeSplit:
    """The boundary map B = [pi(s) - I]_s split by one thin SVD.

    Its ``image`` spans the coboundaries, its ``kernel`` is the fixed space
    and ``pinv`` is B+, which solves (pi(s) - I) t = y(s) for y in the
    image. It is solved once per representation, at ``rep.tol``, and kept
    in its store (``_solved``); the arrays are read-only.

    For a direct sum (``actions.direct_sum``) B is diag(B_1, .., B_n) with
    its rows interleaved generator by generator, so the split is assembled
    from the summands' splits, each rank decided at its own block's
    sigma_max: ``image`` and ``kernel`` hold the summands' columns
    block-diagonally, in row order, and ``pinv`` is diag(B_1+, .., B_n+)
    with its columns interleaved the same way.
    """
    if rep._summands is None:
        return _solved(rep, "boundary", lambda: RangeSplit.of(rep.boundary_map(), rep.tol))
    return _solved(rep, "boundary", lambda: _sum_boundary_split(rep))


def _sum_boundary_split(rep: Representation) -> RangeSplit:
    g = rep.presentation.num_generators
    splits = [(r.dim, boundary_split(r)) for r in rep._summands]
    # per generator: each summand's rows of the image and columns of B+
    image = _block_diagonal(*(s.image.reshape(g, d, s.image.shape[1]) for d, s in splits))
    pinv = _block_diagonal(*(s.pinv.reshape(d, g, d).transpose(1, 0, 2) for d, s in splits))
    return RangeSplit(
        read_only(image.reshape(g * rep.dim, image.shape[2])),
        read_only(_block_diagonal(*(s.kernel for _, s in splits))),
        read_only(pinv.transpose(1, 0, 2).reshape(rep.dim, g * rep.dim)),
    )


def _block_diagonal(*blocks: np.ndarray) -> np.ndarray:
    """The blocks on the diagonal of their last two axes, in order, zeros
    elsewhere; any leading axes are shared."""
    rows, cols = sum(b.shape[-2] for b in blocks), sum(b.shape[-1] for b in blocks)
    out = np.zeros(blocks[0].shape[:-2] + (rows, cols), dtype=np.result_type(*blocks))
    r = c = 0
    for b in blocks:
        out[..., r : r + b.shape[-2], c : c + b.shape[-1]] = b
        r, c = r + b.shape[-2], c + b.shape[-1]
    return out


_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def _generic_weights(generators: int, field: str) -> np.ndarray:
    """The weights w_s = c_s + i c'_s of the generic Hermitian element.

    The coefficients c_0, .., c_{g-1}, c'_0, .., c'_{g-1} are 1/(j + phi) for
    j = 0, 1, .. (phi the golden ratio), scaled to sum to 1; real input has
    no c'. They are fixed constants, not random draws, so every solve of a
    representation reduces over the same element.
    """
    count = generators if field == REAL else 2 * generators
    coefficients = 1.0 / (np.arange(count) + _GOLDEN)
    coefficients /= coefficients.sum()
    if field != REAL:
        coefficients = coefficients[:generators] + 1j * coefficients[generators:]
    return coefficients


def intertwiner_system(rep1: Representation, rep2: Representation):
    """Intertwiner system for T: V1 -> V2, reduced and in Gram form.

        T pi1(s) = pi2(s) T      for all generators s.

    Returns ``(gram, apply, lift)``. The unknowns are reduced coordinates:
    with Q1, Q2 eigenbases of the generic Hermitian element H of each
    representation (``Representation.generic_eigenbasis``), every
    intertwiner has T~ = Q2* T Q1 supported on pairs (p, q) whose
    H-eigenvalues share a cluster (T pi1(s) = pi2(s) T and, for isometries,
    T pi1(s)* = pi2(s)* T imply T H1 = H2 T), so only those entries of T~
    are unknowns. Clusters are chains over the union of both spectra with
    links of ``rep1.tol``'s ``cluster_width``, far wider than the eigenvalue
    shifts of an isometry accepted at its tolerances: splitting an
    eigenspace would lose solutions, while a wide cluster only relaxes the
    restriction.

    The system A has every generator's equations multiplied by Q2*, so
    residuals keep their size, but it is never formed: ``gram`` is A*A,
    assembled from P_s = Q* pi(s) Q (README "How the commutant is solved"),
    and ``apply(X)`` is A X, as 2-D arrays, for ``linalg.null_space_basis``.
    The cocycle equations are not part of it: ``affine_commutant`` and
    ``check_equivalence`` solve them in the coefficients of the
    Hom(pi1, pi2) basis this system gives, as coboundaries of pi2 on its
    cached ``boundary_split``.

    ``lift`` maps reduced solution columns to columns vec T (row-major). It
    is an isometric embedding, so orthonormal bases stay orthonormal. For
    real representations Q and the system are real.
    """
    d1, d2 = rep1.dim, rep2.dim
    (lam1, q1, p1), (lam2, q2, p2) = rep1.generic_eigenbasis, rep2.generic_eigenbasis
    spectrum = np.concatenate([lam1, lam2])
    order = np.argsort(spectrum, kind="stable")
    labels = np.empty(d1 + d2, dtype=int)
    labels[order] = np.concatenate([[0], np.cumsum(np.diff(spectrum[order]) > rep1.tol.cluster_width)])
    rows_p, cols_q = np.nonzero(labels[d1:, None] == labels[None, :d1])
    g = len(p1)

    # the unknown e_p e_q^T gives E_pq P1 - P2 E_pq, so
    # <A_j, A_j'> = d_pp' (P1 P1*)[q', q] - P2[p, p'] conj(P1[q, q'])
    #               - conj(P2[p', p]) P1[q', q] + d_qq' (P2* P2)[p, p']
    # summed over generators
    rows1 = p1.transpose(1, 0, 2).reshape(d1, g * d1)
    left = (rows1 @ rows1.conj().T).T
    right = p2.reshape(g * d2, d2).conj().T @ p2.reshape(g * d2, d2)
    cross = np.einsum("sjk,sjk->jk", p2[:, rows_p][:, :, rows_p], p1[:, cols_q][:, :, cols_q].conj())
    gram = (rows_p[:, None] == rows_p[None, :]) * left[cols_q[:, None], cols_q[None, :]]
    gram = gram + (cols_q[:, None] == cols_q[None, :]) * right[rows_p[:, None], rows_p[None, :]]
    gram -= cross
    gram -= cross.conj().T

    def apply(columns: np.ndarray) -> np.ndarray:
        n = columns.shape[1]
        reduced = np.zeros((n, d2, d1), dtype=np.result_type(columns, p1))
        reduced[:, rows_p, cols_q] = columns.T
        out = (reduced @ p1[:, None] - p2[:, None] @ reduced).reshape(g, n, d2 * d1)
        return out.transpose(0, 2, 1).reshape(g * d2 * d1, n)

    def lift(columns: np.ndarray) -> np.ndarray:
        n = columns.shape[1]
        reduced = np.zeros((n, d2, d1), dtype=np.result_type(columns, q1, q2))
        reduced[:, rows_p, cols_q] = columns.T
        return (q2 @ reduced @ q1.conj().T).reshape(n, d2 * d1).T

    return gram, apply, lift


def hom_basis(rep1: Representation, rep2: Representation) -> np.ndarray:
    """Basis of Hom(pi1, pi2) = {T : T pi1(s) = pi2(s) T for all s} as a
    ``(h, d2, d1)`` stack, orthonormal in vec T: the lifted null space of
    ``intertwiner_system``, decided at ``rep1.tol``."""
    gram, apply, lift = intertwiner_system(rep1, rep2)
    return lift(null_space_basis(gram, rep1.tol, apply)).T.reshape(-1, rep2.dim, rep1.dim)


def commutant_basis(rep: Representation) -> list[np.ndarray]:
    """Basis over the declared field of {T : T pi(s) = pi(s) T for all s}.

    Real representations get the real commutant; complex ones the complex
    commutant. The identity always lies in the returned span. The basis is
    ``hom_basis(rep, rep)``, orthonormal in vec T. It is solved once per
    representation and kept in its store (``_solved``); the elements are
    read-only arrays.

    A direct sum pi_1 (+) .. (+) pi_n (``actions.direct_sum``) has the
    block commutant [Hom(pi_j, pi_i)]_ij: each element is one element of
    one block placed in a zero matrix, by row block (``_row_blocks``), so
    nothing is solved at the sum's dimension.
    """
    if rep._summands is None:
        return list(_solved(rep, "commutant", lambda: tuple(read_only(hom_basis(rep, rep)))))
    return list(_solved(rep, "commutant", lambda: tuple(read_only(_sum_commutant(rep)))))


def _copies(rep: Representation) -> list:
    """Each distinct summand of ``rep``'s record (``actions.direct_sum``),
    in order of first appearance, with the row ranges of its copies; a
    representation that is not a sum is its own single summand."""
    copies, start = {}, 0
    for summand in rep._summands or (rep,):
        copies.setdefault(summand, []).append(slice(start, start + summand.dim))
        start += summand.dim
    return list(copies.items())


def _row_blocks(rep: Representation) -> list:
    """The commutant by distinct summand pi_i (``_copies``): pi_i, its
    copies' row ranges, and one (n, d_i, d) basis stack that every copy
    shares, holding Hom(pi_j, pi_i) in the columns of each copy of each
    pi_j: pi_i' (its cached ``commutant_basis``) for j = i, else one stored
    ``hom_basis`` per pair of distinct summands (the sum's "hom" stage) or
    its adjoints (T pi_i = pi_j T gives T* pi_j = pi_i T* for isometries)."""
    copies, homs = _copies(rep), {}
    n = len(copies)
    if n > 1:
        homs = _solved(rep, "hom", lambda: {
            (i, j): read_only(hom_basis(copies[i][0], copies[j][0])) for i in range(n) for j in range(i + 1, n)
        })
    blocks = []
    for i, (pi, placements) in enumerate(copies):
        into = [  # Hom(pi_j, pi_i) as a (h, d_i, d_j) stack
            homs[j, i] if j < i else homs[i, j].conj().transpose(0, 2, 1) if j > i else np.asarray(commutant_basis(pi))
            for j in range(n)
        ]
        columns = [(cols, into[j]) for j, (_, spans) in enumerate(copies) for cols in spans]
        ops, k = np.zeros((sum(len(b) for _, b in columns), pi.dim, rep.dim), rep.dtype), 0
        for cols, basis in columns:
            ops[k : k + len(basis), :, cols] = basis
            k += len(basis)
        blocks.append((pi, placements, ops))
    return blocks


def _sum_commutant(rep: Representation) -> np.ndarray:
    blocks = [(rows, basis) for _, placements, basis in _row_blocks(rep) for rows in placements]
    return np.concatenate([np.pad(b, ((0, 0), (r.start, rep.dim - r.stop), (0, 0))) for r, b in blocks])


def _relator_coefficient_matrix(rep: Representation) -> np.ndarray:
    """Stacked linear map sending generator-value tuples to relator values:
    the block of relator r and generator s sums pi(w) over the letters s of
    r and -pi(w s^-1) over its letters s^-1, w the prefix before the letter."""
    d, g, relators = rep.dim, rep.presentation.num_generators, rep.presentation.relators
    blocks = np.zeros((len(relators), d, g, d), dtype=rep.dtype)
    for block, relator in zip(blocks, relators):
        prefix = np.eye(d, dtype=rep.dtype)
        for gen, sign in relator.letters:
            if sign > 0:
                block[:, gen] += prefix
                prefix = prefix @ rep.matrices[gen]
            else:
                prefix = prefix @ rep.matrices[gen].conj().T
                block[:, gen] -= prefix
    return blocks.reshape(len(relators) * d, g * d)


@dataclass(frozen=True, eq=False)
class CohomologyBasis:
    """Bases for cocycles, coboundaries and class representatives of H^1.

    Each basis is an orthonormal (g*d, n) matrix of cocycle-value coordinates
    (generator values concatenated): ``cocycles`` spans the cocycle space,
    ``coboundaries`` the coboundaries, and ``classes`` (C) the orthogonal
    complement of the coboundaries among the cocycles, so the class
    coordinates of a cocycle z are C* z. ``first_cohomology`` held every
    column to the cocycle-relator bound (``validity_report``) in one product;
    ``relator_defects`` keeps those defects, one (relators, n) array per
    basis, and ``residuals`` the largest over the cocycle basis
    (``worst_cocycle_relator_defect``). The arrays are shared by every
    caller on the representation, so they are read-only, and ``residuals``
    is a fresh dict on each access.

    ``cocycle_basis``, ``coboundary_basis`` and ``class_representatives``
    are the same columns as tuples of ``Cocycle``, built on first access.
    They are unvalidated views of the certified columns: a view's
    ``relator_defects`` are walked on first read.
    """

    representation: Representation
    cocycles: np.ndarray
    coboundaries: np.ndarray
    classes: np.ndarray
    relator_defects: tuple[np.ndarray, np.ndarray, np.ndarray]

    @property
    def residuals(self) -> dict[str, float]:
        return {"worst_cocycle_relator_defect": float(self.relator_defects[0].max(initial=0.0))}

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.cocycles.shape[1], self.coboundaries.shape[1], self.classes.shape[1])

    @cached_property
    def cocycle_basis(self) -> tuple[Cocycle, ...]:
        return self._views(self.cocycles)

    @cached_property
    def coboundary_basis(self) -> tuple[Cocycle, ...]:
        return self._views(self.coboundaries)

    @cached_property
    def class_representatives(self) -> tuple[Cocycle, ...]:
        return self._views(self.classes)

    def _views(self, columns: np.ndarray) -> tuple[Cocycle, ...]:
        rep = self.representation
        shape = (rep.presentation.num_generators, rep.dim)
        return tuple(Cocycle(rep, tuple(column.reshape(shape)), validate=False) for column in columns.T)

    def class_coordinates(self, cocycle: Cocycle) -> np.ndarray:
        return self.classes.conj().T @ cocycle.coordinates()

    def cocycle_from_class(self, coefficients: np.ndarray) -> Cocycle:
        if not self.classes.shape[1]:
            raise ValueError("cohomology is trivial; no class representatives")
        return cocycle_from_coordinates(self.representation, self.classes @ coefficients)


def first_cohomology(rep: Representation) -> CohomologyBasis:
    """Cocycle space, coboundary space, and orthogonal class representatives.

    All basis columns are certified in one product with the relator
    coefficient matrix; a column over the cocycle-relator bound raises
    CocycleError. It is solved once per representation and its arrays
    are kept in its store (``_solved``), next to the
    relator coefficient matrix that ``commutant_action_on_classes``
    reuses; each call wraps them in a new ``CohomologyBasis`` (the
    representation does not hold one, which would tie the two in a
    reference cycle).
    """
    return CohomologyBasis(rep, *_solved(rep, "cohomology", lambda: _solve_cohomology(rep)))


def _relators(rep: Representation) -> np.ndarray:
    """The representation's stored ``_relator_coefficient_matrix``."""
    return _solved(rep, "relators", lambda: read_only(_relator_coefficient_matrix(rep)))


def _solve_cohomology(rep: Representation) -> tuple:
    relators, tol = _relators(rep), rep.tol
    z_basis = null_space_basis(relators, tol)  # (g*d, nz)
    b_basis = boundary_split(rep).image

    # class representatives: orthogonal complement of the coboundaries inside
    # the cocycle space; computed as the null space of the pairing B*Z whose
    # singular values are exactly 1 per coboundary direction, so the rank
    # cut never mistakes roundoff for a cohomology class
    if z_basis.shape[1] and b_basis.shape[1]:
        combos = null_space_basis(b_basis.conj().T @ z_basis, tol)
        h_basis = z_basis @ combos
    else:
        h_basis = z_basis

    defects = _certified_relator_defects(relators, np.hstack([z_basis, b_basis, h_basis]), rep.dim, tol)
    ends = [z_basis.shape[1], z_basis.shape[1] + b_basis.shape[1]]
    per_basis = tuple(np.split(read_only(defects), ends, axis=1))
    return read_only(z_basis), b_basis, read_only(h_basis), per_basis


def commutant_action_on_classes(rep: Representation) -> list[np.ndarray]:
    """Matrices of the commutant acting on cohomology-class coordinates.

    One matrix per element of ``commutant_basis(rep)``, in class
    coordinates of ``first_cohomology(rep)``; both are read from the
    representation's store. An operator T commuting with the representation
    maps a cocycle b to the cocycle T b (acting on each generator value); in
    class coordinates this is C* (I_g (x) T) C, with C the class matrix
    (coboundary components project away). All elements are applied at once,
    by one batched product over the (g, d, h) view of C, and one product
    with C* gives every matrix. The moved classes are held to the cocycle-relator
    bound in one product with the relator coefficient matrix (the one
    ``first_cohomology`` stored on the representation), so an element that
    does not commute with the representation raises CocycleError. No
    (g*d)^2 matrix is formed.
    """
    classes = first_cohomology(rep).classes
    g, d, h = rep.presentation.num_generators, rep.dim, classes.shape[1]
    ops = np.asarray(commutant_basis(rep), dtype=rep.dtype).reshape(-1, d, d)
    moved = (ops @ classes.reshape(g, 1, d, h)).transpose(0, 2, 1, 3).reshape(g * d, len(ops) * h)
    _certified_relator_defects(_relators(rep), moved, d, rep.tol)
    action = (classes.conj().T @ moved).reshape(h, len(ops), h)
    return list(action.transpose(1, 0, 2))


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
) -> CocycleSearchResult:
    """Look for a cocycle whose class has trivial commutant annihilator.

    A sampled class xi is a candidate when the map S -> S.xi on the
    commutant has full rank; candidates are confirmed by running the affine
    irreducibility decision on the assembled action. A negative answer after
    all trials is probabilistic (the separating set is either empty or
    generic, so one generic sample decides with probability 1).

    The map S -> S.xi goes from the c-dimensional commutant into the
    h-dimensional H^1, so it has full rank for no xi when c > h: such a
    search ends at once, with the answer and ``trials_used`` of an exhausted
    one, and draws nothing. Otherwise the ``trials`` samples come from one
    generator call (the bits of one draw per trial), one product gives every
    map, and the trials are screened in order, one SVD each, up to the first
    candidate the confirmation finds irreducible. A confirmation reuses the
    commutant and the boundary split cached on the representation and runs
    only the per-cocycle stage of ``affine_commutant``.
    """
    from .actions import AffineAction, decide_irreducibility

    trials = int_at_least("trials", trials, 1)
    seed = checked_seed(seed)
    basis = first_cohomology(rep)
    h = basis.dims[2]
    if h == 0:
        return CocycleSearchResult(False, None, 0)
    commutant = commutant_basis(rep)
    if len(commutant) > h:
        return CocycleSearchResult(False, None, trials)
    action_mats = np.asarray(commutant_action_on_classes(rep))
    samples = random_vectors(trials, h, rep.field, np.random.default_rng(seed))
    # maps[trial] has the columns S_j xi for the commutant elements S_j
    maps = (action_mats @ samples.T).transpose(2, 1, 0)
    for trial, xi in enumerate(samples):
        if numerical_rank(np.linalg.svd(maps[trial], compute_uv=False), rep.tol) < len(commutant):
            continue
        witness = basis.cocycle_from_class(xi)
        verdict = decide_irreducibility(AffineAction(rep, witness))
        if not verdict.reducible:
            return CocycleSearchResult(True, witness, trial + 1)
    return CocycleSearchResult(False, None, trials)
