"""Shared builders for the test suite: presentations, random isometric
representations by group class, random cocycles, the dense Kronecker form of
the intertwiner system and its row-stacked first-generator reduction with a
QR null space, used as the references for the Gram-matrix solver, the
per-class commutant action and the search run on it used as the references
for the array-backed cocycle search, the pair-by-pair parallelogram scan and
per-probe Frank-Wolfe loop used as the references for the lattice scans, and
the brute-force joint-eigenspace oracle used to cross-check the commutant
decision on abelian groups, and the check of a direct sum's analysis that
the stage tests and the edge corpus share."""

from __future__ import annotations

import itertools
from pathlib import Path

import numpy as np

from affine_actions import (
    AffineAction,
    Cocycle,
    GroupPresentation,
    OrbitHullReport,
    QuadraticFormResult,
    Representation,
    ToleranceProfile,
    Word,
    analyze_direct_sum,
    commutant_basis,
    conjugate_by_translation,
    decide_irreducibility,
    direct_sum,
    first_cohomology,
    intertwining_residual,
    project_action,
)
from affine_actions.actions import ActionError, certification_scale
from affine_actions.constructions import ProbeResult
from affine_actions.linalg import COMPLEX, numerical_rank, residual_ok

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

TOL = ToleranceProfile()


def z_group() -> GroupPresentation:
    return GroupPresentation(["t"])


def z2_group() -> GroupPresentation:
    return GroupPresentation(["t1", "t2"], ["t1 t2 t1^-1 t2^-1"])


def free_abelian_group(k: int) -> GroupPresentation:
    names = [f"t{i + 1}" for i in range(k)]
    return GroupPresentation(names, [f"{a} {b} {a}^-1 {b}^-1" for i, a in enumerate(names) for b in names[i + 1 :]])


def f2_group() -> GroupPresentation:
    return GroupPresentation(["a", "b"])


def dihedral_group() -> GroupPresentation:
    return GroupPresentation(["t", "s"], ["s s", "s t s t"])


def heisenberg_group() -> GroupPresentation:
    return GroupPresentation(
        ["x", "y", "z"],
        ["x y x^-1 y^-1 z^-1", "x z x^-1 z^-1", "y z y^-1 z^-1"],
    )


def c3_group() -> GroupPresentation:
    return GroupPresentation(["s"], ["s s s"])


def s3_group() -> GroupPresentation:
    return GroupPresentation(["s", "t"], ["s s", "t t t", "s t s t"])


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    gauss = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(gauss)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_orthogonal(dim: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diagonal(r))


def random_isometry(dim: int, field: str, rng: np.random.Generator) -> np.ndarray:
    return random_unitary(dim, rng) if field == "complex" else random_orthogonal(dim, rng)


def random_field_vector(dim: int, field: str, rng: np.random.Generator) -> np.ndarray:
    if field == "complex":
        return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return rng.standard_normal(dim)


def random_cocycle(rep: Representation, rng: np.random.Generator, scale: float = 1.0) -> Cocycle:
    """Random element of the cocycle space (valid by construction)."""
    basis = first_cohomology(rep).cocycle_basis
    if not basis:
        return Cocycle(rep, tuple(np.zeros(rep.dim, dtype=rep.dtype) for _ in rep.matrices))
    coeffs = random_field_vector(len(basis), rep.field, rng) * scale
    coords = sum(c * z.coordinates() for c, z in zip(coeffs, basis))
    d = rep.dim
    return Cocycle(rep, tuple(coords[i * d : (i + 1) * d] for i in range(len(rep.matrices))))


def random_action(rep: Representation, rng: np.random.Generator, scale: float = 1.0) -> AffineAction:
    return AffineAction(rep, random_cocycle(rep, rng, scale))


# -- commuting (abelian / Heisenberg-like) representation builders ----------


def _unit_phase(rng: np.random.Generator, away_from_one: float = 0.3) -> complex:
    angle = rng.uniform(away_from_one, 2 * np.pi - away_from_one)
    return complex(np.cos(angle), np.sin(angle))


def random_commuting_unitaries(
    dim: int, count: int, rng: np.random.Generator, trivial_prob: float = 0.4
) -> list[np.ndarray]:
    """Simultaneously diagonal unitaries in a common random eigenbasis.

    Each diagonal slot is forced to the exact value 1 with probability
    ``trivial_prob`` (shared across all generators) so both fixed and moving
    eigenspaces occur; the remaining phases stay away from 1.
    """
    q = random_unitary(dim, rng)
    trivial = rng.random(dim) < trivial_prob
    mats = []
    for _ in range(count):
        diag = np.array([1.0 + 0j if fix else _unit_phase(rng) for fix in trivial])
        mats.append(q @ np.diag(diag) @ q.conj().T)
    return mats


def random_commuting_orthogonals(
    dim: int, count: int, rng: np.random.Generator, trivial_prob: float = 0.4
) -> list[np.ndarray]:
    """Commuting real isometries: shared 2x2 rotation blocks plus fixed axes."""
    q = random_orthogonal(dim, rng)
    blocks: list[int] = []
    remaining = dim
    while remaining >= 2:
        if rng.random() < trivial_prob:
            blocks.append(1)
            remaining -= 1
        else:
            blocks.append(2)
            remaining -= 2
    blocks.extend([1] * remaining)
    mats = []
    for _ in range(count):
        mat = np.zeros((dim, dim))
        pos = 0
        for size in blocks:
            if size == 1:
                mat[pos, pos] = 1.0
            else:
                angle = rng.uniform(0.3, 2 * np.pi - 0.3)
                c, s = np.cos(angle), np.sin(angle)
                mat[pos : pos + 2, pos : pos + 2] = [[c, -s], [s, c]]
            pos += size
        mats.append(q @ mat @ q.T)
    return mats


def random_abelian_rep(presentation: GroupPresentation, dim: int, field: str, rng) -> Representation:
    k = presentation.num_generators
    if field == "complex":
        mats = random_commuting_unitaries(dim, k, rng)
    else:
        mats = random_commuting_orthogonals(dim, k, rng)
    return Representation(presentation, field, mats, dim=dim)


def identity_rep(presentation: GroupPresentation, dim: int, field: str) -> Representation:
    dtype = complex if field == "complex" else float
    return Representation(
        presentation, field, [np.eye(dim, dtype=dtype)] * presentation.num_generators, dim=dim
    )


def roundoff_identity_action(seed: int) -> AffineAction:
    """Z acting on R^4 by q q^T (q a random orthogonal matrix), the identity
    up to roundoff, with b = e1: a translation, with no fixed point."""
    q = np.linalg.qr(np.random.default_rng(seed).standard_normal((4, 4)))[0]
    return AffineAction.from_values(Representation(z_group(), "real", [q @ q.T]), [np.eye(4)[0]])


def random_heisenberg_rep(dim: int, field: str, rng, genuine_prob: float = 0.5) -> Representation:
    """Either an abelianized representation (z -> 1) or, over C in dimension
    3, the clock-and-shift representation with central z, conjugated by a
    random isometry."""
    heis = heisenberg_group()
    if field == "complex" and dim == 3 and rng.random() < genuine_prob:
        omega = np.exp(2j * np.pi / 3)
        shift = np.roll(np.eye(3), 1, axis=0).astype(complex)
        clock = np.diag([1.0 + 0j, omega, omega**2])
        center = (1 / omega) * np.eye(3, dtype=complex)
        q = random_unitary(3, rng)
        mats = [q @ m @ q.conj().T for m in (shift, clock, center)]
        return Representation(heis, "complex", mats, dim=3)
    if field == "complex":
        x, y = random_commuting_unitaries(dim, 2, rng)
        eye = np.eye(dim, dtype=complex)
    else:
        x, y = random_commuting_orthogonals(dim, 2, rng)
        eye = np.eye(dim)
    return Representation(heis, field, [x, y, eye], dim=dim)


# -- finite group representations -------------------------------------------


def random_c3_rep(dim: int, field: str, rng) -> Representation:
    c3 = c3_group()
    if field == "complex":
        omega = np.exp(2j * np.pi / 3)
        diag = np.diag([omega ** int(rng.integers(0, 3)) for _ in range(dim)])
        q = random_unitary(dim, rng)
        return Representation(c3, "complex", [q @ diag @ q.conj().T], dim=dim)
    mat = np.zeros((dim, dim))
    pos = 0
    while pos < dim:
        if dim - pos >= 2 and rng.random() < 0.7:
            sign = 1.0 if rng.random() < 0.5 else -1.0
            c, s = np.cos(2 * np.pi / 3), sign * np.sin(2 * np.pi / 3)
            mat[pos : pos + 2, pos : pos + 2] = [[c, -s], [s, c]]
            pos += 2
        else:
            mat[pos, pos] = 1.0
            pos += 1
    q = random_orthogonal(dim, rng)
    return Representation(c3, "real", [q @ mat @ q.T], dim=dim)


_S3_IRREPS = {
    # name -> (dim, s-matrix, t-matrix)
    "trivial": (1, np.array([[1.0]]), np.array([[1.0]])),
    "sign": (1, np.array([[-1.0]]), np.array([[1.0]])),
    "standard": (
        2,
        np.array([[1.0, 0.0], [0.0, -1.0]]),
        np.array(
            [
                [np.cos(2 * np.pi / 3), -np.sin(2 * np.pi / 3)],
                [np.sin(2 * np.pi / 3), np.cos(2 * np.pi / 3)],
            ]
        ),
    ),
}


def random_s3_rep(max_dim: int, field: str, rng) -> Representation:
    names = list(_S3_IRREPS)
    chosen: list[str] = []
    total = 0
    while True:
        name = names[int(rng.integers(0, len(names)))]
        dim = _S3_IRREPS[name][0]
        if total + dim > max_dim:
            if total:
                break
            continue
        chosen.append(name)
        total += dim
        if total == max_dim or rng.random() < 0.3:
            break
    s_mat = np.zeros((total, total))
    t_mat = np.zeros((total, total))
    pos = 0
    for name in chosen:
        dim, s_blk, t_blk = _S3_IRREPS[name]
        s_mat[pos : pos + dim, pos : pos + dim] = s_blk
        t_mat[pos : pos + dim, pos : pos + dim] = t_blk
        pos += dim
    q = random_isometry(total, field, rng)
    mats = [q @ s_mat @ q.conj().T, q @ t_mat @ q.conj().T]
    return Representation(s3_group(), field, mats, dim=total)


# -- dihedral and free-group representations --------------------------------


def random_dihedral_rep(dim: int, field: str, rng) -> Representation:
    """Random direct sum of the 1-dim characters and 2-dim reflection reps."""
    blocks_s = []
    blocks_t = []
    total = 0
    while total < dim:
        if dim - total >= 2 and rng.random() < 0.6:
            angle = rng.uniform(0.3, 2 * np.pi - 0.3)
            c, s = np.cos(angle), np.sin(angle)
            blocks_t.append(np.array([[c, -s], [s, c]]))
            blocks_s.append(np.array([[1.0, 0.0], [0.0, -1.0]]))
            total += 2
        else:
            blocks_t.append(np.array([[1.0 if rng.random() < 0.5 else -1.0]]))
            blocks_s.append(np.array([[1.0 if rng.random() < 0.5 else -1.0]]))
            total += 1
    t_mat = np.zeros((dim, dim))
    s_mat = np.zeros((dim, dim))
    pos = 0
    for bt, bs in zip(blocks_t, blocks_s):
        k = bt.shape[0]
        t_mat[pos : pos + k, pos : pos + k] = bt
        s_mat[pos : pos + k, pos : pos + k] = bs
        pos += k
    q = random_isometry(dim, field, rng)
    mats = [q @ t_mat @ q.conj().T, q @ s_mat @ q.conj().T]
    return Representation(dihedral_group(), field, mats, dim=dim)


def random_free_rep(presentation: GroupPresentation, dim: int, field: str, rng) -> Representation:
    mats = [random_isometry(dim, field, rng) for _ in presentation.generators]
    return Representation(presentation, field, mats, dim=dim)


# every representation family of these helpers, by name: (rng, dim, field) -> rep
FAMILIES = {
    "z": lambda rng, d, f: random_free_rep(z_group(), d, f, rng),
    "f2": lambda rng, d, f: random_free_rep(f2_group(), d, f, rng),
    "z-abelian": lambda rng, d, f: random_abelian_rep(z_group(), d, f, rng),
    "z2-abelian": lambda rng, d, f: random_abelian_rep(z2_group(), d, f, rng),
    "z2-identity": lambda rng, d, f: identity_rep(z2_group(), d, f),
    "heisenberg": lambda rng, d, f: random_heisenberg_rep(d, f, rng),
    "c3": lambda rng, d, f: random_c3_rep(d, f, rng),
    "s3": lambda rng, d, f: random_s3_rep(d, f, rng),
    "dihedral": lambda rng, d, f: random_dihedral_rep(d, f, rng),
}


def random_action_for(presentation: GroupPresentation, dim: int, field: str, rng) -> AffineAction:
    """Random action for the presentations used across the suites."""
    names = presentation.generators
    if names == ("t",) and not presentation.relators:
        rep = random_free_rep(presentation, dim, field, rng)
    elif presentation.relators and presentation == dihedral_group():
        rep = random_dihedral_rep(dim, field, rng)
    elif not presentation.relators:
        rep = random_free_rep(presentation, dim, field, rng)
    else:
        rep = random_abelian_rep(presentation, dim, field, rng)
    return random_action(rep, rng)


def permuted(action: AffineAction, perm: list[int]) -> AffineAction:
    """The same action with the generators relabelled in the order ``perm``."""
    pres = action.presentation
    relabelled = GroupPresentation(
        [pres.generators[i] for i in perm], [pres.format_word(r) for r in pres.relators]
    )
    rep = Representation(relabelled, action.field, [action.rep.matrices[i] for i in perm], dim=action.dim)
    return AffineAction.from_values(rep, [action.cocycle.values[i] for i in perm])


def fixed_point_action(action: AffineAction) -> AffineAction:
    """The zero cocycle on the action's representation: 0 is a fixed point,
    so the action is reducible."""
    return AffineAction.from_values(action.rep, [np.zeros_like(b) for b in action.cocycle.values])


def symmetric_actions(a: AffineAction, rng):
    """(kind, a', carry) with a' conjugate to a and ``carry`` the map
    (U, t) -> (U', t') of their commutant elements: the cocycle scaled by
    lambda = 0.03, conjugated by a translation v (b' = b + (pi - I) v), rebased
    by a unitary q, and the generators relabelled in reverse order."""
    yield "dilation", AffineAction.from_values(a.rep, [0.03 * b for b in a.cocycle.values]), lambda u, t: (u, 0.03 * t)
    v = random_field_vector(a.dim, a.field, rng)
    yield "translation", conjugate_by_translation(a, v), lambda u, t: (u, t + u @ v)
    q = random_isometry(a.dim, a.field, rng)
    rep = Representation(a.presentation, a.field, [q @ m @ q.conj().T for m in a.rep.matrices])
    rebased = AffineAction.from_values(rep, [q @ b for b in a.cocycle.values])
    yield "rebasing", rebased, lambda u, t: (q @ u @ q.conj().T, q @ t)
    yield "relabelling", permuted(a, list(range(a.presentation.num_generators))[::-1]), lambda u, t: (u, t)


def total_random_abelian_action(rng) -> AffineAction | None:
    """Random free-abelian action whose cocycle values span the space, or
    None when the sample misses totality. Half the samples have identity
    linear part (mostly irreducible), half mix nontrivial eigenvalues in
    (always reducible)."""
    presentation = z_group() if rng.random() < 0.4 else z2_group()
    k = presentation.num_generators
    dim = int(rng.integers(1, k + 1))
    if rng.random() < 0.5:
        rep = identity_rep(presentation, dim, "complex")
    else:
        rep = random_abelian_rep(presentation, dim, "complex", rng)
    action = random_action(rep, rng)
    values = np.column_stack(action.cocycle.values)
    if np.linalg.matrix_rank(values, tol=1e-6) < dim:
        return None
    return action


# -- reference lattice scans ------------------------------------------------


def _lattice_word(exponents: tuple[int, ...]) -> Word:
    letters = []
    for index, power in enumerate(exponents):
        sign = 1 if power >= 0 else -1
        letters.extend(((index, sign),) * abs(power))
    return Word(tuple(letters))


def squared_norm(v: np.ndarray) -> float:
    """psi's value ``v @ v`` (for complex ``v``, of its real and imaginary
    parts, summed)."""
    return float(v.real @ v.real + v.imag @ v.imag) if np.iscomplexobj(v) else float(v @ v)


def reference_quadratic_form_test(action: AffineAction, window: int = 3, tol: ToleranceProfile = TOL):
    """The parallelogram scan pair by pair: psi as ``squared_norm`` of one
    ``Cocycle.extend`` of t1^x1 ... tk^xk per lattice point, then every
    pair (x, y) of the inner window in the library's scan order. The action
    is used as given, with no unit scaling and no totality check, so
    callers pass a total, unit-scaled action."""
    k = action.presentation.num_generators
    span = range(-2 * window, 2 * window + 1)
    psi = {x: squared_norm(action.cocycle.extend(_lattice_word(x))) for x in itertools.product(span, repeat=k)}
    scale = max(psi.values(), default=0.0)
    inner = sorted(
        itertools.product(range(-window, window + 1), repeat=k),
        key=lambda x: (max(map(abs, x), default=0), sum(map(abs, x)), tuple(-c for c in x)),
    )
    max_defect = 0.0
    for x in inner:
        for y in inner:
            plus = tuple(a + b for a, b in zip(x, y))
            minus = tuple(a - b for a, b in zip(x, y))
            defect = abs(psi[plus] + psi[minus] - 2.0 * (psi[x] + psi[y]))
            max_defect = max(max_defect, defect)
            if not residual_ok(defect, scale, tol.eps_residual):
                return QuadraticFormResult(False, (x, y), window, defect)
    return QuadraticFormResult(True, None, window, max_defect)


def reference_hull_distance(points: np.ndarray, target: np.ndarray, iterations: int = 256) -> float:
    """Distance from one target to conv(points) by Frank-Wolfe iteration: an
    upper bound on the exact distance, since every iterate is a hull point."""
    gaps = points - target
    current = gaps[int(np.argmin(np.einsum("ij,ij->i", gaps, gaps)))]
    for _ in range(iterations):
        best = gaps[int(np.argmin(gaps @ current))]
        if current @ (current - best) <= 1e-14:
            break
        direction = best - current
        denom = float(direction @ direction)
        if denom == 0.0:
            break
        gamma = min(1.0, max(0.0, float(-(current @ direction)) / denom))
        if gamma == 0.0:
            break
        current = current + gamma * direction
    return float(np.linalg.norm(current))


def reference_batched_hull_distances(points: np.ndarray, targets: np.ndarray, iterations: int = 256) -> np.ndarray:
    """The batched Frank-Wolfe loop the orbit probe once used, capped at 256
    steps: the active rows are gathered from ``current`` and scattered back on
    every step. Like ``reference_hull_distance`` it gives upper bounds."""
    current = np.empty_like(targets)
    for i, q in enumerate(targets):
        gaps = points - q
        current[i] = gaps[int(np.argmin(np.einsum("ij,ij->i", gaps, gaps)))]
    active = np.arange(len(targets))
    for _ in range(iterations):
        if not active.size:
            break
        gaps = current[active]
        best = points[np.argmin(gaps @ points.T, axis=1)] - targets[active]
        direction = best - gaps
        fw_gap = np.einsum("ij,ij->i", gaps, gaps - best)
        denom = np.einsum("ij,ij->i", direction, direction)
        with np.errstate(divide="ignore", invalid="ignore"):
            gamma = np.clip(-np.einsum("ij,ij->i", gaps, direction) / denom, 0.0, 1.0)
        moving = ~(fw_gap <= 1e-14) & (denom != 0.0) & (gamma > 0.0)
        active = active[moving]
        current[active] = gaps[moving] + gamma[moving, None] * direction[moving]
    return np.linalg.norm(current, axis=1)


def lawson_hanson(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """argmin ||a x - b|| over x >= 0 by Lawson and Hanson's active-set method
    ("Solving Least Squares Problems", 1974, ch. 23), with ``lstsq`` on the
    passive columns."""
    m, n = a.shape
    tol = 10 * max(m, n) * np.finfo(float).eps
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    for _ in range(3 * n):
        dual = a.T @ (b - a @ x)
        dual[passive] = -np.inf
        j = int(np.argmax(dual))
        if dual[j] <= tol:
            break
        passive[j] = True
        while True:
            z = np.zeros(n)
            z[passive] = np.linalg.lstsq(a[:, passive], b, rcond=None)[0]
            if (z[passive] > 0).all():
                break
            low = passive & (z <= 0)
            step = x[low] - z[low]
            alpha = np.min(np.divide(x[low], step, out=np.zeros_like(step), where=step > 0))
            x = x + alpha * (z - x)
            passive &= x > 0
            x[~passive] = 0.0
        x = z
    return x


def reference_nnls_hull_distance(points: np.ndarray, target: np.ndarray) -> float:
    """Exact distance from one target to conv(points), independent of the
    library's method: with y_j = (p_j - q) / s, the nonnegative least-squares
    problem min ||[Y^T; 1^T] mu - [0; 1]|| over mu >= 0 has the solution
    mu = t lambda*, with lambda* the convex weights of the nearest hull point
    and t = 1 / (1 + |x*|^2), so the distance is s ||Y^T mu|| / sum(mu).
    The dual test of ``lawson_hanson`` is absolute, so a distance below
    about 3e-7 s may come out too large (s is the largest coordinate of
    p_j - q); the orbit test cases are far from that regime."""
    gaps = points - target
    scale = float(np.abs(gaps).max(initial=0.0))
    if scale == 0.0:
        return 0.0
    gaps = gaps / scale
    a = np.vstack([gaps.T, np.ones(len(gaps))])
    b = np.zeros(len(a))
    b[-1] = 1.0
    mu = lawson_hanson(a, b)
    return float(np.linalg.norm(gaps.T @ mu) / mu.sum()) * scale


def draw_orbit_words(
    rng: np.random.Generator, budget: int, num_generators: int, max_word_length: int = 12
) -> list[tuple[tuple[int, int], ...]]:
    """The orbit probe's random words, unreduced, as tuples of (gen, +-1).

    Three generator calls, as the library makes them: every length, then
    every letter's generator, then every letter's inversion
    (``random() < 0.5``); a plain loop deals the letters to the words in order.
    """
    lengths = rng.integers(0, max_word_length + 1, size=budget).tolist()
    total = sum(lengths)
    if not (num_generators and total):
        return [()] * budget
    gens = rng.integers(0, num_generators, size=total).tolist()
    inverse = (rng.random(total) < 0.5).tolist()
    words, start = [], 0
    for length in lengths:
        letters = zip(gens[start : start + length], inverse[start : start + length])
        words.append(tuple((gen, -1 if inv else 1) for gen, inv in letters))
        start += length
    return words


def walked_point(action: AffineAction, letters, origin: np.ndarray) -> np.ndarray:
    """pi(w) origin + b(w), with (b(w), pi(w)) walked from (0, I) by one
    ``Cocycle.step`` per letter as given, with no free reduction."""
    value, prefix = np.zeros(action.dim), np.eye(action.dim)
    for gen, sign in letters:
        value, prefix = action.cocycle.step(value, prefix, gen, sign)
    return prefix @ origin + value


def reference_orbit_hull_probe(
    action: AffineAction, origin, budget: int, radius: float, seed: int, max_word_length: int = 12
) -> OrbitHullReport:
    """The orbit probe with one ``walked_point`` per drawn word and one
    nonnegative least-squares solve per probe (``reference_nnls_hull_distance``):
    the same random words and probe grid, drawn in the same order, as the
    library."""
    rng = np.random.default_rng(seed)
    origin = np.asarray(origin, dtype=float)
    words = draw_orbit_words(rng, budget, action.presentation.num_generators, max_word_length)
    cloud = np.array([origin] + [walked_point(action, letters, origin) for letters in words])
    axis = np.linspace(-radius, radius, 5)
    if action.dim <= 3:
        grid = np.array(list(itertools.product(axis, repeat=action.dim)))
    else:
        grid = rng.standard_normal((200, action.dim))
        grid *= radius * rng.random((200, 1)) ** (1.0 / action.dim) / np.linalg.norm(grid, axis=1, keepdims=True)
    grid = grid[np.linalg.norm(grid, axis=1) <= radius + 1e-12]
    probes = tuple(ProbeResult(tuple(float(c) for c in q), reference_nnls_hull_distance(cloud, q)) for q in grid)
    return OrbitHullReport(len(cloud), probes)


# -- reference cocycle search ----------------------------------------------


def counting_solves(monkeypatch, factorizations: bool = False) -> list:
    """Record every commutant solve (an ``intertwiner_system`` build) and
    every boundary split (``RangeSplit.of``) as ("commutant", rep1) and
    ("boundary", matrix shape). With ``factorizations``, also record every
    ``hermitian_eigensystem`` call as ("eigensystem", matrix shape) and every
    ``null_space_basis`` input as ("null_space", matrix shape), wherever the
    library calls them."""
    import sys

    from affine_actions import linalg, reps
    from affine_actions.linalg import RangeSplit

    calls = []
    system, split = reps.intertwiner_system, RangeSplit.of

    def counted_system(rep1, rep2):
        calls.append(("commutant", rep1))
        return system(rep1, rep2)

    def counted_split(cls, matrix, tol):
        calls.append(("boundary", matrix.shape))
        return split(matrix, tol)

    monkeypatch.setattr(reps, "intertwiner_system", counted_system)
    monkeypatch.setattr(RangeSplit, "of", classmethod(counted_split))
    if factorizations:
        for kind, name in (("eigensystem", "hermitian_eigensystem"), ("null_space", "null_space_basis")):
            original = getattr(linalg, name)

            def counted(matrix, *args, _kind=kind, _original=original, **kwargs):
                calls.append((_kind, np.shape(matrix)))
                return _original(matrix, *args, **kwargs)

            for key, module in list(sys.modules.items()):
                if key.split(".")[0] == "affine_actions" and getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
    return calls


def doubled_rep(rep: Representation) -> Representation:
    """rho (+) rho, block diagonal."""
    return Representation(rep.presentation, rep.field, [np.kron(np.eye(2), m) for m in rep.matrices], dim=2 * rep.dim)


def reference_commutant_action_on_classes(rep: Representation, basis, commutant) -> list[np.ndarray]:
    """The commutant acting on class coordinates one class at a time: each
    moved class T h_j is built as a validated ``Cocycle`` and projected on
    every representative."""
    reps = basis.class_representatives
    out = []
    for t_mat in commutant:
        action = np.zeros((len(reps), len(reps)), dtype=rep.dtype)
        for j, h_j in enumerate(reps):
            moved = Cocycle(rep, tuple(t_mat @ v for v in h_j.values)).coordinates()
            action[:, j] = [h_i.coordinates().conj() @ moved for h_i in reps]
        out.append(action)
    return out


def random_vector(dim: int, field: str, rng: np.random.Generator) -> np.ndarray:
    """One Gaussian sample per call: the per-trial draw the library's one-call
    ``random_vectors`` must reproduce bit for bit."""
    if field == COMPLEX:
        return (rng.standard_normal(dim) + 1j * rng.standard_normal(dim)) / np.sqrt(2.0)
    return rng.standard_normal(dim)


def reference_search_irreducible_cocycle(rep: Representation, trials: int, seed: int):
    """``(found, witness coordinates or None, trials_used)`` of the randomized
    search run on the per-class action matrices, with the witness summed
    from the representatives."""
    basis = first_cohomology(rep)
    reps = basis.class_representatives
    if not reps:
        return False, None, 0
    commutant = commutant_basis(rep)
    action_mats = reference_commutant_action_on_classes(rep, basis, commutant)
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        xi = random_vector(len(reps), rep.field, rng)
        s = np.linalg.svd(np.column_stack([m @ xi for m in action_mats]), compute_uv=False)
        if numerical_rank(s, TOL) < len(commutant):
            continue
        coords = sum(c * h.coordinates() for c, h in zip(xi, reps))
        d = rep.dim
        witness = Cocycle(rep, tuple(coords[i * d : (i + 1) * d] for i in range(len(rep.matrices))))
        if not decide_irreducibility(AffineAction(rep, witness)).reducible:
            return True, coords, trial + 1
    return False, None, trials


# -- reference intertwiner system ------------------------------------------


def kronecker_intertwiner_system(rep1: Representation, rep2: Representation, values1=None, values2=None):
    """Dense rows and right-hand side of the intertwiner system for T: V1 -> V2.

        T pi1(s) = pi2(s) T,      T b1(s) - (pi2(s) - I) t = b2(s)      for all generators s,

    in the full unknown (vec T, t), row-major vec; without cocycle values only
    the commuting rows, in vec T. This is the d^2-unknown form the library's
    reduced solver is checked against.
    """
    d1, d2 = rep1.dim, rep2.dim
    dtype = rep1.dtype
    eye1, eye2 = np.eye(d1, dtype=dtype), np.eye(d2, dtype=dtype)
    affine = values1 is not None
    cols = d2 * d1 + (d2 if affine else 0)
    blocks, rhs = [np.zeros((0, cols), dtype=dtype)], [np.zeros(0, dtype=dtype)]
    # row-major vec: vec(T M) = (I (x) M^T) vec(T), vec(M T) = (M (x) I) vec(T)
    for i, (m1, m2) in enumerate(zip(rep1.matrices, rep2.matrices)):
        blocks.append(
            np.hstack([np.kron(eye2, m1.T) - np.kron(m2, eye1), np.zeros((d2 * d1, cols - d2 * d1), dtype=dtype)])
        )
        rhs.append(np.zeros(d2 * d1, dtype=dtype))
        if affine:
            blocks.append(np.hstack([np.kron(eye2, values1[i][None, :]), -(m2 - eye2)]))
            rhs.append(values2[i])
    return np.vstack(blocks), np.concatenate(rhs)


def row_stacked_intertwiner_system(rep1: Representation, rep2: Representation, values1=None, values2=None, tol=TOL):
    """The same system reduced over the first generator and stacked row by row.

    Returns ``(matrix, rhs, lift)``: with Q1, Q2 eigenbases of
    H = pi(s0) + pi(s0)* (I without generators), the unknowns are the
    entries of T~ = Q2* T Q1 on pairs whose H-eigenvalues share a cluster of
    width ``tol.cluster_width``, plus t~ = Q2* t with cocycle values; the
    rows are every generator's equations multiplied by Q2*, g (d2 d1 + d2)
    of them. ``lift`` maps reduced columns to (vec T, t). This is the solver
    the Gram-matrix path replaced, kept as its reference together with
    ``qr_null_space``.
    """
    d1, d2 = rep1.dim, rep2.dim
    dtype = rep1.dtype

    def eigenbasis(rep):
        if not rep.matrices:
            return np.zeros(rep.dim), np.eye(rep.dim, dtype=rep.dtype)
        m = rep.matrices[0]
        return np.linalg.eigh(m + m.conj().T)

    (lam1, q1), (lam2, q2) = eigenbasis(rep1), eigenbasis(rep2)
    spectrum = np.concatenate([lam1, lam2])
    order = np.argsort(spectrum, kind="stable")
    labels = np.empty(d1 + d2, dtype=int)
    labels[order] = np.concatenate([[0], np.cumsum(np.diff(spectrum[order]) > tol.cluster_width)])
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
            if values2 is not None:
                rhs[i, d2 * d1 :] = q2.conj().T @ values2[i]

    def lift(columns: np.ndarray) -> np.ndarray:
        n = columns.shape[1]
        reduced = np.zeros((n, d2, d1), dtype=np.result_type(columns, q1, q2))
        reduced[:, rows_p, cols_q] = columns[:k].T
        full = (q2 @ reduced @ q1.conj().T).reshape(n, d2 * d1).T
        return np.vstack([full, q2 @ columns[k:]]) if affine else full

    return matrix.reshape(gens * per_gen, cols), rhs.reshape(-1), lift


def qr_null_space(matrix: np.ndarray, tol: ToleranceProfile = TOL) -> np.ndarray:
    """Null space of an explicit matrix by QR (when tall) and a full SVD of
    the triangular factor, decided by ``numerical_rank``: the rank decision
    the Gram-matrix path must reproduce."""
    matrix = np.atleast_2d(matrix)
    if matrix.shape[0] == 0 or matrix.shape[1] == 0:
        return np.eye(matrix.shape[1], dtype=matrix.dtype)
    if matrix.shape[0] > matrix.shape[1]:
        matrix = np.linalg.qr(matrix, mode="r")
    _, s, vh = np.linalg.svd(matrix, full_matrices=True)
    return vh[numerical_rank(s, tol) :].conj().T


def lstsq_solve(matrix: np.ndarray, rhs: np.ndarray, tol: ToleranceProfile = TOL):
    """``A x = c`` as it was solved before the Gram form: ``numpy.linalg.lstsq``
    for the particular solution, consistent when its residual is within
    ``eps_residual (1 + ||c||)``, and ``qr_null_space`` for the homogeneous
    part. Returns ``(particular, homogeneous)`` or None."""
    particular, *_ = np.linalg.lstsq(matrix, rhs, rcond=None)
    if not residual_ok(float(np.linalg.norm(matrix @ particular - rhs)), float(np.linalg.norm(rhs)), tol.eps_residual):
        return None
    return particular, qr_null_space(matrix, tol)


# -- brute-force oracle for abelian actions ---------------------------------


def _split_blocks_by(matrix: np.ndarray, blocks: list[np.ndarray], cluster_tol: float) -> list[np.ndarray]:
    refined = []
    for block in blocks:
        compressed = block.conj().T @ matrix @ block
        values, vectors = np.linalg.eig(compressed)
        order = np.argsort(np.angle(values))
        values, vectors = values[order], vectors[:, order]
        start = 0
        groups = []
        for i in range(1, len(values) + 1):
            if i == len(values) or abs(values[i] - values[start]) > cluster_tol:
                groups.append(list(range(start, i)))
                start = i
        for group in groups:
            span = vectors[:, group]
            q, _ = np.linalg.qr(span)
            refined.append(block @ q)
    return refined


def joint_eigenspaces(matrices: list[np.ndarray], cluster_tol: float = 1e-6) -> list[np.ndarray]:
    dim = matrices[0].shape[0] if matrices else 0
    blocks = [np.eye(dim, dtype=complex)]
    for matrix in matrices:
        blocks = _split_blocks_by(matrix.astype(complex), blocks, cluster_tol)
    return blocks


def _is_coboundary_on(w: np.ndarray, matrices, values, residual_tol: float) -> bool:
    rows = [w.conj().T @ m @ w - np.eye(w.shape[1]) for m in matrices]
    rhs = [w.conj().T @ v for v in values]
    stacked = np.vstack(rows)
    target = np.concatenate(rhs)
    # truncated-SVD solve: singular values below tolerance count as zero,
    # otherwise a 1e-16 roundoff entry would "solve" for a fixed point at
    # distance 1e16
    u, s, vh = np.linalg.svd(stacked, full_matrices=False)
    keep = s > residual_tol * max(float(s[0]) if s.size else 0.0, 1.0)
    if np.any(keep):
        solution = vh[keep].conj().T @ ((u[:, keep].conj().T @ target) / s[keep])
    else:
        solution = np.zeros(stacked.shape[1], dtype=stacked.dtype)
    residual = np.linalg.norm(stacked @ solution - target)
    return residual <= residual_tol * (1.0 + np.linalg.norm(target))


def abelian_oracle_is_irreducible(
    action: AffineAction, residual_tol: float = 1e-8, cluster_tol: float = 1e-6
) -> bool:
    """Brute force over explicit invariant subspaces, independent of the
    commutant path: candidates are all sums of joint eigenspaces, where the
    eigenvalue-one block (on which every subspace is invariant) may be
    replaced by the complement of the projected cocycle span inside it. A
    candidate witnesses reducibility when the projected cocycle on it is a
    coboundary (least-squares solve)."""
    matrices = [m.astype(complex) for m in action.rep.matrices]
    values = [v.astype(complex) for v in action.cocycle.values]
    if not matrices:
        return False
    blocks = joint_eigenspaces(matrices, cluster_tol)
    alternatives: list[list[np.ndarray | None]] = []
    for w in blocks:
        options: list[np.ndarray | None] = [w]
        if all(np.linalg.norm(w.conj().T @ m @ w - np.eye(w.shape[1])) < cluster_tol for m in matrices):
            projected = np.column_stack([w.conj().T @ v for v in values])
            u, s, _ = np.linalg.svd(projected, full_matrices=True)
            rank = int(np.sum(s > residual_tol)) if s.size else 0
            complement = w @ u[:, rank:]
            options.append(complement if complement.shape[1] else None)
        alternatives.append(options)
    for choices in itertools.product(*[range(len(opts) + 1) for opts in alternatives]):
        parts = []
        for opts, choice in zip(alternatives, choices):
            if choice == 0:
                continue  # block left out entirely
            picked = opts[choice - 1]
            if picked is not None:
                parts.append(picked)
        if not parts:
            continue
        w = np.hstack(parts)
        if w.shape[1] and _is_coboundary_on(w, matrices, values, residual_tol):
            return False
    return True


# -- the equivalent projections of a direct sum ------------------------------


def analyzed(a1: AffineAction, a2: AffineAction):
    """The projections of a1 (+) a2 (None when it is irreducible), or the
    ActionError naming a reducible summand."""
    try:
        return analyze_direct_sum(a1, a2).projections
    except ActionError as exc:
        return exc


def assert_certified_projections(label, a1: AffineAction, a2: AffineAction, projections) -> None:
    """Orthonormal invariant bases of one dimension k >= 1, an invertible
    intertwiner between the projected actions, and its residual within the
    certification bound."""
    k = projections.v1_basis.shape[1]
    assert projections.v2_basis.shape[1] == k >= 1, label
    p1, p2 = project_action(a1, projections.v1_basis), project_action(a2, projections.v2_basis)
    mapping = projections.intertwiner
    assert numerical_rank(np.linalg.svd(mapping.linear, compute_uv=False), TOL) == k, label
    residual = intertwining_residual(p1, p2, mapping)
    bound = certification_scale((mapping.linear, mapping.translation), a1, a2)
    assert residual_ok(residual, bound, TOL.eps_residual), label


def bit_equal(a1: AffineAction, a2: AffineAction) -> bool:
    """The two actions have equal matrices and cocycle values, bit for bit."""
    pieces = [(*a.rep.matrices, *a.cocycle.values) for a in (a1, a2)]
    return a1.dim == a2.dim and all(np.array_equal(x, y) for x, y in zip(*pieces))


def check_witness(label, a1: AffineAction, a2: AffineAction) -> None:
    """A double a (+) a has the diagonal projections, whatever a is; any
    other sum raises an ActionError naming its first reducible summand iff
    it has one, and otherwise has certified projections or is irreducible.
    No sum raises InternalCheckError."""
    result = analyzed(a1, a2)
    if bit_equal(a1, a2):
        eye = np.eye(a1.dim)
        assert not isinstance(result, ActionError) and result is not None, label
        assert np.array_equal(result.v1_basis, eye) and np.array_equal(result.v2_basis, eye), label
        assert np.array_equal(result.intertwiner.linear, eye) and not result.intertwiner.translation.any(), label
        return
    reducible = [name for name, a in (("first", a1), ("second", a2)) if decide_irreducibility(a).reducible]
    if reducible:
        assert isinstance(result, ActionError), label
        assert str(result).startswith(f"the {reducible[0]} summand is reducible;"), label
    elif result is not None:
        assert not isinstance(result, ActionError), (label, str(result))
        assert_certified_projections(label, a1, a2, result)
    else:
        assert decide_irreducibility(direct_sum(a1, a2)).irreducible, label
