"""Words, finitely presented groups, and coset-table data.

A word is a freely reduced sequence of signed generator letters. A
presentation is a list of generator names plus relator words; it fixes the
group all other modules act through. Coset tables describe a finite-index
subgroup combinatorially (transversal, generator permutations, Schreier
words) and are user-supplied: no coset enumeration happens here.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

_NAME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")


class WordError(ValueError):
    """Malformed word data (bad letter, unknown generator, parse failure)."""


class PresentationError(ValueError):
    """Malformed presentation (duplicate/invalid names, bad relator)."""


def _free_reduce(letters: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    stack: list[tuple[int, int]] = []
    for gen, sign in letters:
        if sign not in (1, -1):
            raise WordError(f"exponent sign must be +1 or -1, got {sign}")
        if not isinstance(gen, int) or gen < 0:
            raise WordError(f"generator index must be a non-negative int, got {gen!r}")
        if stack and stack[-1][0] == gen and stack[-1][1] == -sign:
            stack.pop()
        else:
            stack.append((gen, sign))
    return tuple(stack)


@dataclass(frozen=True)
class Word:
    """A freely reduced word; ``letters`` is a tuple of (generator, ±1)."""

    letters: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "letters", _free_reduce(self.letters))

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(tuple((gen, -sign) for gen, sign in reversed(self.letters)))

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def max_generator(self) -> int:
        """Largest generator index used, or -1 for the empty word."""
        return max((gen for gen, _ in self.letters), default=-1)


@dataclass(frozen=True)
class GroupPresentation:
    """Generator names plus relator words.

    Relators may be given as :class:`Word` instances or as word strings in
    the file syntax (whitespace-separated ``name`` / ``name^-1`` tokens,
    ``1`` for the empty word).
    """

    generators: tuple[str, ...]
    relators: tuple[Word, ...] = ()

    def __init__(self, generators: Sequence[str], relators: Sequence[Word | str] = ()) -> None:
        generators = tuple(generators)
        seen = set()
        for name in generators:
            if not _NAME_RE.match(name):
                raise PresentationError(f"invalid generator name {name!r}")
            if name in seen:
                raise PresentationError(f"duplicate generator name {name!r}")
            seen.add(name)
        object.__setattr__(self, "generators", generators)
        parsed = tuple(
            r if isinstance(r, Word) else _parse_word(r, generators) for r in relators
        )
        for r in parsed:
            if r.max_generator() >= len(generators):
                raise PresentationError(
                    f"relator uses generator index {r.max_generator()}, "
                    f"but only {len(generators)} generators are declared"
                )
        object.__setattr__(self, "relators", parsed)

    @property
    def num_generators(self) -> int:
        return len(self.generators)

    def parse_word(self, text: str) -> Word:
        return _parse_word(text, self.generators)

    def format_word(self, word: Word) -> str:
        if word.max_generator() >= len(self.generators):
            raise WordError("word references an undeclared generator")
        if not word:
            return "1"
        return " ".join(
            self.generators[gen] if sign > 0 else f"{self.generators[gen]}^-1"
            for gen, sign in word.letters
        )

    def check_word(self, word: Word) -> Word:
        if word.max_generator() >= len(self.generators):
            raise WordError(
                f"word uses generator index {word.max_generator()}, "
                f"presentation has {len(self.generators)}"
            )
        return word


def _parse_word(text: str, generators: Sequence[str]) -> Word:
    tokens = text.split()
    if tokens == ["1"]:
        return Word()
    index = {name: i for i, name in enumerate(generators)}
    letters = []
    for tok in tokens:
        name, sep, exp = tok.partition("^")
        if name not in index:
            raise WordError(f"unknown generator {name!r} in word {text!r}")
        if not sep:
            letters.append((index[name], 1))
        elif exp == "-1":
            letters.append((index[name], -1))
        else:
            # name^k with integer k, expanded into k letters
            try:
                k = int(exp)
            except ValueError:
                raise WordError(f"bad exponent {exp!r} in token {tok!r}") from None
            letters.extend(((index[name], 1 if k > 0 else -1),) * abs(k))
    return Word(tuple(letters))


def free_presentation(names: Sequence[str]) -> GroupPresentation:
    return GroupPresentation(tuple(names), ())


@dataclass(frozen=True)
class CosetTable:
    """Combinatorial data for a finite-index subgroup.

    ``transversal[x]`` is a word in the ambient generators representing
    coset x (entry 0 must be empty). ``action[s][x]`` is the coset of
    generator s applied to coset x (left multiplication on left cosets).
    ``schreier[s][x]`` is the subgroup element ``t_{s·x}^{-1} s t_x`` as a
    word in the *subgroup's* generators.
    """

    transversal: tuple[Word, ...]
    action: tuple[tuple[int, ...], ...]
    schreier: tuple[tuple[Word, ...], ...]

    def __init__(
        self,
        transversal: Sequence[Word],
        action: Sequence[Sequence[int]],
        schreier: Sequence[Sequence[Word]],
    ) -> None:
        object.__setattr__(self, "transversal", tuple(transversal))
        object.__setattr__(self, "action", tuple(tuple(row) for row in action))
        object.__setattr__(self, "schreier", tuple(tuple(row) for row in schreier))

    @property
    def num_cosets(self) -> int:
        return len(self.transversal)


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class PropertyReport:
    """Named checks; the report passes when every check does."""

    name: str
    checks: tuple[PropertyCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[PropertyCheck]:
        return [c for c in self.checks if not c.passed]


def _apply_word_to_coset(word: Word, action: Sequence[Sequence[int]], x: int) -> int:
    # rightmost letter acts first: (uv)·x = u·(v·x)
    for gen, sign in reversed(word.letters):
        perm = action[gen]
        if sign > 0:
            x = perm[x]
        else:
            x = perm.index(x)
    return x


def validate_coset_table(presentation: GroupPresentation, table: CosetTable) -> PropertyReport:
    """Check the combinatorial invariants of a user-supplied coset table.

    Verifies shapes, bijectivity of each generator permutation, triviality
    of every relator as a permutation, and transitivity. Schreier-word
    correctness is *not* decided here; it is validated downstream against a
    representation (induced relator residuals).
    """
    checks: list[PropertyCheck] = []
    n = table.num_cosets
    m = presentation.num_generators

    if n < 1:
        detail = "the table has no cosets"
    elif len(table.action) != m or len(table.schreier) != m:
        detail = (
            f"expected one permutation and one schreier row per generator "
            f"({m}), got {len(table.action)} and {len(table.schreier)}"
        )
    elif any(len(row) != n for row in table.action):
        detail = "permutation length != coset count"
    elif any(len(row) != n for row in table.schreier):
        detail = "schreier row length != coset count"
    else:
        detail = ""
    checks.append(PropertyCheck("shapes", not detail, detail))
    if detail:
        return PropertyReport("coset-table", tuple(checks))

    checks.append(
        PropertyCheck(
            "transversal-base",
            not table.transversal[0],
            "" if not table.transversal[0] else "transversal entry 0 must be the empty word",
        )
    )
    for x, word in enumerate(table.transversal):
        if word.max_generator() >= m:
            checks.append(PropertyCheck("transversal-words", False, f"entry {x} uses undeclared generator"))
            break
    else:
        checks.append(PropertyCheck("transversal-words", True))

    bijective = all(sorted(row) == list(range(n)) for row in table.action)
    checks.append(PropertyCheck("permutations-bijective", bijective))
    if not bijective:
        return PropertyReport("coset-table", tuple(checks))

    bad_relator = ""
    for r_idx, relator in enumerate(presentation.relators):
        for x in range(n):
            if _apply_word_to_coset(relator, table.action, x) != x:
                bad_relator = f"relator {r_idx} moves coset {x}"
                break
        if bad_relator:
            break
    checks.append(PropertyCheck("relators-act-trivially", not bad_relator, bad_relator))

    orbit = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for perm in table.action:
            for y in (perm[x], perm.index(x)):
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
    checks.append(
        PropertyCheck(
            "transitive",
            len(orbit) == n,
            "" if len(orbit) == n else f"orbit of coset 0 has size {len(orbit)} of {n}",
        )
    )
    return PropertyReport("coset-table", tuple(checks))
