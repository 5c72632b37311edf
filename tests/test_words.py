import pytest
from hypothesis import given, strategies as st

from affine_actions.words import (
    CosetTable,
    GroupPresentation,
    PresentationError,
    Word,
    WordError,
    validate_coset_table,
)

letters = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3), st.sampled_from([1, -1])),
    max_size=12,
).map(tuple)


def test_compose_free_cancellation():
    p = GroupPresentation(["a", "b", "c"])
    ab = p.parse_word("a b")
    bc = p.parse_word("b^-1 c")
    assert p.format_word(ab * bc) == "a c"


def test_compose_inverse_pair_is_empty():
    p = GroupPresentation(["a"])
    assert not p.parse_word("a") * p.parse_word("a^-1")


def test_compose_no_cancellation():
    p = GroupPresentation(["a"])
    assert p.format_word(p.parse_word("a a") * p.parse_word("a")) == "a a a"


def test_inverse_examples():
    p = GroupPresentation(["a", "b"])
    assert p.format_word(p.parse_word("a b").inverse()) == "b^-1 a^-1"
    assert Word().inverse() == Word()
    assert p.format_word(p.parse_word("a^-1").inverse()) == "a"


def test_nested_reduction():
    w = Word(((0, 1), (1, 1), (1, -1), (0, -1), (2, 1)))
    assert w.letters == ((2, 1),)


@given(letters)
def test_inverse_is_involution(ls):
    w = Word(ls)
    assert w.inverse().inverse() == w


@given(letters)
def test_word_times_inverse_is_empty(ls):
    w = Word(ls)
    assert not w * w.inverse()
    assert not w.inverse() * w


@given(letters, letters, letters)
def test_compose_associative(a, b, c):
    x, y, z = Word(a), Word(b), Word(c)
    assert (x * y) * z == x * (y * z)


def test_power_expansion():
    p = GroupPresentation(["a"])
    assert p.parse_word("a^3") == Word(((0, 1),) * 3)
    assert p.parse_word("a^-2") == Word(((0, -1),) * 2)


def test_parse_rejects_unknown_generator():
    p = GroupPresentation(["a"])
    with pytest.raises(WordError):
        p.parse_word("x")


def test_presentation_validation():
    with pytest.raises(PresentationError):
        GroupPresentation(["a", "a"])
    with pytest.raises(PresentationError):
        GroupPresentation(["1bad"])
    with pytest.raises(PresentationError):
        GroupPresentation(["a"], [Word(((1, 1),))])


def test_bad_letter_rejected():
    with pytest.raises(WordError):
        Word(((0, 2),))


def dihedral():
    return GroupPresentation(["t", "s"], ["s s", "s t s t"])


def index2_table(p):
    sub = GroupPresentation(["u"])
    return CosetTable(
        (p.parse_word("1"), p.parse_word("s")),
        ((0, 1), (1, 0)),
        ((sub.parse_word("u"), sub.parse_word("u^-1")), (Word(), Word())),
    )


def test_coset_table_index2_passes():
    p = dihedral()
    report = validate_coset_table(p, index2_table(p))
    assert report.passed, report.failures()


def test_coset_table_identity_sigma_s_fails_transitivity():
    p = dihedral()
    table = index2_table(p)
    broken = CosetTable(table.transversal, ((0, 1), (0, 1)), table.schreier)
    report = validate_coset_table(p, broken)
    assert not report.passed
    failed = {c.name for c in report.failures()}
    assert "transitive" in failed


def test_coset_table_perturbed_entry_fails():
    p = dihedral()
    table = index2_table(p)
    # one entry of sigma_s changed: no longer a bijection
    broken = CosetTable(table.transversal, ((0, 1), (1, 1)), table.schreier)
    assert not validate_coset_table(p, broken).passed
    # swap sigma_t instead: bijective but the commutation pattern of the
    # relator (st)^2 survives, while transitivity-independent relator s*s
    # still holds; perturb to a 3-coset table where a relator genuinely breaks
    z3 = GroupPresentation(["s"], ["s s s"])
    good = CosetTable((Word(), z3.parse_word("s"), z3.parse_word("s s")), ((1, 2, 0),), ((Word(), Word(), z3.parse_word("s s s")),))
    assert validate_coset_table(z3, good).passed
    bad = CosetTable(good.transversal, ((1, 0, 2),), good.schreier)
    report = validate_coset_table(z3, bad)
    assert not report.passed
    assert "relators-act-trivially" in {c.name for c in report.failures()}


def test_coset_table_index1_whole_group():
    p = dihedral()
    sub = GroupPresentation(["t", "s"], ["s s", "s t s t"])
    table = CosetTable(
        (Word(),),
        ((0,), (0,)),
        ((sub.parse_word("t"),), (sub.parse_word("s"),)),
    )
    assert validate_coset_table(p, table).passed


def test_coset_table_shape_mismatch_reported():
    p = dihedral()
    table = CosetTable((Word(),), ((0,),), ((Word(),),))
    report = validate_coset_table(p, table)
    assert not report.passed
    assert report.checks[0].name == "shapes"


@pytest.mark.parametrize(
    "action, schreier, detail",
    [
        (((0, 1), (1,)), ((Word(), Word()), (Word(), Word())), "permutation length != coset count"),
        (((0, 1), (1, 0)), ((Word(), Word()), (Word(),)), "schreier row length != coset count"),
    ],
    ids=["permutation", "schreier"],
)
def test_coset_table_row_of_the_wrong_length_is_a_shape_failure(action, schreier, detail):
    p = dihedral()
    report = validate_coset_table(p, CosetTable((Word(), p.parse_word("s")), action, schreier))
    assert [(c.name, c.passed, c.detail) for c in report.checks] == [("shapes", False, detail)]


def test_a_table_with_no_cosets_is_a_shape_failure_of_its_own():
    # one permutation and one schreier row per generator, each of length 0
    p = dihedral()
    report = validate_coset_table(p, CosetTable((), ((), ()), ((), ())))
    assert [(c.name, c.passed, c.detail) for c in report.checks] == [("shapes", False, "the table has no cosets")]
