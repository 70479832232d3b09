"""One contract for every count the library takes: a length, a depth, a
number of steps, an eigenvalue power or a cap is an int >= 1, and
anything else ends in DomainError, not a TypeError or an answer.  The
builders' own counts are pinned in test_construct, and the eigenvalue
powers in test_clopen.

The integers a word, diagram or path stores, the exponents of matrices
and field elements, interval widths and decimal digits are checked once,
where they are taken, and never truncated with int(); a number the field
takes is an int or a Fraction, never coerced with Fraction(); reprs print
an int past Python's int-to-str digit limit by its bit length."""

import signal
from fractions import Fraction

import pytest

from substoe.bratteli import FinitePath, diagram_from_substitution
from substoe.clopen import LatticeGroup, lattice_of, s_membership
from substoe.construct import minimize_vertices
from substoe.errors import DomainError, PathError
from substoe.field import FieldElement, NumberField, value_interval
from substoe.intpoly import IntPolynomial, count_real_roots
from substoe.matrix import ExactMatrix, eventual_positivity_exponent
from substoe.perron import perron_data
from substoe.subst import Substitution, linear_bound_estimate
from substoe.words import RunWord, word_of

A0 = ExactMatrix.from_rows([[1, 1], [1, 2]])


def golden():
    return Substitution({"a": "ab", "b": "abb"})


def group():
    return lattice_of(perron_data(A0))


def membership_exponent(k):
    g = group()
    return g.membership_exponent(g.field.from_rational(Fraction(1, 2)), k)


ENTRY_POINTS = {
    "Substitution.power": lambda k: golden().power(k),
    "Substitution.fixed_point_prefix":
        lambda k: golden().fixed_point_prefix("a", k),
    "Substitution.complexity": lambda k: golden().complexity(k),
    "Substitution.factor_language": lambda k: golden().factor_language(k),
    "Substitution.complexity_profile":
        lambda k: golden().complexity_profile(k),
    "linear_bound_estimate": lambda k: linear_bound_estimate(golden(), k),
    "OrderedDiagram.telescope":
        lambda k: diagram_from_substitution(golden()).telescope(k),
    "OrderedDiagram.path_counts":
        lambda k: diagram_from_substitution(golden()).path_counts(k),
    "OrderedDiagram.minimal_path":
        lambda k: diagram_from_substitution(golden()).minimal_path(k),
    "OrderedDiagram.maximal_path":
        lambda k: diagram_from_substitution(golden()).maximal_path(k),
    "OrderedDiagram.chain_paths":
        lambda k: list(diagram_from_substitution(golden()).chain_paths(k)),
    "OrderedDiagram.export_dot":
        lambda k: diagram_from_substitution(golden()).export_dot(k),
    "RunWord.clamp": lambda k: RunWord([("a", 3)]).clamp(k),
    "LatticeGroup.membership_exponent": membership_exponent,
    "s_membership": lambda k: s_membership(group(), Fraction(1, 2), cap=k),
    "eventual_positivity_exponent":
        lambda k: eventual_positivity_exponent(A0, cap=k),
    "minimize_vertices": lambda k: minimize_vertices(A0, cap=k),
}


# A membership cap bounds the reported exponent, and cap 0 asks whether
# the value lies in the lattice itself, so 0 is the one count they keep.
MEMBERSHIP_CAPS = {"LatticeGroup.membership_exponent", "s_membership"}


@pytest.mark.parametrize("entry, count", [
    (entry, count) for entry in sorted(ENTRY_POINTS)
    for count in (2.0, True, "3", 0, -1)
    if not (count == 0 and entry in MEMBERSHIP_CAPS)])
def test_a_count_that_is_not_a_positive_int_is_refused(entry, count):
    with pytest.raises(DomainError, match="must be a positive integer$"):
        ENTRY_POINTS[entry](count)


@pytest.mark.parametrize("count", [0.0, False])
@pytest.mark.parametrize("entry", sorted(MEMBERSHIP_CAPS))
def test_a_membership_cap_of_zero_must_be_the_int(entry, count):
    with pytest.raises(DomainError, match="^cap must be a positive integer$"):
        ENTRY_POINTS[entry](count)


def test_a_membership_cap_of_zero_asks_for_the_lattice_itself():
    g = group()
    assert g.membership_exponent(g.field.from_rational(Fraction(1, 2)),
                                 0) is None
    assert g.membership_exponent(g.field.one(), 0) == 0
    assert s_membership(g, Fraction(1, 2), cap=0) == {
        "status": "not-member-up-to", "cap": 0}


def test_chain_paths_no_longer_walks_a_float_depth():
    with pytest.raises(DomainError, match="^depth must be a positive integer$"):
        next(diagram_from_substitution(golden()).chain_paths(2.0))


def test_complexity_no_longer_reads_true_as_one():
    with pytest.raises(DomainError,
                       match="^factor length must be a positive integer$"):
        golden().complexity(True)


def test_s_membership_refuses_a_fractional_cap_instead_of_echoing_it():
    with pytest.raises(DomainError, match="^cap must be a positive integer$"):
        s_membership(group(), Fraction(1, 2), cap=2.5)


def lam():
    return perron_data(A0).lam


# entry: (call, error, message, whether a negative int is refused too).
# A negative root multiplicity, root index or position keeps the text it
# had, and a field element's negative power is its inverse's power.
STORED = {
    "RunWord run count": (lambda k: RunWord([("a", k)]), DomainError,
                          "run count must be a non-negative integer", True),
    "word_of run count": (lambda k: word_of({"runs": [["a", k]]}), DomainError,
                          "run count must be a non-negative integer", True),
    "RunWord.repeat": (lambda k: RunWord([("a", 5), ("b", 1)]).repeat(k),
                       DomainError,
                       "repeat count must be a non-negative integer", True),
    "OrderedDiagram level0": (
        lambda k: diagram_from_substitution(golden(), level0=(k, 1)),
        DomainError, "root multiplicities must be integers", False),
    # root edges 0, 1 and 2 exist, so a truncated 2.5, True or "2" would fit
    "FinitePath root index": (
        lambda k: FinitePath(diagram_from_substitution(golden(), (3, 3)),
                             ("a",), k, ()),
        PathError, "root edge index out of range", False),
    # b's order word is abb: positions 1 and 2 read b
    "FinitePath position": (
        lambda k: FinitePath(diagram_from_substitution(golden()),
                             ("b", "b"), 0, (k,)),
        PathError, "edge position out of range at level 1", False),
    "ExactMatrix.__pow__": (lambda k: A0 ** k, DomainError,
                            "matrix power must be a non-negative integer",
                            True),
    "FieldElement.__pow__": (lambda k: lam() ** k, DomainError,
                             "field element power must be an integer", False),
    "NumberField.refined_interval": (
        lambda k: perron_data(A0).field.refined_interval(k), DomainError,
        "width must be a positive rational", False),
    "value_interval": (lambda k: value_interval(lam(), k), DomainError,
                       "width must be a positive rational", False),
    "FieldElement.approx": (lambda k: lam().approx(k), DomainError,
                            "digits must be a non-negative integer", True),
}


@pytest.mark.parametrize("entry, value", [
    (entry, value) for entry in sorted(STORED)
    for value in (2.5, True, "2", -1)
    if value != -1 or STORED[entry][3]])
def test_a_stored_integer_is_checked_not_truncated(entry, value):
    call, error, message, _ = STORED[entry]
    with pytest.raises(error, match="^%s$" % message):
        call(value)


def test_a_polynomial_coefficient_is_not_a_bool():
    with pytest.raises(DomainError,
                       match="^integer coefficients required, got True$"):
        IntPolynomial([True, 1])


@pytest.mark.parametrize("call", [
    lambda x: x.field.refined_interval(0),
    lambda x: x.field.refined_interval(-1),
    lambda x: value_interval(x, 0),
    lambda x: value_interval(x, Fraction(-1, 2)),
    lambda x: x.approx(-1),
], ids=["refined_interval(0)", "refined_interval(-1)", "value_interval(0)",
        "value_interval(-1/2)", "approx(-1)"])
def test_a_width_no_interval_meets_is_refused_at_once(call):
    x = lam()  # built first: the timer covers the refusal alone

    def timed_out(signum, frame):
        raise TimeoutError("no answer within 0.1 s")
    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.setitimer(signal.ITIMER_REAL, 0.1)
    try:
        with pytest.raises(DomainError):
            call(x)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


NOT_RATIONAL = pytest.mark.parametrize("value", [0.1, True, "1/2"],
                                       ids=["float", "bool", "str"])


@NOT_RATIONAL
def test_from_rational_refuses_a_number_that_is_not_an_int_or_fraction(value):
    with pytest.raises(DomainError, match="int or Fraction"):
        group().field.from_rational(value)


def test_field_arithmetic_takes_no_bool():
    one = group().field.one()
    with pytest.raises(DomainError, match="int or Fraction"):
        one * True
    with pytest.raises(DomainError, match="int or Fraction"):
        one + True
    assert (one == True) is False  # noqa: E712


@NOT_RATIONAL
def test_from_coords_refuses_a_coordinate_that_is_not_an_int_or_fraction(value):
    field = group().field
    with pytest.raises(DomainError, match="int or Fraction"):
        field.from_coords([Fraction(1, 2), value])
    with pytest.raises(DomainError, match="int or Fraction"):
        FieldElement(field, (value, 0))


@NOT_RATIONAL
def test_s_membership_refuses_a_value_that_is_not_an_int_or_fraction(value):
    with pytest.raises(DomainError, match="int or Fraction"):
        s_membership(group(), value)


@NOT_RATIONAL
def test_number_field_refuses_an_interval_end_that_is_not_an_int_or_fraction(value):
    f = IntPolynomial([-2, 0, 1])
    for interval in ((value, 2), (1, value)):
        with pytest.raises(DomainError, match="int or Fraction"):
            NumberField(f, interval)


@NOT_RATIONAL
def test_count_real_roots_refuses_an_end_that_is_not_an_int_or_fraction(value):
    for f in (IntPolynomial([-2, 0, 1]), IntPolynomial([3])):
        for lo, hi in ((value, 2), (-2, value)):
            with pytest.raises(DomainError, match="int or Fraction"):
                count_real_roots(f, lo, hi)


BIG = 1 << 24557  # the size of a run count of a Thue-Morse family-oe member


def test_reprs_print_a_huge_int_by_its_bit_length():
    word = RunWord([("a", BIG), ("b", 1)])
    assert repr(word) == ("RunWord<a^<int of 24558 bits>, b^1 | length "
                          "<int of 24558 bits>>")
    assert repr(Substitution({"a": word, "b": "a"})) == (
        "Substitution(a->%r, b->a)" % word)
    assert repr(ExactMatrix.from_rows([[BIG, -BIG], [1, 2]])) == (
        "ExactMatrix.from_rows([[<int of 24558 bits>, "
        "-<int of 24558 bits>], [1, 2]])")
    field = perron_data(A0).field
    assert repr(field.from_coords([BIG, Fraction(1, BIG)])) == (
        "FieldElement(<int of 24558 bits>, 1/<int of 24558 bits>)")


def test_reprs_of_small_ints_are_unchanged():
    assert repr(RunWord([("a", 50), ("b", 2)])) == "RunWord<a^50, b^2 | length 52>"
    assert repr(A0) == "ExactMatrix.from_rows([[1, 1], [1, 2]])"
    assert repr(lam()) == "FieldElement(0, 1)"
    assert repr((lam() - 1) / 2) == "FieldElement(-1/2, 1/2)"


def test_polynomial_reprs_print_a_huge_coefficient_by_its_bit_length():
    f = IntPolynomial([-(1 << 20000), 1])
    assert repr(f) == "IntPolynomial([-<int of 20001 bits>, 1])"
    assert str(f) == "t - <int of 20001 bits>"
    assert repr(NumberField(f, (0, 1 << 20001))) == (
        "NumberField(t - <int of 20001 bits>)")
    assert str(IntPolynomial([3, -2, 1])) == "t^2 - 2*t + 3"


def test_lattice_group_repr_prints_a_huge_denominator_by_its_bit_length():
    field = group().field
    g = LatticeGroup(field, [field.one() / 3 ** 10000,
                             field.lam() / 3 ** 10000])
    assert repr(g) == "LatticeGroup(degree=2, den=<int of 15850 bits>)"


def test_path_repr_prints_a_huge_root_index_by_its_bit_length():
    d = diagram_from_substitution(golden(), level0=(10 ** 5000, 1))
    path = FinitePath(d, ["a", "b"], 10 ** 5000 - 1, [0])
    assert repr(path) == (
        "FinitePath(a->b, root=<int of 16610 bits>, positions=[0])")
