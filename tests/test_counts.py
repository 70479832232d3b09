"""One contract for every count the library takes: a length, a depth, a
number of steps, an eigenvalue power or a cap is an int >= 1, and
anything else ends in DomainError, not a TypeError or an answer.  The
builders' own counts are pinned in test_construct, and the eigenvalue
powers in test_clopen."""

from fractions import Fraction

import pytest

from substoe.bratteli import diagram_from_substitution
from substoe.clopen import lattice_of, s_membership
from substoe.construct import minimize_vertices
from substoe.errors import DomainError
from substoe.matrix import ExactMatrix, eventual_positivity_exponent
from substoe.perron import perron_data
from substoe.subst import Substitution, linear_bound_estimate
from substoe.words import RunWord

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
