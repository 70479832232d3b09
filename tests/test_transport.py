"""Groups the builders carry in the input's field against fresh perron_data.

The oracle is the public comparison across fields: groups_equal of a
carried group and the group of perron_data on the same matrix identifies
the fresh field's root with the carried power of the input's root, and
both absorption exponents 0 say the two lattices are identical.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from substoe import clopen, construct
from substoe.bratteli import OrderedDiagram
from substoe.clopen import LatticeGroup, groups_equal, lattice_of
from substoe.construct import (_carried_group, _enlarge,
                               build_oe_alphabet_family,
                               build_soe_substitution, enlarge_matrix,
                               minimize_vertices, realize_group_matrix)
from substoe.errors import (CapabilityError, DomainError, FieldMismatchError,
                            InternalError)
from substoe.matrix import ExactMatrix, primitivity_exponent
from substoe.perron import perron_data
from substoe.subst import Substitution
from substoe.words import RunWord

A0 = ExactMatrix.from_rows([[1, 1], [1, 2]])

NAMED = {
    "fibonacci": {"a": "ab", "b": "a"},
    "golden": {"a": "ab", "b": "abb"},
    "tribonacci": {"a": "ab", "b": "ac", "c": "a"},
    "thue-morse": {"a": "ab", "b": "ba"},
    "period-doubling": {"a": "ab", "b": "aa"},
    "rewrite": {"a": "abbcccccccc", "b": "abbbccccccccccccc", "c": "ab"},
    "four-letter": {"a": "abc", "b": "acd", "c": "ad", "d": "a"},
}


def assert_carried(group, m, level0=None):
    """group is the group of the invariant measure of the diagram on m
    with root multiplicities level0 (all 1 if None)."""
    vertices = tuple("v%d" % i for i in range(m.rows))
    diagram = OrderedDiagram(
        vertices, m.transpose(), level0 or (1,) * m.rows,
        {v: RunWord(zip(vertices, m.column(i))) for i, v in enumerate(vertices)})
    field, weights, _ = diagram.measure_eigenvector()
    fresh = LatticeGroup(field, weights)
    assert groups_equal(group, fresh, 1) == {
        "status": "equal", "first_absorbs_at": 0, "second_absorbs_at": 0}


def primitive_rows(size):
    return st.lists(st.lists(st.integers(0, 3), min_size=size, max_size=size),
                    min_size=size, max_size=size)


def usable(rows):
    m = ExactMatrix.from_rows(rows)
    return rows != [[1]] and primitivity_exponent(m) is not None


def carried_powers(a, powers):
    """(a**e, group of a**e carried from perron_data(a)) for e in powers."""
    base = perron_data(a)
    for e in powers:
        m = a ** e
        yield m, _carried_group(m, base.field, e, base.eigvec)


class TestEnlargeTransport:
    def test_golden_chain_three_to_eight(self):
        base = perron_data(A0)
        m, group, vec = A0, lattice_of(base), base.eigvec
        e = base.exponent
        while m.rows < 8:
            report, m, group, vec = _enlarge(m, e, group, vec)
            e = report["primitivity"]
            assert e == primitivity_exponent(m)
            assert m == report["matrix"]
            assert group.field is base.field
            assert group.eigenvalue == group.field.lam() ** group.power
            assert_carried(group, m)
        assert group.power == 2 ** 6

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.integers(2, 5).flatmap(primitive_rows))
    def test_random_primitive(self, rows):
        assume(usable(rows))
        base = perron_data(ExactMatrix.from_rows(rows))
        report, m, group, _ = _enlarge(base.matrix, base.exponent,
                                       lattice_of(base), base.eigvec)
        assert group.power == report["power"]
        assert m == report["matrix"]
        assert_carried(group, m)

    def test_public_enlarge_unchanged(self):
        assert enlarge_matrix(A0)["matrix"].int_rows() == [
            [1, 1, 1], [2, 3, 1], [8, 13, 0]]


class TestPowerTransport:
    @pytest.mark.parametrize("rows", [
        [[1, 1], [1, 2]],            # golden, degree 2
        [[1, 1], [1, 1]],            # Thue-Morse, lam = 2
        [[1, 2], [1, 0]],            # period-doubling, lam = 2
        [[2]],                       # a 1x1 matrix
        [[1, 1, 1], [1, 0, 0], [0, 1, 0]],  # Tribonacci, degree 3
        [[1, 1, 1], [2, 3, 1], [8, 13, 0]],  # degree 2 on three vertices
    ])
    def test_powers_one_to_six(self, rows):
        for m, group in carried_powers(ExactMatrix.from_rows(rows),
                                       range(1, 7)):
            assert_carried(group, m)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(st.integers(2, 4).flatmap(primitive_rows), st.integers(1, 6))
    def test_random_powers(self, rows, e):
        assume(usable(rows))
        (m, group), = carried_powers(ExactMatrix.from_rows(rows), [e])
        assert_carried(group, m)

    def test_wrong_power_fails_the_eigen_check(self):
        base = perron_data(A0)
        with pytest.raises(InternalError, match="eigenvector equation "
                           "failed exact verification"):
            _carried_group(A0 ** 3, base.field, 2, base.eigvec)

    def test_unnormalized_vector_is_refused(self):
        base = perron_data(A0)
        doubled = [x * 2 for x in base.eigvec]
        with pytest.raises(InternalError, match="sum to one"):
            _carried_group(A0 ** 2, base.field, 2, doubled)

    def test_coefficient_budget(self, monkeypatch):
        # lam**8 = -377 + 987 lam: 10-bit coordinates
        base = perron_data(A0)
        monkeypatch.setattr(clopen, "POWER_BITS", 10)
        assert_carried(_carried_group(A0 ** 8, base.field, 8, base.eigvec),
                       A0 ** 8)
        monkeypatch.setattr(clopen, "POWER_BITS", 9)
        with pytest.raises(CapabilityError, match="eigenvalue power 8 have "
                           "10 bits, over the budget of 9 bits"):
            _carried_group(A0 ** 8, base.field, 8, base.eigvec)

    def test_same_field_power_must_match(self):
        base = perron_data(A0)
        squared = _carried_group(A0 ** 2, base.field, 2, base.eigvec)
        unclosed = "not closed under the declared eigenvalue power"
        with pytest.raises(FieldMismatchError, match=unclosed):
            groups_equal(lattice_of(base), squared, 1)
        with pytest.raises(FieldMismatchError, match=unclosed):
            groups_equal(squared, lattice_of(base), 2)
        # a carried lattice meets another field only as the first one,
        # even where that field's root is the carried one's lam
        with pytest.raises(FieldMismatchError,
                           match="compares only on its own field"):
            groups_equal(lattice_of(perron_data(A0)), squared, 1)
        assert groups_equal(lattice_of(base), squared, 2)["status"] == "equal"

    def test_membership_steps_by_the_power(self):
        # lam = 2; the group of [[4]] is Z closed under 4, and 4**2 / 8
        # is the first power of 4 that clears 1/8
        base = perron_data(ExactMatrix.from_rows([[2]]))
        group = _carried_group(ExactMatrix.from_rows([[4]]), base.field, 2,
                               base.eigvec)
        eighth = base.field.from_rational(Fraction(1, 8))
        assert group.membership_exponent(eighth) == 2
        assert lattice_of(base).membership_exponent(eighth) == 3
        # 8Z closed under 4 absorbs Z at 4**2, the first's power squared
        eights = LatticeGroup(base.field, [base.field.from_rational(8)], 2)
        assert groups_equal(group, eights, 1) == {
            "status": "equal", "first_absorbs_at": 0, "second_absorbs_at": 2}

    def test_closure_under_the_power(self):
        # lam**2 = 3 lam - 1 and lam**3 = 8 lam - 3 keep Z + 3 lam Z, which
        # lam itself leaves
        field = perron_data(A0).field
        gens = [field.one(), field.lam() * 3]
        assert LatticeGroup(field, gens, 2).power == 2
        with pytest.raises(DomainError, match="not closed"):
            LatticeGroup(field, gens)


@pytest.fixture
def recorded(monkeypatch):
    """Every group the builders carry, and their perron_data calls."""
    seen, calls = [], []

    def carry(m, field, power, vec, level0=None):
        group = _carried_group(m, field, power, vec, level0)
        seen.append((group, m, level0))
        return group

    def fresh(m):
        calls.append(m)
        return perron_data(m)

    monkeypatch.setattr(construct, "_carried_group", carry)
    monkeypatch.setattr(construct, "perron_data", fresh)
    return seen, calls


def refuse(*args, **kwargs):
    raise AssertionError("a builder identified a field")


class TestBuilders:
    @pytest.mark.parametrize("name", sorted(NAMED))
    def test_family_oe_members(self, recorded, name):
        seen, calls = recorded
        members = build_oe_alphabet_family(Substitution(NAMED[name]), steps=1)
        assert len(calls) == 1
        assert seen[-1][1] == members[0]["substitution"].incidence_matrix()
        for group, m, level0 in seen:
            assert_carried(group, m, level0)

    @pytest.mark.parametrize("name", ["golden", "tribonacci", "thue-morse"])
    def test_family_soe(self, recorded, name):
        seen, calls = recorded
        report = build_soe_substitution(Substitution(NAMED[name]), 2)
        assert len(calls) == 1 and len(seen) == 1
        assert seen[0][1] == report["substitution"].incidence_matrix()
        assert_carried(*seen[0])

    def test_enlarge_one_perron_call(self, recorded):
        seen, calls = recorded
        enlarge_matrix([[1, 1, 1], [2, 3, 1], [8, 13, 0]])
        assert len(calls) == 1 and len(seen) == 1

    def test_fibonacci_steps_two_one_perron_call(self, recorded):
        seen, calls = recorded
        members = build_oe_alphabet_family(Substitution(NAMED["fibonacci"]),
                                           steps=2)
        assert len(calls) == 1 and len(members) == 2
        # the second member is compared against the first member's group
        assert seen[-1][1] == members[1]["substitution"].incidence_matrix()
        assert members[1]["groups"]["status"] == "equal"

    def test_each_power_is_built_once(self, monkeypatch):
        # each group builds its lam**K, and the certificates read it off
        # the group: one call for each of the powers 1, 4, 8, ..., 4096
        powers = []

        def counted(field, k):
            powers.append(k)
            return lam_power(field, k)

        lam_power = clopen._lam_power
        for module in (construct, clopen):
            monkeypatch.setattr(module, "_lam_power", counted, raising=False)
        build_oe_alphabet_family(Substitution(NAMED["tribonacci"]), steps=2)
        assert sorted(powers) == [1] + [2 ** j for j in range(2, 13)]

    @pytest.mark.parametrize("system", [
        [[1, 1, 1], [2, 3, 1], [8, 13, 0]],
        [[2, 0, 3, 0], [1, 1, 3, 1], [3, 1, 1, 0], [3, 1, 3, 2]],
    ] + [NAMED[name] for name in sorted(NAMED)])
    def test_minimize_one_perron_call(self, recorded, system):
        seen, calls = recorded
        if isinstance(system, dict):
            system = Substitution(system)
        report = minimize_vertices(system)
        assert len(calls) == 1 and len(seen) == 1
        assert seen[0][1] == report["matrix"]
        assert seen[0][2] == report["level0"]
        assert_carried(*seen[0])

    @pytest.mark.parametrize("weights", [
        [[Fraction(-1), Fraction(1, 2)], [Fraction(2), Fraction(-1, 2)]],
        [[3, -1], [-2, 1]],
    ])
    def test_realize_one_perron_call(self, recorded, weights):
        seen, calls = recorded
        report = realize_group_matrix(A0, weights)
        assert len(calls) == 1 and len(seen) == 1
        assert seen[0][1] == report["matrix"]
        assert_carried(*seen[0])

    def test_no_field_is_identified(self, monkeypatch):
        for module in (construct, clopen):
            for name in ("NumberField", "minimal_polynomial",
                         "_same_embedded_root"):
                monkeypatch.setattr(module, name, refuse, raising=False)
        reports = [
            enlarge_matrix(A0),
            minimize_vertices([[1, 1, 1], [2, 3, 1], [8, 13, 0]]),
            realize_group_matrix(A0, [[3, -1], [-2, 1]]),
            build_soe_substitution(Substitution(NAMED["tribonacci"]), 2),
        ] + build_oe_alphabet_family(Substitution(NAMED["fibonacci"]),
                                     steps=2)
        for report in reports:
            assert report["groups"]["status"] == "equal"


class TestGroupComparisonOutcomes:
    def _patched(self, monkeypatch, result):
        monkeypatch.setattr(construct, "groups_equal",
                            lambda first, second, m: dict(result))

    def test_unequal_is_internal(self, monkeypatch):
        self._patched(monkeypatch, {"status": "unequal", "reason": "rank"})
        with pytest.raises(InternalError, match="enlargement changed"):
            enlarge_matrix(A0)
        with pytest.raises(InternalError, match="rewriting changed"):
            build_soe_substitution(Substitution(NAMED["golden"]), 1)
        with pytest.raises(InternalError, match="enlargement changed"):
            build_oe_alphabet_family(Substitution(NAMED["golden"]))
        with pytest.raises(InternalError, match="output group is not "
                           "identified with the input group"):
            minimize_vertices(A0)
