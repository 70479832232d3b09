"""Perron data carried through the builders against fresh perron_data."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from substoe import construct, perron
from substoe.clopen import lattice_of
from substoe.construct import (_enlarge, build_oe_alphabet_family,
                               build_soe_substitution, enlarge_matrix,
                               minimize_vertices, realize_group_matrix)
from substoe.errors import CapabilityError, InternalError
from substoe.intpoly import count_real_roots
from substoe.matrix import ExactMatrix, primitivity_exponent
from substoe.perron import _transported, perron_data
from substoe.subst import Substitution

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


def assert_same(carried, fresh):
    assert carried.matrix == fresh.matrix
    assert carried.field.min_poly == fresh.field.min_poly
    assert carried.k == fresh.k
    assert carried.lam == fresh.lam
    assert [x.coords for x in carried.eigvec] == [x.coords for x in fresh.eigvec]
    assert carried.coords_matrix == fresh.coords_matrix
    ours, theirs = lattice_of(carried), lattice_of(fresh)
    assert ours.basis == theirs.basis and ours.den == theirs.den
    # both intervals isolate a root, and they overlap on it: the same one
    poly = fresh.field.min_poly
    (lo1, hi1), (lo2, hi2) = carried.field.interval, fresh.field.interval
    assert 1 < lo1
    assert count_real_roots(poly, lo1, hi1) == 1
    assert count_real_roots(poly, lo2, hi2) == 1
    assert count_real_roots(poly, max(lo1, lo2), min(hi1, hi2)) == 1


def primitive_rows(size):
    return st.lists(st.lists(st.integers(0, 3), min_size=size, max_size=size),
                    min_size=size, max_size=size)


def usable(rows):
    m = ExactMatrix.from_rows(rows)
    return rows != [[1]] and primitivity_exponent(m) is not None


class TestEnlargeTransport:
    def test_golden_chain_three_to_eight(self):
        base = pd = perron_data(A0)
        power, vec = 1, base.eigvec
        while pd.matrix.rows < 8:
            report, pd, power, vec = _enlarge(pd, base, power, vec, 64)
            assert pd.matrix == report["matrix"]
            assert_same(pd, perron_data(pd.matrix))
        assert power == 2 ** 6

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.integers(2, 5).flatmap(primitive_rows))
    def test_random_primitive(self, rows):
        assume(usable(rows))
        base = perron_data(ExactMatrix.from_rows(rows))
        report, pd, power, _ = _enlarge(base, base, 1, base.eigvec, 64)
        assert power == report["power"]
        assert_same(pd, perron_data(report["matrix"]))

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
        a = ExactMatrix.from_rows(rows)
        base = perron_data(a)
        for e in range(1, 7):
            m = a ** e
            assert_same(_transported(m, base, e, base.eigvec), perron_data(m))

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(st.integers(2, 4).flatmap(primitive_rows), st.integers(1, 6))
    def test_random_powers(self, rows, e):
        assume(usable(rows))
        a = ExactMatrix.from_rows(rows)
        base = perron_data(a)
        m = a ** e
        assert_same(_transported(m, base, e, base.eigvec), perron_data(m))

    def test_wrong_power_fails_the_eigen_check(self):
        base = perron_data(A0)
        with pytest.raises(InternalError, match="eigenvector equation"):
            _transported(A0 ** 3, base, 2, base.eigvec)

    def test_unnormalized_vector_is_refused(self):
        base = perron_data(A0)
        doubled = [x * 2 for x in base.eigvec]
        with pytest.raises(InternalError, match="sum to one"):
            _transported(A0 ** 2, base, 2, doubled)

    def test_coefficient_budget(self, monkeypatch):
        # lam**8 has minimal polynomial t^2 - 2207 t + 1: 12-bit coefficients
        base = perron_data(A0)
        monkeypatch.setattr(perron, "TRANSPORT_BITS", 12)
        assert_same(_transported(A0 ** 8, base, 8, base.eigvec),
                    perron_data(A0 ** 8))
        monkeypatch.setattr(perron, "TRANSPORT_BITS", 11)
        with pytest.raises(CapabilityError, match="eigenvalue power 8 has "
                           "12-bit coefficients, over the budget of 11 bits"):
            _transported(A0 ** 8, base, 8, base.eigvec)


@pytest.fixture
def recorded(monkeypatch):
    """Every transport the builders make, and their perron_data calls."""
    seen, calls = [], []

    def transport(m, base, power, vec):
        pd = _transported(m, base, power, vec)
        seen.append(pd)
        return pd

    def fresh(m):
        calls.append(m)
        return perron_data(m)

    monkeypatch.setattr(construct, "_transported", transport)
    monkeypatch.setattr(construct, "perron_data", fresh)
    return seen, calls


class TestBuilders:
    @pytest.mark.parametrize("name", sorted(NAMED))
    def test_family_oe_members(self, recorded, name):
        seen, calls = recorded
        members = build_oe_alphabet_family(Substitution(NAMED[name]), steps=1)
        assert len(calls) == 1
        assert seen[-1].matrix == members[0]["substitution"].incidence_matrix()
        for pd in seen:
            assert_same(pd, perron_data(pd.matrix))

    @pytest.mark.parametrize("name", ["golden", "tribonacci", "thue-morse"])
    def test_family_soe(self, recorded, name):
        seen, calls = recorded
        report = build_soe_substitution(Substitution(NAMED[name]), 2)
        assert len(calls) == 1 and len(seen) == 1
        assert seen[0].matrix == report["substitution"].incidence_matrix()
        assert_same(seen[0], perron_data(seen[0].matrix))

    def test_enlarge_one_perron_call(self, recorded):
        seen, calls = recorded
        enlarge_matrix([[1, 1, 1], [2, 3, 1], [8, 13, 0]])
        assert len(calls) == 1 and len(seen) == 1

    def test_fibonacci_steps_two_one_perron_call(self, recorded):
        seen, calls = recorded
        members = build_oe_alphabet_family(Substitution(NAMED["fibonacci"]),
                                           steps=2)
        assert len(calls) == 1 and len(members) == 2
        # the second member is compared against the first member's data
        assert seen[-1].matrix == members[1]["substitution"].incidence_matrix()
        assert members[1]["groups"]["status"] == "equal"


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
        assert seen[0].matrix == report["matrix"]
        assert_same(seen[0], perron_data(seen[0].matrix))

    @pytest.mark.parametrize("weights", [
        [[Fraction(-1), Fraction(1, 2)], [Fraction(2), Fraction(-1, 2)]],
        [[3, -1], [-2, 1]],
    ])
    def test_realize_one_perron_call(self, recorded, weights):
        seen, calls = recorded
        report = realize_group_matrix(A0, weights)
        assert len(calls) == 1 and len(seen) == 1
        assert seen[0].matrix == report["matrix"]
        assert_same(seen[0], perron_data(seen[0].matrix))


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
