import functools
import json
import time
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from substoe import clopen
from substoe.clopen import (LatticeGroup, _lam_power, _strip_shared_primes,
                            groups_equal, lattice_of, s_membership)
from substoe.construct import _carried_group, enlarge_matrix
from substoe.errors import (CapabilityError, DomainError, FieldMismatchError,
                            RankError)
from substoe.field import NumberField, minimal_polynomial, number_field
from substoe.intpoly import IntPolynomial
from substoe.matrix import ExactMatrix, hnf_basis
from substoe.perron import companion_matrix, field_kernel_basis, perron_data

A0 = ExactMatrix.from_rows([[1, 1], [1, 2]])
A1 = ExactMatrix.from_rows([[1, 1, 1], [2, 3, 1], [8, 13, 0]])


def golden_group():
    return lattice_of(perron_data(A0))


class TestLatticeGroup:
    def test_golden_is_full_ring(self):
        g = golden_group()
        assert g.den == 1
        assert g.basis == ExactMatrix.identity(2)
        vecs = g.basis_vectors()
        assert vecs[0] == g.field.one()
        assert vecs[1] == g.field.lam()

    def test_generators_are_members(self):
        g = golden_group()
        for x in g.generators:
            assert g.lattice_contains(x)

    def test_closure_required(self):
        field = golden_group().field
        with pytest.raises(DomainError):
            LatticeGroup(field, [field.one(), field.lam() * 2])

    def test_span_required(self):
        field = golden_group().field
        with pytest.raises(RankError):
            LatticeGroup(field, [field.one()])

    @pytest.mark.parametrize("power", [-1, 0, 2.0, True, "2", None])
    def test_power_must_be_a_positive_int(self, power):
        # -1 would close under lam**3 (bin(-1)[3:] is "1"), 0 under 1
        field = golden_group().field
        with pytest.raises(DomainError,
                           match="eigenvalue power must be a positive integer"):
            LatticeGroup(field, [field.one(), field.lam()], power)

    def test_power_over_budget_is_refused_before_the_basis(self,
                                                           monkeypatch):
        # golden lam**8 = -377 + 987 lam has 10-bit coordinates
        def no_basis(*args):
            raise AssertionError("the basis was built")

        field = golden_group().field
        monkeypatch.setattr(clopen, "POWER_BITS", 9)
        monkeypatch.setattr(clopen, "_integer_lattice", no_basis)
        with pytest.raises(CapabilityError, match="eigenvalue power 8 have "
                           "10 bits, over the budget of 9 bits"):
            LatticeGroup(field, [field.one(), field.lam()], 8)

    def test_level0_renormalizes(self):
        pd = perron_data(A0)
        g = lattice_of(pd, level0=(2, 1))
        vecs = g.generators
        assert vecs[0] * 2 + vecs[1] == pd.field.one()

    def test_level0_validation(self):
        pd = perron_data(A0)
        with pytest.raises(DomainError):
            lattice_of(pd, level0=(0, 1))
        with pytest.raises(DomainError):
            lattice_of(pd, level0=(1, 1, 1))

    def test_from_elements_field_check(self):
        g = golden_group()
        other = number_field(IntPolynomial([-2, 0, 1]))
        with pytest.raises(FieldMismatchError):
            LatticeGroup(g.field, [other.one()])
        # coordinate tuples are not elements
        with pytest.raises(FieldMismatchError,
                           match="generators must be elements"):
            LatticeGroup(g.field, [(1, 0), (0, 1)])

    def test_half_integer_lattice(self):
        # elements with denominators 2, 3 and 6 generating P / 6, P the
        # prime ideal {a + b lam : a = b mod 5} over 5 = disc(t^2 - 3t + 1)
        field = golden_group().field
        lam = field.lam()
        xs = [field.from_rational(Fraction(5, 2)),
              field.from_rational(Fraction(5, 3)), (1 + lam) / 6]
        assert [x.den for x in xs] == [2, 3, 6]
        g = LatticeGroup(field, xs)
        assert g.den == 6
        assert g.basis == ExactMatrix.from_rows([[1, 0], [1, 5]])
        assert g.generators == xs
        assert g.lattice_contains(field.from_rational(Fraction(5, 6)))
        assert not g.lattice_contains(field.from_rational(Fraction(1, 6)))


class TestMembership:
    def test_one_minus_inverse_eigenvalue(self):
        # 3 - lam equals 1/lam for the golden field and is a generator
        g = golden_group()
        res = s_membership(g, g.field.from_coords([3, -1]))
        assert res == {"status": "member", "exponent": 0}

    def test_half_never_lands(self):
        g = golden_group()
        res = s_membership(g, Fraction(1, 2), cap=50)
        assert res == {"status": "not-member-up-to", "cap": 50}

    def test_half_in_odometer_group(self):
        g = lattice_of(perron_data(ExactMatrix.from_rows([[2]])))
        assert s_membership(g, Fraction(1, 2), cap=10) == {
            "status": "member", "exponent": 1}

    def test_unit_interval_enforced(self):
        g = golden_group()
        with pytest.raises(DomainError):
            s_membership(g, Fraction(3, 2))
        with pytest.raises(DomainError):
            s_membership(g, g.field.from_coords([2, -1]))  # 2 - lam < 0

    def test_endpoints_allowed(self):
        g = golden_group()
        assert s_membership(g, 0)["status"] == "member"
        assert s_membership(g, 1)["status"] == "member"

    def test_foreign_field_value(self):
        g = golden_group()
        other = number_field(IntPolynomial([-2, 0, 1]))
        with pytest.raises(FieldMismatchError):
            s_membership(g, other.one())

    def test_exponent_scan(self):
        g = lattice_of(perron_data(ExactMatrix.from_rows([[2]])))
        assert g.membership_exponent(g.field.from_rational(Fraction(1, 8))) == 3
        # the golden eigenvalue is a unit, so negative powers are instant
        gg = golden_group()
        assert gg.membership_exponent(gg.field.lam().inverse() ** 3) == 0


class TestGroupsEqual:
    def test_group_equals_itself(self):
        g = golden_group()
        res = groups_equal(g, g, 1)
        assert res["status"] == "equal"
        assert res["first_absorbs_at"] == 0
        assert res["second_absorbs_at"] == 0

    def test_enlarged_matrix_same_group(self):
        g0 = lattice_of(perron_data(A0))
        g1 = lattice_of(perron_data(A1))
        res = groups_equal(g0, g1, 2)
        assert res["status"] == "equal"
        assert res["first_absorbs_at"] <= 3
        assert res["second_absorbs_at"] <= 3

    def test_rank_mismatch(self):
        f1 = number_field(IntPolynomial([-2, 0, 1]))
        g1 = LatticeGroup(f1, [f1.one(), f1.lam()])
        f2 = number_field(IntPolynomial([-2, 1]))
        g2 = LatticeGroup(f2, [f2.one()])
        res = groups_equal(g1, g2, 2)
        assert res == {"status": "unequal", "reason": "rank"}

    def test_field_mismatch(self):
        f1 = number_field(IntPolynomial([-2, 0, 1]))
        g1 = LatticeGroup(f1, [f1.one(), f1.lam()])
        f2 = number_field(IntPolynomial([-3, 1]))
        g2 = LatticeGroup(f2, [f2.one()])
        with pytest.raises(FieldMismatchError, match="not generated by the "
                           "declared eigenvalue power"):
            groups_equal(g1, g2, 2)

    def test_conjugate_root_rejected(self):
        g = golden_group()
        poly = g.field.min_poly
        small_root = NumberField(poly, (Fraction(1, 4), Fraction(1, 2)))
        other = LatticeGroup(small_root, [small_root.one(), small_root.lam()])
        with pytest.raises(FieldMismatchError, match="different root of the "
                           "same polynomial"):
            groups_equal(g, other, 1)

    def test_prime_denominator_witness(self):
        f = number_field(IntPolynomial([-2, 1]))
        g1 = LatticeGroup(f, [f.one()])
        g2 = LatticeGroup(f, [f.from_rational(Fraction(1, 3))])
        res = groups_equal(g1, g2, 1)
        assert res["status"] == "unequal"
        assert res["reason"] == "prime-denominator"
        assert res["direction"] == "second-into-first"
        assert res["denominator"] == 3

    def test_cap_bound_decides(self):
        f = number_field(IntPolynomial([-2, 1]))
        g1 = LatticeGroup(f, [f.one()])
        g2 = LatticeGroup(f, [f.from_rational(Fraction(1, 2 ** 100))])
        res = groups_equal(g1, g2, 1)
        assert res == {"status": "equal", "first_absorbs_at": 100,
                       "second_absorbs_at": 0}

    def test_power_must_be_positive(self):
        g = golden_group()
        with pytest.raises(DomainError):
            groups_equal(g, g, 0)

    @pytest.mark.parametrize("m", [2.9, "2", 2.0, True, -2])
    def test_power_must_be_an_int(self, m):
        # the golden-chain pair is equal at m = 2, which int(m) would read
        first, second = (lattice_of(perron_data(ExactMatrix.from_rows(rows)))
                         for rows in GOLDEN_CHAIN[:2])
        assert groups_equal(first, second, 2)["status"] == "equal"
        with pytest.raises(DomainError, match="power linking the eigenvalues "
                           "must be a positive integer"):
            groups_equal(first, second, m)

    @pytest.mark.parametrize("m", [10 ** 6, 10 ** 100])
    def test_large_power_is_refused_on_the_way(self, m):
        # lam**m of the golden field has about 0.69 m bits per coordinate;
        # squaring up stops at the first power over POWER_BITS
        first, second = golden_group(), golden_group()
        start = time.perf_counter()
        with pytest.raises(CapabilityError,
                           match=r"^coordinates of eigenvalue power \d+ have "
                                 r"\d+ bits, over the budget of 32768 bits$"):
            groups_equal(first, second, m)
        assert time.perf_counter() - start < 1

    def test_power_budget_names_the_first_power_over_it(self, monkeypatch):
        # golden lam**4 = -8 + 21 lam, lam**8 = -377 + 987 lam: lam**16
        # is refused at lam**8
        monkeypatch.setattr(clopen, "POWER_BITS", 9)
        field = golden_group().field
        assert _lam_power(field, 4) == field.lam() ** 4
        assert _lam_power(field, 0) == field.one()
        with pytest.raises(CapabilityError,
                           match="power 8 have 10 bits, over the budget of "
                                 "9 bits"):
            _lam_power(field, 16)


def _triangular_coords(h, den, vec):
    """Rational coordinates of vec in the column basis h/den: the reference
    for the integer solves in clopen."""
    k = h.rows
    t = [Fraction(x) * den for x in vec]
    coeffs = []
    for i in range(k):
        c = t[i] / h.at(i, i)
        coeffs.append(c)
        if c:
            for r in range(i + 1, k):
                t[r] -= c * h.at(r, i)
    return coeffs


def fraction_membership_exponent(group, elt, cap):
    """The rational scan the integer one replaced: the reference."""
    mult = companion_matrix(group.field)
    cur = elt.coords
    for n in range(cap + 1):
        coeffs = _triangular_coords(group.basis, group.den, cur)
        if all(c.denominator == 1 for c in coeffs):
            return n
        cur = mult.apply(cur)
    return None


# Golden (a unit), t^2 - 2t - 5, t^3 - 2t - 2 and t - 6 (degree 1).
LATTICE_FIELDS = [number_field(IntPolynomial(p))
                  for p in ([1, -3, 1], [-5, -2, 1], [-2, -2, 0, 1], [-6, 1])]
small_fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


def module_lattice(field, gens):
    """The lattice spanned by gens times lam**j, j < k: closed under lam."""
    lam = field.lam()
    elements = []
    for g in gens:
        x = field.from_coords(g)
        for _ in range(field.degree):
            elements.append(x)
            x = x * lam
    return LatticeGroup(field, elements)


class TestLatticeFromElements:
    """The integer rows of the elements against their Fraction coordinates
    cleared to one denominator, the form lattices were built from."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(st.sampled_from(range(len(LATTICE_FIELDS))),
           st.lists(st.lists(small_fractions, min_size=3, max_size=3),
                    min_size=1, max_size=3))
    def test_matches_cleared_coordinates(self, idx, gens):
        field = LATTICE_FIELDS[idx]
        gens = [g[:field.degree] for g in gens]
        assume(any(any(g) for g in gens))
        group = module_lattice(field, gens)
        coords = [x.coords for x in group.generators]
        den = lcm(*(c.denominator for v in coords for c in v))
        rows = [[c.numerator * (den // c.denominator) for c in v]
                for v in coords]
        assert group.den == den == lcm(*(x.den for x in group.generators))
        assert group.basis == hnf_basis(rows)


class TestIntegerMembership:
    """The integer membership scan against the rational one."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(st.sampled_from(range(len(LATTICE_FIELDS))),
           st.lists(st.lists(small_fractions, min_size=3, max_size=3),
                    min_size=1, max_size=3),
           st.lists(st.integers(-3, 3), min_size=9, max_size=9),
           st.lists(small_fractions, min_size=3, max_size=3),
           st.integers(0, 5), st.booleans())
    def test_matches_fraction_scan(self, idx, gens, ints, coords, n, member):
        field = LATTICE_FIELDS[idx]
        k = field.degree
        gens = [g[:k] for g in gens]
        assume(any(any(g) for g in gens))
        group = module_lattice(field, gens)
        if member:
            # a lattice point divided by lam**n: in the group, exponent <= n
            basis = group.basis_vectors()
            x = sum((b * c for b, c in zip(basis, ints)), field.zero())
            elt = x * field.lam() ** -n
        else:
            elt = field.from_coords(coords[:k])
        want = fraction_membership_exponent(group, elt, 12)
        assert group.membership_exponent(elt, 12) == want
        assert group.lattice_contains(elt) == (want == 0)
        if want is not None:
            # the cap boundary: found at cap = want, not below it
            assert group.membership_exponent(elt, want) == want
            if want > 0:
                assert group.membership_exponent(elt, want - 1) is None

    def test_denominator_and_fractional_coords(self):
        field = LATTICE_FIELDS[2]
        group = module_lattice(field, [(Fraction(1, 4), Fraction(-1, 6), 1)])
        assert group.den > 1
        lam = field.lam()
        for elt in (field.from_coords((Fraction(1, 3), Fraction(5, 2), Fraction(-1, 7))),
                    field.from_coords((Fraction(1, 4), Fraction(-1, 6), 1)) * lam ** -4,
                    field.from_rational(Fraction(1, 2))):
            for cap in range(8):
                assert group.membership_exponent(elt, cap) == \
                    fraction_membership_exponent(group, elt, cap)


def _golden_chain(top):
    m = A0
    out = [m]
    while m.rows < top:
        m = enlarge_matrix(m)["matrix"]
        out.append(m)
    return out


def _scaled(pd, s):
    """The Perron lattice divided by lam**s."""
    mu = pd.lam ** -s
    return LatticeGroup(
        pd.field, [x * mu for x in lattice_of(pd).basis_vectors()])


class TestGroupsEqualIntegerScan:
    """groups_equal reports, unchanged by the integer absorption scan."""

    def test_golden_chain_neighbours(self):
        chain = _golden_chain(5)
        groups = [lattice_of(perron_data(m)) for m in chain]
        both_zero = {"status": "equal", "first_absorbs_at": 0,
                     "second_absorbs_at": 0}
        for i, m in enumerate(chain[:-1]):
            for power in (1, 2, 3):
                other = lattice_of(perron_data(m ** power))
                assert groups_equal(groups[i], other, power) == both_zero
            assert groups_equal(groups[i], groups[i + 1], 2) == both_zero

    @pytest.mark.parametrize("rows", [[[1, 2], [3, 1]],
                                      [[2, 1, 0], [1, 1, 1], [1, 0, 1]],
                                      [[1, 1], [2, 0]]])
    def test_absorption_exponents(self, rows):
        # lam is not a unit here, so lam**-s1 L and lam**-(m*s2) L absorb
        # each other only after the steps of lam (first) or of lam**m
        # (second) that make up the difference of the exponents
        a = ExactMatrix.from_rows(rows)
        pd = perron_data(a)
        for m in (1, 2, 3):
            pdm = perron_data(a ** m)
            for s1, s2 in ((0, 0), (0, 2), (1, 0), (0, 1), (2, 0), (3, 1)):
                first, second = _scaled(pd, s1), _scaled(pdm, s2)
                want = {"status": "equal",
                        "first_absorbs_at": max(0, m * s2 - s1),
                        "second_absorbs_at": max(0, -((m * s2 - s1) // m))}
                assert groups_equal(first, second, m) == want

    def test_unequal_pair(self):
        # two matrices with characteristic polynomial t^2 - 7t + 1
        a = lattice_of(perron_data(ExactMatrix.from_rows([[1, 5], [1, 6]])))
        b = lattice_of(perron_data(ExactMatrix.from_rows([[1, 1], [5, 6]])))
        assert groups_equal(a, b, 1) == {
            "status": "unequal", "reason": "prime-denominator",
            "direction": "first-into-second", "denominator": 9}
        assert groups_equal(b, a, 1) == {
            "status": "unequal", "reason": "prime-denominator",
            "direction": "second-into-first", "denominator": 9}


# Non-unit lam of degree 1-3; 2 splits in t^2 - 3t - 2 = t(t + 1) and
# t^3 - t - 2 = t(t + 1)^2 (mod 2), so lam clears 2 from one part only.
KERNEL_FIELDS = [number_field(IntPolynomial(p))
                 for p in ([-6, 1], [-5, -2, 1], [-2, -3, 1],
                           [-2, -2, 0, 1], [-2, -1, 0, 1])]


def deep_fractions(norm):
    """Fractions whose denominators, up to 2**12, are made of the primes of
    the norm, or are 7 or 21 (7 divides none of the norms)."""
    dens = sorted({d for d in range(1, 2 ** 12 + 1)
                   if _strip_shared_primes(d, norm) == 1} | {7, 21})
    return st.builds(Fraction, st.integers(-6, 6), st.sampled_from(dens))


@functools.lru_cache(maxsize=None)
def _perron_power(rows, m):
    return perron_data(ExactMatrix.from_rows([list(r) for r in rows]) ** m)


def proven_bound(h, den, vectors):
    """k * bits(d), d the denominator of the vectors' lattice coordinates."""
    d = 1
    for v in vectors:
        for c in _triangular_coords(h, den, v):
            d = lcm(d, c.denominator)
    return h.rows * d.bit_length()


def scan_absorption(target, vectors, cap):
    """Least t <= cap with lam**t v in the target lattice for every v, by
    rational coordinates; None if there is none."""
    mult = companion_matrix(target.field)
    cur = [list(v) for v in vectors]
    for t in range(cap + 1):
        if all(c.denominator == 1 for v in cur
               for c in _triangular_coords(target.basis, target.den, v)):
            return t
        cur = [mult.apply(v) for v in cur]
    return None


def basis_coords(group):
    return [[Fraction(x, group.den) for x in group.basis.column(j)]
            for j in range(group.field.degree)]


class TestBoundedAbsorption:
    """The absorption kernel against rational scans run to, and past, the
    bound k * bits(d) that the kernel relies on."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.sampled_from(KERNEL_FIELDS), st.data(), st.integers(0, 12),
           st.integers(0, 2))
    def test_matches_scan_to_the_bound(self, field, data, s, mix):
        # mix 0: an unrelated second lattice; 1: the first one divided by
        # lam**s; 2: that plus the unrelated generators
        k = field.degree
        vector = st.lists(deep_fractions(abs(field.min_poly.coeffs[0])),
                          min_size=k, max_size=k)
        gens1 = data.draw(st.lists(vector, min_size=1, max_size=2))
        gens2 = data.draw(st.lists(vector, min_size=1, max_size=2))
        coords = data.draw(vector)
        assume(any(any(g) for g in gens1) and any(any(g) for g in gens2))
        shifted = [(field.from_coords(g) * field.lam() ** -s).coords
                   for g in gens1]
        gens2 = [gens2, shifted, shifted + gens2][mix]
        first, second = module_lattice(field, gens1), module_lattice(field, gens2)

        elt = field.from_coords(coords) * field.lam() ** -s
        bound = proven_bound(first.basis, first.den, [elt.coords])
        want = fraction_membership_exponent(first, elt, bound)
        assert first.membership_exponent(elt, cap=bound) == want
        assert fraction_membership_exponent(first, elt, 2 * bound + 8) == want

        scans = {}
        for direction, target, vectors in (
                ("second-into-first", first, basis_coords(second)),
                ("first-into-second", second, basis_coords(first))):
            t_bound = proven_bound(target.basis, target.den, vectors)
            scans[direction] = (scan_absorption(target, vectors, t_bound),
                                t_bound)
            assert scan_absorption(target, vectors, 2 * t_bound + 8) == \
                scans[direction][0]
        res = groups_equal(first, second, 1)
        into_first = scans["second-into-first"][0]
        into_second = scans["first-into-second"][0]
        if into_first is not None and into_second is not None:
            assert res == {"status": "equal", "first_absorbs_at": into_first,
                           "second_absorbs_at": into_second}
        else:
            assert res["status"] == "unequal"
            found, t_bound = scans[res["direction"]]
            assert found is None
            if res["reason"] == "not-absorbed":
                assert res["bound"] == t_bound
            else:
                assert res["reason"] == "prime-denominator"

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.sampled_from([((1, 2), (3, 1)), ((2, 1, 0), (1, 1, 1), (1, 0, 1)),
                            ((1, 1), (2, 0))]),
           st.integers(1, 3), st.integers(0, 40), st.integers(0, 40))
    def test_planted_exponents(self, rows, m, s1, s2):
        first = _scaled(_perron_power(rows, 1), s1)
        second = _scaled(_perron_power(rows, m), s2)
        assert groups_equal(first, second, m) == {
            "status": "equal",
            "first_absorbs_at": max(0, m * s2 - s1),
            "second_absorbs_at": max(0, -((m * s2 - s1) // m))}

    def test_split_prime_is_not_absorbed(self):
        field = perron_data(ExactMatrix.from_rows([[3, 2], [1, 0]])).field
        assert field.min_poly == IntPolynomial([-2, -3, 1])
        whole = LatticeGroup(field, [field.one(), field.lam()])
        half = LatticeGroup(field, [x / 2 for x in whole.generators])
        assert groups_equal(whole, half, 1) == {
            "status": "unequal", "reason": "not-absorbed",
            "direction": "second-into-first", "bound": 4}
        # the cap bounds the report, not the work
        assert s_membership(whole, Fraction(1, 2), cap=10 ** 5) == {
            "status": "not-member-up-to", "cap": 10 ** 5}


GOLDEN_CHAIN = json.loads(
    (Path(__file__).parents[1] / "perfbench" / "data.json").read_text())[
        "golden_chain"]


def built_in_field(field, b, m):
    """The group of b built directly in field at power m: b's eigenvector
    for lam**m over field, summing to one, as _carried_group carries it."""
    lam = field.lam() ** m
    rows = [[field.from_rational(x) - (lam if i == j else 0)
             for j, x in enumerate(row)] for i, row in enumerate(b.int_rows())]
    vec = field_kernel_basis(rows, field)[0]
    total = sum(vec[1:], vec[0])
    return _carried_group(b, field, m, [x / total for x in vec])


class TestCarriedComparison:
    """A lattice on a second field compares as the same lattice built in
    the first field at the linking power."""

    @pytest.mark.parametrize("i", range(len(GOLDEN_CHAIN) - 1))
    def test_golden_chain_pairs(self, i):
        first = lattice_of(perron_data(ExactMatrix.from_rows(GOLDEN_CHAIN[i])))
        b = ExactMatrix.from_rows(GOLDEN_CHAIN[i + 1])
        carried = groups_equal(first, lattice_of(perron_data(b)), 2)
        assert carried == groups_equal(first, built_in_field(first.field, b, 2),
                                       2)
        assert carried["status"] == "equal"

    @pytest.mark.parametrize("rows_a, rows_b, outcome", [
        ([[1, 2], [3, 1]], [[1, 2], [3, 1]], "equal"),
        ([[1, 2], [3, 1]], [[1, 1], [6, 1]], "equal"),
        ([[3, 2], [1, 0]], [[3, 2], [1, 0]], "equal"),
        ([[3, 1], [2, 0]], [[3, 2], [1, 0]], "not-absorbed"),
        ([[1, 1], [5, 6]], [[1, 5], [1, 6]], "prime-denominator"),
    ])
    def test_kernel_fields(self, rows_a, rows_b, outcome):
        # t^2 - 2t - 5 and t^2 - 3t - 2 of KERNEL_FIELDS, and t^2 - 7t + 1;
        # the first lattice is divided by lam**s
        pd = perron_data(ExactMatrix.from_rows(rows_a))
        for m in (1, 2, 3):
            b = ExactMatrix.from_rows(rows_b) ** m
            foreign = lattice_of(perron_data(b))
            direct = built_in_field(pd.field, b, m)
            for s in (0, 1, 3):
                first = _scaled(pd, s)
                res = groups_equal(first, foreign, m)
                assert res == groups_equal(first, direct, m)
                assert res.get("reason", res["status"]) == outcome

    def test_witness_is_a_carried_basis_vector(self):
        # lam**2 - 3 lam - 1 = 0 and mu = lam**2; the second lattice's first
        # basis vector, carried over, is the witness (denominator 2), not
        # the first vector of the carried lattice's own basis (6)
        field = number_field(IntPolynomial([-1, -3, 1]))
        first = module_lattice(field, [(1, 1)])
        squares = number_field(minimal_polynomial(field.lam() ** 2))
        second = module_lattice(squares, [(-1, Fraction(1, 2))])
        assert groups_equal(first, second, 2) == {
            "status": "unequal", "direction": "second-into-first",
            "reason": "prime-denominator", "denominator": 2}
