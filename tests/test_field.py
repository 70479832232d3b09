from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from substoe.errors import DomainError
from substoe.field import (
    _cleared,
    _interval_horner,
    certified_sign,
    minimal_polynomial,
    number_field,
    perron_minimal_polynomial,
    value_interval,
)
from substoe.intpoly import IntPolynomial, refine_root_interval
from substoe.matrix import ExactMatrix


GOLDEN = number_field(IntPolynomial([1, -3, 1]))  # largest root of t^2 - 3t + 1


def g(*coords):
    return GOLDEN.from_coords(coords)


class TestConstruction:
    def test_reducible_rejected(self):
        with pytest.raises(DomainError):
            number_field(IntPolynomial([1] + [0] * 0))  # constant
        with pytest.raises(DomainError):
            number_field(IntPolynomial([-4, 0, 1]))  # (t-2)(t+2)

    def test_not_monic_rejected(self):
        with pytest.raises(DomainError):
            number_field(IntPolynomial([1, 0, 2]))

    def test_no_real_root_rejected(self):
        with pytest.raises(DomainError):
            number_field(IntPolynomial([1, 0, 1]))

    def test_interval_brackets_root(self):
        lo, hi = GOLDEN.interval
        f = GOLDEN.min_poly
        assert f(lo) * f(hi) < 0
        assert lo < Fraction(2618, 1000) < hi

    def test_refined_interval(self):
        lo, hi = GOLDEN.refined_interval(Fraction(1, 10 ** 9))
        assert hi - lo <= Fraction(1, 10 ** 9)


class TestArithmetic:
    def test_lambda_squared(self):
        lam = GOLDEN.lam()
        assert lam * lam == g(-1, 3)  # t^2 = 3t - 1

    def test_mixed_rational(self):
        lam = GOLDEN.lam()
        assert 3 - lam == g(3, -1)
        assert (3 - lam) * (3 - lam) == g(8, -3)
        assert lam / 2 == g(0, Fraction(1, 2))

    def test_inverse(self):
        lam = GOLDEN.lam()
        inv = lam.inverse()
        assert lam * inv == GOLDEN.one()
        assert inv == 3 - lam  # lambda * (3 - lambda) = 3lam - lam^2 = 1

    def test_zero_inverse_raises(self):
        with pytest.raises(ZeroDivisionError):
            GOLDEN.zero().inverse()

    def test_pow(self):
        lam = GOLDEN.lam()
        assert lam ** 4 == lam * lam * lam * lam
        assert lam ** 0 == GOLDEN.one()
        assert lam ** -1 == lam.inverse()

    def test_is_rational(self):
        assert g(5, 0).is_rational
        assert g(5, 0).as_rational() == 5
        assert not GOLDEN.lam().is_rational

    def test_cross_field_mix_rejected(self):
        other = number_field(IntPolynomial([1, -7, 1]))
        with pytest.raises(DomainError):
            GOLDEN.lam() + other.lam()

    @given(st.lists(st.integers(-9, 9), min_size=2, max_size=2),
           st.lists(st.integers(-9, 9), min_size=2, max_size=2))
    def test_distributive(self, a, b):
        x, y = g(*a), g(*b)
        lam = GOLDEN.lam()
        assert lam * (x + y) == lam * x + lam * y
        assert (x + y) * (x - y) == x * x - y * y

    @given(st.lists(st.integers(-9, 9), min_size=2, max_size=2))
    def test_inverse_roundtrip(self, a):
        x = g(*a)
        if x.is_zero:
            return
        assert x * x.inverse() == GOLDEN.one()


class TestCertifiedSign:
    def test_zero(self):
        assert certified_sign(GOLDEN.zero()) == 0

    def test_rational(self):
        assert certified_sign(g(-7, 0)) == -1
        assert certified_sign(g(2, 0)) == 1

    def test_irrational(self):
        lam = GOLDEN.lam()
        assert certified_sign(lam - 2) == 1  # lambda is about 2.618
        assert certified_sign(lam - 3) == -1
        assert certified_sign(3 - lam) == 1

    def test_tight_cancellation(self):
        # lambda^2 - 3*lambda + 1 is exactly zero
        lam = GOLDEN.lam()
        assert certified_sign(lam * lam - 3 * lam + 1) == 0

    def test_approx(self):
        lam = GOLDEN.lam()
        assert lam.approx(6) == "2.618034"
        assert lam.approx(4) == "2.6180"


class TestPerronPolynomial:
    def test_fibonacci_like(self):
        a = ExactMatrix.from_rows([[1, 1], [1, 2]])
        field, k = perron_minimal_polynomial(a)
        assert field.min_poly == IntPolynomial([1, -3, 1])
        assert k == 2

    def test_reducible_charpoly(self):
        a = ExactMatrix.from_rows([[1, 1, 1], [2, 3, 1], [8, 13, 0]])
        field, k = perron_minimal_polynomial(a)
        assert field.min_poly == IntPolynomial([1, -7, 1])
        assert k == 2

    def test_integer_dominant(self):
        a = ExactMatrix.from_rows([[2]])
        field, k = perron_minimal_polynomial(a)
        assert field.min_poly == IntPolynomial([-2, 1])
        assert k == 1

    def test_dominant_must_exceed_one(self):
        a = ExactMatrix.from_rows([[1]])
        with pytest.raises(DomainError):
            perron_minimal_polynomial(a)


class TestMinimalPolynomial:
    def test_of_lambda(self):
        assert minimal_polynomial(GOLDEN.lam()) == GOLDEN.min_poly

    def test_of_integer(self):
        assert minimal_polynomial(g(4, 0)) == IntPolynomial([-4, 1])

    def test_of_lambda_squared(self):
        lam = GOLDEN.lam()
        # lambda^2 = 3lam - 1 has trace 7 and norm 1: t^2 - 7t + 1
        assert minimal_polynomial(lam * lam) == IntPolynomial([1, -7, 1])

    def test_non_integral_rejected(self):
        with pytest.raises(DomainError):
            minimal_polynomial(GOLDEN.lam() / 2)


def fraction_interval_eval(coords, lo, hi):
    """Rational interval Horner: the reference for the integer evaluation."""
    vlo = vhi = Fraction(0)
    for c in reversed(coords):
        cands = (vlo * lo, vlo * hi, vhi * lo, vhi * hi)
        vlo, vhi = min(cands) + c, max(cands) + c
    return vlo, vhi


def coarse_walk(field):
    """Intervals bisected afresh from the field's coarse interval."""
    lo, hi = field.interval
    while True:
        yield lo, hi
        lo, hi = refine_root_interval(field.min_poly, lo, hi)


def reference_refined_interval(field, width):
    return next((lo, hi) for lo, hi in coarse_walk(field) if hi - lo <= width)


def reference_value_interval(elt, width):
    for lo, hi in coarse_walk(elt.field):
        vlo, vhi = fraction_interval_eval(elt.coords, lo, hi)
        if vhi - vlo <= width:
            return vlo, vhi


def reference_sign(elt):
    if elt.is_zero:
        return 0
    for lo, hi in coarse_walk(elt.field):
        vlo, vhi = fraction_interval_eval(elt.coords, lo, hi)
        if vlo > 0:
            return 1
        if vhi < 0:
            return -1


fractions = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 15))
widths = st.builds(Fraction, st.integers(1, 60), st.integers(1, 15))

# Golden, t^2 - 2t - 5, the plastic cubic t^3 - t - 1, t^3 - 2t - 2,
# t^2 + 5t + 5 (largest root negative) and t - 3 (degree 1).
FIELD_POLYS = ([1, -3, 1], [-5, -2, 1], [-1, -1, 0, 1], [-2, -2, 0, 1],
               [5, 5, 1], [-3, 1])


class TestIntegerHorner:
    """The integer interval Horner gives the rational enclosure exactly."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(fractions, min_size=1, max_size=7), fractions, widths)
    def test_matches_fraction_horner(self, coords, lo, width):
        hi = lo + width
        nums, d = _cleared(coords)
        vlo, vhi, s = _interval_horner(nums, lo, hi)
        assert s > 0
        assert (Fraction(vlo, d * s), Fraction(vhi, d * s)) == \
            fraction_interval_eval(coords, lo, hi)

    @pytest.mark.parametrize("coords, lo, hi", [
        ([Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7)],
         Fraction(-7, 3), Fraction(-1, 5)),
        ([Fraction(-3, 4), Fraction(2, 9)], Fraction(-1, 2), Fraction(3, 8)),
        ([Fraction(-3, 4), Fraction(2, 9), Fraction(-1, 6)],
         Fraction(13, 5), Fraction(21, 8)),
        ([Fraction(5, 3)], Fraction(-2), Fraction(7)),
        ([Fraction(0), Fraction(0), Fraction(-1, 11)], Fraction(0), Fraction(1, 3)),
        ([1, 1, 1], Fraction(-1, 3), Fraction(2, 3)),
    ])
    def test_mixed_signs_and_endpoints(self, coords, lo, hi):
        coords = [Fraction(c) for c in coords]
        nums, d = _cleared(coords)
        vlo, vhi, s = _interval_horner(nums, lo, hi)
        assert (Fraction(vlo, d * s), Fraction(vhi, d * s)) == \
            fraction_interval_eval(coords, lo, hi)


class TestBisectionChain:
    """Answers are the same on a fresh field, on one whose chain is already
    long, and from a walk that bisects the coarse interval afresh."""

    @staticmethod
    def fields(poly):
        fresh = number_field(IntPolynomial(poly))
        long = number_field(IntPolynomial(poly))
        long.refined_interval(Fraction(1, 2 ** 200))
        return fresh, long

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.sampled_from(FIELD_POLYS), st.lists(fractions, min_size=3, max_size=3),
           st.integers(1, 80))
    def test_fresh_and_long_chain_agree(self, poly, coords, bits):
        fresh, long = self.fields(poly)
        coords = coords[:fresh.degree]
        width = Fraction(1, 2 ** bits)
        a, b = fresh.from_coords(coords), long.from_coords(coords)
        want = reference_value_interval(a, width)
        assert value_interval(a, width) == want
        assert value_interval(b, width) == want
        assert certified_sign(a) == certified_sign(b) == reference_sign(a)
        want = reference_refined_interval(fresh, width)
        assert fresh.refined_interval(width) == want
        assert long.refined_interval(width) == want
        assert a.approx(12) == b.approx(12)

    @pytest.mark.parametrize("poly", FIELD_POLYS)
    def test_near_cancellation(self, poly):
        # lam minus the ends of a fine interval: the sign needs a deep chain
        fresh, long = self.fields(poly)
        lo, hi = reference_refined_interval(fresh, Fraction(1, 10 ** 40))
        for end, sign in ((lo, 1), (hi, -1)):
            a, b = fresh.lam() - end, long.lam() - end
            assert certified_sign(a) == certified_sign(b) == sign
            width = Fraction(1, 10 ** 50)
            assert value_interval(a, width) == value_interval(b, width) == \
                reference_value_interval(a, width)

    def test_chain_runs_each_step_once(self, monkeypatch):
        import substoe.field as field_module
        calls = []

        def counting(f, lo, hi):
            calls.append((lo, hi))
            return refine_root_interval(f, lo, hi)

        monkeypatch.setattr(field_module, "refine_root_interval", counting)
        field = number_field(IntPolynomial([1, -3, 1]))
        x = field.lam() - Fraction(2618033988749, 10 ** 12)
        assert certified_sign(x) == 1
        first = len(calls)
        # exactly the steps a walk from the coarse interval needs
        needed = next(i for i, (lo, hi) in enumerate(coarse_walk(field))
                      if fraction_interval_eval(x.coords, lo, hi)[0] > 0)
        assert first == needed > 0
        for _ in range(5):
            assert certified_sign(x) == 1
            field.refined_interval(Fraction(1, 10 ** 6))
        assert len(calls) == first
        assert len(set(calls)) == len(calls)
