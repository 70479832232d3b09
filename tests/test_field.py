import sys
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import substoe.field as field_module
import substoe.intpoly as intpoly_module
from substoe.clopen import _same_embedded_root
from substoe.errors import CapabilityError, DomainError, InternalError
from substoe.field import (
    NumberField,
    _cleared,
    _interval_horner,
    certified_sign,
    dominant_root_field,
    minimal_polynomial,
    number_field,
    value_interval,
)
from substoe.intpoly import (IntPolynomial, _eval_at, _rem_monic,
                             count_real_roots, factor_monic_squarefree,
                             isolate_largest_real_root,
                             refine_root_interval, root_bound, squarefree_part)
from substoe.matrix import ExactMatrix, charpoly, gauss_jordan
from substoe.perron import perron_data
from test_matrix import bareiss


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

    def test_constructor_refuses_a_reducible_polynomial_at_once(self):
        # Each interval isolates the root 2 with a sign change.  On
        # (t - 1)(t - 2) the nonzero element lam - 2 would have no
        # certified sign, and bisection for one would not end.
        for coeffs, reason in (([2, -3, 1], "reducible"),
                               ([-8, 12, -6, 1], "squarefree")):  # (t - 2)^3
            start = time.perf_counter()
            with pytest.raises(DomainError, match=reason):
                NumberField(IntPolynomial(coeffs), (Fraction(3, 2), 3))
            assert time.perf_counter() - start < 0.1
        with pytest.raises(CapabilityError, match="factorization cap"):
            NumberField(IntPolynomial([-2] + [0] * 12 + [1]), (1, 2))

    def test_reducible_and_unfactorable_refusals(self):
        # (t^2 + 1)(t^2 + 2) has no real root, but is refused as reducible
        with pytest.raises(DomainError, match="polynomial is reducible"):
            number_field(IntPolynomial([2, 0, 3, 0, 1]))
        cube = IntPolynomial([-2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1])
        with pytest.raises(CapabilityError, match="factorization cap"):
            number_field(cube * cube)  # not squarefree, past the cap

    def test_one_factorization_and_no_gcd(self, monkeypatch):
        calls = {"factor": 0, "squarefree": 0, "count": 0}

        def counted(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)
            return wrapped
        for name, attr in (("factor", "factor_monic_squarefree"),
                           ("squarefree", "squarefree_part"),
                           ("count", "count_real_roots")):
            monkeypatch.setattr(field_module, attr,
                                counted(name, getattr(field_module, attr)))
        field = number_field(IntPolynomial([-2, -2, 0, 1]))
        assert calls == {"factor": 1, "squarefree": 0, "count": 0}
        lo, hi = field.interval
        assert count_real_roots(field.min_poly, lo, hi) == 1
        assert field.min_poly(lo) * field.min_poly(hi) < 0

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

    def test_approx_to_whole_numbers_has_no_point(self):
        lam = GOLDEN.lam()
        assert (lam.approx(0), (-lam).approx(0)) == ("3", "-3")
        assert (lam.approx(1), (-lam).approx(1)) == ("2.6", "-2.6")

    def test_approx_rounds_exact_halves_up(self):
        for q, digits, text in ((Fraction(1, 2), 0, "1"),
                                (Fraction(-1, 2), 0, "0"),
                                (Fraction(-5, 2), 0, "-2"),
                                (Fraction(1, 8), 2, "0.13"),
                                (Fraction(-1, 8), 2, "-0.12")):
            assert GOLDEN.from_rational(q).approx(digits) == text

    def test_approx_is_the_same_on_a_refined_chain(self):
        # the finest interval of a long chain rounds as a fresh field does
        m = ExactMatrix.from_rows([[0, 1, 3, 1], [3, 1, 2, 1], [1, 3, 0, 3],
                                   [3, 1, 0, 1]])
        fresh, deep = perron_data(m), perron_data(m)
        deep.field.refined_interval(Fraction(1, 10 ** 30))
        for pd in (fresh, deep):
            elements = [pd.lam] + list(pd.eigvec)
            before = [x.approx(d) for x in elements for d in (3, 12, 20)]
            pd.field.refined_interval(Fraction(1, 10 ** 30))
            assert [x.approx(d) for x in elements for d in (3, 12, 20)] == \
                before
        assert fresh.lam.approx(12) == deep.lam.approx(12) == "5.941231048419"

    def test_approx_past_the_digit_limit_is_a_capability_error(self):
        # Python refuses to print an int of more digits than its limit
        limit = sys.get_int_max_str_digits()
        last = perron_data(ExactMatrix.from_rows([[10 ** limit - 1]])).lam
        assert last.approx(3) == "9" * limit + ".000"
        lam = perron_data(ExactMatrix.from_rows([[3 * 10 ** limit]])).lam
        with pytest.raises(CapabilityError, match=(
                "^approximation has %d digits before the point and 3 after, "
                "over the limit of %d digits on int-to-str conversion$"
                % (limit + 1, limit))):
            lam.approx(3)


class TestPerronPolynomial:
    def test_fibonacci_like(self):
        a = ExactMatrix.from_rows([[1, 1], [1, 2]])
        field, k = dominant_root_field(charpoly(a))
        assert field.min_poly == IntPolynomial([1, -3, 1])
        assert k == 2

    def test_reducible_charpoly(self):
        a = ExactMatrix.from_rows([[1, 1, 1], [2, 3, 1], [8, 13, 0]])
        field, k = dominant_root_field(charpoly(a))
        assert field.min_poly == IntPolynomial([1, -7, 1])
        assert k == 2

    def test_integer_dominant(self):
        a = ExactMatrix.from_rows([[2]])
        field, k = dominant_root_field(charpoly(a))
        assert field.min_poly == IntPolynomial([-2, 1])
        assert k == 1

    def test_dominant_must_exceed_one(self):
        a = ExactMatrix.from_rows([[1]])
        with pytest.raises(DomainError):
            dominant_root_field(charpoly(a))

    def test_isolation_ending_on_a_smaller_root(self):
        # charpoly t^3 - 4t^2 - 8t: its isolation ends at (0, 9) on the root
        # 0 of t, and the owner scan passes t over for t^2 - 4t - 8
        a = ExactMatrix.from_rows([[2, 2, 3], [2, 2, 1], [2, 2, 0]])
        field, k = dominant_root_field(charpoly(a))
        owner = IntPolynomial([-8, -4, 1])
        assert (field.min_poly, k) == (owner, 2)
        lo, hi = field.interval
        assert (lo, hi) == (Fraction(9, 2), 9)
        assert owner(lo) * owner(hi) < 0

    def test_no_owner_is_an_internal_error(self, monkeypatch):
        import substoe.field as field_module
        monkeypatch.setattr(field_module, "isolate_largest_real_root",
                            lambda f, factors: (Fraction(5), Fraction(9)))
        with pytest.raises(InternalError, match="no factor owns"):
            dominant_root_field(IntPolynomial([-1, -3, 1]))


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


def reference_bisection(f, lo, hi):
    """One bisection step that evaluates f at lo as well as at the midpoint:
    the reference for refine_root_interval, which carries the sign at lo."""
    mid = (lo + hi) / 2
    vmid = f(mid)
    if vmid == 0:
        w = (hi - lo) / 8
        return mid - w, mid + w
    if (f(lo) > 0) != (vmid > 0):
        return lo, mid
    return mid, hi


def coarse_walk(field):
    """Intervals bisected afresh from the field's coarse interval."""
    lo, hi = field.interval
    while True:
        yield lo, hi
        lo, hi = reference_bisection(field.min_poly, lo, hi)


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
        calls = []

        def counting(f, lo, hi, lo_sign):
            calls.append((lo, hi))
            return refine_root_interval(f, lo, hi, lo_sign)

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


def counted_evaluations(monkeypatch):
    """Count intpoly._eval_at calls, and record how many each
    refine_root_interval call made."""
    count = [0]
    per_step = []
    evaluate, refine = intpoly_module._eval_at, refine_root_interval

    def counting_eval(coeffs, x):
        count[0] += 1
        return evaluate(coeffs, x)

    def counting_refine(*args):
        before = count[0]
        out = refine(*args)
        per_step.append(count[0] - before)
        return out

    import substoe.field as field_module
    monkeypatch.setattr(intpoly_module, "_eval_at", counting_eval)
    monkeypatch.setattr(field_module, "refine_root_interval", counting_refine)
    return per_step


squarefree_polys = st.lists(st.integers(-9, 9), min_size=1, max_size=5).map(
    lambda low: squarefree_part(IntPolynomial(low + [1])))


class TestLowerEndSign:
    """Bisection carries the sign at the lower end: the intervals are those
    of a bisection that evaluates there afresh, at one evaluation a step."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(squarefree_polys, st.integers(1, 120))
    def test_chain_matches_reference_bisection(self, f, steps):
        bound = root_bound(f)
        assume(count_real_roots(f, -bound, bound) > 0)
        # f may be reducible, which the checked constructor refuses, and lo
        # a root of one of its factors: the field is built on the factor
        # that changes sign across (lo, hi), as dominant_root_field does
        lo, hi = isolate_largest_real_root(f)
        [f] = [g for g in factor_monic_squarefree(f) if g(lo) * g(hi) < 0]
        field = NumberField._isolated(f, lo, hi, _eval_at(f.coeffs, lo))
        with pytest.MonkeyPatch.context() as patch:
            per_step = counted_evaluations(patch)
            field.refined_interval((hi - lo) / 2 ** steps)
        want = [field.interval]
        while len(want) < len(field._chain):
            want.append(reference_bisection(f, *want[-1]))
        assert field._chain == want
        assert len(per_step) == len(field._chain) - 1 > 0
        assert per_step == [1] * len(per_step)

    @pytest.mark.parametrize("coeffs", [
        [1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1],  # Lehmer's, root near 1.176
        [-1, -1, 0, 1],                           # plastic, root near 1.325
        [1, -3, 1],
        [1, 0, -2, 1],                            # (t - 1)(t^2 - t - 1)
    ])
    def test_dominant_root_refinement(self, coeffs):
        cp = IntPolynomial(coeffs)
        with pytest.MonkeyPatch.context() as patch:
            per_step = counted_evaluations(patch)
            field, _ = dominant_root_field(cp)
        owner = field.min_poly
        sf = squarefree_part(cp)
        lo, hi = isolate_largest_real_root(sf)
        steps = 0
        while lo <= 1:
            lo, hi = reference_bisection(owner, lo, hi)
            steps += 1
        assert field.interval == (lo, hi)
        assert per_step == [1] * steps


class ReferenceElement:
    """The field element with Fraction coordinates that the integer
    numerators replaced, kept as the oracle for their arithmetic."""

    def __init__(self, field, coords):
        self.field = field
        self.coords = tuple(Fraction(c) for c in coords)

    def _coerce(self, other):
        if isinstance(other, ReferenceElement):
            return other
        return ReferenceElement(self.field, [Fraction(other)]
                                + [0] * (self.field.degree - 1))

    def __add__(self, other):
        o = self._coerce(other)
        return ReferenceElement(self.field, [a + b for a, b in zip(self.coords, o.coords)])

    def __sub__(self, other):
        o = self._coerce(other)
        return ReferenceElement(self.field, [a - b for a, b in zip(self.coords, o.coords)])

    def __neg__(self):
        return ReferenceElement(self.field, [-a for a in self.coords])

    def __mul__(self, other):
        o = self._coerce(other)
        f = self.field.min_poly.coeffs
        k = len(f) - 1
        prod = [Fraction(0)] * (2 * k - 1)
        for i, x in enumerate(self.coords):
            for j, y in enumerate(o.coords):
                prod[i + j] += x * y
        for top in range(len(prod) - 1, k - 1, -1):
            q = prod[top]
            for i in range(k + 1):
                prod[top - k + i] -= q * f[i]
        return ReferenceElement(self.field, prod[:k])

    def inverse(self):
        """Gauss-Jordan over Fraction on the columns of self * lam**j."""
        k = self.field.degree
        lam = ReferenceElement(self.field, [0, 1] + [0] * (k - 2)) if k > 1 \
            else self._coerce(-self.field.min_poly.coeffs[0])
        cols, cur = [], self
        for _ in range(k):
            cols.append(cur.coords)
            cur = cur * lam
        rows = [[c[i] for c in cols] + [Fraction(int(i == 0))] for i in range(k)]
        if len(gauss_jordan(rows, k)) < k:
            raise ZeroDivisionError("inverse of zero field element")
        return ReferenceElement(self.field, [r[k] for r in rows])

    def __pow__(self, n):
        base = self.inverse() if n < 0 else self
        result = self._coerce(1)
        for _ in range(abs(n)):
            result = result * base
        return result


# t - 3, t^2 - 3t - 2 (constant term not a unit), golden, the plastic cubic,
# t^3 - 2t - 2, t^4 - 2 and t^5 - 3t - 3: degrees 1 to 5.
ORACLE_FIELDS = [number_field(IntPolynomial(c)) for c in (
    [-3, 1], [-2, -3, 1], [1, -3, 1], [-1, -1, 0, 1], [-2, -2, 0, 1],
    [-2, 0, 0, 0, 1], [-3, -3, 0, 0, 0, 1])]
small_fractions = st.builds(Fraction, st.integers(-12, 12),
                            st.sampled_from([1, 1, 1, 2, 3, 4, 6, 9]))


def assert_matches(elt, ref):
    """Same value as the reference, in canonical form, coords as Fraction."""
    assert type(elt.coords) is tuple
    assert all(type(c) is Fraction for c in elt.coords)
    assert elt.coords == ref.coords
    assert type(elt.nums) is tuple and all(type(x) is int for x in elt.nums)
    assert elt.den > 0 and gcd(elt.den, *elt.nums) == 1
    assert elt == elt.field.from_coords(ref.coords)
    assert hash(elt) == hash(elt.field.from_coords(ref.coords))


class TestAgainstFractionCoordinates:
    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(st.sampled_from(ORACLE_FIELDS),
           st.lists(small_fractions, min_size=5, max_size=5),
           st.lists(small_fractions, min_size=5, max_size=5),
           small_fractions, st.integers(-3, 4))
    def test_operations_match(self, field, a, b, q, n):
        k = field.degree
        # sparse coordinates make rational elements and zero common
        a, b = a[:k], [c if i % 2 else 0 for i, c in enumerate(b[:k])]
        x, y = field.from_coords(a), field.from_coords(b)
        rx, ry = ReferenceElement(field, a), ReferenceElement(field, b)
        assert_matches(x, rx)
        assert_matches(y, ry)
        for got, want in ((x + y, rx + ry), (x - y, rx - ry), (x * y, rx * ry),
                          (-x, -rx), (x + q, rx + q), (q - x, -rx + q),
                          (x * q, rx * q), (q * x, rx * q),
                          (x * int(q * 2), rx * int(q * 2))):
            assert_matches(got, want)
        if not ry.coords == (0,) * k:
            assert_matches(x / y, rx * ry.inverse())
            assert_matches(q / y, ry.inverse() * q)
            assert_matches(y.inverse(), ry.inverse())
            assert y * y.inverse() == 1
        if q:
            assert_matches(x / q, rx * (1 / q))
        if n >= 0 or not rx.coords == (0,) * k:
            assert_matches(x ** n, rx ** n)
        assert (x == y) == (rx.coords == ry.coords)
        assert (x == q) == (rx.coords == (q,) + (0,) * (k - 1))
        assert x.is_zero == (rx.coords == (0,) * k)

    @pytest.mark.parametrize("field", ORACLE_FIELDS, ids=lambda f: str(f.min_poly))
    def test_units_and_zero(self, field):
        lam = field.lam()
        assert_matches(lam, ReferenceElement(field, lam.coords))
        for x in (lam, lam - 1, lam * lam + Fraction(1, 3), field.one() * 7):
            assert x * x.inverse() == field.one()
            assert x.inverse() * x == 1
        assert field.zero().den == 1 and field.zero().nums == (0,) * field.degree
        with pytest.raises(ZeroDivisionError):
            field.zero().inverse()
        with pytest.raises(ZeroDivisionError):
            field.zero() ** -1


def bareiss_inverse(elt):
    """Reference inverse: elt * x = 1 as C x = den * e0, C the integer
    columns of the numerators of elt * lam**j, solved fraction-free."""
    k = elt.field.degree
    cols = [list(elt.nums)]
    while len(cols) < k:
        cols.append(_rem_monic([0] + cols[-1], elt.field.min_poly.coeffs))
    rows = [[c[i] for c in cols] + [0 if i else elt.den] for i in range(k)]
    det = bareiss(rows, k)
    assert det != 0
    return elt.field.from_coords([Fraction(r[k], det) for r in rows])


@st.composite
def random_fields(draw):
    """Fields of degree 1 to 10 on random monic irreducible polynomials
    with a real root."""
    k = draw(st.integers(1, 10))
    low = draw(st.lists(st.integers(-9, 9), min_size=k, max_size=k))
    try:
        return number_field(IntPolynomial(low + [1]))
    except DomainError:  # reducible, or no real root
        assume(False)


class TestInverseAgainstElimination:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(random_fields(), st.lists(small_fractions, min_size=10, max_size=10))
    def test_random_fields(self, field, coords):
        lam = field.lam()
        for x in (lam, lam - 1, field.from_coords(coords[:field.degree])):
            if x.is_zero:
                continue
            assert x.inverse() == bareiss_inverse(x)
            assert x * x.inverse() == 1

    def test_degree_sixty(self):
        # Past FACTOR_DEGREE_CAP, so the field is built unchecked; t^60 - 2
        # is irreducible by Eisenstein at 2.
        f = IntPolynomial([-2] + [0] * 59 + [1])
        field = NumberField._isolated(f, Fraction(1), Fraction(2), -1)
        lam = field.lam()
        dense = field.from_coords([(-1) ** i * (i % 7) for i in range(60)])
        for x in (lam - 1, 1 + lam ** 5 - 3 * lam ** 17 + lam ** 59 / 7, dense):
            assert x * x.inverse() == 1
            assert x.inverse() == bareiss_inverse(x)


def real_root_intervals(f):
    """Isolating intervals of every real root of squarefree f, in order:
    bisection on Sturm counts, with ends where f does not vanish."""
    bound = root_bound(f)
    todo, out = [(-bound, bound)], []
    while todo:
        lo, hi = todo.pop()
        n = count_real_roots(f, lo, hi)
        if n == 1:
            out.append((lo, hi))
        elif n > 1:
            mid = (lo + hi) / 2
            while f(mid) == 0:
                mid = (mid + hi) / 2
            todo += [(lo, mid), (mid, hi)]
    return sorted(out)


class TestSignsIndependentOfChainDepth:
    """certified_sign and _same_embedded_root start at the finest interval
    the chain holds; they answer as on a fresh field, whose walk starts at
    the coarse interval."""

    @staticmethod
    def fields(field):
        fresh = number_field(field.min_poly)
        deep = number_field(field.min_poly)
        deep.refined_interval(Fraction(1, 2 ** 200))
        return fresh, deep

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.sampled_from(ORACLE_FIELDS),
           st.lists(st.lists(small_fractions, min_size=5, max_size=5),
                    min_size=4, max_size=4))
    def test_random_elements(self, field, coord_lists):
        fresh, deep = self.fields(field)
        for coords in coord_lists:
            coords = coords[:field.degree]
            a, b = fresh.from_coords(coords), deep.from_coords(coords)
            assert certified_sign(a) == certified_sign(b) == reference_sign(a)

    @pytest.mark.parametrize("field", ORACLE_FIELDS, ids=lambda f: str(f.min_poly))
    def test_near_zero_past_the_chain(self, field):
        fresh, deep = self.fields(field)
        depth = len(deep._chain)
        lo, hi = reference_refined_interval(fresh, Fraction(1, 2 ** 300))
        for x in (lo, hi, Fraction(int(lo * 10 ** 60), 10 ** 60)):
            a, b = fresh.lam() - x, deep.lam() - x
            assert certified_sign(a) == certified_sign(b) == reference_sign(a)
        if field.degree > 1:
            assert certified_sign(fresh.lam() - lo) == 1
            assert certified_sign(deep.lam() - hi) == -1
            assert len(deep._chain) > depth

    @pytest.mark.parametrize("field", ORACLE_FIELDS, ids=lambda f: str(f.min_poly))
    def test_same_embedded_root(self, field):
        f = field.min_poly
        others = [NumberField(f, iv) for iv in real_root_intervals(f)]
        # the largest root again, its lower end closer than the deep chain
        near, _ = reference_refined_interval(others[-1], Fraction(1, 2 ** 250))
        others.append(NumberField(f, (near, others[-1].interval[1])))
        fresh, deep = self.fields(field)
        checked = 0
        for make in (lambda k: k.lam(), lambda k: -k.lam(),
                     lambda k: -f.coeffs[-2] - k.lam()):
            a, b = make(fresh), make(deep)
            if sum((c * a ** i for i, c in enumerate(f.coeffs)), fresh.zero()) != 0:
                continue  # not a root of f
            answers = [_same_embedded_root(a, k) for k in others]
            assert answers == [_same_embedded_root(b, k) for k in others]
            assert answers[:-1].count(True) == 1
            assert answers[-1] == answers[-2]
            checked += 1
        assert checked >= 1
