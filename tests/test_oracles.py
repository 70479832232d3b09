"""The in-house polynomial algebra against sympy as an independent oracle.

sympy is a test-only dependency; the whole module is skipped without it.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from substoe import intpoly as intpoly_module
from substoe.construct import enlarge_matrix
from substoe.errors import DomainError
from substoe.field import minimal_polynomial
from substoe.intpoly import (
    FACTOR_DEGREE_CAP,
    IntPolynomial,
    count_real_roots,
    factor_monic_squarefree,
    isolate_largest_real_root,
    poly_gcd,
    root_bound,
    squarefree_part,
)
from substoe.matrix import ExactMatrix, charpoly, primitivity_exponent
from substoe.perron import perron_data
from test_field import random_fields, small_fractions
from test_intpoly import (golden_chain_charpolys, good_prime, linear_products,
                          random_monic_products)

sympy = pytest.importorskip("sympy")
T = sympy.Symbol("t")


def _sympy_poly(f):
    return sympy.Poly(list(reversed(f.coeffs)), T)


def _ints(p):
    """Coefficients of a sympy Poly, lowest degree first."""
    return [int(c) for c in reversed(p.all_coeffs())]


def _fraction(q):
    q = sympy.Rational(q)
    return Fraction(int(q.p), int(q.q))


def _random_squarefree(rng, max_digits, count):
    """Random squarefree polynomials of degree 1..8 with big coefficients."""
    out = []
    while len(out) < count:
        d = rng.randint(1, 8)
        top = 10 ** rng.randint(1, max_digits)
        coeffs = [rng.randint(-top, top) for _ in range(d + 1)]
        if coeffs[-1] == 0:
            continue
        f = IntPolynomial(coeffs)
        if sympy.gcd(_sympy_poly(f), _sympy_poly(f.derivative())).degree() == 0:
            out.append(f)
    return out


def _factors(polys):
    return [(g.degree, list(g.coeffs)) for g in polys]


def _sympy_factors(f):
    """sympy's irreducible factors of squarefree monic f, sorted by
    (degree, coefficients) like factor_monic_squarefree."""
    content, pairs = sympy.factor_list(_sympy_poly(f))
    assert content == 1 and all(mult == 1 for _, mult in pairs)
    return sorted((q.degree(), _ints(q)) for q, _ in pairs)


def _rational(q):
    return sympy.Rational(q.numerator, q.denominator)


def _golden_member(size):
    m = ExactMatrix.from_rows([[1, 1], [1, 2]])
    while m.rows < size:
        m = enlarge_matrix(m)["matrix"]
    return m


class TestCharpoly:
    def test_random_integer_matrices(self):
        rng = random.Random(11)
        for _ in range(60):
            s = rng.randint(1, 8)
            rows = [[rng.randint(-9, 9) for _ in range(s)] for _ in range(s)]
            expected = sympy.Matrix(rows).charpoly(T).all_coeffs()
            assert list(charpoly(ExactMatrix.from_rows(rows)).coeffs) == [
                int(c) for c in reversed(expected)]

    def test_golden_chain_members(self):
        for size in (7, 8):
            m = _golden_member(size)
            assert max(len(str(abs(x))) for x in m.entries) >= 26
            expected = sympy.Matrix(m.int_rows()).charpoly(T).all_coeffs()
            assert list(charpoly(m).coeffs) == [int(c) for c in reversed(expected)]


class TestRealRoots:
    def test_counts_on_sympy_isolating_intervals(self):
        for f in _random_squarefree(random.Random(5), 60, 40):
            intervals = [(_fraction(a), _fraction(b))
                         for (a, b), _ in _sympy_poly(f).intervals()]
            bound = root_bound(f)
            assert count_real_roots(f, -bound, bound) == len(intervals)
            for i, (a, b) in enumerate(intervals):
                if a == b:
                    # A rational root: widen to the left, short of the last interval.
                    a -= (a - intervals[i - 1][1]) / 2 if i else 1
                assert count_real_roots(f, a, b) == 1
                assert count_real_roots(f, a, bound) == len(intervals) - i

    def test_largest_root_isolation(self):
        checked = 0
        for f in _random_squarefree(random.Random(9), 60, 40):
            p = _sympy_poly(f)
            if p.count_roots() == 0:
                continue
            lo, hi = isolate_largest_real_root(f)
            # Sign-change endpoints: [lo, hi] holds exactly one root and
            # nothing lies above it, so it is sympy's largest real root.
            assert f(lo) * f(hi) < 0
            assert p.count_roots(sympy.Rational(lo.numerator, lo.denominator),
                                 sympy.Rational(hi.numerator, hi.denominator)) == 1
            assert p.count_roots(sympy.Rational(hi.numerator, hi.denominator), None) == 0
            checked += 1
        assert checked >= 20


class TestGcdAndSquarefree:
    def test_gcd_and_squarefree_part(self):
        rng = random.Random(13)

        def factor():
            return IntPolynomial([rng.randint(-10 ** 12, 10 ** 12)
                                  for _ in range(rng.randint(1, 3))] + [rng.randint(1, 9)])

        for _ in range(30):
            common, f1, f2 = factor(), factor(), factor()
            f, g = common * f1 * f1, common * f2
            expected = sympy.gcd(_sympy_poly(f), _sympy_poly(g)).primitive()[1]
            if expected.LC() < 0:
                expected = -expected
            assert list(poly_gcd(f, g).coeffs) == _ints(expected)
            sqf = _sympy_poly(f).sqf_part().primitive()[1]
            if sqf.LC() < 0:
                sqf = -sqf
            assert list(squarefree_part(f).coeffs) == _ints(sqf)


class TestFactorization:
    def test_products_of_random_monic_factors(self):
        rng = random.Random(17)
        checked = 0
        while checked < 40:
            factors = [IntPolynomial([rng.randint(-20, 20)
                                      for _ in range(rng.randint(1, 4))] + [1])
                       for _ in range(rng.randint(1, 4))]
            f = factors[0]
            for g in factors[1:]:
                f = f * g
            if f.degree > FACTOR_DEGREE_CAP or not _sympy_poly(f).is_sqf:
                continue
            assert _factors(factor_monic_squarefree(f)) == _sympy_factors(f)
            checked += 1

    @pytest.mark.parametrize("polys", [
        lambda: linear_products(23),
        lambda: random_monic_products(29, 30),
        lambda: golden_chain_charpolys(11),
    ], ids=["linear", "monic", "golden"])
    def test_lift_tree_inputs(self, polys):
        # up to 12 integer roots, split off p-adically; the golden chain
        # from 3 to 11 vertices, whose coefficients reach 6540 bits
        for f in polys():
            assert _factors(factor_monic_squarefree(f)) == _sympy_factors(f)

    @pytest.mark.parametrize("f", [
        # an integer root, then a quartic remainder through the Hensel tree
        IntPolynomial([-5, 1]) * IntPolynomial([1, 0, -10, 0, 1]),
        # roots +-1 mod 3 with no integer lift
        IntPolynomial([-7, 0, 1]),
    ], ids=["root-and-quartic", "t2-minus-7"])
    def test_integer_root_split(self, f):
        assert _factors(factor_monic_squarefree(f)) == _sympy_factors(f)

    def test_modular_factors_match_sympy(self):
        # the monic factors of f mod p, split by degree, as a set, against
        # sympy over
        # GF(p), at the prime the factorization picks and at every other
        # prime up to 17 keeping f squarefree: some below deg f, where x**p
        # is already reduced, and some above it
        rng = random.Random(31)
        sides = set()
        for _ in range(60):
            n = rng.randint(4, 12)
            f = IntPolynomial([rng.randint(-20, 20) for _ in range(n)] + [1])
            if not _sympy_poly(f).is_sqf:
                continue
            df = f.derivative()
            for p in sorted({good_prime(f), 3, 5, 7, 11, 13, 17}):
                fp = intpoly_module._mod(f.coeffs, p)
                d = intpoly_module._mod(df.coeffs, p)
                if not d or len(intpoly_module._gf_gcd(fp, d, p)) > 1:
                    continue
                got = intpoly_module._gf_factor(fp, p)
                _, want = sympy.Poly(list(reversed(f.coeffs)), T,
                                     modulus=p).factor_list()
                assert {tuple(g) for g in got} == {
                    tuple(c % p for c in _ints(g)) for g, _ in want}
                assert len(got) == len(want)
                sides.add(p < n)
        assert sides == {True, False}

    @pytest.mark.parametrize("p, d", [(3, 3), (3, 4), (5, 3), (7, 2), (11, 2)])
    def test_field_polynomial_splits_into_every_irreducible(self, p, d):
        # x**(p**d) - x over GF(p) is the product of the monic irreducibles
        # of every degree k dividing d, (1/k) sum_(j | k) mu(k/j) p**j of
        # each: many factors of one degree for the equal-degree step
        f = [0, p - 1] + [0] * (p ** d - 2) + [1]
        got = intpoly_module._gf_factor(f, p)
        _, want = sympy.Poly(T ** (p ** d) - T, T, modulus=p).factor_list()
        assert sorted(map(tuple, got)) == sorted(
            tuple(c % p for c in _ints(g)) for g, _ in want)
        degrees = [len(g) - 1 for g in got]
        for k in range(1, d + 1):
            if d % k == 0:
                count = sum(sympy.mobius(k // j) * p ** j
                            for j in range(1, k + 1) if k % j == 0) // k
                assert degrees.count(k) == count
        assert len(got) == {(3, 3): 11, (3, 4): 24, (5, 3): 45, (7, 2): 28,
                            (11, 2): 66}[p, d]
        assert intpoly_module._gf_factor(f, p) == got

    def test_failing_primes_divide_the_bounded_discriminant(self):
        # the squarefree refusal's proof: monic squarefree f fails the
        # modular gcd test at p exactly when p divides disc f, and
        # disc(f)**2 <= |f|**(2n-2) |f'|**(2n) (Hadamard)
        rng = random.Random(23)
        primes = [p for p in range(3, 200, 2)
                  if all(p % q for q in range(3, p, 2))]
        checked = 0
        while checked < 40:
            n = rng.randint(2, 8)
            f = IntPolynomial([rng.randint(-30, 30) for _ in range(n)] + [1])
            if not _sympy_poly(f).is_sqf:
                continue
            disc = int(sympy.discriminant(_sympy_poly(f)))
            df = f.derivative()
            assert disc * disc <= (sum(c * c for c in f.coeffs) ** (n - 1)
                                   * sum(c * c for c in df.coeffs) ** n)
            for p in primes:
                d = intpoly_module._mod(df.coeffs, p)
                fails = not d or len(intpoly_module._gf_gcd(
                    [c % p for c in f.coeffs], d, p)) > 1
                assert fails == (disc % p == 0)
            checked += 1


class TestPerronMinimalPolynomial:
    def test_random_primitive_matrices(self):
        rng = random.Random(19)
        checked = 0
        while checked < 20:
            s = rng.randint(1, 6)
            rows = [[rng.randint(0, 3) for _ in range(s)] for _ in range(s)]
            m = ExactMatrix.from_rows(rows)
            if primitivity_exponent(m) is None:
                continue
            p = sympy.Poly(sympy.Matrix(rows).charpoly(T).as_expr(), T)
            root = max(p.real_roots())
            if root <= 1:
                continue
            pd = perron_data(m)
            expected = sympy.Poly(sympy.minimal_polynomial(root, T), T)
            assert list(pd.field.min_poly.coeffs) == _ints(expected)
            lo, hi = pd.field.interval
            assert _rational(lo) < root < _rational(hi)
            checked += 1


class TestElimination:
    def test_inverse_and_det(self):
        rng = random.Random(29)
        singular = 0
        for _ in range(80):
            s = rng.randint(1, 6)
            rows = [[rng.randint(-9, 9) if rng.random() < 0.7 else 0
                     for _ in range(s)] for _ in range(s)]
            m = ExactMatrix.from_rows(rows)
            expected = sympy.Matrix(rows)
            det = expected.det()
            assert (-1) ** s * charpoly(m).coeffs[0] == det
            if det == 0:
                singular += 1
                with pytest.raises(DomainError):
                    m.inverse()
                continue
            inv, (adj, d) = expected.inv(), m.inverse()
            assert d == abs(det)
            sign = 1 if det > 0 else -1
            assert adj.int_rows() == (sign * expected.adjugate()).tolist()
            assert [[Fraction(x, d) for x in adj.row(i)] for i in range(s)] == [
                [_fraction(inv[i, j]) for j in range(s)] for i in range(s)]
        assert 0 < singular < 80


class TestElementMinimalPolynomial:
    def test_random_elements_of_perron_fields(self):
        rng = random.Random(31)
        checked = 0
        while checked < 30:
            s = rng.randint(1, 6)
            rows = [[rng.randint(0, 3) for _ in range(s)] for _ in range(s)]
            m = ExactMatrix.from_rows(rows)
            # [[1]] is primitive, but perron_data refuses its root 1.
            if primitivity_exponent(m) is None or m.rows == 1 and m.at(0, 0) == 1:
                continue
            field = perron_data(m).field
            k = field.degree
            coords = [rng.randint(-4, 4) for _ in range(k)]
            if rng.random() < 0.2:
                coords[1:] = [0] * (k - 1)
            root = max(_sympy_poly(field.min_poly).real_roots())
            # As an AlgebraicNumber the element stays on sympy's polynomial
            # path; the same sum of CRootOf powers stalls it at degree 6.
            element = sympy.AlgebraicNumber(root, list(reversed(coords)))
            expected = sympy.Poly(sympy.minimal_polynomial(element, T), T)
            got = minimal_polynomial(field.from_coords(coords))
            assert list(got.coeffs) == _ints(expected)
            # halved, an element with an odd coefficient is not integral
            half = sympy.AlgebraicNumber(root, [c / sympy.Integer(2)
                                                for c in reversed(coords)])
            expected = sympy.Poly(sympy.minimal_polynomial(half, T), T).monic()
            halved = field.from_coords(coords) / 2
            if all(c.is_integer for c in expected.all_coeffs()):
                assert list(minimal_polynomial(halved).coeffs) == _ints(expected)
            else:
                with pytest.raises(DomainError, match="not an algebraic integer"):
                    minimal_polynomial(halved)
            checked += 1


class TestFieldInverse:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(random_fields(), st.lists(small_fractions, min_size=10, max_size=10))
    def test_matches_sympy_invert(self, field, coords):
        f = _sympy_poly(field.min_poly)
        lam = field.lam()
        for x in (lam, lam - 1, field.from_coords(coords[:field.degree])):
            if x.is_zero:
                continue
            want = sympy.invert(
                sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                            for c in reversed(x.coords)], T, domain="QQ"),
                f.set_domain("QQ"))
            got = [_fraction(c) for c in reversed(want.all_coeffs())]
            assert x.inverse().coords == tuple(
                got + [Fraction(0)] * (field.degree - len(got)))


class TestApprox:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(random_fields(), st.lists(small_fractions, min_size=10, max_size=10),
           st.integers(0, 16))
    def test_correctly_rounded_half_up(self, field, coords, digits):
        """approx is floor(v * 10**digits + 1/2), v taken exactly for a
        rational element and to 80 digits by mpmath otherwise."""
        mpmath = pytest.importorskip("mpmath")
        root = max(_sympy_poly(field.min_poly).real_roots())
        lam = field.lam()
        for x in (lam, lam - 1, field.from_coords(coords[:field.degree]),
                  field.from_rational(coords[0])):
            scaled = x.coords[0] * 10 ** digits + Fraction(1, 2)
            q = scaled.numerator // scaled.denominator
            if any(x.coords[1:]):
                with mpmath.workdps(80):
                    t = mpmath.mpf(str(sympy.N(root, 80)))
                    v = sum(mpmath.mpf(c.numerator) / c.denominator * t ** i
                            for i, c in enumerate(x.coords))
                    scaled = v * 10 ** digits + mpmath.mpf(1) / 2
                    # no value here lies this near a rounding boundary
                    assert abs(scaled - mpmath.nint(scaled)) > 10 ** -60
                    q = int(mpmath.floor(scaled))
            whole, frac = divmod(abs(q), 10 ** digits)
            want = "%s%d" % ("-" if q < 0 else "", whole)
            if digits:
                want += ".%0*d" % (digits, frac)
            assert x.approx(digits) == want
