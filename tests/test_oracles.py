"""The in-house polynomial algebra against sympy as an independent oracle.

sympy is a test-only dependency; the whole module is skipped without it.
"""

import random
from fractions import Fraction

import pytest

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
from test_intpoly import (golden_chain_charpolys, linear_products,
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
        # up to 12 modular factors; golden-chain coefficients reach 6540 bits
        for f in polys():
            assert _factors(factor_monic_squarefree(f)) == _sympy_factors(f)


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
            rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 6)) if rng.random() < 0.7
                     else Fraction(0) for _ in range(s)] for _ in range(s)]
            m = ExactMatrix.from_rows(rows)
            expected = sympy.Matrix([[_rational(x) for x in r] for r in rows])
            det = expected.det()
            assert m.det() == _fraction(det)
            if det == 0:
                singular += 1
                with pytest.raises(DomainError):
                    m.inverse()
                continue
            inv = expected.inv()
            assert m.inverse().to_rows() == [
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
            checked += 1
