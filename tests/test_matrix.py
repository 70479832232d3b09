import time
from fractions import Fraction
from functools import reduce
from itertools import permutations
from operator import or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import substoe.matrix as matrix_module
from substoe.clopen import _lattice_coords
from substoe.errors import DimensionError, DomainError, RankError
from substoe.intpoly import IntPolynomial
from substoe.matrix import (
    ExactMatrix,
    _bareiss,
    charpoly,
    eventual_positivity_exponent,
    first_power,
    gauss_jordan,
    hnf_basis,
    kernel_basis,
    primitivity_exponent,
    wielandt_bound,
)


def naive_det(rows):
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        # count inversions
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if seen[i] > seen[j])
        sign = -1 if inv % 2 else 1
        prod = Fraction(1)
        for i in range(n):
            prod *= Fraction(rows[i][perm[i]])
        total += sign * prod
    return total


def _square(entries):
    return st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(entries, min_size=n, max_size=n),
            min_size=n, max_size=n,
        )
    )


small_square = _square(st.integers(-6, 6))
rational_square = _square(st.fractions(min_value=-4, max_value=4, max_denominator=6))


class TestArithmetic:
    def test_identity_multiplication(self):
        a = ExactMatrix.from_rows([[1, 2], [3, 4]])
        assert a * ExactMatrix.identity(2) == a
        assert ExactMatrix.identity(2) * a == a

    def test_power(self):
        a = ExactMatrix.from_rows([[1, 1], [1, 2]])
        assert a ** 0 == ExactMatrix.identity(2)
        assert a ** 3 == a * a * a

    def test_negative_power_refused(self):
        with pytest.raises(DomainError):
            ExactMatrix.from_rows([[1, 1], [1, 2]]) ** -2

    def test_apply(self):
        a = ExactMatrix.from_rows([[1, 1], [1, 2]])
        assert a.apply((1, 1)) == (2, 3)

    def test_inverse_roundtrip(self):
        a = ExactMatrix.from_rows([[1, 1, 1], [2, 3, 1], [8, 13, 0]])
        adj, d = a.inverse()
        assert d == abs(a.det()) == 3
        assert a * adj == adj * a == ExactMatrix.identity(3) * d

    def test_singular_inverse_raises(self):
        with pytest.raises(DomainError):
            ExactMatrix.from_rows([[1, 2], [2, 4]]).inverse()
        m = ExactMatrix.from_rows([[1, 3, 6], [3, 1, 0], [2, 6, 12]])
        assert m.det() == 0
        with pytest.raises(DomainError):
            m.inverse()
        with pytest.raises(DomainError):
            m.solve((1, 2, 3))

    def test_solve(self):
        a = ExactMatrix.from_rows([[2, 1], [1, 1]])
        x = a.solve((3, 2))
        assert a.apply(x) == (Fraction(3), Fraction(2))

    @given(small_square, st.data())
    @settings(max_examples=180, deadline=None, derandomize=True)
    def test_det_matches_cofactor_expansion(self, rows, data):
        m = ExactMatrix.from_rows(rows)
        n = m.rows
        assert m.det() == naive_det(rows)
        assert type(m.det()) is int
        b = data.draw(st.lists(st.fractions(min_value=-5, max_value=5,
                                            max_denominator=7),
                               min_size=n, max_size=n))
        if m.det() == 0:
            with pytest.raises(DomainError):
                m.inverse()
            with pytest.raises(DomainError):
                m.solve(b)
            return
        adj, d = m.inverse()
        assert d > 0
        assert m * adj == ExactMatrix.identity(n) * d
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        assert reference_solution([r + e for r, e in zip(rows, identity)],
                                  n) == (True, [[Fraction(x, d) for x in r]
                                                for r in adj.int_rows()])
        assert m.apply(m.solve(b)) == tuple(b)

    def test_solve_length_mismatch(self):
        with pytest.raises(DimensionError):
            ExactMatrix.identity(2).solve((1, 2, 3))

    def test_non_integer_entries_refused(self):
        for entry in (Fraction(1, 2), 0.5, 1.0, "1", None):
            with pytest.raises(DomainError,
                               match="matrix has non-integer entries"):
                ExactMatrix.from_rows([[entry]])
        m = ExactMatrix.from_rows([[Fraction(4, 2), -3]])
        assert m.entries == (2, -3)
        assert all(type(x) is int for x in m.entries)

    @given(rational_square)
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_rational_entries_refused_unless_integral(self, rows):
        if all(x.denominator == 1 for r in rows for x in r):
            m = ExactMatrix.from_rows(rows)
            assert all(type(x) is int for x in m.entries)
            assert m.int_rows() == rows
        else:
            with pytest.raises(DomainError):
                ExactMatrix.from_rows(rows)

    def test_transpose(self):
        m = ExactMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
        assert m.transpose() == ExactMatrix.from_rows([[1, 4], [2, 5], [3, 6]])


class TestCharpoly:
    def test_fibonacci_like(self):
        a = ExactMatrix.from_rows([[1, 1], [1, 2]])
        assert charpoly(a) == IntPolynomial([1, -3, 1])

    def test_three_by_three(self):
        a = ExactMatrix.from_rows([[1, 1, 1], [2, 3, 1], [8, 13, 0]])
        # (t^2 - 7t + 1)(t + 3)
        expected = IntPolynomial([1, -7, 1]) * IntPolynomial([3, 1])
        assert charpoly(a) == expected

    def test_companion(self):
        c = ExactMatrix.from_rows([[0, -1], [1, 3]])
        assert charpoly(c) == IntPolynomial([1, -3, 1])

    @given(small_square)
    @settings(max_examples=40, deadline=None)
    def test_constant_term_is_det(self, rows):
        m = ExactMatrix.from_rows(rows)
        p = charpoly(m)
        n = m.rows
        assert p.coeffs[0] == (-1) ** n * m.det()


@st.composite
def _supports(draw):
    """Square 0-2 matrices up to 9 x 9 of any density, half of them
    threaded by a cycle through every index so that long exponents come
    up."""
    n = draw(st.integers(1, 9))
    zeros = draw(st.integers(1, 3 * n))
    rows = draw(st.lists(st.lists(st.sampled_from([0] * zeros + [1, 2]),
                                  min_size=n, max_size=n),
                         min_size=n, max_size=n))
    if draw(st.booleans()):
        order = draw(st.permutations(range(n)))
        for a, b in zip(order, order[1:] + order[:1]):
            rows[a][b] = 1
    return rows


def _dense_side_exponent(rows):
    """The exponent by powers m**e m on row bitmasks: row i of the product
    is the OR of the base rows j over every set bit j of row i of m**e."""
    n = len(rows)
    full = (1 << n) - 1
    base = [sum(1 << j for j, x in enumerate(r) if x) for r in rows]
    cur = base
    for e in range(1, wielandt_bound(n) + 1):
        if all(r == full for r in cur):
            return e
        cur = [reduce(or_, (base[j] for j in range(n) if r >> j & 1), 0)
               for r in cur]
    return None


@st.composite
def _periodic_or_reducible(draw):
    """0/1 matrices up to 8 x 8 whose graph is periodic or reducible
    unless the random edges happen to undo it: edges either run from
    class c to class c + 1 mod p among p vertex classes (p = 1 allows
    every edge), or never run from the second of two blocks back into
    the first.  Edges are sparse, and half the time a cycle through
    every vertex keeps its allowed edges, so that exponents past n come
    up."""
    n = draw(st.integers(1, 8))
    order = draw(st.permutations(range(n)))
    if draw(st.booleans()):
        p = draw(st.integers(1, n))
        cls = {v: i % p for i, v in enumerate(order)}
        allowed = [[cls[v] == (cls[u] + 1) % p for v in range(n)]
                   for u in range(n)]
    else:
        cut = draw(st.integers(0, n))
        first = set(order[:cut])
        allowed = [[u in first or v not in first for v in range(n)]
                   for u in range(n)]
    sparse = draw(st.integers(1, 5))
    rows = [[int(ok and draw(st.integers(1, sparse)) == 1) for ok in row]
            for row in allowed]
    if draw(st.booleans()):
        for u, v in zip(order, order[1:] + order[:1]):
            rows[u][v] = int(allowed[u][v])
    return rows


def _refusal_seconds(rows):
    """Best of three times for primitivity_exponent to answer None."""
    a = ExactMatrix.from_rows(rows)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        assert primitivity_exponent(a) is None
        times.append(time.perf_counter() - start)
    return min(times)


class TestPrimitivity:
    def test_fibonacci_exponent(self):
        a = ExactMatrix.from_rows([[0, 1], [1, 1]])
        assert primitivity_exponent(a) == 2

    def test_positive_is_one(self):
        a = ExactMatrix.from_rows([[1, 1], [1, 2]])
        assert primitivity_exponent(a) == 1

    def test_permutation_not_primitive(self):
        a = ExactMatrix.from_rows([[0, 1], [1, 0]])
        assert primitivity_exponent(a) is None

    def test_reducible_not_primitive(self):
        a = ExactMatrix.from_rows([[1, 1], [0, 1]])
        assert primitivity_exponent(a) is None

    def test_wielandt_extremal(self):
        # the classical worst case hits the bound exactly
        n = 4
        rows = [[0] * n for _ in range(n)]
        for i in range(n - 1):
            rows[i][i + 1] = 1
        rows[n - 1][0] = 1
        rows[n - 1][1] = 1
        a = ExactMatrix.from_rows(rows)
        assert primitivity_exponent(a) == wielandt_bound(n)

    @pytest.mark.parametrize("n", [300, 1000])
    def test_ring_exponent_is_its_size(self, n):
        # incidence of x_i -> x_0 x_(i+1 mod n): the sparse rows drive the
        # scan, so n steps over n rows of two successors each stay fast
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][0] += 1
            rows[i][(i + 1) % n] += 1
        assert primitivity_exponent(ExactMatrix.from_rows(rows)) == n

    def test_wielandt_extremal_at_one_hundred(self):
        n = 100
        rows = [[0] * n for _ in range(n)]
        for i in range(n - 1):
            rows[i][i + 1] = 1
        rows[n - 1][0] = rows[n - 1][1] = 1
        a = ExactMatrix.from_rows(rows)
        assert primitivity_exponent(a) == wielandt_bound(n) == 9802

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_periodic_or_reducible())
    def test_refusal_matches_the_plain_scan(self, rows):
        # most of these are refused by the graph check past n powers
        assert (primitivity_exponent(ExactMatrix.from_rows(rows))
                == _dense_side_exponent(rows))

    def test_cyclic_permutation_is_refused_at_once(self):
        # the scan alone would run to the Wielandt bound, 89,402 powers
        n = 300
        rows = [[int(j == (i + 1) % n) for j in range(n)] for i in range(n)]
        assert _refusal_seconds(rows) < 0.05

    def test_period_two_graph_is_refused_at_once(self):
        # a 300-cycle with chords i -> i + 3 from the even vertices: every
        # cycle has even length
        n = 300
        rows = [[int(j == (i + 1) % n or (i % 2 == 0 and j == (i + 3) % n))
                 for j in range(n)] for i in range(n)]
        assert _refusal_seconds(rows) < 0.05

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_supports())
    def test_matches_the_dense_scan_and_exact_powers(self, rows):
        a = ExactMatrix.from_rows(rows)
        e = primitivity_exponent(a)
        assert e == _dense_side_exponent(rows)
        assert e == eventual_positivity_exponent(a, cap=wielandt_bound(a.rows))

    def test_eventual_positivity(self):
        c = ExactMatrix.from_rows([[0, 0, 46], [1, 0, 15], [0, 1, -3]])
        m = eventual_positivity_exponent(c, cap=64)
        assert m is not None and m <= 49
        assert (c ** m).is_positive
        assert not (c ** (m - 1)).is_positive


class TestFirstPower:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(_square(st.integers(-2, 3)), st.integers(-20, 60),
           st.integers(1, 8), st.sampled_from(["corner", "sum", "positive"]))
    def test_least_accepted_power(self, rows, threshold, cap, kind):
        tests = {
            "corner": lambda r: r[0][0] >= threshold,
            "sum": lambda r: sum(map(sum, r)) >= threshold,
            "positive": lambda r: all(x > 0 for row in r for x in row),
        }
        accept = tests[kind]
        m = ExactMatrix.from_rows(rows)
        expected = (None, (m ** cap).int_rows())
        for e in range(1, cap + 1):
            if accept((m ** e).int_rows()):
                expected = (e, (m ** e).int_rows())
                break
        assert first_power(m, accept, cap) == expected
        # start rows: the scan of start m**e runs from e = 0
        start = [row[::-1] for row in rows]
        s = ExactMatrix.from_rows(start)
        expected = (None, (s * m ** cap).int_rows())
        for e in range(cap + 1):
            if accept((s * m ** e).int_rows()):
                expected = (e, (s * m ** e).int_rows())
                break
        assert first_power(m, accept, cap, start) == expected

    def test_none_at_the_cap(self):
        m = ExactMatrix.from_rows([[2]])
        def accept(rows):
            return rows[0][0] >= 8
        assert first_power(m, accept, 3) == (3, [[8]])
        assert first_power(m, accept, 2) == (None, [[4]])
        assert first_power(m, accept, 2, [[3]]) == (2, [[12]])
        assert first_power(m, accept, 0, [[8]]) == (0, [[8]])
        assert first_power(m, accept, 0, [[1]]) == (None, [[1]])
        # no power is tried when the scan would start past its cap
        assert first_power(m, accept, 0) == (None, None)


class TestHNF:
    def test_standard_lattice(self):
        assert hnf_basis([(3, -1), (-2, 1)]) == ExactMatrix.identity(2)

    def test_lower_triangular_positive_pivots(self):
        h = hnf_basis([(6, 2), (2, 8)])
        n = h.rows
        for i in range(n):
            assert h.at(i, i) > 0
            for j in range(i + 1, n):
                assert h.at(i, j) == 0

    def test_rank_deficient_raises(self):
        with pytest.raises(RankError):
            hnf_basis([(1, 2), (2, 4)])

    def test_integer_vectors_build_no_fraction(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("hnf_basis built a Fraction")
        monkeypatch.setattr(matrix_module, "Fraction", refuse)
        assert hnf_basis([(6, 2), (2, 8)]) == \
            ExactMatrix.from_rows([[2, 0], [8, 22]])

    @given(st.lists(st.lists(st.integers(-5, 5), min_size=2, max_size=2),
                    min_size=2, max_size=4),
           st.integers(-3, 3), st.data())
    @settings(max_examples=100, deadline=None)
    def test_generating_set_invariance(self, vecs, mult, data):
        # the basis depends on the generated lattice, not the generator list
        vecs = [tuple(v) for v in vecs]
        try:
            h1 = hnf_basis(vecs)
        except RankError:
            return
        i = data.draw(st.integers(0, len(vecs) - 1))
        j = data.draw(st.integers(0, len(vecs) - 1))
        mixed = list(vecs)
        if i != j:
            mixed[i] = tuple(a + mult * b for a, b in zip(vecs[i], vecs[j]))
        mixed.reverse()
        mixed.append(tuple(-x for x in mixed[0]))
        assert hnf_basis(mixed) == h1

    def test_solve_inside(self):
        vecs = [(6, 2), (2, 8)]
        h = hnf_basis(vecs)
        cols = [h.column(j) for j in range(h.cols)]
        for v in vecs:
            assert _lattice_coords(cols, 1, list(v), 1) is not None

    def test_solve_outside(self):
        h = hnf_basis([(2, 0), (0, 2)])
        cols = [h.column(j) for j in range(h.cols)]
        assert _lattice_coords(cols, 1, [1, 0], 1) is None
        assert _lattice_coords(cols, 1, [1, 1], 1) is None


class TestGaussJordan:
    def test_reduced_echelon_form(self):
        rows = [[Fraction(x) for x in r]
                for r in ([0, 2, 4, 2], [1, 1, 1, 0], [2, 4, 6, 2])]
        assert gauss_jordan(rows, 3) == [0, 1]
        assert rows == [[1, 0, -1, -1], [0, 1, 2, 1], [0, 0, 0, 0]]

    def test_pivots_only_within_ncols(self):
        rows = [[Fraction(1), Fraction(2), Fraction(5)],
                [Fraction(2), Fraction(4), Fraction(7)]]
        assert gauss_jordan(rows, 2) == [0]
        assert rows[1] == [0, 0, -3]

    def test_int_rows_reduce_to_fractions(self):
        basis = kernel_basis(ExactMatrix.from_rows([[2, 1]]).int_rows(), 0, 1)
        assert basis == [[Fraction(-1, 2), 1]]
        assert type(basis[0][0]) is Fraction

    @given(st.lists(st.lists(st.fractions(min_value=-3, max_value=3,
                                          max_denominator=4),
                             min_size=4, max_size=4),
                    min_size=1, max_size=4))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_kernel_basis(self, rows):
        original = [list(r) for r in rows]
        basis = kernel_basis(rows, Fraction(0), Fraction(1))
        rank = len(gauss_jordan([list(r) for r in original], 4))
        assert len(basis) == 4 - rank
        for vec in basis:
            assert all(sum(a * x for a, x in zip(r, vec)) == 0 for r in original)
        if basis:
            assert len(gauss_jordan([list(v) for v in basis], 4)) == len(basis)


def reference_solution(rows, n):
    """(det != 0, solution rows) by Gauss-Jordan over Fraction."""
    reduced = [[Fraction(x) for x in r] for r in rows]
    if len(gauss_jordan(reduced, n)) < n:
        return False, None
    return True, [r[n:] for r in reduced]


def check_bareiss(rows, n):
    regular, want = reference_solution(rows, n)
    square = [r[:n] for r in rows]
    det = _bareiss(rows, n)
    assert det == naive_det(square)
    assert (det != 0) == regular
    if regular:
        assert [[Fraction(x, det) for x in r[n:]] for r in rows] == want


class TestBareiss:
    """The fraction-free kernel against Gauss-Jordan over Fraction."""

    @given(st.integers(1, 6), st.integers(0, 3), st.data())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_matches_gauss_jordan(self, n, extra, data):
        # sparse entries make zero pivots and singular systems common
        entry = st.one_of(st.just(0), st.integers(-40, 40))
        rows = data.draw(st.lists(st.lists(entry, min_size=n + extra,
                                           max_size=n + extra),
                                  min_size=n, max_size=n))
        check_bareiss(rows, n)

    def test_determinant_by_cofactors(self):
        for rows in ([[0, 2, 1], [3, 0, 1], [1, 1, 0]], [[2, -1], [4, 3]]):
            n = len(rows)
            assert _bareiss([list(r) for r in rows], n) == naive_det(rows)

    def test_zero_pivot_swaps_rows(self):
        rows = [[0, 1, 5], [1, 0, 7]]
        assert _bareiss(rows, 2) == -1
        assert [r[2] for r in rows] == [-7, -5]  # det * (7, 5)
        check_bareiss([[0, 0, 3, 1], [0, 2, 0, 1], [4, 0, 0, 1]], 3)

    def test_singular(self):
        for rows in ([[1, 2, 1], [2, 4, 1]], [[0, 0, 1], [0, 3, 1]],
                     [[1, 1, 1, 0], [1, 1, 1, 1], [2, 2, 3, 1]]):
            assert _bareiss([list(r) for r in rows], len(rows)) == 0
            check_bareiss([list(r) for r in rows], len(rows))

    def test_one_by_one(self):
        rows = [[-6, 4, 9]]
        assert _bareiss(rows, 1) == -6
        assert rows == [[-6, 4, 9]]
        assert _bareiss([[0, 5]], 1) == 0
        assert _bareiss([[7]], 1) == 7
        assert ExactMatrix.from_rows([[-3]]).solve([2]) == (Fraction(-2, 3),)
        with pytest.raises(DomainError):
            ExactMatrix.from_rows([[0]]).solve([1])
