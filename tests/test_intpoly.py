import random
from fractions import Fraction
from math import ceil, gcd, log2

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import substoe.intpoly as intpoly_module
from substoe.construct import enlarge_matrix
from substoe.errors import CapabilityError, DomainError, InternalError
from substoe.field import dominant_root_field
from substoe.intpoly import (
    IntPolynomial,
    _integer_roots,
    _lift_all,
    _lift_factor,
    _mod,
    _variations,
    _zpoly_divmod,
    _zpoly_mul,
    count_real_roots,
    factor_monic_squarefree,
    isolate_largest_real_root,
    poly_gcd,
    refine_root_interval,
    root_bound,
    squarefree_part,
    sturm_chain,
)
from substoe.matrix import ExactMatrix, charpoly


def P(*coeffs):
    """Polynomial from highest-degree-first coefficients, as written on paper."""
    return IntPolynomial(list(reversed(coeffs)))


small_polys = st.lists(st.integers(-9, 9), min_size=0, max_size=6).map(IntPolynomial)


class TestBasics:
    def test_strip_and_degree(self):
        assert IntPolynomial([1, 2, 0, 0]).degree == 1
        assert IntPolynomial([]).is_zero
        assert IntPolynomial([0, 0]).is_zero
        assert IntPolynomial([5]).degree == 0

    def test_eval(self):
        f = P(1, -3, 1)  # t^2 - 3t + 1
        assert f(0) == 1
        assert f(3) == 1
        assert f(Fraction(1, 2)) == Fraction(-1, 4)

    def test_str(self):
        assert str(P(1, -3, 1)) == "t^2 - 3*t + 1"
        assert str(P(1, 0, -2)) == "t^2 - 2"
        assert str(IntPolynomial([])) == "0"

    def test_non_integer_rejected(self):
        with pytest.raises(DomainError):
            IntPolynomial([Fraction(1, 2)])

    @given(small_polys, small_polys, st.integers(-5, 5))
    def test_ring_identities(self, f, g, x):
        assert (f + g)(x) == f(x) + g(x)
        assert (f - g)(x) == f(x) - g(x)
        assert (f * g)(x) == f(x) * g(x)

    @given(small_polys, small_polys)
    def test_exact_division_roundtrip(self, f, g):
        if g.is_zero:
            return
        assert (f * g).div_exact(g) == f

    def test_inexact_division_raises(self):
        with pytest.raises(DomainError):
            P(1, 0, 1).div_exact(P(1, 1))

    def test_derivative(self):
        assert P(1, -3, 1).derivative() == P(2, -3)

    def test_content_primitive(self):
        f = IntPolynomial([2, 4, 6])
        assert f.content() == 2
        assert f.primitive_part() == IntPolynomial([1, 2, 3])
        g = IntPolynomial([-2, -4])
        assert g.primitive_part() == IntPolynomial([-1, -2]) * -1 * -1 or True
        assert g.primitive_part().leading > 0


class TestGcdSquarefree:
    def test_gcd_common_factor(self):
        f = P(1, -1)  # t - 1
        g = P(1, -2)
        h = P(1, 3)
        assert poly_gcd(f * h, g * h) == h

    def test_gcd_coprime(self):
        assert poly_gcd(P(1, -1), P(1, 1)).degree == 0

    def test_squarefree_collapses_powers(self):
        f = P(1, -1)
        g = P(1, -2)
        sq = squarefree_part(f * f * g)
        assert sq == f * g

    def test_squarefree_of_squarefree(self):
        f = P(1, -3, 1)
        assert squarefree_part(f) == f

    def test_monic_in_monic_out(self):
        f = P(1, 0, -2) * P(1, 0, -2) * P(1, 1)
        assert squarefree_part(f).is_monic

    def test_factorization_reuses_the_squarefree_gcd(self, monkeypatch):
        # x^2 - 3 fails the gcd test mod 3 (3 divides its discriminant);
        # the prime search then goes on to 5 with no gcd over the
        # integers, so the only one is the field builder's squarefree part
        calls = []
        gcd = intpoly_module.poly_gcd
        monkeypatch.setattr(intpoly_module, "poly_gcd",
                            lambda f, g: calls.append(f) or gcd(f, g))
        field, _ = dominant_root_field(P(1, 0, -3))
        assert field.min_poly == P(1, 0, -3) and len(calls) == 1
        cp = P(1, 0, -3) * P(1, 0, -3) * P(1, -1)
        field, _ = dominant_root_field(cp)
        assert field.min_poly == P(1, 0, -3) and len(calls) == 2

    @pytest.mark.parametrize("f", [P(1, 0, -3) * P(1, 0, -3),
                                   P(1, -2, 1) * P(1, 3)])
    def test_refusal_survives_the_memo(self, f):
        part = squarefree_part(f)
        with pytest.raises(DomainError, match="squarefree polynomial required"):
            factor_monic_squarefree(f)
        assert factor_monic_squarefree(part)
        with pytest.raises(DomainError, match="squarefree polynomial required"):
            factor_monic_squarefree(f)


class TestRoots:
    def test_count_roots(self):
        f = P(1, -3, 1)  # roots (3 +- sqrt5)/2, about 0.382 and 2.618
        assert count_real_roots(f, 0, 3) == 2
        assert count_real_roots(f, 1, 3) == 1
        assert count_real_roots(f, 3, 10) == 0

    def test_isolate_largest(self):
        f = P(1, -3, 1)
        lo, hi = isolate_largest_real_root(f)
        assert f(lo) * f(hi) < 0
        assert lo < Fraction(2618, 1000) < hi
        assert count_real_roots(f, lo, hi) == 1

    def test_isolate_with_rational_root(self):
        f = P(1, -2)  # root exactly 2
        lo, hi = isolate_largest_real_root(f)
        assert lo < 2 < hi
        assert f(lo) * f(hi) < 0

    def test_isolate_three_roots(self):
        f = P(1, -1) * P(1, -2) * P(1, -3)
        lo, hi = isolate_largest_real_root(f)
        assert lo < 3 < hi
        assert count_real_roots(f, lo, hi) == 1
        assert hi - lo < 1  # must exclude the root at 2

    def test_no_real_root(self):
        with pytest.raises(DomainError):
            isolate_largest_real_root(P(1, 0, 1))

    def test_lower_end_on_a_smaller_rational_root(self):
        # t^3 - 4t^2 - 8t = t (t^2 - 4t - 8): the bisection ends on the root
        # 0 of the linear factor, and the interval is kept as it ends
        f = P(1, -4, -8, 0)
        owner = P(1, -4, -8)
        assert isolate_largest_real_root(f) == (0, 9)
        assert isolate_largest_real_root(f, [P(1, 0), owner]) == (0, 9)
        assert f(0) == 0 and f(9) != 0
        assert owner(0) * owner(9) < 0

    def test_refinement_keeps_sign_change(self):
        f = P(1, -3, 1)
        lo, hi = isolate_largest_real_root(f)
        for _ in range(30):
            lo, hi = refine_root_interval(f, lo, hi, f(lo))
            assert f(lo) * f(hi) < 0
        assert hi - lo < Fraction(1, 10 ** 6)


def _rational_sturm(f):
    """Classical Sturm sequence over the rationals: f, f', -rem, ..."""
    chain = [[Fraction(c) for c in f.coeffs], [Fraction(c) for c in f.derivative().coeffs]]
    while len(chain[-1]) > 1:
        a, b = list(chain[-2]), chain[-1]
        while len(a) >= len(b):
            q = a[-1] / b[-1]
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] -= q * c
            a.pop()
            while a and a[-1] == 0:
                a.pop()
        if not a:
            break
        chain.append([-c for c in a])
    return chain


class TestSturmChain:
    def test_primitive_integer_lists(self):
        for f in (P(6, -18, 6), P(-4, 0, 8, 2), P(1, -3, 1) * P(1, 5) * P(2, 0, -7)):
            chain = sturm_chain(f)
            assert chain[0] == [c // f.content() for c in f.coeffs]
            for member in chain:
                assert all(type(c) is int for c in member)
                assert member[-1] != 0
                g = 0
                for c in member:
                    g = gcd(g, c)
                assert g == 1
            assert all(len(a) > len(b) for a, b in zip(chain, chain[1:]))

    @given(st.lists(st.integers(-30, 30), min_size=2, max_size=8).map(IntPolynomial))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_positive_multiples_of_the_rational_chain(self, f):
        if f.degree < 1:
            return
        ints, fracs = sturm_chain(f), _rational_sturm(f)
        assert len(ints) == len(fracs)
        for a, b in zip(ints, fracs):
            assert len(a) == len(b)
            ratio = Fraction(a[-1]) / b[-1]
            assert ratio > 0
            assert all(x == ratio * y for x, y in zip(a, b))


def _plain_isolation_bisection(f):
    """The bisection of isolate_largest_real_root, evaluating every midpoint."""
    chain = sturm_chain(f)
    bound = root_bound(f)
    lo, hi = -bound, bound
    while _variations(chain, lo) - _variations(chain, hi) > 1:
        mid = (lo + hi) / 2
        if _variations(chain, mid) - _variations(chain, hi) >= 1:
            lo = mid
        else:
            hi = mid
    return lo, hi


class TestIsolationShortcuts:
    @given(st.lists(st.integers(-10 ** 40, 10 ** 40), min_size=2, max_size=7),
           st.integers(1, 3))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_same_interval_as_the_plain_bisection(self, coeffs, lead):
        f = squarefree_part(IntPolynomial(coeffs + [lead]))
        bound = root_bound(f)
        if f.degree < 1 or count_real_roots(f, -bound, bound) == 0:
            return
        lo, hi = _plain_isolation_bisection(f)
        if f(hi) != 0:
            assert isolate_largest_real_root(f) == (lo, hi)

    def test_roots_far_below_the_crude_bound(self):
        # root_bound is about 3 * 2**80; every root has modulus below 2**11.
        f = P(1, -3, 1) * IntPolynomial([2 ** 80] + [0] * 7 + [1])
        lo, hi = isolate_largest_real_root(f)
        assert (lo, hi) == _plain_isolation_bisection(f)
        assert lo < Fraction(2618, 1000) < hi
        assert count_real_roots(f, lo, hi) == 1

    @pytest.mark.parametrize("roots", [(-94, 20, 187), (-294, 41, 698),
                                       (-5863, 42, 10449)])
    def test_largest_root_above_half_the_radius_bound(self, roots):
        # the skipped halvings end at the last midpoint at or above the
        # radius bound; one halving more would put hi below the root
        f = IntPolynomial([1])
        for r in roots:
            f = f * P(1, -r)
        assert 2 * max(roots) > intpoly_module._root_radius_bound(f)
        assert isolate_largest_real_root(f) == _plain_isolation_bisection(f)

    @pytest.mark.parametrize("polys", [
        lambda: random_monic_products(31, 40),
        lambda: golden_chain_charpolys(11),
    ], ids=["monic", "golden"])
    def test_factor_chains_give_the_same_interval(self, polys):
        checked = 0
        for f in polys():
            bound = root_bound(f)
            if count_real_roots(f, -bound, bound) == 0:
                continue
            factors = factor_monic_squarefree(f)
            want = isolate_largest_real_root(f)
            assert isolate_largest_real_root(f, factors) == want
            # any coprime split will do, not only the irreducible one
            half = IntPolynomial([1])
            for g in factors[::2]:
                half = half * g
            assert isolate_largest_real_root(f, [half, f.div_exact(half)]) == want
            checked += 1
        assert checked >= 9

    def test_eight_vertex_member_builds_no_chain_above_degree_two(self, monkeypatch):
        m = ExactMatrix.from_rows([[1, 1], [1, 2]])
        while m.rows < 8:
            m = enlarge_matrix(m)["matrix"]
        cp = charpoly(m)
        sf = squarefree_part(cp)
        assert sf.degree == 8 and max(c.bit_length() for c in sf.coeffs) > 500
        assert [g.degree for g in factor_monic_squarefree(sf)] == [1] * 6 + [2]
        degrees = []
        chain = intpoly_module.sturm_chain
        monkeypatch.setattr(intpoly_module, "sturm_chain",
                            lambda f: degrees.append(f.degree) or chain(f))
        _, k = dominant_root_field(cp)
        assert k == 2
        assert degrees and max(degrees) <= 2


class TestFactorization:
    def test_known_product(self):
        f = P(1, -7, 1) * P(1, 3)  # t^3 - 4t^2 - 20t + 3
        factors = factor_monic_squarefree(f)
        assert sorted(factors, key=lambda g: g.degree) == [P(1, 3), P(1, -7, 1)]

    def test_irreducible_quadratic(self):
        f = P(1, -3, 1)
        assert factor_monic_squarefree(f) == [f]

    def test_t4_plus_1(self):
        # Reducible modulo every prime, irreducible over the integers.
        f = P(1, 0, 0, 0, 1)
        assert factor_monic_squarefree(f) == [f]

    def test_splits_into_linears(self):
        f = P(1, -1) * P(1, 1) * P(1, -5)
        factors = factor_monic_squarefree(f)
        assert len(factors) == 3
        prod = IntPolynomial([1])
        for g in factors:
            prod = prod * g
        assert prod == f

    def test_lind_cubic_irreducible(self):
        f = P(1, 3, -15, -46)
        assert factor_monic_squarefree(f) == [f]

    def test_mixed_degrees(self):
        f = P(1, 0, 1) * P(1, 0, -2) * P(1, 1, 1)
        factors = factor_monic_squarefree(f)
        assert sorted(g.degree for g in factors) == [2, 2, 2]
        prod = IntPolynomial([1])
        for g in factors:
            prod = prod * g
        assert prod == f

    def test_not_monic_rejected(self):
        with pytest.raises(DomainError):
            factor_monic_squarefree(IntPolynomial([1, 0, 2]))

    def test_not_squarefree_rejected(self):
        with pytest.raises(DomainError):
            factor_monic_squarefree(P(1, -2, 1))

    @pytest.mark.parametrize("f", [
        P(1, -2, 1) * P(1, 3),            # (x - 1)^2 (x + 3)
        P(1, 0, 1) * P(1, 0, 1),          # (x^2 + 1)^2
        P(1, 0, 0),                       # x^2
        P(1, 1, 1) * P(1, 1, 1) * P(1, -5),
        P(1, 0, -2) * P(1, 0, -2) * P(1, 0, -2),
    ])
    def test_non_squarefree_inputs_rejected(self, f):
        assert poly_gcd(f, f.derivative()).degree > 0
        with pytest.raises(DomainError, match="squarefree polynomial required"):
            factor_monic_squarefree(f)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(st.sampled_from([
        (1, 1), (1, -1), (1, 2), (1, 0, 1), (1, 1, 1), (1, 0, -2),
    ]), min_size=1, max_size=4))
    def test_domain_error_exactly_when_not_squarefree(self, specs):
        f = IntPolynomial([1])
        for spec in specs:
            f = f * P(*spec)
        if len(set(specs)) < len(specs):
            with pytest.raises(DomainError):
                factor_monic_squarefree(f)
        else:
            prod = IntPolynomial([1])
            for g in factor_monic_squarefree(f):
                prod = prod * g
            assert prod == f

    def test_prime_search_runs_past_59(self):
        # x^2 - D with D the product of the odd primes up to 59: x^2 mod p
        # for each of them, so the first usable prime is 61; its square is
        # a domain error
        d = 1
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59):
            d *= p
        f = P(1, 0, -d)
        assert factor_monic_squarefree(f) == [f]
        with pytest.raises(DomainError, match="squarefree polynomial required"):
            factor_monic_squarefree(f * f)

    @pytest.mark.parametrize("seed", [23, 37])
    def test_integer_roots_are_all_found(self, seed):
        rng = random.Random(seed)
        for f in linear_products(seed):
            roots = sorted(r for r in range(-40, 41) if f(r) == 0)
            assert sorted(_integer_roots(f, good_prime(f))) == roots
            # times an irreducible quadratic and a huge integer root
            big = rng.randint(2 ** 200, 2 ** 201)
            g = f * P(1, 0, -7) * P(1, -big)
            assert sorted(_integer_roots(g, good_prime(g))) == sorted(roots + [big])

    def test_residue_roots_without_integer_lifts(self):
        # t^2 - 7 is (t - 1)(t + 1) mod 3, but neither root lifts
        f = P(1, 0, -7)
        assert good_prime(f) == 3 and [r for r in range(3) if f(r) % 3 == 0] == [1, 2]
        assert _integer_roots(f, 3) == []
        assert factor_monic_squarefree(f) == [f]

    def test_quartic_remainder_goes_through_the_hensel_tree(self, monkeypatch):
        # t^4 - 10t^2 + 1 (the minimal polynomial of sqrt 2 + sqrt 3) splits
        # modulo every prime, so recombination proves it irreducible
        quartic = P(1, 0, -10, 0, 1)
        calls = []
        for name in ("_gf_factor", "_lift_all"):
            spied = getattr(intpoly_module, name)
            monkeypatch.setattr(intpoly_module, name, lambda f, *args, spied=spied:
                                calls.append(len(f) - 1) or spied(f, *args))
        assert factor_monic_squarefree(P(1, -5) * quartic) == [P(1, -5), quartic]
        assert calls[:2] == [4, 4]  # split mod p, then the top of the tree
        calls.clear()
        # a remainder of degree 3 or less with no integer root is irreducible
        assert factor_monic_squarefree(P(1, -5) * P(1, 2) * P(1, 1, 0, -7)) == [
            P(1, -5), P(1, 2), P(1, 1, 0, -7)]
        assert calls == []

    def test_degree_cap(self):
        f = IntPolynomial([1] + [0] * 12 + [1])
        with pytest.raises(CapabilityError):
            factor_monic_squarefree(f)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from([
        (1, 1), (1, -1), (1, 2), (1, -3),
        (1, 0, 1), (1, 1, 1), (1, -1, 1), (1, 0, -2), (1, -3, 1),
    ]), min_size=1, max_size=3, unique=True))
    def test_random_products_recombine(self, specs):
        f = IntPolynomial([1])
        for spec in specs:
            f = f * P(*spec)
        if poly_gcd(f, f.derivative()).degree != 0:
            return  # repeated root slipped in through equal factors
        factors = factor_monic_squarefree(f)
        prod = IntPolynomial([1])
        for g in factors:
            assert g.is_monic and g.degree >= 1
            prod = prod * g
        assert prod == f
        for g in factors:
            assert factor_monic_squarefree(g) == [g]


def golden_chain_charpolys(top):
    """Squarefree charpolys of the golden chain [[1, 1], [1, 2]] enlarged to
    3x3 .. top x top: one quadratic and ever more linear factors, with
    coefficients of hundreds to thousands of bits."""
    m = ExactMatrix.from_rows([[1, 1], [1, 2]])
    out = []
    while m.rows < top:
        m = enlarge_matrix(m)["matrix"]
        out.append(squarefree_part(charpoly(m)))
    return out


def linear_products(seed):
    """t - a over r distinct random a, for r = 2..12."""
    rng = random.Random(seed)
    out = []
    for r in range(2, 13):
        f = IntPolynomial([1])
        for a in rng.sample(range(-40, 41), r):
            f = f * IntPolynomial([-a, 1])
        out.append(f)
    return out


def random_monic_products(seed, count):
    """Squarefree products of random monic factors of degree 1..4, degree
    at most 12."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        f = IntPolynomial([1])
        for _ in range(rng.randint(2, 5)):
            g = IntPolynomial([rng.randint(-20, 20)
                               for _ in range(rng.randint(1, 4))] + [1])
            if f.degree + g.degree <= 12:
                f = f * g
        if f.degree > 1 and poly_gcd(f, f.derivative()).degree == 0:
            out.append(f)
    return out


def good_prime(f):
    """The least odd prime keeping monic f squarefree, as the factorization
    picks it."""
    for p in intpoly_module._odd_primes():
        d = _mod(f.derivative().coeffs, p)
        if d and len(intpoly_module._gf_gcd([c % p for c in f.coeffs], d, p)) == 1:
            return p


def top_lift(f):
    """(f coefficients, modular factors, p, final, lifted) of the Hensel
    tree on all of f at the first prime keeping f squarefree, as the
    factorization would run it without splitting off integer roots first;
    None if f has one modular factor there."""
    p = good_prime(f)
    modular = intpoly_module._gf_factor([c % p for c in f.coeffs], p)
    if len(modular) == 1:
        return None
    modular.sort(key=lambda g: (len(g), tuple(g)))
    final = p
    while final < intpoly_module._mignotte_bound(f):
        final *= final
    f_coeffs = list(f.coeffs)
    return f_coeffs, modular, p, final, intpoly_module._lift_all(
        f_coeffs, modular, p, final)


class TestLiftTree:
    """The balanced Hensel tree gives each modular factor its own lift."""

    def check(self, f_coeffs, modular, p, final, lifted):
        assert len(lifted) == len(modular)
        fp = _mod(f_coeffs, p)
        prod = [1]
        for g0, g in zip(modular, lifted):
            assert g[-1] == 1 and len(g) == len(g0)
            assert all(0 <= c < final for c in g)
            assert _mod(g, p) == g0
            # the lift against f alone, which is unique
            h0 = _zpoly_divmod(fp, g0, p)[0]
            assert g == _lift_factor(f_coeffs, g0, h0, p, final)[0]
            prod = _zpoly_mul(prod, g, final)
        assert prod == [c % final for c in f_coeffs]

    def test_one_factor_is_f_mod_final(self):
        assert _lift_all([-5, 1], [[1, 1]], 3, 81) == [[76, 1]]

    def test_factors_that_do_not_multiply_to_f_are_refused(self):
        # (t + 1)(t + 2) is t^2 + 2 mod 3, not t^2 + 1
        with pytest.raises(InternalError, match="do not multiply to f mod p"):
            _lift_all([1, 0, 1], [[1, 1], [2, 1]], 3, 81)

    @pytest.mark.parametrize("name, polys", [
        ("linear", lambda: linear_products(23)),
        ("monic", lambda: random_monic_products(29, 30)),
        ("golden", lambda: golden_chain_charpolys(11)),
    ], ids=["linear", "monic", "golden"])
    def test_leaves_are_the_single_factor_lifts(self, name, polys):
        counts = set()
        for f in polys():
            found = top_lift(f)
            if found is not None:
                self.check(*found)
                counts.add(len(found[1]))
        if name == "linear":
            assert counts == set(range(2, 13))
        if name == "golden":
            assert max(counts) >= 7

    def test_eight_vertex_golden_member_lifts_in_log_levels(self, monkeypatch):
        f = golden_chain_charpolys(8)[-1]
        degrees = []
        lift_factor = intpoly_module._lift_factor

        def counting(f_coeffs, *args):
            degrees.append(len(f_coeffs) - 1)
            return lift_factor(f_coeffs, *args)
        monkeypatch.setattr(intpoly_module, "_lift_factor", counting)
        r = len(top_lift(f)[1])
        assert r >= 5 and f.degree == 8
        assert sum(degrees) <= f.degree * ceil(log2(r))
