"""Acceptance suite: one verdict line per numbered criterion.

Each test covers one criterion and prints "criterion NN ...: PASS" (or
FAIL) so a verbose run doubles as the acceptance report.  All numeric
checks are exact; no floating point tolerances appear anywhere.
"""

import random
from contextlib import contextmanager
from fractions import Fraction
from functools import reduce
from itertools import product
from math import gcd, lcm

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from substoe import (
    ExactMatrix,
    IntPolynomial,
    Substitution,
    build_soe_substitution,
    diagram_from_substitution,
    enlarge_matrix,
    enumerate_rational_y,
    groups_equal,
    hnf_basis,
    lattice_of,
    minimal_polynomial,
    minimize_vertices,
    perron_data,
    perron_minimal_polynomial,
    primitivity_exponent,
    s_membership,
    verify_lind_example,
)
from substoe.errors import RankError
from test_subst import fixed_point_seed

A0 = [[1, 1], [1, 2]]
A1 = [[1, 1, 1], [2, 3, 1], [8, 13, 0]]

SUITE = settings(max_examples=120, deadline=None, derandomize=True,
                 suppress_health_check=list(HealthCheck))


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print("criterion %02d %s: FAIL" % (num, label))
        raise
    print("criterion %02d %s: PASS" % (num, label))


def golden():
    return Substitution({"a": "ab", "b": "abb"})


def three_letter_rewrite():
    return Substitution({
        "a": "abbcccccccc",
        "b": "abbbccccccccccccc",
        "c": "ab",
    })


def contains(big, small):
    n, m = len(big), len(small)
    return any(big[i:i + m] == small for i in range(n - m + 1))


def test_criterion_01_golden_complexity_is_n_plus_one():
    with criterion(1, "golden complexity equals n + 1 up to 200"):
        profile = golden().complexity_profile(200)
        assert profile == tuple(n + 1 for n in range(1, 201))


def test_criterion_02_enlargement_reproduces_display():
    with criterion(2, "enlarging the 2x2 matrix gives the 3x3 at power 2"):
        report = enlarge_matrix(A0)
        assert report["matrix"].int_rows() == A1
        assert report["power"] == 2


def test_criterion_03_eigen_identity_certificate():
    with criterion(3, "3x3 matrix fixes the extended eigenvector at power 2"):
        pd = perron_data(ExactMatrix.from_rows(A0))
        lam = pd.field.lam()
        assert lam * lam == lam * 3 - 1
        y = (pd.eigvec[0], pd.eigvec[1], lam - 1)
        square = lam * lam
        for i in range(3):
            total = pd.field.zero()
            for j in range(3):
                total = total + y[j] * A1[i][j]
            assert total == square * y[i]


def test_criterion_04_clopen_groups_equal():
    with criterion(4, "value groups of the 2x2 and 3x3 matrices agree"):
        first = lattice_of(perron_data(ExactMatrix.from_rows(A0)))
        second = lattice_of(perron_data(ExactMatrix.from_rows(A1)))
        assert groups_equal(first, second, m=2)["status"] == "equal"


def test_criterion_05_rewrite_complexity_bound():
    with criterion(5, "three-letter rewrite has p(1) = 3 and p(n) >= 3n"):
        profile = three_letter_rewrite().complexity_profile(120)
        assert profile[0] == 3
        assert all(p >= 3 * n for n, p in enumerate(profile, start=1))


def test_criterion_06_cubic_positivity_threshold():
    with criterion(6, "cubic companion matrix is positive from power 49"):
        report = verify_lind_example()
        c = ExactMatrix.from_rows([[0, 0, 46], [1, 0, 15], [0, 1, -3]])
        assert report["polynomial"] == IntPolynomial((-46, -15, 3, 1))
        assert (c ** 49).is_positive
        # independent brute force for the minimal positive power
        m_star = next(m for m in range(1, 60) if (c ** m).is_positive)
        assert report["exponent"] == m_star
        assert report["witness_power"] == m_star - 1
        i, j, value = report["witness"]
        assert value <= 0
        assert (c ** (m_star - 1)).at(i, j) == value


def test_criterion_07_block_covering_rewrite():
    with criterion(7, "block-covering rewrite checks out for l in {1, 2}"):
        base = golden()
        a0 = ExactMatrix.from_rows(A0)
        s = len(base.alphabet)
        first = base.alphabet[0]
        for l in (1, 2):
            report = build_soe_substitution(base, l)
            zeta = report["substitution"]
            assert zeta.incidence_matrix() == a0 ** report["power"]
            for letter in base.alphabet:
                rule = zeta.rules[letter]
                assert rule.first == first
                assert rule.letter_at(1) == letter
                assert rule.last == first
            text = zeta.rules[first].expand()
            pieces = list(product(base.alphabet, repeat=l + 1))
            assert len(pieces) == s ** (l + 1)
            for piece in pieces:
                assert contains(text, piece)
            profile = zeta.complexity_profile(300)
            diffs = [b - a for a, b in zip(profile, profile[1:])]
            assert max(diffs) >= s ** l * (s - 1)


def test_criterion_08_vertex_minimization():
    with criterion(8, "minimization yields the 2x2 system and the odometer"):
        report = minimize_vertices(A1)
        small = report["matrix"]
        assert small.rows == 2 and small.cols == 2
        assert primitivity_exponent(small) is not None
        pd_in = perron_data(ExactMatrix.from_rows(A1))
        target = minimal_polynomial(pd_in.lam ** report["matrix_power"])
        field_out, degree = perron_minimal_polynomial(small)
        assert degree == 2
        assert field_out.min_poly == target
        assert report["groups"]["status"] == "equal"
        for row in report["rows"]:
            assert all(isinstance(x, int) and x >= 0 for x in row)
        whole = minimize_vertices([[1, 2], [2, 1]])
        assert whole["output_size"] == 1
        assert whole["matrix"].int_rows() == [[3]]


def test_criterion_09_language_oracle_equivalence():
    with criterion(9, "factor language matches a 10^4 fixed point prefix"):
        rng = random.Random(175)
        letters = ("a", "b", "c")
        while True:
            rules = {letter: "".join(rng.choice(letters)
                                     for _ in range(rng.randint(2, 4)))
                     for letter in letters}
            candidate = Substitution(rules)
            if candidate.is_primitive():
                break
        for sub in (golden(), three_letter_rewrite(), candidate):
            seed, p = fixed_point_seed(sub)
            prefix = sub.power(p).fixed_point_prefix(seed, 10 ** 4)
            for n in range(1, 31):
                sampled = {prefix[i:i + n]
                           for i in range(len(prefix) - n + 1)}
                assert sub.factor_language(n).words == sampled


def test_criterion_10_vershik_enumeration():
    with criterion(10, "successor map walks all 34 depth-4 paths once"):
        diagram = diagram_from_substitution(golden())
        assert diagram.path_counts(4)[-1] == (13, 21)
        path = diagram.minimal_path(4)
        seen = {path}
        while True:
            step = diagram.vershik_successor(path)
            if step is None:
                break
            assert step not in seen
            seen.add(step)
            path = step
        assert len(seen) == 34
        assert path == diagram.maximal_path(4)
        assert path.is_maximal()


def test_criterion_11_measure_normalization():
    with criterion(11, "path counts against weights sum to powers of lam"):
        diagrams = (diagram_from_substitution(golden()),
                    minimize_vertices(A1)["diagram"])
        for diagram in diagrams:
            field, weights, lam = diagram.measure_eigenvector()
            counts = diagram.path_counts(10)
            for n in range(1, 11):
                total = field.zero()
                for w, c in zip(weights, counts[n - 1]):
                    total = total + w * int(c)
                assert total == lam ** (n - 1)


def test_criterion_12_s_membership():
    with criterion(12, "3 - lam is a member at exponent 0, 1/2 is not"):
        lattice = lattice_of(perron_data(ExactMatrix.from_rows(A0)))
        member = lattice.field.from_coords([3, -1])
        assert s_membership(lattice, member) == {
            "status": "member", "exponent": 0}
        assert s_membership(lattice, Fraction(1, 2), cap=50) == {
            "status": "not-member-up-to", "cap": 50}


def test_criterion_13_rational_weight_enumeration():
    with criterion(13, "denominators 1, 2, 4 give 1, 1, 3 weight systems"):
        for q, expected in ((1, 1), (2, 1), (4, 3)):
            systems = enumerate_rational_y(q)
            assert len(systems) == expected
            for system in systems:
                weights = system["weights"]
                assert sum(weights) == 1
                assert system["base"] == Fraction(1, q)
                # spanning 1/q needs the parts to be jointly coprime
                assert reduce(gcd, system["partition"]) == 1
                assert all(w == part * system["base"] for w, part
                           in zip(weights, system["partition"]))


@st.composite
def primitive_substitutions(draw):
    size = draw(st.integers(2, 3))
    letters = "abc"[:size]
    rules = {}
    for i, letter in enumerate(letters):
        body = draw(st.text(alphabet=letters, min_size=1, max_size=3))
        follower = letters[(i + 1) % size]
        if follower not in body:
            body += follower
        if i == 0 and letter not in body:
            body += letter
        rules[letter] = body
    return Substitution(rules, alphabet=tuple(letters))


@st.composite
def generator_moves(draw):
    k = draw(st.integers(1, 3))
    m = draw(st.integers(k, k + 2))
    vectors = [[Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 3)))
                for _ in range(k)] for _ in range(m)]
    ops = draw(st.lists(
        st.tuples(st.integers(0, m - 1), st.integers(0, m - 1),
                  st.integers(-2, 2)),
        max_size=5))
    return vectors, ops


def cleared(vectors):
    """Fraction vectors as integer rows over the lcm of all denominators."""
    den = lcm(*(x.denominator for v in vectors for x in v))
    return [[x.numerator * (den // x.denominator) for x in v]
            for v in vectors], den


def test_criterion_14_hnf_unimodular_invariance():
    with criterion(14, "hnf basis survives unimodular generator moves"):
        runs = []

        @SUITE
        @given(generator_moves())
        def suite(instance):
            vectors, ops = instance
            rows, den = cleared(vectors)
            try:
                h = hnf_basis(rows)
            except RankError:
                return
            runs.append(1)
            moved = [list(v) for v in vectors]
            for i, j, c in ops:
                if i == j:
                    moved[i] = [-x for x in moved[i]]
                else:
                    moved[i] = [x + c * y
                                for x, y in zip(moved[i], moved[j])]
            rows2, den2 = cleared(moved)
            assert den2 == den
            assert hnf_basis(rows2) == h

        suite()
        assert len(runs) >= 100


def test_criterion_14_substitution_diagram_round_trip():
    with criterion(14, "diagram orders read back as the substitution"):
        runs = []

        @SUITE
        @given(primitive_substitutions())
        def suite(sub):
            runs.append(1)
            read = diagram_from_substitution(sub).substitution_read()
            assert read.alphabet == sub.alphabet
            assert read.rules == sub.rules

        suite()
        assert len(runs) >= 100


def test_criterion_14_telescope_composition():
    with criterion(14, "telescoping a then b equals telescoping a * b"):
        runs = []

        @SUITE
        @given(primitive_substitutions(), st.integers(1, 2),
               st.integers(1, 2), st.lists(st.integers(1, 3), min_size=3,
                                           max_size=3))
        def suite(sub, a, b, level0):
            runs.append(1)
            diagram = diagram_from_substitution(
                sub, level0=tuple(level0[:sub.size]))
            one = diagram.telescope(a).telescope(b)
            two = diagram.telescope(a * b)
            assert one.vertices == two.vertices
            assert one.incidence == two.incidence
            assert tuple(one.level0) == tuple(two.level0)
            assert one.orders == two.orders
            assert two.incidence == diagram.incidence ** (a * b)

        suite()
        assert len(runs) >= 100


def test_criterion_14_incidence_power_law():
    with criterion(14, "incidence of a power is the matrix power"):
        runs = []

        @SUITE
        @given(primitive_substitutions(), st.integers(2, 3))
        def suite(sub, p):
            runs.append(1)
            assert (sub.power(p).incidence_matrix()
                    == sub.incidence_matrix() ** p)

        suite()
        assert len(runs) >= 100
