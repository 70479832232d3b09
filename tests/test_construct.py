"""Tests for the rewriting builders.

The three-vertex pipeline values (moves, powers, rows, weights) were
worked out by hand with exact arithmetic and are frozen here as
regression oracles.
"""

import time
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from substoe import construct as construct_module
from substoe import perron as perron_module
from substoe import subst as subst_module
from substoe import words as words_module
from substoe.clopen import LatticeGroup, groups_equal, lattice_of
from substoe.construct import (
    Y_SYSTEM_CAP,
    _Cone,
    _lam_scan,
    _least_power_over,
    _partition_numbers,
    _partitions,
    build_oe_alphabet_family,
    coprime_partition_count,
    build_soe_substitution,
    enlarge_matrix,
    enumerate_rational_y,
    minimize_vertices,
    realize_group_matrix,
    verify_lind_example,
)
from substoe.errors import CapabilityError, DomainError, InternalError
from substoe.field import certified_sign, minimal_polynomial
from substoe.intpoly import IntPolynomial
from substoe.matrix import (ExactMatrix, first_power, gauss_jordan,
                            primitivity_exponent)
from substoe.perron import companion_matrix, perron_data
from substoe.subst import Substitution, linear_bound_estimate
from substoe.words import RunWord

A0 = [[1, 1], [1, 2]]
A1 = [[1, 1, 1], [2, 3, 1], [8, 13, 0]]


def golden():
    return Substitution({"a": "ab", "b": "abb"})


def wielandt(n):
    """The n x n matrix with the largest primitivity exponent, (n-1)^2+1."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        rows[i][i + 1] = 1
    rows[n - 1][0] = rows[n - 1][1] = 1
    return rows


def wielandt_substitution(n):
    """a1 -> a2 -> ... -> an -> a1 a2, whose incidence is wielandt(n)^T."""
    letters = "abcdefghijkl"[:n]
    rules = dict(zip(letters, letters[1:]))
    rules[letters[-1]] = letters[:2]
    return Substitution(rules)


class TestEnlarge:
    def test_golden_step(self):
        r = enlarge_matrix(A0)
        assert r["power"] == 2
        assert r["matrix"].int_rows() == A1
        assert r["groups"]["status"] == "equal"

    def test_three_vertex_step(self):
        r = enlarge_matrix(A1)
        assert r["power"] == 2
        assert r["matrix"].int_rows() == [
            [1, 1, 1, 1],
            [6, 8, 4, 1],
            [24, 31, 20, 1],
            [400, 601, 121, 0],
        ]

    def test_chain_composes(self):
        first = enlarge_matrix(A0)
        second = enlarge_matrix(first["matrix"])
        outer = groups_equal(
            lattice_of(perron_data(ExactMatrix.from_rows(A0))),
            lattice_of(perron_data(second["matrix"])),
            m=first["power"] * second["power"])
        assert outer["status"] == "equal"

    def test_rejects_reducible(self):
        with pytest.raises(DomainError):
            enlarge_matrix([[1, 0], [0, 1]])

    def test_rejects_eigenvalue_one(self):
        with pytest.raises(DomainError):
            enlarge_matrix([[1]])

    @pytest.mark.parametrize("n", [9, 10, 11, 12])
    def test_wielandt_enlarges_one_past_its_exponent(self, n):
        rows = wielandt(n)
        r = enlarge_matrix(rows)
        assert r["power"] == primitivity_exponent(
            ExactMatrix.from_rows(rows)) + 1
        assert r["matrix"].rows == n + 1
        assert r["groups"]["status"] == "equal"


class TestMinimize:
    def test_three_vertex_oracle(self):
        r = minimize_vertices(A1)
        assert r["input_size"] == 3 and r["output_size"] == 2
        assert r["moves"] == [("shear", 0, 1, -1)]
        assert r["basis_power"] == 2
        assert r["matrix_power"] == 1
        assert r["rows"] == [[1, 1], [1, 2], [3, 5]]
        assert r["level0"] == (5, 8)
        assert r["matrix"].int_rows() == [[2, 3], [3, 5]]
        assert r["groups"]["status"] == "equal"
        z1, z2 = r["weights"]
        assert z1.coords == (Fraction(55, 3), Fraction(-8, 3))
        assert z2.coords == (Fraction(-34, 3), Fraction(5, 3))

    def test_alpha_is_exact(self):
        r = minimize_vertices(A1)
        assert r["alpha"] == r["field"].from_coords([7, -1])

    def test_minimal_polynomial_matches_power(self):
        r = minimize_vertices(A1)
        mu = perron_data(ExactMatrix.from_rows(A1)).field.lam()
        want = minimal_polynomial(mu ** r["matrix_power"])
        assert perron_data(r["matrix"]).field.min_poly == want

    def test_output_substitution(self):
        r = minimize_vertices(A1)
        sub = r["substitution"]
        assert sub.alphabet == ("a", "b")
        assert sub.rules["a"].letter_counts() == {"a": 2, "b": 3}
        assert sub.rules["b"].letter_counts() == {"a": 3, "b": 5}
        assert r["properness"] == (1, "a", "b")
        assert sub.properness_witness() == (1, "a", "b")

    def test_output_diagram(self):
        r = minimize_vertices(A1)
        diagram = r["diagram"]
        assert diagram.level0 == (5, 8)
        assert diagram.incidence.int_rows() == [[2, 3], [3, 5]]
        _, measured, _ = diagram.measure_eigenvector()
        assert [m.coords for m in measured] == \
            [z.coords for z in r["weights"]]

    def test_fixed_point_of_pipeline(self):
        r = minimize_vertices(A0)
        assert r["moves"] == [("shear", 0, 1, -1)]
        assert r["basis_power"] == 1
        assert r["rows"] == [[1, 0], [0, 1]]
        assert r["matrix"].int_rows() == A0

    def test_swapped_vertices(self):
        r = minimize_vertices([[2, 1], [1, 1]])
        assert r["rows"] == [[0, 1], [1, 0]]
        assert r["matrix"].int_rows() == A0

    def test_integer_eigenvalue_odometer(self):
        r = minimize_vertices([[1, 2], [2, 1]])
        assert r["output_size"] == 1
        assert r["matrix"].int_rows() == [[3]]
        assert r["level0"] == (2,)
        assert r["basis_power"] == 0
        assert r["rows"] == [[1], [1]]
        assert r["weights"][0] == r["field"].from_rational(Fraction(1, 2))
        assert r["substitution"].rules["a"].letter_counts() == {"a": 3}

    def test_substitution_input(self):
        r = minimize_vertices(golden())
        assert r["matrix"].int_rows() == A0

    @pytest.mark.parametrize("matrix", [
        [[0, 1], [1, 1]],
        [[3, 2], [1, 1]],
        [[1, 2], [1, 1]],
        [[2, 1, 1], [1, 2, 1], [1, 1, 2]],
        [[1, 1, 0], [0, 1, 1], [1, 0, 1]],
        [[0, 1, 0], [0, 0, 1], [1, 1, 1]],
    ])
    def test_internal_certificates_on_varied_inputs(self, matrix):
        r = minimize_vertices(matrix)
        pd = perron_data(ExactMatrix.from_rows(matrix))
        assert r["output_size"] == pd.k
        assert r["groups"]["status"] == "equal"

    def test_rejects_reducible(self):
        with pytest.raises(DomainError):
            minimize_vertices([[1, 0], [0, 2]])


# a three-vertex input whose basis repair needs 18 dual Brun moves
BRUN_18 = [[0, 2, 3], [0, 3, 2], [3, 0, 3]]


def hnf_start(pd):
    """The lattice basis _minimize_core starts from, as Fraction columns."""
    lattice = lattice_of(pd)
    k = pd.field.degree
    return [[Fraction(lattice.basis.at(i, j), lattice.den) for i in range(k)]
            for j in range(k)]


@st.composite
def primitive_matrices(draw):
    n = draw(st.integers(3, 5))
    rows = draw(st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n),
                         min_size=n, max_size=n))
    assume(primitivity_exponent(ExactMatrix.from_rows(rows)) is not None)
    return rows


class TestBrunRepair:
    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(primitive_matrices())
    def test_random_primitive_inputs_minimize(self, rows):
        r = minimize_vertices(rows)
        assert r["output_size"] == perron_data(ExactMatrix.from_rows(rows)).k
        assert r["groups"]["status"] == "equal"

    def test_long_repair(self):
        r = minimize_vertices(BRUN_18)
        assert len(r["moves"]) == 18
        assert {m[0] for m in r["moves"]} == {"shear"}
        assert {m[3] for m in r["moves"]} == {-1}
        assert r["output_size"] == 3
        assert r["groups"]["status"] == "equal"

    def test_move_cap_is_the_budget(self):
        with pytest.raises(CapabilityError,
                           match="^basis adjustment did not stabilize within "
                                 "17 moves: 1 of 3 eigendirection "
                                 "coefficients still not positive$"):
            minimize_vertices(BRUN_18, cap=17)
        assert len(minimize_vertices(BRUN_18, cap=18)["moves"]) == 18

    @pytest.mark.parametrize("matrix", [A1, BRUN_18, [[2, 2, 2], [3, 2, 1],
                                                      [3, 2, 2]]])
    def test_moves_replay_to_the_final_basis(self, matrix):
        r = minimize_vertices(matrix)
        pd = perron_data(ExactMatrix.from_rows(matrix))
        field = pd.field
        assert all(m[0] == "shear" for m in r["moves"])
        basis = replayed_basis(pd, r["moves"])
        # the output weights are the final basis values over lam**n
        scale = field.lam() ** r["basis_power"]
        assert [field.from_coords(vec) for vec in basis] == \
            [z * scale for z in r["weights"]]


def replayed_basis(pd, moves):
    """The repaired basis F as Fraction columns: the lattice's triangular
    basis with each value made positive, then the shears replayed."""
    basis = hnf_start(pd)
    for j, vec in enumerate(basis):
        if certified_sign(pd.field.from_coords(vec)) < 0:
            basis[j] = [-x for x in vec]
    for _, src, dst, m in moves:
        basis[dst] = [x + m * y for x, y in zip(basis[dst], basis[src])]
    return basis


def fraction_inverse(cols):
    """F^-1 as Fraction rows, F given by its columns: Gauss-Jordan on
    [F | I]."""
    k = len(cols)
    rows = [[Fraction(col[i]) for col in cols] + [Fraction(int(i == j))
                                                  for j in range(k)]
            for i in range(k)]
    assert gauss_jordan(rows, k) == list(range(k))
    return [row[k:] for row in rows]


def apply_rows(rows, vec):
    return [sum(a * x for a, x in zip(row, vec)) for row in rows]


def fraction_power_search(field, inv, start_vecs, accept, start, cap):
    """The scan of F^-1 C^t over Fractions, one matrix product a step."""
    c_mat = companion_matrix(field)
    vecs = [list(v) for v in start_vecs]
    for _ in range(start):
        vecs = [list(c_mat.apply(v)) for v in vecs]
    for t in range(start, cap + 1):
        cols = []
        for v in vecs:
            col = apply_rows(inv, v)
            if any(Fraction(x).denominator != 1 for x in col):
                raise InternalError("lattice coordinates left the lattice")
            cols.append([int(x) for x in col])
        if accept(cols):
            return t, cols
        vecs = [list(c_mat.apply(v)) for v in vecs]
    raise CapabilityError("no usable power below %d" % cap)


def identity_rows(k):
    return [[int(i == j) for j in range(k)] for i in range(k)]


def rows_ok(rows):
    """Nonnegative with no zero column: the minimizer's path-row test
    checks only the first, as the rows' rank k implies the second."""
    return (all(x >= 0 for row in rows for x in row)
            and all(any(row[j] > 0 for row in rows)
                    for j in range(len(rows[0]))))


def all_positive(rows):
    return all(x >= 1 for row in rows for x in row)


class TestPowerSearch:
    def cone(self, matrix):
        """The repaired cone on the eigenvector, with F replayed from its
        moves and F^-1 over Fractions."""
        pd = perron_data(ExactMatrix.from_rows(matrix))
        cone = _Cone(lattice_of(pd), pd.eigvec)
        basis = replayed_basis(pd, cone.fix(200))
        return pd, cone, basis, fraction_inverse(basis)

    @pytest.mark.parametrize("matrix", [A0, A1, BRUN_18,
                                        [[1, 1, 0], [0, 1, 1], [1, 0, 1]]])
    @pytest.mark.parametrize("start", [0, 1])
    def test_integer_scan_matches_fraction_scan(self, matrix, start):
        pd, cone, basis, inv = self.cone(matrix)
        eig = [x.coords for x in pd.eigvec]
        action = ExactMatrix.from_rows(cone.m)
        # from power 1 the scan runs on the basis itself, from power 0 on
        # start rows: the basis's own (identity) or the eigenvector's
        cases = ([(basis, None)] if start else
                 [(basis, identity_rows(pd.k)), (eig, cone.starts)])
        for (vecs, rows), accept in product(cases, [
                all_positive, rows_ok,
                lambda rows: all(x >= 0 for row in rows for x in row)]):
            got = _lam_scan(action, rows, accept, 200, "x")
            assert got == fraction_power_search(pd.field, inv, vecs, accept,
                                                start, 200)

    def test_cap_and_lattice_exit(self):
        pd, cone, basis, inv = self.cone(A1)
        action = ExactMatrix.from_rows(cone.m)
        with pytest.raises(CapabilityError, match="up to 0 for x"):
            _lam_scan(action, identity_rows(3), lambda rows: False, 0, "x")
        with pytest.raises(CapabilityError,
                           match="^no usable power of the eigenvalue up to 20 "
                                 "for x; the largest lattice coordinate at "
                                 "power 20 has 56 bits$"):
            _lam_scan(action, identity_rows(3), lambda rows: False, 20, "x")
        # no power is tried when the scan would start past its cap
        with pytest.raises(CapabilityError,
                           match="^no usable power of the eigenvalue up to 0 "
                                 "for x$"):
            _lam_scan(action, None, lambda rows: False, 0, "x")
        outside = [[x / 7 for x in basis[0]]]
        with pytest.raises(InternalError,
                           match="^start vector lies outside the lattice$"):
            _Cone(lattice_of(pd), [pd.field.from_coords(outside[0])])
        with pytest.raises(InternalError, match="left the lattice"):
            fraction_power_search(pd.field, inv, outside, lambda cols: True,
                                  0, 5)

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(primitive_matrices())
    def test_carried_action_is_the_conjugated_companion(self, matrix):
        pd, cone, basis, inv = self.cone(matrix)
        c_basis = [companion_matrix(pd.field).apply(col) for col in basis]
        assert [apply_rows(inv, col) for col in c_basis] == cone.m
        assert [apply_rows(inv, x.coords) for x in pd.eigvec] == cone.starts

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(primitive_matrices())
    def test_minimizer_matches_fraction_scans(self, matrix):
        r = minimize_vertices(matrix)
        pd, cone, basis, inv = self.cone(matrix)
        eig = [x.coords for x in pd.eigvec]
        assert fraction_power_search(pd.field, inv, eig, rows_ok, 0, 200) \
            == (r["basis_power"], r["rows"])
        assert fraction_power_search(pd.field, inv, basis, all_positive, 1,
                                     200) \
            == (r["matrix_power"], r["matrix"].int_rows())


@st.composite
def powering_matrices(draw):
    """Primitive 1..6 matrices with Perron root above 1, and targets."""
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n),
                         min_size=n, max_size=n))
    assume(primitivity_exponent(ExactMatrix.from_rows(rows)) is not None)
    assume(n > 1 or rows[0][0] > 1)
    targets = draw(st.lists(
        st.lists(st.integers(0, 1000), min_size=n, max_size=n),
        min_size=n, max_size=n))
    return rows, targets


class TestLeastPowerOver:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(powering_matrices())
    def test_matches_brute_force_within_bound(self, case):
        rows, targets = case
        a = ExactMatrix.from_rows(rows)
        e = primitivity_exponent(a)
        got = _least_power_over(a, targets)
        assert got == first_power(
            a, lambda p: all(x >= t for row, target in zip(p, targets)
                             for x, t in zip(row, target)), 10 ** 4)
        top = max(max(target) for target in targets)
        assert got[0] <= e * (1 + (top - 1).bit_length())
        colsums = [sum(col) for col in zip(*rows)]
        assert _least_power_over(a, [colsums] * len(rows))[0] <= e + 1


class TestRealize:
    def test_golden_half_integer_weights(self):
        r = realize_group_matrix(
            A0, [[Fraction(-1), Fraction(1, 2)],
                 [Fraction(2), Fraction(-1, 2)]])
        assert r["closure_power"] == 3
        assert r["basis_power"] == 1
        assert r["rows"] == [[0, 1], [2, 1]]
        assert r["level0"] == (2, 2)
        assert r["matrix"].int_rows() == A0
        assert r["alpha"] == r["field"].from_rational(Fraction(1, 2))
        assert r["groups"]["status"] == "equal"

    def test_eigenvector_weights_close_immediately(self):
        r = realize_group_matrix(A0, [[3, -1], [-2, 1]])
        assert r["closure_power"] == 1
        assert r["rows"] == [[1, 0], [0, 1]]
        assert r["matrix"].int_rows() == A0

    def test_saturation_divides_by_lam(self):
        # lam**2 - 2 lam - 5 = 0 is no unit: L + lam**-1 L, the lattice the
        # weights saturate to, differs from L + lam L, which has the same group
        r = realize_group_matrix(
            [[1, 2], [3, 1]], [[Fraction(-1), Fraction(1, 2)],
                               [Fraction(2), Fraction(-1, 2)]])
        assert r["closure_power"] == 2
        field = r["field"]
        xs = [field.from_coords(w) for w in ([-1, Fraction(1, 2)],
                                             [2, Fraction(-1, 2)])]
        lam = field.lam()
        shift = lam ** r["basis_power"]
        built = LatticeGroup(field, [z * shift for z in r["weights"]])
        for side, layer in ((1, lam.inverse()), (-1, lam)):
            want = LatticeGroup(field, xs + [x * layer for x in xs])
            same = (built.basis, built.den) == (want.basis, want.den)
            assert same == (side == 1)

    def test_closure_cap(self, monkeypatch):
        # these weights close at power 3 (test_golden_half_integer_weights)
        monkeypatch.setattr(construct_module, "CLOSURE_CAP", 2)
        with pytest.raises(CapabilityError,
                           match=r"^no eigenvalue power up to 2 maps the "
                                 r"weight lattice L into itself: 1 of 2 basis "
                                 r"images of lam\*\*2 L lie outside L$"):
            realize_group_matrix(
                A0, [[Fraction(-1), Fraction(1, 2)],
                     [Fraction(2), Fraction(-1, 2)]])

    def test_rejects_nonpositive_weight(self):
        # second entry is 2 - lam < 0 for lam = (3 + sqrt 5)/2
        with pytest.raises(DomainError):
            realize_group_matrix(A0, [[-1, 1], [2, -1]])

    def test_rejects_wrong_sum(self):
        with pytest.raises(DomainError):
            realize_group_matrix(A0, [[1, 0], [1, 0]])

    def test_rejects_dependent_weights(self):
        with pytest.raises(DomainError):
            realize_group_matrix(
                A0, [[Fraction(1, 2), 0], [Fraction(1, 2), 0]])


class TestBlockCovering:
    def test_golden_block_one_layout(self):
        r = build_soe_substitution(golden(), 1)
        assert r["power"] == 4
        zeta = r["substitution"]
        assert zeta.incidence_matrix().int_rows() == [[13, 21], [21, 34]]
        want_a = "aa" + "aaabbabb" + "a" * 6 + "b" * 17 + "a"
        want_b = "ab" + "a" * 19 + "b" * 33 + "a"
        assert "".join(zeta.rules["a"].expand()) == want_a
        assert "".join(zeta.rules["b"].expand()) == want_b
        assert r["full_count"] == 4
        assert r["input_count"] == 3
        assert r["separated"] is True
        assert r["properness"] == (1, "a", "a")
        assert r["groups"]["status"] == "equal"

    def test_golden_block_two(self):
        r = build_soe_substitution(golden(), 2)
        assert r["power"] == 5
        assert r["substitution"].incidence_matrix().int_rows() == \
            [[34, 55], [55, 89]]
        assert r["full_count"] == 8
        assert r["input_count"] == 4
        assert r["pieces_checked"] is True

    def test_prefix_and_suffix_frame(self):
        r = build_soe_substitution(golden(), 1)
        zeta = r["substitution"]
        for j, letter in enumerate(zeta.alphabet):
            word = zeta.rules[letter]
            assert word.letter_at(0) == "a"
            assert word.letter_at(1) == letter
            assert word.last == "a"

    def test_profile_gains_a_large_jump(self):
        r = build_soe_substitution(golden(), 1)
        profile = r["substitution"].complexity_profile(40)
        diffs = [b - a for a, b in zip(profile, profile[1:])]
        assert max(diffs) >= 2

    def test_rejects_zero_block(self):
        with pytest.raises(DomainError):
            build_soe_substitution(golden(), 0)

    @pytest.mark.parametrize("l", [1.9, "2", True, -1])
    def test_rejects_a_block_length_that_is_not_a_positive_int(self, l):
        with pytest.raises(DomainError,
                           match="block length must be a positive integer"):
            build_soe_substitution(golden(), l)

    def test_each_member_profile_serves_the_next_slope_bound(self,
                                                            monkeypatch):
        calls = []
        profile = Substitution.complexity_profile
        monkeypatch.setattr(
            Substitution, "complexity_profile",
            lambda s, n: calls.append((s.size, n)) or profile(s, n))
        members = build_oe_alphabet_family(golden(), steps=2)
        assert calls == [(2, 40), (4, 60), (10, 60)]
        assert [m["slope_bound"] for m in members] == [2, 8]

    def test_rejects_reducible(self):
        split = Substitution({"a": "a", "b": "b"})
        with pytest.raises(DomainError):
            build_soe_substitution(split, 1)

    def test_rejects_eigenvalue_one_before_scanning(self):
        with pytest.raises(DomainError, match="does not exceed 1"):
            build_soe_substitution(Substitution({"a": "a"}), 1)

    # Fibonacci's block has 17 * 2**17 letters at l = 16, and no 2**(l + 1)
    # is formed at 10**9; a -> aa has one word per length, l + 1 letters
    @pytest.mark.parametrize("rules, l", [
        ({"a": "ab", "b": "a"}, 16),
        ({"a": "ab", "b": "a"}, 10 ** 9),
        ({"a": "aa"}, 2_000_000),
    ])
    def test_block_over_the_guard_refused_before_it_is_built(self, rules, l):
        with pytest.raises(CapabilityError,
                           match="^block length %d needs a word block of "
                                 "over 2000000 letters, the expansion "
                                 "budget$" % l):
            build_soe_substitution(Substitution(rules), l)

    def test_cut_block_over_the_cap_refused_before_it_is_built(self):
        # 16 * 2**16 letters; 15 runs of 31 letters are cut to 16
        start = time.perf_counter()
        with pytest.raises(CapabilityError,
                           match="^block length 15 needs a word block of "
                                 "1048561 letters with runs cut to 16, over "
                                 "the expansion cap of 1000000$"):
            build_soe_substitution(Substitution({"a": "ab", "b": "a"}), 15)
        assert time.perf_counter() - start < 0.1

    # the last input's rewrite has a 3-letter rule, under l + 1 = 4
    @pytest.mark.parametrize("rules, l", [
        ({"a": "ab", "b": "a"}, 3),
        ({"a": "ab", "b": "abb"}, 2),
        ({"a": "aa"}, 5),
        ({"a": "abc", "b": "acd", "c": "ad", "d": "a"}, 1),
        ({"a": "b" * 50 + "a" * 100, "b": "aab"}, 3),
    ])
    def test_cut_block_refusal_agrees_with_the_language_check(
            self, monkeypatch, rules, l):
        """Refused on either side of the cap exactly when the output's
        clamped first image passes it, as before the up-front check."""
        subst = Substitution(rules)
        report = build_soe_substitution(subst, l)
        zeta = report["substitution"]
        images, _, enc = zeta._window_texts(l + 1)
        image = len(images[enc[zeta.alphabet[0]]])
        block = RunWord.from_letters(
            "".join(map("".join, product(subst.alphabet, repeat=l + 1))))
        cut = sum(min(c, l + 1) for _, c in block.runs)
        one_step = min(rule.length for rule in zeta.rules.values()) > l
        assert image >= cut or not one_step
        late = "clamped image has %d letters" % image
        refusals = [(cut - 1, "word block of %d letters" % cut
                     if one_step else late)]
        if image > cut:
            refusals.append((image - 1, late))

        def cap_at(cap):
            for module in (construct_module, subst_module, words_module):
                monkeypatch.setattr(module, "EXPAND_CAP", cap)

        for cap, text in refusals:
            cap_at(cap)
            with pytest.raises(CapabilityError, match=text):
                build_soe_substitution(subst, l)
        cap_at(image)
        again = build_soe_substitution(subst, l)
        assert again["substitution"].rules == zeta.rules
        for key in ("power", "full_count", "input_count", "properness"):
            assert again[key] == report[key]

    @pytest.mark.parametrize("n, power", [(8, 73), (10, 111)])
    def test_wielandt_substitution(self, n, power):
        r = build_soe_substitution(wielandt_substitution(n), 1)
        assert r["power"] == power
        assert r["full_count"] == n ** 2
        assert r["groups"]["status"] == "equal"


class TestAlphabetFamily:
    def test_golden_member(self):
        member = build_oe_alphabet_family(golden(), steps=1)[0]
        assert member["alphabet_size"] == 4
        assert member["slope_bound"] == 2
        assert member["matrix_power"] == 8
        assert member["properness"] == (1, "a", "a")
        assert member["groups"]["status"] == "equal"
        zeta = member["substitution"]
        assert zeta.complexity(1) == 4
        assert zeta.complexity(2) > 6

    def test_member_frame(self):
        zeta = build_oe_alphabet_family(golden(), steps=1)[0]["substitution"]
        for letter in zeta.alphabet:
            word = zeta.rules[letter]
            assert word.letter_at(0) == "a"
            assert word.letter_at(1) == letter
            assert word.last == "a"

    def test_next_iteration_pieces(self):
        # a full second member squares matrix entries at every
        # enlargement, so only its ingredients are exercised here
        member = build_oe_alphabet_family(golden(), steps=1)[0]
        zeta = member["substitution"]
        bound = max(linear_bound_estimate(zeta, 5), zeta.size)
        assert bound > member["slope_bound"]
        grown = enlarge_matrix(zeta.incidence_matrix())
        assert grown["matrix"].rows == 5
        assert grown["groups"]["status"] == "equal"

    def test_rejects_reducible(self):
        split = Substitution({"a": "a", "b": "b"})
        with pytest.raises(DomainError):
            build_oe_alphabet_family(split, steps=1)

    @pytest.mark.parametrize("steps", [1.5, "1", True, 0, -3])
    def test_rejects_steps_that_are_not_a_positive_int(self, steps):
        with pytest.raises(DomainError,
                           match="steps must be a positive integer"):
            build_oe_alphabet_family(golden(), steps=steps)

    @pytest.mark.parametrize("rules, steps, want", [
        # each first exponent is past 64, so a scan capped there misses it
        ({"a": "ab", "b": "ba"}, 2, [(6, 32, 15), (14, 512, 255)]),
        ({"a": "ca", "b": "a", "c": "dad", "d": "aaab"}, 1, [(9, 160, 76)]),
        ({"a": "cd", "b": "aa", "c": "abcc", "d": "dbaa"}, 1,
         [(11, 384, 190)]),
    ])
    def test_late_absorbing_members(self, rules, steps, want):
        members = build_oe_alphabet_family(Substitution(rules), steps=steps)
        assert [(m["alphabet_size"], m["matrix_power"]) for m in members] == \
            [(size, power) for size, power, _ in want]
        for member, (_, _, first) in zip(members, want):
            assert member["groups"] == {"status": "equal",
                                        "first_absorbs_at": first,
                                        "second_absorbs_at": 0}


class TestRationalWeights:
    def test_counts(self):
        for q, count in ((1, 1), (2, 1), (4, 3), (6, 7)):
            assert len(enumerate_rational_y(q)["partitions"]) == count

    def test_denominator_four(self):
        assert enumerate_rational_y(4) == {
            "level0": 4, "matrix": ((4,),), "base": Fraction(1, 4),
            "weights": (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4),
                        Fraction(1)),
            "partitions": [(3, 1), (2, 1, 1), (1, 1, 1, 1)]}

    def test_exact_regeneration(self):
        for q in (1, 2, 3, 4, 5, 6):
            report = enumerate_rational_y(q)
            assert report["level0"] == q
            assert report["matrix"] == ((q,),)
            assert report["level0"] * report["base"] == 1
            for parts in report["partitions"]:
                weights = [report["weights"][c - 1] for c in parts]
                assert sum(weights) == 1
                for row, weight in zip(parts, weights):
                    assert row * report["base"] == weight

    def test_partitions_are_coprime_and_sorted(self):
        for parts in enumerate_rational_y(6)["partitions"]:
            assert sum(parts) == 6
            assert sorted(parts, reverse=True) == list(parts)
            assert gcd(*parts) == 1

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            enumerate_rational_y(0)

    @pytest.mark.parametrize("q", [2.7, True, "4", -3])
    def test_rejects_a_denominator_that_is_not_a_positive_int(self, q):
        with pytest.raises(DomainError,
                           match="denominator must be a positive integer"):
            enumerate_rational_y(q)

    @pytest.mark.parametrize("q", range(1, 33))
    def test_matches_the_per_part_construction(self, q):
        # the partitions from the recursion, the weights one Fraction each
        report = enumerate_rational_y(q)
        assert report["partitions"] == [
            parts for parts in descending_partitions(q, q)
            if gcd(*parts) == 1]
        assert report["weights"] == tuple(
            Fraction(c, q) for c in range(1, q + 1))
        assert (report["level0"], report["matrix"], report["base"]) == (
            q, ((q,),), Fraction(1, q))

    def test_partitions_in_the_recursive_order(self):
        numbers = _partition_numbers(40)
        for q in range(1, 41):
            got = list(_partitions(q))
            assert got == list(descending_partitions(q, q)), q
            assert len(got) == numbers[q], q

    def test_count_formula(self):
        for q in range(1, 41):
            brute = sum(1 for parts in descending_partitions(q, q)
                        if gcd(*parts) == 1)
            assert coprime_partition_count(q) == brute, q

    def test_cap_admits_q_up_to_32(self):
        assert coprime_partition_count(32) == 8118 <= Y_SYSTEM_CAP
        assert len(enumerate_rational_y(32)["partitions"]) == 8118

    @pytest.mark.parametrize("q, count", [(33, 10085), (60, 960215)])
    def test_over_the_cap_refused_with_the_count(self, q, count):
        with pytest.raises(CapabilityError,
                           match="denominator %d has %d coprime partitions, "
                                 "over the cap of 10000 systems" % (q, count)):
            enumerate_rational_y(q)

    def test_huge_denominator_refused_without_counting(self):
        with pytest.raises(CapabilityError,
                           match="at least p\\(1000\\) coprime partitions"):
            enumerate_rational_y(10 ** 18)


def descending_partitions(total, max_part):
    if total == 0:
        yield ()
        return
    for part in range(min(total, max_part), 0, -1):
        for rest in descending_partitions(total - part, part):
            yield (part,) + rest


class TestCubicPositivity:
    def test_report(self):
        r = verify_lind_example()
        assert r["polynomial"] == IntPolynomial((-46, -15, 3, 1))
        assert r["exponent"] == 49
        assert r["bound_holds"] is True
        assert r["witness_power"] == 48
        i, j, value = r["witness"]
        assert (i, j) == (0, 0) and value < 0
        lo, hi = r["root_interval"]
        assert Fraction(389, 100) < lo < hi < Fraction(390, 100)


BUILDERS = [(build_soe_substitution, 1), (build_oe_alphabet_family, 1)]


class TestBuilderPrimitivity:
    @pytest.mark.parametrize("builder, count", BUILDERS)
    def test_non_primitive_input_is_refused(self, builder, count):
        # b -> ab reaches a, a -> a never reaches b: reducible
        with pytest.raises(DomainError, match="^matrix is not primitive$"):
            builder(Substitution({"a": "a", "b": "ab"}), count)

    @pytest.mark.parametrize("builder, count", BUILDERS)
    def test_no_primitivity_search_on_the_input(self, monkeypatch, builder,
                                                count):
        # perron_data refuses on the support graph and the language checks
        # on the letter graph, so neither module keeps the exponent search;
        # construct keeps it for enlarge_matrix, which these builders skip
        for module in (perron_module, subst_module):
            assert not hasattr(module, "primitivity_exponent")
        searched = []

        def counted(m):
            searched.append(m.int_rows())
            return primitivity_exponent(m)

        monkeypatch.setattr(construct_module, "primitivity_exponent", counted)
        sub = golden()
        builder(sub, count)
        assert searched == []
