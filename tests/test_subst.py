import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from substoe import subst as subst_module
from substoe.errors import CapabilityError, DomainError, SeedError
from substoe.subst import FactorLanguage, Substitution, linear_bound_estimate
from substoe.words import RunWord

GOLDEN = {"a": "ab", "b": "abb"}
ZETA = {"a": "abbcccccccc", "b": "abbbccccccccccccc", "c": "ab"}


def golden():
    return Substitution(GOLDEN)


def zeta():
    return Substitution(ZETA)


def prefix_text(s, n):
    letter, p = s.find_fixed_point_seed()
    return "".join(s.power(p).fixed_point_prefix(letter, n))


def brute_factors(text, n):
    return {text[i:i + n] for i in range(len(text) - n + 1)}


def random_primitive(seed):
    """Deterministic random 3-letter substitution, retried until primitive."""
    rng = random.Random(seed)
    letters = "abc"
    while True:
        rules = {}
        for l in letters:
            length = rng.randint(2, 4)
            rules[l] = "".join(rng.choice(letters) for _ in range(length))
        s = Substitution(rules)
        if s.is_primitive():
            return s


class TestValidation:
    def test_missing_rule(self):
        with pytest.raises(DomainError):
            Substitution({"a": "ab"}, alphabet=("a", "b"))

    def test_unknown_letter_in_rule(self):
        with pytest.raises(DomainError):
            Substitution({"a": "ax"})

    def test_empty_rule(self):
        with pytest.raises(DomainError):
            Substitution({"a": ""})

    def test_bad_letters(self):
        with pytest.raises(DomainError):
            Substitution({"a.b": "a.b"})
        with pytest.raises(DomainError):
            Substitution({"": "a"}, alphabet=("",))

    def test_extra_rules_rejected(self):
        with pytest.raises(DomainError):
            Substitution({"a": "a", "b": "b"}, alphabet=("a",))

    def test_alphabet_order_preserved(self):
        s = Substitution({"b": "ba", "a": "ab"})
        assert s.alphabet == ("b", "a")
        assert s.incidence_matrix().int_rows() == [[1, 1], [1, 1]]


class TestIncidenceAndMaps:
    def test_golden_incidence(self):
        assert golden().incidence_matrix().int_rows() == [[1, 1], [1, 2]]

    def test_zeta_incidence(self):
        assert zeta().incidence_matrix().int_rows() == [
            [1, 1, 1], [2, 3, 1], [8, 13, 0]]

    def test_primitivity(self):
        assert golden().primitivity() == 1
        assert Substitution({"a": "b", "b": "ab"}).primitivity() == 2
        assert zeta().is_primitive()
        assert not Substitution({"a": "ab", "b": "b"}).is_primitive()

    def test_properness_witness(self):
        assert golden().properness_witness() == (1, "a", "b")
        # last letters of the three-letter rules cycle between b and c
        assert zeta().properness_witness() is None
        slow = Substitution({"a": "bab", "b": "cbc", "c": "cac"})
        assert slow.properness_witness() == (2, "c", "c")


class TestComposition:
    def test_square_rules(self):
        sq = golden().power(2)
        assert sq.rules["a"].as_compact() == "ababb"
        assert sq.rules["b"].as_compact() == "ababbabb"

    def test_cube_matches_fixed_point(self):
        cube = golden().power(3)
        assert cube.rules["a"].as_compact() == "ababbababbabb"

    def test_incidence_multiplies(self):
        s = zeta()
        assert s.power(2).incidence_matrix() == s.incidence_matrix() ** 2

    def test_compose_needs_same_alphabet(self):
        with pytest.raises(DomainError):
            golden().compose(Substitution({"x": "x"}))


class TestFixedPoints:
    def test_golden_prefix(self):
        assert "".join(golden().fixed_point_prefix("a", 13)) == "ababbababbabb"

    def test_prefix_is_nested(self):
        long = golden().fixed_point_prefix("a", 200)
        short = golden().fixed_point_prefix("a", 50)
        assert long[:50] == short

    def test_two_sided_seed(self):
        out = golden().fixed_point_prefix("b.a", 30)
        left, right = out["left"], out["right"]
        assert len(left) == 30 and len(right) == 30
        assert left[-1] == "b" and right[0] == "a"
        stitched = "".join(left[-4:]) + "".join(right[:4])
        lang8 = {"".join(w) for w in golden().factor_language(8).words}
        assert stitched in lang8

    def test_bad_seeds(self):
        with pytest.raises(SeedError):
            golden().fixed_point_prefix("b", 5)
        with pytest.raises(SeedError):
            golden().fixed_point_prefix("x", 5)
        with pytest.raises(SeedError):
            golden().fixed_point_prefix("x.a", 5)
        with pytest.raises(SeedError):
            # both edges match but aa never occurs in the alternating system
            Substitution({"a": "aba", "b": "bab"},
                         ).fixed_point_prefix("a.a", 5)

    def test_non_growing_seed(self):
        with pytest.raises(SeedError):
            Substitution({"a": "a"}).fixed_point_prefix("a", 5)

    def test_find_seed(self):
        assert golden().find_fixed_point_seed() == ("a", 1)
        assert zeta().find_fixed_point_seed() == ("a", 1)
        swap = Substitution({"a": "ba", "b": "ab"})
        assert swap.find_fixed_point_seed() == ("a", 2)
        assert "".join(swap.power(2).fixed_point_prefix("a", 4)) == "abba"


class TestLanguage:
    def test_golden_two_blocks(self):
        lang = golden().factor_language(2)
        assert lang.words == {("a", "b"), ("b", "a"), ("b", "b")}
        assert lang.two_blocks == lang.words

    def test_zeta_two_blocks_content(self):
        blocks = zeta().factor_language(2).two_blocks
        assert ("c", "c") in blocks and ("a", "b") in blocks
        assert ("a", "a") not in blocks

    def test_factor_lengths(self):
        lang = zeta().factor_language(7)
        assert all(len(w) == 7 for w in lang.words)

    def test_requires_primitive(self):
        with pytest.raises(DomainError):
            Substitution({"a": "ab", "b": "b"}).factor_language(2)

    def test_non_growing(self):
        with pytest.raises(DomainError):
            Substitution({"a": "a"}).factor_language(2)

    @pytest.mark.parametrize("rules", [GOLDEN, ZETA])
    def test_brute_force_oracle(self, rules):
        s = Substitution(rules)
        text = prefix_text(s, 10_000)
        for n in (1, 2, 3, 5, 9, 14):
            eng = {"".join(w) for w in s.factor_language(n).words}
            assert eng == brute_factors(text, n)

    @pytest.mark.parametrize("seed", [7, 19, 23])
    def test_random_brute_force_oracle(self, seed):
        s = random_primitive(seed)
        text = prefix_text(s, 10_000)
        for n in (2, 4, 8, 12):
            eng = {"".join(w) for w in s.factor_language(n).words}
            assert eng == brute_factors(text, n)

    def test_downward_closure(self):
        s = zeta()
        small = {"".join(w) for w in s.factor_language(6).words}
        big = s.factor_language(7).words
        assert {("".join(w))[:6] for w in big} <= small
        assert {("".join(w))[1:] for w in big} <= small

    def test_huge_runs_match_clamped_rules(self):
        # replacing run count 10**22 by 22 cannot change factors up to 22
        big = Substitution({"x": {"runs": [["x", 2], ["y", 10 ** 22], ["x", 1]]},
                            "y": "xy"})
        small = Substitution({"x": {"runs": [["x", 2], ["y", 22], ["x", 1]]},
                              "y": "xy"})
        for n in (2, 5, 8):
            assert big.factor_language(n).words == small.factor_language(n).words
        text = prefix_text(small, 10_000)
        eng = {"".join(w) for w in small.factor_language(8).words}
        assert eng == brute_factors(text, 8)


class TestComplexity:
    def test_golden_profile(self):
        prof = golden().complexity_profile(200)
        assert all(p == n + 1 for n, p in enumerate(prof, start=1))

    def test_zeta_profile(self):
        prof = zeta().complexity_profile(120)
        assert prof[0] == 3
        assert all(p >= 3 * n for n, p in enumerate(prof, start=1))

    def test_profile_matches_direct_counts(self):
        s = random_primitive(5)
        prof = s.complexity_profile(12)
        for n in (1, 4, 7, 12):
            assert prof[n - 1] == s.complexity(n)

    @pytest.mark.parametrize("rules, n", [
        ({"x0": ["x0", "y1", "y1"], "y1": ["x0", "zz"], "zz": ["x0"]}, 30),
        ({"x": {"runs": [["x", 2], ["y", 10 ** 22], ["x", 1]]}, "y": "xy"}, 30),
        ({"a": {"runs": [["a", 40], ["b", 3], ["a", 1]]}, "b": "ab"}, 50),
        (ZETA, 1),
    ])
    def test_profile_matches_every_direct_count(self, rules, n):
        s = Substitution(rules)
        assert s.complexity_profile(n) == tuple(
            s.complexity(j) for j in range(1, n + 1))

    def test_periodic_profile_is_constant(self):
        s = Substitution({"a": "aa"})
        assert s.complexity_profile(12) == (1,) * 12 == tuple(
            s.complexity(j) for j in range(1, 13))

    def test_large_sturmian_profile(self):
        prof = Substitution({"a": "ab", "b": "a"}).complexity_profile(20_000)
        assert prof == tuple(range(2, 20_002))

    def test_image_over_expansion_cap(self, monkeypatch):
        monkeypatch.setattr(subst_module, "EXPAND_CAP", 500)
        s = Substitution({"a": {"runs": [["a", 1], ["b", 1]] * 20}, "b": "ab"})
        for call in (s.complexity, s.complexity_profile):
            with pytest.raises(CapabilityError,
                               match="840 letters, over the expansion cap of 500"):
                call(3)

    def test_image_stops_at_length_guard(self, monkeypatch):
        monkeypatch.setattr(subst_module, "LENGTH_GUARD", 10_000)
        with pytest.raises(CapabilityError, match="budget of 10000"):
            Substitution({"a": "ab", "b": "a"}).complexity_profile(6000)
        # refused on the first run, before the unknown letter is reached
        monkeypatch.setattr(subst_module, "LENGTH_GUARD", 5)
        with pytest.raises(CapabilityError, match="8 letters"):
            Substitution({"a": "abab", "b": "ba"}).apply("aaz")

    def test_aperiodicity_scan(self):
        assert golden().aperiodicity_scan(40)["aperiodic"] is True
        report = Substitution({"a": "ab", "b": "ab"}).aperiodicity_scan(10)
        assert report["aperiodic"] is False
        assert report["violation_at"] == 2

    def test_linear_bound_estimate(self):
        assert linear_bound_estimate(golden(), 12) == 2
        assert linear_bound_estimate(zeta(), 12) >= 3


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_random_language_consistency(seed):
    """Engine factors of random primitive substitutions extend coherently."""
    s = random_primitive(seed)
    lang3 = {"".join(w) for w in s.factor_language(3).words}
    lang4 = s.factor_language(4).words
    assert lang4, "language of a primitive substitution is never empty"
    for w in lang4:
        text = "".join(w)
        assert text[:3] in lang3
        assert text[1:] in lang3


@st.composite
def primitive_substitutions(draw):
    letters = "abcd"[:draw(st.integers(1, 4))]
    rules = {l: draw(st.text(alphabet=letters, min_size=1, max_size=5))
             for l in letters}
    s = Substitution(rules)
    assume(s.is_primitive() and any(len(w) > 1 for w in rules.values()))
    return s


@settings(max_examples=60, deadline=None, derandomize=True)
@given(primitive_substitutions(), st.integers(1, 24))
def test_random_profile_matches_direct_counts(s, n):
    """Every automaton count equals the size of the sliced window set."""
    assert s.complexity_profile(n) == tuple(
        s.complexity(j) for j in range(1, n + 1))
