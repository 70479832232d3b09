import random
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings, strategies as st

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


# -- clamped image steps --------------------------------------------------

# long runs in both rules, in the style of the benchmark's long rule: runs
# of a in the images are far longer than the copies the cut keeps
LONG_RUNS = {
    "a": {"runs": [["a", 9], ["b", 1], ["a", 2], ["b", 1], ["a", 40],
                   ["b", 2], ["a", 1], ["b", 3]]},
    "b": {"runs": [["a", 1], ["b", 1], ["a", 60], ["b", 90], ["a", 1]]},
}


def runword_images(s, n):
    """Clamped images built as RunWords, one clamp(rule(w)) per step."""
    enc, rules, blocks = s._encoded_language()
    m = s._growth_power(n)
    used = {ch for block in blocks for ch in block}
    images = {}
    for ch in used:
        img = RunWord(((ch, 1),))
        for _ in range(m):
            img = RunWord(run for l, c in img.runs
                          for run in rules[l].repeat(min(c, n)).runs).clamp(n)
        images[ch] = "".join(img.expand())
    return images


def n_view(text, n):
    edge = n - 1
    return (brute_factors(text, n), text[:edge], text[len(text) - edge:],
            len(text) >= n)


@st.composite
def run_rule_substitutions(draw):
    if draw(st.booleans()):
        letters = ["x0", "y1", "zz"][:draw(st.integers(1, 3))]
    else:
        letters = list("abc"[:draw(st.integers(1, 3))])
    count = st.one_of(st.integers(1, 3), st.integers(1, 60),
                      st.just(10 ** 22), st.integers(1, 10 ** 22))
    rules = {l: {"runs": draw(st.lists(
        st.tuples(st.sampled_from(letters), count).map(list),
        min_size=1, max_size=6))} for l in letters}
    s = Substitution(rules)
    assume(s.is_primitive())
    assume(any(len(w.runs) > 1 or w.length > 1 for w in s.rules.values()))
    return s


@settings(max_examples=80, deadline=None, derandomize=True)
@given(run_rule_substitutions(), st.integers(1, 40))
@example(Substitution({"a": "ab", "b": {"runs": [["a", 10 ** 22]]}}), 30)
@example(Substitution({"a": "ab", "b": {"runs": [["a", 7]]}}), 25)
@example(Substitution(LONG_RUNS), 150)
@example(Substitution({"x0": ["x0", "y1"], "y1": {"runs": [["x0", 5]]}}), 17)
def test_image_step_keeps_the_runword_n_view(s, n):
    """String images have the n-windows, (n-1)-prefix and suffix and the
    length >= n of the RunWord clamp(rule(w)) images, sliced or not."""
    old = runword_images(s, n)
    images = s._window_texts(n)[0]
    assert set(images) == set(old)
    for ch, image in images.items():
        assert n_view(image, n) == n_view(old[ch], n)
        assert len(image) <= len(old[ch])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(subst_module, "SLICE", 3)
        assert s._window_texts(n)[0] == images


def test_copy_cut_fires_and_keeps_the_profile():
    s = Substitution(LONG_RUNS)
    n = 150
    images = s._window_texts(n)[0]
    old = runword_images(s, n)
    assert any(len(images[ch]) < len(old[ch]) for ch in images)
    assert s.complexity_profile(n) == tuple(
        s.complexity(j) for j in range(1, n + 1))


def test_language_is_built_once(monkeypatch):
    calls = []
    closure = Substitution._two_blocks_encoded

    def counted(self, rules):
        calls.append(1)
        return closure(self, rules)
    monkeypatch.setattr(Substitution, "_two_blocks_encoded", counted)
    s = zeta()
    s.complexity_profile(30)
    s.factor_language(4)
    assert len(calls) == 1


def test_fibonacci_refusal_is_quick_and_small():
    tracemalloc.start()
    try:
        with pytest.raises(CapabilityError,
                           match="budget of %d" % subst_module.LENGTH_GUARD):
            Substitution({"a": "ab", "b": "a"}).complexity_profile(10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


def test_growth_power_refusal_names_cap_and_size():
    # b -> b never grows, so no power makes every image 5 letters long
    s = Substitution({"a": "ab", "b": "b"})
    with pytest.raises(CapabilityError, match=r"^growth power search passed its "
                       r"cap of 10000 steps with the shortest image at 1 of 5 "
                       r"letters$"):
        s._growth_power(5)


def test_many_run_image_over_expansion_cap():
    s = Substitution({"a": {"runs": [["a", 1], ["b", 1]] * 750}, "b": "ab"})
    with pytest.raises(CapabilityError,
                       match="1126500 letters, over the expansion cap"):
        s.complexity(3)


def test_guard_refuses_between_slices(monkeypatch):
    monkeypatch.setattr(subst_module, "SLICE", 64)
    monkeypatch.setattr(subst_module, "LENGTH_GUARD", 1000)
    fibonacci = Substitution({"a": "ab", "b": "a"})
    with pytest.raises(CapabilityError, match="budget of 1000"):
        fibonacci.complexity_profile(800)
    # the 600-letter images of a and b have 987 and 610 letters
    monkeypatch.setattr(subst_module, "LENGTH_GUARD", 986)
    with pytest.raises(CapabilityError, match="987 letters"):
        fibonacci.complexity_profile(600)
    monkeypatch.setattr(subst_module, "LENGTH_GUARD", 987)
    assert fibonacci.complexity_profile(600)[-1] == 601
    monkeypatch.setattr(subst_module, "LENGTH_GUARD", 1000)
    # a clamped rule over the guard is refused before it is built
    with pytest.raises(CapabilityError, match="1000000003 letters"):
        Substitution({"a": {"runs": [["a", 2], ["b", 10 ** 22], ["a", 1]]},
                      "b": "ab"}).complexity_profile(10 ** 9)


def test_power_budget_matches_the_composition_guard():
    # |s^2(a)| = 1206 * (1206 + y) + y: exactly the guard for y = 452
    for y, fits in ((452, True), (453, False)):
        s = Substitution({"a": {"runs": [["a", 1206], ["b", y]]}, "b": "b"})
        if fits:
            assert s.power(2).rules == s.compose(s).rules
            assert s.power(2).rules["a"].length == subst_module.LENGTH_GUARD
            continue
        with pytest.raises(CapabilityError, match="budget"):
            s.compose(s)
        with pytest.raises(CapabilityError,
                           match="power 2 image of 'a' has 2001207 letters, "
                                 "over the expansion budget of 2000000"):
            s.power(2)


@pytest.mark.parametrize("rules", [{"a": "a", "b": "b"}, {"a": "ab", "b": "b"},
                                   {"a": "ab", "b": "ba"}])
def test_power_by_squaring_equals_repeated_composition(rules):
    s = Substitution(rules)
    out = s
    for p in range(1, 13):
        if p > 1:
            out = s.compose(out)
        assert s.power(p).rules == out.rules


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("p", (1, 2, 3, 5))
def test_power_equals_repeated_composition(seed, p):
    s = random_primitive(seed)
    out = s
    for _ in range(p - 1):
        out = s.compose(out)
    assert s.power(p).rules == out.rules
