import random
import re
import time
import tracemalloc
from array import array
from itertools import accumulate
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from substoe import matrix as matrix_module
from substoe import subst as subst_module
from substoe.errors import (CapabilityError, DomainError, InternalError,
                            SeedError)
from substoe.matrix import primitivity_exponent
from substoe.subst import FactorLanguage, Substitution, linear_bound_estimate
from substoe.words import RunWord

GOLDEN = {"a": "ab", "b": "abb"}
# also the benchmark's rewrite rules
ZETA = {"a": "abbcccccccc", "b": "abbbccccccccccccc", "c": "ab"}
HUGE_RUN = {"x": {"runs": [["x", 2], ["y", 10 ** 22], ["x", 1]]}, "y": "xy"}
# x_i -> x_0 x_(i+1 mod 300): letter codes past one byte, up to 301
WIDE = {"x%d" % i: ["x0", "x%d" % ((i + 1) % 300)] for i in range(300)}


def golden():
    return Substitution(GOLDEN)


def zeta():
    return Substitution(ZETA)


def fixed_point_seed(s):
    """(letter, p) with the p-th power of s fixing letter in front: the
    least p, then the first letter in alphabet order, on the orbits of
    the first-letter map."""
    fmap = s.first_letter_map()
    cur = dict(fmap)
    for p in range(1, s.size + 1):
        for letter in s.alphabet:
            if cur[letter] == letter:
                return letter, p
        cur = {letter: fmap[cur[letter]] for letter in s.alphabet}
    raise AssertionError("first-letter map has no periodic letter")


def prefix_text(s, n):
    letter, p = fixed_point_seed(s)
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

    def test_repr_shows_runs_of_multi_character_letters(self):
        s = Substitution({"aa": ["aa", "aa", "b"], "b": ["b"]})
        assert repr(s) == ("Substitution(aa->RunWord<aa^2, b^1 | length 3>, "
                           "b->b)")
        assert repr(golden()) == "Substitution(a->ab, b->abb)"

    def test_repr_of_a_long_rule_stays_short(self):
        s = Substitution({"a": "a" * 900000 + "b", "b": "a"})
        assert len(repr(s)) < 200
        assert repr(s) == ("Substitution(a->RunWord<a^900000, b^1 | "
                           "length 900001>, b->a)")


class TestIncidenceAndMaps:
    def test_golden_incidence(self):
        assert golden().incidence_matrix().int_rows() == [[1, 1], [1, 2]]

    def test_zeta_incidence(self):
        assert zeta().incidence_matrix().int_rows() == [
            [1, 1, 1], [2, 3, 1], [8, 13, 0]]

    def test_primitivity(self):
        # the exponent is read off the incidence matrix; the substitution
        # itself decides primitivity on its letter graph
        assert not hasattr(Substitution, "primitivity")
        assert primitivity_exponent(golden().incidence_matrix()) == 1
        slow = Substitution({"a": "b", "b": "ab"})
        assert primitivity_exponent(slow.incidence_matrix()) == 2
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

    def test_two_sided_seed_reads_the_cached_two_blocks(self, monkeypatch):
        def refused(self, n):
            raise AssertionError("window texts built for a seed")
        monkeypatch.setattr(Substitution, "_window_texts", refused)
        out = golden().fixed_point_prefix("b.a", 5)
        assert "".join(out["left"] + out["right"]) == "bbabbababb"

    def test_two_sided_seed_needs_a_primitive_substitution(self):
        # rule(b) ends with b and rule(a) starts with a, but b -> b
        with pytest.raises(DomainError, match="^factor language needs a "
                           "primitive substitution$"):
            Substitution({"a": "ab", "b": "b"}).fixed_point_prefix("b.a", 5)

    def test_non_growing_seed(self):
        with pytest.raises(SeedError):
            Substitution({"a": "a"}).fixed_point_prefix("a", 5)

    def test_find_seed(self):
        assert fixed_point_seed(golden()) == ("a", 1)
        assert fixed_point_seed(zeta()) == ("a", 1)
        swap = Substitution({"a": "ba", "b": "ab"})
        assert fixed_point_seed(swap) == ("a", 2)
        assert "".join(swap.power(2).fixed_point_prefix("a", 4)) == "abba"

    def test_one_letter_prefix(self):
        fib = Substitution({"a": "ab", "b": "a"})
        assert fib.fixed_point_prefix("a", 1) == ("a",)
        assert Substitution({"a": "aab", "b": "ab"}).fixed_point_prefix(
            "b.a", 1) == {"left": ("b",), "right": ("a",)}

    def test_linear_growth_prefix(self):
        # every step adds one b, so the edge takes a million steps
        start = time.perf_counter()
        out = Substitution({"a": "ab", "b": "b"}).fixed_point_prefix("a", 10 ** 6)
        assert time.perf_counter() - start < 10
        assert out[:3] == ("a", "b", "b") and set(out[1:]) == {"b"}

    def test_fibonacci_million_is_quick(self):
        start = time.perf_counter()
        out = Substitution({"a": "ab", "b": "a"}).fixed_point_prefix("a", 10 ** 6)
        assert time.perf_counter() - start < 2
        assert len(out) == 10 ** 6 and out[:8] == tuple("abaababa")

    def test_over_the_expansion_budget_is_refused_at_once(self):
        start = time.perf_counter()
        with pytest.raises(CapabilityError, match=r"^word of 3000000 letters "
                           r"is over the expansion budget of 1000000$"):
            Substitution({"a": "ab", "b": "a"}).fixed_point_prefix("a", 3 * 10 ** 6)
        assert time.perf_counter() - start < 1

    def test_rule_past_the_length_guard_answers(self):
        # runs cut to n letters still come to 3,000,000 > LENGTH_GUARD, but
        # the edge keeps only the first n letters of each image
        big = {"runs": [["a", 10 ** 6], ["b", 10 ** 6], ["c", 10 ** 6]]}
        s = Substitution({"a": big, "b": "b", "c": "c"})
        assert s.fixed_point_prefix("a", 10) == ("a",) * 10
        assert s.fixed_point_prefix("a", 10 ** 6) == ("a",) * 10 ** 6
        # c never occurs in the Fibonacci fixed point
        fib = Substitution({"a": "ab", "b": "a"}).fixed_point_prefix("a", 10 ** 6)
        s = Substitution({"a": "ab", "b": "a", "c": big})
        assert s.fixed_point_prefix("a", 10 ** 6) == fib

    def test_one_letter_power_reaches_its_budget(self):
        # 7^7 = 823,543 letters come one step short of 900,000
        out = Substitution({"a": "a" * 7}).fixed_point_prefix("a", 900_000)
        assert out == ("a",) * 900_000


def full_edge(rules, letter, n, last):
    """n letters at an edge of rule^k(letter), iterating the full rules;
    None when a step adds no letter."""
    word = [letter]
    while len(word) < n:
        grown = [x for l in word for x, c in rules[l] for _ in range(c)]
        if len(grown) == len(word):
            return None
        word = grown
    return tuple(word[-n:] if last else word[:n])


@st.composite
def seeded_substitutions(draw):
    """(rules as lists of runs, seed, n) on one to three letters, some of
    several characters, with runs up to 12 letters long.

    A one-sided seed only gets its letter in front of its rule, so the
    substitution may be non-primitive or fail to grow.  A two-sided seed
    r.l puts every letter into every rule, which makes it primitive, ends
    rule(r) with r l r, so the pair rl is admissible, and puts l in front
    of rule(l).
    """
    letters = draw(st.lists(st.sampled_from(("a", "b", "xy", "q7")),
                            min_size=1, max_size=3, unique=True))
    runs = st.tuples(st.sampled_from(letters), st.integers(1, 12))
    rules = {l: draw(st.lists(runs, min_size=1, max_size=4)) for l in letters}
    left, right = draw(st.sampled_from(letters)), draw(st.sampled_from(letters))
    if draw(st.booleans()):
        for l in letters:
            rules[l] += [(x, 1) for x in letters]
        rules[left] += [(left, 1), (right, 1), (left, 1)]
        seed = "%s.%s" % (left, right)
    else:
        seed = right
    rules[right] = [(right, draw(st.integers(1, 12)))] + rules[right]
    return rules, seed, draw(st.integers(1, 40))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seeded_substitutions())
@example(({"a": [("a", 1), ("b", 1)], "b": [("a", 1)]}, "a", 1))
@example(({"a": [("a", 2), ("b", 1)], "b": [("a", 1), ("b", 1)]}, "b.a", 1))
@example(({"a": [("a", 1), ("b", 1)], "b": [("b", 1)]}, "a", 30))
@example(({"xy": [("xy", 1), ("q7", 25)], "q7": [("xy", 3)]}, "xy", 20))
def test_fixed_point_prefix_matches_full_iteration(case):
    rules, seed, n = case
    s = Substitution({l: {"runs": [list(r) for r in rs]}
                      for l, rs in rules.items()})
    if "." in seed:
        left, right = seed.split(".")
        expected = {"left": full_edge(rules, left, n, True),
                    "right": full_edge(rules, right, n, False)}
        assert None not in expected.values()
    else:
        expected = full_edge(rules, seed, n, False)
    # SLICE = 1 translates one letter per slice
    for size in (subst_module.SLICE, 1):
        with mock.patch.object(subst_module, "SLICE", size):
            if expected is None:
                with pytest.raises(SeedError, match="does not grow"):
                    s.fixed_point_prefix(seed, n)
            else:
                assert s.fixed_point_prefix(seed, n) == expected


class TestLanguage:
    def test_golden_two_blocks(self):
        lang = golden().factor_language(2)
        assert lang.words == {("a", "b"), ("b", "a"), ("b", "b")}
        assert lang.two_blocks == lang.words

    def test_record_is_a_named_tuple(self):
        lang = golden().factor_language(2)
        assert FactorLanguage._fields == ("n", "words", "two_blocks")
        assert lang == (2, lang.words, lang.two_blocks)
        again = golden().factor_language(2)
        assert lang is not again
        assert lang == again and hash(lang) == hash(again)
        with pytest.raises(AttributeError):
            lang.n = 3

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
        s = Substitution({"a": "a"})
        with pytest.raises(DomainError):
            s.factor_language(2)
        for call in (s.complexity, s.complexity_profile, s.factor_language):
            with pytest.raises(DomainError,
                               match="^substitution images do not grow$"):
                call(1)

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

    def test_words_over_the_budget_are_refused(self):
        fib = Substitution({"a": "ab", "b": "a"})
        assert len(fib.factor_language(1000).words) == 1001
        # 2001 words of 2000 letters pass the budget; the count is not needed
        with pytest.raises(CapabilityError, match=(
                "^factors of length 2000 passed [0-9]+ letters, over the "
                "word budget of 2000000$")):
            fib.factor_language(2000)
        assert fib.complexity(2000) == 2001
        # one word of 100,000 letters is inside the budget
        assert len(Substitution({"a": "aa"}).factor_language(100_000).words) == 1

    def test_word_budget_bounds_memory(self):
        fib = Substitution({"a": "ab", "b": "a"})
        tracemalloc.start()
        try:
            start = time.perf_counter()
            with pytest.raises(CapabilityError, match="word budget"):
                fib.factor_language(400_000)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 10
        assert peak < 64 * 2 ** 20

    def test_huge_runs_match_clamped_rules(self):
        # replacing run count 10**22 by 22 cannot change factors up to 22
        big = Substitution(HUGE_RUN)
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
            assert prof[n - 1] == len(s.factor_language(n).words)

    @pytest.mark.parametrize("rules, n", [
        ({"x0": ["x0", "y1", "y1"], "y1": ["x0", "zz"], "zz": ["x0"]}, 30),
        (HUGE_RUN, 30),
        ({"a": {"runs": [["a", 40], ["b", 3], ["a", 1]]}, "b": "ab"}, 50),
        (ZETA, 1),
        (WIDE, 20),
    ])
    def test_profile_matches_every_direct_count(self, rules, n):
        s = Substitution(rules)
        assert s.complexity_profile(n) == tuple(
            len(s.factor_language(j).words) for j in range(1, n + 1))

    def test_periodic_profile_is_constant(self):
        s = Substitution({"a": "aa"})
        assert s.complexity_profile(12) == (1,) * 12 == tuple(
            len(s.factor_language(j).words) for j in range(1, 13))

    def test_large_sturmian_profile(self):
        prof = Substitution({"a": "ab", "b": "a"}).complexity_profile(20_000)
        assert prof == tuple(range(2, 20_002))

    def test_large_sturmian_profile_memory(self):
        s = Substitution({"a": "ab", "b": "a"})
        tracemalloc.start()
        try:
            prof = s.complexity_profile(100_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert prof == tuple(range(2, 100_002))
        assert peak < 40 * 2 ** 20

    def test_large_sturmian_count_memory(self):
        # the 20,001 windows of 20,000 letters alone are 400 MB of strings
        s = Substitution({"a": "ab", "b": "a"})
        tracemalloc.start()
        try:
            count = s.complexity(20_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 20_001
        assert peak < 50 * 2 ** 20

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
        len(s.factor_language(j).words) for j in range(1, n + 1))


# -- clamped image steps --------------------------------------------------

def reference_profile(images, blocks, letters, n):
    """The generalized suffix automaton of the window texts, written
    plainly: one split helper for both clone paths, one letter lookup a
    step and a cut at n in the difference loop."""
    k = len(letters)
    blank = array("i", [0]) * k
    size = array("i", [0])
    link = array("i", [-1])
    go = array("i", blank)

    def split(p, q, c):
        # clone q at length len(p)+1 and move p's suffix chain onto it
        clone = len(size)
        size.append(size[p] + 1)
        link.append(link[q])
        go.extend(go[q * k:q * k + k])
        while p != -1 and go[p * k + c] == q:
            go[p * k + c] = clone
            p = link[p]
        link[q] = clone
        return clone

    ends = {}
    texts = [(ch, None, image) for ch, image in images.items()]
    if n > 1:
        texts += [(None, b, images[c][:n - 1]) for b, c in blocks]
    for name, after, text in texts:
        last = 0 if after is None else ends[after]
        for ch in text:
            c = letters[ch]
            q = go[last * k + c]
            if q:
                last = q if size[q] == size[last] + 1 else split(last, q, c)
                continue
            cur = len(size)
            size.append(size[last] + 1)
            link.append(0)
            go.extend(blank)
            p = last
            while p != -1 and not go[p * k + c]:
                go[p * k + c] = cur
                p = link[p]
            if p != -1:
                q = go[p * k + c]
                link[cur] = q if size[q] == size[p] + 1 else split(p, q, c)
            last = cur
        if name is not None:
            ends[name] = last
    diff = [0] * (n + 2)
    for parent, top in zip(link[1:], size[1:]):
        low = size[parent] + 1
        if low <= n:
            diff[low] += 1
            diff[min(top, n) + 1] -= 1
    return tuple(accumulate(diff[1:n + 1]))


def letter_codes(enc):
    return {ch: i for i, ch in enumerate(enc.values())}


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
    m = len(s._length_ladder(n)) - 1
    used = {ch for block in blocks for ch in block}
    images = {}
    for ch in used:
        img = RunWord(((ch, 1),))
        for _ in range(m):
            img = RunWord(run for l, c in img.runs
                          for run in rules[l].repeat(min(c, n)).runs).clamp(n)
        images[ch] = "".join(img.expand())
    return images


def top_down_images(s, n):
    """Clamped images built one substitution step at a time, per letter.

    Each step translates the word by the rules with runs cut to n, then
    cuts every run x^r of the result, t steps still to go, to
    ceil((n-1)/|rule^t(x)|) + 1 copies of x; the last step cuts every run
    to n letters.  This cuts runs across rule boundaries too, which the
    level-by-level build leaves whole.
    """
    enc, rules, blocks = s._encoded_language()
    ladder = s._length_ladder(n)
    table = {ord(x): "".join(l * min(c, n) for l, c in rule.runs)
             for x, rule in rules.items()}
    used = {ch for block in blocks for ch in block}
    images = {}
    for ch in rules:
        if ch not in used:
            continue
        image = ch
        for rung in reversed(ladder[:-1]):
            image = image.translate(table)
            for x, size in zip(rules, rung):
                if (x, x) in blocks:
                    keep = -(-(n - 1) // size) + 1
                    image = re.sub("%s{%d,}" % (re.escape(x), keep + 1),
                                   lambda run: run.group()[:keep], image)
        images[ch] = image
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


@settings(max_examples=200, deadline=None, derandomize=True)
@given(run_rule_substitutions(), st.integers(1, 40))
@example(Substitution({"a": "ab", "b": {"runs": [["a", 10 ** 22]]}}), 30)
@example(Substitution({"a": "ab", "b": {"runs": [["a", 7]]}}), 25)
@example(Substitution(LONG_RUNS), 150)
@example(Substitution(ZETA), 300)
@example(Substitution(HUGE_RUN), 40)
@example(Substitution({"x0": ["x0", "y1"], "y1": {"runs": [["x0", 5]]}}), 17)
# runs of copies that meet across rules: longer than the RunWord images
@example(Substitution({"a": "ab", "b": {"runs": [["c", 22]]},
                       "c": {"runs": [["a", 10 ** 22]]}}), 184)
# and four times the step-by-step image of a
@example(Substitution({"a": "bb", "b": "c" * 6, "c": "d" * 9,
                       "d": {"runs": [["d", 131], ["a", 9]]}}), 245)
def test_window_images_keep_the_reference_n_view(s, n):
    """Images built level by level have the n-windows, (n-1)-prefix and
    suffix and the length >= n of the step-by-step images.  Runs of
    copies that meet across rules are left whole, so an image may be
    longer than the step-by-step one, but never longer than the image of
    the rules with their runs cut to n letters."""
    reference = top_down_images(s, n)
    images = s._window_texts(n)[0]
    assert list(images) == list(reference)
    _, rules, _ = s._encoded_language()
    bound = dict.fromkeys(rules, 1)
    for _ in s._length_ladder(n)[1:]:
        bound = {y: sum(min(r, n) * bound[z] for z, r in rule.runs)
                 for y, rule in rules.items()}
    for ch, image in images.items():
        assert n_view(image, n) == n_view(reference[ch], n)
        assert len(image) <= bound[ch]


@pytest.mark.parametrize("rules", [
    {"a": "ab", "b": "a"}, GOLDEN, {"a": "ab", "b": "ac", "c": "a"},
    {"a": "ab", "b": "ba"}, ZETA, LONG_RUNS, HUGE_RUN],
    ids=["fibonacci", "golden", "tribonacci", "thue-morse", "zeta",
         "long-runs", "huge-run"])
def test_named_window_images_equal_the_reference(rules):
    s = Substitution(rules)
    for n in (1, 2, 3, 5, 40, 300, 1523):
        assert s._window_texts(n)[0] == top_down_images(s, n)


def test_last_level_cuts_letter_runs_to_n():
    # the two copies of b's image a^5 meet in a run of 10 letters
    s = Substitution({"a": "abb", "b": "aaaaa"})
    images = s._window_texts(8)[0]
    assert images == {"a": "abb" + "a" * 8, "b": "abb" * 4}
    assert images == top_down_images(s, 8)


def test_copy_cut_fires_and_keeps_the_profile():
    s = Substitution(LONG_RUNS)
    n = 150
    images = s._window_texts(n)[0]
    old = runword_images(s, n)
    assert any(len(images[ch]) < len(old[ch]) for ch in images)
    assert s.complexity_profile(n) == tuple(
        len(s.factor_language(j).words) for j in range(1, n + 1))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.one_of(primitive_substitutions(), run_rule_substitutions()),
       st.integers(1, 60))
@example(Substitution(ZETA), 2)
def test_kernel_matches_the_reference(s, n):
    """The automaton kernel counts what the plain reference counts."""
    images, blocks, enc = s._window_texts(n)
    letters = letter_codes(enc)
    assert subst_module._substring_profile(images, blocks, letters, n) == \
        reference_profile(images, blocks, letters, n)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(run_rule_substitutions(), st.integers(1, 700))
def test_kernel_matches_the_reference_at_large_n(s, n):
    """At large n most letters go in from a context cut back to n-1."""
    images, blocks, enc = s._window_texts(n)
    letters = letter_codes(enc)
    assert subst_module._substring_profile(images, blocks, letters, n) == \
        reference_profile(images, blocks, letters, n)


def kernel_and_reference(s, n):
    images, blocks, enc = s._window_texts(n)
    letters = letter_codes(enc)
    return (subst_module._substring_profile(images, blocks, letters, n),
            reference_profile(images, blocks, letters, n))


def window_feeds(s, n):
    images, blocks, _ = s._window_texts(n)
    return images, subst_module._window_feeds(images, blocks, n)


def test_equal_and_contained_images_are_read_once():
    s = Substitution(ZETA)
    n = 1523
    images, feeds = window_feeds(s, n)
    short, long_a, long_b = sorted(images.values(), key=len)
    assert long_a == long_b and short in long_a
    # one image goes in from the root, cut where the short one ends
    assert [after for after, _, _ in feeds].count(None) == 1
    assert sum(len(text) for _, text, name in feeds if name) == len(long_a)
    kernel, reference = kernel_and_reference(s, n)
    assert kernel == reference


def test_prefix_image_is_read_off_its_host():
    s = Substitution({"a": "ab", "b": "a"})
    n = 600
    images, feeds = window_feeds(s, n)
    assert images["a"].startswith(images["b"])
    assert feeds[:2] == [(None, images["b"], "b"),
                         ("b", images["a"][len(images["b"]):], "a")]
    kernel, reference = kernel_and_reference(s, n)
    assert kernel == reference


def ring(k):
    """Rules x_i -> x_0 x_(i+1 mod k): k letters, every image a different
    word."""
    return {"x%d" % i: ["x0", "x%d" % ((i + 1) % k)] for i in range(k)}


def window_count_profile(images, blocks, letters, n):
    """p(1), ..., p(n) as the distinct windows of the images and of the
    junctions image(b)[-(n-1):] + image(c)[:n-1], counted as strings: the
    reference for large alphabets, where reference_profile keeps a
    transition slot per letter in every state."""
    texts = list(images.values())
    if n > 1:
        texts += [images[b][1 - n:] + images[c][:n - 1] for b, c in blocks]
    return tuple(len(set().union(*(brute_factors(text, j) for text in texts)))
                 for j in range(1, n + 1))


@pytest.mark.parametrize("rules, n, reference", [
    (LONG_RUNS, 150, reference_profile),
    (ring(1000), 40, window_count_profile)], ids=["long-runs", "ring-1000"])
def test_one_host_and_every_junction_are_read(rules, n, reference):
    """Only the longest image hosts others, and no junction is searched:
    each goes in once, on from the state of its first letter's image."""
    images, blocks, enc = Substitution(rules)._window_texts(n)
    feeds = subst_module._window_feeds(images, blocks, n)
    longest = max(images.values(), key=len)
    from_root = [(text, name) for after, text, name in feeds if after is None]
    assert sum(longest.startswith(text) for text, _ in from_root) == 1
    assert all(longest.startswith(text)
               or (text == images[name] and text not in longest)
               for text, name in from_root)
    junctions = [(after, text) for after, text, name in feeds if name is None]
    assert sorted(junctions) == sorted((b, images[c][:n - 1])
                                       for b, c in blocks)
    letters = letter_codes(enc)
    assert subst_module._substring_profile(images, blocks, letters, n) == \
        reference(images, blocks, letters, n)


def test_feed_plan_of_a_2000_letter_ring_is_quick():
    # one search per image, in the longest one: searching every kept
    # image for each image and every junction in all of them took about
    # 0.95 s on a 2-core shared VM
    images, blocks, _ = Substitution(ring(2000))._window_texts(40)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        subst_module._window_feeds(images, blocks, 40)
        best = min(best, time.perf_counter() - start)
    assert best < 0.1


def test_language_path_builds_no_dense_matrix_and_searches_no_exponent(
        monkeypatch):
    # primitivity is decided on the letter graph and the image lengths
    # apply the sparse counts: building the dense incidence and scanning
    # its exponent took about 2 s and 200 MB on the 2000-letter ring, on
    # a 2-core shared VM
    def refuse(*args):
        raise AssertionError("the language path reached the dense matrix")

    monkeypatch.setattr(subst_module, "ExactMatrix", refuse)
    # every exponent scan reads the Wielandt bound
    monkeypatch.setattr(matrix_module, "wielandt_bound", refuse)
    assert not hasattr(subst_module, "primitivity_exponent")
    start = time.perf_counter()
    s = Substitution(ring(5000))
    assert s.is_primitive()
    assert time.perf_counter() - start < 0.5
    assert s._length_ladder(40) == [[2 ** t] * 5000 for t in range(7)]
    fib = Substitution({"a": "ab", "b": "a"})
    assert fib.complexity_profile(50) == tuple(range(2, 52))


@pytest.mark.parametrize("n", [1, 2])
def test_cut_back_to_the_root_at_small_n(n):
    """At n = 1 contexts are cut back to the root, whose suffix link is
    the bottom state."""
    images = {"a": "aabbaba" * 3, "b": "bbab", "c": "cabc"}
    blocks = {("a", "b"), ("b", "c"), ("c", "a"), ("b", "b")}
    letters = {"a": 0, "b": 1, "c": 2}
    edge = n - 1
    texts = list(images.values()) + [
        images[b][len(images[b]) - edge:] + images[c][:edge]
        for b, c in blocks]
    expected = tuple(len(set().union(*(brute_factors(text, j)
                                       for text in texts)))
                     for j in range(1, n + 1))
    assert subst_module._substring_profile(images, blocks, letters, n) == \
        reference_profile(images, blocks, letters, n) == expected


def test_final_length_cut_shortens_the_rewrite_images():
    s = Substitution(ZETA)
    n = 1523
    images, blocks, enc = s._window_texts(n)
    assert max(map(len, images.values())) < 16_000
    # RunWord images, every run clamped to n a step and no copy cut: the
    # runs of these rules are too short for a cut by the one-step length
    uncut = runword_images(s, n)
    assert max(map(len, uncut.values())) == 31_376
    assert s.complexity_profile(n) == reference_profile(
        uncut, blocks, letter_codes(enc), n)


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


@pytest.mark.parametrize("call", ["complexity", "complexity_profile"])
def test_a_count_builds_the_window_texts_once(monkeypatch, call):
    calls = []
    texts = Substitution._window_texts

    def counted(self, n):
        calls.append(n)
        return texts(self, n)
    monkeypatch.setattr(Substitution, "_window_texts", counted)
    getattr(zeta(), call)(30)
    assert calls == [30]


@pytest.mark.parametrize("wrong, message", [
    (0, r"^profile p\(1\) = 3 disagrees with the 2 letters$"),
    (1, r"^profile p\(2\) = 4 disagrees with the 3 two-blocks$")],
    ids=["p1", "p2"])
def test_self_check_names_the_count_that_disagrees(monkeypatch, wrong,
                                                   message):
    kernel = subst_module._substring_profile

    def off_by_one(*args):
        profile = list(kernel(*args))
        profile[wrong] += 1
        return tuple(profile)
    monkeypatch.setattr(subst_module, "_substring_profile", off_by_one)
    with pytest.raises(InternalError, match=message):
        golden().complexity_profile(5)


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


def test_ring_images_are_built_in_little_more_than_their_size():
    """The build holds two levels at once: on the 20-letter ring
    x_i -> x_0 x_(i+1) the peak stays under twice the images it returns."""
    ring = {"x%d" % i: ["x0", "x%d" % ((i + 1) % 20)] for i in range(20)}
    s = Substitution(ring)
    tracemalloc.start()
    try:
        images = s._window_texts(5000)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = sum(map(len, images.values()))
    assert size == 163_840
    assert peak < 2 * size


def test_growth_power_refusal_names_cap_and_size():
    # b -> b never grows, so no power makes every image 5 letters long
    s = Substitution({"a": "ab", "b": "b"})
    with pytest.raises(CapabilityError, match=r"^growth power search passed its "
                       r"cap of 10000 steps with the shortest image at 1 of 5 "
                       r"letters$"):
        s._length_ladder(5)


def test_many_run_image_over_expansion_cap():
    s = Substitution({"a": {"runs": [["a", 1], ["b", 1]] * 750}, "b": "ab"})
    with pytest.raises(CapabilityError,
                       match="1126500 letters, over the expansion cap"):
        s.complexity(3)


def test_guard_refuses_before_the_join(monkeypatch):
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


# -- two-block closure ----------------------------------------------------

def reference_two_blocks(s, rules):
    """The engine's former two-block closure over the encoded rules.

    Seeds with all adjacent pairs inside images deep enough that every
    letter image has length two, then closes under the pair map
    (b, c) -> pairs of rule(b), rule(c) plus their junction.
    """
    letters = list(rules)
    m0 = max(len(s._length_ladder(2)) - 1, 1)
    fmap = {ch: rules[ch].first for ch in letters}
    gmap = {ch: rules[ch].last for ch in letters}
    fpow = dict(fmap)
    gpow = dict(gmap)
    tsets = {ch: rules[ch].two_factors() for ch in letters}
    for _ in range(m0 - 1):
        nxt = {}
        for ch in letters:
            rule = rules[ch]
            pairs = set()
            for d in rule.letter_counts():
                pairs |= tsets[d]
            for b, c in rule.two_factors():
                pairs.add((gpow[b], fpow[c]))
            nxt[ch] = pairs
        tsets = nxt
        fpow = {ch: fmap[fpow[ch]] for ch in letters}
        gpow = {ch: gmap[gpow[ch]] for ch in letters}
    work = set()
    for ch in letters:
        work |= tsets[ch]
    while True:
        grown = set(work)
        for b, c in work:
            grown |= rules[b].two_factors()
            grown |= rules[c].two_factors()
            grown.add((rules[b].last, rules[c].first))
        if grown == work:
            return work
        work = grown


def image_two_windows(s, cap=10 ** 4):
    """Adjacent letter pairs of s^N(a) for every letter a and
    N = 1..|A|^2 + 1, expanded letter by letter, and whether every such
    image stayed under cap letters; a letter's images stop at the first
    one that would not."""
    pairs = set()
    complete = True
    for a in s.alphabet:
        word = [a]
        for _ in range(s.size ** 2 + 1):
            if sum(s.rules[l].length for l in word) >= cap:
                complete = False
                break
            word = [x for l in word for x in s.rules[l].expand()]
            pairs.update(zip(word, word[1:]))
    return pairs, complete


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(primitive_substitutions(), run_rule_substitutions()))
@example(Substitution(HUGE_RUN))
@example(Substitution(ZETA))
@example(Substitution(LONG_RUNS))
@example(Substitution({"x0": ["x0", "y1"], "y1": {"runs": [["x0", 5]]}}))
def test_two_block_closure_matches_reference_and_images(s):
    enc, rules = s._encoded_rules()
    blocks = s._two_blocks_encoded(rules)
    assert blocks == reference_two_blocks(s, rules)
    dec = {v: k for k, v in enc.items()}
    decoded = {(dec[b], dec[c]) for b, c in blocks}
    pairs, complete = image_two_windows(s)
    assert pairs <= decoded
    if complete:
        assert pairs == decoded
