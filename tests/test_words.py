import pytest
from hypothesis import given, strategies as st

from substoe.errors import CapabilityError, DomainError
from substoe.words import EXPAND_CAP, RunWord, word_of

HUGE = 10 ** 22


def factors(text, k):
    return {text[i:i + k] for i in range(len(text) - k + 1)}


short_words = st.lists(
    st.tuples(st.sampled_from("abc"), st.integers(1, 5)),
    min_size=1, max_size=6).map(RunWord)


class TestConstruction:
    def test_merges_adjacent_runs(self):
        w = RunWord([("a", 2), ("a", 3), ("b", 1)])
        assert w.runs == (("a", 5), ("b", 1))

    def test_drops_zero_counts(self):
        w = RunWord([("a", 0), ("b", 2), ("c", 0)])
        assert w.runs == (("b", 2),)

    def test_zero_count_can_rejoin_neighbours(self):
        w = RunWord([("a", 1), ("b", 0), ("a", 1)])
        assert w.runs == (("a", 2),)

    def test_negative_count_rejected(self):
        with pytest.raises(DomainError):
            RunWord([("a", -1)])

    def test_from_string_and_letters(self):
        assert RunWord.from_string("aab").runs == (("a", 2), ("b", 1))
        assert RunWord.from_letters(["x", "yy"]).runs == (("x", 1), ("yy", 1))

    def test_empty(self):
        w = RunWord()
        assert w.is_empty and w.length == 0
        with pytest.raises(DomainError):
            w.first
        with pytest.raises(DomainError):
            w.last


class TestQueries:
    def test_huge_length_and_counts(self):
        w = RunWord([("a", 2), ("b", HUGE), ("a", 1)])
        assert w.length == HUGE + 3
        assert w.letter_counts() == {"a": 3, "b": HUGE}
        assert w.first == "a" and w.last == "a"

    def test_letter_at(self):
        w = RunWord([("a", 2), ("b", HUGE), ("c", 1)])
        assert w.letter_at(0) == "a"
        assert w.letter_at(2) == "b"
        assert w.letter_at(HUGE + 1) == "b"
        assert w.letter_at(HUGE + 2) == "c"
        with pytest.raises(DomainError):
            w.letter_at(HUGE + 3)

    def test_two_factors(self):
        w = RunWord([("a", 2), ("b", 1), ("a", 1)])
        assert w.two_factors() == {("a", "a"), ("a", "b"), ("b", "a")}
        assert RunWord([("a", 1)]).two_factors() == set()

    @given(short_words)
    def test_two_factors_match_expansion(self, w):
        text = "".join(w.expand())
        assert {"".join(p) for p in w.two_factors()} == factors(text, 2)


class TestEditing:
    def test_concat_merges_boundary(self):
        w = RunWord([("a", 1), ("b", 2)]) + RunWord([("b", 3), ("a", 1)])
        assert w.runs == (("a", 1), ("b", 5), ("a", 1))

    def test_repeat_single_run_is_cheap(self):
        w = RunWord([("a", 3)]).repeat(HUGE)
        assert w.runs == (("a", 3 * HUGE),)

    def test_repeat_merges_junctions(self):
        w = RunWord.from_string("ba").repeat(3)
        assert w.runs == (("b", 1), ("a", 1), ("b", 1), ("a", 1), ("b", 1), ("a", 1))
        v = RunWord.from_string("ab").repeat(2) + RunWord.from_string("b")
        assert v.runs == (("a", 1), ("b", 1), ("a", 1), ("b", 2))

    def test_repeat_budget(self):
        with pytest.raises(CapabilityError, match=r"^run expansion to 2000000 "
                           r"runs exceeds the budget of 1000000; clamp first$"):
            RunWord.from_string("ab").repeat(EXPAND_CAP)

    def test_prefix_suffix(self):
        w = RunWord([("a", 2), ("b", HUGE), ("c", 4)])
        assert w.prefix(3).runs == (("a", 2), ("b", 1))
        assert w.suffix(5).runs == (("b", 1), ("c", 4))
        assert w.prefix(0).is_empty
        assert w.prefix(HUGE + 10) == w

    @given(short_words, st.integers(0, 12))
    def test_prefix_suffix_match_expansion(self, w, n):
        text = "".join(w.expand())
        assert "".join(w.prefix(n).expand()) == text[:n]
        assert "".join(w.suffix(n).expand()) == text[len(text) - min(n, len(text)):]

    def test_expand_guard(self):
        with pytest.raises(CapabilityError, match=r"^word of 1000001 letters is "
                           r"over the expansion budget of 1000000$"):
            RunWord([("a", EXPAND_CAP + 1)]).expand()


class TestWindowOperations:
    @given(short_words, st.integers(1, 5))
    def test_clamp_preserves_window_view(self, w, k):
        clamped = w.clamp(k)
        text = "".join(w.expand())
        cut = "".join(clamped.expand())
        assert factors(text, k) == factors(cut, k)
        assert text[:k] == cut[:k]
        assert text[len(text) - k:] == cut[len(cut) - k:]

    @given(short_words, st.integers(0, 6), st.integers(1, 5))
    def test_repeat_clamped_preserves_window_view(self, w, c, k):
        full = "".join(w.expand()) * c
        cut = "".join(w.repeat_clamped(c, k).expand())
        assert factors(full, k) == factors(cut, k)
        assert full[:k] == cut[:k]
        assert full[len(full) - k:] == cut[len(cut) - k:]

    def test_repeat_clamped_huge(self):
        w = RunWord.from_string("ab").repeat_clamped(HUGE, 3)
        assert w.length <= 3 * len(w.runs)
        assert factors("".join(w.expand()), 3) == {"aba", "bab"}


class TestSerialization:
    def test_as_compact(self):
        assert RunWord.from_string("aab").as_compact() == "aab"
        assert RunWord([("aa", 2)]).as_compact() is None

    def test_runs_json_round_trip(self):
        w = RunWord([("a", 2), ("b", HUGE)])
        assert word_of({"runs": w.to_runs_json()}) == w

    def test_word_of_forms(self):
        assert word_of("aba").runs == (("a", 1), ("b", 1), ("a", 1))
        assert word_of(["x", "x"]).runs == (("x", 2),)
        w = RunWord.from_string("ab")
        assert word_of(w) is w

    def test_word_of_bad_runs(self):
        with pytest.raises(DomainError):
            word_of({"runs": [["a", 1]], "extra": 1})
        with pytest.raises(DomainError):
            word_of({"runs": [["a", "2"]]})
        with pytest.raises(DomainError):
            word_of({"runs": ["a"]})
        with pytest.raises(DomainError):
            word_of([1, 2])

    def test_hash_and_eq(self):
        assert RunWord.from_string("aab") == RunWord([("a", 2), ("b", 1)])
        assert hash(RunWord.from_string("ab")) == hash(RunWord([("a", 1), ("b", 1)]))
        assert RunWord.from_string("ab") != RunWord.from_string("ba")
