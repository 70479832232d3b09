import re
import time
from itertools import islice
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from substoe import bratteli
from substoe.bratteli import FinitePath, OrderedDiagram, diagram_from_substitution
from substoe.errors import CapabilityError, DomainError, PathError
from substoe.matrix import ExactMatrix
from substoe.subst import Substitution
from substoe.words import RunWord


def golden():
    return Substitution({"a": "ab", "b": "abb"})


def golden_diagram(level0=None):
    return diagram_from_substitution(golden(), level0)


# Table caps that reach every regime of chain_paths: 1 walks with the
# odometer alone over root edges made on demand, 5 joins a one-level
# table to the odometer, 60 joins tables of two or three levels, and the
# default covers every example below with the table alone.
TABLE_CAPS = (1, 5, 60, bratteli.TABLE_EDGE_CAP)


def walks(d, depth):
    """chain_paths(depth) walked once under each of TABLE_CAPS."""
    out = []
    for cap in TABLE_CAPS:
        with patch.object(bratteli, "TABLE_EDGE_CAP", cap):
            out.append(list(d.chain_paths(depth)))
    return out


def stepped(d, depth, count):
    """minimal_path(depth) and its first vershik_successor steps."""
    path, out = d.minimal_path(depth), []
    while path is not None and len(out) < count:
        out.append(path)
        path = d.vershik_successor(path)
    return out


def path_key(path):
    # deepest edge decides first in the adic order
    return tuple(reversed(path.choices)) + (path.root_index,)


class TestConstruction:
    def test_from_substitution(self):
        d = golden_diagram()
        assert d.vertices == ("a", "b")
        assert d.incidence == ExactMatrix.from_rows([[1, 1], [1, 2]])
        assert d.level0 == (1, 1)
        assert d.orders["b"] == RunWord.from_string("abb")

    def test_round_trip(self):
        s = golden()
        back = diagram_from_substitution(s).substitution_read()
        assert back.rules == s.rules
        assert back.alphabet == s.alphabet
        assert back.incidence_matrix() == s.incidence_matrix()

    def test_order_word_must_match_counts(self):
        f = ExactMatrix.from_rows([[1, 1], [1, 2]])
        with pytest.raises(DomainError):
            OrderedDiagram(("a", "b"), f, (1, 1), {"a": "ab", "b": "aab"})

    def test_missing_order(self):
        f = ExactMatrix.from_rows([[1, 1], [1, 2]])
        with pytest.raises(DomainError):
            OrderedDiagram(("a", "b"), f, (1, 1), {"a": "ab"})

    def test_level0_positive(self):
        f = ExactMatrix.from_rows([[1, 1], [1, 2]])
        for level0 in ((0, 1), (1, 1, 1)):
            with pytest.raises(DomainError,
                               match="^every vertex needs at least one root edge$"):
                OrderedDiagram(("a", "b"), f, level0, {"a": "ab", "b": "abb"})

    def test_dead_vertex_rejected(self):
        f = ExactMatrix.from_rows([[1, 0], [1, 0]])
        with pytest.raises(DomainError):
            OrderedDiagram(("a", "b"), f, (1, 1), {"a": "a", "b": "a"})

    def test_non_integer_rejected(self):
        # the incidence cannot even be built: matrices hold integers
        from fractions import Fraction
        with pytest.raises(DomainError, match="non-integer"):
            ExactMatrix.from_rows([[Fraction(1, 2), 1], [1, 2]])
        f = ExactMatrix.from_rows([[-1, 1], [1, 2]])
        with pytest.raises(DomainError, match="nonnegative integers"):
            OrderedDiagram(("a", "b"), f, (1, 1), {"a": "ab", "b": "abb"})


class TestPathCounts:
    def test_golden_levels(self):
        d = golden_diagram()
        assert d.path_counts(4) == [(1, 1), (2, 3), (5, 8), (13, 21)]

    def test_root_multiplicities(self):
        d = golden_diagram(level0=(2, 1))
        assert d.path_counts(2) == [(2, 1), (3, 4)]

    def test_depth_must_be_positive(self):
        with pytest.raises(DomainError):
            golden_diagram().path_counts(0)


class TestPaths:
    def test_valid_path(self):
        d = golden_diagram()
        p = FinitePath(d, ("b", "a"), 0, (1,))
        assert p.depth == 2
        assert (p.vertices, p.root_index, p.choices) == (("b", "a"), 0, (1,))

    def test_source_mismatch(self):
        d = golden_diagram()
        with pytest.raises(PathError):
            FinitePath(d, ("a", "a"), 0, (1,))  # position 1 of "ab" is b

    def test_position_out_of_range(self):
        d = golden_diagram()
        with pytest.raises(PathError):
            FinitePath(d, ("a", "a"), 0, (2,))

    def test_root_index_out_of_range(self):
        d = golden_diagram()
        with pytest.raises(PathError):
            FinitePath(d, ("a",), 1, ())

    def test_unknown_vertex(self):
        d = golden_diagram()
        with pytest.raises(PathError):
            FinitePath(d, ("c",), 0, ())

    def test_extremes(self):
        d = golden_diagram()
        lo = d.minimal_path(3, "b")
        hi = d.maximal_path(3, "b")
        assert lo.vertices == ("a", "a", "b") and lo.choices == (0, 0)
        assert hi.vertices == ("b", "b", "b") and hi.choices == (2, 2)
        assert lo.is_minimal() and not lo.is_maximal()
        assert hi.is_maximal() and not hi.is_minimal()


class TestVershik:
    def test_depth2_chain_frozen(self):
        d = golden_diagram()
        got = [(p.vertices, p.root_index, p.choices)
               for p in d.chain_paths(2)]
        assert got == [
            (("a", "a"), 0, (0,)),
            (("b", "a"), 0, (1,)),
            (("a", "b"), 0, (0,)),
            (("b", "b"), 0, (1,)),
            (("b", "b"), 0, (2,)),
        ]

    def test_depth3_chain_into_a(self):
        d = golden_diagram()
        path = d.minimal_path(3, "a")
        seen = []
        while path is not None and path.vertices[-1] == "a":
            seen.append((path.vertices, path.choices))
            path = d.vershik_successor(path)
        assert seen == [
            (("a", "a", "a"), (0, 0)),
            (("b", "a", "a"), (1, 0)),
            (("a", "b", "a"), (0, 1)),
            (("b", "b", "a"), (1, 1)),
            (("b", "b", "a"), (2, 1)),
        ]
        # the walk continues at the minimal path of the next tower
        assert path == d.minimal_path(3, "b")

    def test_depth4_totals(self):
        d = golden_diagram()
        paths = list(d.chain_paths(4))
        assert len(paths) == 34
        assert len(set(paths)) == 34
        by_end = {}
        for p in paths:
            by_end.setdefault(p.vertices[-1], []).append(p)
        assert len(by_end["a"]) == 13
        assert len(by_end["b"]) == 21
        for group in by_end.values():
            assert group[0].is_minimal()
            assert group[-1].is_maximal()
            assert [path_key(p) for p in group] == sorted(
                path_key(p) for p in group)

    def test_successor_crosses_towers_in_label_order(self):
        d = golden_diagram()
        path = d.minimal_path(5)
        ends = []
        while path is not None:
            ends.append(path.vertices[-1])
            path = d.vershik_successor(path)
        # depth 5 towers hold 34 and 55 paths; one switch, a before b
        assert ends == ["a"] * 34 + ["b"] * 55

    def test_root_edges_cycle_first(self):
        d = golden_diagram(level0=(2, 1))
        p = d.minimal_path(2, "a")
        q = d.vershik_successor(p)
        assert q.root_index == 1 and q.choices == p.choices
        r = d.vershik_successor(q)
        assert r.root_index == 0 and r.choices == (1,)

    def test_foreign_path_rejected(self):
        d1 = golden_diagram()
        d2 = golden_diagram()
        p = d1.minimal_path(2, "a")
        with pytest.raises(DomainError):
            d2.vershik_successor(p)


class TestMeasure:
    def test_level_sums_are_eigenvalue_powers(self):
        d = golden_diagram()
        field, weights, lam = d.measure_eigenvector()
        counts = d.path_counts(10)
        for n, h in enumerate(counts, start=1):
            total = field.zero()
            for m, w in zip(h, weights):
                total = total + w * m
            assert total == lam ** (n - 1)

    def test_depth1_measures_sum_to_one(self):
        d = golden_diagram(level0=(2, 1))
        field, weights, lam = d.measure_eigenvector()
        total = field.zero()
        for p in d.chain_paths(1):
            total = total + d.cylinder_measure(p)
        assert total == field.one()

    def test_cylinder_scaling(self):
        d = golden_diagram()
        field, weights, lam = d.measure_eigenvector()
        deep = d.minimal_path(4, "b")
        shallow = d.minimal_path(1, "b")
        assert d.cylinder_measure(deep) * lam ** 3 == d.cylinder_measure(shallow)

    def test_needs_primitive(self):
        f = ExactMatrix.from_rows([[1, 1], [0, 1]])
        d = OrderedDiagram(("a", "b"), f, (1, 1), {"a": "ab", "b": "b"})
        with pytest.raises(DomainError, match="^matrix is not primitive$"):
            d.measure_eigenvector()

    def test_foreign_path_rejected(self):
        d1 = golden_diagram()
        p = d1.minimal_path(2, "a")
        with pytest.raises(DomainError):
            golden_diagram().cylinder_measure(p)


class TestTelescope:
    def test_golden_two_steps(self):
        d = golden_diagram().telescope(2)
        assert d.incidence == ExactMatrix.from_rows([[2, 3], [3, 5]])
        assert d.level0 == (2, 3)
        assert d.orders["a"] == RunWord.from_string("ababb")
        assert d.orders["b"] == RunWord.from_string("ababbabb")

    def test_counts_match_original(self):
        base = golden_diagram()
        tel = base.telescope(2)
        assert tel.path_counts(2)[-1] == base.path_counts(4)[-1]
        assert len(list(tel.chain_paths(2))) == 34

    def test_one_step_is_identity(self):
        base = golden_diagram()
        tel = base.telescope(1)
        assert tel.incidence == base.incidence
        assert tel.level0 == base.level0
        assert tel.orders == base.orders

    def test_composition(self):
        base = golden_diagram()
        assert base.telescope(2).telescope(3).incidence == \
            base.telescope(6).incidence
        assert base.telescope(2).telescope(3).level0 == \
            base.telescope(6).level0

    def test_measure_agrees_numerically(self):
        base = golden_diagram()
        tel = base.telescope(2)
        _, bw, blam = base.measure_eigenvector()
        _, tw, tlam = tel.measure_eigenvector()
        deep = base.minimal_path(4, "a")
        tdeep = tel.minimal_path(2, "a")
        mu = float(base.cylinder_measure(deep).approx(30))
        tmu = float(tel.cylinder_measure(tdeep).approx(30))
        assert abs(mu - tmu) < 1e-12

    def test_needs_positive_steps(self):
        with pytest.raises(DomainError):
            golden_diagram().telescope(0)


class TestProperOrder:
    def test_golden_proper(self):
        ok, witness = golden_diagram().is_properly_ordered()
        assert ok and witness == (1, "a", "b")

    def test_swap_order_not_proper(self):
        s = Substitution({"a": "ab", "b": "ba"})
        ok, witness = diagram_from_substitution(s).is_properly_ordered()
        assert not ok and witness is None


class TestHugeOrders:
    def test_run_compressed_edges(self):
        big = 10 ** 9
        f = ExactMatrix.from_rows([[big, 1], [1, 1]])
        orders = {"a": RunWord((("a", big), ("b", 1))), "b": "ab"}
        d = OrderedDiagram(("a", "b"), f, (1, 1), orders)
        hi = d.maximal_path(2, "a")
        assert hi.choices == (big,)
        assert hi.vertices == ("b", "a")
        lo = d.minimal_path(2, "a")
        nxt = d.vershik_successor(lo)
        assert nxt.choices == (1,) and nxt.vertices == ("a", "a")
        assert d.path_counts(2)[-1] == (big + 1, 2)

    def test_dot_budget(self):
        big = 10 ** 9
        f = ExactMatrix.from_rows([[big, 1], [1, 1]])
        orders = {"a": RunWord((("a", big), ("b", 1))), "b": "ab"}
        d = OrderedDiagram(("a", "b"), f, (1, 1), orders)
        with pytest.raises(CapabilityError, match=r"^diagram slice has "
                           r"1000000005 edges, over the edge budget of 500$"):
            d.export_dot(2)


class TestDot:
    def test_golden_depth2(self):
        text = golden_diagram().export_dot(2)
        lines = [l for l in text.splitlines() if "->" in l]
        assert len(lines) == 2 + 5
        nodes = [l for l in text.splitlines()
                 if l.strip().startswith('"L') and "->" not in l]
        assert len(nodes) == 4
        assert text == golden_diagram().export_dot(2)

    def test_depth_validation(self):
        with pytest.raises(DomainError):
            golden_diagram().export_dot(0)

    def test_quotes_and_backslashes_are_escaped(self):
        letters = ('a"', "b\\", '\\"c')
        s = Substitution({letters[0]: [letters[0], letters[1]],
                          letters[1]: [letters[2], letters[0]],
                          letters[2]: [letters[0]]})
        text = diagram_from_substitution(s).export_dot(2)
        names = {"L%d_%s" % (level, v) for level in (0, 1) for v in letters}
        quoted = re.findall(r'"((?:[^"\\]|\\.)*)"', text)
        seen = {re.sub(r"\\(.)", r"\1", q) for q in quoted}
        assert seen == names | set(letters) | {"0", "1"}
        # every line but the braces is an id, an edge or a labelled node
        for line in text.splitlines()[1:-1]:
            rest = re.sub(r'"(?:[^"\\]|\\.)*"', "ID", line)
            assert rest in ("  rankdir=TB;", "  root [shape=point];",
                            "  ID [label=ID];", "  root -> ID [label=ID];",
                            "  ID -> ID [label=ID];"), line


@st.composite
def primitive_substitutions(draw):
    letters = ("a", "b", "c")[:draw(st.integers(2, 3))]
    rules = {}
    for l in letters:
        n = draw(st.integers(1, 4))
        rules[l] = "".join(draw(st.sampled_from(letters)) for _ in range(n))
    s = Substitution(rules)
    if s.primitivity() is None:
        # salvage: append every other letter to each rule
        rules = {l: rules[l] + "".join(m for m in letters if m != l)
                 for l in letters}
        s = Substitution(rules)
    return s


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(primitive_substitutions(), st.integers(1, 3))
    def test_round_trip_and_counts(self, s, depth):
        d = diagram_from_substitution(s)
        assert d.substitution_read().rules == s.rules
        total = sum(d.path_counts(depth)[-1])
        if total <= 400:
            for paths in walks(d, depth):
                assert len(paths) == total
                assert len(set(paths)) == total

    @settings(max_examples=40, deadline=None)
    @given(primitive_substitutions())
    def test_telescope_matches_power(self, s):
        d = diagram_from_substitution(s).telescope(2)
        assert d.substitution_read().rules == s.power(2).rules


@st.composite
def ordered_diagrams(draw):
    """Random ordered diagrams: 1-3 vertices, root multiplicities up to 3,
    order words in runs form, sometimes telescoped."""
    vertices = ("a", "b", "c")[:draw(st.integers(1, 3))]
    orders = {}
    for v in vertices:
        runs = draw(st.lists(st.tuples(st.sampled_from(vertices),
                                       st.integers(1, 3)),
                             min_size=1, max_size=4))
        orders[v] = RunWord(runs)
    # every vertex needs an outgoing edge: put it into some order word
    for i, v in enumerate(vertices):
        if all(v not in orders[w].letter_counts() for w in vertices):
            host = vertices[(i + 1) % len(vertices)]
            orders[host] = orders[host] + RunWord([(v, 1)])
    counts = [orders[v].letter_counts() for v in vertices]
    incidence = ExactMatrix.from_rows(
        [[cnt.get(w, 0) for w in vertices] for cnt in counts])
    level0 = draw(st.lists(st.integers(1, 3), min_size=len(vertices),
                           max_size=len(vertices)))
    d = OrderedDiagram(vertices, incidence, level0, orders)
    if draw(st.booleans()):
        d = d.telescope(2)
    return d


def validated(path):
    """The same path rebuilt through the public, fully checked constructor."""
    return FinitePath(path.diagram, path.vertices, path.root_index,
                      path.choices)


class TestDerivedPaths:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(ordered_diagrams(), st.integers(1, 4))
    def test_walk_matches_validated_paths(self, d, depth):
        total = sum(d.path_counts(depth)[-1])
        if total > 3000:
            return
        for paths in walks(d, depth):
            assert len(paths) == total
            assert len(set(paths)) == total
            for path in paths:
                again = validated(path)
                assert again == path
                assert type(path.vertices) is tuple
                assert type(path.choices) is tuple
                assert all(type(c) is int for c in path.choices)
                assert type(path.root_index) is int
            for path, following in zip(paths, paths[1:] + [None]):
                step = d.vershik_successor(path)
                assert step == following
                if step is not None:
                    assert validated(step) == step
        for v in d.vertices:
            for path in (d.minimal_path(depth, v), d.maximal_path(depth, v)):
                assert validated(path) == path


def many_run_diagram(run_count):
    """a -> a b^2 a^3 b a^2 b^3 ... with run_count runs, b -> a."""
    word = RunWord([("ab"[i % 2], 1 + i % 3) for i in range(run_count)])
    counts = word.letter_counts()
    incidence = ExactMatrix.from_rows([[counts["a"], counts["b"]], [1, 0]])
    return OrderedDiagram(("a", "b"), incidence, (1, 1),
                          {"a": word, "b": "a"})


class TestOdometerWalk:
    def test_walk_reads_no_letter_by_position(self, monkeypatch):
        calls = []
        original = RunWord.letter_at

        def counting(word, index):
            calls.append(index)
            return original(word, index)

        monkeypatch.setattr(RunWord, "letter_at", counting)
        monkeypatch.setattr(OrderedDiagram, "vershik_successor", None)
        for d in (golden_diagram(level0=(2, 1)), many_run_diagram(30)):
            assert len(list(d.chain_paths(4))) == sum(d.path_counts(4)[-1])
        assert calls == []

    def test_many_runs_walk(self):
        d = many_run_diagram(3000)
        assert len(d.orders["a"].runs) == 3000
        paths = list(islice(d.chain_paths(3), 200000))
        assert len(paths) == 200000
        # all inside the tower over a, in strictly increasing adic order
        keys = [path_key(p) for p in paths]
        assert all(p.vertices[-1] == "a" for p in paths)
        assert all(x < y for x, y in zip(keys, keys[1:]))
        assert paths[0] == d.minimal_path(3)
        for k in (0, 5999, 6000, 6001, 123456, 199998):
            assert d.vershik_successor(paths[k]) == paths[k + 1]
        for path in paths[::20000]:
            assert validated(path) == path

    @pytest.mark.parametrize("d", [
        OrderedDiagram(("a", "b"), ExactMatrix.from_rows([[10 ** 6, 1], [1, 0]]),
                       (1, 1), {"a": RunWord((("a", 10 ** 6), ("b", 1))),
                                "b": "a"}),
        many_run_diagram(3000),
    ], ids=["huge-run", "many-runs"])
    def test_table_stops_at_its_cap(self, d):
        # a table grown past the cap would take about a second here
        start = time.perf_counter()
        first = list(islice(d.chain_paths(3), 10))
        assert time.perf_counter() - start < 0.1
        assert first == stepped(d, 3, 10)

    @pytest.mark.parametrize("rules, depth", [
        ({"a": "a", "b": "b"}, 20000),
        ({"a": "ab", "b": "b"}, 1000),
    ], ids=["identity", "linear"])
    def test_slow_growth_keeps_the_table_short(self, rules, depth):
        # counted in rows alone, these tables would grow to every level
        # (or thousands of them) and take seconds before the first path
        d = diagram_from_substitution(Substitution(rules))
        start = time.perf_counter()
        first = list(islice(d.chain_paths(depth), 3))
        assert time.perf_counter() - start < 0.1
        assert first == stepped(d, depth, 3)

    def test_default_table_joins_the_odometer(self):
        # golden depth 10: an 8-level table under two odometer levels
        d = golden_diagram()
        paths = list(d.chain_paths(10))
        assert len(paths) == sum(d.path_counts(10)[-1]) == 10946
        with patch.object(bratteli, "TABLE_EDGE_CAP", 1):
            assert list(d.chain_paths(10)) == paths
        for k in range(0, len(paths) - 1, 97):
            assert d.vershik_successor(paths[k]) == paths[k + 1]
        assert d.vershik_successor(paths[-1]) is None

    def test_huge_root_multiplicity_walks_lazily(self):
        d = golden_diagram(level0=(2 ** 5000, 1))
        for depth in (1, 2):
            first = list(islice(d.chain_paths(depth), 5))
            assert [p.root_index for p in first] == [0, 1, 2, 3, 4]
            assert first == stepped(d, depth, 5)

    def test_depth_zero_refused_on_first_step(self):
        walk = golden_diagram().chain_paths(0)
        with pytest.raises(DomainError):
            next(walk)

    def test_depth_one_cycles_root_edges(self):
        d = golden_diagram(level0=(2, 3))
        got = [(p.vertices, p.root_index, p.choices) for p in d.chain_paths(1)]
        assert got == [(("a",), 0, ()), (("a",), 1, ()), (("b",), 0, ()),
                       (("b",), 1, ()), (("b",), 2, ())]
        path, stepped = d.minimal_path(1), []
        while path is not None:
            stepped.append(path)
            path = d.vershik_successor(path)
        assert list(d.chain_paths(1)) == stepped


class TestPathCountBudget:
    def test_doubling_counts_stop_past_the_budget(self):
        from substoe.bratteli import PATH_COUNT_BITS
        d = OrderedDiagram(("a",), ExactMatrix.from_rows([[2]]), (1,),
                           {"a": "aa"})
        counts = d.path_counts(PATH_COUNT_BITS)
        assert counts[-1] == (2 ** (PATH_COUNT_BITS - 1),)
        with pytest.raises(CapabilityError,
                           match="depth 4097 has 4097 bits, over the budget "
                                 "of 4096 bits"):
            d.path_counts(PATH_COUNT_BITS + 1)

    def test_fibonacci_refuses_at_the_first_depth_over(self):
        d = diagram_from_substitution(Substitution({"a": "ab", "b": "a"}))
        with pytest.raises(CapabilityError, match="depth 5901 has 4097 bits"):
            d.path_counts(200_000)

    def test_levels_times_vertices_over_the_entry_budget(self):
        from substoe.words import EXPAND_CAP
        d = diagram_from_substitution(Substitution({"a": "ab", "b": "b"}))
        assert d.path_counts(100_000)[-1] == (100_000, 1)
        depth = EXPAND_CAP // 2 + 1
        with pytest.raises(CapabilityError,
                           match="^path counts to depth %d have %d entries, "
                                 "over the budget of %d entries$"
                                 % (depth, 2 * depth, EXPAND_CAP)):
            d.path_counts(depth)
        # refused before any level is built
        with pytest.raises(CapabilityError, match="depth 10000000000 "):
            d.path_counts(10 ** 10)

    def test_huge_root_multiplicity_refused_at_depth_one(self):
        f = ExactMatrix.from_rows([[1, 1], [1, 2]])
        d = OrderedDiagram(("a", "b"), f, (2 ** 5000, 1),
                           {"a": "ab", "b": "abb"})
        with pytest.raises(CapabilityError, match="depth 1 has 5001 bits"):
            d.path_counts(1)


IDENTITY = Substitution({"a": "a", "b": "b"})
LINEAR = Substitution({"a": "ab", "b": "b"})


class TestTelescopeBudget:
    def test_refused_before_any_composition(self, monkeypatch):
        def no_compose(self, other):
            raise AssertionError("composed an image")

        monkeypatch.setattr(Substitution, "compose", no_compose)
        d = diagram_from_substitution(Substitution({"a": "ab", "b": "a"}))
        with pytest.raises(CapabilityError,
                           match="power 30 image of 'a' has 2178309 letters, "
                                 "over the expansion budget of 2000000"):
            d.telescope(100_000)

    @pytest.mark.parametrize("steps", [10 ** 6, 10 ** 9])
    def test_slow_growth_answers_in_log_steps(self, steps):
        start = time.perf_counter()
        d = diagram_from_substitution(IDENTITY).telescope(steps)
        assert d.substitution_read().rules == IDENTITY.rules
        assert d.incidence == ExactMatrix.identity(2)
        assert time.perf_counter() - start < 5

    def test_linear_growth_answers_within_the_guard(self):
        start = time.perf_counter()
        d = diagram_from_substitution(LINEAR).telescope(10 ** 6)
        assert d.substitution_read().rules["a"] == RunWord(
            (("a", 1), ("b", 10 ** 6)))
        assert time.perf_counter() - start < 5

    def test_linear_growth_names_the_first_power_over(self, monkeypatch):
        def no_compose(self, other):
            raise AssertionError("composed an image")

        monkeypatch.setattr(Substitution, "compose", no_compose)
        start = time.perf_counter()
        with pytest.raises(CapabilityError,
                           match="power 2000000 image of 'a' has 2000001 "
                                 "letters, over the expansion budget of "
                                 "2000000"):
            diagram_from_substitution(LINEAR).telescope(10 ** 9)
        assert time.perf_counter() - start < 5
