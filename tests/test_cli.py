import io
import json
import os
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from substoe import cli as cli_module
from substoe.cli import main
from substoe.errors import CapabilityError, InternalError, MalformedInputError

GOLDEN = {"substitution": {"rules": {"a": "ab", "b": "abb"}}}
A0 = [[1, 1], [1, 2]]
A1 = [[1, 1, 1], [2, 3, 1], [8, 13, 0]]


@pytest.fixture
def cli(monkeypatch, capsys):
    def run(argv, document=None):
        if document is not None:
            text = document if isinstance(document, str) else json.dumps(document)
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run


def out_json(out):
    return json.loads(out)


def err_json(err):
    return json.loads(err)["error"]


class TestExitCodes:
    def test_invalid_json_exits_three(self, cli):
        code, out, err = cli(["complexity", "-"], document="not json")
        assert code == 3
        assert out == ""
        assert err_json(err)["kind"] == "malformed"

    @pytest.mark.parametrize("kind", ["digits", "nesting"])
    def test_oversized_json_exits_three(self, cli, kind):
        # an integer literal over Python's digit limit, and nesting deeper
        # than the recursion limit, are bad documents, not internal errors
        limit = sys.get_int_max_str_digits()
        document, words = {
            "digits": ("[%s]" % ("1" * (limit + 700)),
                       "Exceeds the limit (%d digits)" % limit),
            "nesting": ("[" * 100000, "maximum recursion depth exceeded"),
        }[kind]
        code, out, err = cli(["perron", "-"], document=document)
        assert (code, out) == (3, "")
        error = err_json(err)
        assert error["kind"] == "malformed"
        assert error["message"].startswith("invalid JSON: " + words)

    def test_undecodable_file_exits_three(self, cli, tmp_path):
        path = tmp_path / "doc.json"
        path.write_bytes(b'{"matrix": [[1, \xff]]}')
        code, out, err = cli(["perron", str(path)])
        assert (code, out) == (3, "")
        error = err_json(err)
        assert error["kind"] == "malformed"
        assert error["message"].startswith("cannot read %s: " % path)

    def test_unknown_field_rejected(self, cli):
        code, _, err = cli(
            ["perron", "-"], document={"matrix": A0, "bogus": 1})
        assert code == 3
        assert "bogus" in err_json(err)["message"]

    def test_missing_field_rejected(self, cli):
        code, _, err = cli(["perron", "-"], document={})
        assert code == 3
        assert err_json(err)["kind"] == "malformed"

    def test_unknown_subcommand_exits_three(self, cli, capsys):
        code = main(["nonsense"])
        capsys.readouterr()
        assert code == 3

    def test_no_subcommand_exits_three(self, cli):
        code, _, err = cli([])
        assert code == 3

    def test_nonpositive_flag_rejected(self, cli):
        code, _, err = cli(["complexity", "-", "--n-max", "0"],
                           document=GOLDEN)
        assert code == 3

    @pytest.mark.parametrize("argv", [
        ["perron", "-", "--n-max", "3"],
        ["complexity", "-", "--cap-power", "3"],
        ["language", "-", "--dot"],
        ["diagram", "-", "--seed-letter", "a"],
        ["enlarge", "-", "--probe", "5"],
        ["s-member", "-", "--n-max", "3"],
        ["enumerate-y", "-", "--cap-power", "3"],
        ["verify-paper", "--cap-power", "3"],
        ["groups-equal", "-", "--cap-power", "3"],
        ["enlarge", "-", "--cap-power", "3"],
        ["family-soe", "-", "--cap-power", "3"],
        ["family-oe", "-", "--cap-power", "3"],
        ["complexity", "-", "--json"],
    ])
    def test_flag_of_another_subcommand_is_malformed(self, cli, argv):
        code, out, err = cli(argv, document=GOLDEN)
        assert code == 3
        assert out == ""
        assert err_json(err)["kind"] == "malformed"

    def test_domain_error_exits_one(self, cli):
        code, _, err = cli(
            ["perron", "-"], document={"matrix": [[1, 0], [0, 1]]})
        assert code == 1
        assert err_json(err)["kind"] == "domain"

    def test_capability_error_exits_two(self, cli):
        code, _, err = cli(["enumerate-y", "-"], document={"q": 33})
        assert code == 2
        assert err_json(err)["kind"] == "capability"

    def test_reader_closing_stdout_early_exits_one_silently(self):
        # the 853 KB document still overfills the pipe, so the write meets
        # the closed read end
        src = os.path.dirname(os.path.dirname(cli_module.__file__))
        with subprocess.Popen(
                [sys.executable, "-m", "substoe.cli", "enumerate-y", "-"],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                env=dict(os.environ, PYTHONPATH=src)) as proc:
            proc.stdin.write(b'{"q": 32}')
            proc.stdin.close()
            assert proc.stdout.read(10) == b'{\n  "base"'
            proc.stdout.close()
            assert proc.wait(timeout=60) == 1
            assert proc.stderr.read() == b""

    def test_unreadable_file_exits_three(self, cli):
        code, _, err = cli(["perron", "/no/such/file.json"])
        assert code == 3

    def test_bad_matrix_entry_rejected(self, cli):
        code, _, err = cli(
            ["perron", "-"], document={"matrix": [[1.5, 1], [1, 2]]})
        assert code == 3

    @pytest.mark.parametrize("entry", [1.5, True, None])
    def test_non_number_matrix_entry_message(self, cli, entry):
        code, out, err = cli(
            ["perron", "-"], document={"matrix": [[1, 1], [entry, 2]]})
        assert (code, out) == (3, "")
        assert err_json(err)["message"] == (
            "matrix entries must be integers or rational strings")

    def test_integer_entries_pass_through(self, monkeypatch):
        # no Fraction per JSON integer, one digit-limit read per matrix
        reads = []
        limit = sys.get_int_max_str_digits()
        monkeypatch.setattr(cli_module, "Fraction", None)
        monkeypatch.setattr(sys, "get_int_max_str_digits",
                            lambda: reads.append(1) or limit)
        rows = [[(i * j) % 7 for j in range(30)] for i in range(30)]
        assert cli_module._parse_matrix(rows).int_rows() == rows
        assert reads == [1]

    def test_non_integral_matrix_entry_is_a_domain_error(self, cli):
        code, out, err = cli(
            ["perron", "-"], document={"matrix": [["1.5", 1], [1, 2]]})
        assert (code, out) == (1, "")
        assert err_json(err) == {"kind": "domain",
                                 "message": "matrix has non-integer entries"}

    @pytest.mark.parametrize("argv,document", [
        (["perron", "-"], {"matrix": [["1e100000", 1], [1, 2]]}),
        (["s-member", "-"], {"matrix": A0, "value": "1e-10000000"}),
    ], ids=["numerator", "denominator"])
    def test_rational_string_over_the_digit_limit_exits_three(
            self, cli, argv, document):
        # decided from the string, before Fraction builds the number
        start = time.perf_counter()
        code, out, err = cli(argv, document=document)
        assert time.perf_counter() - start < 1
        assert (code, out) == (3, "")
        assert err_json(err)["kind"] == "malformed"
        assert ("over %d digits" % sys.get_int_max_str_digits()
                in err_json(err)["message"])

    def test_long_bad_rational_is_echoed_as_a_prefix(self, cli):
        code, out, err = cli(["perron", "-"],
                             document={"matrix": [["x" * 100000, 1], [1, 2]]})
        assert (code, out) == (3, "")
        assert len(err.encode()) < 1024
        assert err_json(err)["message"] == (
            "bad rational %r... (100000 characters) in matrix" % ("x" * 40))
        code, _, err = cli(["perron", "-"], document={"matrix": [["1/0", 1], [1, 2]]})
        assert code == 3
        assert err_json(err)["message"] == "bad rational '1/0' in matrix"

    def test_rational_strings_within_the_digit_limit(self):
        limit = sys.get_int_max_str_digits()

        def parse(node, where):
            return cli_module._parse_entry(node, where, limit)
        assert parse("3", "x") == 3
        assert parse("-7/4", "x") == Fraction(-7, 4)
        assert parse("1.5", "x") == Fraction(3, 2)
        # numerator and denominator of exactly `limit` digits still parse
        assert parse("1e%d" % (limit - 1), "x") == 10 ** (limit - 1)
        assert parse("1e-%d" % (limit - 1), "x") == Fraction(1, 10 ** (limit - 1))
        assert parse("1/%s" % ("9" * limit), "x").denominator == 10 ** limit - 1
        for text in ("1e%d" % limit, "1e-%d" % limit, "1/1%s" % ("0" * limit),
                     "0.%s1" % ("0" * limit)):
            with pytest.raises(MalformedInputError, match="over %d digits"
                               % limit):
                parse(text, "x")


class TestComplexity:
    def test_golden_profile(self, cli):
        code, out, _ = cli(["complexity", "-", "--n-max", "10"],
                           document=GOLDEN)
        assert code == 0
        assert out_json(out) == {
            "n_max": 10,
            "profile": [2, 3, 4, 5, 6, 7, 8, 9, 10, 11],
        }

    def test_reads_from_file(self, cli, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(GOLDEN))
        code, out, _ = cli(["complexity", str(path), "--n-max", "3"])
        assert code == 0
        assert out_json(out)["profile"] == [2, 3, 4]


class TestPerron:
    def test_golden_matrix(self, cli):
        code, out, _ = cli(["perron", "-"], document={"matrix": A0})
        assert code == 0
        doc = out_json(out)
        assert doc["degree"] == 2
        assert doc["min_poly"] == [1, -3, 1]
        assert doc["primitivity_exponent"] == 1
        assert doc["eigenvector"][0]["coords"] == ["3", "-1"]
        assert doc["eigenvalue"]["approx"].startswith("2.618033988")

    def test_rational_string_entries(self, cli):
        # schema admits rational strings; integrality is checked deeper
        code, out, _ = cli(
            ["perron", "-"],
            document={"matrix": [["1", "1"], ["1", "2"]]})
        assert code == 0

    def test_singular_matrix_interval_changes_the_owner_sign(self, cli):
        # charpoly t^3 - 4t^2 - 8t: the root isolation ends on the root 0
        # of t, and the printed interval is certified by t^2 - 4t - 8
        code, out, _ = cli(["perron", "-"], document={
            "matrix": [[2, 2, 3], [2, 2, 1], [2, 2, 0]]})
        assert code == 0
        doc = out_json(out)
        assert doc["min_poly"] == [-8, -4, 1]
        assert doc["eigenvalue"]["approx"] == "5.464101615138"
        lo, hi = map(Fraction, doc["eigenvalue"]["interval"])
        owner = [Fraction(c) for c in doc["min_poly"]]

        def value(x):
            return sum(c * x ** i for i, c in enumerate(owner))

        assert value(lo) * value(hi) < 0

    def test_approximations_are_correctly_rounded(self, cli):
        # lambda = 5.94123104841852...; rounding the midpoint of a chain
        # interval printed ...418 or ...419 by the field's first interval
        code, out, _ = cli(["perron", "-"], document={
            "matrix": [[0, 1, 3, 1], [3, 1, 2, 1], [1, 3, 0, 3], [3, 1, 0, 1]]})
        assert code == 0
        assert out_json(out)["eigenvalue"]["approx"] == "5.941231048419"


class TestLanguage:
    def test_two_factors(self, cli):
        code, out, _ = cli(["language", "-", "--n-max", "2"],
                           document=GOLDEN)
        assert code == 0
        doc = out_json(out)
        assert doc["count"] == 3
        assert doc["words"] == [["a", "b"], ["b", "a"], ["b", "b"]]

    def test_seed_prefix(self, cli):
        code, out, _ = cli(
            ["language", "-", "--n-max", "5", "--seed-letter", "a"],
            document=GOLDEN)
        assert code == 0
        assert out_json(out)["prefix"]["letters"] == list("ababb")

    def test_two_sided_seed_prints_both_sides(self, cli):
        doc = {"substitution": {"rules": {"a": "aab", "b": "ab"}}}
        code, out, _ = cli(
            ["language", "-", "--n-max", "3", "--seed-letter", "b.a"],
            document=doc)
        assert code == 0
        assert out_json(out)["prefix"] == {
            "seed": "b.a",
            "letters": {"left": ["b", "a", "b"], "right": ["a", "a", "b"]}}

    @pytest.mark.parametrize("rules, seed, letters", [
        ({"a": "ab", "b": "a"}, "a", ["a"]),
        ({"a": "aab", "b": "ab"}, "b.a", {"left": ["b"], "right": ["a"]}),
    ])
    def test_one_letter_seed_prefix(self, cli, rules, seed, letters):
        code, out, _ = cli(
            ["language", "-", "--n-max", "1", "--seed-letter", seed],
            document={"substitution": {"rules": rules}})
        assert code == 0
        assert out_json(out)["prefix"]["letters"] == letters

    def test_bad_seed_is_domain_error(self, cli):
        code, _, err = cli(
            ["language", "-", "--seed-letter", "z"], document=GOLDEN)
        assert code == 1


class TestDiagram:
    def test_from_substitution(self, cli):
        code, out, _ = cli(["diagram", "-"], document=GOLDEN)
        assert code == 0
        doc = out_json(out)
        assert doc["diagram"]["vertices"] == ["a", "b"]
        assert doc["diagram"]["incidence"] == [[1, 1], [1, 2]]
        assert doc["diagram"]["orders"]["b"]["text"] == "abb"
        read = doc["substitution_read"]["rules"]
        assert read["a"]["text"] == "ab"
        assert doc["path_counts"] == [[1, 1], [2, 3], [5, 8]]

    def test_round_trip(self, cli):
        _, out, _ = cli(["diagram", "-"], document=GOLDEN)
        first = out_json(out)["diagram"]
        code, out, _ = cli(["diagram", "-"], document={"diagram": first})
        assert code == 0
        assert out_json(out)["diagram"] == first

    def test_telescope(self, cli):
        doc = dict(GOLDEN)
        doc["telescope"] = 2
        code, out, _ = cli(["diagram", "-"], document=doc)
        assert code == 0
        assert out_json(out)["diagram"]["incidence"] == [[2, 3], [3, 5]]

    def test_dot_output(self, cli):
        code, out, _ = cli(["diagram", "-", "--dot", "--n-max", "2"],
                           document=GOLDEN)
        assert code == 0
        assert out.startswith("digraph")
        assert '"L1_b"' in out

    def test_needs_exactly_one_source(self, cli):
        code, _, err = cli(["diagram", "-"], document={})
        assert code == 3
        both = {"substitution": GOLDEN["substitution"],
                "diagram": {"vertices": [], "incidence": [],
                            "level0": [], "orders": {}}}
        code, _, err = cli(["diagram", "-"], document=both)
        assert code == 3


class TestBuilders:
    def test_enlarge_golden(self, cli):
        code, out, _ = cli(["enlarge", "-"], document={"matrix": A0})
        assert code == 0
        doc = out_json(out)
        assert doc["matrix"] == A1
        assert doc["power"] == 2
        assert doc["groups"]["status"] == "equal"

    def test_minimize_three_vertex(self, cli):
        code, out, _ = cli(["minimize", "-"], document={"matrix": A1})
        assert code == 0
        doc = out_json(out)
        assert doc["matrix"] == [[2, 3], [3, 5]]
        assert doc["level0"] == [5, 8]
        assert doc["moves"] == [["shear", 0, 1, -1]]
        assert doc["alpha"]["coords"] == ["7", "-1"]
        assert doc["groups"]["status"] == "equal"

    def test_minimize_refusals_name_the_size_reached(self, cli):
        code, _, err = cli(["minimize", "-", "--cap-power", "17"],
                           document={"matrix": [[0, 2, 3], [0, 3, 2],
                                                [3, 0, 3]]})
        assert code == 2
        assert err_json(err)["message"] == (
            "basis adjustment did not stabilize within 17 moves: 1 of 3 "
            "eigendirection coefficients still not positive")
        code, _, err = cli(["minimize", "-", "--cap-power", "1"],
                           document={"matrix": A1})
        assert code == 2
        assert err_json(err)["message"] == (
            "no usable power of the eigenvalue up to 1 for path rows; the "
            "largest lattice coordinate at power 1 has 2 bits")

    def test_minimize_accepts_substitution(self, cli):
        doc = {"substitution": GOLDEN["substitution"]}
        code, out, _ = cli(["minimize", "-"], document=doc)
        assert code == 0
        assert out_json(out)["matrix"] == A0

    def test_minimize_needs_one_source(self, cli):
        code, _, _ = cli(
            ["minimize", "-"],
            document={"matrix": A0,
                      "substitution": GOLDEN["substitution"]})
        assert code == 3

    def test_soe_block_one(self, cli):
        doc = {"substitution": GOLDEN["substitution"], "block_length": 1}
        code, out, _ = cli(["family-soe", "-"], document=doc)
        assert code == 0
        report = out_json(out)
        assert report["power"] == 4
        assert report["separated"] is True
        assert report["full_count"] == 4
        assert report["groups"]["status"] == "equal"

    def test_soe_eigenvalue_one_is_a_domain_error(self, cli):
        doc = {"substitution": {"rules": {"a": "a"}}, "block_length": 1}
        code, out, err = cli(["family-soe", "-"], document=doc)
        assert (code, out) == (1, "")
        assert err_json(err) == {
            "kind": "domain",
            "message": "dominant eigenvalue does not exceed 1"}

    @pytest.mark.parametrize("command, extra", [
        ("family-soe", {"block_length": 1}), ("family-oe", {})])
    def test_non_primitive_builder_input_is_a_domain_error(
            self, cli, command, extra):
        doc = {"substitution": {"rules": {"a": "a", "b": "ab"}}, **extra}
        code, out, err = cli([command, "-"], document=doc)
        assert (code, out) == (1, "")
        assert err_json(err) == {"kind": "domain",
                                 "message": "matrix is not primitive"}

    def test_family_single_step(self, cli):
        code, out, _ = cli(["family-oe", "-"],
                           document={"substitution": GOLDEN["substitution"]})
        assert code == 0
        member = out_json(out)["members"][0]
        assert member["alphabet_size"] == 4
        assert member["slope_bound"] == 2
        assert member["groups"]["status"] == "equal"


class TestValueGroups:
    def test_member_with_coords(self, cli):
        doc = {"matrix": A0, "value": {"coords": ["3", "-1"]}}
        code, out, _ = cli(["s-member", "-"], document=doc)
        assert code == 0
        report = out_json(out)
        assert report["status"] == "member"
        assert report["exponent"] == 0

    def test_rational_non_member(self, cli):
        doc = {"matrix": A0, "value": "1/2"}
        code, out, _ = cli(["s-member", "-", "--cap-power", "50"],
                           document=doc)
        assert code == 0
        report = out_json(out)
        assert report["status"] == "not-member-up-to"
        assert report["cap"] == 50

    def test_groups_equal(self, cli):
        doc = {"first": A0, "second": A1, "m": 2}
        code, out, _ = cli(["groups-equal", "-"], document=doc)
        assert code == 0
        assert out_json(out)["status"] == "equal"

    def test_groups_wrong_power(self, cli):
        doc = {"first": A0, "second": A1, "m": 3}
        code, _, err = cli(["groups-equal", "-"], document=doc)
        assert code == 1
        assert err_json(err)["kind"] == "domain"


class TestEnumerate:
    def test_quarter_weights(self, cli):
        code, out, _ = cli(["enumerate-y", "-"], document={"q": 4})
        assert code == 0
        doc = out_json(out)
        assert doc["count"] == 3
        assert doc["weights"] == ["1/4", "1/2", "3/4", "1"]
        assert sorted(map(tuple, doc["systems"])) == [
            (1, 1, 1, 1), (2, 1, 1), (3, 1)]
        for parts in doc["systems"]:
            weights = [doc["weights"][c - 1] for c in parts]
            assert sum(eval_fraction(w) for w in weights) == 1

    def test_trivial_denominators(self, cli):
        for q, count in ((1, 1), (2, 1)):
            code, out, _ = cli(["enumerate-y", "-"], document={"q": q})
            assert code == 0
            assert out_json(out)["count"] == count

    @pytest.mark.parametrize("q", range(1, 13))
    def test_document_matches_per_system_formatting(self, cli, q):
        """The earlier layout printed each system with the shared fields;
        every such system is read back from the shared fields and the
        system's parts."""
        from substoe.construct import enumerate_rational_y

        def text(value):
            fr = Fraction(value)
            if fr.denominator == 1:
                return str(fr.numerator)
            return "%d/%d" % (fr.numerator, fr.denominator)

        report = enumerate_rational_y(q)
        old = [{
            "partition": list(parts),
            "weights": [text(report["weights"][c - 1]) for c in parts],
            "rows": list(parts),
            "level0": report["level0"],
            "matrix": [list(row) for row in report["matrix"]],
            "base": text(report["base"]),
        } for parts in report["partitions"]]
        code, out, _ = cli(["enumerate-y", "-"], document={"q": q})
        assert code == 0
        doc = out_json(out)
        assert (doc["q"], doc["count"]) == (q, len(old))
        assert [{
            "partition": parts,
            "weights": [doc["weights"][c - 1] for c in parts],
            "rows": parts,
            "level0": doc["level0"],
            "matrix": doc["matrix"],
            "base": doc["base"],
        } for parts in doc["systems"]] == old

    def test_systems_are_coprime_partitions(self):
        for q in range(1, 33):
            doc = json.loads(cli_module._cmd_enumerate_y({"q": q}, None))
            assert len(doc["systems"]) == doc["count"]
            assert doc["weights"] == [str(Fraction(c, q))
                                      for c in range(1, q + 1)]
            for parts in doc["systems"]:
                assert parts == sorted(parts, reverse=True)
                assert sum(parts) == q
                assert gcd(*parts) == 1


class TestBudgets:
    def test_enumerate_over_the_cap(self, cli):
        code, out, err = cli(["enumerate-y", "-"], document={"q": 60})
        assert (code, out) == (2, "")
        error = err_json(err)
        assert error["kind"] == "capability"
        assert "960215 coprime partitions" in error["message"]
        assert "cap of 10000 systems" in error["message"]

    def test_diagram_depth_over_the_bit_budget(self, cli):
        doc = {"substitution": {"rules": {"a": "ab", "b": "a"}}}
        code, out, err = cli(["diagram", "-", "--n-max", "30000"],
                             document=doc)
        assert (code, out) == (2, "")
        assert err_json(err)["message"] == (
            "path count at depth 5901 has 4097 bits, over the budget of "
            "4096 bits")

    def test_diagram_depth_over_the_entry_budget(self, cli):
        doc = {"substitution": {"rules": {"a": "ab", "b": "b"}}}
        code, out, err = cli(["diagram", "-", "--n-max", "1000000"],
                             document=doc)
        assert (code, out) == (2, "")
        assert err_json(err)["message"] == (
            "path counts to depth 1000000 have 2000000 entries, over the "
            "budget of 1000000 entries")

    def test_soe_block_over_the_length_budget(self, cli):
        doc = {"substitution": {"rules": {"a": "ab", "b": "a"}},
               "block_length": 16}
        code, out, err = cli(["family-soe", "-"], document=doc)
        assert (code, out) == (2, "")
        assert err_json(err)["message"] == (
            "block length 16 needs a word block of over 2000000 letters, "
            "the expansion budget")

    def test_soe_cut_block_over_the_expansion_cap(self, cli):
        doc = {"substitution": {"rules": {"a": "ab", "b": "a"}},
               "block_length": 15}
        code, out, err = cli(["family-soe", "-"], document=doc)
        assert (code, out) == (2, "")
        assert err_json(err)["message"] == (
            "block length 15 needs a word block of 1048561 letters with "
            "runs cut to 16, over the expansion cap of 1000000")

    @pytest.mark.parametrize("m", [10 ** 6, 10 ** 100])
    def test_groups_equal_power_over_the_bit_budget(self, cli, m):
        # lam**m is refused while it is squared up, before any minimal
        # polynomial is taken
        doc = {"first": A0, "second": A0, "m": m}
        start = time.perf_counter()
        code, out, err = cli(["groups-equal", "-"], document=doc)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        error = err_json(err)
        assert error["kind"] == "capability"
        assert error["message"].startswith("coordinates of eigenvalue power ")
        assert error["message"].endswith(
            " bits, over the budget of 32768 bits")

    def test_language_over_the_word_budget(self, cli):
        doc = {"substitution": {"rules": {"a": "ab", "b": "a"}}}
        start = time.perf_counter()
        code, out, err = cli(["language", "-", "--n-max", "400000"],
                             document=doc)
        assert time.perf_counter() - start < 10
        assert (code, out) == (2, "")
        error = err_json(err)
        assert error["kind"] == "capability"
        assert error["message"].startswith("factors of length 400000 passed ")
        assert error["message"].endswith(" word budget of 2000000")

    def test_telescope_over_the_length_budget(self, cli):
        doc = {"substitution": {"rules": {"a": "ab", "b": "a"}},
               "telescope": 100000}
        code, out, err = cli(["diagram", "-"], document=doc)
        assert (code, out) == (2, "")
        assert err_json(err)["message"] == (
            "power 30 image of 'a' has 2178309 letters, over the expansion "
            "budget of 2000000")


def eval_fraction(text):
    from fractions import Fraction

    return Fraction(text)


def enumerate_y_reference(q):
    """The enumerate-y document built as a dict: the shared fields of the
    enumerate_rational_y(q) report once and one partition per system."""
    from substoe.construct import enumerate_rational_y

    report = enumerate_rational_y(q)
    partitions = report["partitions"]
    return {"q": q, "count": len(partitions),
            "level0": report["level0"],
            "matrix": [list(row) for row in report["matrix"]],
            "base": str(report["base"]),
            "weights": [str(w) for w in report["weights"]],
            "systems": [list(parts) for parts in partitions]}


# One run of every subcommand: (argv, input document, its top-level keys).
DOCUMENT_KEYS = [
    (["perron"], {"matrix": A0},
     {"size", "degree", "min_poly", "eigenvalue", "eigenvector",
      "primitivity_exponent"}),
    (["complexity"], GOLDEN, {"n_max", "profile"}),
    (["language"], GOLDEN, {"length", "count", "words"}),
    (["language", "--seed-letter", "a"], GOLDEN,
     {"length", "count", "words", "prefix"}),
    (["diagram"], GOLDEN, {"diagram", "substitution_read", "path_counts"}),
    (["enlarge"], {"matrix": A0}, {"matrix", "power", "primitivity", "groups"}),
    (["minimize"], {"matrix": A1},
     {"input_size", "output_size", "matrix", "rows", "level0", "basis_power",
      "matrix_power", "moves", "alpha", "weights", "substitution",
      "properness", "groups"}),
    (["family-soe"], dict(GOLDEN, block_length=1),
     {"substitution", "power", "block_length", "full_count", "input_count",
      "separated", "pieces_checked", "properness", "groups"}),
    (["family-oe"], GOLDEN, {"members"}),
    (["s-member"], {"matrix": A0, "value": "1/2"}, {"status", "cap", "value"}),
    (["groups-equal"], {"first": A0, "second": A1, "m": 2},
     {"status", "first_absorbs_at", "second_absorbs_at"}),
    (["enumerate-y"], {"q": 4},
     {"q", "count", "level0", "matrix", "base", "weights", "systems"}),
    (["verify-paper"], None, {"checks", "all_passed"}),
]


class TestDocumentKeys:
    """Handlers print library reports as they are, so a key added to a
    report reaches the CLI document; each document's keys are pinned."""

    @pytest.mark.parametrize("argv,document,keys", DOCUMENT_KEYS,
                             ids=[" ".join(c[0]) for c in DOCUMENT_KEYS])
    def test_top_level_keys(self, cli, argv, document, keys):
        if document is not None:
            argv = argv[:1] + ["-"] + argv[1:]
        code, out, _ = cli(argv, document=document)
        assert code == 0
        assert set(out_json(out)) == keys

    def test_family_member_keys(self, cli):
        code, out, _ = cli(["family-oe", "-"], document=GOLDEN)
        assert code == 0
        for member in out_json(out)["members"]:
            assert set(member) == {"substitution", "alphabet_size",
                                   "slope_bound", "matrix_power",
                                   "properness", "groups"}

    def test_every_subcommand_is_pinned(self):
        assert {c[0][0] for c in DOCUMENT_KEYS} == set(cli_module._COMMANDS)


class TestDeterminism:
    def test_identical_reruns(self, cli):
        doc = {"matrix": A1}
        _, first, _ = cli(["minimize", "-"], document=doc)
        _, second, _ = cli(["minimize", "-"], document=doc)
        assert first == second

    def test_output_round_trips(self, cli):
        _, out, _ = cli(["perron", "-"], document={"matrix": A0})
        assert json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n" == out


class TestVerifyPaper:
    def test_all_checks_pass(self, cli):
        code, out, _ = cli(["verify-paper"])
        assert code == 0
        report = out_json(out)
        assert report["all_passed"] is True
        assert len(report["checks"]) == 12
        for check in report["checks"]:
            assert check["status"] == "pass"
            assert check["witness"] is not None
            assert check["claim"]

    def test_report_is_ordered_and_stable(self, cli):
        _, first, _ = cli(["verify-paper"])
        _, second, _ = cli(["verify-paper"])
        assert first == second
        ids = [c["id"] for c in out_json(first)["checks"]]
        assert ids[0] == "golden-complexity-linear"
        assert ids == sorted(set(ids), key=ids.index)

    def test_discrepancy_entry_reports_no_witness_letter(self, cli):
        _, out, _ = cli(["verify-paper"])
        entry = {c["id"]: c for c in out_json(out)["checks"]}[
            "rewrite-properness-discrepancy"]
        assert entry["witness"]["properness_witness"] is None


FIB_DIAGRAM = {"vertices": ["a", "b"], "incidence": [[1, 1], [1, 0]],
               "level0": [1, 1], "orders": {"a": "ab", "b": "a"}}
FIB = {"rules": {"a": "ab", "b": "a"}}


def with_rule(word):
    return {"substitution": {"rules": {"a": word, "b": "a"}}}


class TestMalformedDocuments:
    """Each input branch exits 3 with its own message."""

    @pytest.mark.parametrize("argv, document, message", [
        (["perron"], [1], "input must be a JSON object"),
        (["perron"], {"matrix": 5}, "matrix must be a list of rows"),
        (["perron"], {"matrix": [1, 2]}, "matrix must be a list of rows"),
        (["complexity"], with_rule(""),
         "empty word in substitution rule 'a'"),
        (["complexity"], with_rule(["a", 1]),
         "substitution rule 'a' letters must be strings"),
        (["complexity"], with_rule({"runs": [["a", 0], ["b", 1]]}),
         "substitution rule 'a' runs must be [letter, positive count] pairs"),
        (["complexity"], with_rule({"runs": [["a", 1], ["b", 1]],
                                    "text": "ba"}),
         "substitution rule 'a' text does not match its runs"),
        (["complexity"], with_rule(5),
         "substitution rule 'a' must be a string, letter list, or runs "
         "object"),
        (["complexity"], {"substitution": {"rules": [["a", "ab"]]}},
         "substitution rules must be an object"),
        (["complexity"], {"substitution": dict(FIB, alphabet="ab")},
         "substitution alphabet must be a list of strings"),
        (["family-soe"], {"substitution": FIB, "block_length": "1"},
         "input block_length must be an integer"),
        (["family-oe"], {"substitution": FIB, "steps": 0},
         "input steps must be at least 1"),
        (["diagram"], {"diagram": dict(FIB_DIAGRAM, vertices="ab")},
         "diagram vertices must be strings"),
        (["diagram"], {"diagram": dict(FIB_DIAGRAM, level0=[1, "1"])},
         "diagram level0 must be integers"),
        (["diagram"], {"diagram": dict(FIB_DIAGRAM, level0=[1, True])},
         "diagram level0 must be integers"),
        (["diagram"], {"diagram": dict(FIB_DIAGRAM, orders=["ab", "a"])},
         "diagram orders must be an object"),
        (["diagram"], {"substitution": FIB, "level0": [1.5, 1]},
         "level0 must be integers"),
        (["diagram"], {"substitution": FIB, "level0": 2},
         "level0 must be integers"),
        (["diagram"], {"diagram": FIB_DIAGRAM, "level0": [1, 1]},
         "level0 belongs inside the diagram object"),
        (["s-member"], {"matrix": A0, "value": {"coords": "1/2"}},
         "value coords must be a list"),
    ])
    def test_exits_three_with_its_message(self, cli, argv, document,
                                          message):
        code, out, err = cli(argv + ["-"], document=document)
        assert (code, out) == (3, "")
        assert err_json(err) == {"kind": "malformed", "message": message}

    def test_letter_list_and_runs_forms_read_as_strings(self, cli):
        _, plain, _ = cli(["complexity", "-"], document=with_rule("ab"))
        for word in (["a", "b"], {"runs": [["a", 1], ["b", 1]],
                                  "text": "ab"}):
            code, out, _ = cli(["complexity", "-"], document=with_rule(word))
            assert (code, out) == (0, plain)

    def test_alphabet_orders_the_vertices(self, cli):
        doc = {"substitution": dict(FIB, alphabet=["b", "a"])}
        code, out, _ = cli(["diagram", "-"], document=doc)
        assert code == 0
        assert out_json(out)["diagram"]["vertices"] == ["b", "a"]

    def test_substitution_level0_is_kept(self, cli):
        doc = {"substitution": FIB, "level0": [2, 1]}
        code, out, _ = cli(["diagram", "-"], document=doc)
        assert code == 0
        assert out_json(out)["diagram"]["level0"] == [2, 1]


class TestInternalErrors:
    def test_failing_paper_check_exits_one(self, cli, monkeypatch):
        def broken():
            raise InternalError("positivity threshold moved")

        monkeypatch.setattr(cli_module, "verify_lind_example", broken)
        code, out, err = cli(["verify-paper"])
        assert (code, err) == (1, "")
        report = out_json(out)
        assert report["all_passed"] is False
        failed = [(c["id"], c["status"], c["witness"])
                  for c in report["checks"] if c["status"] != "pass"]
        assert failed == [("cubic-positivity-threshold", "fail",
                           {"error": "positivity threshold moved"})]

    def test_certificate_failure_is_internal(self, cli, monkeypatch):
        def broken(matrix):
            raise InternalError("enlargement changed the path group")

        monkeypatch.setattr(cli_module, "enlarge_matrix", broken)
        code, out, err = cli(["enlarge", "-"], document={"matrix": A0})
        assert (code, out) == (1, "")
        assert err_json(err) == {
            "kind": "internal",
            "message": "enlargement changed the path group"}

    @pytest.mark.parametrize("exc", [TypeError("boom"), MemoryError()])
    def test_unexpected_exception_is_structured(self, cli, monkeypatch, exc):
        def broken(doc, args):
            raise exc

        _, help_text, flags = cli_module._COMMANDS["complexity"]
        monkeypatch.setitem(cli_module._COMMANDS, "complexity",
                            (broken, help_text, flags))
        code, out, err = cli(["complexity", "-"], document=GOLDEN)
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error["kind"] == "internal"
        assert error["message"].startswith(type(exc).__name__)
        assert "test_cli.py" in error["message"]

    def test_failure_names_the_innermost_frame(self):
        def inner():
            raise KeyError("deep")

        def outer():
            inner()

        try:
            outer()
        except KeyError as exc:
            caught = exc
        last = traceback.extract_tb(caught.__traceback__)[-1]
        assert cli_module._failure(caught) == (
            "internal", 1, "KeyError: 'deep' (at %s:%d)"
            % (os.path.basename(last.filename), last.lineno))
        assert last.name == "inner"


COLD_PATH = """
import contextlib, io, sys
import substoe, substoe.cli
from substoe import cli
with contextlib.redirect_stdout(io.StringIO()) as out:
    assert cli.main(["verify-paper"]) == 0
assert '"all_passed": true' in out.getvalue()

def broken(doc, args):
    raise MemoryError()

_, help_text, flags = cli._COMMANDS["complexity"]
cli._COMMANDS["complexity"] = (broken, help_text, flags)
sys.stdin = io.StringIO('{"substitution": {"rules": {"a": "ab"}}}')
with contextlib.redirect_stderr(io.StringIO()) as err:
    assert cli.main(["complexity", "-"]) == 1
assert '"message": "MemoryError (at <string>:' in err.getvalue()
print(sorted({"dataclasses", "inspect", "ast", "dis", "tokenize",
              "traceback"} & set(sys.modules)))
"""


def test_cold_path_loads_no_introspection_modules():
    """A fresh interpreter without site packages imports the package,
    runs verify-paper and reports an internal error without loading
    dataclasses, inspect, ast, dis, tokenize or traceback."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys; sys.path.insert(0, %r)\n%s" % (src, COLD_PATH)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


json_leaves = (st.none() | st.booleans()
               | st.integers(-2 ** 70, 2 ** 70)
               | st.text(alphabet=st.characters(min_codepoint=0,
                                                max_codepoint=0x1F600)))
json_documents = st.recursive(
    json_leaves,
    lambda inner: (st.lists(inner, max_size=5)
                   | st.tuples(inner, inner)
                   | st.lists(st.integers(-10 ** 30, 10 ** 30), max_size=5)
                   | st.lists(st.text(max_size=4), max_size=5)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=5)),
    max_leaves=40)


class TestWriter:
    """cli._dumps against json.dumps(sort_keys=True, indent=2)."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(json_documents)
    def test_random_documents(self, doc):
        assert cli_module._dumps(doc) == json.dumps(doc, sort_keys=True,
                                                    indent=2)

    def test_escapes_and_empty_containers(self):
        doc = {"é\n": ["\"\\\t", "\U0001F600", "\x00"], "": {},
               "b": [], "c": [[], {}, ()], "d": [True, False, None, 1, "x"],
               "e": (1, 2), "f": [-0, 10 ** 40]}
        assert cli_module._dumps(doc) == json.dumps(doc, sort_keys=True,
                                                    indent=2)

    @pytest.mark.parametrize("q", range(1, 33))
    def test_enumerate_y_documents(self, q):
        # the handler writes its own text; q = 32 is the last under the cap
        text = cli_module._cmd_enumerate_y({"q": q}, None)
        assert text == json.dumps(enumerate_y_reference(q), sort_keys=True,
                                  indent=2)

    def test_integer_budget(self):
        bits = cli_module.OUTPUT_INT_BITS
        top = 2 ** bits - 1
        assert cli_module._dumps([top, -top]) == json.dumps([top, -top],
                                                             indent=2)
        for doc in ([1, top + 1], top + 1, {"a": [[-(top + 1)]]}):
            with pytest.raises(CapabilityError,
                               match="output integer has %d bits, over the "
                                     "budget of %d bits" % (bits + 1, bits)):
                cli_module._dumps(doc)

    def test_unsupported_values(self):
        for doc in ([1.5], {1: 2}, Fraction(1, 2)):
            with pytest.raises(TypeError):
                cli_module._dumps(doc)


class TestParserReuse:
    def test_built_once(self):
        assert cli_module._parser() is cli_module._parser()

    def test_bad_flag_after_a_good_call(self, cli):
        code, first, _ = cli(["complexity", "-", "--n-max", "5"],
                             document=GOLDEN)
        assert code == 0
        code, out, err = cli(["complexity", "-", "--cap-power", "5"],
                             document=GOLDEN)
        assert (code, out) == (3, "")
        assert err_json(err)["kind"] == "malformed"
        # an earlier flag value never leaks into a later call
        code, second, _ = cli(["complexity", "-", "--n-max", "5"],
                              document=GOLDEN)
        assert (code, second) == (0, first)
        _, default, _ = cli(["complexity", "-"], document=GOLDEN)
        assert out_json(default)["n_max"] == 20


class TestFamilyRefusals:
    """family-oe with steps=2 ends on a stated cap, never as internal."""

    def test_thue_morse_output_integers(self, cli):
        doc = {"substitution": {"rules": {"a": "ab", "b": "ba"}}, "steps": 2}
        code, out, err = cli(["family-oe", "-"], document=doc)
        assert (code, out) == (2, "")
        assert err_json(err) == {
            "kind": "capability",
            "message": "output integer has 16380 bits, over the budget of "
                       "14000 bits"}

    def test_four_letter_output_integers(self, cli):
        doc = {"substitution": {"rules": {"a": "abc", "b": "acd", "c": "ad",
                                          "d": "a"}}, "steps": 2}
        code, out, err = cli(["family-oe", "-"], document=doc)
        assert (code, out) == (2, "")
        error = err_json(err)
        assert error["kind"] == "capability"
        assert error["message"].startswith("output integer has ")
        assert error["message"].endswith("bits, over the budget of 14000 bits")
