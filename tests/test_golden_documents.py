"""CLI documents pinned byte for byte.

Each case runs one subcommand in-process and compares its exit code and
stdout bytes with tests/data/golden/<name>.out.  A change to the printed
documents must be intended and stated; re-record with

    PYTHONPATH=src python tests/test_golden_documents.py
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from substoe.cli import main

DATA = Path(__file__).parent / "data" / "golden"

# The golden chain: the golden matrix, its enlargement, and the
# enlargements that follow (the perfbench chain).
CHAIN = [
    [[1, 1], [1, 2]],
    [[1, 1, 1], [2, 3, 1], [8, 13, 0]],
    [[1, 1, 1, 1], [6, 8, 4, 1], [24, 31, 20, 1], [400, 601, 121, 0]],
    [[1, 1, 1, 1, 1], [120, 155, 94, 16, 1], [660, 853, 524, 73, 1],
     [6480, 8319, 5079, 1120, 1], [709200, 1018833, 323193, 25929, 0]],
]
SUBSTITUTIONS = {
    "fibonacci": {"a": "ab", "b": "a"},
    "tribonacci": {"a": "ab", "b": "ac", "c": "a"},
    "thue-morse": {"a": "ab", "b": "ba"},
}


def _cases():
    cases = {"verify-paper": (["verify-paper"], None)}
    for i, m in enumerate(CHAIN):
        for command in ("perron", "enlarge", "minimize"):
            cases["%s-chain%d" % (command, i)] = ([command], {"matrix": m})
        for j, value in enumerate(("1/2", "1/3")):
            cases["s-member-chain%d-%d" % (i, j)] = (
                ["s-member"], {"matrix": m, "value": value})
        if i + 1 < len(CHAIN):
            cases["groups-equal-chain%d" % i] = (
                ["groups-equal"], {"first": m, "second": CHAIN[i + 1], "m": 2})
    cases["s-member-chain0-coords"] = (
        ["s-member"], {"matrix": CHAIN[0], "value": {"coords": ["3", "-1"]}})
    cases["perron-rational-strings"] = (
        ["perron"], {"matrix": [["1", "2/2"], ["1.0", "4/2"]]})
    cases["minimize-golden-substitution"] = (
        ["minimize"], {"substitution": {"rules": {"a": "ab", "b": "abb"}}})
    for name, rules in SUBSTITUTIONS.items():
        sub = {"substitution": {"rules": rules}}
        for block in (1, 2):
            cases["family-soe-%s-%d" % (name, block)] = (
                ["family-soe"], dict(sub, block_length=block))
        cases["family-oe-%s" % name] = (["family-oe"], dict(sub, steps=1))
        if name != "thue-morse":
            # Thue-Morse at two steps passes the output integer budget
            cases["family-oe-%s-2" % name] = (
                ["family-oe"], dict(sub, steps=2))
        cases["diagram-%s" % name] = (["diagram"], sub)
        cases["diagram-%s-telescoped" % name] = (
            ["diagram"], dict(sub, telescope=2))
        cases["diagram-%s-dot" % name] = (["diagram", "--dot"], sub)
        cases["complexity-%s" % name] = (["complexity"], sub)
        cases["language-%s" % name] = (
            ["language", "--seed-letter", "a"], sub)
        cases["minimize-%s" % name] = (["minimize"], sub)
    cases["enumerate-y-6"] = (["enumerate-y"], {"q": 6})
    return cases


CASES = _cases()


def run_case(name):
    """(exit code, stdout bytes) of one case; its document replaces
    sys.stdin."""
    argv, document = CASES[name]
    if document is not None:
        argv = argv[:1] + ["-"] + argv[1:]
        sys.stdin = io.StringIO(json.dumps(document))
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue().encode()


@pytest.mark.parametrize("name", sorted(CASES))
def test_document_is_byte_identical(name, monkeypatch):
    monkeypatch.setattr(sys, "stdin", sys.stdin)  # restored afterwards
    code, out = run_case(name)
    assert code == 0
    assert out == (DATA / ("%s.out" % name)).read_bytes()


if __name__ == "__main__":
    DATA.mkdir(parents=True, exist_ok=True)
    for case in sorted(CASES):
        code, out = run_case(case)
        if code:
            raise SystemExit("%s exited %d" % (case, code))
        (DATA / ("%s.out" % case)).write_bytes(out)
