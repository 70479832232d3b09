"""The three workloads: seeded inputs, the operations on them, and checks.

A workload makes one round of operations at a time from (seed, round).
Every round has the same composition, and no input repeats within a run:
named substitutions get fresh letter names, fixed matrices get a fresh
permutation conjugate (P A P^T has the same spectrum and group), and
random inputs are drawn until unseen.  Six rounds at most keep the
conjugates of the 3x3 matrices distinct.

An operation's run() is the timed call into the library; its check() runs
afterwards, untimed, against oracle.py.  Library names are looked up on
their modules at call time, so the traced pass sees its wrappers.
"""

import contextlib
import io
import itertools
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import oracle as O
from oracle import require

MAX_ROUNDS = 6
LETTERS = "abcdefghijklmnopqrstuvwxyz"
DATA = json.loads(Path(__file__).with_name("data.json").read_text())
GOLDEN_CHAIN = DATA["golden_chain"]
LONG_RULE = {letter: "".join(l * c for l, c in runs)
             for letter, runs in DATA["long_rule"].items()}

# name -> (rules, closed form of the profile or None)
NAMED = {
    "fibonacci": ({"a": "ab", "b": "a"}, "sturmian"),
    "golden": ({"a": "ab", "b": "abb"}, "sturmian"),
    "tribonacci": ({"a": "ab", "b": "ac", "c": "a"}, "tribonacci"),
    "thue-morse": ({"a": "ab", "b": "ba"}, "thue-morse"),
    "period-doubling": ({"a": "ab", "b": "aa"}, "period-doubling"),
    "rewrite": ({"a": "abbcccccccc", "b": "abbbccccccccccccc", "c": "ab"}, None),
    "long-rule": (LONG_RULE, None),
    "four-letter": ({"a": "abc", "b": "acd", "c": "ad", "d": "a"}, None),
}


class Op:
    """One timed library call plus the check of its result."""

    __slots__ = ("kind", "run", "check", "after", "result")

    def __init__(self, kind, run, check, after=()):
        self.kind = kind
        self.run = run
        self.check = check
        self.after = after  # earlier Ops whose results run() reads
        self.result = None


class CliError(Exception):
    """A CLI call that exited non-zero; kind comes from its error JSON."""

    def __init__(self, kind, message):
        super().__init__(message)
        self.kind = kind


class CliResult:
    __slots__ = ("doc", "nbytes")

    def __init__(self, doc, nbytes):
        self.doc = doc
        self.nbytes = nbytes


def call_cli(lib, argv, doc=None):
    """substoe.cli.main(argv) in-process with doc as stdin; the stdout
    JSON is parsed as part of the call."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO("" if doc is None else json.dumps(doc))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lib.cli.main(argv)
    finally:
        sys.stdin = saved
    text = out.getvalue()
    if code != 0 and not text:
        try:
            error = json.loads(err.getvalue())["error"]
        except (ValueError, KeyError, TypeError):
            raise CliError("internal", "exit %r without an error document" % code)
        kind = {"capability": "capability", "internal": "internal"}.get(
            error["kind"], "domain")
        raise CliError(kind, error["message"])
    return CliResult(json.loads(text), len(text))


# -- input helpers --------------------------------------------------------

def rename(rules, rng):
    """The substitution with its letters renamed injectively at random."""
    old = sorted(rules)
    new = rng.sample(LETTERS, len(old))
    table = str.maketrans(dict(zip(old, new)))
    return {a.translate(table): w.translate(table) for a, w in rules.items()}


def runs_of(text):
    return [[ch, len(list(group))] for ch, group in itertools.groupby(text)]


def conjugate(rows, perm):
    return [[rows[perm[i]][perm[j]] for j in range(len(rows))]
            for i in range(len(rows))]


def random_matrix(rng, size):
    while True:
        rows = [[rng.randint(0, 3) for _ in range(size)] for _ in range(size)]
        if O.is_primitive(rows):
            return rows


def random_substitution(rng, size):
    letters = rng.sample(LETTERS, size)
    while True:
        rules = {l: "".join(rng.choice(letters) for _ in range(rng.randint(1, 4)))
                 for l in letters}
        if max(map(len, rules.values())) >= 2 and O.is_primitive_rules(rules):
            return rules


def diagram_rows(rules):
    """Diagram incidence: row i counts the letters in the rule of letter i."""
    letters = list(rules)
    return [[rules[a].count(b) for b in letters] for a in letters]


class Workload:
    """Shared state: the seed, the library and the inputs already used."""

    def __init__(self, lib, seed):
        self.lib = lib
        self.seed = seed
        self.seen = set()

    def rng(self, round_index):
        return random.Random("%s:%d:%d" % (self.name, self.seed, round_index))

    def fresh(self, kind, draw):
        """draw() until it gives an input not used yet in this run."""
        for _ in range(1000):
            value = draw()
            key = (kind, json.dumps(value, sort_keys=True))
            if key not in self.seen:
                self.seen.add(key)
                return value
        raise RuntimeError("no unused %s input left" % kind)

    def conjugate_of(self, kind, rows, r):
        """A conjugate not used yet, drawn by round and not by seed: the
        cost of perron_data moves by about 10% between conjugates, and the
        fixed matrices should cost the same for every seed."""
        rng = random.Random("%s:%s:%d:%d" % (self.name, kind, len(rows), r))
        perm = list(range(len(rows)))

        def draw():
            rng.shuffle(perm)
            return conjugate(rows, perm)
        return self.fresh(kind, draw)

    def substitution(self, rules):
        """Library Substitution; the long rule goes in as runs."""
        if max(map(len, rules.values())) > 100:
            rules = {a: {"runs": runs_of(w)} for a, w in rules.items()}
        return self.lib.subst.Substitution(rules)


# -- language -------------------------------------------------------------

# Top of each named substitution's n ladder.  The four middle rungs cost
# about the same, so the median latency sits on a wide plateau of
# seed-independent operations; each n gets a seeded offset of up to 5%.
LADDER_DIVISORS = (5.5, 5, 4.5, 4, 1)
LADDER_TOP = {
    "fibonacci": 3200, "golden": 3200, "tribonacci": 2200,
    "thue-morse": 2000, "period-doubling": 3000, "rewrite": 1500,
    "long-rule": 600,
}
TOP_RUNG = ("fibonacci", 6000)
RANDOM_SIZES = (2, 2, 3, 3, 3, 4, 4, 4)
RANDOM_N = (100, 160)
BRUTE_N = 12


class Language(Workload):
    """complexity_profile ladders over the named substitutions, a top rung
    at n near 6000, random primitive substitutions on 2-4 letters at small
    n, factor_language and fixed_point_prefix: the subst/words engine and
    no field arithmetic."""

    name = "language"

    def profile_op(self, rules, closed, n):
        def run():
            return self.substitution(rules).complexity_profile(n)

        def check(profile):
            require(len(profile) == n, "profile has the wrong length")
            if closed:
                require(list(profile) == O.closed_form_profile(closed, n),
                        "profile differs from the %s closed form" % closed)
            for j in range(1, min(n, BRUTE_N) + 1):
                require(profile[j - 1] == O.factor_count(rules, j),
                        "p(%d) differs from the brute-force count" % j)
            if not closed:
                require(profile[-1] == O.factor_count(rules, n),
                        "p(%d) differs from the brute-force count" % n)
        return Op("complexity_profile", run, check)

    def make_round(self, r):
        rng = self.rng(r)
        ops = []
        for name, top in LADDER_TOP.items():
            rules, closed = NAMED[name]
            for divisor in LADDER_DIVISORS:
                base = int(top / divisor)
                n = base + rng.randrange(base // 20 + 1)
                renamed, n = self.fresh("profile", lambda: [rename(rules, rng), n])
                ops.append(self.profile_op(renamed, closed, n))
        name, n = TOP_RUNG
        rules, closed = NAMED[name]
        n += rng.randrange(n // 20)
        renamed, n = self.fresh("profile", lambda: [rename(rules, rng), n])
        ops.append(self.profile_op(renamed, closed, n))
        for size in RANDOM_SIZES:
            n = rng.randint(*RANDOM_N)
            rules, n = self.fresh(
                "profile", lambda: [random_substitution(rng, size), n])
            ops.append(self.profile_op(rules, None, n))
        for name in rng.sample(sorted(LADDER_TOP), 3):
            rules, n = self.fresh("language", lambda: [
                rename(NAMED[name][0], rng), rng.randint(8, 16)])
            ops.append(self.language_op(rules, n))
        for name in rng.sample(sorted(LADDER_TOP), 3):
            rules, n = self.fresh("prefix", lambda: [
                rename(NAMED[name][0], rng), rng.randint(1000, 2000)])
            ops.append(self.prefix_op(rules, n))
        return ops

    def language_op(self, rules, n):
        def run():
            return self.substitution(rules).factor_language(n)

        def check(lang):
            require({"".join(w) for w in lang.words} == O.factor_set(rules, n),
                    "factor_language(%d) differs from brute force" % n)
            require({b + c for b, c in lang.two_blocks} == O.two_blocks(rules),
                    "two-block language differs from the closure")
        return Op("factor_language", run, check)

    def prefix_op(self, rules, n):
        seed = next(iter(rules))  # every named rule starts with its letter

        def run():
            return self.substitution(rules).fixed_point_prefix(seed, n)

        def check(prefix):
            require("".join(prefix) == O.fixed_point_prefix(rules, seed, n),
                    "fixed point prefix differs")
        return Op("fixed_point_prefix", run, check)

    def warm_up(self):
        rules = {"a": "aab", "b": "ba"}
        op = self.profile_op(rules, None, 200)
        op.check(op.run())


# -- algebra --------------------------------------------------------------

# Three 9x9 matrices put the p90 boundary inside one size class rather
# than in the gap between two.
RANDOM_MATRIX_SIZES = (3, 4, 5, 6, 7, 8, 9, 9, 9, 10)
CHAIN_SIZES = range(1, 7)  # golden chain members with 3..8 vertices
# Twelve more conjugates of the 5x5 chain member (about 40 ms each, the
# same for every seed) span the median rank; groups_equal calls take about
# 1 ms, too short to time steadily.
MEDIAN_MEMBER = 3
MEMBER_COPIES = 12
MEMBER_CAP = 64


class Algebra(Workload):
    """One pipeline op per matrix, perron_data -> lattice_of ->
    s_membership of a rational a/b, on random primitive matrices (high
    degree, small coefficients) and on the golden enlargement chain
    (degree 2, huge coefficients); then groups_equal at m=2 between each
    chain member and the next, the 2x2 base included: intpoly, field,
    perron, clopen and hnf_basis."""

    name = "algebra"

    def __init__(self, lib, seed):
        super().__init__(lib, seed)
        # the 2x2 base has only two conjugates, so its lattice is set up once
        base = lib.perron.perron_data(lib.matrix.ExactMatrix.from_rows(GOLDEN_CHAIN[0]))
        self.base = Op("base", None, None)
        self.base.result = (base, lib.clopen.lattice_of(base), None)

    def make_round(self, r):
        rng = self.rng(r)
        chain = [self.base]
        for i in CHAIN_SIZES:
            chain.append(self.pipeline(self.conjugate_of("chain", GOLDEN_CHAIN[i], r), rng))
        ops = chain[1:]
        for first, second in zip(chain, chain[1:]):
            ops.append(self.groups_equal_op(first, second, 2))
        for _ in range(MEMBER_COPIES):
            rows = self.conjugate_of("chain", GOLDEN_CHAIN[MEDIAN_MEMBER], r)
            ops.append(self.pipeline(rows, rng))
        for size in RANDOM_MATRIX_SIZES:
            ops.append(self.pipeline(
                self.fresh("random", lambda: random_matrix(rng, size)), rng))
        return ops

    def pipeline(self, rows, rng):
        lib = self.lib
        den = rng.randint(2, 9)
        value = Fraction(rng.randint(1, den - 1), den)

        def run():
            pd = lib.perron.perron_data(lib.matrix.ExactMatrix.from_rows(rows))
            group = lib.clopen.lattice_of(pd)
            return pd, group, lib.clopen.s_membership(group, value, MEMBER_CAP)

        def check(res):
            pd, group, out = res
            min_poly = list(pd.field.min_poly.coeffs)
            O.check_perron(rows, min_poly, pd.field.interval,
                           [list(x.coords) for x in pd.eigvec])
            cols = [group.basis.column(c) for c in range(group.field.degree)]
            for x in pd.eigvec:
                require(O.in_lattice(cols, group.den, x.coords),
                        "lattice misses an eigenvector entry")
            want = O.membership_exponent(cols, group.den, min_poly, value,
                                         MEMBER_CAP)
            got = out.get("exponent") if out.get("status") == "member" else None
            require(got == want and out.get("status") in ("member", "not-member-up-to"),
                    "s_membership(%s) gave %r, expected exponent %r" % (value, out, want))
        return Op("algebra_pipeline", run, check)

    def groups_equal_op(self, first, second, m):
        lib = self.lib

        def run():
            return lib.clopen.groups_equal(first.result[1], second.result[1], m)

        def check(out):
            require(out.get("status") == "equal",
                    "chain members compare as %r at m=%d" % (out, m))
        return Op("groups_equal", run, check, after=(first, second))

    def warm_up(self):
        rows = [[2, 1, 0], [1, 1, 1], [1, 0, 1]]
        op = self.pipeline(rows, random.Random(0))
        op.check(op.run())


# -- builders -------------------------------------------------------------

BUILDER_SUBS = ("fibonacci", "golden", "tribonacci", "thue-morse",
                "period-doubling", "rewrite", "four-letter")
ENLARGE_SIZES = range(1, 6)  # golden chain members with 3..7 vertices
# One random 3x3 for minimize: they take from under 10 ms to over 100 ms,
# so they straddle the median latency; the 4x4 stays above it.
MINIMIZE_SIZES = (3, 4)
# A round has 46 operations, so three rounds leave 13 beyond p90: the top
# 15 (enlarge at 7x7 and 6x6, enumerate-y, two family-oe inputs) then put
# p90 inside that group, not at the gap just below it.
DIAGRAMS = 3
# Six more family-soe calls on Tribonacci at l=3 (about 35 ms each, the
# same for every seed) span the median rank.
MEDIAN_SOE = ("tribonacci", 3)
SOE_COPIES = 6
PAIR_SIZES = (2, 3)  # 4x4 and 5x5 chain members (24 and 120 conjugates)
MEMBER_SIZES = (1, 2, 3)
Y_DENOMINATORS = (31, 30, 29, 28, 27, 26)  # by round: the peak comes first
PATH_SUBS = ("golden", "thue-morse")
PATH_BUDGET = 30000
OE_CHECK_N = 4


class Builders(Workload):
    """The CLI path users run: documents through substoe.cli.main plus
    chain_paths walks.  Many small-n language calls, low-degree field
    work on huge coefficients, repeated perron_data on one matrix."""

    name = "builders"

    def make_round(self, r):
        rng = self.rng(r)
        ops = []
        for i in ENLARGE_SIZES:
            rows = self.conjugate_of("enlarge", GOLDEN_CHAIN[i], r)
            ops.append(self.cli_op("enlarge", ["enlarge", "-"], {"matrix": rows},
                                   self.check_enlarge(rows)))
        minimize = [self.conjugate_of("minimize", GOLDEN_CHAIN[1], r)]
        for size in MINIMIZE_SIZES:
            minimize.append(self.fresh("minimize", lambda: random_matrix(rng, size)))
        for rows in minimize:
            ops.append(self.cli_op("minimize", ["minimize", "-"], {"matrix": rows},
                                   self.check_minimize))
        for name in BUILDER_SUBS:
            rules = self.fresh("soe", lambda: rename(NAMED[name][0], rng))
            for block in (2, 3):
                doc = {"substitution": {"rules": rules}, "block_length": block}
                ops.append(self.cli_op("family-soe", ["family-soe", "-"], doc,
                                       self.check_soe(len(rules), block)))
        name, block = MEDIAN_SOE
        for _ in range(SOE_COPIES):
            rules = self.fresh("soe", lambda: rename(NAMED[name][0], rng))
            doc = {"substitution": {"rules": rules}, "block_length": block}
            ops.append(self.cli_op("family-soe", ["family-soe", "-"], doc,
                                   self.check_soe(len(rules), block)))
        for name in BUILDER_SUBS:
            rules = self.fresh("oe", lambda: rename(NAMED[name][0], rng))
            doc = {"substitution": {"rules": rules}, "steps": 1}
            ops.append(self.cli_op("family-oe", ["family-oe", "-"], doc,
                                   self.check_oe))
        for i in PAIR_SIZES:
            doc = {"first": self.conjugate_of("ge", GOLDEN_CHAIN[i], r),
                   "second": self.conjugate_of("ge", GOLDEN_CHAIN[i + 1], r),
                   "m": 2}
            ops.append(self.cli_op("groups-equal", ["groups-equal", "-"], doc,
                                   self.check_equal))
        for i in MEMBER_SIZES:
            doc = {"matrix": self.conjugate_of("s-member", GOLDEN_CHAIN[i], r),
                   "value": self.unit_rational(rng)}
            ops.append(self.cli_op("s-member", ["s-member", "-"], doc,
                                   self.check_member))
        for name in rng.sample(BUILDER_SUBS, DIAGRAMS):
            rules = self.fresh("diagram", lambda: rename(NAMED[name][0], rng))
            steps, depth = rng.randint(1, 2), rng.randint(6, 10)
            doc = {"substitution": {"rules": rules}, "telescope": steps}
            ops.append(self.cli_op(
                "diagram", ["diagram", "-", "--n-max", str(depth)], doc,
                self.check_diagram(rules, steps, depth)))
        q = Y_DENOMINATORS[r]
        ops.append(self.cli_op("enumerate-y", ["enumerate-y", "-"], {"q": q},
                               self.check_enumerate(q)))
        for name in PATH_SUBS:
            rules = self.fresh("paths", lambda: rename(NAMED[name][0], rng))
            ops.append(self.paths_op(rules))
        return ops

    @staticmethod
    def unit_rational(rng):
        den = rng.randint(2, 9)
        return "%d/%d" % (rng.randint(1, den - 1), den)

    def cli_op(self, kind, argv, doc, check):
        lib = self.lib
        return Op(kind, lambda: call_cli(lib, argv, doc),
                  lambda res: check(res.doc))

    @staticmethod
    def check_groups(doc, what):
        require(doc["groups"]["status"] == "equal",
                "%s groups compare as %r" % (what, doc["groups"]))

    def check_enlarge(self, rows):
        def check(doc):
            self.check_groups(doc, "enlarge")
            out = doc["matrix"]
            s = len(rows)
            require(len(out) == s + 1 and all(len(r) == s + 1 for r in out),
                    "enlarged matrix has the wrong shape")
            require(all(x >= 0 for r in out for x in r) and O.is_primitive(out),
                    "enlarged matrix is not primitive")
            require([r[s] for r in out] == [1] * s + [0],
                    "enlarged matrix lost its frame column")
        return check

    def check_minimize(self, doc):
        self.check_groups(doc, "minimize")
        out = doc["matrix"]
        require(len(out) == doc["output_size"] <= doc["input_size"],
                "minimized matrix has the wrong size")
        require(O.is_primitive(out), "minimized matrix is not primitive")

    def check_soe(self, size, block):
        def check(doc):
            self.check_groups(doc, "family-soe")
            rules = O.rules_from_runs(doc["substitution"]["rules"], block + 1)
            full = size ** (block + 1)
            require(doc["full_count"] == full == O.factor_count(rules, block + 1),
                    "family-soe output misses a word of length %d" % (block + 1))
            require(doc["properness"][0] == 1, "family-soe output is not proper")
        return check

    def check_oe(self, doc):
        for member in doc["members"]:
            self.check_groups(member, "family-oe")
            rules = O.rules_from_runs(member["substitution"]["rules"], OE_CHECK_N)
            require(len(rules) == member["alphabet_size"],
                    "family-oe alphabet size is misreported")
            bound = member["slope_bound"]
            for n in range(1, OE_CHECK_N + 1):
                require(O.factor_count(rules, n) > (bound + 1) * n,
                        "family-oe member fails the slope bound at %d" % n)

    def check_equal(self, doc):
        require(doc["status"] == "equal", "chain neighbours compare as %r" % doc)

    def check_member(self, doc):
        require(doc["status"] in ("member", "not-member-up-to"),
                "s-member status %r" % doc)

    def check_diagram(self, rules, steps, depth):
        rows = diagram_rows(rules)
        level0 = O.path_counts(rows, [1] * len(rules), steps)[-1]
        telescoped = O.mat_pow(rows, steps)

        def check(doc):
            want = O.path_counts(telescoped, level0, depth)
            require([tuple(h) for h in doc["path_counts"]] == want,
                    "diagram path counts differ")
        return check

    def check_enumerate(self, q):
        def check(doc):
            want = O.coprime_partitions(q)
            require(doc["count"] == len(doc["systems"]) == want,
                    "enumerate-y gave %r systems for q=%d, expected %d"
                    % (doc["count"], q, want))
        return check

    def paths_op(self, rules):
        lib = self.lib
        rows = diagram_rows(rules)
        depth = 1
        while sum(O.path_counts(rows, [1] * len(rules), depth + 1)[-1]) <= PATH_BUDGET:
            depth += 1
        want = sum(O.path_counts(rows, [1] * len(rules), depth)[-1])

        def run():
            diagram = lib.bratteli.diagram_from_substitution(
                lib.subst.Substitution(rules))
            return sum(1 for _ in diagram.chain_paths(depth))

        def check(count):
            require(count == want, "chain_paths walked %d paths at depth %d, "
                    "path_counts sum to %d" % (count, depth, want))
        return Op("chain_paths", run, check)

    def warm_up(self):
        res = call_cli(self.lib, ["verify-paper"])
        require(res.doc["all_passed"] is True, "verify-paper reports a failure")


WORKLOADS = {cls.name: cls for cls in (Language, Algebra, Builders)}
