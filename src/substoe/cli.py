"""Command line front end: JSON documents in, JSON or DOT out.

Every subcommand reads one JSON document (from a file argument or
stdin), validates it strictly, calls the library, and prints the result
as a deterministic JSON report (sort_keys, indent 2).  Builder reports
print as the library returns them: one encoder table gives each exact
type (matrix, field element, word, substitution, diagram) its JSON
form.  A handler that returns text (enumerate-y) is held to that layout
by the tests.  Exit codes are
stable: 1 for domain and internal errors and for a stdout closed early
(the one failure with no error document), 2 for exhausted search caps,
3 for malformed input.  Errors go to stderr as JSON; any other exception
is reported as internal, never as a raw traceback.
Field elements are printed with exact rational coordinates plus a
decimal approximation whose precision is stated alongside.
"""

import functools
import json
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

from .bratteli import OrderedDiagram, diagram_from_substitution
from .clopen import groups_equal, lattice_of, s_membership
from .construct import (
    MINIMIZE_CAP,
    build_oe_alphabet_family,
    build_soe_substitution,
    enlarge_matrix,
    enumerate_rational_y,
    minimize_vertices,
    verify_lind_example,
)
from .errors import (
    CapabilityError,
    InternalError,
    MalformedInputError,
    SubstoeError,
)
from .field import FieldElement
from .matrix import ExactMatrix, primitivity_exponent
from .perron import _check_eigvec, perron_data
from .subst import Substitution
from .words import RunWord

APPROX_DIGITS = 12
# Largest integer a document may hold, in bits: at most 4,215 decimal
# digits, inside Python's 4,300-digit limit on int/str conversion.
OUTPUT_INT_BITS = 14_000


def _write(node, pad, out):
    """Append the text json.dumps(node, sort_keys=True, indent=2) gives,
    for a node whose line starts with pad (a newline and its indent)."""
    kind = type(node)
    if kind is dict:
        if not node:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{" + inner
        for key in sorted(node):
            if type(key) is not str:
                raise TypeError("keys must be str, not %s"
                                % type(key).__name__)
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _write(node[key], inner, out)
            sep = "," + inner
        out.append(pad + "}")
    elif kind is list or kind is tuple:
        if not node:
            out.append("[]")
            return
        inner = pad + "  "
        sep = "[" + inner
        for item in node:
            out.append(sep)
            _write(item, inner, out)
            sep = "," + inner
        out.append(pad + "]")
    elif kind is str:
        out.append(encode_basestring_ascii(node))
    elif kind is int:
        bits = node.bit_length()
        if bits > OUTPUT_INT_BITS:
            raise CapabilityError(
                "output integer has %d bits, over the budget of %d bits"
                % (bits, OUTPUT_INT_BITS))
        out.append(repr(node))
    elif kind is bool:
        out.append("true" if node else "false")
    elif node is None:
        out.append("null")
    elif kind in _ENCODERS:
        _write(_ENCODERS[kind](node), pad, out)
    else:
        raise TypeError("Object of type %s is not JSON serializable"
                        % kind.__name__)


def _dumps(doc):
    """json.dumps(doc, sort_keys=True, indent=2), byte for byte, for
    documents with str keys and no floats, the types of _ENCODERS printed
    as their JSON forms; ints over OUTPUT_INT_BITS are refused."""
    out = []
    _write(doc, "\n", out)
    return "".join(out)


def _failure(exc):
    """Error kind, exit code and message for an exception leaving main.

    An exception from outside the hierarchy (a bug, or MemoryError) is
    reported as internal, with its type and innermost source line in
    place of a traceback.
    """
    if isinstance(exc, MalformedInputError):
        return "malformed", 3, str(exc)
    if isinstance(exc, CapabilityError):
        return "capability", 2, str(exc)
    if isinstance(exc, InternalError):
        return "internal", 1, str(exc)
    if isinstance(exc, SubstoeError):
        return "domain", 1, str(exc)
    message = type(exc).__name__
    if str(exc):
        message += ": %s" % exc
    tb = exc.__traceback__
    if tb is not None:
        while tb.tb_next is not None:
            tb = tb.tb_next
        message += " (at %s:%d)" % (
            os.path.basename(tb.tb_frame.f_code.co_filename), tb.tb_lineno)
    return "internal", 1, message


def _check_keys(doc, where, required, optional=()):
    if not isinstance(doc, dict):
        raise MalformedInputError("%s must be a JSON object" % where)
    for key in doc:
        if key not in required and key not in optional:
            raise MalformedInputError("unknown field %r in %s" % (key, where))
    for key in required:
        if key not in doc:
            raise MalformedInputError("%s is missing field %r" % (where, key))


def _rational_digits(text):
    """Bounds on the digits of the numerator and of the denominator that
    Fraction(text) builds: the digits written, plus a decimal exponent's
    size on the side it scales."""
    head, _, exp = text.upper().partition("E")
    shift = int(exp or 0)
    num, _, den = head.partition("/")
    whole, _, frac = num.partition(".")

    def count(part):
        return sum(c.isdigit() for c in part)
    return (count(whole) + count(frac) + max(shift, 0),
            count(den) if den else count(frac) + max(-shift, 0) + 1)


def _parse_entry(node, where, limit):
    """A JSON integer as it is, a rational string as a Fraction; limit is
    sys.get_int_max_str_digits(), read once by the caller."""
    if type(node) is int:
        return node
    if type(node) is not str:
        raise MalformedInputError(
            "%s entries must be integers or rational strings" % where)
    try:
        if limit and max(_rational_digits(node)) > limit:
            raise MalformedInputError(
                "rational string in %s has a numerator or denominator over "
                "%d digits" % (where, limit))
        return Fraction(node)
    except (ValueError, ZeroDivisionError):
        shown = repr(node) if len(node) <= 40 else "%r... (%d characters)" % (
            node[:40], len(node))
        raise MalformedInputError("bad rational %s in %s" % (shown, where))


def _parse_matrix(node, where="matrix"):
    if (not isinstance(node, list) or not node
            or not all(isinstance(row, list) for row in node)):
        raise MalformedInputError("%s must be a list of rows" % where)
    limit = sys.get_int_max_str_digits()
    rows = [[x if type(x) is int else _parse_entry(x, where, limit)
             for x in row] for row in node]
    return ExactMatrix.from_rows(rows)


def _parse_word(node, where):
    if isinstance(node, str):
        if not node:
            raise MalformedInputError("empty word in %s" % where)
        return RunWord.from_string(node)
    if isinstance(node, list):
        if not all(isinstance(x, str) for x in node):
            raise MalformedInputError("%s letters must be strings" % where)
        return RunWord.from_letters(node)
    if isinstance(node, dict):
        _check_keys(node, where, required=("runs",), optional=("text",))
        runs = node["runs"]
        if (not isinstance(runs, list)
                or not all(isinstance(r, list) and len(r) == 2
                           and isinstance(r[0], str)
                           and isinstance(r[1], int)
                           and not isinstance(r[1], bool) and r[1] > 0
                           for r in runs)):
            raise MalformedInputError(
                "%s runs must be [letter, positive count] pairs" % where)
        word = RunWord((letter, count) for letter, count in runs)
        text = node.get("text")
        if text is not None and word.as_compact() != text:
            raise MalformedInputError(
                "%s text does not match its runs" % where)
        return word
    raise MalformedInputError(
        "%s must be a string, letter list, or runs object" % where)


def _parse_substitution(node, where="substitution"):
    _check_keys(node, where, required=("rules",), optional=("alphabet",))
    rules_node = node["rules"]
    if not isinstance(rules_node, dict):
        raise MalformedInputError("%s rules must be an object" % where)
    rules = {letter: _parse_word(word, "%s rule %r" % (where, letter))
             for letter, word in rules_node.items()}
    alphabet = node.get("alphabet")
    if alphabet is not None:
        if (not isinstance(alphabet, list)
                or not all(isinstance(x, str) for x in alphabet)):
            raise MalformedInputError("%s alphabet must be a list of "
                                      "strings" % where)
        alphabet = tuple(alphabet)
    return Substitution(rules, alphabet=alphabet)


def _rational_str(value):
    """n or n/d, each printed by _dumps, so held to OUTPUT_INT_BITS."""
    fr = Fraction(value)
    if fr.denominator == 1:
        return _dumps(fr.numerator)
    return "%s/%s" % (_dumps(fr.numerator), _dumps(fr.denominator))


def _element_json(elt):
    return {
        "coords": [_rational_str(c) for c in elt.coords],
        "approx": elt.approx(APPROX_DIGITS),
        "digits": APPROX_DIGITS,
    }


def _word_json(word):
    doc = {"runs": word.to_runs_json()}
    compact = word.as_compact()
    if compact is not None and len(compact) <= 100:
        doc["text"] = compact
    return doc


def _substitution_json(sub):
    return {
        "alphabet": sub.alphabet,
        "rules": sub.rules,
    }


def _diagram_json(diagram):
    return {
        "vertices": diagram.vertices,
        "incidence": diagram.incidence,
        "level0": diagram.level0,
        "orders": diagram.orders,
    }


# How each exact type prints: _write gives a node of one of these types
# the JSON form its encoder returns, so handlers return library objects.
_ENCODERS = {
    ExactMatrix: ExactMatrix.int_rows,
    FieldElement: _element_json,
    RunWord: _word_json,
    Substitution: _substitution_json,
    OrderedDiagram: _diagram_json,
}


def _positive_int(doc, key, where, default=None):
    if key not in doc:
        return default
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise MalformedInputError("%s %s must be an integer" % (where, key))
    if value < 1:
        raise MalformedInputError("%s %s must be at least 1" % (where, key))
    return value


def _cmd_perron(doc, args):
    _check_keys(doc, "input", required=("matrix",))
    m = _parse_matrix(doc["matrix"])
    pd = perron_data(m)
    lo, hi = pd.field.refined_interval(Fraction(1, 10 ** APPROX_DIGITS))
    return {
        "size": m.rows,
        "degree": pd.k,
        "min_poly": pd.field.min_poly.coeffs,
        "eigenvalue": {
            "interval": [_rational_str(lo), _rational_str(hi)],
            "approx": pd.lam.approx(APPROX_DIGITS),
            "digits": APPROX_DIGITS,
        },
        "eigenvector": pd.eigvec,
        "primitivity_exponent": primitivity_exponent(m),
    }


def _cmd_complexity(doc, args):
    _check_keys(doc, "input", required=("substitution",))
    sub = _parse_substitution(doc["substitution"])
    n_max = args.n_max if args.n_max is not None else 20
    return {"n_max": n_max, "profile": sub.complexity_profile(n_max)}


def _cmd_language(doc, args):
    _check_keys(doc, "input", required=("substitution",))
    sub = _parse_substitution(doc["substitution"])
    n = args.n_max if args.n_max is not None else 3
    words = sorted(sub.factor_language(n).words)
    out = {
        "length": n,
        "count": len(words),
        "words": words,
    }
    if args.seed_letter is not None:
        seed = args.seed_letter
        out["prefix"] = {
            "seed": seed,
            # a two-sided seed "r.l" gives {"left": ..., "right": ...}
            "letters": sub.fixed_point_prefix(seed, n),
        }
    return out


def _parse_level0(node, where):
    if (not isinstance(node, list)
            or not all(isinstance(x, int) and not isinstance(x, bool)
                       for x in node)):
        raise MalformedInputError("%s must be integers" % where)
    return tuple(node)


def _parse_diagram(node, where="diagram"):
    _check_keys(node, where,
                required=("vertices", "incidence", "level0", "orders"))
    vertices = node["vertices"]
    if (not isinstance(vertices, list)
            or not all(isinstance(v, str) for v in vertices)):
        raise MalformedInputError("%s vertices must be strings" % where)
    level0 = _parse_level0(node["level0"], "%s level0" % where)
    orders_node = node["orders"]
    if not isinstance(orders_node, dict):
        raise MalformedInputError("%s orders must be an object" % where)
    orders = {v: _parse_word(w, "%s order %r" % (where, v))
              for v, w in orders_node.items()}
    incidence = _parse_matrix(node["incidence"], "%s incidence" % where)
    return OrderedDiagram(tuple(vertices), incidence, level0, orders)


def _cmd_diagram(doc, args):
    _check_keys(doc, "input", required=(),
                optional=("substitution", "diagram", "level0", "telescope"))
    has_sub = "substitution" in doc
    has_diag = "diagram" in doc
    if has_sub == has_diag:
        raise MalformedInputError(
            "input needs exactly one of 'substitution' or 'diagram'")
    if has_sub:
        sub = _parse_substitution(doc["substitution"])
        level0 = doc.get("level0")
        if level0 is not None:
            level0 = _parse_level0(level0, "level0")
        diagram = diagram_from_substitution(sub, level0=level0)
    else:
        if "level0" in doc:
            raise MalformedInputError(
                "level0 belongs inside the diagram object")
        diagram = _parse_diagram(doc["diagram"])
    steps = _positive_int(doc, "telescope", "input")
    if steps is not None:
        diagram = diagram.telescope(steps)
    depth = args.n_max if args.n_max is not None else 3
    if args.dot:
        return diagram.export_dot(depth)
    return {
        "diagram": diagram,
        "substitution_read": diagram.substitution_read(),
        "path_counts": diagram.path_counts(depth),
    }


def _cmd_enlarge(doc, args):
    _check_keys(doc, "input", required=("matrix",))
    return enlarge_matrix(_parse_matrix(doc["matrix"]))


def _cmd_minimize(doc, args):
    _check_keys(doc, "input", required=(),
                optional=("matrix", "substitution"))
    has_matrix = "matrix" in doc
    if has_matrix == ("substitution" in doc):
        raise MalformedInputError(
            "input needs exactly one of 'matrix' or 'substitution'")
    system = (_parse_matrix(doc["matrix"]) if has_matrix
              else _parse_substitution(doc["substitution"]))
    # _read_args has refused a cap below 1
    report = minimize_vertices(system, args.cap_power or MINIMIZE_CAP)
    # the field, letters and diagram repeat what the weights, the
    # substitution and level0 print
    for key in ("field", "letters", "diagram"):
        del report[key]
    return report


def _cmd_family_soe(doc, args):
    _check_keys(doc, "input", required=("substitution", "block_length"))
    sub = _parse_substitution(doc["substitution"])
    block = _positive_int(doc, "block_length", "input")
    return build_soe_substitution(sub, block)


def _cmd_family_oe(doc, args):
    _check_keys(doc, "input", required=("substitution",),
                optional=("steps",))
    sub = _parse_substitution(doc["substitution"])
    steps = _positive_int(doc, "steps", "input", default=1)
    return {"members": build_oe_alphabet_family(sub, steps=steps)}


def _cmd_s_member(doc, args):
    _check_keys(doc, "input", required=("matrix", "value"))
    m = _parse_matrix(doc["matrix"])
    lattice = lattice_of(perron_data(m))
    node = doc["value"]
    limit = sys.get_int_max_str_digits()
    if isinstance(node, dict):
        _check_keys(node, "value", required=("coords",))
        coords = node["coords"]
        if not isinstance(coords, list):
            raise MalformedInputError("value coords must be a list")
        value = lattice.field.from_coords(
            [_parse_entry(x, "value coords", limit) for x in coords])
        echo = {"coords": [_rational_str(Fraction(x)) for x in coords]}
    else:
        value = _parse_entry(node, "value", limit)
        echo = _rational_str(value)
    kwargs = {}
    if args.cap_power is not None:
        kwargs["cap"] = args.cap_power
    out = dict(s_membership(lattice, value, **kwargs))
    out["value"] = echo
    return out


def _cmd_groups_equal(doc, args):
    _check_keys(doc, "input", required=("first", "second", "m"))
    first = lattice_of(perron_data(_parse_matrix(doc["first"], "first")))
    second = lattice_of(perron_data(_parse_matrix(doc["second"], "second")))
    return groups_equal(first, second, _positive_int(doc, "m", "input"))


def _cmd_enumerate_y(doc, args):
    """The report's shared fields once, and each system as its partition:
    the system's rows are its parts c, of weights weights[c - 1]."""
    _check_keys(doc, "input", required=("q",))
    q = _positive_int(doc, "q", "input")
    report = enumerate_rational_y(q)
    partitions = report["partitions"]
    head = _dumps({
        "q": q,
        "count": len(partitions),
        "level0": report["level0"],
        "matrix": report["matrix"],
        "base": _rational_str(report["base"]),
        "weights": [_rational_str(w) for w in report["weights"]],
        "systems": None,
    })
    # Up to 8,118 partitions replace the null in one join of the texts of
    # their parts, formatted once and indexed by c; _dumps would check
    # the type of every part.
    ints = ["%d" % c for c in range(q + 1)]
    sep = ",\n      "
    systems = "[\n    [\n      %s\n    ]\n  ]" % "\n    ],\n    [\n      ".join(
        [sep.join(map(ints.__getitem__, p)) for p in partitions])
    return head.replace('"systems": null', '"systems": ' + systems)


def _paper_checks():
    """The verification harness: each entry is (id, claim, runner).

    A runner returns witness data on success and raises on failure; the
    harness converts exceptions into failed report entries.
    """
    a0 = [[1, 1], [1, 2]]
    a1 = [[1, 1, 1], [2, 3, 1], [8, 13, 0]]
    golden = Substitution({"a": "ab", "b": "abb"})
    three_letter = Substitution({
        "a": "abbcccccccc",
        "b": "abbbccccccccccccc",
        "c": "ab",
    })

    # What several checks read is built once, on the first read.  A build
    # that raises is not kept, so every check reading it fails on its own
    # with the same error.
    @functools.cache
    def golden_profile():
        return golden.complexity_profile(200)

    @functools.cache
    def rewrite_profile():
        return three_letter.complexity_profile(120)

    @functools.cache
    def golden_perron():
        return perron_data(ExactMatrix.from_rows(a0))

    @functools.cache
    def golden_lattice():
        return lattice_of(golden_perron())

    def check_golden_complexity():
        profile = golden_profile()
        bad = [n for n, p in enumerate(profile, start=1) if p != n + 1]
        if bad:
            raise InternalError("complexity differs from n+1 at %s" % bad)
        return {"n_max": 200, "profile_head": profile[:6]}

    def check_enlargement():
        r = enlarge_matrix(a0)
        if r["matrix"].int_rows() != a1 or r["power"] != 2:
            raise InternalError("enlargement of the golden matrix changed")
        return {"matrix": r["matrix"], "power": r["power"]}

    def check_eigen_identity():
        pd = golden_perron()
        lam = pd.field.lam()
        y = list(pd.eigvec) + [lam - pd.field.one()]
        _check_eigvec(ExactMatrix.from_rows(a1), lam ** 2, y, pd.field)
        return {"rows_checked": 3, "power": 2}

    def check_groups_equal():
        r = groups_equal(
            golden_lattice(),
            lattice_of(perron_data(ExactMatrix.from_rows(a1))), m=2)
        if r["status"] != "equal":
            raise InternalError("group comparison returned %r" % r)
        return r

    def check_rewrite_incidence():
        m = three_letter.incidence_matrix()
        if m.int_rows() != a1:
            raise InternalError("three-letter rewrite incidence changed")
        return {"incidence": m}

    def check_rewrite_complexity():
        profile = rewrite_profile()
        if profile[0] != 3:
            raise InternalError("three-letter rewrite has p(1) = %d"
                                % profile[0])
        bad = [n for n, p in enumerate(profile, start=1) if p < 3 * n]
        if bad:
            raise InternalError("3n bound fails at lengths %s" % bad)
        return {"n_max": 120, "profile_head": profile[:6]}

    def check_rewrite_not_proper():
        # the displayed three-letter rules end in b and c alternately,
        # so no power has a common last letter; recorded as a documented
        # discrepancy with the surrounding text
        witness = three_letter.properness_witness()
        if witness is not None:
            raise InternalError("unexpected properness witness %r"
                                % (witness,))
        return {"properness_witness": None, "last_letters": {
            letter: three_letter.rules[letter].last
            for letter in ("a", "b", "c")}}

    def check_complexity_separation():
        small = golden_profile()[:120]
        large = rewrite_profile()
        bad = [n for n, (p, q) in enumerate(zip(small, large), start=1)
               if q <= p]
        if bad:
            raise InternalError("profiles overlap at lengths %s" % bad)
        return {"n_max": 120, "small_head": small[:4],
                "large_head": large[:4]}

    def check_cubic_positivity():
        r = verify_lind_example()
        return {key: r[key] for key in
                ("exponent", "bound_holds", "witness_power", "witness")}

    def check_rational_weights():
        counts = {q: len(enumerate_rational_y(q)["partitions"])
                  for q in (1, 2, 4)}
        if counts != {1: 1, 2: 1, 4: 3}:
            raise InternalError("partition counts changed: %r" % counts)
        return {"counts": {str(q): c for q, c in counts.items()}}

    def check_lattice_self_similar():
        lattice = golden_lattice()
        lam = lattice.field.lam()
        inv = lam.inverse()
        for vec in lattice.basis_vectors():
            for scaled in (vec * lam, vec * inv):
                if not lattice.lattice_contains(scaled):
                    raise InternalError("eigenvalue does not preserve the "
                                        "lattice")
        return {"unit_eigenvalue": True, "basis_rank": lattice.field.degree}

    def check_minimization():
        r = minimize_vertices(a1)
        if r["matrix"].int_rows() != [[2, 3], [3, 5]]:
            raise InternalError("minimization output changed")
        if r["groups"]["status"] != "equal":
            raise InternalError("minimization group certificate failed")
        return {"matrix": r["matrix"],
                "level0": r["level0"],
                "matrix_power": r["matrix_power"]}

    return [
        ("golden-complexity-linear",
         "the golden substitution has complexity n + 1",
         check_golden_complexity),
        ("enlargement-reproduces-display",
         "enlarging the golden matrix yields the displayed 3x3 matrix "
         "at power 2",
         check_enlargement),
        ("enlarged-eigen-identity",
         "the enlarged matrix maps (x, lam - 1) to lam^2 (x, lam - 1) "
         "exactly",
         check_eigen_identity),
        ("clopen-groups-preserved",
         "the clopen value groups of the 2x2 and 3x3 matrices agree at "
         "power 2",
         check_groups_equal),
        ("rewrite-incidence-matches",
         "the displayed three-letter rewrite has the 3x3 incidence matrix",
         check_rewrite_incidence),
        ("rewrite-complexity-bound",
         "the three-letter rewrite has p(1) = 3 and p(n) >= 3n up to 120",
         check_rewrite_complexity),
        ("rewrite-properness-discrepancy",
         "the displayed three-letter rules admit no proper power; "
         "recorded as a discrepancy",
         check_rewrite_not_proper),
        ("complexity-separation",
         "the rewrite complexity strictly dominates the golden profile",
         check_complexity_separation),
        ("cubic-positivity-threshold",
         "the displayed cubic companion matrix turns positive exactly at "
         "power 49",
         check_cubic_positivity),
        ("rational-weight-partitions",
         "denominators 1, 2, 4 admit exactly 1, 1, 3 weight multisets",
         check_rational_weights),
        ("golden-lattice-self-similar",
         "the golden eigenvalue is a unit, so it preserves its lattice",
         check_lattice_self_similar),
        ("minimization-reproduces-display",
         "minimizing the 3x3 matrix returns the 2x2 system with an equal "
         "group",
         check_minimization),
    ]


def verify_paper_report():
    checks = []
    for check_id, claim, runner in _paper_checks():
        try:
            witness, status = runner(), "pass"
        except SubstoeError as exc:
            witness, status = {"error": str(exc)}, "fail"
        checks.append({"id": check_id, "claim": claim, "status": status,
                       "witness": witness})
    return {"checks": checks,
            "all_passed": all(c["status"] == "pass" for c in checks)}


# Each flag once: the type its value is read as (None for a switch,
# which takes no value) and its help line.  Integer values must be
# positive.
_FLAG_SPECS = {
    "--n-max": (int, "length / depth bound"),
    "--cap-power": (int, "budget: minimize's Brun moves and powers per "
                         "scan (200), s-member's largest exponent (64)"),
    "--seed-letter": (str, "fixed point seed letter"),
    "--dot": (None, "emit DOT instead of JSON"),
}

# Each subcommand once: its handler, its help line and the only flags it
# takes (any other flag is malformed input).  verify-paper has no
# handler: it reads no document.
_COMMANDS = {
    "perron": (_cmd_perron,
               "eigenvalue data of a primitive integer matrix", ()),
    "complexity": (_cmd_complexity,
                   "complexity profile of a substitution", ("--n-max",)),
    "language": (_cmd_language,
                 "all length-n factors of a substitution language",
                 ("--n-max", "--seed-letter")),
    "diagram": (_cmd_diagram,
                "ordered diagram for a substitution, or read one back",
                ("--n-max", "--dot")),
    "enlarge": (_cmd_enlarge, "grow a primitive matrix by one vertex", ()),
    "minimize": (_cmd_minimize, "rebuild a system on degree-many vertices",
                 ("--cap-power",)),
    "family-soe": (_cmd_family_soe, "rewrite so all short words occur", ()),
    "family-oe": (_cmd_family_oe,
                  "alphabet-growing family with the same group", ()),
    "s-member": (_cmd_s_member,
                 "membership of a value in the clopen value set",
                 ("--cap-power",)),
    "groups-equal": (_cmd_groups_equal, "compare two clopen value groups",
                     ()),
    "enumerate-y": (_cmd_enumerate_y,
                    "rational weight systems for a denominator", ()),
    "verify-paper": (None, "run the whole verification harness", ()),
}

_HELP = ("-h", "--help")


def _attr(flag):
    return flag[2:].replace("-", "_")


def _is_value(token):
    """Whether a token is a value, not a flag: "-" (stdin), anything not
    led by "-", or a negative number (-5, -.5, -1.5)."""
    if token == "-" or not token.startswith("-"):
        return True
    whole, dot, frac = token[1:].partition(".")
    if dot:
        return (not whole or whole.isdecimal()) and frac.isdecimal()
    return whole.isdecimal()


def _read_args(argv):
    """argv as the handlers read it: command, input, help and one
    attribute per flag of _FLAG_SPECS (None, or False for a switch).

    argv[0] names a command of _COMMANDS.  The rest are that command's
    own flags, written in full as --flag value or --flag=value (a switch
    as --flag alone), and at most one positional input, default "-" (none
    for verify-paper); after "--" every token is positional.  -h or
    --help in place of a command, or among its tokens after tokens read
    cleanly, asks for the usage text.  Anything else is malformed input.
    """
    args = SimpleNamespace(command=None, input=None, help=False)
    for flag, (kind, _) in _FLAG_SPECS.items():
        setattr(args, _attr(flag), None if kind else False)
    if not argv:
        raise MalformedInputError("a subcommand is required")
    command = argv[0]
    if command in _HELP:
        args.help = True
        return args
    if command not in _COMMANDS:
        raise MalformedInputError("unknown command %r (choose from %s)"
                                  % (command, ", ".join(_COMMANDS)))
    args.command = command
    handler, _, flags = _COMMANDS[command]
    positional = []
    tokens = iter(argv[1:])
    for token in tokens:
        if token == "--":
            positional.extend(tokens)
        elif token in _HELP:
            args.help = True
            return args
        elif _is_value(token):
            positional.append(token)
        else:
            flag, eq, value = token.partition("=")
            if flag not in flags:
                raise MalformedInputError("%s takes no flag %s"
                                          % (command, flag))
            kind = _FLAG_SPECS[flag][0]
            if kind is None:
                if eq:
                    raise MalformedInputError("%s takes no value" % flag)
                value = True
            else:
                if not eq:
                    value = next(tokens, None)
                    if value is None or not _is_value(value):
                        raise MalformedInputError("%s needs a value" % flag)
                try:
                    value = kind(value)
                except ValueError:
                    raise MalformedInputError("%s needs an integer, not %r"
                                              % (flag, value))
                if kind is int and value < 1:
                    raise MalformedInputError("%s must be positive" % flag)
            setattr(args, _attr(flag), value)
    if handler is None:
        if positional:
            raise MalformedInputError("%s takes no input" % command)
    elif len(positional) > 1:
        raise MalformedInputError("%s takes one input, not %d"
                                  % (command, len(positional)))
    else:
        args.input = positional[0] if positional else "-"
    return args


def _usage(command):
    """The help text: every command with its help line, or one command's
    input and flags with theirs."""
    if command is None:
        head = ["usage: substoe COMMAND [INPUT] [FLAGS]", "",
                "JSON documents in, JSON or DOT out; substoe COMMAND --help "
                "lists a command's flags.", "", "commands:"]
        rows = [(name, help_text)
                for name, (_, help_text, _) in _COMMANDS.items()]
    else:
        handler, help_text, flags = _COMMANDS[command]
        rows = [("INPUT", "JSON document path, or - for stdin (the default)")
                ] if handler is not None else []
        for flag in flags:
            kind, flag_help = _FLAG_SPECS[flag]
            rows.append((flag if kind is None
                         else "%s %s" % (flag, _attr(flag).upper()),
                         flag_help))
        head = [" ".join(["usage: substoe", command]
                         + ["[%s]" % name for name, _ in rows]),
                "", help_text] + [""] * bool(rows)
    width = max([len(name) for name, _ in rows], default=0)
    return "\n".join(head + ["  %-*s  %s" % (width, name, text)
                             for name, text in rows])


def _load_document(source):
    if source == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(source, "r") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise MalformedInputError("cannot read %s: %s" % (source, exc))
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # bad syntax, an integer over Python's digit limit, deep nesting
        raise MalformedInputError("invalid JSON: %s" % exc)


def main(argv=None):
    try:
        args = _read_args(sys.argv[1:] if argv is None else argv)
        handler = _COMMANDS[args.command][0] if args.command else None
        if args.help:
            out, code = _usage(args.command), 0
        elif handler is None:
            out = verify_paper_report()
            code = 0 if out["all_passed"] else 1
        else:
            out = handler(_load_document(args.input), args)
            code = 0
        try:
            print(out if isinstance(out, str) else _dumps(out))
            sys.stdout.flush()
        except BrokenPipeError:
            # a reader that stops early (`| head`) is no fault; as in the
            # Python docs' SIGPIPE recipe, devnull keeps the exit flush quiet
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 1
        return code
    except Exception as exc:
        kind, code, message = _failure(exc)
        payload = {"error": {"kind": kind, "message": message}}
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
