"""Builders that rewrite a system while preserving its orbit structure.

Each public function returns a report dict whose entries are exact
objects (matrices, field elements, substitutions).  Internal
certificates re-verify every claimed identity with exact arithmetic and
raise InternalError when a certificate fails, so a returned report can
be trusted without re-checking.
"""

from fractions import Fraction
from itertools import chain, product
from math import gcd

from .bratteli import diagram_from_substitution
from .clopen import (LatticeGroup, _integer_lattice, _lam_power,
                     _lattice_coords, groups_equal, lattice_of)
from .errors import (CapabilityError, DomainError, InternalError, RankError,
                     _require_positive_int)
from .field import certified_sign, dominant_root_field
from .intpoly import IntPolynomial
from .matrix import (
    ExactMatrix,
    _int_apply,
    charpoly,
    eventual_positivity_exponent,
    first_power,
    primitivity_exponent,
    wielandt_bound,
)
from .perron import _check_eigvec, adjugate_column, perron_data
from .subst import LENGTH_GUARD, Substitution, _slope_bound
from .words import EXPAND_CAP, RunWord

_LETTER_POOL = "abcdefghijklmnopqrstuvwxyz"


def _default_letters(n):
    if n <= len(_LETTER_POOL):
        return tuple(_LETTER_POOL[:n])
    return tuple("v%d" % i for i in range(n))


def _coerce_matrix(m):
    if isinstance(m, ExactMatrix):
        return m
    return ExactMatrix.from_rows(m)


class _Cone:
    """Mutable bookkeeping for a lattice basis f under column moves.

    f starts as the triangular basis of a lattice of power 1 (closed
    under lam, the field's root), signs flipped to make every value p
    positive, and is held by integer coordinates on it: m, the matrix of
    lam by columns (column j holds lam f_j), and the starts of xs.  c is
    column 0 of adj(lam I - m), an eigenvector for lam; the left
    eigenvector p pairs with it to p_0 q'(lam) > 0, q the minimal
    polynomial, so c is the positive eigendirection.  Every move is
    unimodular, so the lattice never changes; the goal is a basis where
    all p and all c are certified positive.
    """

    def __init__(self, lattice, xs):
        values = lattice.basis_vectors()
        signs = [certified_sign(elt) for elt in values]
        self.p = [elt * sign for elt, sign in zip(values, signs)]
        # the flips D turn the lattice's step matrix s into D s D
        self.m = [[si * sj * x for si, x in zip(signs, col)]
                  for sj, col in zip(signs, lattice._step)]
        coords = [_lattice_coords(lattice._cols, lattice.den, x.nums, x.den)
                  for x in xs]
        if None in coords:
            raise InternalError("start vector lies outside the lattice")
        self.starts = [[s * y for s, y in zip(signs, row)] for row in coords]
        q = lattice.field.min_poly
        self.c = [lattice.field.from_coords(x)
                  for x in adjugate_column(list(zip(*self.m)), q, q)]

    def _top_two(self):
        """Indices of the largest and second-largest value p.

        The values are Q-independent, so no two are equal and every
        comparison is a certified sign of a nonzero difference.
        """
        p = self.p
        first, second = (0, 1) if certified_sign(p[0] - p[1]) > 0 else (1, 0)
        for m in range(2, len(p)):
            if certified_sign(p[m] - p[second]) > 0:
                if certified_sign(p[m] - p[first]) > 0:
                    first, second = m, first
                else:
                    second = m
        return first, second

    def fix(self, cap):
        """Dual Brun steps on the values p until every c is positive.

        With p_i the largest value and p_j the second largest, the move
        ("shear", j, i, -1) sets f_i <- f_i - f_j: p_i drops by p_j and
        stays positive, c_j grows by c_i, and so does start coordinate j.
        m becomes E^-1 m E: column i minus column j, then row j plus row
        i.  As Brun's algorithm shrinks its cone onto p, the basis cone
        grows until it holds the positive eigendirection (Brentjes 1981;
        Schweiger 2000).  Completeness is not claimed: cap is the stated
        budget of moves.
        """
        moves = []
        signs = [certified_sign(ci) for ci in self.c]
        while min(signs) <= 0:
            if len(moves) == cap:
                raise CapabilityError(
                    "basis adjustment did not stabilize within %d moves: "
                    "%d of %d eigendirection coefficients still not positive"
                    % (cap, sum(sign <= 0 for sign in signs), len(signs)))
            i, j = self._top_two()
            self.p[i] = self.p[i] - self.p[j]
            self.c[j] = self.c[j] + self.c[i]
            signs[j] = certified_sign(self.c[j])
            self.m[i] = [x - y for x, y in zip(self.m[i], self.m[j])]
            for col in chain(self.m, self.starts):
                col[j] += col[i]
            moves.append(("shear", j, i, -1))
        if any(certified_sign(elt) <= 0 for elt in self.p + self.c):
            raise InternalError("adjusted basis lost positivity")
        return moves


def _lam_scan(action, starts, accept, cap, what):
    """first_power of action on starts (from power 0) or on itself (from
    power 1 when starts is None), refused at cap with the size reached."""
    t, rows = first_power(action, accept, cap, starts)
    if t is None:
        message = ("no usable power of the eigenvalue up to %d for %s"
                   % (cap, what))
        if rows is not None:
            bits = max(abs(x).bit_length() for row in rows for x in row)
            message += ("; the largest lattice coordinate at power %d has "
                        "%d bits" % (cap, bits))
        raise CapabilityError(message)
    return t, rows


# Vertex minimization's budget of Brun moves and of powers per scan, and
# the eigenvalue powers realize_group_matrix tries to close its lattice.
MINIMIZE_CAP = 200
CLOSURE_CAP = 24


def _minimize_core(lattice, xs, cap):
    """Shared pipeline: adjusted basis -> rows -> stationary system.

    lattice must be closed under multiplication by its field's generator
    and contain every entry of xs; xs must be positive with sum one.
    """
    field = lattice.field
    k = field.degree
    cone = _Cone(lattice, xs)
    moves = cone.fix(cap)
    action = ExactMatrix.from_rows(cone.m)

    # The xs span Q^k (lattice_of and realize_group_matrix refuse
    # otherwise) and lam**t is invertible, so the path rows have rank k,
    # and nonnegative rows of rank k have no zero column.
    def rows_ok(rows):
        return all(x >= 0 for row in rows for x in row)

    n_power, rows = _lam_scan(action, cone.starts, rows_ok, cap, "path rows")
    level0 = tuple(sum(row[j] for row in rows) for j in range(k))

    def all_positive(rows):
        return all(x >= 1 for row in rows for x in row)

    m_power, x_cols = _lam_scan(action, None, all_positive, cap, "incidence")
    # row j of the output is the basis expansion of lam^M f_j, so the
    # weights z are a right eigenvector for lam^M
    a_tilde = ExactMatrix.from_rows(x_cols)

    lam_shift = field.lam().inverse() ** n_power
    z = [pj * lam_shift for pj in cone.p]
    for i, x in enumerate(xs):
        lhs = sum((z[j] * rows[i][j] for j in range(k)), field.zero())
        if lhs != x:
            raise InternalError("rows do not regenerate the input weights")

    letters = _default_letters(k)
    rules = {}
    for j, letter in enumerate(letters):
        rules[letter] = RunWord(
            (letters[t], x_cols[t][j]) for t in range(k))
    out = Substitution(rules, alphabet=letters)
    proper = out.properness_witness()
    if proper is None or proper[0] != 1:
        raise InternalError("output substitution is not proper at depth one")
    diagram = diagram_from_substitution(out, level0=level0)

    # the cone certified every p positive, so z is a positive eigenvector
    _, comparison = _certified_group(
        lattice, a_tilde, m_power, z,
        "output group is not identified with the input group", level0)

    return {
        "field": field,
        "letters": letters,
        "matrix": a_tilde,
        "rows": rows,
        "level0": level0,
        "weights": tuple(z),
        "alpha": sum(z[1:], z[0]),
        "basis_power": n_power,
        "matrix_power": m_power,
        "moves": moves,
        "substitution": out,
        "diagram": diagram,
        "properness": proper,
        "groups": comparison,
    }


def minimize_vertices(system, cap=MINIMIZE_CAP):
    """Rebuild a primitive system on as few vertices as its field degree.

    Accepts a Substitution or an incidence matrix.  The output is a
    proper substitution on degree-many letters whose diagram carries the
    same ordered group, certified exactly.  cap is the stated budget of
    the dual Brun moves and of the eigenvalue powers each scan tries.
    """
    _require_positive_int(cap, "cap")
    if isinstance(system, Substitution):
        a = system.incidence_matrix()
    else:
        a = _coerce_matrix(system)
    pd = perron_data(a)
    lattice = lattice_of(pd)
    report = _minimize_core(lattice, list(pd.eigvec), cap)
    report["input_size"] = a.rows
    report["output_size"] = pd.k
    return report


def realize_group_matrix(matrix, weights):
    """Build a stationary system whose path group is generated by weights.

    matrix supplies the field and eigenvalue; weights are coordinate
    vectors of positive field elements summing to one.  The lattice they
    generate is first saturated until an eigenvalue power up to
    CLOSURE_CAP maps it into itself, then the shared pipeline runs on the
    saturated lattice.
    """
    a = _coerce_matrix(matrix)
    pd = perron_data(a)
    field = pd.field
    xs = []
    for coords in weights:
        elt = coords if not isinstance(coords, (list, tuple)) \
            else field.from_coords(coords)
        if certified_sign(elt) <= 0:
            raise DomainError("weights must be positive")
        xs.append(elt)
    if sum(xs[1:], xs[0]) != field.one():
        raise DomainError("weights must sum to one")
    try:
        h0, den0 = _integer_lattice(field, xs)
    except RankError:
        raise DomainError("weights must span the field over the rationals")

    h_cols = [h0.column(j) for j in range(h0.cols)]
    lam = field.lam()
    cols = [field.from_coords(v) for v in h_cols]
    for closure_power in range(1, CLOSURE_CAP + 1):
        cols = [lam * x for x in cols]
        outside = sum(_lattice_coords(h_cols, den0, x.nums, den0 * x.den)
                      is None for x in cols)
        if not outside:
            break
    else:
        raise CapabilityError(
            "no eigenvalue power up to %d maps the weight lattice L into "
            "itself: %d of %d basis images of lam**%d L lie outside L"
            % (CLOSURE_CAP, outside, len(cols), CLOSURE_CAP))

    gens = list(xs)
    layer = xs
    inv = lam.inverse()
    for _ in range(closure_power - 1):
        layer = [x * inv for x in layer]
        gens.extend(layer)
    saturated = LatticeGroup(field, gens)

    report = _minimize_core(saturated, xs, MINIMIZE_CAP)
    report["closure_power"] = closure_power
    return report


def _carried_group(m, field, power, vec, level0=None):
    """Group of m, carried in the field of the input it was derived from.

    field's root is lam0; vec is a positive eigenvector of m in field for
    lam0**power, whose entries sum to one (pair to one with the root
    multiplicities level0, if given); m is primitive, as each caller
    certifies: enlarge_matrix by its primitivity exponent, the rewrite as
    a power of the certified input, a family member and the minimized
    matrix as positive matrices.  The result is the lattice of vec's
    entries, closed under lam0**power, which is the group of m, built
    first.  The certificate:

    - Positivity is carried, not re-signed.  The callers build vec from
      the input's eigenvector entries, each certified positive by
      perron_data, from values lam0**j - 1 with j >= 1, positive since
      lam0 > lo0 > 1 for the lower end lo0 of field's interval, and
      from lattice basis values that the vertex minimization's cone
      certified positive, times lam0**-n; sums, products and quotients
      keep it.  By Perron-Frobenius the
      eigenvalue of a positive eigenvector of a primitive matrix is its
      Perron root, so lam0**power is the Perron root of m, and a simple
      one; Q(lam0**power) is field, so no other field is built.
    - The group refuses lam0**power past clopen.POWER_BITS bits, first.
    - The normalization and m vec = lam0**power vec are checked exactly
      in field, with the group's eigenvalue.
    """
    group = LatticeGroup(field, vec, power)
    if group.eigenvalue.den != 1:
        raise InternalError("eigenvalue power is not an algebraic integer")
    weights = level0 or (1,) * len(vec)
    if sum((x * c for x, c in zip(vec, weights)), field.zero()) != 1:
        raise InternalError("carried eigenvector does not sum to one")
    _check_eigvec(m, group.eigenvalue, vec, field)
    return group


def _certified_group(group, m, step, vec, unequal, level0=None):
    """Carry the group of m, derived from a system with group group, at
    lam0**(group.power * step) (_carried_group), and certify it equal to
    group at power step.  Returns (out, comparison); raises
    InternalError(unequal) unless the comparison is equal.  Each builder
    calls it once, on the matrix it reports."""
    out = _carried_group(m, group.field, group.power * step, vec, level0)
    comparison = groups_equal(group, out, m=step)
    if comparison["status"] != "equal":
        raise InternalError(unequal)
    return out, comparison


def _least_power_over(a, targets):
    """(p, rows) for the least p with a**p >= targets entrywise, rows the
    integer rows of a**p; a is primitive with Perron root above 1.

    The scan provably ends by w * (1 + bits(T - 1)), w the Wielandt bound
    of n x n a, at least its primitivity exponent e, and T the largest
    target (Wielandt 1950; Seneta, Non-negative Matrices and Markov
    Chains, 2.4): a**w >= J, the all-ones matrix, with row sums at least
    2 (n >= 2, or a = (lam) with lam >= 2), so by induction a**(w*m) >=
    a**w 2**(m-2) J >= 2**(m-1) J.  Column-sum targets end by e + 1, as
    a**(e+1) >= J a.
    """
    bound = wielandt_bound(a.rows) * (
        1 + (max(chain.from_iterable(targets)) - 1).bit_length())
    p, rows = first_power(a, lambda rows: all(
        x >= t for row, target in zip(rows, targets)
        for x, t in zip(row, target)), bound)
    if p is None:
        raise InternalError("no power up to the proven bound %d is over "
                            "the targets" % bound)
    return p, rows


def enlarge_matrix(a):
    """Grow a primitive matrix by one vertex, preserving its group.

    Returns the enlarged matrix together with the power k of the input
    eigenvalue it realizes; the identity A' (x, lam-1) = lam^k (x, lam-1)
    and the group comparison are certified exactly, and "primitivity" is
    the enlarged matrix's primitivity exponent.
    """
    pd = perron_data(_coerce_matrix(a))
    group = lattice_of(pd)
    step, out, vec = _enlarge(pd.matrix, group.eigenvalue, pd.eigvec)
    exponent = primitivity_exponent(out)
    if exponent is None:
        raise InternalError("enlargement lost primitivity")
    _, comparison = _certified_group(group, out, step, vec,
                                     "enlargement changed the path group")
    return {
        "matrix": out,
        "power": step,
        "primitivity": exponent,
        "groups": comparison,
    }


def _enlarge(a, lam, vec):
    """(step, out, out_vec): the enlargement out of a primitive a with
    Perron root lam > 1 and positive eigenvector vec summing to 1, and
    out's eigenvector (vec, lam - 1) / lam for lam**step, summing to 1.
    Nothing is certified here; each caller certifies what it reports."""
    a_cols = list(zip(*a.int_rows()))
    colsums = [sum(col) for col in a_cols]
    step, p = _least_power_over(a, [colsums] * a.rows)
    rows = [[x - (c - 1) for x, c in zip(row, colsums)] + [1] for row in p]
    # column sums of A^(step+1) - A^step, from those of A^step
    psums = [sum(col) for col in zip(*p)]
    rows.append([x - q for x, q in zip(_int_apply(a_cols, psums), psums)]
                + [0])
    inv = lam.inverse()
    out_vec = [x * inv for x in list(vec) + [lam - 1]]
    return step, ExactMatrix.from_rows(rows), out_vec


def _needs(letters, extra_counts):
    """Column targets: 3 opening letters for a1, 2 plus itself elsewhere."""
    s = len(letters)
    needs = []
    for j in range(s):
        need = [0] * s
        need[0] += 2
        need[j] += 1
        for t in range(s):
            need[t] += extra_counts[j][t]
        needs.append(need)
    return needs


def _frame_rules(letters, rows, needs, middles, what):
    """The substitution a_j -> a1 a_j <middle> <surplus runs> a1 whose
    incidence is the matrix with integer rows rows.

    Returns (substitution, incidence, properness witness), with the
    incidence checked against rows and properness at depth one.
    """
    rules = {}
    for j, letter in enumerate(letters):
        surplus = [row[j] - need for row, need in zip(rows, needs[j])]
        if any(x < 0 for x in surplus):
            raise InternalError("column cannot host the frame letters")
        rules[letter] = RunWord(chain(
            ((letters[0], 1), (letter, 1)), middles[j].runs,
            zip(letters, surplus), ((letters[0], 1),)))
    zeta = Substitution(rules, alphabet=letters)
    incidence = zeta.incidence_matrix()
    if incidence.int_rows() != rows:
        raise InternalError("%s miscounts the incidence" % what)
    proper = zeta.properness_witness()
    if proper is None or proper[0] != 1:
        raise InternalError("%s is not proper" % what)
    return zeta, incidence, proper


def _input_perron(subst):
    """perron_data of a builder's input, whose refusal is the builder's."""
    if not isinstance(subst, Substitution):
        raise DomainError("expected a substitution")
    return perron_data(subst.incidence_matrix())


def build_soe_substitution(subst, block_length):
    """Rewrite a primitive substitution so every length-(l+1) word occurs.

    The output is proper, keeps the path group (via an exact power
    comparison), and its language contains all s^(l+1) words of length
    block_length + 1, which strictly separates its complexity from any
    aperiodic input.  That count is certified on runs, never expanding
    the first rule: it opens with a1 a1 and then the block of all those
    words in product order.  The output is primitive, its incidence a
    power of the input's, so the block is in its language.  A block of
    more than LENGTH_GUARD letters is refused before it is built.

    So is a block whose runs, cut to l + 1 letters, leave more than
    EXPAND_CAP, when every rule of the rewrite has at least l + 1
    letters.  A language computation on the output clamps the first
    rule in one step, cutting its runs to l + 1 letters; that image
    holds the cut block, since every run of a factor lies in its own
    run of the word, so it would refuse on EXPAND_CAP.  The cut length
    follows from s and l: in product order a run longer than l + 1
    letters occurs only where x^(l+1) meets x^l y, once for each letter
    x but the last, and each such run of 2l + 1 letters loses l.
    """
    _require_positive_int(block_length, "block length")
    pd = _input_perron(subst)
    l = block_length
    letters = subst.alphabet
    s = len(letters)

    # the block has (l + 1) s**(l + 1) letters; for s >= 2 the power
    # passes the guard from its bit length on, so it is capped there
    if (l + 1) * s ** min(l + 1, LENGTH_GUARD.bit_length()) > LENGTH_GUARD:
        raise CapabilityError(
            "block length %d needs a word block of over %d letters, the "
            "expansion budget" % (l, LENGTH_GUARD))
    # each letter stands at each of the l + 1 places in s**l of the words
    extra = [[(l + 1) * s ** l] * s] + [[0] * s for _ in range(s - 1)]
    needs = _needs(letters, extra)
    power, rows = _least_power_over(pd.matrix, list(zip(*needs)))
    cut = (l + 1) * s ** (l + 1) - (s - 1) * l
    if cut > EXPAND_CAP and min(map(sum, zip(*rows))) > l:
        raise CapabilityError(
            "block length %d needs a word block of %d letters with runs cut "
            "to %d, over the expansion cap of %d"
            % (l, cut, l + 1, EXPAND_CAP))

    block = RunWord.from_letters(
        chain.from_iterable(product(letters, repeat=l + 1)))
    middles = [block] + [RunWord(()) for _ in range(s - 1)]
    zeta, p, proper = _frame_rules(letters, rows, needs, middles,
                                   "rewritten substitution")
    # zeta(a1) opens with a1 a1 and the block, whose last run may go on
    head = RunWord(((letters[0], 2),) + block.runs).runs
    *runs, (x, c) = zeta.rules[letters[0]].runs[:len(head)]
    if tuple(runs) + ((x, min(c, head[-1][1])),) != head:
        raise InternalError("a word block is missing from the first rule")
    count = s ** (l + 1)
    original = subst.complexity(l + 1)
    _, comparison = _certified_group(lattice_of(pd), p, power, pd.eigvec,
                                     "rewriting changed the path group")
    return {
        "substitution": zeta,
        "power": power,
        "block_length": l,
        "full_count": count,
        "input_count": original,
        "separated": original < count,
        "pieces_checked": True,
        "properness": proper,
        "groups": comparison,
    }


# Each family step reads its input's complexity slope off p(n) for n up to
# SLOPE_PROBE_N, and checks the new member's complexity above that slope up
# to MEMBER_SCAN_N.
SLOPE_PROBE_N = 40
MEMBER_SCAN_N = 60


def build_oe_alphabet_family(subst, steps=1):
    """Iterate: bound the complexity slope, then rebuild on a strictly
    larger alphabet with complexity above that bound.

    Each member is proper, primitive, carries the same path group as the
    previous member (exact comparison at the accumulated matrix power),
    and its complexity is checked to exceed (bound+1) n for n up to
    MEMBER_SCAN_N.  Only members are certified: each re-checks the
    eigenvector the enlargements built and its group end to end.
    """
    _require_positive_int(steps, "steps")
    # every member's group is carried in the input's field
    pd = _input_perron(subst)
    members = []
    current = subst
    matrix, group, vec = pd.matrix, lattice_of(pd), pd.eigvec
    # the slope bound reads p(1..SLOPE_PROBE_N) off the input's profile,
    # then off each member's, which its scan has already computed
    profile = subst.complexity_profile(SLOPE_PROBE_N)
    for _ in range(steps):
        bound = max(_slope_bound(profile[:SLOPE_PROBE_N]), current.size)
        target = bound + 2
        grown, grown_vec, lam = matrix, vec, group.eigenvalue
        accumulated = 1
        while grown.rows < target:
            step, grown, grown_vec = _enlarge(grown, lam, grown_vec)
            accumulated *= step
            # built here, a power past POWER_BITS is refused at this step
            lam = _lam_power(group.field, group.power * accumulated)
        s = grown.rows
        # a1 opens and closes every image; every entry >= 1 keeps b positive
        frame = [[3] + [2] * (s - 1)] + [[1] * s for _ in range(s - 1)]
        exponent, rows = _least_power_over(grown, frame)
        accumulated *= exponent

        letters = _default_letters(s)
        needs = _needs(letters, [[0] * s for _ in range(s)])
        middles = [RunWord(()) for _ in range(s)]
        zeta, b, proper = _frame_rules(letters, rows, needs, middles,
                                       "family member")
        profile = zeta.complexity_profile(MEMBER_SCAN_N)
        for n, count in enumerate(profile, start=1):
            if count <= (bound + 1) * n:
                raise InternalError("family member complexity fails the "
                                    "slope bound at length %d" % n)
        member_group, comparison = _certified_group(
            group, b, accumulated, grown_vec,
            "family member changed the path group")
        members.append({
            "substitution": zeta,
            "alphabet_size": s,
            "slope_bound": bound,
            "matrix_power": accumulated,
            "properness": proper,
            "groups": comparison,
        })
        current = zeta
        matrix, group, vec = b, member_group, grown_vec
    return members


Y_SYSTEM_CAP = 10_000
# c(q) >= p(q - 1) > Y_SYSTEM_CAP long before this; exact counts stop here
_Y_COUNT_LIMIT = 1_000


def _partitions(total):
    """The partitions of total >= 1 as descending tuples, in
    anti-lexicographic order, by Zoghbi and Stojmenovic's ZS1 (constant
    amortized time each).  x holds m parts, then ones; each step lowers
    x[h], the last part over 1, and packs the freed units after it into
    parts of the new size and a remainder t (a 1 is already in place)."""
    x = [total] + [1] * (total - 1)
    m, h = 1, 0
    yield (total,)
    while x[0] != 1:
        if x[h] == 2:
            x[h] = 1
            m, h = m + 1, h - 1
        else:
            r = x[h] = x[h] - 1
            k, t = divmod(m - h, r)
            x[h + 1:h + k + 1] = [r] * k
            h += k
            m = h + 1 + (t > 0)
            if t > 1:
                h += 1
                x[h] = t
        yield tuple(x[:m])


def _partition_numbers(n):
    """p(0), ..., p(n) by Euler's pentagonal number recurrence."""
    p = [1] * (n + 1)
    for m in range(1, n + 1):
        total = 0
        k = 1
        while True:
            g = k * (3 * k - 1) // 2
            if g > m:
                break
            sign = 1 if k % 2 else -1
            total += sign * p[m - g]
            if g + k <= m:
                total += sign * p[m - g - k]
            k += 1
        p[m] = total
    return p


def _mobius(n):
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    return -result if n > 1 else result


def coprime_partition_count(q):
    """c(q) = sum over d | q of mu(d) p(q/d): the partitions of q whose
    parts have no common factor, which enumerate_rational_y lists."""
    p = _partition_numbers(q)
    return sum(_mobius(d) * p[q // d] for d in range(1, q + 1) if q % d == 0)


def enumerate_rational_y(q):
    """All stationary odometer presentations of the rational weights Y
    with denominator exactly q, as one report.

    Each descending partition of q whose parts have no common factor
    gives one system: one vertex with level0 q, matrix (q) and base 1/q,
    and one row per part c, of weight c/q.  Only the partition differs
    from system to system, so the report states the rest once: level0,
    matrix, base, weights (the q possible weights, c/q at index c - 1)
    and partitions (the coprime partitions in ZS1 order, one per
    system).  The regeneration identity row * base = weight is checked
    once per entry of weights.  Denominators with more than
    Y_SYSTEM_CAP systems are refused before any partition is built.
    """
    _require_positive_int(q, "denominator")
    if q > _Y_COUNT_LIMIT:
        raise CapabilityError(
            "denominator %d has at least p(%d) coprime partitions, over "
            "the cap of %d systems" % (q, _Y_COUNT_LIMIT, Y_SYSTEM_CAP))
    count = coprime_partition_count(q)
    if count > Y_SYSTEM_CAP:
        raise CapabilityError(
            "denominator %d has %d coprime partitions, over the cap of "
            "%d systems" % (q, count, Y_SYSTEM_CAP))
    base = Fraction(1, q)
    weights = tuple([Fraction(c, q) for c in range(1, q + 1)])
    for c, weight in enumerate(weights, start=1):
        if c * base != weight:
            raise InternalError("rows do not regenerate the weights")
    if q * base != 1:
        raise InternalError("path weights do not sum to one")
    # the gcd of the parts divides their sum q, so coprimality with q is
    # the same as the parts having no common factor
    partitions = [parts for parts in _partitions(q) if gcd(*parts) == 1]
    if len(partitions) != count:
        raise InternalError("system count differs from c(q)")
    return {"level0": q, "matrix": ((q,),), "base": base,
            "weights": weights, "partitions": partitions}


def verify_lind_example():
    """Certify the cubic whose matrix turns positive only at power 49.

    Checks the characteristic polynomial, brackets the dominant root in
    (3.89, 3.90), finds the exact positivity threshold, confirms the
    power-49 bound, and exhibits a nonpositive entry one step earlier.
    """
    c = ExactMatrix.from_rows([[0, 0, 46], [1, 0, 15], [0, 1, -3]])
    poly = charpoly(c)
    if poly != IntPolynomial((-46, -15, 3, 1)):
        raise InternalError("companion matrix has the wrong polynomial")
    field, degree = dominant_root_field(poly)
    if degree != 3:
        raise InternalError("dominant root generates the wrong degree")
    lo, hi = field.refined_interval(Fraction(1, 1000))
    if not (Fraction(389, 100) < lo and hi < Fraction(390, 100)):
        raise InternalError("dominant root left the expected bracket")
    exponent = eventual_positivity_exponent(c, cap=64)
    if exponent is None:
        raise InternalError("matrix never turned positive below the cap")
    if exponent > 49:
        raise InternalError("positivity threshold exceeds the power-49 "
                            "bound")
    if not (c ** 49).is_positive:
        raise InternalError("power 49 is not positive")
    prev = c ** (exponent - 1)
    witness = None
    for i in range(3):
        for j in range(3):
            if prev.at(i, j) <= 0:
                witness = (i, j, prev.at(i, j))
                break
        if witness:
            break
    if witness is None:
        raise InternalError("threshold is not minimal")
    return {
        "polynomial": poly,
        "root_interval": (lo, hi),
        "exponent": exponent,
        "bound_holds": exponent <= 49,
        "witness_power": exponent - 1,
        "witness": witness,
    }
