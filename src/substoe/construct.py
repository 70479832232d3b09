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
from .clopen import (LatticeGroup, _int_columns, _lam_step, _lattice_coords,
                     groups_equal, lattice_of)
from .errors import CapabilityError, DomainError, InternalError, RankError
from .field import certified_sign, perron_minimal_polynomial
from .intpoly import IntPolynomial
from .matrix import (
    ExactMatrix,
    _cleared,
    charpoly,
    eventual_positivity_exponent,
    first_power,
    hnf_basis,
    primitivity_exponent,
)
from .perron import _check_eigvec, multiplication_matrices, perron_data
from .subst import Substitution, linear_bound_estimate
from .words import RunWord

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
    """Mutable bookkeeping for a lattice basis under column moves.

    Tracks the basis vectors f (coordinate lists), their field values p
    and the coefficients c of the positive eigendirection in that
    basis.  Every move is unimodular, so the spanned lattice never
    changes; the goal is reaching a basis where all p and all c are
    certified positive.
    """

    def __init__(self, field, f_vecs):
        self.f = [list(v) for v in f_vecs]
        self.p = []
        for j, vec in enumerate(self.f):
            elt = field.from_coords(vec)
            if certified_sign(elt) < 0:
                self.f[j] = [-x for x in vec]
                elt = -elt
            self.p.append(elt)
        mp = multiplication_matrices(field)
        basis = ExactMatrix.from_columns(self.f)
        inv = basis.inverse()
        self.c = [sum((y * a for y, a in zip(mp.y1, inv.row(i))), field.zero())
                  for i in range(field.degree)]

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
        stays positive, c_j grows by c_i.  As Brun's algorithm shrinks
        its cone onto p, the basis cone grows until it holds y1, whose
        value multiplication_matrices certifies positive (Brentjes 1981;
        Schweiger 2000).  Completeness is not claimed: cap is the stated
        budget of moves.
        """
        moves = []
        signs = [certified_sign(ci) for ci in self.c]
        while min(signs) <= 0:
            if len(moves) == cap:
                raise CapabilityError(
                    "basis adjustment did not stabilize within %d moves"
                    % cap)
            i, j = self._top_two()
            self.f[i] = [x - y for x, y in zip(self.f[i], self.f[j])]
            self.p[i] = self.p[i] - self.p[j]
            self.c[j] = self.c[j] + self.c[i]
            signs[j] = certified_sign(self.c[j])
            moves.append(("shear", j, i, -1))
        self.certify()
        return moves

    def certify(self):
        for elt in self.p + self.c:
            if certified_sign(elt) <= 0:
                raise InternalError("adjusted basis lost positivity")


def _power_search(field, inv, start_vecs, accept, start, cap, what):
    """Scan F^-1 C^t applied to start_vecs for the first accepted t.

    The scan runs on integers: F^-1 is cleared once to integer rows over
    one denominator, each start vector to numerators over its own, and
    C, multiplication by lam, steps those numerators as a field product.
    """
    flat, den = _cleared(inv.entries)
    k = inv.cols
    rows = [flat[i:i + k] for i in range(0, len(flat), k)]
    step = _lam_step(field)
    vecs = []
    for v in start_vecs:
        nums, e = _cleared(v)
        for _ in range(start):
            nums = step(nums)
        vecs.append((nums, den * e))
    for t in range(start, cap + 1):
        cols = []
        for nums, d in vecs:
            col = []
            for row in rows:
                q, r = divmod(sum(a * x for a, x in zip(row, nums)), d)
                if r:
                    raise InternalError(
                        "lattice coordinates left the lattice")
                col.append(q)
            cols.append(col)
        if accept(cols):
            return t, cols
        vecs = [(step(nums), d) for nums, d in vecs]
    raise CapabilityError("no usable power of the eigenvalue below %d for %s"
                          % (cap, what))


def _minimize_core(lattice, xs, move_cap=200, n_cap=200, m_cap=200):
    """Shared pipeline: adjusted basis -> rows -> stationary system.

    lattice must be closed under multiplication by its field's generator
    and contain every entry of xs; xs must be positive with sum one.
    """
    field = lattice.field
    k = field.degree
    cone = _Cone(field, [x.coords for x in lattice.basis_vectors()])
    moves = cone.fix(move_cap)
    basis = ExactMatrix.from_columns(cone.f)
    inv = basis.inverse()

    def rows_ok(cols):
        if any(x < 0 for row in cols for x in row):
            return False
        return all(any(row[j] > 0 for row in cols) for j in range(k))

    n_power, rows = _power_search(
        field, inv, [x.coords for x in xs], rows_ok, 0, n_cap, "path rows")
    level0 = tuple(sum(row[j] for row in rows) for j in range(k))

    def all_positive(cols):
        return all(x >= 1 for col in cols for x in col)

    m_power, x_cols = _power_search(
        field, inv, cone.f, all_positive, 1, m_cap, "incidence")
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
    out_lattice = _carried_group(a_tilde, field, m_power, z, level0)
    comparison = groups_equal(lattice, out_lattice, m=m_power)
    _require_equal(comparison,
                   "output group is not identified with the input group")

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


def minimize_vertices(system, move_cap=200, n_cap=200, m_cap=200):
    """Rebuild a primitive system on as few vertices as its field degree.

    Accepts a Substitution or an incidence matrix.  The output is a
    proper substitution on degree-many letters whose diagram carries the
    same ordered group, certified exactly.
    """
    if isinstance(system, Substitution):
        a = system.incidence_matrix()
    else:
        a = _coerce_matrix(system)
    pd = perron_data(a)
    lattice = lattice_of(pd)
    report = _minimize_core(lattice, list(pd.eigvec),
                            move_cap=move_cap, n_cap=n_cap, m_cap=m_cap)
    report["input_size"] = a.rows
    report["output_size"] = pd.k
    return report


def realize_group_matrix(matrix, weights, closure_cap=24,
                         move_cap=200, n_cap=200, m_cap=200):
    """Build a stationary system whose path group is generated by weights.

    matrix supplies the field and eigenvalue; weights are coordinate
    vectors of positive field elements summing to one.  The lattice they
    generate is first saturated until some eigenvalue power maps it into
    itself, then the shared pipeline runs on the saturated lattice.
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
    vectors = [list(x.coords) for x in xs]
    try:
        h0, den0 = hnf_basis(vectors)
    except RankError:
        raise DomainError("weights must span the field over the rationals")

    h_cols = _int_columns(h0)
    step = _lam_step(field)
    cols = h_cols
    for closure_power in range(1, closure_cap + 1):
        cols = [step(v) for v in cols]
        if all(_lattice_coords(h_cols, den0, v, den0) is not None
               for v in cols):
            break
    else:
        raise DomainError("the weight lattice is not preserved by any "
                          "eigenvalue power up to %d" % closure_cap)

    gens = list(vectors)
    layer = xs
    inv = field.lam().inverse()
    for _ in range(closure_power - 1):
        layer = [x * inv for x in layer]
        gens.extend(x.coords for x in layer)
    saturated = LatticeGroup(field, gens)

    report = _minimize_core(saturated, xs,
                            move_cap=move_cap, n_cap=n_cap, m_cap=m_cap)
    report["closure_power"] = closure_power
    return report


# Coordinate size, in bits, of the largest eigenvalue power lam0**K whose
# group _carried_group builds; each builder step multiplies K, and the
# certificates then take seconds on such coordinates.
POWER_BITS = 32_768


def _carried_group(m, field, power, vec, level0=None):
    """Group of m, carried in the field of the input it was derived from.

    field's root is lam0; vec is a positive eigenvector of m in field for
    lam0**power, whose entries sum to one (pair to one with the root
    multiplicities level0, if given); m is primitive (callers certify
    it).  The result is the lattice of vec's entries, closed under
    lam0**power, which is the group of m.  The certificate:

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
    - The coordinates of lam0**power are held to POWER_BITS bits.
    - The normalization and m vec = lam0**power vec are checked exactly
      in field.
    """
    lam = field.lam() ** power
    if lam.den != 1:
        raise InternalError("eigenvalue power is not an algebraic integer")
    bits = max(abs(x).bit_length() for x in lam.nums)
    if bits > POWER_BITS:
        raise CapabilityError(
            "coordinates of eigenvalue power %d have %d bits, over the "
            "budget of %d bits" % (power, bits, POWER_BITS))
    weights = level0 or (1,) * len(vec)
    if sum((x * c for x, c in zip(vec, weights)), field.zero()) != 1:
        raise InternalError("carried eigenvector does not sum to one")
    _check_eigvec(m, lam, vec, field)
    return LatticeGroup(field, [x.coords for x in vec], power)


def _require_equal(comparison, unequal):
    """Pass an equal group comparison; fail the certificate otherwise."""
    if comparison["status"] != "equal":
        raise InternalError(unequal)


def enlarge_matrix(a, k_cap=64):
    """Grow a primitive matrix by one vertex, preserving its group.

    Returns the enlarged matrix together with the power k of the input
    eigenvalue it realizes; the identity A' (x, lam-1) = lam^k (x, lam-1)
    and the group comparison are certified exactly.
    """
    pd = perron_data(_coerce_matrix(a))
    return _enlarge(pd.matrix, lattice_of(pd), pd.eigvec, k_cap)[0]


def _enlarge(a, group, vec, k_cap):
    """enlarge_matrix on a, whose group is at hand.

    a has Perron root lam0**group.power, lam0 the root of group.field,
    and vec is its positive eigenvector in that field, summing to one.
    Returns (report, out, out_group, out_vec): the report, the enlarged
    matrix, and its group and eigenvector carried in the same field.
    """
    a_cols = list(zip(*a.int_rows()))
    colsums = [sum(col) for col in a_cols]
    found = first_power(
        a, lambda rows: all(x >= c for row in rows
                            for x, c in zip(row, colsums)), k_cap)
    if found is None:
        raise CapabilityError("no power below %d dominates the column sums"
                              % k_cap)
    step, p = found
    rows = [[x - (c - 1) for x, c in zip(row, colsums)] + [1] for row in p]
    # column sums of A^(step+1) - A^step, from those of A^step
    psums = [sum(col) for col in zip(*p)]
    rows.append([sum(x * y for x, y in zip(psums, col)) - q
                 for col, q in zip(a_cols, psums)] + [0])
    out = ExactMatrix.from_rows(rows)

    exponent = primitivity_exponent(out)
    if exponent is None:
        raise InternalError("enlargement lost primitivity")
    field = group.field
    lam = field.lam() ** group.power
    y = list(vec) + [lam - 1]
    # the entries of y sum to 1 + (lam - 1); _carried_group checks that y
    # is an eigenvector of out for lam**step
    inv = lam.inverse()
    out_vec = [x * inv for x in y]
    out_group = _carried_group(out, field, group.power * step, out_vec)
    comparison = groups_equal(group, out_group, m=step)
    _require_equal(comparison, "enlargement changed the path group")
    report = {
        "matrix": out,
        "power": step,
        "primitivity": exponent,
        "groups": comparison,
    }
    return report, out, out_group, out_vec


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
        word = RunWord.from_letters((letters[0], letter))
        word = word + middles[j]
        word = word + RunWord(zip(letters, surplus))
        rules[letter] = word + RunWord.from_letters((letters[0],))
    zeta = Substitution(rules, alphabet=letters)
    incidence = zeta.incidence_matrix()
    if incidence.int_rows() != rows:
        raise InternalError("%s miscounts the incidence" % what)
    proper = zeta.properness_witness()
    if proper is None or proper[0] != 1:
        raise InternalError("%s is not proper" % what)
    return zeta, incidence, proper


def build_soe_substitution(subst, block_length, n_cap=64,
                           piece_check_limit=10 ** 6):
    """Rewrite a primitive substitution so every length-(l+1) word occurs.

    The output is proper, keeps the path group (via an exact power
    comparison), and its language contains all s^(l+1) words of length
    block_length + 1, which strictly separates its complexity from any
    aperiodic input.
    """
    if not isinstance(subst, Substitution):
        raise DomainError("expected a substitution")
    if subst.primitivity() is None:
        raise DomainError("substitution must be primitive")
    l = int(block_length)
    if l < 1:
        raise DomainError("block length must be at least 1")
    letters = subst.alphabet
    s = len(letters)
    a = subst.incidence_matrix()

    pieces = list(product(letters, repeat=l + 1))
    block = RunWord.from_letters(chain.from_iterable(pieces))
    block_counts = block.letter_counts()
    extra = [[0] * s for _ in range(s)]
    for t, letter in enumerate(letters):
        extra[0][t] = block_counts.get(letter, 0)
    needs = _needs(letters, extra)

    found = first_power(
        a, lambda rows: all(rows[t][j] >= needs[j][t]
                            for j in range(s) for t in range(s)), n_cap)
    if found is None:
        raise CapabilityError("no power below %d fits the word blocks"
                              % n_cap)
    power, rows = found

    middles = [block] + [RunWord(()) for _ in range(s - 1)]
    zeta, p, proper = _frame_rules(letters, rows, needs, middles,
                                   "rewritten substitution")
    first_rule = zeta.rules[letters[0]]
    pieces_checked = first_rule.length <= piece_check_limit
    if pieces_checked:
        text = first_rule.expand()
        windows = {text[i:i + l + 1] for i in range(len(text) - l)}
        if not windows.issuperset(pieces):
            raise InternalError("a word block is missing from the "
                                "first rule")
    count = zeta.complexity(l + 1)
    if count != s ** (l + 1):
        raise InternalError("rewritten language misses a word of length "
                            "%d" % (l + 1))
    original = subst.complexity(l + 1)
    pd = perron_data(a)
    comparison = groups_equal(
        lattice_of(pd), _carried_group(p, pd.field, power, pd.eigvec),
        m=power)
    _require_equal(comparison, "rewriting changed the path group")
    return {
        "substitution": zeta,
        "power": power,
        "block_length": l,
        "full_count": count,
        "input_count": original,
        "separated": original < count,
        "pieces_checked": pieces_checked,
        "properness": proper,
        "groups": comparison,
    }


def build_oe_alphabet_family(subst, steps=1, probe_n=40, scan_n=60,
                             power_cap=16, k_cap=64):
    """Iterate: bound the complexity slope, then rebuild on a strictly
    larger alphabet with complexity above that bound.

    Each member is proper, primitive, carries the same path group as the
    previous member (exact comparison at the accumulated matrix power),
    and its complexity is checked to exceed (bound+1) n on an initial
    window.
    """
    if not isinstance(subst, Substitution):
        raise DomainError("expected a substitution")
    if subst.primitivity() is None:
        raise DomainError("substitution must be primitive")
    members = []
    current = subst
    group = None
    for _ in range(int(steps)):
        bound = max(linear_bound_estimate(current, probe_n), current.size)
        target = bound + 2
        if group is None:
            # every member's group is carried in the input's field
            pd = perron_data(subst.incidence_matrix())
            matrix, group, vec = pd.matrix, lattice_of(pd), pd.eigvec
        grown, grown_group, grown_vec = matrix, group, vec
        accumulated = 1
        while grown.rows < target:
            report, grown, grown_group, grown_vec = _enlarge(
                grown, grown_group, grown_vec, k_cap)
            accumulated *= report["power"]
        s = grown.rows
        found = first_power(
            grown,
            lambda rows: (all(x >= 1 for row in rows for x in row)
                          and all(x >= 2 for x in rows[0])
                          and rows[0][0] >= 3), power_cap)
        if found is None:
            raise CapabilityError("no power below %d seats the frame"
                                  % power_cap)
        exponent, rows = found
        accumulated *= exponent

        letters = _default_letters(s)
        needs = _needs(letters, [[0] * s for _ in range(s)])
        middles = [RunWord(()) for _ in range(s)]
        zeta, b, proper = _frame_rules(letters, rows, needs, middles,
                                       "family member")
        profile = zeta.complexity_profile(scan_n)
        for n, count in enumerate(profile, start=1):
            if count <= (bound + 1) * n:
                raise InternalError("family member complexity fails the "
                                    "slope bound at length %d" % n)
        member_group = _carried_group(b, group.field,
                                      grown_group.power * exponent, grown_vec)
        comparison = groups_equal(group, member_group, m=accumulated)
        _require_equal(comparison, "family member changed the path group")
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


def _partitions(total, max_part):
    if total == 0:
        yield ()
        return
    for part in range(min(total, max_part), 0, -1):
        for rest in _partitions(total - part, part):
            yield (part,) + rest


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
    parts have no common factor, one per enumerate_rational_y system."""
    p = _partition_numbers(q)
    return sum(_mobius(d) * p[q // d] for d in range(1, q + 1) if q % d == 0)


def enumerate_rational_y(q):
    """All stationary odometer presentations of the rational weights Y
    with denominator exactly q.

    Each admissible descending partition of q gives one system; the
    report carries the exact regeneration identity rows * base = weights.
    Every row is a part c of q and every weight is c/q, so the identity
    is checked once per entry of the table of the q possible weights.
    Denominators with more than Y_SYSTEM_CAP systems are refused before
    any system is built.
    """
    q = int(q)
    if q < 1:
        raise DomainError("denominator must be at least 1")
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
    level0 = q
    weight = [None] + [Fraction(c, q) for c in range(1, q + 1)]
    for c in range(1, q + 1):
        if c * base != weight[c]:
            raise InternalError("rows do not regenerate the weights")
    if level0 * base != 1:
        raise InternalError("path weights do not sum to one")
    matrix = ((q,),)
    systems = []
    for parts in _partitions(q, q):
        # the gcd of the parts divides their sum q, so coprimality with
        # q is the same as the parts having no common factor
        if gcd(*parts) != 1:
            continue
        systems.append({
            "partition": parts,
            "weights": tuple([weight[c] for c in parts]),
            "rows": parts,
            "level0": level0,
            "matrix": matrix,
            "base": base,
        })
    if len(systems) != count:
        raise InternalError("system count differs from c(q)")
    return systems


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
    field, degree = perron_minimal_polynomial(c)
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
                witness = (i, j, int(prev.at(i, j)))
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
