"""Additive groups of cylinder measure values and their comparison.

A group is presented by a finitely generated lattice of field elements
that multiplication by the eigenvalue maps into itself; the group is the
union of the lattice divided by all eigenvalue powers.  The eigenvalue is
lam**K for the field's root lam and the lattice's power K: a system
derived from another keeps the field of its source and records the power
its Perron root is of the source's.  Membership and equality questions
reduce to integer linear algebra on coordinates: exact division down the
triangular basis, and one bounded kernel that decides when eigenvalue
powers carry vectors into a lattice.  Two lattices on one field are
compared directly; lattices on two fields are first identified through
the minimal polynomial of the eigenvalue power.
"""

from fractions import Fraction
from math import gcd

from .errors import DomainError, FieldMismatchError
from .field import (FieldElement, _interval_horner, _times_lam, certified_sign,
                    minimal_polynomial)
from .matrix import ExactMatrix, _cleared, hnf_basis
from .perron import companion_matrix, measure_weights


def _triangular_coords(h, den, vec):
    """Rational coordinates of vec in the column basis h/den."""
    k = h.rows
    t = [Fraction(x) * den for x in vec]
    coeffs = []
    for i in range(k):
        c = t[i] / h.at(i, i)
        coeffs.append(c)
        if c:
            for r in range(i + 1, k):
                t[r] -= c * h.at(r, i)
    return coeffs


def _int_columns(h):
    """Columns of an integer matrix as lists of ints."""
    return [[int(x) for x in h.column(j)] for j in range(h.cols)]


def _lattice_coords(cols, den, nums, e):
    """Integer coordinates c of nums/e in the lattice spanned by the
    columns / den, or None off the lattice.  cols is a lower-triangular
    integer basis (hnf_basis, as _int_columns); den*nums = e*H*c is solved
    by exact division down the triangle, stopping at a non-integer c_i."""
    t = [x * den for x in nums]
    k = len(t)
    coords = []
    for i in range(k):
        col = cols[i]
        c, r = divmod(t[i], col[i] * e)
        if r:
            return None
        coords.append(c)
        if c:
            c *= e
            for j in range(i + 1, k):
                t[j] -= c * col[j]
    return coords


def _step_matrix(cols, step):
    """Columns of the integer matrix of step on the lattice coordinates of
    the basis cols, or None when step leaves the lattice."""
    m = [_lattice_coords(cols, 1, step(col), 1) for col in cols]
    return None if None in m else m


def _absorbed_at(m, xs, d):
    """Least t with m**t x = 0 (mod d) for every x in xs, or None.

    m is a k x k integer matrix given by its columns.  If no t <= T =
    k * d.bit_length() works, none does: for each p**a dividing d the
    kernels of m**t on (Z/p**a)**k grow with t in a module of length k*a,
    and once two successive kernels agree they agree for good (Fitting's
    lemma).  Absorption is monotone in t, so the least t comes by binary
    lifting over the squares m**(2**i) mod d, not by a scan from 0.
    """

    def apply(cols, v):
        return [sum(a * x for a, x in zip(row, v)) % d for row in zip(*cols)]

    if not any(x % d for v in xs for x in v):
        return 0
    bound = len(m) * d.bit_length()
    squares = [[[x % d for x in c] for c in m]]
    while 1 << len(squares) <= bound:
        squares.append([apply(squares[-1], c) for c in squares[-1]])
    t = 0
    for i in reversed(range(len(squares))):
        moved = [apply(squares[i], x) for x in xs]
        if any(map(any, moved)):
            xs, t = moved, t + (1 << i)
    return t + 1 if t < bound else None


def _lam_step(field, m=1):
    """Multiplication by lam**m on integer coordinate numerators.

    For m = 1 this is the companion shift-and-subtract; higher powers
    apply the integer matrix C**m.
    """
    if m == 1:
        f = field.min_poly.coeffs
        return lambda v: _times_lam(v, f)
    rows = (companion_matrix(field) ** m).int_rows()
    return lambda v: [sum(a * x for a, x in zip(row, v)) for row in rows]


class LatticeGroup:
    """Lattice of field elements closed under multiplication by lam**power,
    lam the field's root: the group of a system with Perron root lam**power."""

    def __init__(self, field, vectors, power=1):
        vectors = [tuple(Fraction(x) for x in v) for v in vectors]
        if not vectors:
            raise DomainError("a lattice group needs generators")
        if any(len(v) != field.degree for v in vectors):
            raise DomainError("generator length does not match the field degree")
        basis, den = hnf_basis(vectors)
        cols = _int_columns(basis)
        if _step_matrix(cols, _lam_step(field, power)) is None:
            raise DomainError(
                "not closed under multiplication by the eigenvalue")
        self.field = field
        self.power = power
        self.generators = vectors
        self.basis = basis
        self.den = den
        self._cols = cols

    def basis_vectors(self):
        """Lattice basis as field elements."""
        return tuple(
            self.field.from_coords([x / self.den for x in self.basis.column(j)])
            for j in range(self.field.degree))

    def lattice_contains(self, elt):
        """Whether the element lies in the lattice itself (no rescaling)."""
        if elt.field != self.field:
            raise FieldMismatchError("element lives in a different field")
        return _lattice_coords(self._cols, self.den, elt.nums, elt.den) is not None

    def membership_exponent(self, elt, cap=64):
        """Least n with lam**(power*n) * elt in the lattice if it is at most
        cap (which bounds the report, not the search), else None."""
        if elt.field != self.field:
            raise FieldMismatchError("element lives in a different field")
        n = _absorption(self.field, self.power, self.basis, self.den,
                        [elt.coords]).get("exponent")
        return n if n is not None and n <= cap else None

    def __repr__(self):
        return "LatticeGroup(degree=%d, den=%d)" % (self.field.degree, self.den)


def lattice_of(pd, level0=None):
    """Group of the eigenvector entries, optionally renormalized so the
    pairing with root multiplicities is one."""
    xs = pd.eigvec if level0 is None else measure_weights(pd, level0)
    return LatticeGroup(pd.field, [x.coords for x in xs])


def lattice_from_elements(field, elements):
    vecs = []
    for e in elements:
        if not isinstance(e, FieldElement) or e.field != field:
            raise FieldMismatchError("elements must belong to the given field")
        vecs.append(e.coords)
    return LatticeGroup(field, vecs)


def s_membership(group, value, cap=64):
    """Membership of a unit-interval value in the group, up to the cap."""
    if isinstance(value, FieldElement):
        elt = value
    else:
        elt = group.field.from_rational(Fraction(value))
    if elt.field != group.field:
        raise FieldMismatchError("value lives in a different field")
    if certified_sign(elt) < 0 or certified_sign(group.field.one() - elt) < 0:
        raise DomainError("value must lie inside the unit interval")
    n = group.membership_exponent(elt, cap)
    if n is None:
        return {"status": "not-member-up-to", "cap": cap}
    return {"status": "member", "exponent": n}


def _strip_shared_primes(d, modulus):
    while d > 1:
        g = gcd(d, modulus)
        if g == 1:
            break
        d //= g
    return d


def _absorption(field, m, h, den, vectors):
    """Least t with lam**(m*t) v in the lattice h/den (closed under
    lam**m) for every v, as {"exponent": t}; else the reason there is none:
    a prime-denominator witness that lam cannot clear (a prime its norm
    lacks), or not-absorbed with the bound of _absorbed_at."""
    norm = abs(field.min_poly.coeffs[0])
    coords = [_triangular_coords(h, den, v) for v in vectors]
    for c in coords:
        blocked = _strip_shared_primes(_cleared(c)[1], norm)
        if blocked > 1:
            return {"reason": "prime-denominator", "denominator": blocked}
    flat, d = _cleared([x for c in coords for x in c])
    if d == 1:
        return {"exponent": 0}
    k = h.rows
    xs = [flat[i:i + k] for i in range(0, len(flat), k)]
    t = _absorbed_at(_step_matrix(_int_columns(h), _lam_step(field, m)),
                     xs, d)
    if t is None:
        return {"reason": "not-absorbed", "bound": k * d.bit_length()}
    return {"exponent": t}


def _same_embedded_root(mu, field2):
    """Whether mu (a root of field2's polynomial) is field2's chosen root.

    One walk of mu's bisection chain: the enclosure of mu's value shrinks
    onto mu, which lies strictly inside field2's interval or strictly
    outside it, since the interval ends are not roots.
    """
    lo, hi = field2.interval
    nums, d = mu.nums, mu.den

    def place(a, b):
        # mu lies in [vlo, vhi] / (s * d); scale field2's interval to match
        vlo, vhi, s = _interval_horner(nums, a, b)
        slo, shi = lo * (s * d), hi * (s * d)
        if slo < vlo and vhi < shi:
            return True
        if vhi < slo or vlo > shi:
            return False
        return None
    return mu.field._first_accepted(place)


def groups_equal(first, second, m):
    """Compare two value groups, reading the second eigenvalue as the
    m-th power of the first.

    Lattices on one field object compare directly, and the second must
    be closed under the m-th power of the first's eigenvalue:
    second.power == m * first.power.  Otherwise the second field's root
    is identified with first's lam**(m * first.power) through its minimal
    polynomial and isolating interval, and its lattice (which must have
    power 1) is carried into the first field.

    Returns a status dict: equal with absorption exponents, or unequal
    with a reason (rank, prime-denominator, not-absorbed) and, for the
    last two, the direction that fails and its witness.
    """
    m = int(m)
    if m < 1:
        raise DomainError("power linking the eigenvalues must be positive")
    power = m * first.power
    k1 = first.field.degree
    if second.field is first.field:
        if second.power != power:
            raise FieldMismatchError(
                "second lattice is not closed under the declared "
                "eigenvalue power")
        h2, den2 = second.basis, second.den
        gens2 = [[Fraction(x, den2) for x in h2.column(j)] for j in range(k1)]
    else:
        if second.power != 1:
            raise FieldMismatchError(
                "a lattice closed under a power of its root compares only "
                "on its own field")
        mu = first.field.lam() ** power
        poly = minimal_polynomial(mu)
        if poly != second.field.min_poly:
            raise FieldMismatchError(
                "second field is not generated by the declared eigenvalue power")
        if not _same_embedded_root(mu, second.field):
            raise FieldMismatchError(
                "declared eigenvalue power is a different root of the same polynomial")
        k2 = second.field.degree
        if k2 < k1:
            return {"status": "unequal", "reason": "rank"}
        transport = ExactMatrix.from_columns(
            [list((mu ** j).coords) for j in range(k2)])
        gens2 = [transport.apply([Fraction(x, second.den)
                                  for x in second.basis.column(j)])
                 for j in range(k2)]
        h2, den2 = hnf_basis(gens2)
    gens1 = [[Fraction(x, first.den) for x in first.basis.column(j)]
             for j in range(k1)]
    found = {}
    for direction, step, h, den, vectors in (
            ("second-into-first", first.power, first.basis, first.den, gens2),
            ("first-into-second", power, h2, den2, gens1)):
        found[direction] = _absorption(first.field, step, h, den, vectors)
        if "denominator" in found[direction]:
            break
    # a prime-denominator witness is reported before a not-absorbed one
    for direction, result in sorted(found.items(),
                                    key=lambda item: "bound" in item[1]):
        if "reason" in result:
            return {"status": "unequal", "direction": direction, **result}
    return {"status": "equal",
            "first_absorbs_at": found["second-into-first"]["exponent"],
            "second_absorbs_at": found["first-into-second"]["exponent"]}
