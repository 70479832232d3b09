"""Additive groups of cylinder measure values and their comparison.

A group is presented by a finitely generated lattice of field elements
that multiplication by the eigenvalue maps into itself; the group is the
union of the lattice divided by all eigenvalue powers.  Membership and
equality questions reduce to integer linear algebra on coordinates: a
vector is kept as integer numerators over one denominator, tested by exact
division down the triangular basis, and multiplied by the eigenvalue with
integer companion steps.
"""

from fractions import Fraction
from math import gcd

from .errors import DomainError, FieldMismatchError
from .field import (FieldElement, _cleared, certified_sign, minimal_polynomial,
                    value_interval)
from .matrix import ExactMatrix, hnf_basis
from .perron import companion_matrix, measure_weights


def _triangular_coords(h, den, vec):
    """Rational coordinates of vec in the column basis h/den.

    Only the denominators of these are ever needed; a plain membership test
    is _in_lattice.
    """
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


def _in_lattice(cols, den, nums, e):
    """Whether nums/e lies in the lattice spanned by the columns / den.

    cols is a lower-triangular integer basis (hnf_basis, as _int_columns);
    den*nums = e*H*c is solved by exact division down the triangle,
    stopping at the first coordinate that is not an integer.
    """
    t = [x * den for x in nums]
    k = len(t)
    for i in range(k):
        col = cols[i]
        c, r = divmod(t[i], col[i] * e)
        if r:
            return False
        if c:
            c *= e
            for j in range(i + 1, k):
                t[j] -= c * col[j]
    return True


def _lam_step(field, m=1):
    """Multiplication by lam**m on integer coordinate numerators.

    For m = 1 this is the companion shift-and-subtract; higher powers
    apply the integer matrix C**m.
    """
    if m == 1:
        lower = field.min_poly.coeffs[:-1]

        def step(v):
            top = v[-1]
            out = [0] + v[:-1]
            if top:
                for i, c in enumerate(lower):
                    out[i] -= top * c
            return out
        return step
    rows = (companion_matrix(field) ** m).int_rows()
    return lambda v: [sum(a * x for a, x in zip(row, v)) for row in rows]


class LatticeGroup:
    """Lattice of field elements closed under multiplication by lam."""

    def __init__(self, field, vectors):
        vectors = [tuple(Fraction(x) for x in v) for v in vectors]
        if not vectors:
            raise DomainError("a lattice group needs generators")
        if any(len(v) != field.degree for v in vectors):
            raise DomainError("generator length does not match the field degree")
        basis, den = hnf_basis(vectors)
        cols = _int_columns(basis)
        step = _lam_step(field)
        for col in cols:
            if not _in_lattice(cols, 1, step(col), 1):
                raise DomainError(
                    "not closed under multiplication by the eigenvalue")
        self.field = field
        self.generators = vectors
        self.basis = basis
        self.den = den
        self._cols = cols
        self._step = step

    def basis_vectors(self):
        """Lattice basis as field elements."""
        return tuple(
            self.field.from_coords([x / self.den for x in self.basis.column(j)])
            for j in range(self.field.degree))

    def lattice_contains(self, elt):
        """Whether the element lies in the lattice itself (no rescaling)."""
        if elt.field != self.field:
            raise FieldMismatchError("element lives in a different field")
        nums, e = _cleared(elt.coords)
        return _in_lattice(self._cols, self.den, nums, e)

    def membership_exponent(self, elt, cap=64):
        """Least n with lam**n * elt in the lattice, or None within the cap."""
        if elt.field != self.field:
            raise FieldMismatchError("element lives in a different field")
        nums, e = _cleared(elt.coords)
        for n in range(cap + 1):
            if _in_lattice(self._cols, self.den, nums, e):
                return n
            nums = self._step(nums)
        return None

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
    """Capped scan deciding membership of a unit-interval value in the group."""
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


def _absorption(step, h, den, norm, vectors, cap):
    """Least t with step**t applied to every vector landing in h/den.

    step acts on integer numerators (see _lam_step).

    norm carries the primes that step can clear from denominators; any
    other prime in a coordinate denominator blocks absorption forever.
    """
    for v in vectors:
        d = _cleared(_triangular_coords(h, den, v))[1]
        blocked = _strip_shared_primes(d, norm)
        if blocked > 1:
            return {"status": "never", "denominator": blocked}
    cols = _int_columns(h)
    cur = [_cleared(v) for v in vectors]
    for t in range(cap + 1):
        if all(_in_lattice(cols, den, nums, e) for nums, e in cur):
            return {"status": "at", "exponent": t}
        cur = [(step(nums), e) for nums, e in cur]
    return {"status": "unknown"}


def _same_embedded_root(mu, field2):
    """Whether mu (a root of field2's polynomial) is field2's chosen root."""
    lo, hi = field2.interval
    width = hi - lo
    while True:
        vlo, vhi = value_interval(mu, width)
        if lo < vlo and vhi < hi:
            return True
        if vhi < lo or vlo > hi:
            return False
        width = width / 8


def groups_equal(first, second, m, cap=64):
    """Compare two value groups, reading the second eigenvalue as the
    m-th power of the first.

    Returns a status dict: equal with absorption exponents, unequal with
    a reason, or undecided-up-to when the scan cap runs out.
    """
    m = int(m)
    if m < 1:
        raise DomainError("power linking the eigenvalues must be positive")
    mu = first.field.lam() ** m
    poly = minimal_polynomial(mu)
    if poly != second.field.min_poly:
        raise FieldMismatchError(
            "second field is not generated by the declared eigenvalue power")
    if not _same_embedded_root(mu, second.field):
        raise FieldMismatchError(
            "declared eigenvalue power is a different root of the same polynomial")
    k1 = first.field.degree
    k2 = second.field.degree
    if k2 < k1:
        return {"status": "unequal", "reason": "rank"}
    transport = ExactMatrix.from_columns(
        [list((mu ** j).coords) for j in range(k2)])
    gens2 = [transport.apply([Fraction(x, second.den) for x in second.basis.column(j)])
             for j in range(k2)]
    h2, den2 = hnf_basis(gens2)
    gens1 = [[Fraction(x, first.den) for x in first.basis.column(j)]
             for j in range(k1)]
    norm = abs(first.field.min_poly.coeffs[0])
    into_first = _absorption(first._step, first.basis, first.den,
                             norm, gens2, cap)
    if into_first["status"] == "never":
        return {"status": "unequal", "reason": "prime-denominator",
                "direction": "second-into-first",
                "denominator": into_first["denominator"]}
    into_second = _absorption(_lam_step(first.field, m), h2, den2, norm,
                              gens1, cap)
    if into_second["status"] == "never":
        return {"status": "unequal", "reason": "prime-denominator",
                "direction": "first-into-second",
                "denominator": into_second["denominator"]}
    if into_first["status"] == "at" and into_second["status"] == "at":
        return {"status": "equal",
                "first_absorbs_at": into_first["exponent"],
                "second_absorbs_at": into_second["exponent"]}
    return {"status": "undecided-up-to", "cap": cap}
