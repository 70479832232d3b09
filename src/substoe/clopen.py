"""Additive groups of cylinder measure values and their comparison.

A group is presented by a finitely generated lattice of field elements
that multiplication by the eigenvalue maps into itself; the group is the
union of the lattice divided by all eigenvalue powers.  The eigenvalue is
lam**K for the field's root lam and the lattice's power K: a system
derived from another keeps the field of its source and records the power
its Perron root is of the source's.  A LatticeGroup holds lam**K as its
eigenvalue, built once before any basis work, and is built from its
generating field elements, as integer rows over one denominator.  It owns
the integer arithmetic of its lattice: the triangular basis, exact
division down it, and the integer matrix of its eigenvalue on basis
coordinates, kept from its closure check.  Membership and equality
questions reduce to one bounded kernel that decides when eigenvalue
powers carry vectors into a lattice.  A lattice on a second field is
carried into the first field once, through the minimal polynomial of the
eigenvalue power, and one comparison then runs on the first field.
"""

from fractions import Fraction
from math import gcd, lcm, prod

from .errors import (CapabilityError, DomainError, FieldMismatchError,
                     _number_text, _require_positive_int)
from .field import FieldElement, _element, _interval_horner, certified_sign
from .matrix import _int_apply, _int_matmul, hnf_basis


def _lattice_coords(cols, den, nums, e):
    """Integer coordinates c of nums/e in the lattice spanned by the
    columns / den, or None off the lattice.  cols is a lower-triangular
    integer basis (hnf_basis's, by columns); den*nums = e*H*c is solved
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


def _absorbed_at(m, xs, d):
    """Least t with m**t x = 0 (mod d) for every x in xs, or None.

    m is a k x k integer matrix given by its columns.  If no t <= T =
    k * d.bit_length() works, none does: for each p**a dividing d the
    kernels of m**t on (Z/p**a)**k grow with t in a module of length k*a,
    and once two successive kernels agree they agree for good (Fitting's
    lemma).  Absorption is monotone in t, so the least t comes by binary
    lifting over the squares m**(2**i) mod d, not by a scan from 0.
    """

    def reduced(rows):
        return [[x % d for x in row] for row in rows]

    if not any(x % d for v in xs for x in v):
        return 0
    bound = len(m) * d.bit_length()
    squares = [reduced(zip(*m))]  # rows of m**(2**i) mod d
    while 1 << len(squares) <= bound:
        squares.append(reduced(_int_matmul(squares[-1], squares[-1])))
    t = 0
    for i in reversed(range(len(squares))):
        moved = reduced(_int_apply(squares[i], x) for x in xs)
        if any(map(any, moved)):
            xs, t = moved, t + (1 << i)
    return t + 1 if t < bound else None


def _integer_lattice(field, elements):
    """(H, den) for the lattice the field elements generate: den is the
    lcm of the x.den and H is hnf_basis of the rows x.nums * (den // x.den).

    Clearing the elements' Fraction coordinates to one denominator gives
    the same rows and den: gcd(x.den, *x.nums) = 1, so the lcm of the
    reduced denominators of x's coordinates is x.den itself.
    """
    if not elements:
        raise DomainError("a lattice group needs generators")
    if not all(isinstance(x, FieldElement) and x.field == field
               for x in elements):
        raise FieldMismatchError("generators must be elements of the given field")
    den = lcm(*(x.den for x in elements))
    return hnf_basis([[n * (den // x.den) for n in x.nums]
                      for x in elements]), den


# Coordinate size, in bits, of the largest eigenvalue power lam**K that is
# built; a builder step or a user's m multiplies K, and the certificates
# then take seconds on such coordinates.
POWER_BITS = 32_768


def _lam_power(field, k):
    """lam**k for field's root lam, squared up from lam by the binary
    digits of k and refused as soon as a power lam**j on the way, j <= k,
    has coordinates over POWER_BITS bits."""
    lam = field.lam()
    power, j = (lam, 1) if k else (field.one(), 0)
    for bit in bin(k)[3:]:
        power, j = power * power, 2 * j
        if bit == "1":
            power, j = power * lam, j + 1
        bits = max(map(abs, power.nums)).bit_length()
        if bits > POWER_BITS:
            raise CapabilityError(
                "coordinates of eigenvalue power %d have %d bits, over the "
                "budget of %d bits" % (j, bits, POWER_BITS))
    return power


class LatticeGroup:
    """Lattice of field elements closed under its eigenvalue lam**power,
    lam the field's root: the group of a system with that Perron root."""

    def __init__(self, field, elements, power=1):
        _require_positive_int(power, "eigenvalue power")
        # before the basis: a power over POWER_BITS costs no basis work
        self._close(field, elements, power, _lam_power(field, power))

    def _close(self, field, elements, power, lam):
        """Build the group on lam = lam0**power, which the caller made."""
        elements = list(elements)
        basis, den = _integer_lattice(field, elements)
        cols = [basis.column(j) for j in range(basis.cols)]
        # the integer matrix of lam (integral) on basis coordinates, by columns
        step = [_lattice_coords(cols, 1, (lam * _element(field, c, 1)).nums, 1)
                for c in cols]
        if None in step:
            raise DomainError(
                "not closed under multiplication by the eigenvalue")
        self.field = field
        self.power = power
        self.eigenvalue = lam
        self.generators = elements
        self.basis = basis
        self.den = den
        self._cols = cols
        self._step = step
        return self

    def basis_vectors(self):
        """Lattice basis as field elements."""
        return tuple(_element(self.field, col, self.den) for col in self._cols)

    def lattice_contains(self, elt):
        """Whether the element lies in the lattice itself (no rescaling)."""
        if elt.field != self.field:
            raise FieldMismatchError("element lives in a different field")
        return _lattice_coords(self._cols, self.den, elt.nums, elt.den) is not None

    def membership_exponent(self, elt, cap=64):
        """Least n with lam**(power*n) * elt in the lattice if it is at most
        cap, an int >= 0 that bounds the report, not the search; else None."""
        if type(cap) is not int or cap:
            _require_positive_int(cap, "cap")
        if elt.field != self.field:
            raise FieldMismatchError("element lives in a different field")
        n = _absorption(self, [(elt.nums, elt.den)]).get("exponent")
        return n if n is not None and n <= cap else None

    def __repr__(self):
        return "LatticeGroup(degree=%d, den=%s)" % (self.field.degree,
                                                    _number_text(self.den))


def lattice_of(pd):
    """Group of the Perron eigenvector entries.  A diagram's group is
    LatticeGroup(field, weights) on its measure_eigenvector()."""
    return LatticeGroup(pd.field, pd.eigvec)


def s_membership(group, value, cap=64):
    """Membership of a unit-interval value in the group, up to the cap."""
    if isinstance(value, FieldElement):
        elt = value
    else:
        elt = group.field.from_rational(value)
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


def _absorption(group, vectors):
    """Least t with lam**(power*t) v in group's lattice for every v =
    nums / e in vectors, as {"exponent": t}; else the reason there is
    none: a prime-denominator witness that lam cannot clear (a prime its
    norm lacks), or not-absorbed with the bound of _absorbed_at.

    With D the determinant of the triangular basis, adj(H) = D * H**-1
    is integral, so D * e times the coordinates of v solve in integers.
    """
    norm = abs(group.field.min_poly.coeffs[0])
    cols = group._cols
    det = prod(col[i] for i, col in enumerate(cols))
    scaled = []
    for nums, e in vectors:
        c = _lattice_coords(cols, group.den * det, nums, 1)
        g = gcd(det * e, *c)
        q = det * e // g
        blocked = _strip_shared_primes(q, norm)
        if blocked > 1:
            return {"reason": "prime-denominator", "denominator": blocked}
        scaled.append(([x // g for x in c], q))
    d = lcm(*(q for _, q in scaled))
    if d == 1:
        return {"exponent": 0}
    xs = [[x * (d // q) for x in c] for c, q in scaled]
    t = _absorbed_at(group._step, xs, d)
    if t is None:
        return {"reason": "not-absorbed", "bound": len(cols) * d.bit_length()}
    return {"exponent": t}


def _same_embedded_root(mu, field2):
    """Whether mu (a root of field2's polynomial) is field2's chosen root.

    One walk of mu's bisection chain: the enclosure of mu's value shrinks
    onto mu, which lies strictly inside field2's interval or strictly
    outside it, since the interval ends are not roots.  An enclosure on a
    finer interval lies inside the coarser one and gives the same answer,
    so the walk starts at the finest interval.
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
    return mu.field._first_accepted(place, finest=True)


def _carried_into(field, power, group):
    """group, a lattice on a second field, carried into field: the root of
    group's field is identified with field's lam**power through its
    minimal polynomial and isolating interval, and the lattice basis is
    mapped along, giving the generators of the result in order.  None
    when group's field has the lower degree."""
    if group.power != 1:
        raise FieldMismatchError(
            "a lattice closed under a power of its root compares only "
            "on its own field")
    mu = _lam_power(field, power)
    # an irreducible monic f2 is mu's minimal polynomial iff f2(mu) = 0
    value = field.one()
    for c in reversed(group.field.min_poly.coeffs[:-1]):
        value = value * mu + c
    if not value.is_zero:
        raise FieldMismatchError(
            "second field is not generated by the declared eigenvalue power")
    if not _same_embedded_root(mu, group.field):
        raise FieldMismatchError(
            "declared eigenvalue power is a different root of the same polynomial")
    if group.field.degree < field.degree:
        return None
    mus = [mu ** j for j in range(field.degree)]
    scale = Fraction(1, group.den)
    return LatticeGroup.__new__(LatticeGroup)._close(field, [
        sum((p * x for p, x in zip(mus, col)), field.zero()) * scale
        for col in group._cols], power, mu)


def groups_equal(first, second, m):
    """Compare two value groups, reading the second eigenvalue as the
    m-th power of the first.

    A lattice on first's field object must be closed under the m-th power
    of first's eigenvalue: second.power == m * first.power.  A lattice on
    another field must have power 1; it is carried into first's field
    once (_carried_into), and one comparison then runs there.  The
    witness of a failing direction is the first failing vector of the
    source lattice's own basis, carried along with it.

    Returns a status dict: equal with absorption exponents, or unequal
    with a reason (rank, prime-denominator, not-absorbed) and, for the
    last two, the direction that fails and its witness.
    """
    _require_positive_int(m, "power linking the eigenvalues")
    power = m * first.power
    if second.field is first.field:
        if second.power != power:
            raise FieldMismatchError(
                "second lattice is not closed under the declared "
                "eigenvalue power")
        second_basis = [(col, second.den) for col in second._cols]
    else:
        second = _carried_into(first.field, power, second)
        if second is None:
            return {"status": "unequal", "reason": "rank"}
        # the images of the second field's basis, in its order
        second_basis = [(x.nums, x.den) for x in second.generators]
    found = {}
    for direction, target, vectors in (
            ("second-into-first", first, second_basis),
            ("first-into-second", second,
             [(col, first.den) for col in first._cols])):
        found[direction] = _absorption(target, vectors)
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
