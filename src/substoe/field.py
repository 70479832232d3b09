"""Real algebraic number fields presented as Q[t] modulo a minimal polynomial.

An element is integer numerators over one positive denominator in lowest
terms: products are integer convolutions reduced by the monic minimal
polynomial, and the inverse is one fraction-free (Bareiss) integer solve.
A field carries an isolating interval for its distinguished root, always
the largest real root of the minimal polynomial, with rational endpoints
where the polynomial changes sign.  Signs are certified by interval Horner
on the numerators over bisections of that interval, which ends because a
nonzero element cannot vanish at the root.  Each field keeps its chain of
bisected intervals, so every bisection step, one evaluation at a midpoint,
runs once per field however many elements are certified.
"""

from fractions import Fraction
from math import gcd, lcm

from .errors import DimensionError, DomainError, InternalError
from .intpoly import (
    IntPolynomial,
    _eval_at,
    count_real_roots,
    factor_monic_squarefree,
    isolate_largest_real_root,
    refine_root_interval,
    squarefree_part,
)
from .matrix import _bareiss, charpoly, kernel_basis


class NumberField:
    """Q(lam) for lam the largest real root of a monic irreducible polynomial."""

    __slots__ = ("min_poly", "degree", "interval", "_chain", "_lo_sign")

    def __init__(self, min_poly, interval):
        if not isinstance(min_poly, IntPolynomial) or not min_poly.is_monic:
            raise DomainError("monic integer minimal polynomial required")
        if min_poly.degree < 1:
            raise DomainError("minimal polynomial must have positive degree")
        lo, hi = Fraction(interval[0]), Fraction(interval[1])
        if not (lo < hi):
            raise DomainError("empty isolating interval")
        lo_sign = _eval_at(min_poly.coeffs, lo)
        if lo_sign * _eval_at(min_poly.coeffs, hi) >= 0:
            raise DomainError("isolating interval must change sign")
        if count_real_roots(min_poly, lo, hi) != 1:
            raise DomainError("interval does not isolate a single root")
        object.__setattr__(self, "min_poly", min_poly)
        object.__setattr__(self, "degree", min_poly.degree)
        object.__setattr__(self, "interval", (lo, hi))
        # _chain[i] is the interval bisected i times; see _first_accepted.
        object.__setattr__(self, "_chain", [(lo, hi)])
        object.__setattr__(self, "_lo_sign", lo_sign)

    def __setattr__(self, name, value):
        raise AttributeError("NumberField is immutable")

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.min_poly == other.min_poly

    def __hash__(self):
        return hash(("NumberField", self.min_poly.coeffs))

    def __repr__(self):
        return "NumberField(%s)" % (self.min_poly,)

    def zero(self):
        return _element(self, (0,) * self.degree, 1)

    def one(self):
        return self.from_rational(1)

    def lam(self):
        return _element(self, _times_lam(self.one().nums, self.min_poly.coeffs), 1)

    def from_rational(self, q):
        if not isinstance(q, (int, Fraction)):
            q = Fraction(q)
        return _element(self, (q.numerator,) + (0,) * (self.degree - 1),
                        q.denominator)

    def from_coords(self, coords):
        return FieldElement(self, coords)

    def _first_accepted(self, accept, finest=False):
        """accept(lo, hi) at the first interval of the bisection chain where
        it is not None, walking from the coarse interval or, with finest,
        from the finest one the chain holds.

        The chain holds the interval bisected 0, 1, 2, ... times.  It is
        deterministic, so it is extended on demand and each step runs once
        for the life of the field, and the walk sees the same intervals as
        bisecting the coarse interval afresh would.  finest is for an
        accept whose answer on an interval holds on every interval inside.
        """
        chain = self._chain
        i = len(chain) - 1 if finest else 0
        while True:
            if i == len(chain):
                chain.append(refine_root_interval(self.min_poly, *chain[-1],
                                                  self._lo_sign))
            found = accept(*chain[i])
            if found is not None:
                return found
            i += 1

    def refined_interval(self, width):
        """A sign-change isolating interval no wider than width."""
        return self._first_accepted(
            lambda lo, hi: (lo, hi) if hi - lo <= width else None)


class FieldElement:
    """sum(nums[i] * lam**i) / den with integers den > 0 and nums (a tuple),
    gcd(den, *nums) == 1; coords, the Fraction form, is built on each read."""

    __slots__ = ("field", "nums", "den")

    def __new__(cls, field, coords):
        coords = [c if isinstance(c, int) else Fraction(c) for c in coords]
        if len(coords) != field.degree:
            raise DimensionError("coordinate vector has wrong length")
        return _element(field, *_cleared(coords))

    def __setattr__(self, name, value):
        raise AttributeError("FieldElement is immutable")

    @property
    def coords(self):
        return tuple(Fraction(x, self.den) for x in self.nums)

    @property
    def is_zero(self):
        return not any(self.nums)

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise DomainError("elements from different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _sum(self, o.nums, o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _sum(self, [-x for x in o.nums], o.den)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return _element(self.field, tuple(-x for x in self.nums), self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _element(self.field, [x * other.numerator for x in self.nums],
                            self.den * other.denominator)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        b = o.nums
        prod = [0] * (2 * len(b) - 1)
        for i, x in enumerate(self.nums):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        return _element(self.field,
                        _rem_monic(prod, self.field.min_poly.coeffs),
                        self.den * o.den)

    __rmul__ = __mul__

    def inverse(self):
        """self * x = 1 as C x = den * e0, C the integer columns of the
        numerators of self * lam**j, solved by _bareiss."""
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero field element")
        k = self.field.degree
        cols = [list(self.nums)]
        while len(cols) < k:
            cols.append(_times_lam(cols[-1], self.field.min_poly.coeffs))
        rows = [[c[i] for c in cols] + [0 if i else self.den] for i in range(k)]
        det = _bareiss(rows, k)
        if det == 0:
            raise DomainError("element is a zero divisor")
        sign = 1 if det > 0 else -1
        return _element(self.field, [sign * r[k] for r in rows], sign * det)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        return (isinstance(other, FieldElement)
                and self.field == other.field
                and self.nums == other.nums and self.den == other.den)

    def __hash__(self):
        return hash(("FieldElement", self.field.min_poly.coeffs, self.nums, self.den))

    def __repr__(self):
        return "FieldElement(%s)" % (", ".join(str(c) for c in self.coords),)

    def approx(self, digits=12):
        """Decimal string within 10**-digits of the true value."""
        lo, hi = value_interval(self, Fraction(1, 10 ** (digits + 1)))
        mid = (lo + hi) / 2
        q = (mid * 10 ** digits + Fraction(1, 2)) // 1  # half rounds up
        sign = "-" if q < 0 else ""
        q = abs(q)
        whole, frac = divmod(q, 10 ** digits)
        return "%s%d.%0*d" % (sign, whole, digits, frac)


def _cleared(values):
    """(nums, d): integer numerators over the lcm d of the denominators."""
    d = lcm(*(x.denominator for x in values))
    return [x.numerator * (d // x.denominator) for x in values], d


def _element(field, nums, den):
    """The element nums / den for integers nums and den > 0."""
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            nums, den = [x // g for x in nums], den // g
    elt = object.__new__(FieldElement)
    object.__setattr__(elt, "field", field)
    object.__setattr__(elt, "nums", tuple(nums))
    object.__setattr__(elt, "den", den)
    return elt


def _sum(a, nums, den):
    """a + nums / den, over the lcm of the two denominators."""
    g = gcd(a.den, den)
    s, t = a.den // g, den // g
    return _element(a.field, [x * t + y * s for x, y in zip(a.nums, nums)],
                    s * den)


def _times_lam(nums, f):
    """Numerators of lam times nums / d over d, f the coefficients of the
    monic minimal polynomial: the companion shift."""
    top = nums[-1]
    return [(nums[i - 1] if i else 0) - top * f[i] for i in range(len(nums))]


def _rem_monic(p, f):
    """Remainder of the polynomial p modulo monic f, length deg f."""
    k = len(f) - 1
    r = list(p) + [0] * max(0, k - len(p))
    for top in range(len(r) - 1, k - 1, -1):
        q = r[top]
        if q:
            for i in range(k):
                r[top - k + i] -= q * f[i]
    return r[:k]


def _interval_horner(nums, lo, hi):
    """Integer interval Horner of the polynomial with coefficients nums.

    With lo = a/q and hi = b/q over one denominator, returns (vlo, vhi, s)
    such that [vlo/s, vhi/s] is the range that rational interval Horner
    gives over [lo, hi]; s = q**(len(nums) - 1) > 0, so scaling never
    changes an order or a sign.
    """
    q = lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (q // lo.denominator)
    b = hi.numerator * (q // hi.denominator)
    coeffs = reversed(nums)
    vlo = vhi = next(coeffs)
    s = 1
    for c in coeffs:
        s *= q
        cands = (vlo * a, vlo * b, vhi * a, vhi * b)
        vlo, vhi = min(cands) + c * s, max(cands) + c * s
    return vlo, vhi, s


def value_interval(elt, width):
    """Certified rational enclosure of the element's real value."""
    nums, d, width = elt.nums, elt.den, Fraction(width)

    def enclosure(lo, hi):
        vlo, vhi, s = _interval_horner(nums, lo, hi)
        s *= d
        if (vhi - vlo) * width.denominator <= width.numerator * s:
            return Fraction(vlo, s), Fraction(vhi, s)
        return None
    return elt.field._first_accepted(enclosure)


def certified_sign(elt):
    """Exact sign of a field element: -1, 0, or 1.

    The walk starts at the finest interval the chain holds: interval
    Horner is inclusion-isotone, so a sign decided on an interval is
    decided, and the same, on every interval inside it.
    """
    if elt.is_zero:
        return 0

    def sign(lo, hi):
        vlo, vhi, _ = _interval_horner(elt.nums, lo, hi)
        if vlo > 0:
            return 1
        if vhi < 0:
            return -1
        return None
    return elt.field._first_accepted(sign, finest=True)


def number_field(min_poly):
    """Build the field of the largest real root of a monic irreducible poly."""
    if not min_poly.is_monic or min_poly.degree < 1:
        raise DomainError("monic polynomial of positive degree required")
    if squarefree_part(min_poly) != min_poly:
        raise DomainError("minimal polynomial must be squarefree")
    factors = factor_monic_squarefree(min_poly)
    if len(factors) != 1:
        raise DomainError("polynomial is reducible")
    interval = isolate_largest_real_root(min_poly)
    return NumberField(min_poly, interval)


def perron_minimal_polynomial(m):
    """Field generated by the dominant eigenvalue of a primitive matrix.

    Returns (field, k); see dominant_root_field.
    """
    return dominant_root_field(charpoly(m))


def dominant_root_field(cp):
    """Field of the largest real root of a characteristic polynomial.

    Returns (field, k).  The polynomial is made squarefree and factored,
    its largest real root is isolated on the factors' Sturm chains, and
    the factor owning that root becomes the minimal polynomial.  The
    isolating interval is refined until its lower end exceeds 1.

    The owner is the one factor g with g(lo) * g(hi) < 0: (lo, hi) holds
    exactly one root of sf, a simple one, and sf vanishes at neither end.
    Each factor divides sf, so it vanishes at neither end either and has
    at most that root inside; the factors are coprime, so exactly one has
    it, as a simple root, and changes sign across it, and every other
    factor has no root inside and keeps its sign.
    """
    sf = squarefree_part(cp)
    factors = factor_monic_squarefree(sf)
    lo, hi = isolate_largest_real_root(sf, factors)
    owners = [g for g in factors
              if _eval_at(g.coeffs, lo) * _eval_at(g.coeffs, hi) < 0]
    if len(owners) > 1:
        raise InternalError("two factors claim the dominant root")
    if not owners:
        raise InternalError("no factor owns the dominant root")
    owner = owners[0]
    if hi <= 1 or (lo < 1 < hi and owner(1) == 0):
        raise DomainError("dominant eigenvalue does not exceed 1")
    lo_sign = owner(lo)
    while lo <= 1:
        lo, hi = refine_root_interval(owner, lo, hi, lo_sign)
        if hi <= 1:
            raise DomainError("dominant eigenvalue does not exceed 1")
    field = NumberField(owner, (lo, hi))
    return field, owner.degree


def minimal_polynomial(elt):
    """Monic integer minimal polynomial of an algebraic integer element.

    The first power whose coordinate column depends on the lower powers
    fixes the degree: the first kernel vector of the columns of the powers
    up to the field degree, 1 at that power and 0 past it, holds the
    coefficients.
    """
    powers = [elt.field.one()]
    for _ in range(elt.field.degree):
        powers.append(powers[-1] * elt)
    coeffs = kernel_basis([list(r) for r in zip(*(x.coords for x in powers))],
                          Fraction(0), Fraction(1))[0]
    if any(c.denominator != 1 for c in coeffs):
        raise DomainError("element is not an algebraic integer")
    return IntPolynomial([int(c) for c in coeffs])
