"""Real algebraic number fields presented as Q[t] modulo a minimal polynomial.

An element is integer numerators over one positive denominator in lowest
terms: products are integer convolutions reduced by the monic minimal
polynomial, both done by intpoly's coefficient-list kernel, and the
inverse is intpoly's extended Euclid on primitive pseudo-remainders.
A field carries an isolating interval for its distinguished root, always
the largest real root of the minimal polynomial, with rational endpoints
where the polynomial changes sign.  Signs are certified by interval Horner
on the numerators over bisections of that interval, which ends because a
nonzero element cannot vanish at the root.  Each field keeps its chain of
bisected intervals, so every bisection step, one evaluation at a midpoint,
runs once per field however many elements are certified.
"""

import sys
from fractions import Fraction
from math import gcd, lcm, log10

from .errors import (CapabilityError, DimensionError, DomainError,
                     InternalError, _number_text, _require_rational)
from .intpoly import (
    IntPolynomial,
    _conv,
    _eval_at,
    _inverse_mod,
    _rem_monic,
    count_real_roots,
    factor_monic_squarefree,
    isolate_largest_real_root,
    refine_root_interval,
    squarefree_part,
)
from .matrix import ExactMatrix, _power, charpoly


class NumberField:
    """Q(lam) for lam the largest real root of a monic irreducible polynomial."""

    __slots__ = ("min_poly", "degree", "interval", "_chain", "_lo_sign")

    def __new__(cls, min_poly, interval):
        if not isinstance(min_poly, IntPolynomial) or not min_poly.is_monic:
            raise DomainError("monic integer minimal polynomial required")
        if min_poly.degree < 1:
            raise DomainError("minimal polynomial must have positive degree")
        # a zero divisor would have no certified sign; the factorizer
        # certifies squarefreeness and refuses past FACTOR_DEGREE_CAP
        if len(factor_monic_squarefree(min_poly)) != 1:
            raise DomainError("polynomial is reducible")
        lo, hi = interval[0], interval[1]
        _require_rational(lo)
        _require_rational(hi)
        lo, hi = Fraction(lo), Fraction(hi)
        if not (lo < hi):
            raise DomainError("empty isolating interval")
        lo_sign = _eval_at(min_poly.coeffs, lo)
        if lo_sign * _eval_at(min_poly.coeffs, hi) >= 0:
            raise DomainError("isolating interval must change sign")
        if count_real_roots(min_poly, lo, hi) != 1:
            raise DomainError("interval does not isolate a single root")
        return cls._isolated(min_poly, lo, hi, lo_sign)

    @classmethod
    def _isolated(cls, min_poly, lo, hi, lo_sign):
        """The field without the checks, for number_field and
        dominant_root_field, whose interval holds one root of the
        irreducible min_poly, which changes sign across it (see
        isolate_largest_real_root).  lo_sign has the sign of min_poly(lo)."""
        field = object.__new__(cls)
        object.__setattr__(field, "min_poly", min_poly)
        object.__setattr__(field, "degree", min_poly.degree)
        object.__setattr__(field, "interval", (lo, hi))
        # _chain[i] is the interval bisected i times; see _first_accepted.
        object.__setattr__(field, "_chain", [(lo, hi)])
        object.__setattr__(field, "_lo_sign", lo_sign)
        return field

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
        return _element(self, _rem_monic([0, 1], self.min_poly.coeffs), 1)

    def from_rational(self, q):
        _require_rational(q)
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
        _require_width(width)
        return self._first_accepted(
            lambda lo, hi: (lo, hi) if hi - lo <= width else None)


class FieldElement:
    """sum(nums[i] * lam**i) / den with integers den > 0 and nums (a tuple),
    gcd(den, *nums) == 1; coords, the Fraction form, is built on each read."""

    __slots__ = ("field", "nums", "den")

    def __new__(cls, field, coords):
        coords = list(coords)
        for c in coords:
            _require_rational(c)
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
        if type(other) in (int, Fraction):
            return _element(self.field, [x * other.numerator for x in self.nums],
                            self.den * other.denominator)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _element(self.field,
                        _rem_monic(_conv(self.nums, o.nums),
                                   self.field.min_poly.coeffs),
                        self.den * o.den)

    __rmul__ = __mul__

    def inverse(self):
        """den * s / d, for s * nums = d modulo the minimal polynomial
        (intpoly._inverse_mod)."""
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero field element")
        found = _inverse_mod(self.nums, self.field.min_poly.coeffs)
        if found is None:
            raise DomainError("element is a zero divisor")
        s, d = found
        pad = [0] * (self.field.degree - len(s))
        return _element(self.field, [self.den * c for c in s] + pad, d)

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
        if type(n) is not int:
            raise DomainError("field element power must be an integer")
        if n < 0:
            return self.inverse() ** (-n)
        return _power(self, n, self.field.one())

    def __eq__(self, other):
        if type(other) in (int, Fraction):
            other = self.field.from_rational(other)
        return (isinstance(other, FieldElement)
                and self.field == other.field
                and self.nums == other.nums and self.den == other.den)

    def __hash__(self):
        return hash(("FieldElement", self.field.min_poly.coeffs, self.nums, self.den))

    def __repr__(self):
        return "FieldElement(%s)" % ", ".join(map(_number_text, self.coords))

    def approx(self, digits=12):
        """Decimal string of the value correctly rounded, half up, to
        digits places.  The walk from the chain's finest interval (see
        certified_sign) stops where both ends of the interval Horner
        enclosure round alike.  It ends: a rational element has a point
        enclosure, and an irrational value lies on no rounding boundary."""
        if type(digits) is not int or digits < 0:
            raise DomainError("digits must be a non-negative integer")
        scale = 10 ** digits

        def rounded(lo, hi):
            vlo, vhi, s = _interval_horner(self.nums, lo, hi)
            s *= self.den
            q = (2 * vlo * scale + s) // (2 * s)
            return q if q == (2 * vhi * scale + s) // (2 * s) else None
        q = self.field._first_accepted(rounded, finest=True)
        whole, frac = divmod(abs(q), scale)
        try:
            text = "%s%d" % ("-" if q < 0 else "", whole)
            return "%s.%0*d" % (text, digits, frac) if digits else text
        except ValueError:  # past Python's int-to-str digit limit
            n = int((max(whole.bit_length(), 1) - 1) * log10(2)) + 1
            raise CapabilityError(
                "approximation has %d digits before the point and %d after, "
                "over the limit of %d digits on int-to-str conversion"
                % (n + (whole >= 10 ** n), digits,
                   sys.get_int_max_str_digits())) from None


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


def _require_width(width):
    """Refuse a width no bisection interval meets: not an int or Fraction > 0."""
    if type(width) not in (int, Fraction) or width <= 0:
        raise DomainError("width must be a positive rational")


def value_interval(elt, width):
    """Certified rational enclosure of the element's real value."""
    _require_width(width)
    nums, d = elt.nums, elt.den

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
    """Build the field of the largest real root of a monic irreducible
    poly, certified squarefree and irreducible by one factorization."""
    if not min_poly.is_monic or min_poly.degree < 1:
        raise DomainError("monic polynomial of positive degree required")
    if len(factor_monic_squarefree(min_poly)) != 1:
        raise DomainError("polynomial is reducible")
    lo, hi = isolate_largest_real_root(min_poly)
    return NumberField._isolated(min_poly, lo, hi, min_poly(lo))


def dominant_root_field(cp):
    """Field of the largest real root of a characteristic polynomial.

    Returns (field, k).  The polynomial is made squarefree and factored,
    its largest real root is isolated on the factors' Sturm chains, and
    the factor owning that root becomes the minimal polynomial.  The
    isolating interval is refined until its lower end exceeds 1.

    The owner is the one factor g with g(lo) * g(hi) < 0: (lo, hi] holds
    exactly one root of sf, a simple one.  The factors are coprime, so
    exactly one has it; it vanishes at neither end (see
    isolate_largest_real_root) and changes sign across the simple root.
    Every other factor has no root in (lo, hi], so it vanishes at lo or
    keeps its sign, and either way g(lo) * g(hi) >= 0.
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
    return NumberField._isolated(owner, lo, hi, lo_sign), owner.degree


def minimal_polynomial(elt):
    """Monic integer minimal polynomial of an algebraic integer element.

    The integer matrix of multiplication by b = den * elt has for its
    charpoly a power of the minimal polynomial p of b, so p is the
    charpoly's squarefree part; elt = b / den has den**-m * p(den * t), m
    = deg p, which has integer coefficients exactly when elt is an
    algebraic integer.
    """
    f = elt.field.min_poly.coeffs
    cols = [list(elt.nums)]
    while len(cols) < elt.field.degree:
        cols.append(_rem_monic([0] + cols[-1], f))
    p = squarefree_part(charpoly(ExactMatrix.from_columns(cols))).coeffs
    scaled = [divmod(c * elt.den ** i, elt.den ** (len(p) - 1))
              for i, c in enumerate(p)]
    if any(r for _, r in scaled):
        raise DomainError("element is not an algebraic integer")
    return IntPolynomial([q for q, _ in scaled])
