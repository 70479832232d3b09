"""Integer polynomials with exact real-root tools and monic factorization.

Coefficients are stored lowest degree first.  Everything here is plain
integer / Fraction arithmetic; no floating point is used anywhere.  This
module owns coefficient-list arithmetic: one private kernel (_strip, _conv,
_add, _mod, _rem_monic) multiplies, adds, strips and reduces integer lists
for IntPolynomial, the mod-p factorizer, field and perron.
"""

import random
from fractions import Fraction
from itertools import combinations, zip_longest
from math import gcd, isqrt

from .errors import (CapabilityError, DomainError, InternalError, _number_text,
                     _require_rational)

# Factorization refuses inputs above this degree rather than risk a subset
# recombination blowup.
FACTOR_DEGREE_CAP = 12


def _strip(a):
    """a without its trailing zeros, in place."""
    while a and a[-1] == 0:
        a.pop()
    return a


def _conv(a, b):
    """Coefficients of the product a * b."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _add(a, b):
    """Coefficients of a + b, the shorter list padded with zeros; a
    difference passes b negated."""
    return [x + y for x, y in zip_longest(a, b, fillvalue=0)]


def _mod(a, m):
    """a reduced mod m, stripped."""
    return _strip([c % m for c in a])


def _rem_monic(a, f):
    """Remainder of a modulo monic f, length deg f."""
    k = len(f) - 1
    r = list(a) + [0] * max(0, k - len(a))
    for top in range(len(r) - 1, k - 1, -1):
        q = r[top]
        if q:
            for i in range(k):
                r[top - k + i] -= q * f[i]
    return r[:k]


class IntPolynomial:
    """Immutable polynomial over the integers, coefficients lowest first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = _strip(list(coeffs))
        for x in c:
            if type(x) is not int:
                raise DomainError("integer coefficients required, got %r" % (x,))
        object.__setattr__(self, "coeffs", tuple(c))

    def __setattr__(self, name, value):
        raise AttributeError("IntPolynomial is immutable")

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def leading(self):
        if self.is_zero:
            return 0
        return self.coeffs[-1]

    @property
    def is_monic(self):
        return self.leading == 1

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("IntPolynomial", self.coeffs))

    def __add__(self, other):
        return IntPolynomial(_add(self.coeffs, other.coeffs))

    def __sub__(self, other):
        return IntPolynomial(_add(self.coeffs, [-c for c in other.coeffs]))

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial([c * other for c in self.coeffs])
        return IntPolynomial(_conv(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def derivative(self):
        return IntPolynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def content(self):
        return gcd(*self.coeffs)

    def primitive_part(self):
        if self.is_zero:
            return self
        g = self.content()
        if self.leading < 0:
            g = -g
        return IntPolynomial([c // g for c in self.coeffs])

    def div_exact(self, g):
        """Exact quotient self / g over the integers; DomainError if inexact.

        k * self = q * g + r by pseudo-division, so the quotient is q / k
        exactly when r = 0 and k divides q."""
        if g.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        q, r, k = _pdivmod(self.coeffs, g.coeffs)
        if r or any(c % k for c in q):
            raise DomainError("inexact polynomial division")
        return IntPolynomial([c // k for c in q])

    def __repr__(self):
        return "IntPolynomial([%s])" % ", ".join(map(_number_text, self.coeffs))

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                term = _number_text(abs(c))
            else:
                mono = "t" if i == 1 else "t^%d" % i
                term = mono if abs(c) == 1 else "%s*%s" % (_number_text(abs(c)), mono)
            if not parts:
                parts.append(term if c > 0 else "-" + term)
            else:
                parts.append(("+ " if c > 0 else "- ") + term)
        return " ".join(parts)


ONE = IntPolynomial([1])


def _primitive(coeffs):
    """coeffs divided by their positive content, so every sign is kept."""
    g = gcd(*coeffs)
    return [c // g for c in coeffs] if g > 1 else coeffs


def _pdivmod(a, b):
    """Pseudo-division: (q, r, k) with k*a = q*b + r, deg r < deg b and
    k = |lc(b)|**steps > 0, one step per leading term of a eliminated, so
    r keeps the sign pattern of the rational remainder.  A remainder can
    drop several degrees in one step: k is not |lc(b)|**(deg a - deg b + 1).
    """
    r = list(a)
    lead = b[-1]
    scale = abs(lead)
    sgn = 1 if lead > 0 else -1
    nb = len(b)
    q = [0] * max(0, len(r) - nb + 1)
    k = 1
    while len(r) >= nb:
        top = sgn * r[-1]
        shift = len(r) - nb
        if scale != 1:
            r = [scale * c for c in r]
            q = [scale * c for c in q]
            k *= scale
        q[shift] += top
        for i, c in enumerate(b):
            r[shift + i] -= top * c
        r.pop()
        _strip(r)
    return q, r, k


def poly_gcd(f, g):
    """Primitive gcd over the integers with positive leading coefficient.

    Euclid on primitive pseudo-remainders (Collins, JACM 1967): integer
    arithmetic throughout, with each remainder divided by its content.
    """
    a, b = _primitive(list(f.coeffs)), _primitive(list(g.coeffs))
    while b:
        a, b = b, _primitive(_pdivmod(a, b)[1])
    return IntPolynomial(a).primitive_part()


def _inverse_mod(a, f):
    """(s, d) with s*a = d mod f, an integer d > 0 and deg s < deg f, for a
    nonzero list a with deg a < deg f; None when a and f share a factor.

    Extended Euclid on primitive pseudo-remainders (Collins, JACM 1967):
    each remainder r keeps a cofactor s with r = s*a mod f, k*r0 = q*r1 + r
    gives r the cofactor k*s0 - q*s1, and both lose their common content.
    """
    r0, s0 = list(f), []
    r1, s1 = _strip(list(a)), [1]
    while len(r1) > 1:
        q, r, k = _pdivmod(r0, r1)
        if not r:
            return None
        s = _add([k * c for c in s0], [-c for c in _conv(q, s1)])
        g = gcd(*r, *s)
        r0, s0 = r1, s1
        r1, s1 = [c // g for c in r], [c // g for c in s]
    if r1[0] < 0:
        return [-c for c in s1], -r1[0]
    return s1, r1[0]


def squarefree_part(f):
    """f with repeated roots collapsed; monic input gives monic output."""
    if f.degree < 1:
        raise DomainError("squarefree part needs degree at least 1")
    g = poly_gcd(f, f.derivative())
    return (f if g.degree == 0 else f.div_exact(g)).primitive_part()


# ---------------------------------------------------------------------------
# Sturm machinery: exact counting and isolation of real roots.


def sturm_chain(f):
    """Sturm sequence of f as primitive integer lists, lowest degree first.

    Each member is a positive multiple of the classical rational Sturm
    sequence member (the primitive pseudo-remainder sequence of Collins,
    JACM 1967), so sign variations, and every count, are unchanged.
    """
    chain = [_primitive(list(f.coeffs))]
    d = _primitive(list(f.derivative().coeffs))
    if d:
        chain.append(d)
    while len(chain[-1]) > 1:
        r = _pdivmod(chain[-2], chain[-1])[1]
        if not r:
            break
        chain.append(_primitive([-c for c in r]))
    return chain


def _eval_at(coeffs, x):
    """q**d * f(p/q) for x = p/q with q > 0: an integer with the sign of f(x)."""
    p, q = x.numerator, x.denominator
    acc = 0
    qq = 1
    for c in reversed(coeffs):
        acc = acc * p + c * qq
        qq *= q
    return acc


def _variations(chain, x):
    signs = []
    for coeffs in chain:
        v = _eval_at(coeffs, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_real_roots(f, lo, hi):
    """Number of distinct real roots of f in the half-open interval (lo, hi]."""
    _require_rational(lo)
    _require_rational(hi)
    if f.degree < 1:
        return 0
    lo, hi = Fraction(lo), Fraction(hi)
    if lo >= hi:
        return 0
    chain = sturm_chain(f)
    return _variations(chain, lo) - _variations(chain, hi)


def root_bound(f):
    """A Fraction B with every real root of f inside (-B, B)."""
    if f.is_zero:
        raise DomainError("zero polynomial")
    lead = abs(f.leading)
    m = max(abs(c) for c in f.coeffs)
    return Fraction(m, lead) + 1


def _root_radius_bound(f):
    """A power of two above |z| for every complex root z of f.

    Fujiwara's bound 2 * max_i |a_(n-i) / a_n| ** (1/i), rounded up through
    the bit lengths of the integer coefficients.
    """
    n = f.degree
    c = f.coeffs
    return 2 ** (1 + max(-(-abs(c[n - i]).bit_length() // i) for i in range(1, n + 1)))


def isolate_largest_real_root(f, factors=None):
    """Open interval (lo, hi) holding exactly the largest real root of f.

    The endpoints are rationals where f does not vanish and changes sign.
    Requires f squarefree with at least one real root.  Given pairwise
    coprime factors with product f, roots are counted as the sum of their
    Sturm counts: every count, and so the interval, is the same as on f.
    """
    if f.degree < 1:
        raise DomainError("need degree at least 1")
    chains = [sturm_chain(g) for g in factors or [f]]

    def variations(x):
        return sum(_variations(chain, x) for chain in chains)

    bound = root_bound(f)
    lo, hi = -bound, bound
    vlo, vhi = variations(lo), variations(hi)
    if vlo - vhi < 1:
        raise DomainError("polynomial has no real root")
    # Shrink (lo, hi] keeping at least one root above lo and none above hi;
    # vlo - vhi counts the roots in (lo, hi], so each step evaluates once.
    # A midpoint at or above top has no root in (mid, hi], so it becomes hi
    # without an evaluation; a run of such halvings ends at lo + w / 2**j,
    # w = hi - lo, for the largest j with w / 2**j >= top - lo, set at once.
    top = _root_radius_bound(f)
    while vlo - vhi > 1:
        if hi - lo >= 2 * (top - lo):
            j = ((hi - lo) // (top - lo)).bit_length() - 1
            hi = lo + (hi - lo) / (1 << j)
        mid = (lo + hi) / 2
        vmid = variations(mid)
        if vmid - vhi >= 1:
            lo, vlo = mid, vmid
        else:
            hi, vhi = mid, vmid
    # Convert to a sign-change certificate with nonvanishing endpoints.
    coeffs = f.coeffs
    flo = _eval_at(coeffs, lo)
    fhi = _eval_at(coeffs, hi)
    if fhi == 0:
        # hi is the root itself (possible only for a rational root); re-center.
        w = (hi - lo) / 4
        lo, hi = hi - w, hi + w
        flo = _eval_at(coeffs, lo)
        fhi = _eval_at(coeffs, hi)
    if flo == 0:
        # lo landed on a smaller root; nudge it up, halving toward hi.
        step = (hi - lo) / 4
        while True:
            cand = lo + step
            v = _eval_at(coeffs, cand)
            if v != 0 and variations(cand) - variations(hi) == 1:
                lo, flo = cand, v
                break
            step /= 2
    if flo * fhi >= 0:
        raise InternalError("root isolation lost its sign change")
    return lo, hi


def refine_root_interval(f, lo, hi, lo_sign):
    """One bisection step on a sign-change interval; returns the new (lo, hi).

    lo_sign has the sign of f(lo), which bisection keeps at the lower end,
    so a caller computes it once and each step evaluates f once."""
    mid = (Fraction(lo) + Fraction(hi)) / 2
    vmid = _eval_at(f.coeffs, mid)
    if vmid == 0:
        w = (hi - lo) / 8
        return mid - w, mid + w
    if (lo_sign > 0) != (vmid > 0):
        return lo, mid
    return mid, hi


# ---------------------------------------------------------------------------
# Factorization of monic integer polynomials.
#
# The least odd prime p keeping f squarefree serves twice.  Each root of f
# mod p is lifted by scalar p-adic Newton and kept if it is an integer root
# (Loos, SIAM J. Comput. 1983); for charpolys of enlarged matrices that
# leaves only the Perron root's minimal polynomial.  A remainder of degree
# 4 or more is factored mod p by degree, distinct-degree and then
# equal-degree splitting (ch. 14 of von zur Gathen and Gerhard, Modern
# Computer Algebra), lifted by quadratic Hensel steps for all r modular
# factors in one balanced tree of ceil(log2 r) full-degree levels (ch. 15)
# and recombined by subsets.  Degrees are capped: the consumers are
# characteristic polynomials of desk-scale matrices.


def _odd_primes():
    """3, 5, 7, 11, ... by trial division."""
    p = 3
    while True:
        if all(p % q for q in range(3, isqrt(p) + 1, 2)):
            yield p
        p += 2


def _zpoly_mul(a, b, m):
    return _mod(_conv(a, b), m)


def _zpoly_divmod(a, b, m):
    """Division with remainder mod m, for b whose leading coefficient is a
    unit mod m: any nonzero one for a prime m, 1 for a prime power."""
    a = list(a)
    if not b:
        raise ZeroDivisionError
    inv = pow(b[-1], -1, m)
    q = [0] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        c = (a[-1] * inv) % m
        k = len(a) - len(b)
        q[k] = c
        for i, y in enumerate(b):
            a[k + i] = (a[k + i] - c * y) % m
        _strip(a)
        if not a:
            break
    return _strip(q), a


def _gf_monic(a, p):
    if not a:
        return a
    inv = pow(a[-1], p - 2, p)
    return [(c * inv) % p for c in a]


def _gf_gcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        _, r = _zpoly_divmod(a, b, p)
        a, b = b, r
    return _gf_monic(a, p)


def _zpoly_sub(a, b, m):
    return _mod(_add(a, [-c for c in b]), m)


def _gf_powmod(a, e, f, p):
    """a**e mod f over GF(p) for a reduced mod f and e >= 1, by
    square-and-multiply from the top bit of e down."""
    out = a
    for bit in bin(e)[3:]:
        out = _zpoly_divmod(_zpoly_mul(out, out, p), f, p)[1]
        if bit == "1":
            out = _zpoly_divmod(_zpoly_mul(out, a, p), f, p)[1]
    return out


def _gf_factor(f, p):
    """Monic squarefree f over GF(p), p an odd prime, into monic irreducible
    factors (Cantor and Zassenhaus, Math. Comp. 1981).

    Distinct degrees: x**(p**d) - x is the product of the monic
    irreducibles of degree dividing d, so once the smaller degrees are
    divided out of f, gcd(f, x**(p**d) - x) is the product of its factors
    of degree d; a remainder with none of degree <= deg / 2 is irreducible.
    Equal degrees: for a random a, gcd(g, a**((p**d - 1) / 2) - 1) splits
    g, r >= 2 factors of degree d, with probability at least 4/9 (it is
    1/2 - 1/(2 p**(2d)), p >= 3).  A constant seed makes every call alike.
    """
    rng = random.Random(0)
    found = []
    h, d = [0, 1], 0
    while 2 * (d + 1) <= len(f) - 1:
        d += 1
        h = _gf_powmod(h, p, f, p)
        g = _gf_gcd(f, _zpoly_sub(h, [0, 1], p), p)
        if len(g) == 1:
            continue
        f = _zpoly_divmod(f, g, p)[0]
        h = _zpoly_divmod(h, f, p)[1]
        pending = [g]
        while pending:
            g = pending.pop()
            if len(g) - 1 == d:
                found.append(g)
                continue
            a = [rng.randrange(p) for _ in g[1:]]
            b = _gf_gcd(g, _zpoly_sub(
                _gf_powmod(a, (p ** d - 1) // 2, g, p), [1], p), p)
            split = 1 < len(b) < len(g)
            pending += [b, _zpoly_divmod(g, b, p)[0]] if split else [g]
    if len(f) > 1:
        found.append(f)
    return found


def _centered(c, m):
    c %= m
    if 2 * c > m:
        c -= m
    return c


def _zpoly_add(a, b, m):
    return _mod(_add(a, b), m)


def _hensel_step(f, g, h, s, t, m):
    """Lift f = g*h with s*g + t*h = 1 from mod m to mod m*m (all monic g, h)."""
    mm = m * m
    e = _zpoly_sub(f, _zpoly_mul(g, h, mm), mm)
    q, r = _zpoly_divmod(_zpoly_mul(s, e, mm), h, mm)
    g2 = _zpoly_add(g, _zpoly_add(_zpoly_mul(t, e, mm), _zpoly_mul(q, g, mm), mm), mm)
    h2 = _zpoly_add(h, r, mm)
    b = _zpoly_sub(_zpoly_add(_zpoly_mul(s, g2, mm), _zpoly_mul(t, h2, mm), mm), [1], mm)
    c, d = _zpoly_divmod(_zpoly_mul(s, b, mm), h2, mm)
    s2 = _zpoly_sub(s, d, mm)
    t2 = _zpoly_sub(t, _zpoly_add(_zpoly_mul(t, b, mm), _zpoly_mul(c, g2, mm), mm), mm)
    return g2, h2, s2, t2


def _gf_xgcd(a, b, p):
    """(g, s, t) with s*a + t*b = g (monic) over GF(p)."""
    r0, r1 = list(a), list(b)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _zpoly_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _zpoly_sub(s0, _zpoly_mul(q, s1, p), p)
        t0, t1 = t1, _zpoly_sub(t0, _zpoly_mul(q, t1, p), p)
    inv = pow(r0[-1], p - 2, p)
    return tuple([(c * inv) % p for c in x] for x in (r0, s0, t0))


def _lift_factor(f_coeffs, g0, h0, p, final):
    """Lift the coprime pair f = g0*h0 mod p until the modulus reaches final.

    f_coeffs are integer coefficients of monic f, exact or reduced mod
    final, so reduction at every modulus of the ladder is available; the
    ladder squares p until it hits final exactly.  Returns the monic lifts
    (g, h), which are unique.
    """
    if _mod(f_coeffs, p) != _zpoly_mul(g0, h0, p):
        raise InternalError("modular factors do not multiply to f mod p")
    gcd_poly, s, t = _gf_xgcd(g0, h0, p)
    if len(gcd_poly) - 1 != 0:
        raise InternalError("modular factors were not coprime")
    g, h = list(g0), list(h0)
    m = p
    while m < final:
        mm = m * m
        g, h, s, t = _hensel_step(_mod(f_coeffs, mm), g, h, s, t, m)
        m = mm
    if m != final:
        raise InternalError("lift ladder missed its target modulus")
    return g, h


def _lift_all(f_coeffs, modular, p, final):
    """Mod-final lifts of the monic modular factors of monic f, same order.

    A balanced factor tree: the factors split into two halves, the pair of
    their products mod p is lifted once on f, and each half splits again on
    its lifted product.  Monic lifts of a coprime factorization are unique,
    so every leaf is the lift of its own factor, as if lifted against f
    alone.  Each level lifts polynomials whose degrees sum to deg f, and
    there are ceil(log2 r) levels for r factors.
    """
    if len(modular) == 1:
        return [_mod(f_coeffs, final)]
    half = len(modular) // 2
    left = right = [1]
    for g0 in modular[:half]:
        left = _zpoly_mul(left, g0, p)
    for g0 in modular[half:]:
        right = _zpoly_mul(right, g0, p)
    g, h = _lift_factor(f_coeffs, left, right, p, final)
    return (_lift_all(g, modular[:half], p, final)
            + _lift_all(h, modular[half:], p, final))


def _mignotte_bound(f):
    """Safe cap for the magnitude of any coefficient of a monic factor of f."""
    norm = isqrt(sum(c * c for c in f.coeffs)) + 1
    return 2 * (2 ** f.degree) * norm + 1


def _integer_roots(f, p):
    """Every integer root of monic f, squarefree mod the prime p, once each.

    An integer root r of f reduces to a root of f mod p, and a simple one,
    since f is squarefree mod p; so f'(r) is a unit mod p, and by Hensel's
    lemma r mod p has one lift to a root mod p**k for each k, which is
    r mod p**k.  Scalar Newton steps r - f(r) / f'(r) mod m, with m
    squared each step, find that lift until m > 2 * B for B = 1 + max |a_i|;
    as |r| < B (Cauchy), the centred residue is r itself.  So the centred
    lifts of the roots mod p that are roots of f are all the integer roots,
    and no two of them share a residue, which would be a double root mod p.
    """
    df = f.derivative()
    bound = 2 * (1 + max(abs(c) for c in f.coeffs))
    roots = []
    for r in range(p):
        if f(r) % p:
            continue
        m = p
        while m <= bound:
            m *= m
            r = (r - f(r) * pow(df(r), -1, m)) % m
        r = _centered(r, m)
        if f(r) == 0:
            roots.append(r)
    return roots


def _lifted_factors(f, p):
    """Irreducible factors of monic f, squarefree mod the prime p, by
    distinct- and equal-degree splitting mod p, the Hensel tree and subset
    recombination."""
    modular = _gf_factor(_mod(f.coeffs, p), p)
    if len(modular) == 1:
        return [f]
    modular.sort(key=lambda g: (len(g), tuple(g)))
    bound = _mignotte_bound(f)
    final = p
    while final < bound:
        final *= final
    lifted = _lift_all(list(f.coeffs), modular, p, final)

    remaining = list(range(len(lifted)))
    current = f
    found = []
    size = 1
    while 2 * size <= len(remaining):
        hit = None
        for subset in combinations(remaining, size):
            prod = [1]
            for i in subset:
                prod = _zpoly_mul(prod, lifted[i], final)
            cand = IntPolynomial([_centered(c, final) for c in prod])
            if cand.degree < 1:
                continue
            try:
                quot = current.div_exact(cand)
            except DomainError:
                continue
            found.append(cand)
            current = quot
            hit = subset
            break
        if hit is not None:
            remaining = [i for i in remaining if i not in hit]
        else:
            size += 1
    if current.degree > 0:
        found.append(current)
    return found


def factor_monic_squarefree(f):
    """Monic squarefree integer polynomial into monic irreducible factors.

    Raises CapabilityError above FACTOR_DEGREE_CAP.  The factor list is
    sorted by (degree, coefficients) so the output is deterministic.  At
    the prime p found below, integer roots come off by p-adic Newton, and
    a remainder of degree 4 or more is split mod p by degree and lifted.

    The search for a prime p with gcd(f mod p, f' mod p) = 1 decides if f
    is squarefree, with no gcd over the integers.  Such a p certifies it:
    a square g**2 dividing monic f stays the square of monic g mod p.  If
    f is squarefree of degree n, disc f = +-Res(f, f') is a nonzero integer
    (the product of f' over the roots of f), and f fails at p exactly when
    p divides it, as f stays monic mod p.  So the failing primes multiply
    to at most |disc f| <= |f|**(n-1) |f'|**n (2-norms; Hadamard on the
    Sylvester rows); past that bound f is not squarefree.
    """
    if not f.is_monic:
        raise DomainError("monic polynomial required")
    if f.degree > FACTOR_DEGREE_CAP:
        raise CapabilityError("degree %d above factorization cap %d"
                              % (f.degree, FACTOR_DEGREE_CAP))
    if f.degree <= 1:
        return [f]

    df = f.derivative()
    # squares of the product of failing primes and of Hadamard's bound
    failed = 1
    bound = (sum(c * c for c in f.coeffs) ** (f.degree - 1)
             * sum(c * c for c in df.coeffs) ** f.degree)
    for p in _odd_primes():
        d = _mod(df.coeffs, p)
        if d and len(_gf_gcd(_mod(f.coeffs, p), d, p)) == 1:
            break
        failed *= p * p
        if failed > bound:
            raise DomainError("squarefree polynomial required")

    found = []
    current = f
    for r in _integer_roots(f, p):
        found.append(IntPolynomial([-r, 1]))
        current = current.div_exact(found[-1])
    # a monic reducible cubic or quadratic has a linear factor, a root
    if current.degree >= 4:
        found += _lifted_factors(current, p)
    elif current.degree > 0:
        found.append(current)
    prod = ONE
    for g in found:
        prod = prod * g
    if prod != f:
        raise InternalError("factor recombination failed verification")
    found.sort(key=lambda g: (g.degree, g.coeffs))
    return found
