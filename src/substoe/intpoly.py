"""Integer polynomials with exact real-root tools and monic factorization.

Coefficients are stored lowest degree first.  Everything here is plain
integer / Fraction arithmetic; no floating point is used anywhere.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt

from .errors import CapabilityError, DomainError, InternalError

# Factorization refuses inputs above this degree rather than risk a subset
# recombination blowup.
FACTOR_DEGREE_CAP = 12


def _strip(coeffs):
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return c


class IntPolynomial:
    """Immutable polynomial over the integers, coefficients lowest first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = _strip(coeffs)
        for x in c:
            if not isinstance(x, int):
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
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return IntPolynomial(
            [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]
        )

    def __sub__(self, other):
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return IntPolynomial(
            [(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)]
        )

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial([c * other for c in self.coeffs])
        if self.is_zero or other.is_zero:
            return IntPolynomial([])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def derivative(self):
        return IntPolynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def content(self):
        g = 0
        for c in self.coeffs:
            g = gcd(g, c)
        return g

    def primitive_part(self):
        if self.is_zero:
            return self
        g = self.content()
        if self.leading < 0:
            g = -g
        return IntPolynomial([c // g for c in self.coeffs])

    def div_exact(self, g):
        """Exact quotient self / g over the integers; DomainError if inexact."""
        if g.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        gc = g.coeffs
        dq = len(rem) - len(gc)
        if dq < 0:
            if self.is_zero:
                return IntPolynomial([])
            raise DomainError("inexact polynomial division")
        quot = [0] * (dq + 1)
        for k in range(dq, -1, -1):
            top = rem[k + len(gc) - 1]
            if top % gc[-1] != 0:
                raise DomainError("inexact polynomial division")
            q = top // gc[-1]
            quot[k] = q
            if q:
                for j, c in enumerate(gc):
                    rem[k + j] -= q * c
        if any(rem):
            raise DomainError("inexact polynomial division")
        return IntPolynomial(quot)

    def __repr__(self):
        return "IntPolynomial(%r)" % (list(self.coeffs),)

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                term = str(abs(c))
            else:
                mono = "t" if i == 1 else "t^%d" % i
                term = mono if abs(c) == 1 else "%d*%s" % (abs(c), mono)
            if not parts:
                parts.append(term if c > 0 else "-" + term)
            else:
                parts.append(("+ " if c > 0 else "- ") + term)
        return " ".join(parts)


ONE = IntPolynomial([1])


def _primitive(coeffs):
    """coeffs divided by their positive content, so every sign is kept."""
    g = 0
    for c in coeffs:
        g = gcd(g, c)
    return [c // g for c in coeffs] if g > 1 else coeffs


def _prem(a, b):
    """Pseudo-remainder: the remainder of a by b times a positive integer.

    Each elimination step scales the running remainder by |lc(b)|, so the
    result is |lc(b)|**e * rem(a, b) for some e <= deg a - deg b + 1 and
    keeps the sign pattern of the rational remainder.
    """
    r = list(a)
    lead = b[-1]
    scale = abs(lead)
    sgn = 1 if lead > 0 else -1
    nb = len(b)
    while len(r) >= nb:
        top = sgn * r[-1]
        shift = len(r) - nb
        r = [scale * c for c in r]
        for i, c in enumerate(b):
            r[shift + i] -= top * c
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return r


def poly_gcd(f, g):
    """Primitive gcd over the integers with positive leading coefficient.

    Euclid on primitive pseudo-remainders (Collins, JACM 1967): integer
    arithmetic throughout, with each remainder divided by its content.
    """
    a, b = _primitive(list(f.coeffs)), _primitive(list(g.coeffs))
    while b:
        a, b = b, _primitive(_prem(a, b))
    return IntPolynomial(a).primitive_part()


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
        r = _prem(chain[-2], chain[-1])
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


def count_real_roots(f, lo, hi, chain=None):
    """Number of distinct real roots of f in the half-open interval (lo, hi]."""
    if f.degree < 1:
        return 0
    if chain is None:
        chain = sturm_chain(f)
    lo = Fraction(lo)
    hi = Fraction(hi)
    if lo >= hi:
        return 0
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
# 4 or more goes through Berlekamp mod p, quadratic Hensel lifting of all r
# modular factors in one balanced tree of ceil(log2 r) full-degree levels
# (von zur Gathen and Gerhard, Modern Computer Algebra, ch. 15) and subset
# recombination.  Degrees are capped: the consumers are characteristic
# polynomials of desk-scale matrices.


def _odd_primes():
    """3, 5, 7, 11, ... by trial division."""
    p = 3
    while True:
        if all(p % q for q in range(3, isqrt(p) + 1, 2)):
            yield p
        p += 2


def _gf_strip(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _zpoly_mul(a, b, m):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % m
    return _gf_strip(out)


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
        _gf_strip(a)
        if not a:
            break
    return _gf_strip(q), a


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
    n = max(len(a), len(b))
    return _gf_strip(
        [((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % m for i in range(n)]
    )


def _gf_pow_x(e, mod, p):
    """x^e mod (mod) over GF(p) by square and multiply."""
    result = [1]
    base = [0, 1]
    if len(base) >= len(mod):
        base = _zpoly_divmod(base, mod, p)[1]
    while e:
        if e & 1:
            result = _zpoly_divmod(_zpoly_mul(result, base, p), mod, p)[1]
        e >>= 1
        if e:
            base = _zpoly_divmod(_zpoly_mul(base, base, p), mod, p)[1]
    return result


def _gf_kernel(mat, d, p):
    """Basis of the kernel of a d x d matrix over GF(p) (row-major)."""
    m = [row[:] for row in mat]
    pivots = {}
    row = 0
    for col in range(d):
        sel = None
        for r in range(row, d):
            if m[r][col] % p:
                sel = r
                break
        if sel is None:
            continue
        m[row], m[sel] = m[sel], m[row]
        inv = pow(m[row][col], p - 2, p)
        m[row] = [(v * inv) % p for v in m[row]]
        for r in range(d):
            if r != row and m[r][col]:
                c = m[r][col]
                m[r] = [(a - c * b) % p for a, b in zip(m[r], m[row])]
        pivots[col] = row
        row += 1
    basis = []
    for col in range(d):
        if col in pivots:
            continue
        vec = [0] * d
        vec[col] = 1
        for pc, pr in pivots.items():
            vec[pc] = (-m[pr][col]) % p
        basis.append(vec)
    return basis


def _berlekamp(f, p):
    """Monic squarefree f over GF(p) into monic irreducible factors."""
    d = len(f) - 1
    if d <= 1:
        return [f]
    xp = _gf_pow_x(p, f, p)
    cur = [1]
    cols = [cur]
    for _ in range(1, d):
        cur = _zpoly_divmod(_zpoly_mul(cur, xp, p), f, p)[1]
        cols.append(cur)
    mat = [[0] * d for _ in range(d)]
    for j, col in enumerate(cols):
        for i, v in enumerate(col):
            mat[i][j] = v
    for i in range(d):
        mat[i][i] = (mat[i][i] - 1) % p
    basis = _gf_kernel(mat, d, p)
    r = len(basis)
    factors = [f]
    if r == 1:
        return factors
    for vec in basis:
        v = _gf_strip(list(vec))
        if len(v) <= 1:
            continue
        next_factors = []
        for g in factors:
            if len(g) - 1 <= 1:
                next_factors.append(g)
                continue
            pieces = []
            rest = g
            for c in range(p):
                shifted = list(v)
                shifted[0] = (shifted[0] - c) % p
                h = _gf_gcd(rest, _gf_strip(shifted), p)
                if 0 < len(h) - 1 < len(rest) - 1:
                    pieces.append(h)
                    rest = _zpoly_divmod(rest, h, p)[0]
                if len(rest) - 1 == 0:
                    break
            if len(rest) - 1 > 0:
                pieces.append(rest)
            next_factors.extend(pieces)
        factors = next_factors
        if len(factors) == r:
            break
    return [_gf_monic(g, p) for g in factors]


def _centered(c, m):
    c %= m
    if 2 * c > m:
        c -= m
    return c


def _zpoly_add(a, b, m):
    n = max(len(a), len(b))
    return _gf_strip(
        [((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % m for i in range(n)]
    )


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
    return (_gf_monic(r0, p),
            [(c * inv) % p for c in s0],
            [(c * inv) % p for c in t0])


def _lift_factor(f_coeffs, g0, h0, p, final):
    """Lift the coprime pair f = g0*h0 mod p until the modulus reaches final.

    f_coeffs are integer coefficients of monic f, exact or reduced mod
    final, so reduction at every modulus of the ladder is available; the
    ladder squares p until it hits final exactly.  Returns the monic lifts
    (g, h), which are unique.
    """
    if _gf_strip([c % p for c in f_coeffs]) != _zpoly_mul(g0, h0, p):
        raise InternalError("modular factors do not multiply to f mod p")
    gcd_poly, s, t = _gf_xgcd(g0, h0, p)
    if len(gcd_poly) - 1 != 0:
        raise InternalError("modular factors were not coprime")
    g, h = list(g0), list(h0)
    m = p
    while m < final:
        mm = m * m
        f_cur = [c % mm for c in f_coeffs]
        g, h, s, t = _hensel_step(f_cur, g, h, s, t, m)
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
        return [[c % final for c in f_coeffs]]
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
    Berlekamp mod p, the Hensel tree and subset recombination."""
    modular = _berlekamp(_gf_strip([c % p for c in f.coeffs]), p)
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
    sorted by (degree, coefficients) so the output is deterministic.

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
        d = _gf_strip([c % p for c in df.coeffs])
        if d and len(_gf_gcd([c % p for c in f.coeffs], d, p)) == 1:
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
