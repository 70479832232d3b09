"""Exact integer matrices and the integer lattice utilities built on them."""

from fractions import Fraction
from math import gcd
from operator import mul

from .errors import (DimensionError, DomainError, InternalError, RankError,
                     _number_text, _require_positive_int)
from .intpoly import IntPolynomial


def _xgcd(a, b):
    """(g, x, y) with x*a + y*b = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _power(base, n, result):
    """result * base**n by repeated squaring, for an int n >= 0."""
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


def _integer(x):
    """x as an int: an int, or a Fraction with denominator 1."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    raise DomainError("matrix has non-integer entries")


class ExactMatrix:
    """Immutable integer matrix, row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries):
        if rows < 0 or cols < 0 or len(entries) != rows * cols:
            raise DimensionError("entry count does not match shape")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", tuple(map(_integer, entries)))

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    @classmethod
    def from_rows(cls, rows):
        rows = [list(r) for r in rows]
        if not rows:
            raise DimensionError("empty matrix")
        width = len(rows[0])
        if width == 0 or any(len(r) != width for r in rows):
            raise DimensionError("ragged rows")
        flat = [x for r in rows for x in r]
        return cls(len(rows), width, flat)

    @classmethod
    def from_columns(cls, cols):
        cols = [list(c) for c in cols]
        if not cols:
            raise DimensionError("empty matrix")
        height = len(cols[0])
        if height == 0 or any(len(c) != height for c in cols):
            raise DimensionError("ragged columns")
        return cls.from_rows([[cols[j][i] for j in range(len(cols))] for i in range(height)])

    @classmethod
    def identity(cls, n):
        return cls(n, n, [int(i == j) for i in range(n) for j in range(n)])

    def at(self, i, j):
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise DimensionError("index out of range")
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def column(self, j):
        return self.entries[j::self.cols]

    @property
    def is_square(self):
        return self.rows == self.cols

    @property
    def is_nonnegative(self):
        return all(e >= 0 for e in self.entries)

    @property
    def is_positive(self):
        return all(e > 0 for e in self.entries)

    def int_rows(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self):
        return ExactMatrix(self.cols, self.rows,
                           [x for j in range(self.cols) for x in self.column(j)])

    def __mul__(self, other):
        if isinstance(other, int):
            return ExactMatrix(self.rows, self.cols, [a * other for a in self.entries])
        if self.cols != other.rows:
            raise DimensionError("shape mismatch in product")
        cols = [other.column(j) for j in range(other.cols)]
        return ExactMatrix(self.rows, other.cols,
                           [x for i in range(self.rows)
                            for x in _int_apply(cols, self.row(i))])

    def __pow__(self, n):
        if not self.is_square:
            raise DimensionError("power of a non-square matrix")
        if type(n) is not int or n < 0:
            raise DomainError("matrix power must be a non-negative integer")
        return _power(self, n, ExactMatrix.identity(self.rows))

    def apply(self, vec):
        vec = tuple(vec)
        if len(vec) != self.cols:
            raise DimensionError("vector length mismatch")
        return tuple(_int_apply(map(self.row, range(self.rows)), vec))

    def __eq__(self, other):
        return (isinstance(other, ExactMatrix)
                and self.rows == other.rows
                and self.cols == other.cols
                and self.entries == other.entries)

    def __hash__(self):
        return hash(("ExactMatrix", self.rows, self.cols, self.entries))

    def __repr__(self):
        return "ExactMatrix.from_rows([%s])" % ", ".join(
            "[%s]" % ", ".join(map(_number_text, r)) for r in self.int_rows())

    def inverse(self):
        """(adj, d) with self * adj = d * I and d = |det| > 0, read off the
        Faddeev-LeVerrier recursion: self * B_(n-1) = -c_0 * I, and
        det = (-1)**n * c_0 for the constant term c_0 of the charpoly."""
        if not self.is_square:
            raise DimensionError("inverse of a non-square matrix")
        n = self.rows
        cs, b = _faddeev(self)
        det = (-1) ** n * cs[-1]
        if det == 0:
            raise DomainError("matrix is singular")
        sign = (1 if det > 0 else -1) * (-1) ** (n - 1)
        return ExactMatrix(n, n, [sign * x for r in b for x in r]), abs(det)

    def solve(self, rhs):
        """Unique solution x of self @ x = rhs, as Fractions; DomainError
        if singular."""
        adj, d = self.inverse()
        return tuple(Fraction(x, d) for x in adj.apply(rhs))


def gauss_jordan(rows, ncols):
    """Reduce the row lists in place to reduced echelon form on their first
    ncols columns; returns the pivot columns, in row order.

    Entries need only -, *, / and a comparison with 0, so rows of Fraction
    and rows of field elements share this one elimination; an int pivot is
    inverted as a Fraction, so int rows reduce exactly too.
    """
    pivots = []
    n = len(rows)
    for c in range(ncols):
        r = len(pivots)
        sel = next((i for i in range(r, n) if rows[i][c] != 0), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        row = rows[r]
        inv = Fraction(1, row[c]) if isinstance(row[c], int) else 1 / row[c]
        row[c:] = tail = [x * inv for x in row[c:]]
        for i, other in enumerate(rows):
            f = other[c]
            if i != r and f != 0:
                other[c:] = [x - f * y for x, y in zip(other[c:], tail)]
        pivots.append(c)
    return pivots


def kernel_basis(rows, zero, one):
    """Basis of the kernel of the matrix given by its row lists, one vector
    per non-pivot column, with 1 there and 0 in the other non-pivot
    columns.  The rows are reduced in place."""
    width = len(rows[0]) if rows else 0
    pivots = gauss_jordan(rows, width)
    basis = []
    for c in range(width):
        if c in pivots:
            continue
        vec = [zero] * width
        vec[c] = one
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][c]
        basis.append(vec)
    return basis


def charpoly(m):
    """Characteristic polynomial det(tI - m) of an integer square matrix."""
    if not m.is_square:
        raise DimensionError("characteristic polynomial of a non-square matrix")
    cs, _ = _faddeev(m)
    return IntPolynomial(cs[::-1] + [1])


def _faddeev(m):
    """Faddeev-LeVerrier on integer lists for a square m: B_0 = I, then
    B_i = m B_(i-1) + c I with c = -tr(m B_(i-1)) / i, a division that must
    be exact.  Returns the c, from c_(n-1) down to the constant term c_0
    of det(tI - m), and B_(n-1); as B_n = 0, m B_(n-1) = -c_0 I.
    """
    n = m.rows
    a = m.int_rows()
    b = prev = [[int(i == j) for j in range(n)] for i in range(n)]
    cs = []
    for i in range(1, n + 1):
        prod = _int_matmul(a, b)
        c, r = divmod(-sum(prod[j][j] for j in range(n)), i)
        if r:
            raise InternalError("characteristic polynomial came out non-integral")
        cs.append(c)
        for j in range(n):
            prod[j][j] += c
        prev, b = b, prod
    if any(x for row in b for x in row):
        raise InternalError("characteristic polynomial recursion did not close")
    return cs, prev


def _int_apply(rows, v):
    """The integer matrix given by its rows applied to the vector v: the
    one product kernel that every integer matrix product runs on."""
    return [sum(map(mul, row, v)) for row in rows]


def _int_matmul(a, b):
    """Product of two integer matrices given as lists of rows."""
    cols = list(zip(*b))
    return [_int_apply(cols, row) for row in a]


def wielandt_bound(n):
    return (n - 1) * (n - 1) + 1 if n > 1 else 1


def _reached(adj):
    """Count of the vertices reached from vertex 0 along adj, and each
    one's breadth-first level (-1 where unreached)."""
    level = [-1] * len(adj)
    level[0] = 0
    queue = [0]
    for u in queue:
        for v in adj[u]:
            if level[v] < 0:
                level[v] = level[u] + 1
                queue.append(v)
    return len(queue), level


def _irreducible_aperiodic(succ):
    """Whether the graph u -> v for v in succ[u] is strongly connected
    with period 1.  Every vertex must be reached from vertex 0 both along
    successors and along predecessors; the period is then the gcd of
    level(u) + 1 - level(v) over the edges u -> v, levels from vertex 0.
    """
    n = len(succ)
    reached, level = _reached(succ)
    if reached < n:
        return False
    pred = [[] for _ in range(n)]
    for u, s in enumerate(succ):
        for v in s:
            pred[v].append(u)
    if _reached(pred)[0] < n:
        return False
    period = 0
    for u, s in enumerate(succ):
        for v in s:
            period = gcd(period, level[u] + 1 - level[v])
    return period == 1


def _support_graph(m):
    """Successor lists of m's support; m square, nonnegative, not empty."""
    if not m.is_square:
        raise DimensionError("primitivity needs a square matrix")
    if not m.is_nonnegative:
        raise DomainError("nonnegative integer matrix required")
    if not m.rows:
        raise DimensionError("empty matrix")
    return [[j for j, x in enumerate(m.row(i)) if x] for i in range(m.rows)]


def primitivity_exponent(m):
    """Least e with m**e entrywise positive, or None if m is not primitive.

    The graph of m decides first: strong connectivity and period 1 are
    primitivity, so a matrix that is not primitive takes no power.  Only
    the support matters, so the powers of a primitive m are scanned on
    row bitmasks up to the Wielandt bound: row i of m m**e is the OR of
    rows j of m**e over the successors j of i, so the sparse rows of m
    drive each step.
    """
    succ = _support_graph(m)
    if not _irreducible_aperiodic(succ):
        return None
    full = (1 << m.rows) - 1
    cur = [sum(1 << j for j in s) for s in succ]
    for e in range(1, wielandt_bound(m.rows) + 1):
        if all(r == full for r in cur):
            return e
        nxt = []
        for s in succ:
            mask = 0
            for j in s:
                mask |= cur[j]
            nxt.append(mask)
        cur = nxt
    raise InternalError("primitive matrix passed the Wielandt bound")


def first_power(m, accept, cap, start=None):
    """(e, rows) for the least e <= cap with accept(rows), rows the integer
    rows of m**e from e = 1, or of start m**e from e = 0 when start rows
    are given.  On a miss e is None and rows are those at the cap, or None
    if no power was tried."""
    base = m.int_rows()
    first, rows = (1, base) if start is None else (0, start)
    for e in range(first, cap + 1):
        if e > first:
            rows = _int_matmul(rows, base)
        if accept(rows):
            return e, rows
    return None, rows if cap >= first else None


def eventual_positivity_exponent(m, cap=64):
    """Least e <= cap with m**e entrywise positive, using exact powers."""
    if not m.is_square:
        raise DimensionError("positivity needs a square matrix")
    _require_positive_int(cap, "cap")
    return first_power(
        m, lambda rows: all(x > 0 for row in rows for x in row), cap)[0]


def hnf_basis(vectors):
    """Canonical basis of the lattice generated by integer vectors.

    Returns H, a k x k lower-triangular integer matrix whose columns form
    a basis: positive diagonal, and each below-diagonal entry reduced
    modulo the diagonal entry of its row.  Raises RankError when the
    vectors do not span.
    """
    if not vectors:
        raise DimensionError("no generating vectors")
    k = len(vectors[0])
    if k == 0 or any(len(v) != k for v in vectors):
        raise DimensionError("inconsistent vector lengths")
    ech = [None] * k
    for c in vectors:
        for r in range(k):
            if c[r] == 0:
                continue
            if ech[r] is None:
                ech[r] = c
                break
            a, b = ech[r][r], c[r]
            g, x, y = _xgcd(a, b)
            combined = [x * u + y * w for u, w in zip(ech[r], c)]
            c = [(a // g) * w - (b // g) * u for u, w in zip(ech[r], c)]
            ech[r] = combined
    if any(col is None for col in ech):
        raise RankError("vectors do not span the full space")
    for r in range(k):
        if ech[r][r] < 0:
            ech[r] = [-u for u in ech[r]]
    for i in range(k):
        piv = ech[i][i]
        for j in range(i):
            q = ech[j][i] // piv
            if q:
                ech[j] = [u - q * w for u, w in zip(ech[j], ech[i])]
    return ExactMatrix.from_columns(ech)
