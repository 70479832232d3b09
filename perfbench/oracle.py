"""Independent answers the benchmark checks the library's outputs against.

Everything here is plain int, str and Fraction code, written without the
library: substitutions are dicts from one-character letters to strings,
polynomials are coefficient lists (lowest degree first), matrices are
lists of int rows.  A mismatch raises CheckFailed, which ends the run as
a wrong answer rather than as a failed operation.
"""

import re
from fractions import Fraction


class CheckFailed(Exception):
    """An output of the library disagrees with the independent answer."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


# -- substitution languages ---------------------------------------------

TEXT_CAP = 4_000_000
_HASH_MOD = (1 << 61) - 1
_HASH_BASE = 1_000_003


def apply_rules(rules, word):
    return "".join(rules[ch] for ch in word)


def clamp(word, width):
    """Cut every run to at most width letters; this keeps the set of
    windows of length <= width, so it may follow every expansion step."""
    return re.sub(r"(.)\1{%d,}" % width, lambda m: m.group(1) * width, word)


def rules_from_runs(rules, width):
    """{letter: {"runs": [[letter, count], ...]}} as clamped strings."""
    return {a: "".join(l * min(c, width) for l, c in w["runs"])
            for a, w in rules.items()}


def two_blocks(rules):
    """Admissible two-letter words: close the 2-factors of the letter
    images under b c -> 2-factors of rule(b) rule(c)."""
    blocks = set()
    for image in rules.values():
        blocks |= {image[i:i + 2] for i in range(len(image) - 1)}
    todo = list(blocks)
    while todo:
        pair = todo.pop()
        text = rules[pair[0]] + rules[pair[1]]
        for i in range(len(text) - 1):
            w = text[i:i + 2]
            if w not in blocks:
                blocks.add(w)
                todo.append(w)
    return blocks


def factor_texts(rules, n):
    """Texts whose length-n windows are exactly the n-factors.

    With every k-step image at least n long, each n-factor sits inside
    rule^k(b) rule^k(c) for an admissible pair b c, and every window of
    such a text is a factor.  Rules may come clamped to width max(n, 2).
    """
    width = max(n, 2)
    images = {ch: ch for ch in rules}
    while min(len(w) for w in images.values()) < n:
        images = {ch: clamp(apply_rules(images, rules[ch]), width)
                  for ch in rules}
        if max(len(w) for w in images.values()) > TEXT_CAP:
            raise ValueError("check texts would exceed %d letters" % TEXT_CAP)
    return [images[b[0]] + images[b[1]] for b in sorted(two_blocks(rules))]


def _window_hashes(text, n, out):
    top = pow(_HASH_BASE, n, _HASH_MOD)
    prefix = [0]
    h = 0
    for ch in text:
        h = (h * _HASH_BASE + ord(ch)) % _HASH_MOD
        prefix.append(h)
    for i in range(len(text) - n + 1):
        out.add((prefix[i + n] - prefix[i] * top) % _HASH_MOD)


def factor_count(rules, n):
    """Number of distinct length-n factors, counted over factor_texts.

    Short windows are compared as strings; long ones by a 61-bit
    polynomial hash, so a collision could only lower the count."""
    seen = set()
    for text in factor_texts(rules, n):
        if n <= 256:
            seen.update(text[i:i + n] for i in range(len(text) - n + 1))
        else:
            _window_hashes(text, n, seen)
    return len(seen)


def factor_set(rules, n):
    seen = set()
    for text in factor_texts(rules, n):
        seen.update(text[i:i + n] for i in range(len(text) - n + 1))
    return seen


def fixed_point_prefix(rules, seed, n):
    word = seed
    while len(word) < n:
        grown = apply_rules(rules, word)
        require(grown.startswith(word), "seed %r does not lead its image" % seed)
        word = grown
    return word[:n]


def is_primitive_rules(rules):
    letters = sorted(rules)
    rows = [[rules[b].count(a) for b in letters] for a in letters]
    return is_primitive(rows)


def thue_morse_complexity(n):
    """Closed form of Brlek and of de Luca and Varricchio (1989)."""
    if n <= 2:
        return (1, 2, 4)[n]
    r = (n - 2).bit_length() - 1
    q = n - 1 - (1 << r)
    half = 1 << r  # 2 * 2^(r-1), which keeps r = 0 in integers
    if 2 * q <= half:
        return 3 * half + 4 * q
    return 4 * half + 2 * q


def period_doubling_profile(n_max):
    """p(1..n_max) for a -> ab, b -> aa: p(1) = 2, p(2) = 3, then the
    first differences run in blocks of 2^j twos followed by 2^j ones."""
    out = [2, 3]
    j = 0
    while len(out) < n_max:
        for step in (2, 1):
            for _ in range(1 << j):
                out.append(out[-1] + step)
        j += 1
    return out[:n_max]


def closed_form_profile(kind, n_max):
    if kind == "sturmian":
        return [n + 1 for n in range(1, n_max + 1)]
    if kind == "tribonacci":
        return [2 * n + 1 for n in range(1, n_max + 1)]
    if kind == "thue-morse":
        return [thue_morse_complexity(n) for n in range(1, n_max + 1)]
    if kind == "period-doubling":
        return period_doubling_profile(n_max)
    raise ValueError("no closed form for %r" % kind)


# -- integer matrices and polynomials -------------------------------------

def is_primitive(rows):
    """Some power of the nonnegative matrix is strictly positive
    (Wielandt: checking up to (s-1)^2 + 1 suffices)."""
    s = len(rows)
    support = [[x > 0 for x in row] for row in rows]
    power = support
    for _ in range((s - 1) ** 2 + 1):
        if all(all(row) for row in power):
            return True
        power = [[any(power[i][t] and support[t][j] for t in range(s))
                  for j in range(s)] for i in range(s)]
    return False


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def mat_pow(a, e):
    s = len(a)
    out = [[int(i == j) for j in range(s)] for i in range(s)]
    for _ in range(e):
        out = mat_mul(out, a)
    return out


def charpoly(rows):
    """det(tI - A) by Faddeev-LeVerrier over Fraction, lowest first."""
    s = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    m = [[Fraction(int(i == j)) for j in range(s)] for i in range(s)]
    coeffs = [Fraction(1)]
    for k in range(1, s + 1):
        am = mat_mul(a, m)
        c = -sum(am[i][i] for i in range(s)) / k
        coeffs.append(c)
        m = [[am[i][j] + (c if i == j else 0) for j in range(s)]
             for i in range(s)]
    require(all(x == 0 for row in m for x in row),
            "Cayley-Hamilton check of the oracle charpoly failed")
    return [int(c) for c in reversed(coeffs)]


def poly_rem(num, den):
    """Remainder of num by den over Q, both lowest degree first."""
    r = [Fraction(x) for x in num]
    d = [Fraction(x) for x in den]
    while d and d[-1] == 0:
        d.pop()
    while len(r) >= len(d):
        if r[-1] == 0:
            r.pop()
            continue
        f = r[-1] / d[-1]
        shift = len(r) - len(d)
        for i, c in enumerate(d):
            r[shift + i] -= f * c
        r.pop()
    while r and r[-1] == 0:
        r.pop()
    return r


def poly_eval(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


class QuotientRing:
    """Q[t] / (f) for a monic integer f, elements as coefficient lists."""

    def __init__(self, f):
        self.f = list(f)
        self.k = len(f) - 1

    def reduce(self, coeffs):
        r = list(coeffs)
        k = self.k
        for top in range(len(r) - 1, k - 1, -1):
            c = r[top]
            if c:
                for i in range(k):
                    r[top - k + i] -= c * self.f[i]
            r[top] = 0
        return [Fraction(x) for x in (r[:k] + [0] * (k - len(r[:k])))]

    def mul(self, a, b):
        prod = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        return self.reduce(prod)

    def t(self):
        return self.reduce([0, 1])


def check_perron(rows, min_poly, interval, eigvec):
    """The four Perron certificates, recomputed independently.

    min_poly divides charpoly(A), changes sign across the interval, the
    eigenvector coordinates sum to one, and A x = lam x in Q[t]/(min_poly).
    """
    cp = charpoly(rows)
    require(min_poly[-1] == 1, "minimal polynomial is not monic")
    require(not poly_rem(cp, min_poly),
            "minimal polynomial does not divide the characteristic polynomial")
    lo, hi = interval
    require(lo < hi and poly_eval(min_poly, lo) * poly_eval(min_poly, hi) < 0,
            "isolating interval shows no sign change")
    ring = QuotientRing(min_poly)
    s = len(rows)
    require(len(eigvec) == s, "eigenvector has the wrong length")
    total = [sum(col) for col in zip(*eigvec)]
    require(total == [1] + [0] * (ring.k - 1), "eigenvector does not sum to 1")
    lam = ring.t()
    for i in range(s):
        lhs = [Fraction(0)] * ring.k
        for j in range(s):
            if rows[i][j]:
                lhs = [u + rows[i][j] * v for u, v in zip(lhs, eigvec[j])]
        require(lhs == ring.mul(lam, eigvec[i]),
                "A x = lam x fails in row %d" % i)


def in_lattice(basis_columns, den, coords):
    """Whether coords lie in the span of the lower-triangular integer
    columns divided by den."""
    t = [Fraction(x) * den for x in coords]
    k = len(t)
    for i in range(k):
        c = t[i] / basis_columns[i][i]
        if c.denominator != 1:
            return False
        for r in range(i, k):
            t[r] -= c * basis_columns[i][r]
    return all(x == 0 for x in t)


def membership_exponent(basis_columns, den, min_poly, value, cap):
    """Least n <= cap with lam^n * value in the lattice, else None."""
    ring = QuotientRing(min_poly)
    lam = ring.t()
    coords = [Fraction(value)] + [Fraction(0)] * (ring.k - 1)
    for n in range(cap + 1):
        if in_lattice(basis_columns, den, coords):
            return n
        coords = ring.mul(coords, lam)
    return None


# -- counting -------------------------------------------------------------

def partition_counts(q):
    """p(0..q) by Euler's recurrence on generalized pentagonal numbers."""
    p = [1] + [0] * q
    for n in range(1, q + 1):
        total, k = 0, 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > n:
                break
            sign = 1 if k % 2 else -1
            total += sign * p[n - g1]
            g2 = k * (3 * k + 1) // 2
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return p


def mobius(n):
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


def coprime_partitions(q):
    """Partitions of q whose parts have gcd 1: sum of mu(d) p(q/d)."""
    p = partition_counts(q)
    return sum(mobius(d) * p[q // d] for d in range(1, q + 1) if q % d == 0)


def path_counts(columns_rows, level0, depth):
    """Root-path counts per vertex for levels 1..depth."""
    h = list(level0)
    out = [tuple(h)]
    for _ in range(depth - 1):
        h = [sum(x * y for x, y in zip(row, h)) for row in columns_rows]
        out.append(tuple(h))
    return out
