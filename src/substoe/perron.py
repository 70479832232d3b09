"""Dominant eigendata of primitive integer matrices, kept exact.

The eigenvector is a column of adj(lam I - A), computed with integer
arithmetic and reduced modulo the minimal polynomial of lam by intpoly's
coefficient-list kernel, then normalized once so its entries sum to one.  The companion matrix
expresses multiplication by lam on the coordinate lattice Z^k of the
field; only multiplication_matrices, which no builder calls, reads it.
"""

from collections import namedtuple
from math import lcm

from .errors import DomainError, InternalError
from .field import _element, certified_sign, dominant_root_field
from .intpoly import _rem_monic
from .matrix import (ExactMatrix, _int_apply, _int_matmul,
                     _irreducible_aperiodic, _support_graph, charpoly,
                     kernel_basis)


def field_kernel_basis(rows, field):
    """Basis of the kernel of a square matrix of field elements.

    The eigenvectors below come from adjugate columns instead; this stays
    as the reference they are tested on.
    """
    return kernel_basis([list(r) for r in rows], field.zero(), field.one())


PerronData = namedtuple("PerronData", "matrix field k lam eigvec")
MultiplicationPair = namedtuple("MultiplicationPair", "c y1")


def adjugate_column(rows, cp, min_poly):
    """Column 0 of adj(lam I - A) as integer power-basis coordinates.

    rows is the integer matrix A, cp its characteristic polynomial and
    min_poly the monic minimal polynomial of the root lam of cp.
    adj(tI - A) = sum_j t^j B_j with B_(s-1) = I and B_(j-1) = A B_j + c_j I,
    so column 0 needs only b_(j-1) = A b_j + c_j e_0.  Entry i is the
    polynomial sum_j b_j[i] t^j, reduced modulo min_poly.  When lam is a
    simple root the column is a multiple of the lam-eigenvector, and it is
    nonzero exactly when rank(lam I - A) = s - 1 and the left eigenvector
    has a nonzero first entry.
    """
    s = len(rows)
    c = cp.coeffs
    bs = [[int(i == 0) for i in range(s)]]  # b_(s-1), ..., b_0
    for j in range(s - 1, 0, -1):
        bs.append(_int_apply(rows, bs[-1]))
        bs[-1][0] += c[j]
    return [_rem_monic(p[::-1], min_poly.coeffs) for p in zip(*bs)]


def perron_data(m):
    """Exact dominant eigendata of a primitive integer matrix.

    Primitivity is decided on the support graph, taking no power of m.
    The right eigenvector x is scaled so sum(x) = 1.  The certificate
    runs on the integer adjugate column c, whose signs take few bisection
    steps: x_i = c_i / total, so x > 0 when every c_i has the sign of
    total, and m c = lam c gives m x = lam x.  The inverse of total is
    then certified, with the signs, by sum(x) == 1.
    """
    if not _irreducible_aperiodic(_support_graph(m)):
        raise DomainError("matrix is not primitive")
    cp = charpoly(m)
    field, k = dominant_root_field(cp)
    lam = field.lam()
    col = adjugate_column(m.int_rows(), cp, field.min_poly)
    total = _element(field, [sum(x) for x in zip(*col)], 1)
    if total.is_zero:
        raise InternalError("adjugate column is zero or sums to zero")
    sign = certified_sign(total)
    cs = [_element(field, x, 1) for x in col]
    if any(certified_sign(c) != sign for c in cs):
        raise InternalError("eigenvector has an entry of the wrong sign")
    _check_eigvec(m, lam, cs, field)
    inv_total = total.inverse()
    vec = [c * inv_total for c in cs]
    if sum(vec, field.zero()) != field.one():
        raise InternalError("normalized eigenvector does not sum to one")
    return PerronData(matrix=m, field=field, k=k, lam=lam, eigvec=tuple(vec))


def _check_eigvec(m, lam, vec, field):
    """m vec = lam vec, checked as one integer product m V, V the rows of
    vec's numerators over one denominator d, against n field products."""
    d = lcm(*(x.den for x in vec))
    v = [[y * (d // x.den) for y in x.nums] for x in vec]
    for nums, x in zip(_int_matmul(m.int_rows(), v), vec):
        if _element(field, nums, d) != lam * x:
            raise InternalError("eigenvector equation failed exact verification")


def companion_matrix(field):
    """C: multiplication by lam on power-basis coordinates.

    It is the companion matrix of the minimal polynomial.
    """
    return ExactMatrix.from_columns(
        [_rem_monic([0] * j + [0, 1], field.min_poly.coeffs)
         for j in range(field.degree)])


def multiplication_matrices(field):
    """Pair (C, y1): multiplication by lam on coordinates and its
    eigenvector.

    C is the companion matrix of the minimal polynomial and y1 the
    C-eigenvector for lam, with first nonzero coordinate set to 1 and the
    sign flipped if its field value is negative.  y1 comes from column 0
    of adj(lam I - C), which is nonzero because the left lam-eigenvector
    of C is (1, lam, ..., lam^(k-1)).
    """
    c_mat = companion_matrix(field)
    lam = field.lam()
    f = field.min_poly
    y1 = [field.from_coords(x) for x in adjugate_column(c_mat.int_rows(), f, f)]
    lead = next((i for i, x in enumerate(y1) if not x.is_zero), None)
    if lead is None:
        raise InternalError("companion eigenspace is not one-dimensional")
    inv = y1[lead].inverse()
    y1 = [x * inv for x in y1]
    sgn = certified_sign(sum((x * lam ** i for i, x in enumerate(y1)),
                             field.zero()))
    if sgn == 0:
        raise InternalError("y1 pairs to zero against the root powers")
    if sgn < 0:
        y1 = [-x for x in y1]
    return MultiplicationPair(c=c_mat, y1=tuple(y1))
