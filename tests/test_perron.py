from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from substoe import matrix as matrix_module
from substoe.cli import _cmd_perron
from substoe.construct import enlarge_matrix
from substoe.errors import DimensionError, DomainError, InternalError
from substoe.field import certified_sign, minimal_polynomial, number_field
from substoe.intpoly import IntPolynomial
from substoe.matrix import ExactMatrix, charpoly, primitivity_exponent
from substoe.perron import (
    MultiplicationPair,
    PerronData,
    adjugate_column,
    companion_matrix,
    field_kernel_basis,
    multiplication_matrices,
    perron_data,
)


A0 = ExactMatrix.from_rows([[1, 1], [1, 2]])
A1 = ExactMatrix.from_rows([[1, 1, 1], [2, 3, 1], [8, 13, 0]])


class TestPerronData:
    def test_golden_eigvec(self):
        pd = perron_data(A0)
        lam = pd.field.lam()
        assert pd.lam == lam
        assert pd.eigvec == (3 - lam, lam - 2)
        assert sum(pd.eigvec, pd.field.zero()) == pd.field.one()

    def test_golden_coords_matrix(self):
        pd = perron_data(A0)
        coords = ExactMatrix.from_columns([list(x.coords) for x in pd.eigvec])
        assert coords == ExactMatrix.from_rows([[3, -2], [-1, 1]])

    def test_eigvec_equation(self):
        for m in (A0, A1):
            pd = perron_data(m)
            image = [sum((pd.matrix.at(i, j) * pd.eigvec[j] for j in range(m.cols)),
                         pd.field.zero()) for i in range(m.rows)]
            assert tuple(image) == tuple(pd.lam * x for x in pd.eigvec)

    def test_entries_positive(self):
        pd = perron_data(A1)
        for x in pd.eigvec:
            assert certified_sign(x) == 1

    def test_keeps_primitivity_exponent(self):
        # the record keeps none; the perron document still prints it
        assert not hasattr(perron_data(A0), "exponent")
        for m, e in ((A0, 1), (A1, 2)):
            doc = _cmd_perron({"matrix": m.int_rows()}, None)
            assert doc["primitivity_exponent"] == primitivity_exponent(m) == e

    def test_scans_no_power(self, monkeypatch):
        # primitivity is decided on the support graph: the exponent scan,
        # which reads matrix.wielandt_bound, never starts
        def refuse(n):
            raise AssertionError("perron_data scanned the powers of m")

        monkeypatch.setattr(matrix_module, "wielandt_bound", refuse)
        ring = [[int(j in (0, (i + 1) % 8)) for j in range(8)]
                for i in range(8)]
        for m in (A0, A1, ExactMatrix.from_rows(ring)):
            assert perron_data(m).matrix is m

    @pytest.mark.parametrize("rows, kind, message", [
        ([[1, 1]], DimensionError, "primitivity needs a square matrix"),
        ([[1, -1]], DimensionError, "primitivity needs a square matrix"),
        ([[1, -1], [1, 1]], DomainError, "nonnegative integer matrix required"),
        ([], DimensionError, "empty matrix"),
        ([[1, 1], [0, 1]], DomainError, "matrix is not primitive"),
        ([[0, 1, 0], [0, 0, 1], [1, 0, 0]], DomainError,
         "matrix is not primitive"),
    ], ids=["non-square", "non-square-negative", "negative", "empty",
            "reducible", "periodic"])
    def test_refusals_keep_their_kinds_and_messages(self, rows, kind,
                                                    message):
        m = ExactMatrix(len(rows), len(rows[0]) if rows else 0,
                        [x for row in rows for x in row])
        with pytest.raises(DomainError) as refused:
            perron_data(m)
        assert type(refused.value) is kind
        assert str(refused.value) == message

    def test_reducible_charpoly_field(self):
        pd = perron_data(A1)
        assert pd.field.min_poly == IntPolynomial([1, -7, 1])
        assert pd.k == 2

    def test_ninth_vertex_enlargement(self):
        # the 9x9 seventh step from A0: every odd prime up to 59 divides
        # the discriminant of its squarefree charpoly part
        m, power = A0, 1
        for _ in range(7):
            report = enlarge_matrix(m)
            m, power = report["matrix"], power * report["power"]
        assert m.rows == 9
        pd = perron_data(m)
        lam = perron_data(A0).field.lam()
        assert pd.field.min_poly == minimal_polynomial(lam ** power)

    def test_not_primitive_rejected(self):
        with pytest.raises(DomainError):
            perron_data(ExactMatrix.from_rows([[0, 1], [1, 0]]))

    def test_negative_entry_rejected(self):
        c = ExactMatrix.from_rows([[0, 0, 46], [1, 0, 15], [0, 1, -3]])
        with pytest.raises(DomainError):
            perron_data(c)


class TestRecords:
    """The records are named tuples: fields by name and position, no
    assignment, equality and hashing by value."""

    def test_fields_in_order(self):
        assert PerronData._fields == ("matrix", "field", "k", "lam", "eigvec")
        assert MultiplicationPair._fields == ("c", "y1")
        pd = perron_data(A0)
        assert tuple(pd) == (pd.matrix, pd.field, pd.k, pd.lam, pd.eigvec)
        assert pd[2] == pd.k == 2
        pair = multiplication_matrices(pd.field)
        c, y1 = pair
        assert (c, y1) == (pair.c, pair.y1)

    @pytest.mark.parametrize("name", ["matrix", "lam", "exponent"])
    def test_assignment_raises(self, name):
        pd = perron_data(A0)
        with pytest.raises(AttributeError):
            setattr(pd, name, None)

    def test_equal_records_hash_equal(self):
        first, second = perron_data(A0), perron_data(A0)
        assert first is not second
        assert first == second and hash(first) == hash(second)
        assert first != perron_data(A1)
        pair = multiplication_matrices(first.field)
        again = multiplication_matrices(second.field)
        assert pair == again and hash(pair) == hash(again)

    def test_golden_repr(self):
        assert repr(perron_data(A0)) == (
            "PerronData(matrix=ExactMatrix.from_rows([[1, 1], [1, 2]]), "
            "field=NumberField(t^2 - 3*t + 1), k=2, lam=FieldElement(0, 1), "
            "eigvec=(FieldElement(3, -1), FieldElement(-2, 1)))")
        assert repr(multiplication_matrices(perron_data(A0).field)) == (
            "MultiplicationPair(c=ExactMatrix.from_rows([[0, -1], [1, 3]]), "
            "y1=(FieldElement(-1, 0), FieldElement(0, 1)))")


class TestCoordinates:
    def test_roundtrip(self):
        pd = perron_data(A0)
        for x in pd.eigvec:
            assert pd.field.from_coords(x.coords) == x

    def test_embed_basis(self):
        f = number_field(IntPolynomial([1, -3, 1]))
        assert f.from_coords((0, 1)) == f.lam()
        assert f.from_coords((Fraction(1, 2), 0)) == f.from_rational(Fraction(1, 2))


class TestMultiplicationMatrices:
    def test_golden_pair(self):
        f = number_field(IntPolynomial([1, -3, 1]))
        pair = multiplication_matrices(f)
        assert pair.c == ExactMatrix.from_rows([[0, -1], [1, 3]])

    def test_golden_y1(self):
        f = number_field(IntPolynomial([1, -3, 1]))
        pair = multiplication_matrices(f)
        lam = f.lam()
        assert pair.y1 == (-1 + f.zero(), lam)
        # positivity pairing: sum of y1 coords times powers of lambda
        val = pair.y1[0] + pair.y1[1] * lam
        assert certified_sign(val) == 1

    def test_c_multiplies_by_lambda(self):
        f = number_field(IntPolynomial([1, -3, 1]))
        pair = multiplication_matrices(f)
        lam = f.lam()
        for coords in [(1, 0), (0, 1), (2, -5)]:
            x = f.from_coords(coords)
            assert f.from_coords(pair.c.apply(coords)) == lam * x

    def test_seven_field_pair(self):
        f = number_field(IntPolynomial([1, -7, 1]))
        pair = multiplication_matrices(f)
        assert pair.c == ExactMatrix.from_rows([[0, -1], [1, 7]])

    def test_lind_companion(self):
        f = number_field(IntPolynomial([-46, -15, 3, 1]))
        pair = multiplication_matrices(f)
        assert pair.c == ExactMatrix.from_rows(
            [[0, 0, 46], [1, 0, 15], [0, 1, -3]])

    def test_y1_eigen_equation(self):
        for poly in ([1, -3, 1], [1, -7, 1], [-46, -15, 3, 1]):
            f = number_field(IntPolynomial(poly))
            pair = multiplication_matrices(f)
            lam = f.lam()
            k = f.degree
            image = [sum((f.from_rational(Fraction(pair.c.at(i, j))) * pair.y1[j]
                          for j in range(k)), f.zero()) for i in range(k)]
            assert tuple(image) == tuple(lam * y for y in pair.y1)


def _kernel_vector(m, field):
    """The one kernel vector of m - lam I by Gauss-Jordan over the field."""
    lam = field.lam()
    rows = [[field.from_rational(m.at(i, j)) - (lam if i == j else 0)
             for j in range(m.cols)] for i in range(m.rows)]
    kernel = field_kernel_basis(rows, field)
    assert len(kernel) == 1
    return kernel[0]


def _reference_eigvec(m, field):
    vec = _kernel_vector(m, field)
    total = sum(vec, field.zero())
    return tuple(x / total for x in vec)


def _reference_y1(field):
    vec = _kernel_vector(companion_matrix(field), field)
    lead = next(x for x in vec if not x.is_zero)
    vec = [x / lead for x in vec]
    lam = field.lam()
    value = sum((x * lam ** i for i, x in enumerate(vec)), field.zero())
    if certified_sign(value) < 0:
        vec = [-x for x in vec]
    return tuple(vec)


def _golden_chain(top):
    """Golden-chain members with 3..top vertices, grown by enlarge_matrix."""
    m = A0
    out = []
    while m.rows < top:
        m = enlarge_matrix(m)["matrix"]
        out.append(m)
    return out


# An 8 x 8 matrix of degree-8 Perron field whose adjugate column needs
# nine bisection steps to sign.
BISECTING = ExactMatrix.from_rows([
    [0, 0, 0, 0, 0, 0, 0, 1], [1, 0, 1, 0, 1, 0, 2, 0],
    [0, 2, 0, 1, 0, 0, 2, 1], [0, 1, 2, 1, 1, 0, 1, 2],
    [1, 2, 2, 0, 2, 2, 2, 1], [0, 0, 0, 2, 0, 0, 2, 0],
    [0, 1, 1, 2, 1, 1, 1, 0], [1, 1, 1, 0, 0, 0, 0, 1]])


def _count_horner_calls(monkeypatch):
    import substoe.field as field_module
    horner = field_module._interval_horner
    calls = [0]

    def counting(*args):
        calls[0] += 1
        return horner(*args)
    monkeypatch.setattr(field_module, "_interval_horner", counting)
    return calls


def test_signs_cost_one_evaluation_per_entry_and_step(monkeypatch):
    """Each sign starts at the finest interval of the chain, so perron_data
    evaluates once per adjugate column entry and once for their sum, plus
    once per bisection step."""
    calls = _count_horner_calls(monkeypatch)
    m = BISECTING
    pd = perron_data(m)
    steps = len(pd.field._chain) - 1
    assert m.rows == 8 and steps > 0
    assert calls[0] <= m.rows + 1 + steps


def test_golden_chain_column_signs_need_no_bisection(monkeypatch):
    """The integer adjugate column of a golden-chain member is signed on
    the coarse isolating interval itself: one evaluation per entry and
    one for their sum."""
    m = _golden_chain(8)[-1]
    calls = _count_horner_calls(monkeypatch)
    pd = perron_data(m)
    assert m.rows == 8 and len(pd.field._chain) == 1
    assert calls[0] == m.rows + 1


class TestCertificateFailures:
    """perron_data refuses a column or an inverse that is not right."""

    def _tamper_column(self, monkeypatch, change):
        import substoe.perron as perron_module
        real = perron_module.adjugate_column
        monkeypatch.setattr(perron_module, "adjugate_column",
                            lambda *args: change(real(*args)))

    @pytest.mark.parametrize("m", [A1, BISECTING], ids=["A1", "bisecting"])
    def test_flipped_entry_sign(self, monkeypatch, m):
        self._tamper_column(monkeypatch, lambda col: [
            [-x for x in c] if i == 1 else c for i, c in enumerate(col)])
        with pytest.raises(InternalError, match="wrong sign"):
            perron_data(m)

    def test_entry_off_the_eigenline(self, monkeypatch):
        # all signs still right, but the column is no eigenvector
        self._tamper_column(monkeypatch, lambda col: [
            [c[0] + 1] + c[1:] if i == 0 else c for i, c in enumerate(col)])
        with pytest.raises(InternalError, match="eigenvector equation"):
            perron_data(A1)

    def test_scaled_column_gives_the_same_data(self, monkeypatch):
        expected = perron_data(BISECTING)
        self._tamper_column(monkeypatch, lambda col: [
            [-3 * x for x in c] for c in col])
        assert perron_data(BISECTING) == expected

    @pytest.mark.parametrize("factor", [2, -1, Fraction(1, 3)])
    def test_wrong_inverse(self, monkeypatch, factor):
        import substoe.field as field_module
        real = field_module.FieldElement.inverse
        monkeypatch.setattr(field_module.FieldElement, "inverse",
                            lambda self: real(self) * factor)
        with pytest.raises(InternalError, match="does not sum to one"):
            perron_data(A1)


square_matrices = st.integers(1, 7).flatmap(
    lambda s: st.lists(st.lists(st.integers(0, 3), min_size=s, max_size=s),
                       min_size=s, max_size=s))


class TestAdjugateAgainstKernel:
    """The adjugate-column eigenvectors against Gauss-Jordan over Q(lam)."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(square_matrices)
    def test_random_primitive(self, rows):
        m = ExactMatrix.from_rows(rows)
        # [[1]] is the only primitive integer matrix with eigenvalue <= 1.
        assume(rows != [[1]] and primitivity_exponent(m) is not None)
        pd = perron_data(m)
        assert pd.eigvec == _reference_eigvec(m, pd.field)
        assert multiplication_matrices(pd.field).y1 == _reference_y1(pd.field)

    def test_golden_chain(self):
        for m in _golden_chain(8):
            pd = perron_data(m)
            assert pd.eigvec == _reference_eigvec(m, pd.field)
            assert multiplication_matrices(pd.field).y1 == _reference_y1(pd.field)

    def test_zero_column_on_a_repeated_root(self):
        # lam = 1 is a double root of I_2 with rank(lam I - I) = 0 < s - 1.
        ident = ExactMatrix.identity(2)
        col = adjugate_column(ident.int_rows(), charpoly(ident), IntPolynomial([-1, 1]))
        assert col == [[0], [0]]

    def test_column_is_reduced_modulo_min_poly(self):
        # A1 has a degree-3 charpoly but a degree-2 dominant field.
        pd = perron_data(A1)
        col = adjugate_column(A1.int_rows(), charpoly(A1), pd.field.min_poly)
        assert all(len(x) == 2 and all(isinstance(c, int) for c in x) for x in col)
        vec = [pd.field.from_coords(x) for x in col]
        assert all(certified_sign(x) == 1 for x in vec)
        total = sum(vec, pd.field.zero())
        assert tuple(x / total for x in vec) == pd.eigvec


class TestCompanionMatrix:
    def test_is_the_pair_c(self):
        for poly in ([1, -3, 1], [-46, -15, 3, 1], [-2, 1]):
            f = number_field(IntPolynomial(poly))
            assert companion_matrix(f) == multiplication_matrices(f).c
            assert charpoly(companion_matrix(f)) == f.min_poly
