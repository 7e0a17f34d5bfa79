"""Exact scalars, matrices, symmetric forms, and projective subspaces."""
import random
from fractions import Fraction

import pytest

from schurlab.errors import PreconditionError
from schurlab.exact_math import (Field, Matrix, ProjSubspace, QQ, SymForm,
                                 vec_canonical)
from schurlab.polyring import LinFormsMatrix


def test_rational_arithmetic():
    a = QQ.scalar(Fraction(3, 4))
    b = QQ.scalar(Fraction(-1, 6))
    assert (a + b).serialize() == "7/12"
    assert (a * b).serialize() == "-1/8"
    assert (a / b).serialize() == "-9/2"
    assert (a - a).is_zero()
    assert a.inverse().serialize() == "4/3"


def test_quadratic_arithmetic():
    f = Field(5)
    phi = f.scalar(Fraction(1, 2), Fraction(1, 2))
    # golden ratio: phi^2 = phi + 1
    assert phi * phi == phi + f.one
    assert phi.conjugate() + phi == f.one
    assert (phi * phi.conjugate()).serialize() == "[-1/1, 0/1]"
    assert phi.norm() == Fraction(-1)
    assert (phi * phi.inverse()) == f.one


def test_square_roots_inside_the_field():
    f = Field(5)
    root = f.scalar(5).sqrt()
    assert root is not None and root * root == f.scalar(5)
    assert f.scalar(2).sqrt() is None
    assert QQ.scalar(Fraction(9, 4)).sqrt().serialize() == "3/2"
    assert QQ.scalar(2).sqrt() is None


def test_field_declarations_validated():
    with pytest.raises(PreconditionError):
        Field(12)
    with pytest.raises(PreconditionError):
        Field(1)
    with pytest.raises(PreconditionError):
        QQ.scalar(1) + Field(5).scalar(1)


def test_parse_round_trip():
    samples = [QQ.scalar(Fraction(-7, 3)), QQ.zero, QQ.scalar(11)]
    for x in samples:
        assert QQ.parse(x.serialize()) == x
    f = Field(-1)
    for x in [f.scalar(Fraction(1, 2), Fraction(-3, 5)), f.zero, f.sqrt_gen()]:
        assert f.parse(x.serialize()) == x


def test_oversized_literals_rejected():
    # Fraction() would build 10^e in full for "1e<e>", and no str() of an
    # integer above 4300 digits is allowed, so neither could be written back
    assert QQ.parse("1e4299").serialize() == "1" + "0" * 4299 + "/1"
    assert QQ.parse("-3e-4299").serialize() == "-3/1" + "0" * 4299
    for text in ["1e4301", "1e-100000", "1e4300", "9" * 4301, "1/" + "7" * 4301,
                 "[1/2, 5e99999]"]:
        with pytest.raises(PreconditionError):
            Field(5).parse(text)


def test_serialize_past_digit_limit_is_a_precondition():
    # computed values are not bounded like literals: squares of 2201-digit
    # numbers have 4401 digits, which str() of an integer refuses
    f = Field(5)
    for big in [QQ.scalar(10 ** 2200) ** 2, f.scalar(1, 10 ** 2200) ** 2]:
        with pytest.raises(PreconditionError, match="MAX_LITERAL_DIGITS"):
            big.serialize()


def test_matrix_rank_det_kernel():
    m = Matrix.from_rows(QQ, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert m.rank() == 2
    assert m.det().is_zero()
    kern = m.kernel_basis()
    assert len(kern) == 1
    assert vec_canonical(kern[0]) == tuple(QQ.scalar(c) for c in (1, -2, 1))
    for v in kern:
        assert all(c.is_zero() for c in m.apply(v))


def test_matrix_inverse_and_solve():
    m = Matrix.from_rows(QQ, [[2, 1], [1, 1]])
    inv = m.inverse()
    assert (m * inv).serialize() == Matrix.identity(QQ, 2).serialize()
    sol = m.solve([QQ.scalar(3), QQ.scalar(2)])
    assert sol == (QQ.one, QQ.one)
    singular = Matrix.from_rows(QQ, [[1, 1], [1, 1]])
    assert singular.solve([QQ.scalar(0), QQ.scalar(1)]) is None


def test_signed_maximal_minors_left_kernel():
    # the grid x*A + y*B + z*C of linear forms, with A = [[1, 2], [3, 4], [5, 6]]
    grid = LinFormsMatrix.from_coefficient_matrices([Matrix.from_rows(QQ, rows) for rows in (
        [[1, 2], [3, 4], [5, 6]], [[0, 1], [1, 0], [2, -1]], [[1, 1], [0, 3], [-2, 1]])])
    s = grid.signed_maximal_minors()
    assert [p.evaluate((1, 0, 0)).serialize() for p in s] == ["-2/1", "4/1", "-2/1"]
    rng = random.Random(7)
    for point in [(1, 0, 0)] + [tuple(rng.randint(-9, 9) for _ in range(3))
                                for _ in range(5)]:
        values = [p.evaluate(point) for p in s]
        assert all(c.is_zero() for c in grid.evaluate(point).apply_left(values))


def test_symform_apply_and_inverse():
    b = SymForm.from_rows(QQ, [[2, 1], [1, 1]])
    u = (QQ.scalar(1), QQ.scalar(2))
    v = (QQ.scalar(3), QQ.scalar(-1))
    # bilinear value u^T B v
    assert b.apply(u, v).serialize() == "9/1"
    assert b.apply(u, v) == b.apply(v, u)
    assert b.is_nondegenerate()
    prod = b.matrix * b.inverse().matrix
    assert prod.serialize() == Matrix.identity(QQ, 2).serialize()
    assert b.canonical().canonical().serialize() == b.canonical().serialize()


def test_subspace_join_meet_dimensions():
    p = ProjSubspace.from_point(QQ, (1, 0, 0, 0))
    q = ProjSubspace.from_point(QQ, (0, 1, 0, 0))
    line = p.join(q)
    assert line.dim == 1
    plane1 = ProjSubspace.from_equations(QQ, 3, [(0, 0, 1, 0)])
    plane2 = ProjSubspace.from_equations(QQ, 3, [(0, 0, 0, 1)])
    assert plane1.dim == 2
    meet = plane1.meet(plane2)
    assert meet.dim == 1
    assert meet == line
    assert line.incident(p)
    assert not line.contains_vector((0, 0, 1, 0))


def test_subspace_annihilator():
    line = ProjSubspace(QQ, 3, [(1, 0, 0, 0), (0, 1, 0, 0)])
    ann = line.annihilator_basis()
    assert len(ann) == 2
    for xi in ann:
        for v in line.basis:
            total = QQ.zero
            for a, b in zip(xi, v):
                total = total + a * b
            assert total.is_zero()


def test_polar_with_identity_form():
    form = SymForm.from_rows(QQ, [[1, 0, 0, 0], [0, 1, 0, 0],
                                  [0, 0, 1, 0], [0, 0, 0, 1]])
    p = ProjSubspace.from_point(QQ, (1, 0, 0, 0))
    polar = p.polar(form)
    assert polar.dim == 2
    assert polar == ProjSubspace.from_equations(QQ, 3, [(1, 0, 0, 0)])
    assert polar.polar(form) == p


def test_empty_subspace():
    e = ProjSubspace.empty(QQ, 3)
    assert e.is_empty() and e.dim == -1
    p = ProjSubspace.from_point(QQ, (1, 1, 0, 0))
    assert e.join(p) == p
    assert p.meet(ProjSubspace.from_point(QQ, (0, 0, 1, 1))).is_empty()


def test_vec_canonical_scaling():
    v = tuple(QQ.scalar(c) for c in (0, 3, 6))
    assert vec_canonical(v) == tuple(QQ.scalar(Fraction(c, 3)) for c in (0, 3, 6))


# The reference the certified core is compared with: plain Gauss-Jordan and
# Gaussian elimination over the field's own arithmetic, first-nonzero pivoting.
def reference_rref(m: Matrix):
    work = [list(r) for r in m.data]
    pivots = []
    prow = 0
    for col in range(m.cols):
        if prow >= m.rows:
            break
        sel = next((r for r in range(prow, m.rows) if not work[r][col].is_zero()), None)
        if sel is None:
            continue
        work[prow], work[sel] = work[sel], work[prow]
        inv = work[prow][col].inverse()
        work[prow] = [inv * x for x in work[prow]]
        for r in range(m.rows):
            if r != prow and not work[r][col].is_zero():
                c = work[r][col]
                work[r] = [x - c * y for x, y in zip(work[r], work[prow])]
        pivots.append(col)
        prow += 1
    return Matrix(m.field, work), tuple(pivots)


def reference_det(m: Matrix):
    work = [list(r) for r in m.data]
    det = m.field.one
    for col in range(m.rows):
        sel = next((r for r in range(col, m.rows) if not work[r][col].is_zero()), None)
        if sel is None:
            return m.field.zero
        if sel != col:
            work[col], work[sel] = work[sel], work[col]
            det = -det
        piv = work[col][col]
        det = det * piv
        for r in range(col + 1, m.rows):
            c = work[r][col] / piv
            work[r] = [x - c * y for x, y in zip(work[r], work[col])]
    return det


def reference_kernel(m: Matrix, R, pivots):
    out = []
    for j in (j for j in range(m.cols) if j not in pivots):
        v = [m.field.zero] * m.cols
        v[j] = m.field.one
        for i, pc in enumerate(pivots):
            v[pc] = -R[i, j]
        out.append(tuple(v))
    return out


def reference_solve(m: Matrix, b):
    R, pivots = reference_rref(Matrix(m.field, [list(r) + [x] for r, x in zip(m.data, b)]))
    if m.cols in pivots:
        return None
    x = [m.field.zero] * m.cols
    for i, pc in enumerate(pivots):
        x[pc] = R[i, m.cols]
    return tuple(x)


def reference_inverse(m: Matrix):
    eye = Matrix.identity(m.field, m.rows).data
    R, pivots = reference_rref(Matrix(m.field, [r + e for r, e in zip(m.data, eye)]))
    if pivots[:m.rows] != tuple(range(m.rows)):
        return None
    return Matrix(m.field, [row[m.rows:] for row in R.data])


def elimination_mismatches(m: Matrix, b=None) -> list[str]:
    """Names of the operations on m whose answer differs from the reference."""
    bad = []
    R, pivots = reference_rref(m)
    if m.rref() != (R, pivots):
        bad.append("rref")
    if m.rank() != len(pivots):
        bad.append("rank")
    if m.kernel_basis() != reference_kernel(m, R, pivots):
        bad.append("kernel_basis")
    if b is not None and m.solve(b) != reference_solve(m, b):
        bad.append("solve")
    if m.rows == m.cols:
        if m.det() != reference_det(m):
            bad.append("det")
        expected = reference_inverse(m)
        try:
            got = m.inverse()
        except PreconditionError:
            got = None
        if got != expected:
            bad.append("inverse")
    return bad


P61 = 2 ** 61 - 1


@pytest.mark.parametrize("rows", [
    [], [[], []], [[0, 0], [0, 0]], [[P61]], [[P61, 1]], [[P61, 1], [1, 0]],
    [[3 * P61, 6 * P61], [P61, 5 * P61]],
    # rank 2 both ways, but the pivots are (0, 2) modulo 2^61 - 1 and (0, 1) over Q
    [[1, 1, 0], [1, 1 + P61, 1]],
    [[Fraction(1, P61), 1, 0], [0, Fraction(P61, 7), P61 * (P61 - 2)]],
], ids=["empty", "no-columns", "zero", "p", "p-1", "p-1-square", "multiples-of-p",
        "later-pivot-mod-p", "large-entries"])
def test_core_agrees_with_reference_where_the_first_prime_misleads(rows):
    m = Matrix.from_rows(QQ, rows)
    assert elimination_mismatches(m, [QQ.scalar(k + 1) for k in range(m.rows)]) == []


def test_reductions_of_sqrt_s_that_disagree_are_dropped():
    # r - sqrt(5) vanishes under sqrt(5) -> r modulo the first prime but not
    # under sqrt(5) -> -r, so that prime gives two pivot sets
    f = Field(5)
    p, r = f.prime(0)
    x = f.scalar(r, -1)
    m = Matrix.from_rows(f, [[x, 1], [x * x, x]])
    assert m.rref()[1] == (0,)
    assert elimination_mismatches(m, [f.one, f.one]) == []
    assert elimination_mismatches(Matrix.from_rows(f, [[x, 1], [1, x]]), [f.one, x]) == []


def test_wrong_reconstruction_is_never_returned(monkeypatch):
    from schurlab.errors import ClaimError
    from schurlab.exact_math import matrices
    honest = matrices._reconstruct
    calls = []

    def off_by_one(residues, modulus):
        calls.append(modulus)
        got = honest(residues, modulus)
        return None if got is None else [(n + d, d) for n, d in got]

    monkeypatch.setattr(matrices, "_reconstruct", off_by_one)
    for field in (QQ, Field(-1)):
        with pytest.raises(ClaimError):
            Matrix.from_rows(field, [[1, 2, 3], [4, 5, 6]]).rref()
    assert len(calls) > 2

    def wrong_once(residues, modulus):
        got = honest(residues, modulus)
        if not calls:
            calls.append(modulus)
            return None if got is None else [(n + d, d) for n, d in got]
        return got

    calls.clear()
    monkeypatch.setattr(matrices, "_reconstruct", wrong_once)
    m = Matrix.from_rows(Field(-3), [[1, 2, 3], [4, 5, 6]])
    assert calls == [] and m.rref() == reference_rref(m) and calls


def test_inexact_fraction_free_division_raises():
    from schurlab.errors import ClaimError
    from schurlab.exact_math.matrices import _exact_quotient
    assert _exact_quotient(-12, 4, None) == -3
    assert _exact_quotient((4, 0), (1, 1), 5) == (-1, 1)  # 4 = (1+r5)(-1+r5)
    with pytest.raises(ClaimError):
        _exact_quotient(7, 2, None)
    with pytest.raises(ClaimError):
        _exact_quotient((1, 0), (1, 1), 5)
