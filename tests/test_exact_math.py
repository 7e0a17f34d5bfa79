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
