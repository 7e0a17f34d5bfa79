"""Dense homogeneous polynomials, determinants, univariate helpers, and the
bridge to sympy."""
from fractions import Fraction

import pytest
import sympy
from sympy.polys.rings import PolyElement

from schurlab.errors import ClaimError, PreconditionError
from schurlab.exact_math import Field, Matrix, QQ
from schurlab.polyring import (HomPoly, LinFormsMatrix, exact_div,
                               factor_univar, monomials, multivariate_gcd,
                               poly_det, roots_with_multiplicity,
                               try_exact_div)
from schurlab.polyring.univar import from_domain, to_domain


def vars3(field=QQ):
    return [HomPoly.variable(field, 3, i) for i in range(3)]


def test_monomials_order_and_count():
    ms = monomials(3, 2)
    assert len(ms) == 6
    assert ms[0] == (2, 0, 0) and ms[-1] == (0, 0, 2)
    # strictly descending lex
    assert all(ms[i] > ms[i + 1] for i in range(len(ms) - 1))


def test_product_difference_of_squares():
    x, y, _ = vars3()
    assert (x + y) * (x - y) == x * x - y * y


def test_substitute_linear_change():
    x, y, _ = vars3()
    f = x * x + y * y
    u, v, _ = vars3()
    g = f.substitute([u + v, u - v, HomPoly.zero(QQ, 3, 1)])
    assert g == (u * u + v * v).scale(2)


def test_evaluate_and_leading():
    x, y, z = vars3()
    f = x * y * z + z * z * z
    assert f.evaluate((1, 2, 3)).serialize() == "33/1"
    exp, coeff = f.leading()
    assert exp == (1, 1, 1) and coeff == QQ.one


def test_poly_det_matches_hand_expansion():
    x, y, z = vars3()
    zero = HomPoly.zero(QQ, 3, 1)
    det = poly_det([[x, y, zero], [zero, x, y], [y, zero, x]])
    assert det == x * x * x + y * y * y


def test_poly_det_interpolation_route():
    # 4 x 4 forces the evaluate-and-interpolate path
    x, y, z = vars3()
    zero = HomPoly.zero(QQ, 3, 1)
    rows = [[x, y, zero, zero],
            [zero, x, y, zero],
            [zero, zero, x, y],
            [y, zero, zero, x]]
    det = poly_det(rows)
    assert det == x ** 4 - y ** 4


def test_exact_division():
    x, y, _ = vars3()
    num = x * x - y * y
    assert exact_div(num, x + y) == x - y
    assert try_exact_div(num, x + y + y) is None


def test_proportional_and_canonical():
    x, y, _ = vars3()
    f = (x + y).scale(Fraction(3, 7))
    assert f.proportional(x + y)
    assert f.canonical() == (x + y)
    assert not f.proportional(x - y)


def test_factor_univar_splits_over_extension():
    f5 = Field(5)
    # t^2 - 5 = (t - sqrt5)(t + sqrt5)
    poly = [f5.scalar(-5), f5.zero, f5.one]
    _unit, factors = factor_univar(f5, poly)
    assert len(factors) == 2 and all(len(fac) == 2 for fac, _ in factors)
    root = f5.sqrt_gen()
    roots, unresolved = roots_with_multiplicity(f5, poly)
    assert not unresolved
    assert sorted(r.serialize() for r, _ in roots) == sorted(
        [root.serialize(), (-root).serialize()])
    # t^2 - 2 stays irreducible over this field
    _u, hard = factor_univar(f5, [f5.scalar(-2), f5.zero, f5.one])
    assert [len(fac) for fac, _ in hard] == [3]


def test_roots_with_multiplicity():
    # (t - 1)^2 (t + 2)
    poly = [QQ.scalar(c) for c in (2, -3, 0, 1)]
    roots, unresolved = roots_with_multiplicity(QQ, poly)
    assert not unresolved
    assert dict((r.serialize(), m) for r, m in roots) == {"1/1": 2, "-2/1": 1}


def test_multivariate_gcd():
    x, y, _ = vars3()
    a = (x + y) * (x * x + y * y)
    b = (x + y) * (x - y)
    g = multivariate_gcd(a, b)
    assert g.proportional(x + y)


def test_multivariate_gcd_over_extension():
    f5 = Field(5)
    x, y, z = vars3(f5)
    common = x + y.scale(f5.sqrt_gen()) + z.scale(f5.scalar(2, -1))
    a = common * (x * x - z * y.scale(f5.sqrt_gen()))
    b = common * (x + y) * (y - z)
    assert multivariate_gcd(a, b) == common.canonical()


def test_factor_univar_over_sqrt_minus_three():
    f3 = Field(-3)
    # t^2 + 3 = (t - sqrt(-3))(t + sqrt(-3)); t^2 - 2 stays irreducible
    unit, split = factor_univar(f3, [f3.scalar(6), f3.zero, f3.scalar(2)])
    assert unit == 2
    assert split == [([f3.scalar(0, -1), f3.one], 1), ([f3.scalar(0, 1), f3.one], 1)]
    _unit, hard = factor_univar(f3, [f3.scalar(-2), f3.zero, f3.one])
    assert hard == [([f3.scalar(-2), f3.zero, f3.one], 1)]


def test_wrong_sympy_gcd_is_caught(monkeypatch):
    x, y, _ = vars3()
    real_gcd = PolyElement.gcd
    # a homogeneous candidate one degree too high
    monkeypatch.setattr(PolyElement, "gcd",
                        lambda f, g: real_gcd(f, g) * f.ring.gens[0])
    with pytest.raises(ClaimError, match="does not divide"):
        multivariate_gcd((x + y) * (x * x + y * y), (x + y) * (x - y))


def test_wrong_sympy_factorization_is_caught(monkeypatch):
    real_factor_list = sympy.factor_list

    def off_by_one(*args, **kwargs):
        unit, parts = real_factor_list(*args, **kwargs)
        (base, mult), *rest = parts
        return unit, [(base + 1, mult)] + rest
    monkeypatch.setattr(sympy, "factor_list", off_by_one)
    with pytest.raises(ClaimError, match="re-check"):
        factor_univar(QQ, [QQ.scalar(-1), QQ.zero, QQ.one])


def test_lin_forms_matrix_evaluate():
    c0 = Matrix.from_rows(QQ, [[1, 0], [0, 1]])
    c1 = Matrix.from_rows(QQ, [[0, 1], [1, 0]])
    c2 = Matrix.zero(QQ, 2, 2)
    lfm = LinFormsMatrix.from_coefficient_matrices([c0, c1, c2])
    at = lfm.evaluate((2, 3, 5))
    assert at.serialize() == Matrix.from_rows(QQ, [[2, 3], [3, 2]]).serialize()
    assert lfm.coefficient_matrix(1).serialize() == c1.serialize()


def test_coefficient_vector_round_trip():
    x, y, z = vars3()
    f = x * y + z * z
    vec = f.coefficient_vector()
    back = HomPoly.from_coefficient_vector(QQ, 3, 2, vec)
    assert back == f


def test_degree_mismatch_rejected():
    x, y, _ = vars3()
    with pytest.raises(PreconditionError):
        x + x * y
