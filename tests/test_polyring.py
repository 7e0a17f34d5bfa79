"""Dense homogeneous polynomials, determinants, univariate helpers, and the
bridge to sympy."""
from fractions import Fraction

import pytest
import sympy
from sympy.polys.rings import PolyElement

import random

from schurlab.errors import ClaimError, PreconditionError
from schurlab.exact_math import Field, Matrix, QQ
from schurlab.exact_math.matrices import (clear_denominators, from_integral,
                                          integral_det)
from schurlab.polyring import (HomPoly, LinFormsMatrix, exact_div,
                               factor_univar, monomials, multivariate_gcd,
                               poly_det, roots_with_multiplicity,
                               try_exact_div)
from schurlab.polyring import homopoly
from schurlab.polyring.univar import from_domain, to_domain
from test_integral_kernels import reference_lagrange_coeffs, reference_nodes


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


def reference_poly_det(grid) -> HomPoly:
    """The full-grid interpolated determinant: integral Bareiss values on the
    (deg + 1)^2 grid of nodes 0, 1, -1, 2, -2, ..., then one univariate
    Lagrange solve per x1 node and one per power of x0."""
    field = grid[0][0].field
    deg = sum(next(p.degree for p in row if not p.is_zero()) for row in grid)
    m = deg + 1
    xs = reference_nodes(field, m)
    nodes = [int(x.a) for x in xs]
    scale = 1
    tables = []
    for row in grid:
        mult, ints = clear_denominators(field, [c for p in row for c in p.coeffs.values()])
        scale *= mult
        cleared = iter(ints)
        tables.append([[(e[0], e[1], next(cleared)) for e in p.coeffs] for p in row])
    s = field.s

    def value(table, a, b):
        if s is None:
            return sum(c * a ** i * b ** j for i, j, c in table)
        return (sum(c[0] * a ** i * b ** j for i, j, c in table),
                sum(c[1] * a ** i * b ** j for i, j, c in table))

    per_x1 = []
    for b in nodes:
        col = [from_integral(field, integral_det([[value(t, a, b) for t in row]
                                                  for row in tables], s), scale)
               for a in nodes]
        per_x1.append(reference_lagrange_coeffs(field, xs, col))
    coeffs = {}
    for i in range(m):
        ci = reference_lagrange_coeffs(field, xs, [per_x1[j][i] for j in range(m)])
        for j, c in enumerate(ci):
            if not c.is_zero():
                assert i + j <= deg
                coeffs[(i, j, deg - i - j)] = c
    return HomPoly(field, 3, deg, coeffs)


def _random_form(rng, field, degree):
    coeffs = {}
    for e in monomials(3, degree):
        if rng.random() < 0.6:
            b = rng.randint(-2, 2) if field.s is not None else 0
            coeffs[e] = field.scalar(rng.randint(-4, 4), b) / rng.choice([1, 1, 2, 3])
    return HomPoly(field, 3, degree, coeffs)


def _seeded_grid(k):
    """Case k of 120: size 4-7 over Q, Q(sqrt 5), Q(sqrt -1), rows linear or
    quadratic; every fifth grid singular, every seventh with a zero row."""
    rng = random.Random(k)
    field = (QQ, Field(5), Field(-1))[k % 3]
    n = 4 + (k // 3) % 4
    degrees = [rng.choice([1, 1, 2]) for _ in range(n)]
    grid = [[_random_form(rng, field, d) for _ in range(n)] for d in degrees]
    if k % 5 == 0:
        # last row = a linear form times a linear row, plus a multiple of row 0
        lin = next((r for r in range(n - 1) if degrees[r] == 1), None)
        if lin is None:
            degrees[0] = 1
            grid[0] = [_random_form(rng, field, 1) for _ in range(n)]
            lin = 0
        factor = HomPoly.linear_form(field, [1, rng.randint(-3, 3), 2])
        grid[-1] = [factor * p for p in grid[lin]]
        if degrees[0] == 2:
            grid[-1] = [p + q.scale(3) for p, q in zip(grid[-1], grid[0])]
    if k % 7 == 0:
        grid[rng.randrange(n)] = [HomPoly.zero(field, 3, 1) for _ in range(n)]
    return grid


def test_lattice_poly_det_matches_full_grid_reference():
    singular = zero_row = 0
    for k in range(120):
        grid = _seeded_grid(k)
        det = poly_det(grid)
        if any(all(p.is_zero() for p in row) for row in grid):
            assert det.is_zero()
            zero_row += 1
            continue
        ref = reference_poly_det(grid)
        assert det == ref and det.degree == ref.degree, k
        singular += det.is_zero()
    assert (singular, zero_row) == (20, 18)


@pytest.mark.parametrize("wrong_call", range(16))
def test_poly_det_wrong_node_value_caught(monkeypatch, wrong_call):
    # a 4 x 4 linear grid has 15 lattice nodes and one check node
    x, y, z = vars3()
    rows = [[x + z, y, z, x], [y, x - z, y, z],
            [z, x, y + z, y], [x, z, y, x + y + z]]
    calls = []

    def wrong(mat, s):
        calls.append(1)
        value = integral_det(mat, s)
        return value + 1 if len(calls) == wrong_call + 1 else value

    monkeypatch.setattr(homopoly, "integral_det", wrong)
    with pytest.raises(ClaimError):
        poly_det(rows)
    assert len(calls) == 16


def test_poly_det_rejects_row_of_mixed_degrees():
    x, y, z = vars3()
    for size in (3, 4):
        rows = [[x if i == j else y for j in range(size)] for i in range(size)]
        rows[1][0] = x * y
        with pytest.raises(PreconditionError):
            poly_det(rows)


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
