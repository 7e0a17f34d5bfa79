"""Dense homogeneous polynomials, determinants, univariate helpers, and the
bridge to sympy."""
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy

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
from schurlab.polyring import zeros
from schurlab.polyring.univar import univar_mul, univar_rem
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
    # a 4 x 4 grid of ternary linear forms: 15 lattice nodes and a check node
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


def _seeded_grid(k, sizes=(4, 5, 6, 7)):
    """Case k: one of the sizes over Q, Q(sqrt 5), Q(sqrt -1), rows linear or
    quadratic; every fifth grid singular (from size 2), every seventh with a
    zero row."""
    rng = random.Random(k)
    field = (QQ, Field(5), Field(-1))[k % 3]
    n = sizes[(k // 3) % len(sizes)]
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
    # (singular, zero-row) counts of each group of sizes
    for sizes, cases, counts in (((4, 5, 6, 7), 120, (20, 18)),
                                 ((1, 2, 3), 90, (10, 15))):
        singular = zero_row = 0
        for k in range(cases):
            grid = _seeded_grid(k, sizes)
            det = poly_det(grid)
            if any(all(p.is_zero() for p in row) for row in grid):
                assert det.is_zero()
                zero_row += 1
                continue
            ref = reference_poly_det(grid)
            assert det == ref and det.degree == ref.degree, (sizes, k)
            singular += det.is_zero()
        assert (singular, zero_row) == counts, sizes


@pytest.mark.parametrize("size, wrong_call",
                         [pytest.param(4, k, id=str(k)) for k in range(16)]
                         + [pytest.param(3, k, id=f"3x3-{k}") for k in range(11)])
def test_poly_det_wrong_node_value_caught(monkeypatch, size, wrong_call):
    # a linear grid of size n has C(n + 2, 2) lattice nodes and one check
    # node: 15 + 1 for 4 x 4, 10 + 1 for 3 x 3
    x, y, z = vars3()
    grid = [[x + z, y, z, x], [y, x - z, y, z],
            [z, x, y + z, y], [x, z, y, x + y + z]]
    rows = [row[:size] for row in grid[:size]]
    calls = []

    def wrong(mat, s):
        calls.append(1)
        value = integral_det(mat, s)
        return value + 1 if len(calls) == wrong_call + 1 else value

    monkeypatch.setattr(homopoly, "integral_det", wrong)
    with pytest.raises(ClaimError):
        poly_det(rows)
    assert len(calls) == (size + 1) * (size + 2) // 2 + 1


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


def test_univar_rem():
    poly = [QQ.scalar(c) for c in (1, -2, 0, 1)]            # t^3 - 2t + 1
    assert univar_rem(poly, [QQ.scalar(-1), QQ.one]) == []  # t = 1 is a root
    # t^3 - 2t + 1 = t (t^2 + 1) - 3t + 1
    assert univar_rem(poly, [QQ.one, QQ.zero, QQ.one]) == [QQ.one, QQ.scalar(-3)]
    assert univar_rem([QQ.scalar(5)], [QQ.zero, QQ.one]) == [QQ.scalar(5)]


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


def _corrupt_node_gcds(monkeypatch):
    """Every node gcd times (x + 1): a consistent node gcd one degree too
    high, whose interpolant is a form that divides neither input."""
    real_prs = zeros.subresultant_prs

    def too_large(a, b, s):
        last, res = real_prs(a, b, s)
        if len(last) > 1:
            last = [lo + hi for lo, hi in zip(last + [0], [0] + last)]
        return last, res
    monkeypatch.setattr(zeros, "subresultant_prs", too_large)


def _corrupt_interpolants(monkeypatch):
    """Every interpolated coefficient off by its constant term."""
    real_lagrange = zeros.lagrange_coeffs

    def off_by_one(values, offset):
        constant, *rest = real_lagrange(values, offset)
        return [constant + 1] + rest
    monkeypatch.setattr(zeros, "lagrange_coeffs", off_by_one)


@pytest.mark.parametrize("corrupt", [_corrupt_node_gcds, _corrupt_interpolants],
                         ids=["node_gcd", "interpolant"])
def test_wrong_gcd_candidate_is_caught(monkeypatch, corrupt):
    x, y, _ = vars3()
    corrupt(monkeypatch)
    with pytest.raises(ClaimError, match="divides both forms"):
        multivariate_gcd((x + y) * (x * x + y * y), (x + y) * (x - y))


def test_wrong_gcd_candidate_is_caught_without_asserts():
    # python -O strips asserts; the candidate check must still end in ClaimError
    script = (
        "import pytest\n"
        "from test_polyring import _corrupt_interpolants, _corrupt_node_gcds,"
        " test_wrong_gcd_candidate_is_caught\n"
        "for corrupt in (_corrupt_node_gcds, _corrupt_interpolants):\n"
        "    with pytest.MonkeyPatch.context() as mp:\n"
        "        test_wrong_gcd_candidate_is_caught(mp, corrupt)\n")
    tests = Path(__file__).parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)])}
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env, timeout=120)
    assert done.returncode == 0


def test_unlucky_node_gives_the_true_gcd(monkeypatch):
    # the cofactors x2 - x1 + x0 and x2 - x1 + 2 x0 share the root x2 = 1 on
    # the node line x0 = 0, so node 0's gcd has degree 2; node 1's has 1
    x, y, z = vars3()
    h = x + y + z
    f, g = h * (z - y + x), h * (z - y + x.scale(2))
    real_prs = zeros.subresultant_prs
    degrees = []

    def recording(a, b, s):
        last, res = real_prs(a, b, s)
        degrees.append(len(last) - 1)
        return last, res
    monkeypatch.setattr(zeros, "subresultant_prs", recording)
    assert multivariate_gcd(f, g) == h.canonical()
    assert degrees == [2, 1, 1]


def test_coprime_pair_takes_one_prs(monkeypatch):
    x, y, z = vars3()
    calls = []
    real_prs = zeros.subresultant_prs
    monkeypatch.setattr(zeros, "subresultant_prs",
                        lambda a, b, s: calls.append(1) or real_prs(a, b, s))
    assert multivariate_gcd(x * y - z * z, x * x + y * y + z * z) == HomPoly.constant(QQ, 3, 1)
    assert len(calls) == 1


def test_wrong_sympy_factorization_is_caught(monkeypatch):
    real_factor_list = sympy.factor_list

    def off_by_one(*args, **kwargs):
        unit, parts = real_factor_list(*args, **kwargs)
        (base, mult), *rest = parts
        return unit, [(base + 1, mult)] + rest
    monkeypatch.setattr(sympy, "factor_list", off_by_one)
    # t^3 - t over Q goes to sympy as it is
    with pytest.raises(ClaimError, match="re-check"):
        factor_univar(QQ, [QQ.zero, QQ.scalar(-1), QQ.zero, QQ.one])
    # over Q(sqrt 5) sympy factors the norm of (t - sqrt 5)(t^2 + t + 1)
    f5 = Field(5)
    with pytest.raises(ClaimError, match="re-check"):
        factor_univar(f5, univar_mul([-f5.sqrt_gen(), f5.one], [f5.one] * 3))


def test_wrong_factor_of_the_right_degree_is_caught(monkeypatch):
    """A factor list of the right degrees and multiplicities, distinct
    factors, but one wrong coefficient: only the proportionality of the
    integral product to the cleared input catches it."""
    real_factor_list = sympy.factor_list

    def last_off_by_one(*args, **kwargs):
        unit, parts = real_factor_list(*args, **kwargs)
        *rest, (base, mult) = parts
        return unit, rest + [(base + 1, mult)]
    poly = [QQ.scalar(Fraction(c, 3)) for c in (0, -2, 0, 2)]     # 2/3 (t^3 - t)
    assert len(factor_univar(QQ, poly)[1]) == 3
    monkeypatch.setattr(sympy, "factor_list", last_off_by_one)
    with pytest.raises(ClaimError, match="re-check"):
        factor_univar(QQ, poly)


def merge_two(parts):
    (p, m), (q, _), *rest = parts
    return [(p * q, m)] + rest


def drop_one(parts):
    return parts[1:]


def double_one(parts):
    (p, m), *rest = parts
    return [(p, 2 * m)] + rest


def split_one(parts):
    """A part of multiplicity m >= 2 returned as two parts, of multiplicity
    1 and m - 1: the product stays right, the factor list does not."""
    i = next((i for i, (_, m) in enumerate(parts) if m > 1), None)
    if i is None:
        return parts
    p, m = parts[i]
    return parts[:i] + [(p, 1), (p, m - 1)] + parts[i + 1:]


@pytest.mark.parametrize("tamper", [merge_two, drop_one, double_one, split_one])
@pytest.mark.parametrize("field", [QQ, Field(5)], ids=["Q", "Q(sqrt 5)"])
def test_wrong_sympy_squarefree_split_is_caught(monkeypatch, field, tamper):
    """A wrong squarefree decomposition from sympy ends in the right factor
    list or in a ClaimError, never in a wrong list.  Over Q sympy splits
    3 (t - 1)^2 (t^2 + 1)^3 (t + 2) itself; over Q(sqrt 5) it splits the
    norms of (t - sqrt 5)^2 (t^2 + t + 1)^3."""
    if field.is_rational:
        c = field.scalar
        poly = univar_mul([c(6), c(3)], univar_mul([c(-1), c(1)], [c(-1), c(1)]))
        for _ in range(3):
            poly = univar_mul(poly, [c(1), c(0), c(1)])
    else:
        poly = [field.one]
        for fac, mult in [([-field.sqrt_gen(), field.one], 2), ([field.one] * 3, 3)]:
            for _ in range(mult):
                poly = univar_mul(poly, fac)
    expected = factor_univar(field, poly)
    real_sqf_list = sympy.sqf_list

    def tampered(*args, **kwargs):
        unit, parts = real_sqf_list(*args, **kwargs)
        return unit, tamper(parts) if len(parts) > 1 else parts
    monkeypatch.setattr(sympy, "sqf_list", tampered)
    try:
        got = factor_univar(field, poly)
    except ClaimError as exc:
        assert "re-check" in str(exc)
    else:
        assert tamper is not split_one
        assert got == expected


@pytest.mark.parametrize("field", [QQ, Field(-3)], ids=["Q", "Q(sqrt -3)"])
def test_degree_at_most_two_is_closed_form(field, no_sympy_factoring):
    c, one = field.scalar, field.one
    assert factor_univar(field, [c(3)]) == (c(3), [])
    assert factor_univar(field, [c(4), c(2)]) == (c(2), [([c(2), one], 1)])
    # 2 (t - 1)(t - 3)
    assert factor_univar(field, [c(6), c(-8), c(2)]) == (
        c(2), [([c(-1), one], 1), ([c(-3), one], 1)])
    # 3 (t + 2)^2
    assert factor_univar(field, [c(12), c(12), c(3)]) == (c(3), [([c(2), one], 2)])
    # t^2 - 2 is irreducible over both fields
    assert factor_univar(field, [c(-2), field.zero, one]) == (
        one, [([c(-2), field.zero, one], 1)])
    # t^2 + t + 1 = (t - w)(t - w^2), w a cube root of 1, splits only over Q(sqrt -3)
    expected = [([one, one, one], 1)]
    if field.s:
        w = field.scalar(Fraction(-1, 2), Fraction(1, 2))
        expected = [([-w, one], 1), ([-w * w, one], 1)]
    assert factor_univar(field, [one, one, one]) == (one, expected)


def sympy_extension_factors(field, coeffs):
    """sympy's own factorization over Q(sqrt s), called on expressions with
    extension=sqrt(s): monic factors as Scalars, in factor_univar's order."""
    t, root = sympy.Symbol("t"), sympy.sqrt(field.s)
    expr = sum((sympy.Rational(c.a, c.d) + sympy.Rational(c.b, c.d) * root) * t ** i
               for i, c in enumerate(coeffs))
    _, parts = sympy.factor_list(expr, t, extension=root)
    factors = []
    for base, mult in parts:
        fac = []
        for x in reversed(sympy.Poly(base, t, extension=root).monic().all_coeffs()):
            v = sympy.expand(x).coeff(root)
            u = sympy.expand(x - v * root)
            fac.append(field.scalar(Fraction(int(u.p), int(u.q)), Fraction(int(v.p), int(v.q))))
        factors.append((fac, int(mult)))
    return sorted(factors, key=lambda fm: (len(fm[0]), [c.serialize() for c in fm[0]]))


@pytest.mark.parametrize("s", [5, -1, -3, 2])
def test_norm_factoring_matches_sympy_extension_factoring(s):
    """Seeded products of factors of degree 1 to 3: some with rational
    coefficients (the shifted norm), some repeated, some next to their
    conjugate."""
    field = Field(s)
    for seed in range(12):
        rng = random.Random(seed)
        poly = [field.scalar(rng.randint(1, 5))]
        rational = seed % 4 == 0
        while len(poly) < 4:
            fac = [field.scalar(rng.randint(-5, 5), 0 if rational or rng.random() < 0.3
                                else rng.randint(-3, 3)) / rng.randint(1, 3)
                   for _ in range(rng.randint(1, 3))] + [field.one]
            if not rational and rng.random() < 0.3:
                fac = univar_mul(fac, [c.conjugate() for c in fac])
            for _ in range(rng.choice([1, 1, 2, 3])):
                poly = univar_mul(poly, fac)
        unit, factors = factor_univar(field, poly)
        assert unit == poly[-1]
        assert factors == sympy_extension_factors(field, poly), (s, seed)


def sympy_rational_factors(coeffs):
    """sympy's own factorization over QQ of the whole polynomial: monic
    factors as Scalars, in factor_univar's order."""
    poly = sympy.Poly([sympy.Rational(c.a, c.d) for c in reversed(coeffs)], sympy.Symbol("t"))
    factors = [([QQ.scalar(Fraction(int(x.numerator), int(x.denominator)))
                 for x in reversed(base.monic().rep.to_list())], int(mult))
               for base, mult in sympy.factor_list(poly)[1]]
    return sorted(factors, key=lambda fm: (len(fm[0]), [c.serialize() for c in fm[0]]))


def test_rational_factoring_matches_sympy_factoring():
    """Seeded products over Q with multiplicities up to 15: linear factors,
    some repeated, next to cubics and quartics (irreducible or not), with
    rational coefficients and a unit other than 1."""
    for seed in range(12):
        rng = random.Random(seed)
        poly = [QQ.scalar(Fraction(rng.randint(1, 7), rng.randint(1, 3)))]
        for size, mult in [(1, rng.choice([1, 4, 15])), (1, rng.choice([1, 2, 4])),
                           (3, rng.choice([1, 1, 2])), (4, rng.choice([1, 1, 3])),
                           (1, rng.choice([1, 2]))]:
            fac = [QQ.scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
                   for _ in range(size)] + [QQ.one]
            for _ in range(mult):
                poly = univar_mul(poly, fac)
        unit, factors = factor_univar(QQ, poly)
        assert unit == poly[-1]
        assert factors == sympy_rational_factors(poly), seed


def test_lin_forms_matrix_evaluate():
    c0 = Matrix.from_rows(QQ, [[1, 0], [0, 1]])
    c1 = Matrix.from_rows(QQ, [[0, 1], [1, 0]])
    c2 = Matrix(QQ, [[0, 0], [0, 0]])
    lfm = LinFormsMatrix.from_coefficient_matrices([c0, c1, c2])
    at = lfm.evaluate((2, 3, 5))
    assert at.serialize() == Matrix.from_rows(QQ, [[2, 3], [3, 2]]).serialize()


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
