"""The integral kernels against the Scalar loops they replaced.

HomPoly.evaluate and substitute, the pencil tables of zeros (one sheared
form cleared once, restricted at integer nodes and at field points), the
pair eliminant of solve_pair (a subresultant PRS per node), its
interpolation by lagrange_coeffs (integer forward differences on
consecutive nodes, the kernel poly_det and the signed maximal minors use on
each lattice row), univar_gcd and Matrix.__mul__ clear denominators once
and work in Z or Z[sqrt(s)].  The reference_* functions below are the Scalar-by-Scalar
implementations they replaced, kept here as the definition of the result;
each kernel must give equal canonical Scalars over Q, Q(sqrt 5),
Q(sqrt -1) and Q(sqrt -3), on zero and degree-0 forms, zero targets,
points with zero coordinates and denominators up to 10^12.
"""
import random

import pytest
import sympy

from schurlab.errors import ClaimError, PreconditionError
from schurlab.exact_math import Field, Matrix, QQ, vec_dot
from schurlab.exact_math.matrices import clear_denominators, from_integral, integral_ring
from schurlab.hulek_monad import MonadData
from schurlab.logbundle import _contraction_maps, _derivative_table, build_logbundle
from schurlab.polyring import (HomPoly, LinFormsMatrix, degree, factor_univar, monic,
                               monomials, multivariate_gcd, poly_det, solve_pair, trim,
                               univar_gcd)
from schurlab.polyring import homopoly, zeros
from schurlab.polyring.univar import subresultant_prs, univar_mul, univar_rem
from schurlab.polyring.zeros import _at_node, _at_point, _find_shear, _pencil_table
from test_logbundle import quadratic_field_bundle

FIELDS = [QQ, Field(5), Field(-1), Field(-3)]
CASES = 40


def reference_evaluate(poly, point):
    point = [poly.field.coerce(x) for x in point]
    total = poly.field.zero
    for exp, c in poly.coeffs.items():
        term = c
        for x, e in zip(point, exp):
            if e:
                term = term * (x ** e)
        total = total + term
    return total


def reference_restrict_univar(poly, values, free):
    vals = [None if i == free else poly.field.coerce(v) for i, v in enumerate(values)]
    out = [poly.field.zero] * (poly.degree + 1)
    for exp, c in poly.coeffs.items():
        term = c
        for i, e in enumerate(exp):
            if i != free and e:
                term = term * (vals[i] ** e)
        out[exp[free]] = out[exp[free]] + term
    return out


def reference_substitute(poly, targets):
    f, nv, e = targets[0].field, targets[0].nvars, targets[0].degree
    out = HomPoly.zero(f, nv, poly.degree * e)
    for exp, c in poly.coeffs.items():
        term = HomPoly.constant(f, nv, c)
        for i, p in enumerate(exp):
            if p:
                term = term * targets[i] ** p
        out = out + term
    return out


def reference_shear(poly, shear):
    """poly(x0 + c x2, x1 + c' x2, x2) for the shear (c, c')."""
    x, y, z = (HomPoly.variable(poly.field, 3, i) for i in range(3))
    c, cp = shear
    return reference_substitute(poly, [x + z.scale(c), y + z.scale(cp), z])


def reference_sylvester_det(field, a, b):
    m, n = len(a) - 1, len(b) - 1
    size = m + n
    if size == 0:
        return field.one
    rows = []
    for coeffs, count in ((a, n), (b, m)):
        for i in range(count):
            row = [field.zero] * size
            for j, c in enumerate(reversed(coeffs)):
                row[i + j] = c
            rows.append(row)
    return Matrix(field, rows).det()


def reference_product(left, right):
    cols = [right.col(j) for j in range(right.cols)]
    return Matrix(left.field, [[vec_dot(r, c) for c in cols]
                               for r in left.data])


def reference_lagrange_coeffs(field, xs, ys):
    """Coefficients (ascending) of the unique poly of degree < len(xs) through
    the data: Newton divided differences, then Horner's rule in the nested
    form c0 + (x - x0)(c1 + (x - x1)(c2 + ...)).  O(n^2) field operations."""
    xs = [field.coerce(x) for x in xs]
    if len(set(xs)) != len(xs):
        raise PreconditionError("interpolation nodes must be distinct")
    newton = [field.coerce(y) for y in ys]
    n = len(newton)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            newton[i] = (newton[i] - newton[i - 1]) / (xs[i] - xs[i - j])
    out = []
    for k in range(n - 1, -1, -1):
        # out <- out * (x - xs[k]) + newton[k]
        shifted = [field.zero] + out
        for d, c in enumerate(out):
            shifted[d] = shifted[d] - xs[k] * c
        shifted[0] = shifted[0] + newton[k]
        out = shifted
    return out


def reference_nodes(field, count):
    """0, 1, -1, 2, -2, ... (count of them)."""
    return [field.scalar((k + 1) // 2 * (1 if k % 2 else -1)) for k in range(count)]


def rand_scalar(rng, field, zero_share=0.2):
    """Zero, a small fraction, or one with numerator and denominator up to 10^12."""
    if rng.random() < zero_share:
        return field.zero
    bound = rng.choice([3, 3, 10 ** 12])
    den = rng.randint(1, bound)
    u = field.scalar(rng.randint(-bound, bound)) / den
    if field.s is None or rng.random() < 0.3:
        return u
    return u + field.scalar(0, rng.randint(-bound, bound)) / rng.randint(1, bound)


def rand_form(rng, field, nvars, degree, density=0.6):
    return HomPoly(field, nvars, degree, {e: rand_scalar(rng, field, 0)
                                          for e in monomials(nvars, degree)
                                          if rng.random() < density})


def cases():
    for k in range(CASES):
        rng = random.Random(k)
        yield k, rng, FIELDS[k % len(FIELDS)]


def test_integral_ring_matches_scalar_arithmetic():
    for k, rng, field in cases():
        ring = integral_ring(field.s)
        xs = [rand_scalar(rng, field) for _ in range(6)]
        ys = [rand_scalar(rng, field) for _ in range(6)]
        ks = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(6)]
        mx, ix = clear_denominators(field, xs)
        my, iy = clear_denominators(field, ys)
        over = mx * my

        def back(value, den):
            return from_integral(field, value, den)

        assert back(ring.dot(ix, iy), over) == sum((x * y for x, y in zip(xs, ys)), field.zero), k
        assert back(ring.combine(ix, ks), mx) == sum((x * c for x, c in zip(xs, ks)), field.zero), k
        assert back(ring.mul(ix[0], iy[0]), over) == xs[0] * ys[0], k
        assert back(ring.add(ix[1], ix[2]), mx) == xs[1] + xs[2], k
        assert back(ring.sub(ix[1], ix[2]), mx) == xs[1] - xs[2], k
        assert back(ring.embed(ks[0]), 1) == field.scalar(ks[0]), k
        assert back(ring.zero, 1).is_zero() and back(ring.one, 1) == field.one


def test_evaluate_matches_scalar_reference():
    for k, rng, field in cases():
        nvars = 2 + k % 3
        for degree in range(5):
            poly = rand_form(rng, field, nvars, degree)
            point = [rand_scalar(rng, field, 0.3) for _ in range(nvars)]
            assert poly.evaluate(point) == reference_evaluate(poly, point), (k, degree)
        zero = HomPoly.zero(field, nvars, 3)
        assert zero.evaluate([field.one] * nvars).is_zero()
        assert reference_evaluate(zero, [field.one] * nvars).is_zero()
        origin = [field.zero] * nvars
        const = HomPoly.constant(field, nvars, rand_scalar(rng, field, 0))
        assert const.evaluate(origin) == reference_evaluate(const, origin), k
        assert rand_form(rng, field, nvars, 2).evaluate(origin).is_zero()


def test_pencil_restrictions_match_scalar_reference():
    # the pencil table of a form, restricted at integer nodes (t, 1), at
    # field points (a, b) and at (1, 0), against the restriction of the
    # sheared form to the line over that point
    for k, rng, field in cases():
        ring = integral_ring(field.s)
        for degree in range(5):
            poly = rand_form(rng, field, 3, degree)
            shear = (rng.randint(-2, 2), rng.randint(-2, 2))
            sheared = reference_shear(poly, shear)
            den, rows = _pencil_table(poly, shear)
            assert len(rows) == degree + 1
            assert from_integral(field, rows[-1][0], den) == poly.evaluate((*shear, 1)), k
            for t in range(-3, 4):
                got = [from_integral(field, x, den) for x in _at_node(ring, rows, t)]
                assert got == reference_restrict_univar(sheared, (t, 1, None), 2), (k, t)
            points = [(rand_scalar(rng, field, 0.3), field.one),
                      (rand_scalar(rng, field, 0.3), rand_scalar(rng, field, 0)),
                      (field.one, field.zero)]
            for point in points:
                pden = clear_denominators(field, point)[0]
                got = [from_integral(field, x, den * pden ** degree)
                       for x in _at_point(field, rows, point)]
                assert got == reference_restrict_univar(sheared, (*point, None), 2), (k, point)
        zero = HomPoly.zero(field, 3, 2)
        assert _at_node(ring, _pencil_table(zero, (1, 1))[1], 2) == [ring.zero] * 3


def test_substitute_matches_scalar_reference():
    for k, rng, field in cases():
        nvars = 2 + k % 3
        target_vars = 2 + (k // 3) % 3
        for degree in range(4):
            poly = rand_form(rng, field, nvars, degree)
            e = rng.choice([0, 1, 1, 2])
            targets = [rand_form(rng, field, target_vars, e) for _ in range(nvars)]
            if rng.random() < 0.4:
                targets[rng.randrange(nvars)] = HomPoly.zero(field, target_vars, e)
            got = poly.substitute(targets)
            ref = reference_substitute(poly, targets)
            assert got == ref and got.degree == degree * e, (k, degree)
        zero = HomPoly.zero(field, nvars, 2)
        targets = [rand_form(rng, field, 3, 1) for _ in range(nvars)]
        assert zero.substitute(targets).is_zero()
        assert zero.substitute(targets).degree == 2
        all_zero = [HomPoly.zero(field, 3, 1)] * nvars
        poly = rand_form(rng, field, nvars, 2, 1.0)
        assert poly.substitute(all_zero) == reference_substitute(poly, all_zero)
        assert poly.substitute(all_zero).is_zero()


def test_matrix_product_matches_scalar_reference():
    shapes = [(1, 1, 1), (1, 4, 1), (4, 1, 3), (3, 5, 2), (2, 3, 6), (5, 5, 5), (2, 0, 0)]
    for k, rng, field in cases():
        for rows, inner, cols in shapes:
            left = Matrix(field, [[rand_scalar(rng, field) for _ in range(inner)]
                                  for _ in range(rows)])
            right = Matrix(field, [[rand_scalar(rng, field) for _ in range(cols)]
                                   for _ in range(inner)])
            got = left * right
            assert (got.rows, got.cols) == (rows, cols if inner else 0)
            assert got == reference_product(left, right), (k, rows, inner, cols)


def univar_from_roots(field, roots, lead=1):
    out = [field.coerce(lead)]
    for r in roots:
        out = univar_mul(out, [-field.coerce(r), field.one])
    return out


def special_pairs(field):
    """Coefficient lists (ascending) that stress the remainder sequence:
    unequal degrees both ways, constant and zero operands, vanishing leading
    coefficients (formal degrees above the actual ones), shared factors
    (resultant 0), and sequences whose degree drops by more than 1."""
    sq = field.sqrt_gen() if field.s is not None else field.one
    c = [field.coerce(x) for x in (3, 0, 1)]
    yield [field.coerce(x) for x in (1, 2, 0, 5)], [field.coerce(x) for x in (7, 1)]
    yield [field.coerce(x) for x in (4, 1)], [field.coerce(x) for x in (1, 0, 2, 0, 3)]
    yield [field.coerce(x) for x in (2, 0, 0, 1)], [field.coerce(5)]
    yield [field.coerce(5)], [field.coerce(x) for x in (2, 0, 0, 1)]
    yield [field.coerce(3)], [field.coerce(-2)]
    yield [field.zero], [field.coerce(x) for x in (1, 1)]
    yield [field.zero, field.zero], [field.coerce(4)]
    yield [field.coerce(x) for x in (1, 2, 0)], [field.coerce(x) for x in (3, 1, 1)]
    yield [field.coerce(x) for x in (1, 2, 0)], [field.coerce(x) for x in (3, 1, 0)]
    yield [field.coerce(x) for x in (1, 2, 3, 0, 0)], [field.coerce(x) for x in (0, 1, 0)]
    yield (univar_mul(c, [sq, field.coerce(2)]),
           univar_mul(c, [field.coerce(x) for x in (1, 1, 1)]))
    yield univar_from_roots(field, [1, 2, sq]), univar_from_roots(field, [sq, -1], 3)
    # x^6 + 3x^2 + x against x^4 + 2: the remainder x^2 + x drops two degrees
    yield ([field.coerce(x) for x in (0, 1, 3, 0, 0, 0, 1)],
           [field.coerce(x) for x in (2, 0, 0, 0, 1)])
    # x^5 + sqrt(s) against x^3 - x: the remainder x + sqrt(s) drops two
    # degrees (over Q it divides x^3 - x, a shared factor)
    yield ([sq, field.zero, field.zero, field.zero, field.zero, field.one],
           [field.zero, -field.one, field.zero, field.one])
    # x^6 + x + 2 against x^5 + 1: the remainder 2 drops five degrees
    yield ([field.coerce(x) for x in (2, 1, 0, 0, 0, 0, 1)],
           [field.coerce(x) for x in (1, 0, 0, 0, 0, 1)])


def node_resultant(f, g, shear, t):
    """The resultant of solve_pair's eliminant at the integer node t: the
    subresultant PRS of the two pencil tables restricted there, over the
    product of their denominators."""
    field = f.field
    ring = integral_ring(field.s)
    (den_f, rows_f), (den_g, rows_g) = _pencil_table(f, shear), _pencil_table(g, shear)
    res = subresultant_prs(_at_node(ring, rows_f, t), _at_node(ring, rows_g, t), field.s)[1]
    return from_integral(field, res, den_f ** g.degree * den_g ** f.degree)


def test_subresultant_resultant_matches_sylvester_reference():
    for k, rng, field in cases():
        f = rand_form(rng, field, 3, 1 + k % 3)
        g = rand_form(rng, field, 3, 1 + (k // 3) % 3)
        if f.is_zero() or g.is_zero():
            continue
        shear = _find_shear(f, g)
        fs, gs = reference_shear(f, shear), reference_shear(g, shear)
        for t in range(-2, 3):
            want = reference_sylvester_det(field,
                                           reference_restrict_univar(fs, (t, 1, None), 2),
                                           reference_restrict_univar(gs, (t, 1, None), 2))
            assert node_resultant(f, g, shear, t) == want, (k, t)
        # forms sharing a line: every restriction has a common root
        line = HomPoly.linear_form(field, [1, -2, 3])
        shared = (f * line, g * line)
        assert node_resultant(*shared, _find_shear(*shared), 1).is_zero(), k
        # a constant against a form: the constant to the form's degree
        const = HomPoly.constant(field, 3, 3)
        assert node_resultant(const, const, (0, 0), 1) == field.one
        assert node_resultant(const, f, shear, 1) == field.coerce(3) ** f.degree, k
    for field in FIELDS:
        for a, b in special_pairs(field):
            if a[-1].is_zero() or b[-1].is_zero():
                continue
            ma, ia = clear_denominators(field, a)
            mb, ib = clear_denominators(field, b)
            got = from_integral(field, subresultant_prs(ia, ib, field.s)[1],
                                ma ** (len(b) - 1) * mb ** (len(a) - 1))
            assert got == reference_sylvester_det(field, a, b), (field, a, b)


def reference_gcd(field, a, b):
    """The monic gcd by the Euclid remainder loop in Scalars."""
    a, b = trim(a), monic(b)
    while b:
        a, b = b, monic(univar_rem(a, b))
    return monic(a)


def test_univar_gcd_matches_euclid_reference():
    for k, rng, field in cases():
        common = [rand_scalar(rng, field, 0) for _ in range(1 + k % 3)]
        for _ in range(6):
            a = [rand_scalar(rng, field) for _ in range(rng.randint(0, 7))]
            b = [rand_scalar(rng, field) for _ in range(rng.randint(0, 7))]
            if rng.random() < 0.5 and trim(a) and trim(b):
                a, b = univar_mul(a, common), univar_mul(b, common)
            if rng.random() < 0.3 and trim(a):
                b = univar_mul(a, [rand_scalar(rng, field, 0), rand_scalar(rng, field, 0)])
            assert univar_gcd(field, a, b) == reference_gcd(field, a, b), k
            assert univar_gcd(field, b, a) == reference_gcd(field, a, b), k
    for field in FIELDS:
        for a, b in special_pairs(field):
            assert univar_gcd(field, a, b) == reference_gcd(field, a, b), (field, a, b)


def reference_resultant(f, g, shear):
    """The eliminant of solve_pair as it was computed before: Scalar
    Sylvester determinants at the nodes 0, 1, -1, 2, ..., interpolated by
    Newton divided differences."""
    field = f.field
    fs, gs = reference_shear(f, shear), reference_shear(g, shear)
    ts = reference_nodes(field, f.degree * g.degree + 1)
    vals = [reference_sylvester_det(field, reference_restrict_univar(fs, (t, field.one, None), 2),
                                    reference_restrict_univar(gs, (t, field.one, None), 2))
            for t in ts]
    return reference_lagrange_coeffs(field, ts, vals)


def test_solve_pair_eliminant_matches_reference():
    # coprime pairs: a product of two lines against a conic through neither
    for k, field in enumerate(FIELDS):
        x, y, z = (HomPoly.variable(field, 3, i) for i in range(3))
        f = (x - z) * (y + z.scale(2 + k))
        g = x * x + y * y - z * z.scale(5 + k) + x * y
        ps = solve_pair(f, g)
        assert ps.shear == _find_shear(f, g)
        assert ps.resultant_coeffs == reference_resultant(f, g, ps.shear)
        for p in ps.points:
            assert f.evaluate(p).is_zero() and g.evaluate(p).is_zero()
    # seeded coprime pairs of degrees up to 3 and 2 with large coefficients
    checked = 0
    for k, rng, field in cases():
        f = rand_form(rng, field, 3, 1 + k % 3)
        g = rand_form(rng, field, 3, 1 + (k // 4) % 2)
        if f.is_zero() or g.is_zero() or multivariate_gcd(f, g).degree:
            continue
        ps = solve_pair(f, g)
        assert ps.resultant_coeffs == reference_resultant(f, g, ps.shear), k
        checked += 1
    assert checked >= 30


def test_degree_nine_eliminant_over_sqrt_minus_three():
    """The pair of seed 11 of cases() with both forms cubic: an eliminant of
    degree 9 over Q(sqrt -3) with coefficients of about 1000 bits, a line
    times an irreducible octic."""
    _k, rng, field = next(case for case in cases() if case[0] == 11)
    f, g = rand_form(rng, field, 3, 3), rand_form(rng, field, 3, 3)
    ps = solve_pair(f, g)
    assert ps.resultant_coeffs == reference_resultant(f, g, ps.shear)
    unit, factors = factor_univar(field, ps.resultant_coeffs)
    assert [len(fac) - 1 for fac, _ in factors] == [1, 8]
    product = [unit]
    for fac, mult in factors:
        for _ in range(mult):
            out = [field.zero] * (len(product) + len(fac) - 1)
            for i, a in enumerate(product):
                for j, b in enumerate(fac):
                    out[i + j] = out[i + j] + a * b
            product = out
    assert product == ps.resultant_coeffs


def eight_line_pair(bundle, monkeypatch):
    """(f, g, PairSolution) of the one minor pair solve_pair meets while the
    8-line jumping locus is solved, as jumping_points solves it."""
    pairs = []
    solve = zeros.solve_pair

    def recorded(f, g):
        ps = solve(f, g)
        pairs.append((f, g, ps))
        return ps

    monkeypatch.setattr(zeros, "solve_pair", recorded)
    zeros.resolved_common_zeros(bundle.monad.signed_minors())
    assert len(pairs) == 1
    return pairs[0]


def test_eight_line_eliminant_matches_reference(eight_line_bundle, monkeypatch):
    """The degree-64 eliminant of the minor pair the 8-line jumping locus
    is solved from."""
    f, g, ps = eight_line_pair(eight_line_bundle, monkeypatch)
    assert ps.total_degree == 64
    assert ps.resultant_coeffs == reference_resultant(f, g, ps.shear)


def test_eight_line_eliminant_factors(eight_line_bundle, monkeypatch):
    """The same eliminant factors as a linear factor to the 15th, five to the
    4th and irreducibles of degree 3, 4, 6 and 12, with its 4 remaining
    roots at infinity."""
    _f, _g, ps = eight_line_pair(eight_line_bundle, monkeypatch)
    _unit, factors = factor_univar(QQ, ps.resultant_coeffs)
    assert [(len(fac) - 1, mult) for fac, mult in factors] == (
        [(1, 15)] + [(1, 4)] * 5 + [(3, 1), (4, 1), (6, 1), (12, 1)])
    inf_mult = ps.total_degree - degree(ps.resultant_coeffs)
    assert inf_mult == 4
    assert ((QQ.one, QQ.zero), inf_mult) in ps.base_roots


def reference_signed_minors(grid):
    """The signed maximal minors one row at a time, each by poly_det."""
    n = grid.rows
    out = []
    for r in range(n):
        m = poly_det([list(grid.entries[i]) for i in range(n) if i != r])
        out.append(m if r % 2 == 0 else -m)
    return out


def minors_grid(rng, field, n, kind):
    """An n x (n-1) grid of linear forms: generic; with entry (0, 0) zero, so
    every node swaps rows; with the x2 matrix of rank n - 2, so the grid
    drops rank at the node (0, 0, 1); with two equal columns (a zero column
    when n = 2), so it drops rank everywhere; or with a zero row."""
    mats = [Matrix(field, [[rand_scalar(rng, field, 0.1) for _ in range(n - 1)]
                           for _ in range(n)]) for _ in range(3)]
    rows = [[list(m.row(i)) for i in range(n)] for m in mats]
    if kind == "swap":
        for m in rows:
            m[0][0] = field.zero
    elif kind == "rank_drop_at_node":
        for row in rows[2]:
            row[-1] = field.zero
    elif kind == "rank_drop":
        for m in rows:
            for row in m:
                if n > 2:
                    row[1] = row[0]
                else:
                    row[0] = field.zero
    elif kind == "zero_row":
        for m in rows:
            m[n // 2] = [field.zero] * (n - 1)
    return LinFormsMatrix.from_coefficient_matrices([Matrix(field, m) for m in rows])


def test_signed_minors_match_per_row_poly_det():
    kinds = ["generic", "swap", "rank_drop_at_node", "rank_drop", "zero_row"]
    for k, rng, field in cases():
        kind = kinds[k % len(kinds)]
        for n in (5 + k % 2, 2, 3, 4):
            grid = minors_grid(rng, field, n, kind)
            got = grid.signed_maximal_minors()
            assert got == reference_signed_minors(grid), (k, n, kind)
            if n <= 4:
                # small enough to expand each minor by cofactors as well
                assert got == [m if r % 2 == 0 else -m for r, m in enumerate(
                    homopoly._poly_det_direct([list(grid.entries[i])
                                               for i in range(n) if i != r])
                    for r in range(n))], (k, n, kind)
            if kind == "rank_drop":
                assert all(m.is_zero() for m in got), (k, n)
            if kind == "rank_drop_at_node":
                assert all(m.evaluate((0, 0, 1)).is_zero() for m in got), (k, n)
            point = [rand_scalar(rng, field, 0) for _ in range(3)]
            values = [m.evaluate(point) for m in got]
            assert all(c.is_zero()
                       for c in grid.evaluate(point).apply_left(values)), (k, n)


@pytest.mark.parametrize("n, wrong_call",
                         [pytest.param(5, k, id=str(k)) for k in range(16)]
                         + [pytest.param(4, k, id=f"4x3-{k}") for k in range(11)])
def test_signed_minors_wrong_node_value_caught(monkeypatch, n, wrong_call):
    # an n x (n-1) grid: the minors have degree n - 1, so C(n + 1, 2)
    # lattice nodes (15 for 5 x 4, 10 for 4 x 3) and one check node, each
    # one elimination; one minor is wrong at one of them
    grid = minors_grid(random.Random(5), QQ, n, "generic")
    calls = []
    elimination = homopoly.fraction_free

    def wrong(work, s, pivots):
        calls.append(1)
        sign = elimination(work, s, pivots)
        if len(calls) == wrong_call + 1:
            work[-1][pivots + wrong_call % n] += 1
        return sign

    monkeypatch.setattr(homopoly, "fraction_free", wrong)
    with pytest.raises(ClaimError, match="check node"):
        grid.signed_maximal_minors()
    assert len(calls) == n * (n + 1) // 2 + 1


@pytest.mark.parametrize("wrong_call", range(6))
def test_solve_pair_wrong_node_value_caught(monkeypatch, wrong_call):
    # two conics: 5 eliminant nodes, then the check node
    x, y, z = (HomPoly.variable(QQ, 3, i) for i in range(3))
    f = x * x - y * z
    g = y * y - x * z + z * z.scale(2)
    calls = []
    prs = zeros.subresultant_prs

    def wrong(a, b, s):
        calls.append(1)
        last, value = prs(a, b, s)
        return last, value + 1 if len(calls) == wrong_call + 1 else value

    monkeypatch.setattr(zeros, "subresultant_prs", wrong)
    with pytest.raises(ClaimError, match="check node"):
        solve_pair(f, g)
    assert len(calls) == 6


def test_monad_products_built_once(six_line_bundle, monkeypatch):
    lb = six_line_bundle
    products = []
    mul = Matrix.__mul__

    def counted(self, other):
        products.append(1)
        return mul(self, other)

    monkeypatch.setattr(Matrix, "__mul__", counted)
    monad = MonadData(lb.a_maps, lb.monad.form)
    monad.jlsk_via_form()
    assert "products" not in monad._derived and products == []
    for _ in range(3):
        assert monad.compatibility_ok()
    monad.jlsk_curve()
    # B A_l for three l, then A_k^T (B A_l) for the six k <= l
    assert len(products) == 9


def test_derivative_table_matches_sympy_diff():
    xs = sympy.symbols("x0:3")
    for m in range(1, 6):
        dst = monomials(3, m - 1)
        table = {}
        for r, k, c, rp in _derivative_table(m):
            assert (r, k) not in table
            table[r, k] = {dst[rp]: c}
        for r, mu in enumerate(monomials(3, m)):
            for k in range(3):
                d = sympy.diff(sympy.prod(x ** e for x, e in zip(xs, mu)), xs[k])
                want = dict(sympy.Poly(d, *xs).terms()) if d != 0 else {}
                assert table.get((r, k), {}) == want


def reference_contraction_matrix(field, src_basis, dst_basis, dim_i, src_deg, k):
    """Matrix of d/dx_k from the span of src_basis (degree src_deg) to the
    span of dst_basis, the images of one k solved on their own."""
    src = monomials(3, src_deg)
    dst = monomials(3, src_deg - 1)
    dst_idx = {e: r for r, e in enumerate(dst)}
    images = []
    for vec in src_basis:
        img = [field.zero] * (len(dst) * dim_i)
        for mi, mu in enumerate(src):
            if mu[k] == 0:
                continue
            nu = list(mu)
            nu[k] -= 1
            for t in range(dim_i):
                at = dst_idx[tuple(nu)] * dim_i + t
                img[at] = img[at] + field.scalar(mu[k]) * vec[mi * dim_i + t]
        images.append(img)
    dst_mat = Matrix.from_cols(field, [list(v) for v in dst_basis])
    sol = dst_mat.solve_columns(Matrix.from_cols(field, images))
    assert sol is not None
    return sol


def test_contraction_maps_match_per_map_reference(six_line_bundle, eight_line_bundle):
    for lb in (six_line_bundle, eight_line_bundle, quadratic_field_bundle()):
        dim_i = lb.relations.rows
        for src, dst, deg, maps in ((lb.h_basis, lb.m_basis, lb.d - 1, lb.a_maps),
                                    (lb.m_basis, lb.hp_basis, lb.d - 2, lb.b_maps)):
            reference = [reference_contraction_matrix(lb.field, src, dst, dim_i, deg, k)
                         for k in range(3)]
            assert _contraction_maps(lb.field, src, dst, dim_i, deg) == reference == maps


def test_contraction_maps_take_one_solve_per_target_basis(monkeypatch):
    solves = []
    solve_columns = Matrix.solve_columns

    def counted(self, rhs):
        solves.append((self.cols, rhs.cols))
        return solve_columns(self, rhs)

    monkeypatch.setattr(Matrix, "solve_columns", counted)
    lb = build_logbundle(QQ, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3), (1, 4, 9)])
    # the maps H -> M and M -> H' are read as coordinates in the echelon
    # target bases; only the dual identification P is solved for
    assert solves == [(3, 3)]
    with pytest.raises(ClaimError, match="left the target kernel"):
        _contraction_maps(QQ, lb.h_basis, lb.m_basis[1:], lb.relations.rows, lb.d - 1)
