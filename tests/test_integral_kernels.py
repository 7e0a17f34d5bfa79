"""The integral kernels against the Scalar loops they replaced.

HomPoly.evaluate, restrict_univar and substitute, the pair eliminant of
solve_pair, its interpolation by lagrange_coeffs (integer forward
differences on consecutive nodes, the kernel poly_det uses on each lattice
row) and Matrix.__mul__ clear denominators once and work in Z or
Z[sqrt(s)].  The reference_* functions below are the Scalar-by-Scalar
implementations they replaced, kept here as the definition of the result;
each kernel must give equal canonical Scalars over Q, Q(sqrt 5),
Q(sqrt -1) and Q(sqrt -3), on zero and degree-0 forms, zero targets,
points with zero coordinates and denominators up to 10^12.
"""
import random

import pytest

from schurlab.errors import ClaimError, PreconditionError
from schurlab.exact_math import Field, Matrix, QQ, vec_dot
from schurlab.exact_math.matrices import (clear_denominators, from_integral,
                                          integral_det, integral_ring)
from schurlab.hulek_monad import MonadData
from schurlab.logbundle import _contraction_matrix, build_logbundle
from schurlab.polyring import HomPoly, monomials, multivariate_gcd, solve_pair
from schurlab.polyring import zeros
from schurlab.polyring.zeros import _apply_shear, _eliminant_at, _find_shear

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


def test_restrict_univar_matches_scalar_reference():
    for k, rng, field in cases():
        nvars = 2 + k % 3
        for degree in range(5):
            poly = rand_form(rng, field, nvars, degree)
            free = rng.randrange(nvars)
            values = [None if i == free else rand_scalar(rng, field, 0.3)
                      for i in range(nvars)]
            got = poly.restrict_univar(values, free)
            assert got == reference_restrict_univar(poly, values, free), (k, degree)
            assert len(got) == degree + 1
        zero = HomPoly.zero(field, nvars, 2)
        assert zero.restrict_univar([None] + [field.one] * (nvars - 1), 0) == [field.zero] * 3


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


def test_eliminant_matches_sylvester_reference():
    for k, rng, field in cases():
        f = rand_form(rng, field, 3, 1 + k % 3)
        g = rand_form(rng, field, 3, 1 + (k // 3) % 3)
        for t in [field.zero, field.one, rand_scalar(rng, field, 0)]:
            a = f.restrict_univar((t, field.one, None), 2)
            b = g.restrict_univar((t, field.one, None), 2)
            got = from_integral(field, *_eliminant_at(f, g, t))
            assert got == reference_sylvester_det(field, a, b), k
        # at integer nodes the denominator does not depend on the node
        dens = {_eliminant_at(f, g, t)[1] for t in range(-3, 4)}
        assert len(dens) == 1, k
        const = HomPoly.constant(field, 3, 3)
        assert from_integral(field, *_eliminant_at(const, const, field.one)) == field.one


def reference_resultant(f, g, shear):
    """The eliminant of solve_pair as it was computed before: Scalar
    Sylvester determinants at the nodes 0, 1, -1, 2, ..., interpolated by
    Newton divided differences."""
    field = f.field
    fs, gs = _apply_shear(f, shear), _apply_shear(g, shear)
    ts = reference_nodes(field, f.degree * g.degree + 1)
    vals = [reference_sylvester_det(field, fs.restrict_univar((t, field.one, None), 2),
                                    gs.restrict_univar((t, field.one, None), 2))
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


def test_eight_line_eliminant_matches_reference(eight_line_bundle, monkeypatch):
    """The degree-64 eliminant of the minor pair the 8-line jumping locus
    is solved from."""
    pairs = []
    solve = zeros.solve_pair

    def recorded(f, g):
        ps = solve(f, g)
        pairs.append((f, g, ps))
        return ps

    monkeypatch.setattr(zeros, "solve_pair", recorded)
    zeros.resolved_common_zeros(eight_line_bundle.monad.signed_minors())
    assert len(pairs) == 1
    f, g, ps = pairs[0]
    assert ps.total_degree == 64
    assert ps.resultant_coeffs == reference_resultant(f, g, ps.shear)


@pytest.mark.parametrize("wrong_call", range(6))
def test_solve_pair_wrong_node_value_caught(monkeypatch, wrong_call):
    # two conics: 5 eliminant nodes, then the check node
    x, y, z = (HomPoly.variable(QQ, 3, i) for i in range(3))
    f = x * x - y * z
    g = y * y - x * z + z * z.scale(2)
    calls = []

    def wrong(rows, s):
        calls.append(1)
        value = integral_det(rows, s)
        return value + 1 if len(calls) == wrong_call + 1 else value

    monkeypatch.setattr(zeros, "integral_det", wrong)
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


def test_contraction_matrices_take_one_solve_per_map(monkeypatch):
    solves = []
    solve_columns = Matrix.solve_columns

    def counted(self, rhs):
        solves.append((self.cols, rhs.cols))
        return solve_columns(self, rhs)

    monkeypatch.setattr(Matrix, "solve_columns", counted)
    lb = build_logbundle(QQ, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3), (1, 4, 9)])
    # three maps H -> M, three M -> H', then the dual identification
    assert solves[:6] == [(4, 3)] * 3 + [(3, 4)] * 3 and len(solves) == 7
    with pytest.raises(ClaimError, match="left the target kernel"):
        _contraction_matrix(QQ, lb.h_basis, lb.m_basis[1:], lb.relations.rows, lb.d - 1, 0)
