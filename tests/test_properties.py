"""Seeded property suites over randomly generated instances.

Each suite runs at least one hundred cases from a fixed seed and returns the
list of case indices that violated the property; the tests assert emptiness.
"""
import random
import sys
from collections import Counter
from fractions import Fraction
from math import factorial, gcd, isqrt
from unittest.mock import patch

import sympy
from sympy.polys.rings import PolyRing

from schurlab.errors import ClaimError, PreconditionError
from schurlab.exact_math import (Field, Matrix, ProjSubspace, QQ, Scalar, SymForm,
                                 sym_pairs, sym_row, vec_canonical, vec_dot)
from schurlab.exact_math import matrices
from schurlab.exact_math.matrices import echelon_coordinates, from_integral
from schurlab.hulek_monad import MonadData, select_compatible_form, validate_monad
from schurlab.logbundle import _derivative_table
from schurlab.polyring import (HomPoly, LinFormsMatrix, gram, lagrange_coeffs,
                               local_singularity, monomials, multivariate_gcd, quadric,
                               try_exact_div)
from test_exact_math import elimination_mismatches
from test_integral_kernels import reference_lagrange_coeffs

QSQRT5 = Field(5)
QSQRT_3 = Field(-3)

CASES = 120


def rand_scalar(rng, bound=6):
    num = rng.randint(-bound, bound)
    den = rng.randint(1, bound)
    return QQ.scalar(Fraction(num, den))


def rand_nonzero_scalar(rng, bound=6):
    while True:
        s = rand_scalar(rng, bound)
        if not s.is_zero():
            return s


def rand_poly(rng, degree, nvars=3):
    coeffs = {}
    for exp in monomials(nvars, degree):
        if rng.random() < 0.6:
            c = rand_scalar(rng)
            if not c.is_zero():
                coeffs[exp] = c
    poly = HomPoly(QQ, nvars, degree, coeffs)
    if poly.is_zero():
        return HomPoly.monomial(QQ, (degree,) + (0,) * (nvars - 1))
    return poly


def rand_matrix(rng, rows, cols, bound=5):
    return Matrix.from_rows(QQ, [[rng.randint(-bound, bound)
                                  for _ in range(cols)] for _ in range(rows)])


def rand_nondegenerate_form(rng, dim):
    while True:
        rows = [[0] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i, dim):
                rows[i][j] = rows[j][i] = rng.randint(-4, 4)
        form = SymForm.from_rows(QQ, rows)
        if form.is_nondegenerate():
            return form


def contract(f, direction):
    """sum over k of direction[k] * d/dx_k f, for a ternary form f of positive
    degree, read off the logarithmic bundle's derivative table."""
    src, dst = monomials(3, f.degree), monomials(3, f.degree - 1)
    out = {}
    for r, k, c, rp in _derivative_table(f.degree):
        out[dst[rp]] = out.get(dst[rp], QQ.zero) + f.coeff(src[r]) * (c * direction[k])
    return HomPoly(f.field, 3, f.degree - 1, out)


def contract_leibniz_suite(cases=CASES, seed=101):
    rng = random.Random(seed)
    bad = []
    for case in range(cases):
        f = rand_poly(rng, 2)
        g = rand_poly(rng, rng.choice([1, 2]))
        u = [rng.randint(-4, 4) for _ in range(3)]
        v = [rng.randint(-4, 4) for _ in range(3)]
        product_rule = contract(f * g, u) == contract(f, u) * g + f * contract(g, u)
        commutation = contract(contract(f, u), v) == contract(contract(f, v), u)
        if not (product_rule and commutation):
            bad.append(case)
    return bad


def kernel_annihilation_suite(cases=CASES, seed=202):
    rng = random.Random(seed)
    bad = []
    for case in range(cases):
        rows = rng.randint(2, 5)
        cols = rng.randint(2, 5)
        m = rand_matrix(rng, rows, cols)
        ok = True
        for v in m.kernel_basis():
            ok = ok and all(c.is_zero() for c in m.apply(v))
        for v in m.transpose().kernel_basis():
            ok = ok and all(c.is_zero() for c in m.apply_left(v))
        if cols == rows - 1:
            # a grid of linear forms that is m at (1, 0, 0) and drops rank
            # at (0, 1, 0): its signed maximal minors left-annihilate it at
            # every point, and they all vanish exactly where the rank drops
            dropped = Matrix.from_cols(QQ, [m.col(j) for j in range(cols - 1)] + [m.col(0)])
            grid = LinFormsMatrix.from_coefficient_matrices(
                [m, dropped, rand_matrix(rng, rows, cols)])
            signed = grid.signed_maximal_minors()
            for point in [(1, 0, 0), (0, 1, 0), tuple(rng.randint(-4, 4) for _ in range(3))]:
                at = grid.evaluate(point)
                values = [p.evaluate(point) for p in signed]
                ok = ok and all(c.is_zero() for c in at.apply_left(values))
                ok = ok and (at.rank() < cols) == all(v.is_zero() for v in values)
        if not ok:
            bad.append(case)
    return bad


def canonical_idempotence_suite(cases=CASES, seed=303):
    rng = random.Random(seed)
    bad = []
    for case in range(cases):
        vec = tuple(rand_scalar(rng) for _ in range(4))
        if all(c.is_zero() for c in vec):
            vec = (QQ.one,) + vec[1:]
        scale = rand_nonzero_scalar(rng)
        ok = vec_canonical(vec) == vec_canonical(vec_canonical(vec))
        ok = ok and vec_canonical(vec) == vec_canonical(
            tuple(c * scale for c in vec))
        poly = rand_poly(rng, 2)
        ok = ok and poly.canonical() == poly.canonical().canonical()
        ok = ok and poly.canonical() == poly.scale(scale).canonical()
        form = rand_nondegenerate_form(rng, 3)
        ok = ok and (form.canonical().serialize()
                     == form.canonical().canonical().serialize())
        if not ok:
            bad.append(case)
    return bad


def polar_involution_suite(cases=CASES, seed=404):
    rng = random.Random(seed)
    bad = []
    for case in range(cases):
        form = rand_nondegenerate_form(rng, 4)
        dim = rng.choice([0, 1, 2])
        while True:
            basis = [tuple(rand_scalar(rng) for _ in range(4))
                     for _ in range(dim + 1)]
            if Matrix.from_rows(QQ, [list(b) for b in basis]).rank() == dim + 1:
                break
        sub = ProjSubspace(QQ, 3, basis)
        polar = sub.polar(form)
        ok = polar.dim == 2 - dim
        ok = ok and polar.polar(form) == sub
        if not ok:
            bad.append(case)
    return bad


def compatibility_symmetry_suite(cases=CASES, seed=505):
    rng = random.Random(seed)
    basis = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    bad = []
    for case in range(cases):
        n = rng.choice([3, 4])
        maps = [rand_matrix(rng, n, n - 1, 3) for _ in range(3)]
        form = None
        if case % 3 == 0:
            # exercise the positive branch with an actually compatible form
            try:
                form = select_compatible_form(QQ, maps)
            except ClaimError:
                form = None
        if form is None:
            form = rand_nondegenerate_form(rng, n)
        monad = MonadData(maps, form)
        grid = monad.a_V()
        probes_symmetric = True
        for z in basis:
            for w in basis:
                prod = (grid.evaluate(z).transpose()
                        * (form.matrix * grid.evaluate(w)))
                probes_symmetric = probes_symmetric and prod == prod.transpose()
        if monad.compatibility_ok() != probes_symmetric:
            bad.append(case)
    return bad


def reference_surjective(monad, h) -> bool:
    """The probe that the finite-locus proof replaced: the 3 x n matrix with
    rows A_k h has rank at least two."""
    return Matrix(monad.field, [m.apply(h) for m in monad.maps]).rank() >= 2


def probe_vectors(monad, rng, samples=25):
    """Seeded nonzero vectors h, then every kernel vector of a(z) at the
    resolved jumping points z."""
    hs = [tuple(monad.field.scalar(rng.randint(-9, 9)) for _ in range(monad.n - 1))
          for _ in range(samples)]
    hs += [h for z in monad.jumping_points().points for h in monad.at(z).right]
    return [h for h in hs if any(not c.is_zero() for c in h)]


def exactness_suite(cases=CASES, seed=1313):
    """Random 3 x 2 and 4 x 3 maps with a selected compatible form, every
    fourth with A_k e_0 = c_k v, so that a(z) e_0 = 0 along the line
    sum c_k z_k = 0.  Where the jumping locus is zero-dimensional
    validate_monad passes and the reference probe holds at every probe
    vector; where it has a curve component the claim is unresolved; where
    every minor vanishes it fails.  Returns the violations and how many
    cases ended in each status."""
    rng = random.Random(seed)
    bad, statuses = [], Counter()
    for case in range(cases):
        n = rng.choice([3, 4])
        rows = [[[rng.randint(-3, 3) for _ in range(n - 1)] for _ in range(n)]
                for _ in range(3)]
        if case % 4 == 0:
            v = [rng.randint(-3, 3) for _ in range(n)]
            for grid in rows:
                c = rng.randint(-3, 3)
                for r in range(n):
                    grid[r][0] = c * v[r]
        maps = [Matrix.from_rows(QQ, grid) for grid in rows]
        try:
            monad = MonadData(maps, select_compatible_form(QQ, maps))
        except ClaimError:
            continue
        report = validate_monad(monad)
        statuses[report.status] += 1
        if report.generic_injectivity == "fail":
            ok = report.status == "fail"
        elif monad.jumping_points().zero_dimensional:
            ok = report.valid and all(reference_surjective(monad, h)
                                      for h in probe_vectors(monad, rng))
        else:
            ok = report.status == "unresolved"
        if not ok:
            bad.append(case)
    return bad, statuses


def rand_element(rng, field, bound=6):
    """A random element of Q or of a quadratic field Q(sqrt s)."""
    sqrt_part = 0 if field.is_rational else rand_scalar(rng, bound).u
    return field.scalar(rand_scalar(rng, bound).u, sqrt_part)


def interpolation_suite(cases=CASES, seed=606):
    """lagrange_coeffs on integer values at 1 to 21 consecutive nodes
    a - offset, with a random offset, is m! times the interpolant of the
    divided-difference reference; over Q(sqrt s) each of the two integer
    parts of the values is interpolated on its own."""
    rng = random.Random(seed)
    fields = [QQ, QSQRT5, Field(-1)]
    bad = []
    for case in range(cases):
        field = fields[case % 3]
        n = rng.randint(1, 21)
        offset = rng.randint(-30, 30)
        bound = rng.choice([3, 10 ** 6])
        parts = [[rng.randint(-bound, bound) for _ in range(n)]
                 for _ in range(1 if field.is_rational else 2)]
        coeffs = [lagrange_coeffs(part, offset) for part in parts]
        got = [from_integral(field, c[0] if field.is_rational else c, factorial(n - 1))
               for c in zip(*coeffs)]
        xs = [field.scalar(a - offset) for a in range(n)]
        ys = [field.scalar(*value) for value in zip(*parts)]
        if got != reference_lagrange_coeffs(field, xs, ys):
            bad.append(case)
    return bad


def rand_form(rng, field, degree):
    """A random nonzero ternary form over the field, about half its
    monomials zero, so special coordinates and shears come up."""
    while True:
        poly = HomPoly(field, 3, degree, {e: rand_element(rng, field, 4)
                                          for e in monomials(3, degree) if rng.random() < 0.5})
        if not poly.is_zero():
            return poly


def sympy_gcd_degree(f, g) -> int:
    """Degree of the gcd of two forms in sympy's sparse ring over QQ or
    QQ<sqrt(s)>, the reference for multivariate_gcd.  A scalar u + v sqrt(s)
    goes in as [v, u] in the generator, which the modulus x^2 - s proves is a
    square root of s."""
    s = f.field.s
    domain = sympy.QQ if s is None else sympy.QQ.algebraic_field(sympy.sqrt(s))
    assert s is None or domain.mod.to_list() == [1, 0, -s]

    def element(c):
        u, v = (sympy.QQ(x.numerator, x.denominator) for x in (c.u, c.v))
        return u if s is None else domain([v, u])
    ring = PolyRing(["x0", "x1", "x2"], domain)
    common = ring({e: element(c) for e, c in f.coeffs.items()}).gcd(
        ring({e: element(c) for e, c in g.coeffs.items()}))
    return sum(common.monoms()[0])


def gcd_suite(cases=CASES, seed=808):
    """multivariate_gcd(h a, h b) for random ternary forms h, a and b over
    Q, Q(sqrt 5) and Q(sqrt -3) divides both products and has the degree of
    sympy's gcd; every fifth b is a multiple of a, so the gcd is h a."""
    rng = random.Random(seed)
    fields = [QQ, QSQRT5, Field(-3)]
    bad = []
    for case in range(cases):
        field = fields[case % 3]
        h = rand_form(rng, field, rng.randint(0, 2))
        a, b = (rand_form(rng, field, rng.randint(1, 2)) for _ in range(2))
        if case % 5 == 0:
            b = b * a
        f, g = h * a, h * b
        got = multivariate_gcd(f, g)
        if (try_exact_div(f, got) is None or try_exact_div(g, got) is None
                or got.degree != sympy_gcd_degree(f, g)):
            bad.append(case)
    return bad


def rational_sqrt(f: Fraction):
    if f < 0:
        return None
    p, q = isqrt(f.numerator), isqrt(f.denominator)
    return Fraction(p, q) if p * p == f.numerator and q * q == f.denominator else None


class FractionPair:
    """Reference arithmetic: u + v*sqrt(s) as a pair of Fractions (s None
    over Q), the representation that Scalar's integer form replaced."""

    def __init__(self, u, v, s):
        self.u, self.v, self.s = Fraction(u), Fraction(v), s

    def _new(self, u, v):
        return FractionPair(u, v, self.s)

    def is_zero(self):
        return self.u == 0 and self.v == 0

    def __add__(self, o):
        return self._new(self.u + o.u, self.v + o.v)

    def __sub__(self, o):
        return self._new(self.u - o.u, self.v - o.v)

    def __neg__(self):
        return self._new(-self.u, -self.v)

    def __mul__(self, o):
        if self.s is None:
            return self._new(self.u * o.u, 0)
        return self._new(self.u * o.u + self.s * self.v * o.v,
                         self.u * o.v + self.v * o.u)

    def conjugate(self):
        return self._new(self.u, -self.v)

    def norm(self):
        return self.u * self.u - (0 if self.s is None else self.s * self.v * self.v)

    def inverse(self):
        n = self.norm()
        return self._new(self.u / n, -self.v / n)

    def __truediv__(self, o):
        return self * o.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** -n
        out = self._new(1, 0)
        for _ in range(n):
            out = out * self
        return out

    def sqrt(self):
        if self.is_zero():
            return self
        A, B, s = self.u, self.v, self.s
        if B == 0:
            r = rational_sqrt(A)
            if r is not None:
                return self._new(r, 0)
            r = None if s is None else rational_sqrt(A / s)
            return None if r is None else self._new(0, r)
        w = rational_sqrt(A * A - s * B * B)
        if w is None:
            return None
        for half in ((A + w) / 2, (A - w) / 2):
            a = rational_sqrt(half)
            if a:
                cand = self._new(a, B / (2 * a))
                square = cand * cand
                if (square.u, square.v) == (A, B):
                    return cand
        return None

    def hash(self):
        return hash(self.u) if self.v == 0 else hash((self.u, self.v, self.s))

    def serialize(self):
        u, v = self.u, self.v
        if self.s is None:
            return f"{u.numerator}/{u.denominator}"
        return f"[{u.numerator}/{u.denominator}, {v.numerator}/{v.denominator}]"


def rand_big_fraction(rng):
    """Zero, or a fraction with numerator and denominator up to 3, 10^3 or 10^12."""
    if rng.random() < 0.15:
        return Fraction(0)
    bound = rng.choice([3, 10 ** 3, 10 ** 12])
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def canonical_match(x, ref, field) -> bool:
    """x is a canonical Scalar of the field, (a + b*sqrt(s))/d with d > 0,
    gcd(a, b, d) = 1 and b = 0 over Q, equal to the reference value."""
    return (isinstance(x, Scalar) and x.field == field and x.d > 0
            and gcd(x.a, x.b, x.d) == 1 and (x.b == 0 or not field.is_rational)
            and (x.u, x.v) == (ref.u, ref.v))


def raises_zero_division(call) -> bool:
    try:
        call()
    except ZeroDivisionError:
        return True
    return False


def scalar_arithmetic_suite(cases=4 * CASES, seed=1111):
    """Scalar's integer form against FractionPair over Q, Q(sqrt 5),
    Q(sqrt -1) and Q(sqrt -3), with parts up to 10^12, zero and negatives:
    + - * /, inverse, ** (negative exponents too), conjugate, sqrt,
    == and hash against Scalars, ints and Fractions, serialize/parse, and
    the canonical form of every result."""
    rng = random.Random(seed)
    fields = [QQ, QSQRT5, Field(-1), Field(-3)]
    bad = []
    for case in range(cases):
        field = fields[case % 4]

        def draw():
            u = rand_big_fraction(rng)
            v = 0 if field.is_rational or rng.random() < 0.2 else rand_big_fraction(rng)
            return field.scalar(u, v), FractionPair(u, v, field.s)

        (x, rx), (y, ry) = draw(), draw()
        if case % 9 == 0:
            y, ry = x, rx
        k = rng.choice([0, 1, -1, rng.randint(-10 ** 12, 10 ** 12)])
        q = rand_big_fraction(rng)
        rk, rq = FractionPair(k, 0, field.s), FractionPair(q, 0, field.s)
        n = rng.randint(-4, 6)
        pairs = [(x, rx), (x + y, rx + ry), (x - y, rx - ry), (x * y, rx * ry),
                 (-x, -rx), (x.conjugate(), rx.conjugate()), (x + k, rx + rk),
                 (k - x, rk - rx), (x * q, rx * rq), (q * x, rq * rx), (x - q, rx - rq)]
        ok = True
        for den, rden in ((y, ry), (k, rk), (q, rq)):
            if rden.is_zero():
                ok = ok and raises_zero_division(lambda: x / den)
            else:
                pairs.append((x / den, rx / rden))
        if ry.is_zero():
            ok = ok and raises_zero_division(y.inverse)
            ok = ok and raises_zero_division(lambda: k / y)
        else:
            pairs += [(y.inverse(), ry.inverse()), (k / y, rk / ry)]
        if rx.is_zero() and n < 0:
            ok = ok and raises_zero_division(lambda: x ** n)
        else:
            pairs.append((x ** n, rx ** n))
        ok = ok and all(canonical_match(z, r, field) for z, r in pairs)
        roots = [(x, rx), (x * x, rx * rx)]
        if not field.is_rational:
            roots.append(((x * field.sqrt_gen()) ** 2, (rx * FractionPair(0, 1, field.s)) ** 2))
        for z, r in roots:
            got, want = z.sqrt(), r.sqrt()
            ok = ok and (got is None if want is None else canonical_match(got, want, field))
        same = (rx.u, rx.v) == (ry.u, ry.v)
        ok = ok and (x == y) == same and (x != y) != same
        ok = ok and hash(x) == rx.hash() and (not same or hash(x) == hash(y))
        if k:
            scaled = (x * k) / k
            ok = ok and scaled == x and hash(scaled) == hash(x)
        ok = ok and (x == rx.u) == (rx.v == 0)
        ok = ok and (x == k) == (rx.v == 0 and rx.u == k)
        if rx.v == 0:
            ok = ok and hash(x) == hash(rx.u)
            if rx.u.denominator == 1:
                ok = ok and x == int(rx.u) and hash(x) == hash(int(rx.u))
        ok = ok and x.serialize() == rx.serialize() and field.parse(x.serialize()) == x
        if not ok:
            bad.append(case)
    return bad


def on_both_paths(check, *args) -> list[str]:
    """The names check(*args) returns with every rref taken by fraction-free
    Gauss-Jordan, then with every one taken by the modular core."""
    bad = []
    for path, bound in (("fraction-free", sys.maxsize), ("modular", 0)):
        with patch.object(matrices, "SMALL_SYSTEM_CELLS", bound):
            bad += [f"{path} {name}" for name in check(*args)]
    return bad


def elimination_cases(cases=CASES, seed=909):
    """(matrix, right-hand side) pairs over Q, Q(sqrt 5), Q(sqrt -1) and
    Q(sqrt -3): random shapes up to 6 x 7, empty and zero matrices, rank
    deficiency from repeated combinations of rows, and entries with large
    numerators and denominators; then, per field, a 12 x 12 whose last three
    rows combine the others, above the size bound of the fraction-free path,
    with numerators and denominators up to 10^12 over Q and up to 1000 in
    each part over the quadratic fields."""
    rng = random.Random(seed)
    fields = [QQ, QSQRT5, Field(-1), Field(-3)]
    for case in range(cases):
        field = fields[case % 4]
        rows, cols = rng.randint(0, 6), rng.randint(0, 7)
        if case % 5 == 0:
            cols = rows
        bound = 10 ** 12 if case % 7 == 0 else 6
        data = [[field.scalar(rand_scalar(rng, bound).u,
                              0 if field is QQ else rand_scalar(rng, bound).u)
                 for _ in range(cols)] for _ in range(rows)]
        if rows > 2 and case % 3 == 0:
            c = rand_scalar(rng).u
            data[-1] = [x + y * c for x, y in zip(data[0], data[1])]
        if case % 11 == 0:
            data = [[field.zero] * cols for _ in range(rows)]
        b = [field.scalar(rng.randint(-5, 5)) for _ in range(rows)]
        yield Matrix.from_rows(field, data), b
    for field in fields:
        bound = 10 ** 12 if field is QQ else 1000
        data = [[field.scalar(rand_scalar(rng, bound).u,
                              0 if field is QQ else rand_scalar(rng, bound).u)
                 for _ in range(12)] for _ in range(9)]
        for _ in range(3):
            c, d = rand_scalar(rng).u, rand_scalar(rng).u
            data.append([x * c + y * d for x, y in zip(data[rng.randrange(9)], data[-1])])
        yield Matrix.from_rows(field, data), [field.scalar(rng.randint(-5, 5)) for _ in range(12)]


def elimination_suite(cases=CASES, seed=909):
    """rref, rank, kernel_basis, solve, det and inverse agree with the
    reference Gauss-Jordan on every elimination_cases matrix, by
    fraction-free Gauss-Jordan and by the modular core alike; the 12 x 12
    cases must be above the size bound."""
    bad = []
    for case, (m, b) in enumerate(elimination_cases(cases, seed)):
        small = case >= cases and m.rows * m.cols <= matrices.SMALL_SYSTEM_CELLS
        if small or on_both_paths(elimination_mismatches, m, b):
            bad.append(case)
    return bad


def echelon_mismatches(m: Matrix, rng) -> list[str]:
    """The checks of echelon reading on m that fail: from_equations against
    the nonzero rows of the rref of m's kernel basis (two eliminations), and
    echelon_coordinates against solve_columns on combinations of that basis,
    then on one of them moved off the span along a non-leading column."""
    field, cols = m.field, m.cols
    bad = []
    kernel = m.kernel_basis()
    R, pivots = Matrix(field, kernel, cols).rref()
    basis = ProjSubspace.from_equations(field, cols - 1, m.data).basis
    if basis != R.data[:len(pivots)]:
        bad.append("from_equations")
    weights = [[rng.randint(-3, 3) for _ in basis] for _ in range(2)]
    inside = [tuple(sum((v[j] * w for v, w in zip(basis, ws)), field.zero)
                    for j in range(cols)) for ws in weights]
    solved = Matrix(field, basis, cols).transpose().solve_columns(
        Matrix.from_cols(field, inside))
    coords = echelon_coordinates(field, basis, inside)
    if coords is None or solved is None or coords.transpose().data != solved.data:
        bad.append("echelon_coordinates")
    off = [j for j in range(cols) if j not in pivots]
    if off:
        moved = list(inside[0])
        moved[rng.choice(off)] += field.one
        if echelon_coordinates(field, basis, [inside[1], moved]) is not None:
            bad.append("echelon_coordinates off the span")
    return bad


def echelon_reading_suite(cases=CASES, seed=909):
    """echelon_mismatches, on both elimination paths, on every
    elimination_cases matrix with at least one column (full column rank,
    rank-deficient and zero ones among them), then on the systems of no
    equations in 1, 5 and 12 unknowns over Q, Q(sqrt 5) and Q(sqrt -3)."""
    rng = random.Random(seed + 1)
    systems = [m for m, _ in elimination_cases(cases, seed) if m.cols]
    systems += [Matrix(field, [], cols) for field in (QQ, QSQRT5, Field(-3))
                for cols in (1, 5, 12)]
    return [k for k, m in enumerate(systems) if on_both_paths(echelon_mismatches, m, rng)]


def rand_symmetric(rng, field, n):
    square = Matrix.from_rows(field, [[rand_element(rng, field) for _ in range(n)]
                                      for _ in range(n)])
    return square + square.transpose()


def symmetric_form_suite(cases=CASES, seed=1010):
    """Over Q, Q(sqrt 5) and Q(sqrt -1), n = 1..6: gram inverts quadric,
    quadric(B) at x is B(x, x), a sym_row dotted with the pair vector of a
    symmetric X is its functional at X, and from_pairs reads X back from
    that vector."""
    rng = random.Random(seed)
    fields = [QQ, QSQRT5, Field(-1)]
    bad = []
    for case in range(cases):
        field, n = fields[case % 3], case % 6 + 1
        B = SymForm(rand_symmetric(rng, field, n))
        X = rand_symmetric(rng, field, n)
        f = [[rand_element(rng, field) for _ in range(n)] for _ in range(n)]
        x = [rand_element(rng, field) for _ in range(n)]
        pair_vector = [X[u, v] for u, v in sym_pairs(n)]
        functional = sum((f[u][v] * X[u, v] for u in range(n) for v in range(n)),
                         field.zero)
        ok = gram(quadric(B)) == B
        ok = ok and quadric(B).evaluate(x) == B.apply(x, x)
        ok = ok and vec_dot(sym_row(n, lambda u, v: f[u][v]), pair_vector) == functional
        ok = ok and SymForm.from_pairs(field, n, pair_vector).matrix == X
        if not ok:
            bad.append(case)
    return bad


def rand_subspace(rng, field, shared=()):
    """A random subspace of P^3 spanned by up to four small vectors (so
    possibly empty or degenerate), plus any shared vectors."""
    vectors = [tuple(rand_element(rng, field, 2) for _ in range(4))
               for _ in range(rng.randint(0, 4))]
    return ProjSubspace(field, 3, vectors + list(shared))


def rand_subspace_of_size(rng, field, size, shared=()):
    """A random subspace of P^3 whose cone basis has the given size: the
    shared vectors plus small random ones, redrawn until independent."""
    while True:
        vectors = [tuple(rand_element(rng, field, 2) for _ in range(4))
                   for _ in range(size - len(shared))]
        sub = ProjSubspace(field, 3, list(shared) + vectors)
        if len(sub.basis) == size:
            return sub


def reference_incident(first, second) -> bool:
    """The stacked-rank incidence that ProjSubspace.incident replaced: by the
    Grassmann formula the cones meet in a nonzero vector exactly when their
    stacked bases have rank below the sum of their sizes."""
    sizes = len(first.basis) + len(second.basis)
    return Matrix(first.field, first.basis + second.basis).rank() < sizes


def incidence_suite(cases=CASES, seed=707):
    """On pairs of lines of P^3 over Q, Q(sqrt 5) and Q(sqrt -3), sharing
    vectors so that meeting pairs occur, incident agrees with the stacked
    rank and with the meet, and both meeting and skew pairs occur; a pair of
    any other shape raises PreconditionError.  contains agrees with the meet and with containing
    each basis point, empty subspaces included."""
    rng = random.Random(seed)
    bad, met = [], 0
    for case in range(cases):
        field = (QQ, QSQRT5, QSQRT_3)[case % 3]
        left = rand_subspace_of_size(rng, field, 2)
        shared = left.basis[:rng.randint(0, 2)]
        right = rand_subspace_of_size(rng, field, 2, shared)
        meets = left.meet(right).dim >= 0
        met += meets
        ok = left.incident(right) == right.incident(left) == meets
        ok = ok and reference_incident(left, right) == meets

        first = rand_subspace(rng, field)
        shared = first.basis[:rng.randint(0, len(first.basis))]
        second = rand_subspace(rng, field, shared)
        meet = first.meet(second)
        if (len(first.basis), len(second.basis)) != (2, 2):
            try:
                first.incident(second)
                ok = False
            except PreconditionError:
                pass
        points = [ProjSubspace(field, 3, [v]) for v in second.basis]
        ok = ok and first.contains(second) == (meet == second)
        ok = ok and first.contains(second) == all(first.contains(p) for p in points)
        ok = ok and all(first.contains(p) == (first.meet(p) == p) for p in points)
        if not ok:
            bad.append(case)
    if not 0 < met < cases:
        bad.append(f"{met} of {cases} line pairs meet")
    return bad


def reference_contact_order(curve, point, direction) -> int:
    """The restriction rule that tangent_orders replaced: the vanishing order
    at t = 0 of the curve on the line s*point + t*direction, or deg + 1 when
    the line lies in the curve."""
    restricted = curve.substitute([HomPoly.linear_form(curve.field, pair)
                                   for pair in zip(point, direction)])
    if restricted.is_zero():
        return curve.degree + 1
    return min(e[1] for e in restricted.coeffs)


def rand_binary(rng, field, degree):
    """A random form of the given degree in the first two of three variables."""
    return HomPoly(field, 3, degree, {(a, degree - a, 0): rand_element(rng, field, 3)
                                      for a in range(degree + 1)})


def rand_invertible(rng, field):
    while True:
        chart = Matrix.from_rows(field, [[rng.randint(-3, 3) for _ in range(3)]
                                         for _ in range(3)])
        if not chart.det().is_zero():
            return chart


# tangent directions (u : v) at the vertex (0 : 0 : 1), pairwise independent
DIRECTIONS = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (3, -1)]


def over(field, poly):
    """A form over Q read over the quadratic field."""
    return HomPoly(field, poly.nvars, poly.degree,
                   {e: field.scalar(c.u) for e, c in poly.coeffs.items()})


def contact_order_suite(cases=CASES, seed=1212):
    """Curves of degree 2 to 5 through a point, over Q and Q(sqrt 5), whose
    tangent cone is a product of rational lines and, in every third case
    over Q, of the conjugate pair u^2 - D v^2.  The first factor meets the
    curve with a forced order m + 1 .. d + 1 (d + 1: it lies in the curve).
    A random change of coordinates moves the point off the coordinate
    vertex.  tangent_orders agrees with the restriction rule, one entry per
    distinct tangent; a conjugate pair is restricted over Q(sqrt D)."""
    rng = random.Random(seed)
    bad = []
    for case in range(cases):
        field = QSQRT5 if case % 2 else QQ
        d = rng.randint(2, 5)
        conjugate = case % 6 == 0 and d >= 3
        m = rng.randint(1 + conjugate, min(3 + conjugate, d))
        rational = m - 2 * conjugate
        dirs = rng.sample(DIRECTIONS, rng.randint(min(1, rational), rational))
        exps = [1] * len(dirs)
        for _ in range(rational - len(dirs)):
            exps[rng.randrange(len(dirs))] += 1
        factors = [HomPoly.linear_form(field, (field.scalar(-v), field.scalar(u), 0))
                   .scale(field.scalar(rng.randint(1, 4), rng.randint(0, 2) * bool(field.s)))
                   for u, v in dirs]
        if conjugate:
            sqrt_of = rng.choice([2, 3, -1, -3])
            factors.insert(0, HomPoly(field, 3, 2, {(2, 0, 0): field.one,
                                                    (0, 2, 0): field.scalar(-sqrt_of)}))
            exps.insert(0, 1)
        cone = HomPoly.constant(field, 3, 1)
        for factor, e in zip(factors, exps):
            cone = cone * factor ** e
        order = d + 1 if case % 5 == 0 else rng.randint(m + 1, d + 1)
        local = cone * HomPoly.variable(field, 3, 2) ** (d - m)
        for j in range(m + 1, d + 1):
            layer = (factors[0] * rand_binary(rng, field, j - factors[0].degree)
                     if j < order else rand_binary(rng, field, j))
            local = local + layer * HomPoly.variable(field, 3, 2) ** (d - j)
        chart = rand_invertible(rng, field) if case % 4 else Matrix.identity(field, 3)
        inverse = chart.inverse()
        curve = local.substitute([HomPoly.linear_form(field, inverse.row(a))
                                  for a in range(3)])
        point = chart.col(2)
        expected = [reference_contact_order(curve, point, chart.apply((u, v, 0)))
                    for u, v in dirs]
        if conjugate:
            ext = Field(sqrt_of)
            root = ext.scalar(0, 1)
            ext_chart = Matrix.from_rows(ext, [[ext.scalar(c.u) for c in chart.row(a)]
                                               for a in range(3)])
            expected += [reference_contact_order(over(ext, curve), ext_chart.col(2),
                                                 ext_chart.apply((sign * root, 1, 0)))
                         for sign in (1, -1)]
        ls = local_singularity(curve, point)
        if ls.multiplicity != m or sorted(ls.tangent_orders) != sorted(expected):
            bad.append(case)
    return bad


def test_interpolation_reproduces_the_data():
    assert interpolation_suite() == []


def test_gcd_is_a_common_divisor_of_sympy_degree():
    assert gcd_suite() == []


def test_scalar_arithmetic_matches_fraction_pairs():
    assert scalar_arithmetic_suite() == []


def test_certified_elimination_matches_reference():
    assert elimination_suite() == []


def test_echelon_reading_matches_two_eliminations():
    assert echelon_reading_suite() == []


def test_incidence_matches_meet():
    assert incidence_suite() == []


def test_tangent_orders_match_the_restriction_rule():
    assert contact_order_suite() == []


def test_symmetric_form_helpers_agree():
    assert symmetric_form_suite() == []


def test_contract_product_rule_and_commutation():
    assert contract_leibniz_suite() == []


def test_kernel_and_minor_annihilation():
    assert kernel_annihilation_suite() == []


def test_canonical_forms_idempotent_and_scale_invariant():
    assert canonical_idempotence_suite() == []


def test_polar_is_an_involution():
    assert polar_involution_suite() == []


def test_bilinear_grid_symmetry_matches_compatibility():
    assert compatibility_symmetry_suite() == []


def test_finite_locus_proves_exactness():
    bad, statuses = exactness_suite()
    assert bad == []
    assert statuses["pass"] >= CASES // 2 and statuses["unresolved"] > 0


def test_eight_line_exactness_matches_probes(eight_line_bundle):
    monad = eight_line_bundle.monad
    assert validate_monad(monad).valid
    hs = probe_vectors(monad, random.Random(1414))
    assert len(hs) == 25 + 8 * 2
    assert all(reference_surjective(monad, h) for h in hs)
