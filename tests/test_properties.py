"""Seeded property suites over randomly generated instances.

Each suite runs at least one hundred cases from a fixed seed and returns the
list of case indices that violated the property; the tests assert emptiness.
"""
import random
from fractions import Fraction
from math import factorial, gcd, isqrt

from schurlab.exact_math import (Field, Matrix, ProjSubspace, QQ, Scalar, SymForm,
                                 sym_pairs, sym_row, vec_canonical, vec_dot)
from schurlab.exact_math.matrices import from_integral
from schurlab.hulek_monad import MonadData
from schurlab.polyring import HomPoly, LinFormsMatrix, gram, lagrange_coeffs, quadric
from schurlab.polyring.univar import from_domain, to_domain
from test_exact_math import elimination_mismatches
from test_integral_kernels import reference_lagrange_coeffs

QSQRT5 = Field(5)

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
    from schurlab.polyring import monomials
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


def contract_leibniz_suite(cases=CASES, seed=101):
    rng = random.Random(seed)
    bad = []
    for case in range(cases):
        f = rand_poly(rng, 2)
        g = rand_poly(rng, rng.choice([1, 2]))
        u = [rng.randint(-4, 4) for _ in range(3)]
        v = [rng.randint(-4, 4) for _ in range(3)]
        product_rule = ((f * g).contract(u)
                        == f.contract(u) * g + f * g.contract(u))
        commutation = (f.contract(u).contract(v)
                       == f.contract(v).contract(u))
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
        for v in m.left_kernel_basis():
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
    from schurlab.errors import ClaimError
    from schurlab.hulek_monad import select_compatible_form
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
                form = select_compatible_form(QQ, maps, seed=case)
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


def domain_round_trip_suite(cases=CASES, seed=808):
    """Scalars of Q, Q(sqrt 5), Q(sqrt -1) and Q(sqrt -3) come back from
    sympy's domain unchanged."""
    rng = random.Random(seed)
    fields = [QQ, QSQRT5, Field(-1), Field(-3)]
    bad = []
    for case in range(cases):
        field = fields[case % 4]
        sqrt_part = 0 if field.is_rational else rand_scalar(rng, 50).u
        c = field.scalar(rand_scalar(rng, 50).u, sqrt_part)
        if from_domain(field, to_domain(c)) != c:
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
    + - * /, inverse, ** (negative exponents too), conjugate, norm, sqrt,
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
        ok = ok and x.norm() == rx.norm() and type(x.norm()) is Fraction
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


def elimination_suite(cases=CASES, seed=909):
    """rref, rank, kernel_basis, solve, det and inverse of the certified core
    agree with the reference Gauss-Jordan over Q, Q(sqrt 5), Q(sqrt -1) and
    Q(sqrt -3): random shapes up to 6 x 7, empty and zero matrices, rank
    deficiency from repeated combinations of rows, and entries with large
    numerators and denominators."""
    rng = random.Random(seed)
    fields = [QQ, QSQRT5, Field(-1), Field(-3)]
    bad = []
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
        if elimination_mismatches(Matrix.from_rows(field, data), b):
            bad.append(case)
    return bad


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


def incidence_suite(cases=CASES, seed=707):
    """incident, contains and contains_vector agree with the meet and with
    the vector-by-vector definition, empty subspaces included."""
    rng = random.Random(seed)
    bad = []
    for case in range(cases):
        field = QSQRT5 if case % 4 == 3 else QQ
        first = rand_subspace(rng, field)
        shared = first.basis[:rng.randint(0, len(first.basis))]
        second = rand_subspace(rng, field, shared)
        meet = first.meet(second)
        ok = first.incident(second) == second.incident(first) == (not meet.is_empty())
        ok = ok and first.contains(second) == (meet == second)
        ok = ok and first.contains(second) == all(
            first.contains_vector(v) for v in second.basis)
        for v in second.basis:
            point = ProjSubspace(field, 3, [v])
            ok = ok and first.contains_vector(v) == (first.meet(point) == point)
        if not ok:
            bad.append(case)
    return bad


def test_interpolation_reproduces_the_data():
    assert interpolation_suite() == []


def test_domain_round_trip():
    assert domain_round_trip_suite() == []


def test_scalar_arithmetic_matches_fraction_pairs():
    assert scalar_arithmetic_suite() == []


def test_certified_elimination_matches_reference():
    assert elimination_suite() == []


def test_incidence_by_rank_matches_meet():
    assert incidence_suite() == []


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
