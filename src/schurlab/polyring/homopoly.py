"""Homogeneous polynomials over an exact Field, plus matrices of linear forms.

Representation: dict from exponent tuples (summing to the degree) to nonzero
Scalars.  Monomial order is graded lexicographic; within one degree that is
plain lexicographic comparison of exponent tuples, largest first.  Canonical
scaling divides by the leading coefficient, so proportional polynomials have
identical canonical forms.

The zero polynomial carries a nominal degree but combines with any degree.

Evaluation, restriction to a line (restrict_univar), substitution and the
interpolated determinant run in integers: each clears the coefficients, and
the point or the targets, to Z or Z[sqrt(s)] once (clear_denominators),
works with IntegralRing's arithmetic, and divides once per output, when
from_integral makes it a Scalar.  Homogeneity puts every output over one
denominator: den * pden^degree for a value or a restriction at a point
cleared over pden, den * L^m for a form of degree m substituted with targets
cleared over L.  Sums, products and scaling of forms stay on Scalars.
lagrange_coeffs is the one interpolation kernel, in integers on consecutive
nodes: poly_det calls it per lattice row, solve_pair for the eliminant.
"""
from __future__ import annotations

import operator
from functools import lru_cache, reduce
from itertools import combinations
from math import comb, factorial

from ..errors import ClaimError, PreconditionError
from ..exact_math import Field, Matrix, Scalar, SymForm, sym_pairs, sym_row
from ..exact_math.matrices import (clear_denominators, from_integral, integral_det,
                                   integral_ring)


@lru_cache(maxsize=None)
def monomials(nvars: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """All exponent tuples of the given total degree, descending lex."""
    if nvars == 1:
        return ((degree,),)
    out = []
    for e0 in range(degree, -1, -1):
        for rest in monomials(nvars - 1, degree - e0):
            out.append((e0,) + rest)
    return tuple(out)


def _product(ring, p: dict, q: dict) -> dict:
    """Product of two integral polynomials keyed by packed exponents."""
    add, mul = ring.add, ring.mul
    out: dict = {}
    for k1, c1 in p.items():
        for k2, c2 in q.items():
            k = k1 + k2
            got = out.get(k)
            out[k] = mul(c1, c2) if got is None else add(got, mul(c1, c2))
    return out


class HomPoly:
    __slots__ = ("field", "nvars", "degree", "coeffs")

    def __init__(self, field: Field, nvars: int, degree: int, coeffs=None):
        cleaned = {}
        if coeffs:
            for exp, c in coeffs.items():
                c = field.coerce(c)
                if c.is_zero():
                    continue
                exp = tuple(exp)
                if len(exp) != nvars or sum(exp) != degree or any(e < 0 for e in exp):
                    raise PreconditionError(f"bad exponent {exp} for degree {degree} in {nvars} vars")
                cleaned[exp] = c
        self.field = field
        self.nvars = nvars
        self.degree = degree
        self.coeffs = cleaned

    @classmethod
    def _closed(cls, field: Field, nvars: int, degree: int, coeffs: dict) -> HomPoly:
        """A polynomial from a ring operation on checked polynomials: the
        coefficients are already nonzero Scalars of the field at valid
        exponents, so nothing is coerced or checked again."""
        poly = object.__new__(cls)
        poly.field = field
        poly.nvars = nvars
        poly.degree = degree
        poly.coeffs = coeffs
        return poly

    @classmethod
    def zero(cls, field: Field, nvars: int, degree: int) -> HomPoly:
        return cls(field, nvars, degree)

    @classmethod
    def monomial(cls, field: Field, exp, coeff=1) -> HomPoly:
        exp = tuple(exp)
        return cls(field, len(exp), sum(exp), {exp: field.coerce(coeff)})

    @classmethod
    def variable(cls, field: Field, nvars: int, i: int) -> HomPoly:
        exp = tuple(1 if j == i else 0 for j in range(nvars))
        return cls.monomial(field, exp)

    @classmethod
    def linear_form(cls, field: Field, coeffs) -> HomPoly:
        coeffs = list(coeffs)
        n = len(coeffs)
        d = {}
        for i, c in enumerate(coeffs):
            exp = tuple(1 if j == i else 0 for j in range(n))
            d[exp] = c
        return cls(field, n, 1, d)

    @classmethod
    def constant(cls, field: Field, nvars: int, value) -> HomPoly:
        return cls(field, nvars, 0, {tuple([0] * nvars): field.coerce(value)})

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, exp) -> Scalar:
        return self.coeffs.get(tuple(exp), self.field.zero)

    def _check_compatible(self, other: HomPoly, same_degree: bool):
        if self.field != other.field or self.nvars != other.nvars:
            raise PreconditionError("polynomials from different rings")
        if same_degree and self.degree != other.degree and not (self.is_zero() or other.is_zero()):
            raise PreconditionError(f"degree mismatch {self.degree} vs {other.degree}")

    def __add__(self, other: HomPoly) -> HomPoly:
        self._check_compatible(other, True)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        out = dict(self.coeffs)
        for exp, c in other.coeffs.items():
            s = out.get(exp)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(exp, None)
            else:
                out[exp] = s
        return HomPoly._closed(self.field, self.nvars, self.degree, out)

    def __neg__(self) -> HomPoly:
        return HomPoly._closed(self.field, self.nvars, self.degree,
                               {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: HomPoly) -> HomPoly:
        return self + (-other)

    def scale(self, c) -> HomPoly:
        c = self.field.coerce(c)
        if c.is_zero():
            return HomPoly.zero(self.field, self.nvars, self.degree)
        return HomPoly._closed(self.field, self.nvars, self.degree,
                               {e: c * v for e, v in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, HomPoly):
            self._check_compatible(other, False)
            deg = self.degree + other.degree
            if self.is_zero() or other.is_zero():
                return HomPoly.zero(self.field, self.nvars, deg)
            out: dict = {}
            for e1, c1 in self.coeffs.items():
                for e2, c2 in other.coeffs.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    s = out.get(e)
                    p = c1 * c2
                    s = p if s is None else s + p
                    if s.is_zero():
                        out.pop(e, None)
                    else:
                        out[e] = s
            return HomPoly._closed(self.field, self.nvars, deg, out)
        if isinstance(other, (int, Scalar)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int) -> HomPoly:
        assert n >= 0
        out = HomPoly.constant(self.field, self.nvars, 1)
        for _ in range(n):
            out = out * self
        return out

    def evaluate(self, point) -> Scalar:
        point = [self.field.coerce(x) for x in point]
        assert len(point) == self.nvars
        ints, scale = self.integral_restriction(point, None)
        return from_integral(self.field, ints[0], scale)

    def partial(self, i: int) -> HomPoly:
        """d/dx_i."""
        if self.degree == 0:
            raise PreconditionError("derivative of a degree-0 polynomial")
        out = {}
        for exp, c in self.coeffs.items():
            if exp[i] == 0:
                continue
            ne = list(exp)
            ne[i] -= 1
            out[tuple(ne)] = c * exp[i]
        return HomPoly(self.field, self.nvars, self.degree - 1, out)

    def contract(self, direction) -> HomPoly:
        """Directional derivative along a constant covector: sum_i f_i d/dx_i."""
        direction = [self.field.coerce(x) for x in direction]
        if len(direction) != self.nvars:
            raise PreconditionError("direction length does not match variable count")
        if self.degree == 0:
            raise PreconditionError("contraction of a degree-0 polynomial")
        out = HomPoly.zero(self.field, self.nvars, self.degree - 1)
        for i, f in enumerate(direction):
            if not f.is_zero():
                out = out + self.partial(i).scale(f)
        return out

    def substitute(self, targets: list[HomPoly]) -> HomPoly:
        """Substitute x_i -> targets[i]; all targets share one ring and the
        nonzero ones one degree e, giving a homogeneous result of degree m*e."""
        assert len(targets) == self.nvars
        f = targets[0].field
        nv = targets[0].nvars
        e = next((t.degree for t in targets if not t.is_zero()), targets[0].degree)
        for t in targets:
            assert t.field == f and t.nvars == nv and (t.degree == e or t.is_zero())
        deg = self.degree * e
        if self.is_zero():
            return HomPoly.zero(f, nv, deg)
        ring = integral_ring(f.s)
        den, cs = clear_denominators(f, self.coeffs.values())
        mult, flat = clear_denominators(f, [c for t in targets for c in t.coeffs.values()])
        # the exponents (e_0, e_1, ...) of a result monomial pack into the
        # integer key sum of e_i * base^i, so multiplying monomials adds keys
        base = deg + 1
        weights = [base ** i for i in range(nv)]
        cleared = iter(flat)
        powers = [[{0: ring.one},
                   {sum(map(operator.mul, exp, weights)): next(cleared) for exp in t.coeffs}]
                  for t in targets]

        def power(i, p):
            table = powers[i]
            while len(table) <= p:
                table.append(_product(ring, table[-1], table[1]))
            return table[p]

        out: dict = {}
        add = ring.add
        for exp, c in zip(self.coeffs, cs):
            term = {0: c}
            for i, p in enumerate(exp):
                if p:
                    term = _product(ring, term, power(i, p))
            for k, v in term.items():
                got = out.get(k)
                out[k] = v if got is None else add(got, v)
        scale = den * mult ** self.degree
        return HomPoly._closed(f, nv, deg, {
            tuple(k // w % base for w in weights): from_integral(f, v, scale)
            for k, v in out.items() if v != ring.zero})

    def leading(self) -> tuple[tuple[int, ...], Scalar]:
        exp = max(self.coeffs)
        return exp, self.coeffs[exp]

    def canonical(self) -> HomPoly:
        if self.is_zero():
            return self
        _, c = self.leading()
        return self.scale(c.inverse())

    def proportional(self, other: HomPoly) -> bool:
        self._check_compatible(other, False)
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        if self.degree != other.degree:
            return False
        return self.canonical().coeffs == other.canonical().coeffs

    def min_exponent(self, i: int) -> int:
        assert not self.is_zero()
        return min(e[i] for e in self.coeffs)

    def coefficient_vector(self, order=None):
        """Coefficients against the descending-lex monomial basis."""
        if order is None:
            order = monomials(self.nvars, self.degree)
        z = self.field.zero
        return tuple(self.coeffs.get(e, z) for e in order)

    @classmethod
    def from_coefficient_vector(cls, field: Field, nvars: int, degree: int, vec) -> HomPoly:
        order = monomials(nvars, degree)
        assert len(vec) == len(order)
        return cls(field, nvars, degree, dict(zip(order, vec)))

    def restrict_univar(self, values, free: int):
        """Plug in scalars for every variable except `free`; return the
        coefficient list [c_0, ..., c_d] of the resulting polynomial in x_free."""
        values = list(values)
        assert len(values) == self.nvars and values[free] is None
        ints, scale = self.integral_restriction(
            [None if i == free else self.field.coerce(x) for i, x in enumerate(values)], free)
        return [from_integral(self.field, x, scale) for x in ints]

    def integral_restriction(self, point, free: int | None):
        """(ints, scale) with ints[k] / scale the coefficient of x_free^k
        after putting the scalars of point in for every other variable (all
        of them when free is None: then ints has one entry, the value).
        The coefficients and the point are cleared to integers once, over
        den and pden; the free variable is put in as pden itself, so by
        homogeneity every coefficient lies over scale = den * pden^degree."""
        field = self.field
        ring = integral_ring(field.s)
        den, cs = clear_denominators(field, self.coeffs.values())
        pden, xs = clear_denominators(field, [x for i, x in enumerate(point) if i != free])
        if free is not None:
            xs.insert(free, ring.embed(pden))
        add, mul = ring.add, ring.mul
        tables = []
        for x in xs:
            table = [ring.one]
            for _ in range(self.degree):
                table.append(mul(table[-1], x))
            tables.append(table)
        out = [ring.zero] * (1 if free is None else self.degree + 1)
        for exp, c in zip(self.coeffs, cs):
            k = 0 if free is None else exp[free]
            out[k] = add(out[k], reduce(mul, map(operator.getitem, tables, exp), c))
        return out, den * pden ** self.degree

    def __eq__(self, other) -> bool:
        if not isinstance(other, HomPoly):
            return NotImplemented
        return (self.field == other.field and self.nvars == other.nvars
                and self.coeffs == other.coeffs
                and (self.degree == other.degree or self.is_zero()))

    def __hash__(self):
        return hash((self.field, self.nvars, tuple(sorted(self.coeffs.items()))))

    def serialize(self):
        """Sorted monomial list [[exponents...], coeff_string], graded-lex descending."""
        return [[list(e), self.coeffs[e].serialize()] for e in sorted(self.coeffs, reverse=True)]

    def __repr__(self):
        if self.is_zero():
            return "0"
        names = [f"x{i}" for i in range(self.nvars)]
        parts = []
        for e in sorted(self.coeffs, reverse=True):
            mono = "*".join(f"{names[i]}^{p}" if p > 1 else names[i]
                            for i, p in enumerate(e) if p)
            c = repr(self.coeffs[e])
            parts.append(f"{c}*{mono}" if mono else c)
        return " + ".join(parts)


def _pair_exponent(n: int, u: int, v: int) -> tuple[int, ...]:
    exp = [0] * n
    exp[u] += 1
    exp[v] += 1
    return tuple(exp)


def quadric(form: SymForm) -> HomPoly:
    """The quadratic form sum over u, v of B[u][v] x_u x_v of the form B."""
    n, B = form.dim, form.matrix
    coeffs = sym_row(n, lambda u, v: B[u, v])
    return HomPoly(form.field, n, 2, {_pair_exponent(n, u, v): c
                                      for (u, v), c in zip(sym_pairs(n), coeffs)})


def gram(q: HomPoly) -> SymForm:
    """The symmetric form B with quadric(B) == q: the coefficient of x_u^2
    on the diagonal, half that of x_u x_v off it."""
    if q.degree != 2:
        raise PreconditionError("a Gram matrix needs a quadratic form")
    n = q.nvars
    return SymForm.from_pairs(q.field, n, [
        q.coeff(_pair_exponent(n, u, v)) / (1 if u == v else 2)
        for u, v in sym_pairs(n)])


def try_exact_div(num: HomPoly, den: HomPoly) -> HomPoly | None:
    """num / den when den divides num exactly (both homogeneous), else None."""
    if den.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if num.is_zero():
        return HomPoly.zero(num.field, num.nvars, max(num.degree - den.degree, 0))
    if num.degree < den.degree:
        return None
    lead_exp, lead_c = den.leading()
    lead_inv = lead_c.inverse()
    rem = num
    q = HomPoly.zero(num.field, num.nvars, num.degree - den.degree)
    while not rem.is_zero():
        rexp, rc = rem.leading()
        qexp = tuple(a - b for a, b in zip(rexp, lead_exp))
        if any(x < 0 for x in qexp):
            return None
        term = HomPoly.monomial(num.field, qexp, rc * lead_inv)
        q = q + term
        rem = rem - term * den
    return q


def exact_div(num: HomPoly, den: HomPoly) -> HomPoly:
    q = try_exact_div(num, den)
    if q is None:
        raise PreconditionError("polynomial division is not exact")
    return q


class LinFormsMatrix:
    """Grid of degree-1 HomPoly; equivalently one constant matrix per variable."""

    __slots__ = ("field", "rows", "cols", "nvars", "entries")

    def __init__(self, field: Field, entries):
        entries = tuple(tuple(entries[i][j] for j in range(len(entries[i])))
                        for i in range(len(entries)))
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        nv = None
        for row in entries:
            assert len(row) == cols
            for p in row:
                assert isinstance(p, HomPoly) and p.field == field
                assert p.degree == 1 or p.is_zero()
                nv = p.nvars if nv is None else nv
                assert p.nvars == nv
        self.field = field
        self.rows = rows
        self.cols = cols
        self.nvars = nv
        self.entries = entries

    @classmethod
    def from_coefficient_matrices(cls, mats: list[Matrix]) -> LinFormsMatrix:
        field = mats[0].field
        nvars = len(mats)
        rows, cols = mats[0].rows, mats[0].cols
        for m in mats:
            assert (m.rows, m.cols) == (rows, cols) and m.field == field
        entries = [[HomPoly.linear_form(field, [mats[k][i, j] for k in range(nvars)])
                    for j in range(cols)] for i in range(rows)]
        return cls(field, entries)

    def coefficient_matrix(self, k: int) -> Matrix:
        exp = tuple(1 if i == k else 0 for i in range(self.nvars))
        return Matrix(self.field, [[self.entries[i][j].coeff(exp)
                                    for j in range(self.cols)] for i in range(self.rows)])

    def evaluate(self, point) -> Matrix:
        return Matrix(self.field, [[p.evaluate(point) for p in row] for row in self.entries])

    def transpose(self) -> LinFormsMatrix:
        return LinFormsMatrix(self.field, list(zip(*self.entries)))

    def submatrix(self, row_idx, col_idx) -> LinFormsMatrix:
        return LinFormsMatrix(self.field, [[self.entries[i][j] for j in col_idx] for i in row_idx])

    def det(self) -> HomPoly:
        return poly_det([[self.entries[i][j] for j in range(self.cols)]
                         for i in range(self.rows)])

    def minors(self, size: int) -> list[HomPoly]:
        out = []
        for ri in combinations(range(self.rows), size):
            for ci in combinations(range(self.cols), size):
                out.append(self.submatrix(ri, ci).det())
        return out

    def signed_maximal_minors(self) -> list[HomPoly]:
        """v_r = (-1)^r det(delete row r) for an n x (n-1) grid; v left-annihilates."""
        if self.cols != self.rows - 1:
            raise PreconditionError("signed maximal minors need an n x (n-1) grid")
        out = []
        for r in range(self.rows):
            rows = [i for i in range(self.rows) if i != r]
            m = self.submatrix(rows, range(self.cols)).det()
            out.append(m if r % 2 == 0 else -m)
        return out

    def serialize(self):
        return [[p.serialize() for p in row] for row in self.entries]

    def __repr__(self):
        return f"LinFormsMatrix({self.rows}x{self.cols}, {self.nvars} vars)"


def _poly_det_direct(grid) -> HomPoly:
    """Cofactor expansion; fine for size <= 3."""
    n = len(grid)
    field = grid[0][0].field
    nv = grid[0][0].nvars
    if n == 1:
        return grid[0][0]
    if n == 2:
        return grid[0][0] * grid[1][1] - grid[0][1] * grid[1][0]
    deg = sum(grid[i][i].degree for i in range(n))
    out = HomPoly.zero(field, nv, deg)
    for j in range(n):
        if grid[0][j].is_zero():
            continue
        sub = [[grid[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = grid[0][j] * _poly_det_direct(sub)
        out = out + (term if j % 2 == 0 else -term)
    return out


def _row_degree(row) -> int | None:
    """The common degree of a grid row's nonzero entries; None for a zero row."""
    degrees = {p.degree for p in row if not p.is_zero()}
    if len(degrees) > 1:
        raise PreconditionError(f"a determinant row mixes degrees {sorted(degrees)}")
    return degrees.pop() if degrees else None


def _forward_differences(values: list) -> list:
    """[f(0), (Delta f)(0), (Delta^2 f)(0), ...] from [f(0), f(1), ...]."""
    out = list(values)
    for k in range(1, len(out)):
        for a in range(len(out) - 1, k - 1, -1):
            out[a] -= out[a - 1]
    return out


def _falling(shift: int, count: int) -> list[list[int]]:
    """Ascending coefficients of the falling factorials
    (x + shift)(x + shift - 1)...(x + shift - j + 1), j = 0, ..., count."""
    out = [[1]]
    for t in range(count):
        last = out[-1]
        out.append([(shift - t) * c + lower for c, lower in zip(last + [0], [0] + last)])
    return out


def lagrange_coeffs(values: list[int], offset: int) -> list[int]:
    """Ascending integer coefficients of m! * p, for the polynomial p of
    degree <= m = len(values) - 1 with p(a - offset) = values[a] at the
    consecutive nodes a = 0, ..., m.  With u = x + offset, Newton's form is
    p = sum over j of (Delta^j p)(0) C(u, j), and m! C(u, j) is m! / j!
    times the falling factorial u (u - 1) ... (u - j + 1), which has integer
    coefficients in x."""
    m = len(values) - 1
    out = [0] * (m + 1)
    for j, (d, falling) in enumerate(zip(_forward_differences(values), _falling(offset, m))):
        if d:
            d *= factorial(m) // factorial(j)
            for q, c in enumerate(falling):
                out[q] += d * c
    return out


def _lattice_interpolant(values: dict, deg: int, offset: int) -> dict:
    """Integer coefficients {(i, j): c} of (deg!)^2 * p, for the polynomial
    p(x, y) of total degree <= deg with p(a - offset, b - offset) equal to
    the integer values[a, b] at every node a + b <= deg.  With u = x + offset
    and v = y + offset, Newton's form in u is p = sum over i <= deg of
    C(u, i) q_i, where q_i(v) = (Delta_u^i p)(0, v) has degree <= deg - i
    and is known at v = 0, ..., deg - i from the forward differences of the
    lattice columns; lagrange_coeffs gives (deg - i)! q_i in y, and
    (deg!)^2 C(u, i) / (deg - i)! = deg! C(deg, i) times a falling factorial."""
    diffs = {}
    for b in range(deg + 1):
        column = _forward_differences([values[a, b] for a in range(deg + 1 - b)])
        diffs.update(((i, b), d) for i, d in enumerate(column))
    out: dict = {}
    for i, falling in enumerate(_falling(offset, deg)):
        weight = factorial(deg) * comb(deg, i)
        in_y = lagrange_coeffs([diffs[i, b] for b in range(deg + 1 - i)], offset)
        for p, c in enumerate(falling):
            for q, cy in enumerate(in_y):
                out[p, q] = out.get((p, q), 0) + weight * c * cy
    return out


def poly_det(grid) -> HomPoly:
    """Determinant of a square grid of homogeneous polynomials in 3 variables
    (all entries one ring, the nonzero entries of each row of one degree,
    else PreconditionError).  Small sizes go by cofactors; larger ones by
    evaluate-and-interpolate, which is exact because the result is
    homogeneous of known degree deg: dehomogenize at x2 = 1, evaluate at the
    C(deg + 2, 2) nodes (a - o, b - o), a + b <= deg, o = deg // 3, of the
    principal lattice, which are unisolvent for degree deg (Chung-Yao), and
    interpolate in integers by Newton forward differences
    (_lattice_interpolant).  Each row's coefficients are cleared to integers
    once, so every node value is an integral Bareiss determinant over the
    product of the row multipliers, and only the final coefficients become
    Scalars.  The interpolant must also match one more determinant, taken at
    the check node (-1 - o, -1 - o) off the lattice, or ClaimError: every
    Lagrange polynomial of the lattice is a product of lines through nodes
    and is nonzero there, so a wrong value at any one node shows."""
    n = len(grid)
    field = grid[0][0].field
    nv = grid[0][0].nvars
    row_degrees = [_row_degree(row) for row in grid]
    if n <= 3:
        return _poly_det_direct(grid)
    if None in row_degrees:
        return HomPoly.zero(field, nv, 0)
    deg = sum(row_degrees)
    if nv != 3:
        raise PreconditionError("interpolated determinant implemented for 3 variables")
    offset = deg // 3
    # tables[i][j]: the exponents (e0, e1) and the integral coefficients of
    # the entry (i, j), cleared per row
    scale = 1
    tables = []
    for row in grid:
        mult, ints = clear_denominators(field, [c for p in row for c in p.coeffs.values()])
        scale *= mult
        cleared = iter(ints)
        tables.append([([e[:2] for e in p.coeffs], [next(cleared) for _ in p.coeffs])
                       for p in row])
    powers = {k: [k ** e for e in range(deg + 1)] for k in range(-1 - offset, deg + 1 - offset)}
    s = field.s
    combine = integral_ring(s).combine

    def det_at(x, y):
        pa, pb = powers[x], powers[y]
        return integral_det([[combine(cs, [pa[i] * pb[j] for i, j in exps])
                              for exps, cs in row] for row in tables], s)

    nodes = [(a, b) for b in range(deg + 1) for a in range(deg + 1 - b)]
    dets = [det_at(a - offset, b - offset) for a, b in nodes]
    check = det_at(-1 - offset, -1 - offset)
    if s is None:
        dets, check = [(x,) for x in dets], (check,)
    square = factorial(deg) ** 2
    at = powers[-1 - offset]
    parts = []
    for part, want in zip(zip(*dets), check):
        coeffs = _lattice_interpolant(dict(zip(nodes, part)), deg, offset)
        if sum(c * at[i] * at[j] for (i, j), c in coeffs.items()) != want * square:
            raise ClaimError("interpolated determinant misses its check node")
        parts.append(coeffs)
    out = {}
    for i, j in parts[0]:
        c = tuple(part[i, j] for part in parts)
        out[i, j, deg - i - j] = from_integral(field, c[0] if s is None else c,
                                               square * scale)
    return HomPoly(field, 3, deg, out)
