"""Common zeros of systems of ternary forms, in exact arithmetic.

Strategy: strip the multivariate gcd of the system (a positive-degree gcd
means the locus has a curve part), then reduce the residual
zero-dimensional system to coprime pairs.  Both steps shear a pair until
both forms have constant leading coefficient in the last variable and
clear each form once into its table along the sheared pencil of lines
(_pencil_table); every restriction to a line reads that table, at integer
nodes (_at_node) or at a field point of the base (_at_point), and goes
through the one subresultant PRS.  A gcd is interpolated from the PRS's
last members at the nodes and returned only once it divides both forms
exactly.  A coprime pair is solved by eliminating the last variable with a
resultant (the PRS's resultants at the nodes, interpolated), factoring the
resulting binary form, and taking gcds along the fibers over its roots.
Whatever the univariate factorizer cannot split over the field is reported
back as a ternary form containing the missing points, never silently
dropped.  Every point returned is re-verified against every generator; a
failed re-check or a broken invariant of the elimination raises
ClaimError.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import comb, factorial

from ..errors import ClaimError, PreconditionError
from ..exact_math import Scalar, vec_canonical
from ..exact_math.matrices import clear_denominators, from_integral, integral_ring
from .homopoly import HomPoly, exact_div, lagrange_coeffs
from .univar import degree, monic, roots_with_multiplicity, subresultant_prs, trim

Point = tuple[Scalar, ...]


def multivariate_gcd(f: HomPoly, g: HomPoly) -> HomPoly:
    """Canonical gcd of two ternary forms over the field, by evaluation at
    integer nodes (Brown, "On Euclid's algorithm and the computation of
    polynomial greatest common divisors", J. ACM 18, 1971).

    A shear makes both forms lead in x2 with a nonzero constant, and then
    every common factor does too.  So at each node t the gcd of the
    restrictions to the line (t, 1, x2) of the sheared pencil, the last
    member of their subresultant PRS, has degree at least the gcd's, and a
    node gcd of degree 0 proves the forms coprime.  Otherwise, with D the
    least degree met, the monic node gcds of degree D at D + 1 consecutive
    nodes are interpolated (lagrange_coeffs) into a form of degree D, monic
    in x2, which is unsheared and returned only if it divides both sheared
    forms exactly (_divides, in integers): a common divisor of degree D, at
    least the gcd's, is the gcd.  A node is unlucky, its gcd too large, only
    at a root of the resultant of the cofactors, of degree at most
    N = deg f * deg g; so the first (N + 1)(m + 1) nodes, m = min(deg f,
    deg g), hold m + 1 consecutive lucky ones, and if no candidate has
    divided by then, ClaimError."""
    assert f.nvars == 3 == g.nvars and f.field == g.field
    field = f.field
    if f.is_zero():
        return g.canonical()
    if g.is_zero():
        return f.canonical()
    one = HomPoly.constant(field, 3, 1)
    if f.degree == 0 or g.degree == 0:
        return one
    shear = _find_shear(f, g)
    ring = integral_ring(field.s)
    tables = [_pencil_table(p, shear)[1] for p in (f, g)]
    least, run = None, []
    nodes = (f.degree * g.degree + 1) * (min(f.degree, g.degree) + 1)
    for t in range(nodes):
        last, _ = subresultant_prs(*(_at_node(ring, rows, t) for rows in tables), field.s)
        d = len(last) - 1
        if d == 0:
            return one
        if least is None or d < least:
            least, run = d, []
        elif d > least:
            run = []
            continue
        run.append(monic([from_integral(field, x, 1) for x in last]))
        if len(run) < d + 1:
            continue
        rows, scale = _interpolated_gcd(field, run, t - d)
        if all(_divides(ring, rows, table) for table in tables):
            h = HomPoly(field, 3, d, {(m, d - k - m, k): from_integral(field, x, scale)
                                      for k, row in enumerate(rows) for m, x in enumerate(row)})
            return _unshear(h, shear).canonical()
        run.pop(0)
    raise ClaimError(f"no interpolated gcd candidate divides both forms in {nodes} nodes")


def _pencil_table(p: HomPoly, shear) -> tuple[int, list[list]]:
    """(den, rows): p(t + c x, 1 + c' x, x) for the shear (c, c'), the
    restriction of p along the sheared pencil of lines, as integral
    coefficients over den, the positive denominator of _sheared, which no
    gcd or division sees: rows[k][m] multiplies t^m x^k, with t of degree
    <= deg p - k by homogeneity.  The row of x^(deg p) is the one constant
    p(c, c', 1) * den, nonzero at a shear _find_shear picks."""
    d = p.degree
    zero = integral_ring(p.field.s).zero
    den, ints = _sheared(p, shear)
    return den, [[ints.get((m, d - k - m, k), zero) for m in range(d - k + 1)]
                 for k in range(d + 1)]


def _at_node(ring, rows, t: int) -> list:
    """The pencil table rows restricted to the line at the integer node t:
    the coefficient of x^k is the sum over m of rows[k][m] t^m."""
    powers = [t ** m for m in range(len(rows))]
    return [ring.combine(row, powers) for row in rows]


def _at_point(field, rows, point) -> list:
    """The pencil table rows restricted to the line over the point (a, b) of
    the base, a field point cleared to (a', b') over pden: the coefficient
    of x^k is the sum over m of rows[k][m] a'^m b'^(d - k - m) pden^k, by
    homogeneity pden^d times the restriction at (a, b) itself."""
    ring = integral_ring(field.s)
    mul = ring.mul
    pden, (a, b) = clear_denominators(field, point)
    d = len(rows) - 1
    pa, pb = [ring.one], [ring.one]
    for _ in range(d):
        pa.append(mul(pa[-1], a))
        pb.append(mul(pb[-1], b))
    return [mul(ring.embed(pden ** k), ring.dot(row, [mul(pa[m], pb[d - k - m])
                                                      for m in range(len(row))]))
            for k, row in enumerate(rows)]


def _lagrange(values: list, offset: int, s: int | None) -> list:
    """lagrange_coeffs of values in Z, or in Z[sqrt(s)] one component at a
    time."""
    if s is None:
        return lagrange_coeffs(values, offset)
    return list(zip(*(lagrange_coeffs(list(part), offset) for part in zip(*values))))


def _interpolated_gcd(field, run, start: int) -> tuple[list[list], int]:
    """(rows, scale): the pencil table, times the integer scale, of the form
    of degree D, monic in x2, whose coefficient of x2^k has degree <= D - k
    in t and whose restriction at the node start + a is the monic run[a],
    a = 0, ..., D.  The run is cleared to one denominator, so each
    coefficient is one integral lagrange_coeffs, per component over
    Z[sqrt(s)]."""
    d = len(run) - 1
    den, ints = clear_denominators(field, [c for node in run for c in node[:-1]])
    scale = factorial(d) * den
    rows = [_lagrange(ints[k::d], -start, field.s)[:d - k + 1] for k in range(d)]
    rows.append([integral_ring(field.s).embed(scale)])
    return rows, scale


def _divides(ring, divisor, rows) -> bool:
    """Whether the pencil table divisor, whose row of x^D is one nonzero
    constant, divides the table rows exactly: their pseudo-remainder as
    polynomials in x over Z[t] or Z[sqrt(s)][t] is zero.  Each step
    multiplies the remainder by that constant and subtracts the top row
    times the divisor; homogeneity keeps every product within its row."""
    zero, mul, sub = ring.zero, ring.mul, ring.sub
    lead, d = divisor[-1][0], len(divisor) - 1
    rem = [list(row) for row in rows]
    while len(rem) > d:
        top = rem.pop()
        if all(x == zero for x in top):
            continue
        rem = [[mul(lead, x) for x in row] for row in rem]
        shift = len(rem) - d
        for j, h in enumerate(divisor[:-1]):
            target = rem[shift + j]
            for a, x in enumerate(top):
                for b, y in enumerate(h):
                    target[a + b] = sub(target[a + b], mul(x, y))
    return all(x == zero for row in rem for x in row)


def gcd_many(polys: list[HomPoly]) -> HomPoly:
    assert polys
    g = polys[0].canonical()
    for p in polys[1:]:
        if g.degree == 0 and not g.is_zero():
            break
        g = multivariate_gcd(g, p)
    return g


def _sheared(p: HomPoly, shear) -> tuple[int, dict]:
    """(den, ints): p(x0 + c x2, x1 + c' x2, x2) for the shear (c, c') is
    ints[e] / den at each exponent e, expanded by the binomial theorem from
    p's coefficients cleared to Z or Z[sqrt(s)] over den."""
    c, cp = shear
    den, cs = clear_denominators(p.field, p.coeffs.values())
    cells: dict = {}
    for (e0, e1, e2), coeff in zip(p.coeffs, cs):
        for j in range(e0 + 1):
            for i in range(e1 + 1):
                weight = comb(e0, j) * comb(e1, i) * c ** j * cp ** i
                if weight:
                    xs, ws = cells.setdefault((e0 - j, e1 - i, e2 + j + i), ([], []))
                    xs.append(coeff)
                    ws.append(weight)
    combine = integral_ring(p.field.s).combine
    return den, {e: combine(xs, ws) for e, (xs, ws) in cells.items()}


def _unshear(p: HomPoly, shear) -> HomPoly:
    """p(x0 - c x2, x1 - c' x2, x2), a form in sheared coordinates mapped
    back to the original ones."""
    c, cp = shear
    den, ints = _sheared(p, (-c, -cp))
    return HomPoly(p.field, 3, p.degree, {e: from_integral(p.field, x, den)
                                          for e, x in ints.items()})


def _find_shear(f: HomPoly, g: HomPoly):
    """The first shear (c, c') at which neither form vanishes at (c, c', 1),
    each value a combination of the form's cleared coefficients, ring by
    ring in max(|c|, |c'|).  With D = deg f + deg g, a nonzero f*g(c, c', 1)
    has degree at most D in each of c, c', so it cannot vanish on the grid
    max(|c|, |c'|) <= ceil(D/2), whose sides have more than D points."""
    ring = integral_ring(f.field.s)
    cleared = [(p.coeffs, clear_denominators(p.field, p.coeffs.values())[1]) for p in (f, g)]
    bound = (f.degree + g.degree + 1) // 2
    grid = product(range(-bound, bound + 1), repeat=2)
    for c, cp in sorted(grid, key=lambda e: max(map(abs, e))):
        if all(ring.combine(cs, [c ** e0 * cp ** e1 for e0, e1, _ in exps]) != ring.zero
               for exps, cs in cleared):
            return (c, cp)
    raise ClaimError("no admissible shear found")


@dataclass
class PairSolution:
    """Zero locus data for a coprime pair of ternary forms.

    Base roots and the eliminant live in sheared coordinates; points and
    unresolved forms are mapped back to the original coordinates.
    """
    shear: tuple[int, int]
    total_degree: int
    resultant_coeffs: list[Scalar]
    base_roots: list[tuple[tuple[Scalar, Scalar], int]]
    unresolved_base: list[tuple[list[Scalar], int]]
    points: list[Point]
    unresolved_forms: list[HomPoly]


def solve_pair(f: HomPoly, g: HomPoly) -> PairSolution:
    """Common zeros of two coprime ternary forms by elimination of the last
    variable.  The eliminant has degree deg(f)*deg(g) exactly.  Both forms
    are sheared into one pencil table each (_pencil_table), which every
    restriction reads: at the integer nodes for the eliminant, at the base
    roots for the fibers."""
    assert f.nvars == 3 == g.nvars and f.field == g.field
    if f.is_zero() or g.is_zero():
        raise PreconditionError("solve_pair needs two nonzero forms")
    field, s = f.field, f.field.s
    ring = integral_ring(s)
    shear = _find_shear(f, g)
    (den_f, rows_f), (den_g, rows_g) = _pencil_table(f, shear), _pencil_table(g, shear)
    total = f.degree * g.degree
    # the eliminant at total + 2 consecutive nodes a - h, the resultant of
    # the restrictions, which lie over den_f and den_g at every node.  The
    # last node checks the others: the interpolant's top coefficient, the
    # last forward difference, must be 0, and every value enters it, so a
    # wrong one shows.
    h = total // 2
    dets = [subresultant_prs(_at_node(ring, rows_f, a - h), _at_node(ring, rows_g, a - h), s)[1]
            for a in range(total + 2)]
    coeffs = _lagrange(dets, h, s)
    if coeffs.pop() != ring.zero:
        raise ClaimError("interpolated eliminant misses its check node")
    scale = factorial(total + 1) * den_f ** g.degree * den_g ** f.degree
    rc = [from_integral(field, c, scale) for c in coeffs]
    if not trim(rc):
        raise ClaimError("zero eliminant: the forms were not coprime")

    roots, unresolved_base = roots_with_multiplicity(field, rc)
    base_roots = [((r, field.one), m) for r, m in roots]
    inf_mult = total - degree(rc)
    if inf_mult > 0:
        base_roots.append(((field.one, field.zero), inf_mult))

    points: list[Point] = []
    unresolved_forms: list[HomPoly] = []
    cs = (field.scalar(shear[0]), field.scalar(shear[1]))
    for (al, be), _mult in base_roots:
        # the fiber gcd: the last member of the PRS of the restrictions
        last, _ = subresultant_prs(_at_point(field, rows_f, (al, be)),
                                   _at_point(field, rows_g, (al, be)), s)
        h = monic([from_integral(field, x, 1) for x in last])
        if degree(h) < 1:
            raise ClaimError("eliminant root with empty fiber")
        froots, funres = roots_with_multiplicity(field, h)
        for tau, _m in froots:
            p = (al + cs[0] * tau, be + cs[1] * tau, tau)
            if not (f.evaluate(p).is_zero() and g.evaluate(p).is_zero()):
                raise ClaimError("a fiber root is not on both forms")
            points.append(vec_canonical(p))
        for fac, _m in funres:
            du = len(fac) - 1
            if not be.is_zero():
                form = HomPoly(field, 3, du,
                               {(0, du - i, i): fac[i] for i in range(du + 1)})
            else:
                form = HomPoly(field, 3, du,
                               {(du - i, 0, i): fac[i] for i in range(du + 1)})
            unresolved_forms.append(_unshear(form, shear).canonical())
    for fac, _m in unresolved_base:
        du = len(fac) - 1
        form = HomPoly(field, 3, du,
                       {(i, du - i, 0): fac[i] for i in range(du + 1)})
        unresolved_forms.append(_unshear(form, shear).canonical())

    return PairSolution(shear, total, rc, base_roots, unresolved_base,
                        _dedupe_points(points), _dedupe_forms(unresolved_forms))


def _point_key(p: Point) -> tuple:
    return tuple(c.serialize() for c in p)


def sorted_points(points) -> list[tuple]:
    """Serialized points in one order, for comparing point sets."""
    return sorted(map(_point_key, points))


def _dedupe_points(points: list[Point]) -> list[Point]:
    return sorted(set(points), key=_point_key)


def _dedupe_forms(forms: list[HomPoly]) -> list[HomPoly]:
    return list(dict.fromkeys(p.canonical() for p in forms))


def _gen_key(p: HomPoly):
    return (p.degree, str(p.serialize()))


def _solve(gens: list[HomPoly]) -> tuple[list[Point], list[HomPoly]]:
    canon = (p.canonical() for p in gens)
    uniq = sorted(dict.fromkeys(p for p in canon if not p.is_zero()), key=_gen_key)
    if any(p.degree == 0 for p in uniq):
        return [], []
    if not uniq:
        raise ClaimError("empty generating system")
    split = None
    for i, j in combinations(range(len(uniq)), 2):
        d = multivariate_gcd(uniq[i], uniq[j])
        if d.degree == 0:
            ps = solve_pair(uniq[i], uniq[j])
            pts = [p for p in ps.points
                   if all(q.evaluate(p).is_zero() for q in uniq)]
            return _dedupe_points(pts), ps.unresolved_forms
        if split is None:
            split = (i, j, d)
    if split is None:
        raise ClaimError("system is not zero-dimensional")
    i, j, d = split
    others = [uniq[k] for k in range(len(uniq)) if k not in (i, j)]
    a = exact_div(uniq[i], d)
    b = exact_div(uniq[j], d)
    p1, u1 = _solve([d] + others)
    p2, u2 = _solve([a, b] + others)
    pts = [p for p in _dedupe_points(p1 + p2)
           if all(q.evaluate(p).is_zero() for q in uniq)]
    return pts, _dedupe_forms(u1 + u2)


@dataclass
class ZeroLocus:
    """Zero locus report for a system of ternary forms.

    common_factor is the positive-degree factor the generators share, or
    None; the points come from the system with it divided out.  Points
    missed only because an irreducible factor does not split over the field
    are covered by the unresolved forms.
    """
    common_factor: HomPoly | None
    points: list[Point]
    unresolved_forms: list[HomPoly]

    @property
    def zero_dimensional(self) -> bool:
        return self.common_factor is None

    @property
    def fully_resolved(self) -> bool:
        return not self.unresolved_forms

    def is_exactly(self, points) -> bool:
        """Resolved, zero-dimensional, and the given canonical points."""
        return (self.fully_resolved and self.zero_dimensional
                and sorted_points(self.points) == sorted_points(points))


def resolved_common_zeros(polys: list[HomPoly]) -> ZeroLocus:
    """Common zeros of the forms: a positive-degree gcd is the curve part,
    and the points come from the system with it divided out."""
    assert polys, "no generators given"
    field = polys[0].field
    for p in polys:
        assert p.field == field and p.nvars == 3
    nz = [p for p in polys if not p.is_zero()]
    if not nz:
        raise PreconditionError("all generators are zero")
    g = gcd_many(nz)
    if g.degree < 1:
        return ZeroLocus(None, *_solve(nz))
    return ZeroLocus(g, *_solve([exact_div(p, g) for p in nz]))
