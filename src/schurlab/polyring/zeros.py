"""Common zeros of systems of ternary forms, in exact arithmetic.

Strategy: strip the multivariate gcd of the system (a positive-degree gcd
means the locus has a curve part; sympy computes each gcd in its polynomial
ring over the field's domain, and the candidate must divide exactly), then
reduce the residual zero-dimensional system to coprime pairs.  A coprime pair
is solved by shearing until both forms have constant leading coefficient in
the last variable, eliminating it with a resultant (computed by evaluation
and interpolation), factoring the resulting binary form, and taking gcds
along the fibers.  Whatever the univariate factorizer cannot split over the
field is reported back as a ternary form containing the missing points, never
silently dropped.  Every point returned is re-verified against every
generator; a failed re-check or a broken invariant of the elimination raises
ClaimError.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, count

from sympy.polys.rings import PolyRing

from ..errors import ClaimError, PreconditionError
from ..exact_math import Field, Matrix, Scalar, vec_canonical
from .homopoly import HomPoly, exact_div, interpolation_nodes, lagrange_coeffs, try_exact_div
from .univar import (degree, from_domain, roots_with_multiplicity, sympy_domain,
                     to_domain, trim, univar_gcd)

Point = tuple[Scalar, ...]


def multivariate_gcd(f: HomPoly, g: HomPoly) -> HomPoly:
    """Canonical gcd of two homogeneous polynomials over the field; the sympy
    result is re-verified by exact division before being trusted."""
    assert f.field == g.field and f.nvars == g.nvars
    field = f.field
    if f.is_zero():
        return g.canonical()
    if g.is_zero():
        return f.canonical()
    ring = PolyRing([f"t{i}" for i in range(f.nvars)], sympy_domain(field))
    fr, gr = (ring({e: to_domain(c) for e, c in p.coeffs.items()}) for p in (f, g))
    terms = fr.gcd(gr).terms()
    h = HomPoly(field, f.nvars, sum(terms[0][0]),
                {e: from_domain(field, c) for e, c in terms}).canonical()
    if try_exact_div(f, h) is None or try_exact_div(g, h) is None:
        raise ClaimError("gcd candidate does not divide")
    return h


def gcd_many(polys: list[HomPoly]) -> HomPoly:
    assert polys
    g = polys[0].canonical()
    for p in polys[1:]:
        if g.degree == 0 and not g.is_zero():
            break
        g = multivariate_gcd(g, p)
    return g


def _shear_candidates():
    yield (0, 0)
    for n in count(1):
        for c in range(-n, n + 1):
            for cp in range(-n, n + 1):
                if max(abs(c), abs(cp)) == n:
                    yield (c, cp)


def _apply_shear(p: HomPoly, shear, inverse=False) -> HomPoly:
    field = p.field
    c, cp = shear
    if inverse:
        c, cp = -c, -cp
    x0 = HomPoly.variable(field, 3, 0)
    x1 = HomPoly.variable(field, 3, 1)
    x2 = HomPoly.variable(field, 3, 2)
    return p.substitute([x0 + x2.scale(c), x1 + x2.scale(cp), x2])


def _find_shear(f: HomPoly, g: HomPoly):
    field = f.field
    for c, cp in _shear_candidates():
        pt = (field.scalar(c), field.scalar(cp), field.one)
        if not f.evaluate(pt).is_zero() and not g.evaluate(pt).is_zero():
            return (c, cp)
    raise ClaimError("no admissible shear found")


def _sylvester_det(field: Field, a, b) -> Scalar:
    """Resultant of two scalar polynomials given with exact degrees."""
    m, n = len(a) - 1, len(b) - 1
    size = m + n
    if size == 0:
        return field.one
    rows = []
    for i in range(n):
        row = [field.zero] * size
        for j, c in enumerate(reversed(a)):
            row[i + j] = c
        rows.append(row)
    for i in range(m):
        row = [field.zero] * size
        for j, c in enumerate(reversed(b)):
            row[i + j] = c
        rows.append(row)
    return Matrix(field, rows).det()


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
    variable.  The eliminant has degree deg(f)*deg(g) exactly."""
    assert f.nvars == 3 == g.nvars and f.field == g.field
    assert not f.is_zero() and not g.is_zero()
    field = f.field
    shear = _find_shear(f, g)
    fs, gs = _apply_shear(f, shear), _apply_shear(g, shear)
    total = f.degree * g.degree
    ts = interpolation_nodes(field, total + 1)
    vals = []
    for t in ts:
        a = fs.restrict_univar((t, field.one, None), 2)
        b = gs.restrict_univar((t, field.one, None), 2)
        vals.append(_sylvester_det(field, a, b))
    rc = list(lagrange_coeffs(field, ts, vals))
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
        hf = fs.restrict_univar((al, be, None), 2)
        hg = gs.restrict_univar((al, be, None), 2)
        h = univar_gcd(field, hf, hg)
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
            unresolved_forms.append(_apply_shear(form, shear, inverse=True).canonical())
    for fac, _m in unresolved_base:
        du = len(fac) - 1
        form = HomPoly(field, 3, du,
                       {(i, du - i, 0): fac[i] for i in range(du + 1)})
        unresolved_forms.append(_apply_shear(form, shear, inverse=True).canonical())

    return PairSolution(shear, total, rc, base_roots, unresolved_base,
                        _dedupe_points(points), _dedupe_forms(unresolved_forms))


def _dedupe_points(points: list[Point]) -> list[Point]:
    seen, out = set(), []
    for p in points:
        if p not in seen:
            seen.add(p)
            out.append(p)
    out.sort(key=lambda p: tuple(c.serialize() for c in p))
    return out


def _dedupe_forms(forms: list[HomPoly]) -> list[HomPoly]:
    seen, out = set(), []
    for p in forms:
        cp = p.canonical()
        if cp not in seen:
            seen.add(cp)
            out.append(cp)
    return out


def _gen_key(p: HomPoly):
    return (p.degree, str(p.serialize()))


def _solve(gens: list[HomPoly]) -> tuple[list[Point], list[HomPoly]]:
    uniq, seen = [], set()
    for p in gens:
        cp = p.canonical()
        if cp.is_zero():
            continue
        if cp.degree == 0:
            return [], []
        if cp not in seen:
            seen.add(cp)
            uniq.append(cp)
    if not uniq:
        raise ClaimError("empty generating system")
    uniq.sort(key=_gen_key)
    overall = gcd_many(uniq)
    if overall.degree != 0:
        raise ClaimError("system is not zero-dimensional")

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

    zero_dimensional is False when the generators share a positive-degree
    factor; that factor is returned canonically and the points come from the
    residual system.  Points missed only because an irreducible factor does
    not split over the field are covered by the unresolved forms.
    """
    zero_dimensional: bool
    common_factor: HomPoly | None
    points: list[Point]
    unresolved_forms: list[HomPoly]

    @property
    def fully_resolved(self) -> bool:
        return not self.unresolved_forms


def resolved_common_zeros(polys: list[HomPoly]) -> ZeroLocus:
    assert polys, "no generators given"
    field = polys[0].field
    nz = []
    for p in polys:
        assert p.field == field and p.nvars == 3
        if not p.is_zero():
            nz.append(p)
    if not nz:
        raise PreconditionError("all generators are zero")
    if any(p.degree == 0 for p in nz):
        return ZeroLocus(True, None, [], [])
    g = gcd_many(nz)
    if g.degree >= 1:
        residual = [exact_div(p, g) for p in nz]
        if any(p.degree == 0 for p in residual):
            pts, unres = [], []
        else:
            pts, unres = _solve(residual)
        return ZeroLocus(False, g, pts, unres)
    pts, unres = _solve(nz)
    return ZeroLocus(True, None, pts, unres)
