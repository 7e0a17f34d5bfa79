"""Built-in worked instances tying the toolkit together.

Each builder synthesizes one classical configuration, runs the matching
pipeline, and returns a FamilyInstance whose ``checks`` dict records every
verified claim by a short stable key.  Builders raise on structural failure
(wrong orbit size, missing incidence) and record softer expectations as
booleans, so a test run can show exactly which claim broke.

The instances:

  * ``clebsch_instance``: the diagonal cubic surface cut on the hyperplane
    {sum x_i = 0} in 5-space, over the golden-ratio field.  Generates the
    two six-line orbits of the even permutation group, pairs them by
    disjointness into a double six, and checks that the orthogonality-route
    quadric is the restriction of sum x_i*y_i.  Then blows the surface down
    to a plane hexad through a quadric net and confirms the hexad pipeline
    reproduces the same surface and the same quadric through an explicit
    change of coordinates.
  * ``bring_instance``: the curve cut on the diagonal cubic by its invariant
    quadric; a seeded plane section must have total degree 6 and every
    resolved section point satisfies the three power-sum equations.
  * ``triangle_monad_n3``: the three-line monad whose minors give the
    standard quadratic plane transformation.
  * ``n2_instance``: the smallest monad, one jumping point, curve n.2 two
    distinct lines through it.
  * ``hulsbergen_shape``: the nearly-diagonal matrix shape attached to n
    concurrent-free lines; minors are the complementary products F_j,
    the image hypersurface satisfies the cleared-denominator equations,
    and the curve of the monad lies in the span of the F_j squared.
  * ``schwarzenberger_detect``: six lines tangent to a conic; the jumping
    scheme goes one-dimensional along the dual conic and the curve is that
    conic cubed.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations

from .detrep import build_detrep, is_double_six, line_on_hypersurface
from .errors import ClaimError, PreconditionError
from .exact_math import (QQ, Field, Matrix, ProjSubspace, SymForm,
                         vec_canonical)
from .hulek_monad import (MonadData, middle_rank_at, select_compatible_form,
                          validate_monad)
from .logbundle import build_logbundle, check_general_position
from .polyring import (HomPoly, monomials, multivariate_gcd, quadric,
                       solve_pair)
from .schurform import orthogonal_form_for_pairs, schur_pair


@dataclass
class FamilyInstance:
    """A named worked example: the constructed payload plus its report card.

    ``notes`` records observations that are reported but deliberately not
    asserted.
    """
    name: str
    field: Field
    payload: dict
    checks: dict
    notes: tuple = ()

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def failed_checks(self) -> list:
        return [k for k, v in self.checks.items() if not v]


# ---------------------------------------------------------------------------
# diagonal cubic surface


def _even_permutations():
    out = []
    for p in permutations(range(5)):
        inv = sum(1 for i in range(5) for j in range(i + 1, 5) if p[i] > p[j])
        if inv % 2 == 0:
            out.append(p)
    return out


def _line_from_equations(field: Field, eqs) -> ProjSubspace:
    """Solution line, in internal hyperplane coordinates, of two covectors on
    5-space taken together with the all-ones covector."""
    ones = [field.one] * 5
    mat = Matrix.from_rows(field, [list(e) for e in eqs] + [ones])
    kern = mat.kernel_basis()
    if len(kern) != 2:
        raise ClaimError("equation pair does not cut a line on the hyperplane")
    # internal coordinates u_m against the basis e_m - e_5 of the hyperplane
    return ProjSubspace(field, 3, [list(v[:4]) for v in kern])


def _lift(field: Field, u):
    """Internal hyperplane coordinates back to 5-space."""
    u = [field.coerce(c) for c in u]
    return u + [-(u[0] + u[1] + u[2] + u[3])]


def _permute_covector(cov, perm):
    out = [None] * 5
    for i, c in enumerate(cov):
        out[perm[i]] = c
    return out


def _orbit_of_line(field: Field, eqs) -> list[ProjSubspace]:
    seen = {}
    for p in _even_permutations():
        line = _line_from_equations(
            field, [_permute_covector(e, p) for e in eqs])
        seen.setdefault(str(line.serialize()), line)
    return [seen[k] for k in sorted(seen)]


def diagonal_cubic(field: Field) -> HomPoly:
    """sum x_i^3 on 5-space restricted to the hyperplane, in the internal
    coordinates u_1..u_4."""
    total = HomPoly.linear_form(field, [1, 1, 1, 1])
    f = HomPoly.zero(field, 4, 3) - total * total * total
    for m in range(4):
        e = [0] * 4
        e[m] = 3
        f = f + HomPoly.monomial(field, tuple(e), field.one)
    return f


def _gram_form(field: Field) -> SymForm:
    """Restriction of sum x_i*y_i to the hyperplane, on the internal basis."""
    rows = []
    for m in range(4):
        em = [field.one if i == m else field.zero for i in range(4)]
        bm = _lift(field, em)
        row = []
        for n in range(4):
            en = [field.one if i == n else field.zero for i in range(4)]
            bn = _lift(field, en)
            row.append(sum((a * b for a, b in zip(bm, bn)), field.zero))
        rows.append(row)
    return SymForm.from_rows(field, rows)


def _pair_by_disjointness(first, second):
    pairing = []
    for a in first:
        partners = [j for j, b in enumerate(second) if not a.incident(b)]
        if len(partners) != 1:
            raise ClaimError(
                f"line has {len(partners)} disjoint partners, expected 1")
        pairing.append(partners[0])
    if sorted(pairing) != list(range(len(second))):
        raise ClaimError("disjointness does not induce a bijection")
    return pairing


def _cross_join_line(a1, b2, a2, b1) -> ProjSubspace:
    """The transversal through the double six slots (1,2): intersection of
    the plane through a1, b2 with the plane through a2, b1."""
    p = a1.join(b2)
    q = a2.join(b1)
    if p.dim != 2 or q.dim != 2:
        raise ClaimError("incident line pair does not span a plane")
    line = p.meet(q)
    if line.dim != 1:
        raise ClaimError("transversal is not a line")
    return line


def _quadrics_through_lines(field: Field, lines) -> list[HomPoly]:
    """Basis of the quadrics on the 4-space vanishing on the given lines."""
    order = monomials(4, 2)
    rows = []
    for line in lines:
        pvec, qvec = line.basis
        cols = []
        for exp in order:
            mono = HomPoly.monomial(field, exp, field.one)
            targets = [HomPoly.linear_form(field, [pvec[m], qvec[m]])
                       for m in range(4)]
            cols.append(mono.substitute(targets).coefficient_vector())
        for k in range(3):
            rows.append([c[k] for c in cols])
    kern = Matrix.from_rows(field, rows).kernel_basis()
    return [HomPoly.from_coefficient_vector(field, 4, 2, v) for v in kern]


def _net_image(net, x):
    vals = tuple(q.evaluate(x) for q in net)
    if all(v.is_zero() for v in vals):
        return None
    return vec_canonical(vals)


def _line_sample_points(field: Field, line, count: int = 4):
    p, q = line.basis
    combos = [(1, 0), (0, 1), (1, 1), (1, 2), (1, -1), (2, 1)][:count]
    pts = []
    for s, t in combos:
        s, t = field.scalar(s), field.scalar(t)
        pts.append(tuple(s * a + t * b for a, b in zip(p, q)))
    return pts


def _fit_projectivity(field: Field, samples) -> Matrix:
    """4x4 change of coordinates through >= 5 point correspondences, as the
    kernel of the stacked antisymmetrized constraints."""
    rows = []
    for x, y in samples:
        for a, b in combinations(range(4), 2):
            row = [field.zero] * 16
            for c in range(4):
                row[4 * a + c] = row[4 * a + c] + x[c] * y[b]
                row[4 * b + c] = row[4 * b + c] - x[c] * y[a]
            rows.append(row)
    kern = Matrix.from_rows(field, rows).kernel_basis()
    if len(kern) != 1:
        raise ClaimError(f"coordinate-fit kernel dim {len(kern)}, expected 1")
    t = kern[0]
    mat = Matrix.from_rows(field, [list(t[4 * r:4 * r + 4]) for r in range(4)])
    if mat.det().is_zero():
        raise ClaimError("fitted coordinate change is singular")
    return mat


def _map_line(mat: Matrix, line: ProjSubspace) -> ProjSubspace:
    return ProjSubspace(mat.field, mat.rows - 1,
                        [list(mat.apply(v)) for v in line.basis])


def clebsch_instance() -> FamilyInstance:
    """The diagonal cubic surface with its even-permutation double six.

    Hard errors when the orbits do not have six lines each or the double six
    incidence fails; everything else lands in the checks dict.
    """
    field = Field(5)
    half = Fraction(1, 2)
    phi = field.scalar(half, half)        # (1 + sqrt 5) / 2
    psi = field.scalar(half, -half)       # (1 - sqrt 5) / 2
    one, zero = field.one, field.zero

    # the second seed line is the quadratic conjugate of the first; its even
    # orbit is the odd-coset half of the full 12-line permutation orbit
    eqs_l = [[one, phi, one, zero, zero], [zero, one, phi, one, zero]]
    eqs_lp = [[one, psi, one, zero, zero], [zero, one, psi, one, zero]]

    first = _orbit_of_line(field, eqs_l)
    second = _orbit_of_line(field, eqs_lp)
    if len(first) != 6 or len(second) != 6:
        raise ClaimError(
            f"orbit sizes {len(first)}, {len(second)}: expected 6 and 6")

    cubic = diagonal_cubic(field)
    checks = {}
    checks["lines_on_cubic"] = all(
        line_on_hypersurface(cubic, ln) for ln in first + second)

    pairing = _pair_by_disjointness(first, second)
    second = [second[j] for j in pairing]
    if not is_double_six(first, second):
        raise ClaimError("paired orbits do not form a double six")
    checks["double_six_incidence"] = True

    standard = _gram_form(field)
    checks["pairs_orthogonal_under_gram"] = all(
        sum((a * b for a, b in zip(_lift(field, u), _lift(field, v))),
            zero).is_zero()
        for k in range(6)
        for u in first[k].basis for v in second[k].basis)

    schur = orthogonal_form_for_pairs(
        field, [(first[k], second[k]) for k in range(6)])
    checks["schur_matches_gram"] = schur.proportional(standard)

    # blow down the first sextuple: quadrics through two lines of the second
    # sextuple and their transversal cut the net mapping the surface to a
    # plane, contracting exactly the first sextuple
    trans = _cross_join_line(first[0], second[1], first[1], second[0])
    checks["transversal_on_cubic"] = line_on_hypersurface(cubic, trans)
    net = _quadrics_through_lines(field, [second[0], second[1], trans])
    checks["net_dimension_3"] = len(net) == 3

    hexad = []
    constant = True
    for ln in first:
        images = [img for img in
                  (_net_image(net, x) for x in _line_sample_points(field, ln, 3))
                  if img is not None]
        if len(images) < 2:
            raise ClaimError("too few net images on a contracted line")
        constant = constant and all(img == images[0] for img in images)
        hexad.append(images[0])
    checks["net_constant_on_contracted_lines"] = constant
    checks["hexad_distinct"] = len(set(hexad)) == 6

    rep = build_detrep(field, hexad)
    bform, cform = schur_pair(rep)

    samples = []
    sources = [second[j] for j in range(2, 6)]
    sources.append(_cross_join_line(first[0], second[2], first[2], second[0]))
    sources.append(_cross_join_line(first[1], second[2], first[2], second[1]))
    hexset = set(hexad)
    for src in sources:
        for x in _line_sample_points(field, src, 4):
            img = _net_image(net, x)
            if img is None or img in hexset:
                continue
            try:
                y = rep.image_point(img)
            except PreconditionError:
                continue
            samples.append((x, y))
    if len(samples) < 8:
        raise ClaimError(f"only {len(samples)} usable correspondences")

    tmat = _fit_projectivity(field, samples)
    checks["coordinate_fit_consistent"] = all(
        vec_canonical(tmat.apply(x)) == vec_canonical(y) for x, y in samples)
    checks["contracted_lines_map_to_vertical_lines"] = all(
        _map_line(tmat, first[k]) == rep.a_line(k) for k in range(6))
    checks["partner_lines_map_to_partner_lines"] = all(
        _map_line(tmat, second[k]) == rep.b_line(k) for k in range(6))

    pullback = rep.surface.substitute(
        [HomPoly.linear_form(field, list(tmat.row(b))) for b in range(4)])
    checks["surface_pullback_matches_cubic"] = pullback.proportional(cubic)

    pulled = tmat.transpose() * cform.matrix * tmat
    checks["quadric_pullback_matches_gram"] = SymForm(pulled).proportional(standard)

    payload = {"cubic": cubic, "first": first, "second": second,
               "net": net, "hexad": hexad, "rep": rep,
               "kernel_form": bform, "orthogonal_form": cform,
               "coordinate_change": tmat}
    return FamilyInstance("clebsch", field, payload, checks)


def bring_instance(seed: int = 0) -> FamilyInstance:
    """The sextic curve cut on the diagonal cubic by its invariant quadric.

    A seeded plane inside the hyperplane gives a cubic and a conic in the
    plane coordinates; their eliminant must have total degree 6, counted
    with multiplicity and including any unresolved factors, and every
    resolved point satisfies all three power sums in 5-space.  The cubic and
    the quadric are the closed forms the Clebsch instance checks.
    """
    field = Field(5)
    cubic = diagonal_cubic(field)
    invariant = quadric(_gram_form(field).canonical())

    # the three power sums, restricted to the hyperplane: the first vanishes
    # identically, the second is the invariant quadric, the third the cubic
    lifts = [HomPoly.linear_form(field, row) for row in
             ([1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1],
              [-1, -1, -1, -1])]
    checks = {}
    p2 = sum((f * f for f in lifts), HomPoly.zero(field, 4, 2))
    p3 = sum((f * f * f for f in lifts), HomPoly.zero(field, 4, 3))
    checks["square_sum_restricts_to_quadric"] = p2.proportional(invariant)
    checks["cube_sum_restricts_to_cubic"] = p3.proportional(cubic)

    rng = random.Random(seed)
    for _ in range(40):
        cov = [rng.randint(-3, 3) for _ in range(4)]
        if all(c == 0 for c in cov):
            continue
        plane = Matrix.from_rows(field, [[field.scalar(c) for c in cov]])
        basis = plane.kernel_basis()
        if len(basis) != 3:
            continue
        targets = [HomPoly.linear_form(field, [basis[j][m] for j in range(3)])
                   for m in range(4)]
        f3 = cubic.substitute(targets)
        f2 = invariant.substitute(targets)
        if f3.is_zero() or f2.is_zero():
            continue
        if multivariate_gcd(f3, f2).degree > 0:
            continue
        sol = solve_pair(f3, f2)
        resolved = sum(m for _, m in sol.base_roots)
        unresolved = sum((len(c) - 1) * m for c, m in sol.unresolved_base)
        checks["section_degree_6"] = sol.total_degree == 6
        checks["section_count_6"] = resolved + unresolved == 6
        power_ok = True
        for pt in sol.points:
            u = [sum((basis[j][m] * pt[j] for j in range(3)), field.zero)
                 for m in range(4)]
            x = _lift(field, u)
            for power in (1, 2, 3):
                s = sum((c ** power for c in x), field.zero)
                power_ok = power_ok and s.is_zero()
        checks["resolved_points_satisfy_power_sums"] = power_ok
        payload = {"cubic": cubic, "quadric": invariant, "plane": cov,
                   "section": sol}
        notes = ("resolved section points: %d of 6; curve points need a "
                 "larger field, so the power sums are also checked as the "
                 "polynomial identities above" % resolved,
                 "the six contraction images form one orbit of the even "
                 "permutations; recorded, not asserted",)
        return FamilyInstance("bring", field, payload, checks, notes)
    raise ClaimError("no usable plane section found")


# ---------------------------------------------------------------------------
# small monads


def triangle_monad_n3(seed: int = 0) -> FamilyInstance:
    """Monad of the quadratic plane transformation: minors x1*x2, x0*x2,
    x0*x1 up to sign."""
    field = QQ
    maps = [Matrix.from_rows(field, [[1, 0], [0, 0], [0, 0]]),
            Matrix.from_rows(field, [[0, 0], [0, 1], [0, 0]]),
            Matrix.from_rows(field, [[0, 0], [0, 0], [1, -1]])]
    form = select_compatible_form(field, maps, seed=seed)
    monad = MonadData(maps, form)
    report = validate_monad(monad, seed=seed)

    checks = {"monad_valid": report.valid}
    curve = monad.jlsk_curve()
    expected_curve = _sum_of_products(field, [(0, 1), (0, 2), (1, 2)])
    checks["curve_matches"] = curve.proportional(expected_curve)

    loc = monad.jumping_points()
    coord_points = [tuple(field.coerce(c) for c in p)
                    for p in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]]
    checks["jumping_points_are_coordinate_points"] = (
        loc.fully_resolved and loc.zero_dimensional
        and sorted_points(loc.points) == sorted_points(coord_points))

    lines_ok = True
    opp_ok = True
    for i, z in enumerate(coord_points):
        pencil = monad.at(z)
        coord_line = ProjSubspace.from_equations(
            field, 2, [[field.one if k == i else field.zero for k in range(3)]])
        lines_ok = lines_ok and pencil.left == coord_line
        opp = ProjSubspace.from_point(
            field, [field.one if k == i else field.zero for k in range(3)])
        opp_ok = opp_ok and pencil.contracted == opp
    checks["left_kernels_are_coordinate_lines"] = lines_ok
    checks["partner_spaces_are_opposite_points"] = opp_ok

    payload = {"monad": monad, "curve": curve, "locus": loc}
    return FamilyInstance("triangle", field, payload, checks)


def _sum_of_products(field: Field, index_pairs) -> HomPoly:
    out = HomPoly.zero(field, 3, 4)
    for i, j in index_pairs:
        e = [0, 0, 0]
        e[i] += 2
        e[j] += 2
        out = out + HomPoly.monomial(field, tuple(e), field.one)
    return out


def sorted_points(points):
    return sorted(tuple(c.serialize() for c in p) for p in points)


def n2_instance(seed: int = 0) -> FamilyInstance:
    """Smallest monad: one jumping point, curve a pair of distinct lines
    through it, middle quadric a pair of distinct points."""
    field = QQ
    maps = [Matrix.from_rows(field, [[1], [0]]),
            Matrix.from_rows(field, [[0], [1]]),
            Matrix.from_rows(field, [[0], [0]])]
    form = select_compatible_form(field, maps, seed=seed)
    monad = MonadData(maps, form)
    report = validate_monad(monad, seed=seed)

    checks = {"monad_valid": report.valid}
    loc = monad.jumping_points()
    z0 = tuple(field.coerce(c) for c in (0, 0, 1))
    checks["single_jumping_point"] = (
        loc.fully_resolved and loc.zero_dimensional
        and sorted_points(loc.points) == sorted_points([z0]))

    curve = monad.jlsk_curve()
    expected_curve = HomPoly.monomial(field, (1, 1, 0), field.one)
    checks["curve_two_lines_through_point"] = curve.proportional(expected_curve)

    b = form.matrix
    disc = b[0, 1] * b[0, 1] - b[0, 0] * b[1, 1]
    checks["middle_quadric_two_distinct_points"] = not disc.is_zero()

    payload = {"monad": monad, "curve": curve, "locus": loc}
    return FamilyInstance("n2", field, payload, checks)


# ---------------------------------------------------------------------------
# nearly-diagonal shape on n lines


def _coeff_triple(form: HomPoly):
    return [form.coeff((1, 0, 0)), form.coeff((0, 1, 0)), form.coeff((0, 0, 1))]


def hulsbergen_shape(field: Field, forms, seed: int = 0) -> FamilyInstance:
    """Monad built from n pairwise independent, concurrent-free linear forms
    through the nearly-diagonal n x (n-1) shape.

    Row r < n-1 carries f_r on the diagonal; the last row repeats f_{n-1}.
    The signed maximal minors are then the complementary products
    F_j = prod_{i != j} f_i up to scalars.
    """
    forms = [f if isinstance(f, HomPoly) else HomPoly.linear_form(field, f)
             for f in forms]
    n = len(forms)
    if n < 4:
        raise PreconditionError("need at least four forms")
    for f in forms:
        if f.nvars != 3 or f.degree != 1 or f.is_zero():
            raise PreconditionError("forms must be nonzero ternary linear forms")
    coeffs = Matrix.from_rows(field, [_coeff_triple(f) for f in forms])
    check_general_position(field, coeffs.data)

    # general position leaves three independent forms, so n - 3 relations
    relations = [list(v) for v in coeffs.transpose().kernel_basis()]

    maps = []
    for k in range(3):
        rows = []
        for r in range(n - 1):
            rows.append([coeffs[r, k] if c == r else field.zero
                         for c in range(n - 1)])
        rows.append([coeffs[n - 1, k]] * (n - 1))
        maps.append(Matrix.from_rows(field, rows))

    form = select_compatible_form(field, maps, seed=seed)
    monad = MonadData(maps, form)
    checks = {}
    minors = monad.signed_minors()
    big = [_complement_product(forms, j) for j in range(n)]
    ratios = []
    minors_ok = True
    for v, f in zip(minors, big):
        if not v.proportional(f):
            minors_ok = False
            ratios.append(None)
        else:
            ratios.append(v.leading()[1] / f.leading()[1])
    checks["minors_are_complementary_products"] = minors_ok
    if not minors_ok:
        raise ClaimError("shape minors are not the complementary products")

    # cleared-denominator hypersurface equations from the relation vectors,
    # in coordinates where the image point is (F_0 : ... : F_{n-1})
    sigma_ok = True
    for rel in relations:
        total = HomPoly.zero(field, 3, (n - 1) * (n - 1))
        for i in range(n):
            term = HomPoly.constant(field, 3, rel[i])
            for l in range(n):
                if l != i:
                    term = term * big[l]
            total = total + term
        sigma_ok = sigma_ok and total.is_zero()
    checks["cleared_equations_vanish_on_image"] = sigma_ok

    report = validate_monad(monad, seed=seed)
    checks["monad_valid"] = report.valid

    sigma_polys = [_cleared_equation(field, rel, ratios, n)
                   for rel in relations]
    if n == 4:
        det_am = monad.a_M().det()
        checks["image_equation_matches_partial_transpose"] = (
            det_am.proportional(sigma_polys[0]))
    else:
        span = []
        cubics = monad.a_M().minors(3)
        for l in range(n):
            mono = HomPoly.variable(field, n, l)
            for c in cubics:
                span.append(mono * c)
        checks["image_equations_in_minor_ideal_degree"] = all(
            _in_span(field, g, span) for g in sigma_polys)
        checks["image_equations_vanish_parametrically"] = all(
            _vanishes_on_minor_image(g, minors) for g in sigma_polys)

    curve = monad.jlsk_curve()
    sq = [f * f for f in big]
    combo = _solve_membership(field, curve, sq)
    checks["curve_in_span_of_squares"] = combo is not None

    loc = monad.jumping_points()
    expected_points = []
    for i, j in combinations(range(n), 2):
        kern = Matrix.from_rows(
            field, [_coeff_triple(forms[i]), _coeff_triple(forms[j])]
        ).kernel_basis()
        expected_points.append(vec_canonical(kern[0]))
    checks["support_is_pairwise_intersections"] = (
        loc.fully_resolved and loc.zero_dimensional
        and sorted_points(loc.points) == sorted_points(expected_points))
    checks["support_count"] = len(loc.points) == n * (n - 1) // 2

    checks["coordinate_points_nearly_collapse"] = all(
        middle_rank_at(monad, [field.one if r == s else field.zero
                               for s in range(n)]) <= 1
        for r in range(n))

    payload = {"forms": forms, "monad": monad, "curve": curve, "locus": loc,
               "square_combination": combo, "relations": relations}
    notes = ("the shape is not generically two-collapsing: whole lines of "
             "the image hypersurface drop rank, recorded, not asserted",)
    return FamilyInstance(f"hulsbergen{n}", field, payload, checks, notes)


def _complement_product(forms, j: int) -> HomPoly:
    field = forms[0].field
    out = HomPoly.constant(field, 3, field.one)
    for i, f in enumerate(forms):
        if i != j:
            out = out * f
    return out


def _cleared_equation(field: Field, rel, ratios, n: int) -> HomPoly:
    """sum_i rel_i * prod_{l != i} t_l, written in the coordinates mu where
    the image point has mu_l = ratio_l * F_l: substitute t_l = mu_l / ratio_l."""
    out = HomPoly.zero(field, n, n - 1)
    for i in range(n):
        e = [1] * n
        e[i] = 0
        scale = rel[i]
        for l in range(n):
            if l != i:
                scale = scale / ratios[l]
        out = out + HomPoly.monomial(field, tuple(e), scale)
    return out


def _solve_membership(field: Field, target: HomPoly, span):
    order = monomials(target.nvars, target.degree)
    cols = [list(p.coefficient_vector(order)) for p in span]
    mat = Matrix.from_cols(field, cols)
    return mat.solve(list(target.coefficient_vector(order)))


def _in_span(field: Field, target: HomPoly, span) -> bool:
    return _solve_membership(field, target, span) is not None


def _vanishes_on_minor_image(g: HomPoly, minors) -> bool:
    return g.substitute(list(minors)).is_zero()


def hulsbergen_instance_4(seed: int = 0) -> FamilyInstance:
    return hulsbergen_shape(QQ, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)],
                            seed=seed)


def hulsbergen_instance_5(seed: int = 0) -> FamilyInstance:
    return hulsbergen_shape(
        QQ, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3)],
        seed=seed)


# ---------------------------------------------------------------------------
# six tangents of a conic


def schwarzenberger_detect() -> FamilyInstance:
    """Log-bundle pipeline on six lines dual to points of the smooth conic
    x0*x2 - x1^2.

    The jumping scheme must fail to be zero-dimensional, with the conic as
    the common factor of the minors and its cube as the curve.
    """
    field = QQ
    conic = HomPoly.monomial(field, (1, 0, 1), field.one) - \
        HomPoly.monomial(field, (0, 2, 0), field.one)
    points = [(field.one, field.scalar(t), field.scalar(t * t))
              for t in (0, 1, -1, 2, -2, 3)]

    bundle = build_logbundle(field, [list(p) for p in points])
    monad = bundle.monad

    checks = {}
    loc = monad.jumping_points()
    checks["jumping_scheme_positive_dimensional"] = not loc.zero_dimensional
    checks["common_factor_is_conic"] = (
        loc.common_factor is not None
        and loc.common_factor.proportional(conic))
    curve = monad.jlsk_curve()
    checks["curve_is_conic_cubed"] = curve.proportional(conic * conic * conic)

    payload = {"conic": conic, "points": points, "bundle": bundle,
               "curve": curve, "locus": loc}
    return FamilyInstance("schwarzenberger", field, payload, checks)


# ---------------------------------------------------------------------------
# registry


EXAMPLES = {
    "clebsch": clebsch_instance,
    "bring": bring_instance,
    "triangle": triangle_monad_n3,
    "n2": n2_instance,
    "hulsbergen4": hulsbergen_instance_4,
    "hulsbergen5": hulsbergen_instance_5,
    "schwarzenberger": schwarzenberger_detect,
}
