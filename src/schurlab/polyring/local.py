"""Local analysis of a plane curve at a point: multiplicity, tangent cone,
node detection, branch tangent lines, and intersection order with a line.

The chart at a point P uses the linear change of coordinates sending the
first standard basis vector with nonzero P-coordinate to P itself; in the new
coordinates the point is a coordinate vertex and grading by the complementary
variables reads off the local data.
"""
from __future__ import annotations

from dataclasses import dataclass

from ..errors import ClaimError, PreconditionError
from ..exact_math import Matrix, ProjSubspace, Scalar, vec_canonical
from .homopoly import HomPoly
from .univar import degree as univar_degree
from .univar import roots_with_multiplicity


@dataclass
class LocalSingularity:
    point: tuple[Scalar, ...]
    multiplicity: int
    tangent_cone: HomPoly          # binary form in the two chart variables
    is_node: bool
    tangent_lines: list[ProjSubspace]
    unresolved_tangents: list[list[Scalar]]  # irreducible binary factors, ascending coeffs


def _chart_matrix(field, point) -> tuple[Matrix, int]:
    i0 = next(i for i, c in enumerate(point) if not c.is_zero())
    cols = []
    for j in range(3):
        if j == i0:
            cols.append(list(point))
        else:
            cols.append([field.one if k == j else field.zero for k in range(3)])
    return Matrix.from_cols(field, cols), i0


def local_singularity(curve: HomPoly, point) -> LocalSingularity:
    """Local data of the curve at a point of it."""
    assert curve.nvars == 3 and not curve.is_zero()
    field = curve.field
    point = tuple(field.coerce(c) for c in point)
    if not curve.evaluate(point).is_zero():
        raise PreconditionError("point does not lie on the curve")
    T, i0 = _chart_matrix(field, point)
    targets = [HomPoly.linear_form(field, T.row(a)) for a in range(3)]
    moved = curve.substitute(targets)
    others = [a for a in range(3) if a != i0]
    d = curve.degree
    # moved = sum_j q_j * x_{i0}^{d-j}, q_j binary of degree j in the chart vars
    layers: dict[int, dict[tuple[int, int], Scalar]] = {}
    for exp, c in moved.coeffs.items():
        j = d - exp[i0]
        layers.setdefault(j, {})[(exp[others[0]], exp[others[1]])] = c
    if 0 in layers:
        raise ClaimError("point is not on the curve after the chart change")
    mult = min(layers)
    cone = HomPoly(field, 2, mult, layers[mult])

    # factor the tangent cone as a binary form in the chart variables
    cone_coeffs = [cone.coeff((i, mult - i)) for i in range(mult + 1)]
    froots, funres = roots_with_multiplicity(field, cone_coeffs)
    directions = [(r, field.one) for r, _m in froots]
    inf_mult = mult - univar_degree(cone_coeffs)
    if inf_mult > 0:
        directions.append((field.one, field.zero))
    lines = []
    for u, v in directions:
        w = [field.zero] * 3
        w[others[0]], w[others[1]] = u, v
        moved_dir = tuple(T.apply(w))
        lines.append(ProjSubspace(field, 2, [list(point), list(moved_dir)]))
        if lines[-1].dim != 1:
            raise ClaimError("tangent direction does not span a line with the point")

    is_node = False
    if mult == 2:
        a = cone.coeff((2, 0))
        b = cone.coeff((1, 1))
        c = cone.coeff((0, 2))
        is_node = not (b * b - 4 * a * c).is_zero()
    return LocalSingularity(vec_canonical(point), mult, cone, is_node,
                            lines, [f for f, _m in funres])


def line_intersection_order(curve: HomPoly, line: ProjSubspace, point) -> int:
    """Vanishing order at the point of the curve restricted to the line.
    Returns deg(curve) + 1 when the line lies inside the curve."""
    assert curve.nvars == 3 and line.dim == 1
    field = curve.field
    point = tuple(field.coerce(c) for c in point)
    if not line.contains_vector(point):
        raise PreconditionError("point does not lie on the line")
    other = None
    for b in line.basis:
        if Matrix(field, [list(point), list(b)]).rank() == 2:
            other = b
            break
    if other is None:
        raise ClaimError("line basis has no vector independent of the point")
    targets = [HomPoly.linear_form(field, (point[a], other[a])) for a in range(3)]
    restricted = curve.substitute(targets)   # binary in (s, t), point at t=0
    if restricted.is_zero():
        return curve.degree + 1
    return restricted.min_exponent(1)
