"""Local analysis of a plane curve at a point: multiplicity, node detection,
and the contact order of each branch tangent.

The chart at a point P uses the linear change of coordinates sending the
first standard basis vector with nonzero P-coordinate to P itself; in the new
coordinates the point is a coordinate vertex e and the curve reads
sum_j q_j x_e^(d-j), with q_j binary of degree j in the other two variables.
The tangent cone is the least nonzero layer.  The tangent line in direction
w is s e + t w, on which the curve restricts to sum_j q_j(w) t^j s^(d-j): its
contact order is the least j with q_j(w) nonzero, or d + 1 when the line
lies in the curve: then the contact is unbounded, and d + 1 stands for any
bound above d.  Over the base field the tangents come in conjugate
families, one per irreducible factor q of the cone in t = the first chart
variable over the second: they share the order, the least j with q not
dividing q_j(t, 1).  A drop in the cone's degree is the tangent w = (1, 0).
"""
from __future__ import annotations

from dataclasses import dataclass

from ..errors import ClaimError, PreconditionError
from ..exact_math import Matrix, Scalar, vec_canonical
from .homopoly import HomPoly
from .univar import degree as univar_degree
from .univar import factor_univar, univar_rem


@dataclass
class LocalSingularity:
    point: tuple[Scalar, ...]
    multiplicity: int
    is_node: bool
    tangent_orders: list[int]      # one per branch tangent, conjugates included


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
    # moved = sum_j q_j * x_{i0}^{d-j}; layers[j] is q_j(t, 1), ascending in t
    layers: dict[int, list[Scalar]] = {}
    for exp, c in moved.coeffs.items():
        j = d - exp[i0]
        if j not in layers:
            layers[j] = [field.zero] * (j + 1)
        layers[j][exp[others[0]]] = c
    if 0 in layers:
        raise ClaimError("point is not on the curve after the chart change")
    layers = dict(sorted(layers.items()))
    mult = min(layers)
    cone = layers[mult]

    orders = []
    for fac, _m in factor_univar(field, cone)[1]:
        order = next((j for j, q in layers.items() if univar_rem(q, fac)), d + 1)
        orders += [order] * (len(fac) - 1)
    if univar_degree(cone) < mult:
        orders.append(next((j for j, q in layers.items() if not q[j].is_zero()), d + 1))

    # orders has one entry per distinct branch tangent: a double point is a
    # node exactly when its cone is two distinct lines
    is_node = mult == 2 and len(orders) == 2
    return LocalSingularity(vec_canonical(point), mult, is_node, orders)
