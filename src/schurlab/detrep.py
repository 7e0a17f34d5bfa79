"""Determinantal data of a cubic surface built from six plane points.

Six distinct points, no three collinear, leave a four-dimensional space of
plane cubics vanishing on all of them, and the products of coordinates with
those cubics satisfy exactly three independent linear relations.  The
relations form a 3 x 3 x 4 tensor with two useful flattenings:

  * a 3 x 3 grid of linear forms on the target 3-space, whose determinant is
    a cubic surface (the image of the plane under the cubic system);
  * a 3 x 4 grid of linear forms on the plane, whose rank drops to 2 exactly
    over the six input points.

The transpose of the second flattening is the pencil a(z) = sum z_a A_a of
the three plane slices of the tensor.  Paired with the kernel-route form
(see schurform) it is the induced monad, built once with the DetRep, which
owns the pencil, its signed minors and their zero locus.  The pencil's
kernel data over each input point gives a double six of lines on the
surface: a_k is the left kernel and b_k the contracted space.  Its signed
minors span the cubics and their common zeros are the input points.  Images
of the lines joining two input points give the other fifteen.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import ClaimError, PreconditionError
from .exact_math import (Field, Matrix, ProjSubspace, Scalar, SymForm, sym_row,
                         vec_canonical, vec_is_zero)
from .hulek_monad import MonadData
from .polyring import HomPoly, LinFormsMatrix, ZeroLocus, monomials

Point = tuple[Scalar, ...]


def _eval_mono(exp, point, field) -> Scalar:
    v = field.one
    for c, e in zip(point, exp):
        if e:
            v = v * c ** e
    return v


def evaluation_matrix(field: Field, points, degree: int) -> Matrix:
    """Rows evaluate the degree-d monomial basis (descending lex) at the
    points, in as many variables as the points have coordinates."""
    monos = monomials(len(points[0]), degree)
    return Matrix(field, [[_eval_mono(e, p, field) for e in monos] for p in points])


def line_on_hypersurface(form: HomPoly, line: ProjSubspace) -> bool:
    assert line.dim == 1 and line.ambient == form.nvars - 1
    u, v = line.basis
    targets = [HomPoly.linear_form(form.field, (u[a], v[a])) for a in range(form.nvars)]
    return form.substitute(targets).is_zero()


@dataclass
class DetRep:
    """The induced monad owns the pencil over each input point, its signed
    minors and their zero locus; each is built once and shared by every
    caller, so treat them as read-only."""

    field: Field
    points: list[Point]
    cubics: list[HomPoly]            # reduced basis of the cubics through the points
    target_grid: LinFormsMatrix      # 3 x 3, linear forms in the 4 target coordinates
    monad: MonadData                 # maps[a][b, i] = tensor[i][a][b], i relation,
                                     # a plane, b target; kernel-route form
    surface: HomPoly                 # det of target_grid, canonical

    def image_point(self, p) -> Point:
        """Image of a plane point under the cubic system."""
        p = tuple(self.field.coerce(c) for c in p)
        img = tuple(c.evaluate(p) for c in self.cubics)
        if all(c.is_zero() for c in img):
            raise PreconditionError("point is one of the six base points")
        return vec_canonical(img)

    def a_line(self, k: int) -> ProjSubspace:
        """Line over input point k: left kernel of the pencil there."""
        line = self.monad.at(self.points[k]).left
        if line.dim != 1:
            raise ClaimError("left kernel over an input point is not a line")
        return line

    def b_line(self, k: int) -> ProjSubspace:
        """Partner line over input point k: the contracted space of the
        pencil there."""
        pencil = self.monad.at(self.points[k])
        if len(pencil.right) != 1:
            raise ClaimError("right kernel over an input point is not a single point")
        if pencil.contracted.dim != 1:
            raise ClaimError("contracted kernel over an input point is not a line")
        return pencil.contracted

    def c_line(self, i: int, j: int) -> ProjSubspace:
        """Image of the line joining input points i and j."""
        assert i != j
        pi, pj = self.points[i], self.points[j]
        two = self.field.scalar(2)
        q1 = self.image_point(tuple(a + b for a, b in zip(pi, pj)))
        q2 = self.image_point(tuple(a + two * b for a, b in zip(pi, pj)))
        line = ProjSubspace(self.field, 3, [list(q1), list(q2)])
        if line.dim != 1:
            raise ClaimError("image of a joining line is not a line")
        return line

    def recover_points(self) -> ZeroLocus:
        """Common zeros of the signed maximal minors of the 4 x 3 pencil:
        the induced monad's jumping points."""
        return self.monad.jumping_points()

    def minors_span_cubics(self) -> bool:
        """The four signed maximal minors span the same space as the cubics."""
        cub = [list(c.coefficient_vector()) for c in self.cubics]
        mnr = [list(m.coefficient_vector()) for m in self.monad.signed_minors()]
        if Matrix(self.field, mnr).rank() != 4:
            return False
        return Matrix(self.field, cub + mnr).rank() == 4

    def pullback_vanishes(self) -> bool:
        """The printed surface composed with the cubic system, det M(C(z))
        up to scale, is identically zero."""
        return self.surface.substitute(self.cubics).is_zero()


def _check_hexad(field: Field, pts) -> None:
    """The six canonical points are distinct (a zero vector counts as
    coinciding), no three are collinear and not all six lie on a conic."""
    for i in range(6):
        for j in range(i + 1, 6):
            if pts[i] == pts[j] or vec_is_zero(pts[i]) or vec_is_zero(pts[j]):
                raise PreconditionError(f"points {i} and {j} coincide")
            for k in range(j + 1, 6):
                if Matrix(field, [pts[i], pts[j], pts[k]]).det().is_zero():
                    raise PreconditionError(f"points {i}, {j}, {k} are collinear")
    if evaluation_matrix(field, pts, 2).det().is_zero():
        raise PreconditionError(
            "the six points lie on a conic; the blown-up surface is not a "
            "smooth cubic and the construction does not apply")


def kernel_form(field: Field, tensor) -> SymForm:
    """Kernel route to the Schur quadric.  Unknowns are the ten entries of a
    symmetric 4 x 4 tensor; each of the nine equations pairs a 2 x 2 pattern
    of relation and plane indices against the symmetrized wedge of the
    tensor slices."""
    g = tensor
    rows = []
    for i, ip in combinations(range(3), 2):
        for a, ap in combinations(range(3), 2):
            def wedge(b, bp):
                return (g[i][a][b] * g[ip][ap][bp] - g[ip][a][b] * g[i][ap][bp]
                        - g[i][ap][b] * g[ip][a][bp] + g[ip][ap][b] * g[i][a][bp])
            rows.append(sym_row(4, wedge))
    return SymForm.unique(field, 4, rows, "kernel route")


def build_detrep(field: Field, points) -> DetRep:
    """The determinantal data of an admissible hexad and its induced monad;
    the one place a hexad is checked for admissibility."""
    pts = [vec_canonical([field.coerce(c) for c in p]) for p in points]
    if len(pts) != 6 or any(len(p) != 3 for p in pts):
        raise PreconditionError("exactly six plane points with three coordinates required")
    _check_hexad(field, pts)

    kern = ProjSubspace.from_equations(field, 9, evaluation_matrix(field, pts, 3).data).basis
    if len(kern) != 4:
        raise PreconditionError("points do not impose independent conditions on cubics")
    cubics = [HomPoly.from_coefficient_vector(field, 3, 3, v) for v in kern]

    # relations sum_{a,b} t[i][a][b] z_a C_b(z) = 0 among the twelve quartics
    quart = monomials(3, 4)
    idx = {e: r for r, e in enumerate(quart)}
    cols = []
    for a in range(3):
        for b in range(4):
            col = [field.zero] * len(quart)
            for e, c in cubics[b].coeffs.items():
                ee = list(e)
                ee[a] += 1
                col[idx[tuple(ee)]] = c
            cols.append(col)
    rkern = ProjSubspace.from_equations(field, 11, zip(*cols)).basis
    if len(rkern) != 3:
        raise ClaimError(f"expected 3 independent relations, found {len(rkern)}")
    tensor = tuple(tuple(tuple(rkern[i][a * 4 + b] for b in range(4)) for a in range(3))
                   for i in range(3))

    target_mats = [Matrix(field, [[tensor[i][a][b] for a in range(3)] for i in range(3)])
                   for b in range(4)]
    target_grid = LinFormsMatrix.from_coefficient_matrices(target_mats)
    maps = [Matrix(field, [[tensor[i][a][b] for i in range(3)] for b in range(4)])
            for a in range(3)]
    surface = target_grid.det()
    if surface.is_zero():
        raise ClaimError("the 3 x 3 grid has identically zero determinant")
    return DetRep(field, pts, cubics, target_grid,
                  MonadData(maps, kernel_form(field, tensor)), surface.canonical())


@dataclass
class DoubleSix:
    rep: DetRep
    a_lines: list[ProjSubspace]
    b_lines: list[ProjSubspace]
    c_lines: dict[tuple[int, int], ProjSubspace]

    def all_lines(self) -> list[ProjSubspace]:
        return self.a_lines + self.b_lines + [self.c_lines[k]
                                              for k in sorted(self.c_lines)]

    def verify_on_surface(self) -> bool:
        s = self.rep.surface
        return all(line_on_hypersurface(s, line) for line in self.all_lines())

    def verify_distinct(self) -> bool:
        lines = self.all_lines()
        return all(lines[i] != lines[j]
                   for i, j in combinations(range(len(lines)), 2))

    def verify_double_six(self) -> bool:
        return is_double_six(self.a_lines, self.b_lines)

    def verify_c_incidences(self) -> bool:
        """c_ij meets a_k and b_k exactly for k in {i, j}; two c-lines meet
        exactly when their index pairs are disjoint."""
        for (i, j), c in self.c_lines.items():
            for k in range(6):
                expected = k in (i, j)
                if c.incident(self.a_lines[k]) != expected:
                    return False
                if c.incident(self.b_lines[k]) != expected:
                    return False
        for p1, p2 in combinations(sorted(self.c_lines), 2):
            meets = self.c_lines[p1].incident(self.c_lines[p2])
            if meets != (not set(p1) & set(p2)):
                return False
        return True


def is_double_six(first, second) -> bool:
    """Within each sextuple the lines are disjoint; across sextuples lines
    meet exactly when their indices differ."""
    for i, j in combinations(range(6), 2):
        if first[i].incident(first[j]) or second[i].incident(second[j]):
            return False
    return all(first[i].incident(second[j]) == (i != j)
               for i in range(6) for j in range(6))


def double_six(rep: DetRep) -> DoubleSix:
    a = [rep.a_line(k) for k in range(6)]
    b = [rep.b_line(k) for k in range(6)]
    c = {(i, j): rep.c_line(i, j) for i, j in combinations(range(6), 2)}
    return DoubleSix(rep, a, b, c)
