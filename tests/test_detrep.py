"""Determinantal cubic surfaces from plane hexads and their line geometry."""
import random

import pytest

from schurlab.detrep import build_detrep, double_six, line_on_hypersurface
from schurlab.errors import ClaimError, PreconditionError
from schurlab.exact_math import QQ, Field, Matrix, ProjSubspace, vec_canonical
from schurlab.families import sorted_points
from schurlab.polyring import LinFormsMatrix
from schurlab.schurform import induced_monad
from test_golden import CLEBSCH_HEXAD

COCONIC = [(1, 0, 0), (1, 1, 1), (1, 2, 4), (1, 3, 9), (1, 4, 16), (0, 0, 1)]


def test_cubic_web_dimension(std_rep):
    assert len(std_rep.cubics) == 4
    assert std_rep.surface.degree == 3
    assert std_rep.minors_span_cubics()
    assert std_rep.pullback_vanishes()


def test_image_points_lie_on_surface(std_rep):
    for p in [(1, 1, 2), (2, -1, 1), (5, 1, 1), (0, 1, 2)]:
        img = std_rep.image_point(p)
        assert std_rep.surface.evaluate(img).is_zero()
        back = std_rep.first_projection(img)
        assert vec_canonical(back) == vec_canonical(
            tuple(QQ.coerce(c) for c in p))


def test_image_at_base_point_refused(std_rep):
    with pytest.raises(PreconditionError):
        std_rep.image_point((1, 0, 0))


def test_base_points_recovered(std_rep):
    loc = std_rep.recover_points()
    assert loc.zero_dimensional and loc.fully_resolved
    assert sorted_points(loc.points) == sorted_points(
        [vec_canonical(tuple(QQ.coerce(c) for c in p))
         for p in std_rep.points])


def test_induced_monad_is_owned_by_the_rep(std_rep):
    assert induced_monad(std_rep) is std_rep.monad
    assert std_rep.recover_points() is std_rep.monad.jumping_points()


def test_ab_lines_on_surface_and_disjointness(std_rep):
    for k in range(6):
        a = std_rep.a_line(k)
        b = std_rep.b_line(k)
        assert line_on_hypersurface(std_rep.surface, a)
        assert line_on_hypersurface(std_rep.surface, b)
        assert a.meet(b).is_empty()
    # distinct-index pairs meet in one point
    assert std_rep.a_line(0).meet(std_rep.b_line(1)).dim == 0


def test_c_lines_join_projections(std_rep):
    c = std_rep.c_line(0, 1)
    assert line_on_hypersurface(std_rep.surface, c)
    assert c.meet(std_rep.a_line(0)).dim == 0
    assert c.meet(std_rep.b_line(1)).dim == 0


def test_double_six_verifications(std_rep):
    ds = double_six(std_rep)
    assert len(ds.all_lines()) == 27
    assert ds.verify_on_surface()
    assert ds.verify_distinct()
    assert ds.verify_double_six()
    assert ds.verify_c_incidences()


def test_second_projection_contracts_b_lines(std_rep):
    # two distinct points of one contracted line share their image
    b = std_rep.b_line(2)
    u, v = b.basis
    img_u = vec_canonical(std_rep.second_projection(u))
    img_v = vec_canonical(std_rep.second_projection(
        tuple(a + c for a, c in zip(u, v))))
    assert img_u == img_v


def test_coconic_hexad_rejected():
    with pytest.raises(PreconditionError, match="conic"):
        build_detrep(QQ, COCONIC)


def test_collinear_triple_rejected():
    with pytest.raises((PreconditionError, ClaimError)):
        build_detrep(QQ, [(1, 0, 0), (0, 1, 0), (1, 1, 0),
                          (1, 1, 1), (1, 2, 3), (1, 4, 9)])


def reference_lines(rep, k):
    """The lines over input point k built from the 3 x 4 grid of linear forms
    sum_a z_a [tensor[i][a][b]]: a_k is its right kernel at the point; b_k is
    the right kernel of the tensor contracted with its left kernel there."""
    field, g = rep.field, rep.tensor
    grid = LinFormsMatrix.from_coefficient_matrices(
        [Matrix(field, [[g[i][a][b] for b in range(4)] for i in range(3)])
         for a in range(3)]).evaluate(rep.points[k])
    a_line = ProjSubspace(field, 3, grid.kernel_basis())
    (phi,) = grid.left_kernel_basis()
    contracted = Matrix(field, [[sum((phi[i] * g[i][a][b] for i in range(3)),
                                     field.zero) for b in range(4)]
                                for a in range(3)])
    return a_line, ProjSubspace(field, 3, contracted.kernel_basis())


def seeded_hexad_reps(count=5, seed=7):
    """The admissible hexads that tests/test_acceptance.py test 02 draws."""
    rng = random.Random(seed)
    reps = []
    for _ in range(200):
        if len(reps) == count:
            break
        points = [tuple(rng.randint(-9, 9) for _ in range(3)) for _ in range(6)]
        if any(all(c == 0 for c in p) for p in points):
            continue
        try:
            reps.append(build_detrep(QQ, points))
        except PreconditionError:
            continue
    return reps


def test_pencil_lines_match_grid_reference(std_rep):
    field = Field(5)
    clebsch = build_detrep(field, [[field.parse(c) for c in p]
                                   for p in CLEBSCH_HEXAD["points"]])
    reps = [std_rep, clebsch] + seeded_hexad_reps()
    assert len(reps) == 7
    for rep in reps:
        for k in range(6):
            assert (rep.a_line(k), rep.b_line(k)) == reference_lines(rep, k)
