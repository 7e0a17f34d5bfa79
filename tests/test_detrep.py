"""Determinantal cubic surfaces from plane hexads and their line geometry."""
import pytest

from schurlab.detrep import build_detrep, double_six, line_on_hypersurface
from schurlab.errors import ClaimError, PreconditionError
from schurlab.exact_math import QQ, vec_canonical
from schurlab.families import sorted_points

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
