"""Determinantal cubic surfaces from plane hexads and their line geometry."""
import dataclasses
import random
import sys
from itertools import combinations

import pytest

from schurlab.detrep import build_detrep, double_six, line_on_hypersurface
from schurlab.errors import ClaimError, PreconditionError
from schurlab.exact_math import QQ, Field, Matrix, ProjSubspace, vec_canonical
from schurlab.hulek_monad import MonadData, orthogonality_report, pencil_at
from schurlab.polyring import HomPoly, LinFormsMatrix, sorted_points
from schurlab.schurform import induced_monad, polarity_swaps_sextuples
from test_golden import CLEBSCH_HEXAD
from test_properties import reference_incident

COCONIC = [(1, 0, 0), (1, 1, 1), (1, 2, 4), (1, 3, 9), (1, 4, 16), (0, 0, 1)]


def test_cubic_web_dimension(std_rep):
    assert len(std_rep.cubics) == 4
    assert std_rep.surface.degree == 3
    assert std_rep.minors_span_cubics()
    assert std_rep.pullback_vanishes()


def test_pullback_check_reads_the_surface(std_rep):
    # one monomial more on the printed surface, and C(z) no longer lies on it
    bumped = dict(std_rep.surface.coeffs)
    bumped[(0, 0, 0, 3)] = bumped.get((0, 0, 0, 3), QQ.zero) + QQ.one
    wrong = dataclasses.replace(std_rep, surface=HomPoly(QQ, 4, 3, bumped))
    assert not wrong.pullback_vanishes()


def test_image_points_lie_on_surface(std_rep):
    for p in [(1, 1, 2), (2, -1, 1), (5, 1, 1), (0, 1, 2)]:
        img = std_rep.image_point(p)
        assert std_rep.surface.evaluate(img).is_zero()
        # the plane point is the right kernel of the 3 x 3 grid at its image
        back = std_rep.target_grid.evaluate(img).kernel_basis()
        assert len(back) == 1
        assert vec_canonical(back[0]) == vec_canonical(
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


def test_line_checks_name_their_kernels(std_rep, monkeypatch):
    # at a point off the hexad the pencil has full rank: its left kernel is
    # a point and its right kernel is zero, so each check refuses it and
    # names the kernel it read
    generic = pencil_at(std_rep.monad.maps, (1, 2, 5))
    assert (generic.left.dim, len(generic.right)) == (0, 0)
    monkeypatch.setattr(MonadData, "at", lambda self, z: generic)
    with pytest.raises(ClaimError) as left:
        std_rep.a_line(0)
    assert str(left.value) == "left kernel over an input point is not a line"
    with pytest.raises(ClaimError) as right:
        std_rep.b_line(0)
    assert str(right.value) == "right kernel over an input point is not a single point"


def test_ab_lines_on_surface_and_disjointness(std_rep):
    for k in range(6):
        a = std_rep.a_line(k)
        b = std_rep.b_line(k)
        assert line_on_hypersurface(std_rep.surface, a)
        assert line_on_hypersurface(std_rep.surface, b)
        assert a.meet(b).dim == -1
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


def clebsch_rep():
    field = Field(5)
    return build_detrep(field, [[field.parse(c) for c in p]
                                for p in CLEBSCH_HEXAD["points"]])


def test_line_incidence_matches_stacked_rank(std_rep):
    # all 351 pairs of the 27 lines, on the standard and the Clebsch hexad
    for rep in (std_rep, clebsch_rep()):
        pairs = list(combinations(double_six(rep).all_lines(), 2))
        assert len(pairs) == 351
        assert all(a.incident(b) == reference_incident(a, b) for a, b in pairs)


def test_double_six_incidences_take_no_elimination(std_rep, monkeypatch):
    ds = double_six(std_rep)

    def refuse(self):
        raise AssertionError("incidence ran an elimination")

    monkeypatch.setattr(Matrix, "rref", refuse)
    assert ds.verify_double_six()
    assert ds.verify_c_incidences()


def test_double_six_incidences_take_no_determinant(std_rep, monkeypatch):
    # each incidence is the Plucker pairing of six coordinates per line, so
    # a fresh double six, whose lines have no coordinates yet, checks all
    # its incidences with no Bareiss determinant in any module
    ds = double_six(build_detrep(QQ, std_rep.points))
    calls = []
    for module in [m for name, m in sys.modules.items() if name.startswith("schurlab")]:
        det = getattr(module, "integral_det", None)
        if det is not None:
            monkeypatch.setattr(module, "integral_det",
                                lambda rows, s, det=det: calls.append(rows) or det(rows, s))
    assert ds.verify_double_six()
    assert ds.verify_c_incidences()
    assert calls == []


def test_orthogonality_reports_reuse_the_sextuple_polars(std_rep, monkeypatch):
    # the polarity check polarizes each b-line in the kernel form; the report
    # at the same hexad point reads that polar again, and tests its
    # containment in the left kernel by coordinates, with no elimination
    rep = build_detrep(QQ, std_rep.points)
    assert polarity_swaps_sextuples(rep, rep.monad.form)
    rref = Matrix.rref
    calls = []

    def counted(self):
        calls.append((self.rows, self.cols))
        return rref(self)

    monkeypatch.setattr(Matrix, "rref", counted)
    reports = [orthogonality_report(rep.monad, z) for z in rep.points]
    assert all(r.passed and r.equality for r in reports)
    assert calls == []


def test_detrep_and_double_six_eliminate_each_kernel_once(std_rep, monkeypatch):
    # one elimination per canonical kernel basis: the cubics (6 x 10), the
    # relations (15 x 12) and the kernel-route form (9 x 10); at each point
    # the right kernel of a(z) (4 x 3) and its left kernel (3 x 4); the six
    # contracted spaces (3 x 4) and the fifteen c-lines (2 x 4)
    rref = Matrix.rref
    calls = []

    def counted(self):
        calls.append((self.rows, self.cols))
        return rref(self)

    monkeypatch.setattr(Matrix, "rref", counted)
    double_six(build_detrep(QQ, std_rep.points))
    assert calls == ([(6, 10), (15, 12), (9, 10)] + [(4, 3), (3, 4)] * 6
                     + [(3, 4)] * 6 + [(2, 4)] * 15)


def test_coconic_hexad_rejected():
    with pytest.raises(PreconditionError, match="conic"):
        build_detrep(QQ, COCONIC)


def test_collinear_triple_rejected():
    with pytest.raises((PreconditionError, ClaimError)):
        build_detrep(QQ, [(1, 0, 0), (0, 1, 0), (1, 1, 0),
                          (1, 1, 1), (1, 2, 3), (1, 4, 9)])


def reference_lines(rep, k):
    """The lines over input point k built from the 3 x 4 grid of linear forms
    sum_a z_a [tensor[i][a][b]], tensor[i][a][b] = maps[a][b, i]: a_k is its
    right kernel at the point; b_k is the right kernel of the tensor
    contracted with its left kernel there."""
    field, maps = rep.field, rep.monad.maps
    grid = LinFormsMatrix.from_coefficient_matrices(
        [Matrix(field, [[maps[a][b, i] for b in range(4)] for i in range(3)])
         for a in range(3)]).evaluate(rep.points[k])
    a_line = ProjSubspace(field, 3, grid.kernel_basis())
    (phi,) = grid.transpose().kernel_basis()
    contracted = Matrix(field, [[sum((phi[i] * maps[a][b, i] for i in range(3)),
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
    reps = [std_rep, clebsch_rep()] + seeded_hexad_reps()
    assert len(reps) == 7
    for rep in reps:
        for k in range(6):
            assert (rep.a_line(k), rep.b_line(k)) == reference_lines(rep, k)
