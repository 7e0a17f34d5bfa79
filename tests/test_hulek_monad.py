"""Rank-two monads: compatibility, the second-kind curve, jumping points."""
from math import comb

import pytest

from schurlab.errors import ClaimError, PreconditionError
from schurlab.exact_math import Field, Matrix, ProjSubspace, QQ, SymForm
from schurlab.families import hulsbergen_instance_5
from schurlab.hulek_monad import (MonadData, biflex_reports,
                                  compatible_form_space, determinantal_degree,
                                  middle_rank_at, multiplicity_bound,
                                  orthogonality_report, pencil_at,
                                  select_compatible_form, validate_monad)
from schurlab.polyring import HomPoly


def triangle_maps(field=QQ):
    return [Matrix.from_rows(field, [[1, 0], [0, 0], [0, 0]]),
            Matrix.from_rows(field, [[0, 0], [0, 1], [0, 0]]),
            Matrix.from_rows(field, [[0, 0], [0, 0], [1, -1]])]


@pytest.fixture(scope="module")
def triangle():
    maps = triangle_maps()
    return MonadData(maps, select_compatible_form(QQ, maps))


def test_compatible_form_selected(triangle):
    assert triangle.compatibility_ok()
    assert triangle.form.is_nondegenerate()


def test_validate_monad(triangle):
    report = validate_monad(triangle, seed=0)
    assert report.valid
    assert report.generic_injectivity == "pass"
    assert report.pointwise_surjectivity == "probed"


def test_triangle_curve_closed_form(triangle):
    x = [HomPoly.variable(QQ, 3, i) for i in range(3)]
    target = (x[0] * x[0] * x[1] * x[1] + x[0] * x[0] * x[2] * x[2]
              + x[1] * x[1] * x[2] * x[2])
    curve = triangle.jlsk_curve()
    assert curve.degree == 4
    assert curve.proportional(target)
    assert triangle.jlsk_via_form().proportional(curve)


def form_route_by_entries(monad):
    """Reference for jlsk_via_form: one product of signed minors for each
    nonzero entry of the inverse form."""
    C = monad.form.inverse().matrix
    sigma = monad.signed_minors()
    acc = HomPoly.zero(monad.field, 3, 2 * monad.n - 2)
    for r in range(monad.n):
        for rp in range(monad.n):
            if not C[r, rp].is_zero():
                acc = acc + (sigma[r] * sigma[rp]).scale(C[r, rp])
    return acc.canonical()


def test_form_route_matches_entrywise_reference(six_line_bundle):
    for monad in (six_line_bundle.monad, hulsbergen_instance_5().payload["monad"]):
        assert monad.jlsk_via_form() == form_route_by_entries(monad)


def test_triangle_rank_profile(triangle):
    assert triangle.at((1, 1, 1)).rank == 2
    corank = triangle.n - triangle.at((0, 0, 1)).rank
    assert corank == 2
    # splitting order on the line: corank minus one
    assert corank - 1 == 1


def test_pencil_built_once_per_projective_point(triangle):
    assert triangle.at((0, 0, 2)) is triangle.at((0, 0, 1))
    assert triangle.at((0, 0, 1)) == pencil_at(triangle.maps, (0, 0, 1))


def test_triangle_jumping_points(triangle):
    locus = triangle.jumping_points()
    assert locus.zero_dimensional and locus.fully_resolved
    got = sorted(tuple(c.serialize() for c in p) for p in locus.points)
    want = sorted([("1/1", "0/1", "0/1"), ("0/1", "1/1", "0/1"),
                   ("0/1", "0/1", "1/1")])
    assert got == want


def test_triangle_left_kernel_spaces(triangle):
    pencil = triangle.at((0, 0, 1))
    left = pencil.left
    assert left.dim == 1 and left.ambient == 2
    assert left.contains_vector((1, 0, 0))
    assert left.contains_vector((0, 1, 0))
    right = ProjSubspace(QQ, 1, pencil.right)
    assert right.ambient == 1
    assert right == ProjSubspace.from_point(QQ, (1, 1))
    assert pencil.contracted == ProjSubspace.from_point(QQ, (0, 0, 1))


def test_orthogonality_equality_at_rank_drop_one(triangle):
    for z in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]:
        report = orthogonality_report(triangle, z)
        assert report.corank == 2
        assert report.contained and report.equality and report.passed


def test_orthogonality_refused_off_support(triangle):
    with pytest.raises(PreconditionError):
        orthogonality_report(triangle, (1, 1, 1))


def test_biflex_over_rationals_leaves_tangents_open(triangle):
    reports = biflex_reports(triangle, triangle.jumping_points().points)
    assert len(reports) == 3
    for r in reports:
        assert r.multiplicity == 2 and r.is_node
        # the node branches form one conjugate pair: a single open factor
        assert r.unresolved_tangents == 1 and not r.tangent_orders
        assert r.passed


def test_biflex_over_gauss_field_resolves_order_four():
    fi = Field(-1)
    maps = triangle_maps(fi)
    monad = MonadData(maps, select_compatible_form(fi, maps))
    for r in biflex_reports(monad, monad.jumping_points().points):
        assert r.is_node and r.unresolved_tangents == 0
        assert r.tangent_orders == [4, 4]
        assert r.passed


def bilinear_probe_symmetric(monad, z, w):
    grid = monad.a_V()
    prod = grid.evaluate(z).transpose() * (monad.form.matrix * grid.evaluate(w))
    return prod == prod.transpose()


def test_s_grid_symmetric_iff_compatible(triangle):
    # the symmetrised quadratic grid is symmetric for any form; the two-point
    # bilinear grid is symmetric exactly when the monad is compatible
    grid = triangle.s_grid()
    for i in range(2):
        for j in range(2):
            assert grid[i][j] == grid[j][i]
    basis = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert all(bilinear_probe_symmetric(triangle, z, w)
               for z in basis for w in basis)
    bad = SymForm.from_rows(QQ, [[1, 1, 0], [1, 2, 0], [0, 0, 1]])
    incompatible = MonadData(triangle.maps, bad)
    assert not incompatible.compatibility_ok()
    g2 = incompatible.s_grid()
    for i in range(2):
        for j in range(2):
            assert g2[i][j] == g2[j][i]
    assert not all(bilinear_probe_symmetric(incompatible, z, w)
                   for z in basis for w in basis)


def test_compatible_form_space_contains_selected(triangle):
    basis = compatible_form_space(QQ, triangle.maps)
    assert basis
    # every basis element satisfies the symmetry condition
    for mat in basis:
        cand = MonadData(triangle.maps, SymForm(mat)) if not mat.det().is_zero() else None
        if cand is not None:
            assert cand.compatibility_ok()


def test_determinantal_degree_formula():
    # corank-one locus of an (n-1) x n grid has degree n choose 2
    for n in range(2, 10):
        assert determinantal_degree(n - 1, n, n - 2) == comb(n, 2)
    # generic 2 x 3 grid drops to rank one on a cubic curve
    assert determinantal_degree(2, 3, 1) == 3


def test_multiplicity_bound_values():
    assert multiplicity_bound(4, 2) == 1
    assert multiplicity_bound(9, 6) == 3
    for n in range(3, 8):
        for rank in range(1, n):
            assert multiplicity_bound(n, rank) == comb(n - rank, 2)


def test_middle_rank_at(triangle):
    # evaluating the middle grid at a basis covector
    assert middle_rank_at(triangle, (1, 0, 0)) <= triangle.n


def test_monad_constructor_validation():
    maps = triangle_maps()
    with pytest.raises(PreconditionError):
        MonadData(maps[:2], select_compatible_form(QQ, maps))
    degenerate = SymForm.from_rows(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    with pytest.raises(PreconditionError):
        MonadData(maps, degenerate)
