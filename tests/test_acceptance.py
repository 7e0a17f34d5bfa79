"""Acceptance gate: the headline claims, one pass/fail line per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to see one line per claim.
All arithmetic is exact; every comparison is a literal polynomial or matrix
identity, never a numerical tolerance.
"""
import random
from math import comb

import pytest

import test_properties as props
from schurlab.detrep import build_detrep
from schurlab.errors import PreconditionError
from schurlab.exact_math import QQ, vec_canonical
from schurlab.families import (clebsch_instance, hulsbergen_instance_4,
                               hulsbergen_instance_5, schwarzenberger_detect,
                               triangle_monad_n3)
from schurlab.hulek_monad import (biflex_reports, determinantal_degree,
                                  orthogonality_report, validate_monad)
from schurlab.logbundle import arrangement_jump_check, build_logbundle
from schurlab.polyring import HomPoly, sorted_points
from schurlab.schurform import induced_monad, schur_pair

EIGHT_LINES = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1),
               (1, 2, 3), (1, 4, 9), (2, 5, 1), (3, 1, 7)]


@pytest.fixture(scope="module")
def hexad_monad(std_rep):
    return induced_monad(std_rep)


def test_01_clebsch_diagonal_double_six_gives_the_standard_pairing():
    inst = clebsch_instance()
    assert inst.checks["lines_on_cubic"]
    assert inst.checks["double_six_incidence"]
    assert inst.checks["pairs_orthogonal_under_gram"]
    assert inst.checks["schur_matches_gram"]
    assert inst.passed, inst.failed_checks()


def test_02_quadric_routes_agree_on_five_seeded_hexads():
    rng = random.Random(7)
    successes = 0
    attempts = 0
    while successes < 5 and attempts < 200:
        attempts += 1
        points = [tuple(rng.randint(-9, 9) for _ in range(3))
                  for _ in range(6)]
        if any(all(c == 0 for c in p) for p in points):
            continue
        try:
            rep = build_detrep(QQ, points)
        except PreconditionError:
            continue
        # raises if either kernel is not one-dimensional or routes disagree
        B, C = schur_pair(rep)
        assert B.is_nondegenerate() and C.is_nondegenerate()
        assert B.inverse().proportional(C)
        successes += 1
    assert successes == 5, f"only {successes} hexads in {attempts} attempts"


def test_03_triangle_monad_curve_is_the_symmetric_quartic():
    inst = triangle_monad_n3()
    x = [HomPoly.variable(QQ, 3, i) for i in range(3)]
    target = (x[0] * x[0] * x[1] * x[1] + x[0] * x[0] * x[2] * x[2]
              + x[1] * x[1] * x[2] * x[2])
    assert inst.payload["curve"].proportional(target)
    assert inst.passed, inst.failed_checks()


def test_04_hexad_monad_support_and_six_nodes(std_rep, hexad_monad):
    curve = hexad_monad.jlsk_curve()
    assert curve.degree == 6
    locus = hexad_monad.jumping_points()
    assert locus.zero_dimensional and locus.fully_resolved
    hexad = [vec_canonical(tuple(QQ.coerce(c) for c in p))
             for p in std_rep.points]
    assert sorted_points(locus.points) == sorted_points(hexad)
    reports = biflex_reports(hexad_monad, locus.points)
    assert len(reports) == 6
    for r in reports:
        assert r.multiplicity == 2 and r.is_node
        assert len(r.tangent_orders) == 2
        assert all(order >= 4 for order in r.tangent_orders)
        assert r.passed


def test_05_six_line_curve_equals_form_on_signed_minors(six_line_bundle):
    monad = six_line_bundle.monad
    det_route = monad.jlsk_curve()
    form_route = monad.jlsk_via_form()
    assert det_route.degree == 6
    assert form_route.proportional(det_route)


def test_06_orthogonality_at_resolved_jumping_points(std_rep, hexad_monad,
                                                     six_line_bundle):
    instances = [(hexad_monad, hexad_monad.jumping_points().points),
                 (six_line_bundle.monad,
                  six_line_bundle.monad.jumping_points().points)]
    tri = triangle_monad_n3().payload["monad"]
    instances.append((tri, tri.jumping_points().points))
    checked = 0
    for monad, points in instances:
        assert points
        for z in points:
            report = orthogonality_report(monad, z)
            assert report.contained
            if report.rank_drop_one:
                assert report.equality
            assert report.passed
            checked += 1
    assert checked == 15


def test_07_dual_point_bounds_for_six_and_eight_lines(six_line_bundle):
    lb3 = six_line_bundle
    assert lb3.n == (lb3.d - 1) ** 2 == 4
    assert lb3.dims == (3, 4, 3)
    minors3 = lb3.monad.signed_minors()
    for r in arrangement_jump_check(lb3):
        assert r.passed and all(m.evaluate(r.form).is_zero() for m in minors3)
        assert r.bound == r.expected_bound == 1
        assert r.rank == lb3.n - lb3.d + 1

    lb4 = build_logbundle(QQ, EIGHT_LINES)
    assert lb4.d == 4 and lb4.n == (lb4.d - 1) ** 2 == 9
    assert lb4.dims == (8, 9, 8)
    reports = arrangement_jump_check(lb4)
    assert len(reports) == 2 * lb4.d
    minors4 = lb4.monad.signed_minors()
    for r in reports:
        assert r.passed and all(m.evaluate(r.form).is_zero() for m in minors4)
        assert r.bound == r.expected_bound == (lb4.d - 1) * (lb4.d - 2) // 2 == 3
        assert r.rank == lb4.n - lb4.d + 1
    for f in lb4.forms:
        assert orthogonality_report(lb4.monad, f).contained
    assert validate_monad(lb4.monad).valid


def test_08_product_shape_grids_for_four_and_five_lines():
    four = hulsbergen_instance_4()
    assert four.passed, four.failed_checks()
    assert four.checks["image_equation_matches_partial_transpose"]
    assert four.checks["curve_in_span_of_squares"]
    assert len(four.payload["locus"].points) == comb(4, 2)
    five = hulsbergen_instance_5()
    assert five.passed, five.failed_checks()
    assert five.checks["image_equations_in_minor_ideal_degree"]
    assert five.checks["image_equations_vanish_parametrically"]
    assert five.checks["curve_in_span_of_squares"]
    assert len(five.payload["locus"].points) == comb(5, 2)


def test_09_conic_dual_arrangement_has_one_dimensional_jumping_scheme():
    inst = schwarzenberger_detect()
    assert not inst.payload["locus"].zero_dimensional
    assert inst.checks["common_factor_is_conic"]
    assert inst.checks["curve_is_conic_cubed"]
    assert inst.passed, inst.failed_checks()


def test_10_corank_locus_degree_formula():
    for n in range(2, 10):
        assert determinantal_degree(n - 1, n, n - 2) == comb(n, 2)
    # at n = 4 the residual surface degree is cubic
    n = 4
    assert (n - 1) ** 2 - comb(n, 2) == 3


def test_11_property_suites_over_one_hundred_seeded_cases():
    assert props.contract_leibniz_suite() == []
    assert props.kernel_annihilation_suite() == []
    assert props.canonical_idempotence_suite() == []
    assert props.polar_involution_suite() == []
    assert props.compatibility_symmetry_suite() == []
