"""Worked instances: each report card must be fully green."""
from math import comb

import pytest

from schurlab.families import (EXAMPLES, bring_instance, clebsch_instance,
                               hulsbergen_instance_4, hulsbergen_instance_5,
                               n2_instance, schwarzenberger_detect,
                               triangle_monad_n3)


@pytest.fixture(scope="module")
def clebsch():
    return clebsch_instance()


def test_registry_names():
    assert sorted(EXAMPLES) == ["bring", "clebsch", "hulsbergen4",
                                "hulsbergen5", "n2", "schwarzenberger",
                                "triangle"]


def test_clebsch_all_checks(clebsch):
    assert clebsch.passed, clebsch.failed_checks()


def test_clebsch_key_claims(clebsch):
    c = clebsch.checks
    assert c["pairs_orthogonal_under_gram"]
    assert c["schur_matches_gram"]
    assert c["double_six_incidence"]
    assert c["quadric_pullback_matches_gram"]
    assert c["surface_pullback_matches_cubic"]


def test_bring_section():
    inst = bring_instance(seed=1)
    assert inst.passed, inst.failed_checks()
    assert inst.checks["square_sum_restricts_to_quadric"]
    assert inst.checks["cube_sum_restricts_to_cubic"]
    assert inst.checks["section_degree_6"]
    assert inst.checks["section_count_6"]


def test_triangle_instance():
    inst = triangle_monad_n3()
    assert inst.passed, inst.failed_checks()
    assert inst.checks["curve_matches"]
    assert inst.checks["jumping_points_are_coordinate_points"]


def test_n2_instance():
    inst = n2_instance()
    assert inst.passed, inst.failed_checks()
    assert inst.checks["single_jumping_point"]
    assert inst.checks["curve_two_lines_through_point"]


def test_hulsbergen_four_lines():
    inst = hulsbergen_instance_4()
    assert inst.passed, inst.failed_checks()
    assert inst.checks["minors_are_complementary_products"]
    assert inst.checks["image_equation_matches_partial_transpose"]
    assert inst.checks["curve_in_span_of_squares"]
    assert inst.checks["support_is_pairwise_intersections"]
    assert inst.checks["support_count"]
    assert len(inst.payload["locus"].points) == comb(4, 2)


def test_hulsbergen_five_lines():
    inst = hulsbergen_instance_5()
    assert inst.passed, inst.failed_checks()
    assert inst.checks["image_equations_in_minor_ideal_degree"]
    assert inst.checks["image_equations_vanish_parametrically"]
    assert inst.checks["curve_in_span_of_squares"]
    assert inst.checks["support_count"]
    assert len(inst.payload["locus"].points) == comb(5, 2)


def test_schwarzenberger_positive_dimensional():
    inst = schwarzenberger_detect()
    assert inst.passed, inst.failed_checks()
    assert inst.checks["jumping_scheme_positive_dimensional"]
    assert inst.checks["common_factor_is_conic"]
    assert inst.checks["curve_is_conic_cubed"]


def test_builders_deterministic():
    a = triangle_monad_n3(seed=0)
    b = triangle_monad_n3(seed=0)
    assert a.payload["curve"].serialize() == b.payload["curve"].serialize()
