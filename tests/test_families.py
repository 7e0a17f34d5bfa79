"""Worked instances: each report card must be fully green."""
import random
from fractions import Fraction
from itertools import permutations
from math import comb

import pytest

from schurlab.exact_math import QQ, Field, Matrix, ProjSubspace
from schurlab.families import (EXAMPLES, _cross_join_line, _line_from_equations,
                               _orbit_of_line, _pair_by_disjointness, _quadrics_through_lines,
                               bring_instance, clebsch_instance,
                               hulsbergen_instance_4, hulsbergen_instance_5,
                               n2_instance, schwarzenberger_detect,
                               triangle_monad_n3)
from schurlab.polyring import HomPoly, monomials


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
    inst = bring_instance()
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
    a = triangle_monad_n3()
    b = triangle_monad_n3()
    assert a.payload["curve"].serialize() == b.payload["curve"].serialize()


# ---------------------------------------------------------------------------
# references for the Clebsch construction: each re-derives what the builder
# now reads off a permutation or an evaluation


def even_permutations():
    """The 60 permutations of range(5) with an even number of inversions."""
    return [p for p in permutations(range(5))
            if sum(p[i] > p[j] for i in range(5) for j in range(i + 1, 5)) % 2 == 0]


def reference_orbit_of_line(field, eqs):
    """The even-permutation orbit of the line cut by two covectors on
    5-space and the all-ones covector, one kernel per permuted system over
    all 60 even permutations."""
    seen = {}
    for p in even_permutations():
        permuted = []
        for cov in eqs:
            out = [None] * 5
            for i, c in enumerate(cov):
                out[p[i]] = c
            permuted.append(out)
        line = _line_from_equations(field, permuted)
        seen.setdefault(str(line.serialize()), line)
    return [seen[k] for k in sorted(seen)]


def reference_quadrics_through_lines(field, lines):
    """Quadrics on 4-space through the lines, by restricting each monomial
    to each line and asking its three coefficients to vanish."""
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


def clebsch_seeds():
    field = Field(5)
    half = Fraction(1, 2)
    one, zero = field.one, field.zero
    seeds = []
    for root in (field.scalar(half, half), field.scalar(half, -half)):
        seeds.append([[one, root, one, zero, zero], [zero, one, root, one, zero]])
    return field, seeds


def serialized(items):
    return [item.serialize() for item in items]


def test_orbit_by_permutation_matches_resolving():
    field, seeds = clebsch_seeds()
    for eqs in seeds:
        orbit = _orbit_of_line(_line_from_equations(field, eqs))
        assert len(orbit) == 6
        assert serialized(orbit) == serialized(reference_orbit_of_line(field, eqs))


def test_quadrics_by_evaluation_match_restriction_on_the_clebsch_net():
    field, seeds = clebsch_seeds()
    first, second = (_orbit_of_line(_line_from_equations(field, eqs))
                     for eqs in seeds)
    second = [second[j] for j in _pair_by_disjointness(first, second)]
    lines = [second[0], second[1],
             _cross_join_line(first[0], second[1], first[1], second[0])]
    net = _quadrics_through_lines(field, lines)
    assert len(net) == 3
    assert serialized(net) == serialized(
        reference_quadrics_through_lines(field, lines))


def test_quadrics_by_evaluation_match_restriction_on_seeded_lines():
    rng = random.Random(7)
    compared = 0
    while compared < 20:
        lines = [ProjSubspace(QQ, 3, [[rng.randint(-4, 4) for _ in range(4)]
                                      for _ in range(2)])
                 for _ in range(3)]
        if any(line.dim != 1 for line in lines):
            continue
        compared += 1
        assert serialized(_quadrics_through_lines(QQ, lines)) == serialized(
            reference_quadrics_through_lines(QQ, lines))
