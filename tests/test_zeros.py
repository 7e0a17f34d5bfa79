"""Common zeros of ternary forms and local curve behaviour at a point."""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import EIGHT_LINES
from schurlab.errors import ClaimError, PreconditionError
from schurlab.exact_math import QQ, vec_canonical
from schurlab.logbundle import build_logbundle
from schurlab.polyring import (HomPoly, local_singularity, multivariate_gcd,
                               resolved_common_zeros, solve_pair)
from schurlab.polyring import zeros
from schurlab.polyring.zeros import _find_shear, _solve
from test_integral_kernels import cases, rand_form

PINNED = Path(__file__).parent / "pinned" / "zero_loci.json"


def vars3():
    return [HomPoly.variable(QQ, 3, i) for i in range(3)]


def pts(seq):
    out = []
    for p in seq:
        p = tuple(QQ.coerce(c) for c in p)
        out.append(tuple(c.serialize() for c in vec_canonical(p)))
    return sorted(out)


def test_solve_pair_four_transverse_points():
    x, y, z = vars3()
    sol = solve_pair(x * y, (x - z) * (y - z))
    assert sol.total_degree == 4
    assert not sol.unresolved_forms
    assert pts(sol.points) == pts([(0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1)])


def test_solve_pair_unresolved_quadratic():
    x, y, z = vars3()
    # y = 0, x^2 = 2 z^2 has no rational solutions
    sol = solve_pair(x * x - z * z - z * z, y)
    assert not sol.points
    assert sol.unresolved_forms


def test_common_factor_detected():
    x, y, z = vars3()
    loc = resolved_common_zeros([x * (x + y), x * (y + z)])
    assert not loc.zero_dimensional
    assert loc.common_factor.proportional(x)
    assert pts(loc.points) == pts([(1, -1, 1)])


def test_solve_refuses_a_common_factor():
    # its caller strips the common factor first; a system that still has
    # one splits off the lone generator y + z, which has no pair to solve
    x, y, z = vars3()
    with pytest.raises(ClaimError, match="system is not zero-dimensional"):
        _solve([x * (y + z), y * (y + z)])


def test_solve_pair_refuses_a_zero_form():
    x, y, z = vars3()
    zero = HomPoly.zero(QQ, 3, 2)
    for f, g in ((zero, x), (x, zero)):
        with pytest.raises(PreconditionError, match="two nonzero forms"):
            solve_pair(f, g)
        # no shear makes a zero form nonzero, and the search ends on its grid
        with pytest.raises(ClaimError, match="no admissible shear"):
            _find_shear(f, g)


def test_solve_pair_refuses_a_zero_form_without_asserts():
    # python -O strips asserts; a zero form must still be refused at once
    script = ("from test_zeros import test_solve_pair_refuses_a_zero_form\n"
              "test_solve_pair_refuses_a_zero_form()\n")
    tests = Path(__file__).parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)])}
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env, timeout=60)
    assert done.returncode == 0


def test_three_generators_zero_dimensional():
    x, y, z = vars3()
    loc = resolved_common_zeros([x * y, y * z, x * z])
    assert loc.zero_dimensional and loc.fully_resolved
    assert pts(loc.points) == pts([(1, 0, 0), (0, 1, 0), (0, 0, 1)])


def test_local_singularity_node(no_sympy_factoring):
    x, y, z = vars3()
    ls = local_singularity(x * y, (0, 0, 1))
    assert ls.multiplicity == 2
    assert ls.is_node
    assert ls.tangent_orders == [3, 3]   # each branch is a line of the curve


def test_local_singularity_smooth_point():
    x, y, z = vars3()
    conic = y * z - x * x
    ls = local_singularity(conic, (0, 0, 1))
    assert ls.multiplicity == 1 and not ls.is_node
    assert len(ls.tangent_orders) == 1


def test_local_singularity_irrational_tangents(no_sympy_factoring):
    x, y, z = vars3()
    # x^2 - 2 y^2 splits only over sqrt(2): two conjugate lines of the curve
    curve = x * x - y * y - y * y
    ls = local_singularity(curve, (0, 0, 1))
    assert ls.multiplicity == 2 and ls.is_node
    assert ls.tangent_orders == [3, 3]


def test_conjugate_tangents_share_one_order():
    x, y, z = vars3()
    pair = x * x - y * y - y * y
    # the cubic layer y^3 is prime to the cone x^2 - 2 y^2
    assert local_singularity(pair * z + y * y * y, (0, 0, 1)).tangent_orders == [3, 3]
    # a layer divisible by the cone does not end the contact
    quartic = pair * z * z + pair * y * z + y * y * y * y
    assert local_singularity(quartic, (0, 0, 1)).tangent_orders == [4, 4]
    # an irreducible cubic cone: three conjugate tangents
    cone = x * x * x - y * y * y - y * y * y
    assert local_singularity(cone * z + y ** 4, (0, 0, 1)).tangent_orders == [4, 4, 4]


def test_line_intersection_order():
    x, y, z = vars3()
    conic = y * z - x * x
    # tangent line of a smooth conic meets with order exactly two
    assert local_singularity(conic, (0, 0, 1)).tangent_orders == [2]
    cusp = y * y * z - x * x * x
    cls = local_singularity(cusp, (0, 0, 1))
    assert cls.multiplicity == 2 and not cls.is_node
    assert cls.tangent_orders == [3]


def test_repeated_cone_line_is_not_a_node(no_sympy_factoring):
    x, y, z = vars3()
    # cone x^2 with no degree drop: one tangent, a factor of multiplicity two
    for curve, order in ((x * x * z - y ** 3, 3), (x * x * z * z - y ** 4, 4)):
        ls = local_singularity(curve, (0, 0, 1))
        assert ls.multiplicity == 2 and not ls.is_node
        assert ls.tangent_orders == [order]


def test_cubic_with_node_branch_orders(no_sympy_factoring):
    x, y, z = vars3()
    # nodal cubic: branches meet their tangents with order three
    nodal = y * y * z - x * x * z - x * x * x
    ls = local_singularity(nodal, (0, 0, 1))
    assert ls.is_node and ls.tangent_orders == [3, 3]


def canonical(seq):
    return [vec_canonical(tuple(QQ.coerce(c) for c in p)) for p in seq]


def test_locus_is_exactly_its_points_in_any_order():
    x, y, z = vars3()
    loc = resolved_common_zeros([x * y, (x - z) * (y - z)])
    four = canonical([(1, 0, 1), (0, 1, 0), (1, 0, 0), (0, 1, 1)])
    assert loc.is_exactly(four)
    assert not loc.is_exactly(four[:3])            # a point missing
    assert not loc.is_exactly(four + canonical([(1, 1, 1)]))  # an extra point


def test_locus_is_exactly_needs_a_resolved_zero_dimensional_locus():
    x, y, z = vars3()
    # y = 0, x^2 = 2 z^2: no rational point, one unresolved form
    unresolved = resolved_common_zeros([y, x * x - z * z.scale(2)])
    assert unresolved.points == [] and not unresolved.fully_resolved
    assert not unresolved.is_exactly([])
    # x y and x z share the line x = 0; the residual y = z = 0 is one point
    curve = resolved_common_zeros([x * y, x * z])
    assert not curve.zero_dimensional
    assert curve.points == canonical([(1, 0, 0)])
    assert not curve.is_exactly(curve.points)


def seeded_coprime_pairs():
    """Three pairs of forms of degrees 1 to 3 per seed of cases(), over Q
    and Q(sqrt s), kept when both are nonzero and coprime."""
    for k, rng, field in cases():
        for j in range(3):
            f = rand_form(rng, field, 3, 1 + (k + j) % 3)
            g = rand_form(rng, field, 3, 1 + (k // 3 + 2 * j) % 3)
            if not (f.is_zero() or g.is_zero() or multivariate_gcd(f, g).degree):
                yield f, g


def form_record(p):
    """The degree of a form and the SHA-256 of its serialized coefficients,
    which run to thousands of digits."""
    return [p.degree, hashlib.sha256(json.dumps(p.serialize()).encode()).hexdigest()]


def pair_record(ps):
    return {"shear": list(ps.shear),
            "points": [[c.serialize() for c in p] for p in ps.points],
            "unresolved_forms": [form_record(p) for p in ps.unresolved_forms],
            "base_roots": [[[a.serialize(), b.serialize()], m] for (a, b), m in ps.base_roots]}


def eight_line_record():
    """The 8-line jumping locus as resolved_common_zeros gives it, and the
    solution of the one minor pair it is solved from."""
    pairs = []
    solve = zeros.solve_pair

    def recorded(f, g):
        pairs.append(solve(f, g))
        return pairs[-1]

    zeros.solve_pair = recorded
    try:
        minors = build_logbundle(QQ, EIGHT_LINES).monad.signed_minors()
        locus = zeros.resolved_common_zeros(minors)
    finally:
        zeros.solve_pair = solve
    return {"common_factor": locus.common_factor and form_record(locus.common_factor),
            "points": [[c.serialize() for c in p] for p in locus.points],
            "unresolved_forms": [form_record(p) for p in locus.unresolved_forms],
            "pairs": [pair_record(ps) for ps in pairs]}


def pinned_records():
    return {"pairs": [pair_record(solve_pair(f, g)) for f, g in seeded_coprime_pairs()],
            "eight_lines": eight_line_record()}


def test_zero_loci_match_pinned():
    """Points, unresolved forms and base roots of the seeded coprime pairs
    and of the 8-line jumping locus, against the records in PINNED, written
    by running this file as a script."""
    pinned = json.loads(PINNED.read_text())
    got = pinned_records()
    assert len(got["pairs"]) == len(pinned["pairs"]) >= 100
    for k, (record, want) in enumerate(zip(got["pairs"], pinned["pairs"])):
        assert record == want, k
    eight = pinned["eight_lines"]
    assert eight["common_factor"] is None and len(eight["points"]) == 8
    assert sorted(d for d, _ in eight["unresolved_forms"]) == [3, 4, 6, 12]
    assert sum(m for (_, b), m in eight["pairs"][0]["base_roots"] if b == "0/1") == 4
    assert got["eight_lines"] == eight


if __name__ == "__main__":
    PINNED.parent.mkdir(exist_ok=True)
    PINNED.write_text(json.dumps(pinned_records(), indent=1) + "\n")
    print(f"wrote {PINNED}", file=sys.stderr)
