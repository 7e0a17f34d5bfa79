"""Certificate checker, independent of the program.

It imports nothing from schurlab and recomputes every property it checks
with ``fractions`` from the structured certificate and the input the
benchmark generated.  Each ``check_*`` function returns a list of problems;
an empty list means the certificate is accepted.
"""
from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations

from inputs import det

OK_STATUS = ("pass", "probed")


def scalar(text: str) -> Fraction:
    if text.startswith("["):
        raise ValueError(f"quadratic scalar {text!r} where a rational was expected")
    return Fraction(text)


def poly(serialized) -> dict:
    return {tuple(exp): scalar(c) for exp, c in serialized}


def poly_degree(p: dict) -> int:
    degrees = {sum(e) for e in p}
    if len(degrees) != 1:
        raise ValueError(f"not homogeneous: degrees {sorted(degrees)}")
    return degrees.pop()


def derivative(p: dict, var: int) -> dict:
    out = {}
    for exp, c in p.items():
        if exp[var]:
            e = list(exp)
            e[var] -= 1
            out[tuple(e)] = c * exp[var]
    return out


def evaluate(p: dict, point) -> Fraction:
    total = Fraction(0)
    for exp, c in p.items():
        term = c
        for x, k in zip(point, exp):
            term *= x ** k
        total += term
    return total


def vanishing_order(p: dict, point, limit: int) -> int:
    """Largest k <= limit with every partial of order < k zero at point."""
    layer = [p]
    for order in range(limit):
        if any(evaluate(q, point) != 0 for q in layer):
            return order
        layer = [derivative(q, v) for q in layer for v in range(3)]
    return limit


def canonical(point) -> tuple:
    point = [Fraction(x) for x in point]
    lead = next(x for x in point if x != 0)
    return tuple(x / lead for x in point)


def point_set(points) -> set:
    return {canonical(p) for p in points}


def matrix(serialized) -> list:
    return [[scalar(x) for x in row] for row in serialized]


def matmul(a, b) -> list:
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def transpose(a) -> list:
    return [list(col) for col in zip(*a)]


def load(text: str, exit_code: int, command: str, problems: list):
    """Parse a certificate and check what every certificate must satisfy:
    exit code 0, the right command and schema, no failed or unresolved
    claim.  Returns the claims by id, or None if unreadable."""
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    try:
        cert = json.loads(text)
    except ValueError as exc:
        problems.append(f"certificate is not JSON: {exc}")
        return None, None
    if cert.get("schema") != "schurlab-certificate/1" or cert.get("command") != command:
        problems.append("wrong schema or command")
    if cert.get("status") not in OK_STATUS or "error" in cert:
        problems.append(f"overall status {cert.get('status')!r}")
    claims = {}
    for c in cert.get("claims", []):
        claims[c["id"]] = c
        if c["status"] not in OK_STATUS:
            problems.append(f"claim {c['id']} is {c['status']}")
    return cert, claims


def need(claims: dict, claim_id: str, problems: list):
    c = claims.get(claim_id)
    if c is None:
        problems.append(f"claim {claim_id} missing")
        return None
    return c.get("witness", {})


def check_cubic(text: str, exit_code: int, points) -> list:
    problems: list = []
    cert, claims = load(text, exit_code, "cubic", problems)
    if cert is None:
        return problems
    hexad = point_set(points)
    for claim_id in ("base-points-recovered", "support-is-hexad"):
        w = need(claims, claim_id, problems)
        if w is not None and point_set(matrix(w["resolved_points"])) != hexad:
            problems.append(f"{claim_id}: resolved points differ from the input hexad")
    curve = poly(cert["artifacts"]["curve"])
    if poly_degree(curve) != 6:
        problems.append("curve degree is not 6")
    for p in hexad:
        if vanishing_order(curve, p, 2) < 2:
            problems.append(f"curve is not singular at {p}")
    w = need(claims, "polarity-routes-agree", problems)
    if w is not None:
        prod = matmul(matrix(w["kernel_route"]), matrix(w["orthogonality_route"]))
        lam = prod[0][0]
        if lam == 0 or any(prod[i][j] != (lam if i == j else 0)
                           for i in range(4) for j in range(4)):
            problems.append("the two quadric routes are not projectively inverse")
    return problems


def _symmetric_nondegenerate(form, problems: list, what: str) -> None:
    if form != transpose(form):
        problems.append(f"{what} is not symmetric")
    elif det(form) == 0:
        problems.append(f"{what} is degenerate")


def check_logbundle(text: str, exit_code: int, lines) -> list:
    """Six lines (d = 3): support equals the dual points and the curve has a
    double point at each.  Eight lines (d = 4): dimensions (8, 9, 8), a
    symmetric nondegenerate pairing form, degree 16 and order >= 3 at each
    dual point."""
    problems: list = []
    cert, claims = load(text, exit_code, "logbundle", problems)
    if cert is None:
        return problems
    d = len(lines) // 2
    n = (d - 1) ** 2
    duals = point_set(lines)
    w = need(claims, "dimensions", problems)
    if w is not None and w["dims"] != [n - 1, n, n - 1]:
        problems.append(f"dimensions {w['dims']}")
    w = need(claims, "pairing-form-unique", problems)
    if w is not None:
        _symmetric_nondegenerate(matrix(w["form"]), problems, "pairing form")
    curve = poly(cert["artifacts"]["curve"])
    if poly_degree(curve) != 2 * n - 2:
        problems.append(f"curve degree is not {2 * n - 2}")
    if d == 3:
        w = need(claims, "support-is-dual-points", problems)
        if w is not None and point_set(matrix(w["resolved_points"])) != duals:
            problems.append("support differs from the dual points")
        for p in duals:
            if vanishing_order(curve, p, 3) != 2:
                problems.append(f"curve does not vanish to order 2 at {p}")
    else:
        for p in duals:
            if vanishing_order(curve, p, 3) < 3:
                problems.append(f"curve vanishes to order < 3 at {p}")
    return problems


def check_monad(text: str, exit_code: int, maps) -> list:
    problems: list = []
    cert, claims = load(text, exit_code, "monad", problems)
    if cert is None:
        return problems
    w = need(claims, "form-selected", problems)
    if w is None:
        return problems
    form = matrix(w["form"])
    _symmetric_nondegenerate(form, problems, "selected form")
    mats = [[[Fraction(x) for x in row] for row in m] for m in maps]
    for i, j in combinations(range(3), 2):
        p = matmul(transpose(mats[i]), matmul(form, mats[j]))
        if p != transpose(p):
            problems.append(f"A{i}^T B A{j} is not symmetric")
    return problems


# Headline claims of acceptance tests 1, 3, 8 and 9, by example name.
HEADLINE = {
    "clebsch": ["lines_on_cubic", "double_six_incidence",
                "pairs_orthogonal_under_gram", "schur_matches_gram"],
    "triangle": ["monad_valid", "curve_matches",
                 "jumping_points_are_coordinate_points"],
    "hulsbergen4": ["image_equation_matches_partial_transpose",
                    "curve_in_span_of_squares", "support_count"],
    "hulsbergen5": ["image_equations_in_minor_ideal_degree",
                    "image_equations_vanish_parametrically",
                    "curve_in_span_of_squares", "support_count"],
    "schwarzenberger": ["jumping_scheme_positive_dimensional",
                        "common_factor_is_conic", "curve_is_conic_cubed"],
}


def check_example(text: str, exit_code: int, name: str) -> list:
    problems: list = []
    cert, claims = load(text, exit_code, "example", problems)
    if cert is None:
        return problems
    if cert["artifacts"].get("example") != name:
        problems.append(f"certificate is for {cert['artifacts'].get('example')!r}")
    if not claims:
        problems.append("no claims")
    for claim_id in HEADLINE.get(name, []):
        c = claims.get(claim_id)
        if c is None or c["status"] != "pass":
            problems.append(f"headline claim {claim_id} missing or not pass")
    return problems
