"""Univariate helpers over an exact Field, and the one bridge to sympy.

Polynomials are plain lists of Scalars, ascending by exponent.  sympy has
one job in the package: ``factor_univar`` has it factor over QQ, squarefree
parts first (``sympy.sqf_list``, then ``sympy.factor_list`` on each part of
degree >= 2).  ``factor_univar`` settles degree <= 2 in closed form, from
the square root of the discriminant, and factors over Q(sqrt(s)) by
Trager's norm method (Trager, "Algebraic factoring and rational function
integration", SYMSAC 1976; Cohen, "A Course in Computational Algebraic
Number Theory", Alg. 3.6.4): only the rational norm goes to sympy, and its
factors are lifted to the field by gcds computed here.  Polynomials cross
the bridge as integers, never as sympy expressions, and every answer that
comes back is re-checked in exact arithmetic; a factorization is
multiplied back over Z or Z[sqrt(s)].  Gcds and resultants come from one
subresultant PRS over Z or Z[sqrt(s)] (``subresultant_prs``), every
division in it checked exact.  Its inputs lead with a nonzero coefficient:
``univar_gcd`` trims them, and the restrictions of ``zeros`` lead with a
constant the shear makes nonzero.  ``zeros.multivariate_gcd`` runs it at
the nodes of its evaluation gcd, ``zeros.solve_pair`` at the nodes of the
eliminant and at the base roots for the fibers.
"""
from __future__ import annotations

from math import gcd

import sympy

from ..errors import ClaimError, PreconditionError
from ..exact_math import Field, Scalar
from ..exact_math.matrices import (_exact_quotient, clear_denominators, from_integral,
                                   integral_ring)


def trim(coeffs: list[Scalar]) -> list[Scalar]:
    out = list(coeffs)
    while out and out[-1].is_zero():
        out.pop()
    return out


def degree(coeffs: list[Scalar]) -> int:
    """Degree, with -1 for the zero polynomial."""
    return len(trim(coeffs)) - 1


def eval_univar(coeffs, x: Scalar) -> Scalar:
    total = x.field.zero
    for c in reversed(list(coeffs)):
        total = total * x + c
    return total


def monic(coeffs: list[Scalar]) -> list[Scalar]:
    t = trim(coeffs)
    if not t:
        return t
    inv = t[-1].inverse()
    return [c * inv for c in t]


def univar_divmod(a, b) -> tuple[list[Scalar], list[Scalar]]:
    """Quotient and remainder of a on division by a nonzero b, trimmed."""
    r, b = trim(a), trim(b)
    binv = b[-1].inverse()
    quo = [binv.field.zero] * max(len(r) - len(b) + 1, 0)
    while len(r) >= len(b):
        shift = len(r) - len(b)
        q = quo[shift] = r[-1] * binv
        for i, c in enumerate(b):
            r[shift + i] = r[shift + i] - q * c
        r = trim(r)
    return quo, r


def univar_rem(a, b) -> list[Scalar]:
    """Remainder of a on division by a nonzero b, trimmed."""
    return univar_divmod(a, b)[1]


def univar_mul(a, b) -> list[Scalar]:
    """Product of two nonzero polynomials."""
    out = [a[0].field.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def _integral_mul(ring, a, b) -> list:
    """Product of two nonzero polynomials over Z or Z[sqrt(s)]."""
    n, rb = len(b) - 1, b[::-1]
    return [ring.dot(a[max(0, k - n):k + 1], rb[max(0, n - k):])
            for k in range(len(a) + n)]


def _power(ring, x, e: int):
    out = ring.one
    for _ in range(e):
        out = ring.mul(out, x)
    return out


def _prem(ring, a, b) -> list:
    """Pseudo-remainder of the integral a by b, whose leading coefficient is
    nonzero: the remainder of lc(b)^(deg a - deg b + 1) * a, trimmed."""
    zero, mul, sub = ring.zero, ring.mul, ring.sub
    lead, r = b[-1], list(a)
    spare = len(a) - len(b) + 1
    while len(r) >= len(b):
        c, shift = r[-1], len(r) - len(b)
        r = [mul(lead, x) for x in r[:-1]]
        for i, y in enumerate(b[:-1]):
            r[shift + i] = sub(r[shift + i], mul(c, y))
        while r and r[-1] == zero:
            r.pop()
        spare -= 1
    scale = _power(ring, lead, spare)
    return [mul(scale, x) for x in r]


def subresultant_prs(a, b, s: int | None) -> tuple[list, object]:
    """(last, res) for polynomials a and b over Z (s None) or Z[sqrt(s)]
    (ascending lists of nonzero leading coefficient, as clear_denominators
    gives them): last is the last nonzero member of their subresultant
    polynomial remainder sequence, a nonzero constant times gcd(a, b) over
    the field, and res is their resultant.  Each step divides the
    pseudo-remainder by g h^delta, and by the subresultant theorem every
    such division is exact (Collins, "Subresultants and reduced polynomial
    remainder sequences", J. ACM 14, 1967; Cohen, "A Course in Computational
    Algebraic Number Theory", Alg. 3.3.7); _exact_quotient raises
    ClaimError if one is not."""
    ring = integral_ring(s)
    negate = False
    if len(a) < len(b):
        a, b, negate = b, a, (len(a) - 1) * (len(b) - 1) % 2 == 1
    g = h = ring.one
    while True:
        delta = len(a) - len(b)
        if (len(a) - 1) % 2 and (len(b) - 1) % 2:
            negate = not negate
        divisor = ring.mul(g, _power(ring, h, delta))
        a, b = b, [_exact_quotient(x, divisor, s) for x in _prem(ring, a, b)]
        g = a[-1]
        if delta:
            h = _exact_quotient(_power(ring, g, delta), _power(ring, h, delta - 1), s)
        if len(b) <= 1:
            break
    if len(a) == 1:
        res = h
    elif not b:
        res = ring.zero
    else:
        res = _exact_quotient(_power(ring, b[0], len(a) - 1), _power(ring, h, len(a) - 2), s)
    return (b or a), (ring.sub(ring.zero, res) if negate else res)


def univar_gcd(field: Field, a, b) -> list[Scalar]:
    """Monic gcd: the last nonzero member of the subresultant PRS of a and b
    cleared to Z or Z[sqrt(s)], made monic in the field."""
    a, b = trim(a), trim(b)
    if not a or not b:
        return monic(a or b)
    last, _ = subresultant_prs(clear_denominators(field, a)[1],
                               clear_denominators(field, b)[1], field.s)
    return monic([from_integral(field, x, 1) for x in last])


_T = sympy.Symbol("t")


def _taylor_shift(coeffs, c: Scalar) -> list[Scalar]:
    """coeffs(t + c), by Horner's rule."""
    out: list[Scalar] = []
    for a in reversed(coeffs):
        out = [c.field.zero] + out
        for i in range(len(out) - 1):
            out[i] = out[i] + c * out[i + 1]
        out[0] = out[0] + a
    return out


def _low_degree_factors(m: list[Scalar]) -> list[tuple[list[Scalar], int]]:
    """Factors of a monic polynomial of degree <= 2 in closed form: a
    quadratic splits exactly when its discriminant has a square root r, into
    t + (b -+ r)/2, and a zero discriminant makes it a square."""
    if len(m) < 3:
        return [(m, 1)] if len(m) == 2 else []
    b = m[1]
    r = (b * b - 4 * m[0]).sqrt()
    if r is None:
        return [(m, 1)]
    if r.is_zero():
        return [([b / 2, m[2]], 2)]
    return [([(b - r) / 2, m[2]], 1), ([(b + r) / 2, m[2]], 1)]


def _rational_factors(field: Field, ints) -> list[tuple[list[Scalar], int]]:
    """Factors over Q of a polynomial given by its integer coefficients, as
    clear_denominators gives them, as monic polynomials over the field, with
    multiplicities.  Its content is divided out, and ``sympy.sqf_list``
    splits the primitive part into squarefree parts; a part of degree 1 is
    irreducible as it stands, and ``sympy.factor_list`` factors each other
    part on its own (Yun, "On square-free decomposition algorithms", SYMSAC
    1976).  A factor's multiplicity is its part's times the one factor_list
    gives.  The parts of a true decomposition are coprime, so a factor met
    in two of them is a ClaimError; the product is re-checked by
    ``factor_univar``."""
    content = gcd(*ints)
    poly = sympy.Poly([x // content for x in reversed(ints)], _T, domain=sympy.ZZ)
    factors = {}
    for part, mult in sympy.sqf_list(poly)[1]:
        irreducibles = [(part, 1)] if part.degree() == 1 else sympy.factor_list(part)[1]
        for base, m in irreducibles:
            fac = tuple(monic([field.scalar(int(c)) for c in reversed(base.rep.to_list())]))
            if fac in factors:
                raise ClaimError("a factor came back from two squarefree parts: "
                                 "factorization failed exact re-check")
            factors[fac] = mult * int(m)
    return [(list(fac), mult) for fac, mult in factors.items()]


def _norm_factors(field: Field, h: list[Scalar]) -> list[list[Scalar]]:
    """Irreducible factors over Q(sqrt(s)) of a monic h of degree >= 1, by
    Trager's norm method.  Each part q of h still to be split is moved to
    q(t + c), c = k*sqrt(s) for k = 0, 1, -1, 2, ... in turn, whose norm,
    its product with its conjugate, has rational coefficients.  Each irreducible
    factor p of the norm over Q has a root in common with q(t + c), and over
    the field p is irreducible or splits into two conjugate factors of half
    its degree.  So gcd(q(t + c), p) has degree >= 1, and when that degree
    is half of p's the gcd is an irreducible factor of q(t + c); every
    irreducible factor divides some p.  A gcd is all of p only when q(t + c)
    has a factor with rational coefficients or a factor and its conjugate,
    that is when 2c is the difference of a root of q and a root of its
    conjugate; such a gcd is shifted back and tried again at the next k.
    At most deg(h)^2 values of k fail, k = 0 among them for every q with
    rational coefficients.  Each norm is cleared to integers and factored by
    ``_rational_factors``, squarefree parts first; h itself needs no
    squarefree part, since the gcds read each distinct factor once."""
    n = len(h) - 1
    factors, pending = [], [h]
    for j in range(n * n + 1):
        k = (j + 1) // 2 * (1 if j % 2 else -1)        # 0, 1, -1, 2, ...
        shift, retry = field.sqrt_gen() * k, []
        for q in pending:
            if k == 0 and not any(c.b for c in q):
                retry.append(q)
                continue
            moved = _taylor_shift(q, shift)
            norm = clear_denominators(field, univar_mul(moved, [c.conjugate() for c in moved]))[1]
            for p, _ in _rational_factors(field, [a for a, _ in norm]):
                g = univar_gcd(field, moved, p)
                if len(g) == 1:
                    raise ClaimError("a factor of the norm is prime to the polynomial: "
                                     "factorization failed exact re-check")
                (factors if 2 * len(g) == len(p) + 1 else retry).append(_taylor_shift(g, -shift))
        pending = retry
        if not pending:
            return factors
    raise ClaimError(f"no shift among {n * n + 1} splits the norm")


def factor_univar(field: Field, coeffs) -> tuple[Scalar, list[tuple[list[Scalar], int]]]:
    """Factor into irreducibles over the field.  Returns (unit, [(factor, mult)]),
    factors monic of degree >= 1 sorted by degree, then coefficients, so the
    unit is the leading coefficient.  Degree <= 2 is settled in closed form;
    above it sympy factors the cleared input over QQ by squarefree parts
    (``_rational_factors``), and over Q(sqrt(s)) ``_norm_factors`` finds the
    factors and exact division their multiplicities.  One integral re-check
    serves both fields: the input and each factor are cleared to Z or
    Z[sqrt(s)], and the product of the cleared factors, each to its
    multiplicity, must have the input's length and be proportional to the
    cleared input, c_i * P_top == P_i * c_top.  The factors are monic and
    the unit is the input's leading coefficient, so this is the equality
    unit * prod(factor^mult) == input."""
    coeffs = trim(coeffs)
    if not coeffs:
        raise PreconditionError("factoring the zero polynomial")
    unit = coeffs[-1]
    target = clear_denominators(field, coeffs)[1]
    if len(coeffs) <= 3:
        factors = _low_degree_factors(monic(coeffs))
    elif field.is_rational:
        factors = _rational_factors(field, target)
    else:
        rest, factors = coeffs, []
        for fac in _norm_factors(field, monic(coeffs)):
            mult = 0
            quo, rem = univar_divmod(rest, fac)
            while not rem:
                rest, mult = quo, mult + 1
                quo, rem = univar_divmod(rest, fac)
            factors.append((fac, mult))
    ring = integral_ring(field.s)
    prod = [ring.one]
    for fac, mult in factors:
        cleared = clear_denominators(field, fac)[1]
        for _ in range(mult):
            prod = _integral_mul(ring, prod, cleared)
    if len(prod) != len(target) or any(
            ring.mul(c, target[-1]) != ring.mul(x, prod[-1]) for c, x in zip(prod, target)):
        raise ClaimError("factorization failed exact re-check")
    factors.sort(key=lambda fm: (len(fm[0]), [c.serialize() for c in fm[0]]))
    return unit, factors


def roots_with_multiplicity(field: Field, coeffs):
    """Roots in the field.  Returns (roots, unresolved) where roots is a list of
    (Scalar, multiplicity) and unresolved collects the irreducible factors of
    degree >= 2, as (monic coefficient list, multiplicity).  The factors of
    ``factor_univar`` are irreducible and monic, so the roots are those of
    the linear factors; each is re-checked exactly."""
    _, factors = factor_univar(field, coeffs)
    roots = [(-fac[0], mult) for fac, mult in factors if len(fac) == 2]
    unresolved = [(fac, mult) for fac, mult in factors if len(fac) > 2]
    if not all(eval_univar(coeffs, root).is_zero() for root, _ in roots):
        raise ClaimError("a root failed exact re-check")
    return roots, unresolved
