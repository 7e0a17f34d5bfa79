"""Univariate helpers over an exact Field, and the one bridge to sympy.

Polynomials are plain lists of Scalars, ascending by exponent.  sympy does two
things for the package: ``factor_univar`` has it factor over QQ, and
``zeros.multivariate_gcd`` takes the gcd of two forms over QQ or QQ<sqrt(s)>
(``sympy_domain``).  ``factor_univar`` settles degree <= 2 in closed form,
from the square root of the discriminant, and factors over Q(sqrt(s)) by
Trager's norm method (Trager, "Algebraic factoring and rational function
integration", SYMSAC 1976; Cohen, "A Course in Computational Algebraic
Number Theory", Alg. 3.6.4): only the rational norm goes to sympy, and its
factors are lifted to the field by gcds computed here.  Scalars cross the
bridge by ``to_domain``/``from_domain``, never as sympy expressions, and
every answer that comes back is re-checked in exact arithmetic.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import sympy

from ..errors import ClaimError, PreconditionError
from ..exact_math import Field, Scalar


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


def univar_gcd(field: Field, a, b) -> list[Scalar]:
    """Monic gcd by the Euclid remainder loop.  Each remainder is made monic,
    which keeps the coefficients from growing along the sequence."""
    a, b = trim(a), monic(b)
    while b:
        a, b = b, monic(univar_rem(a, b))
    return monic(a)


@lru_cache(maxsize=None)
def sympy_domain(field: Field):
    """sympy's domain for the field: QQ, or QQ<sqrt(s)> generated by sqrt(s).

    An element of QQ<sqrt(s)> is a polynomial [v, u] in the generator modulo
    its minimal polynomial; checking that modulus is x^2 - s proves the
    generator is a square root of s, so u + v*sqrt(s) <-> [v, u] is a field
    isomorphism."""
    if field.is_rational:
        return sympy.QQ
    domain = sympy.QQ.algebraic_field(sympy.sqrt(field.s))
    if domain.mod.to_list() != [1, 0, -field.s]:
        raise ClaimError(f"sympy's generator of {domain} is not a square root of {field.s}")
    return domain


def _qq(f: Fraction):
    return sympy.QQ(f.numerator, f.denominator)


def _fraction(q) -> Fraction:
    return Fraction(int(q.numerator), int(q.denominator))


def to_domain(c: Scalar):
    if c.field.is_rational:
        return _qq(c.u)
    return sympy_domain(c.field)([_qq(c.v), _qq(c.u)])


def from_domain(field: Field, a) -> Scalar:
    if field.is_rational:
        return field.scalar(_fraction(a))
    v, u = ([sympy.QQ.zero] * 2 + a.to_list())[-2:]
    return field.scalar(_fraction(u), _fraction(v))


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


def _rational_factors(field: Field, coeffs) -> list[tuple[list[Scalar], int]]:
    """sympy's factors over QQ of a polynomial with rational coefficients, as
    monic polynomials over the field, with multiplicities."""
    poly = sympy.Poly([_qq(c.u) for c in reversed(coeffs)], _T, domain=sympy.QQ)
    _, parts = sympy.factor_list(poly)
    return [(monic([field.scalar(_fraction(c)) for c in reversed(base.rep.to_list())]),
             int(mult)) for base, mult in parts]


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
    rational coefficients.  Repeated factors need no squarefree part first:
    the gcds read each distinct factor once."""
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
            for p, _ in _rational_factors(field, univar_mul(moved, [c.conjugate() for c in moved])):
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
    above it sympy factors over QQ, and over Q(sqrt(s)) ``_norm_factors``
    finds the factors and exact division their multiplicities.  The product
    is re-verified exactly here."""
    coeffs = trim(coeffs)
    if not coeffs:
        raise PreconditionError("factoring the zero polynomial")
    unit = coeffs[-1]
    if len(coeffs) <= 3:
        factors = _low_degree_factors(monic(coeffs))
    elif field.is_rational:
        factors = _rational_factors(field, coeffs)
    else:
        rest, factors = coeffs, []
        for fac in _norm_factors(field, monic(coeffs)):
            mult = 0
            quo, rem = univar_divmod(rest, fac)
            while not rem:
                rest, mult = quo, mult + 1
                quo, rem = univar_divmod(rest, fac)
            factors.append((fac, mult))
    prod = [unit]
    for fac, mult in factors:
        for _ in range(mult):
            prod = univar_mul(prod, fac)
    if prod != coeffs:
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
