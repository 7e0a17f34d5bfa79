"""Univariate helpers over an exact Field, and the one bridge to sympy.

Polynomials are plain lists of Scalars, ascending by exponent.  sympy does two
things for the package, both in its own domains (QQ, or QQ<sqrt(s)> from
``sympy_domain``): ``factor_univar`` factors over the field, and
``zeros.multivariate_gcd`` takes the gcd of two forms.  Scalars cross the
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


def univar_rem(a, b) -> list[Scalar]:
    """Remainder of a on division by a nonzero b, trimmed."""
    r, b = trim(a), trim(b)
    binv = b[-1].inverse()
    while len(r) >= len(b):
        shift = len(r) - len(b)
        q = r[-1] * binv
        for i, c in enumerate(b):
            r[shift + i] = r[shift + i] - q * c
        r = trim(r)
    return r


def univar_gcd(field: Field, a, b) -> list[Scalar]:
    """Monic gcd by the Euclid remainder loop."""
    a, b = trim(a), trim(b)
    while b:
        a, b = b, univar_rem(a, b)
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


def factor_univar(field: Field, coeffs) -> tuple[Scalar, list[tuple[list[Scalar], int]]]:
    """Factor into irreducibles over the field.  Returns (unit, [(factor, mult)]),
    factors monic of degree >= 1, so the unit is the leading coefficient.
    sympy factors; the product is re-verified exactly here."""
    coeffs = trim(coeffs)
    if not coeffs:
        raise PreconditionError("factoring the zero polynomial")
    poly = sympy.Poly([to_domain(c) for c in reversed(coeffs)], _T,
                      domain=sympy_domain(field))
    _, parts = sympy.factor_list(poly)
    factors = [(monic([from_domain(field, c) for c in reversed(base.rep.to_list())]),
                int(mult)) for base, mult in parts]
    unit = coeffs[-1]
    prod = [unit]
    for fac, mult in factors:
        for _ in range(mult):
            new = [field.zero] * (len(prod) + len(fac) - 1)
            for i, a in enumerate(prod):
                for j, b in enumerate(fac):
                    new[i + j] = new[i + j] + a * b
            prod = new
    if prod != coeffs:
        raise ClaimError("factorization failed exact re-check")
    factors.sort(key=lambda fm: (len(fm[0]), [c.serialize() for c in fm[0]]))
    return unit, factors


def roots_with_multiplicity(field: Field, coeffs):
    """Roots in the field.  Returns (roots, unresolved) where roots is a list of
    (Scalar, multiplicity) and unresolved collects the irreducible factors of
    degree >= 2 that do not split, as (monic coefficient list, multiplicity)."""
    _, factors = factor_univar(field, coeffs)
    roots: list[tuple[Scalar, int]] = []
    unresolved: list[tuple[list[Scalar], int]] = []
    for fac, mult in factors:
        d = len(fac) - 1
        if d == 1:
            roots.append((-fac[0] / fac[1], mult))
            continue
        if d == 2:
            # quadratic formula as an independent check on the factorizer
            disc = fac[1] * fac[1] - 4 * fac[0] * fac[2]
            r = disc.sqrt()
            if r is not None:
                two_a = 2 * fac[2]
                roots.append(((-fac[1] + r) / two_a, mult))
                roots.append(((-fac[1] - r) / two_a, mult))
                continue
        unresolved.append((fac, mult))
    if not all(eval_univar(coeffs, root).is_zero() for root, _ in roots):
        raise ClaimError("a root failed exact re-check")
    return roots, unresolved
