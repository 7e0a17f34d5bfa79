"""Exact scalars over Q or a quadratic extension Q(sqrt(s)).

A Field fixes the extension once (s = None for plain Q, otherwise a squarefree
integer, not 0 or 1).  Every Scalar stores three integers a, b, d meaning
(a + b*sqrt(s)) / d, normalised to d > 0 and gcd(a, b, d) = 1; in the rational
field b is identically 0.  The form is canonical, so equality compares
integers, and each operation ends in one gcd (none when d = 1).  Fractions
appear only at the edges: parsing, sqrt and the read-only views u = a/d and
v = b/d.  Scalars from different fields never mix.
Serialization: "p/q" for rationals, "[p/q, r/t]" for u + v*sqrt(s).
"""
from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, isqrt, lcm

from ..errors import PreconditionError


def _is_squarefree(n: int) -> bool:
    n = abs(n)
    if n == 0:
        return False
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


def _rational_sqrt(f: Fraction):
    """Exact square root of a nonnegative rational, or None."""
    if f < 0:
        return None
    p, q = f.numerator, f.denominator
    rp, rq = isqrt(p), isqrt(q)
    if rp * rp == p and rq * rq == q:
        return Fraction(rp, rq)
    return None


MAX_MODULUS = 10 ** 9
"""Largest |s| accepted for Q(sqrt(s)); the squarefree test is trial division."""

MAX_LITERAL_DIGITS = 4300
"""Most digits of a numerator or denominator written by a literal, and the
largest |e| of a literal such as "1e5" (Fraction() builds 10^e in full).
4300 is the default limit of Python's int <-> str conversions, so every
parsed scalar can be serialized again."""

_LITERAL_BOUND = 10 ** MAX_LITERAL_DIGITS

_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def _parse_rational(text: str, part: str) -> Fraction:
    """One rational part of the literal text, bounded by MAX_LITERAL_DIGITS."""
    exponent = _EXPONENT.search(part)
    if exponent and abs(int(exponent.group(1))) > MAX_LITERAL_DIGITS:
        raise PreconditionError(f"exponent of scalar literal {text!r} exceeds {MAX_LITERAL_DIGITS}")
    value = Fraction(part.strip())
    if max(abs(value.numerator), value.denominator) >= _LITERAL_BOUND:
        raise PreconditionError(f"scalar literal {text!r} exceeds {MAX_LITERAL_DIGITS} digits")
    return value


_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases: exact for every n below
    3.18 * 10^23, far above the 61-bit primes it is asked about."""
    if n < 2:
        return False
    for q in _MILLER_RABIN_BASES:
        if n % q == 0:
            return n == q
    d, e = n - 1, 0
    while d % 2 == 0:
        d, e = d // 2, e + 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(e - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _sqrt_mod(a: int, p: int) -> int:
    """A square root of the nonzero square a modulo the odd prime p (Tonelli-Shanks)."""
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, e = p - 1, 0
    while q % 2 == 0:
        q, e = q // 2, e + 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, t, x = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (e - i - 1), p)
        e, c, t, x = i, b * b % p, t * b * b % p, x * b % p
    return x


class Field:
    """Field context: Q when s is None, else Q(sqrt(s)) with s squarefree."""

    __slots__ = ("s", "_zero", "_one", "_primes")

    def __init__(self, s: int | None = None):
        if s is not None:
            if isinstance(s, int) and abs(s) > MAX_MODULUS:
                raise PreconditionError(f"extension modulus |s| must be at most {MAX_MODULUS}, got {s!r}")
            if not isinstance(s, int) or s in (0, 1) or not _is_squarefree(s):
                raise PreconditionError(f"extension modulus must be squarefree and not 0/1, got {s!r}")
        self.s = s
        self._zero = Scalar(0, 0, 1, self)
        self._one = Scalar(1, 0, 1, self)
        self._primes: list[tuple[int, int | None]] = []

    @property
    def is_rational(self) -> bool:
        return self.s is None

    def scalar(self, u, v=0) -> Scalar:
        """u + v*sqrt(s) for ints, Fractions or anything Fraction() reads."""
        if type(u) is int and type(v) is int:
            if v and self.s is None:
                raise PreconditionError("nonzero sqrt part in a rational field")
            return Scalar(u, v, 1, self)
        u = Fraction(u)
        v = Fraction(v)
        if self.s is None and v != 0:
            raise PreconditionError("nonzero sqrt part in a rational field")
        # over the lcm of two reduced denominators the form is already
        # canonical: a prime power exactly dividing d divides one of them
        # exactly, and that fraction's numerator is prime to it
        d = lcm(u.denominator, v.denominator)
        return Scalar(u.numerator * (d // u.denominator),
                      v.numerator * (d // v.denominator), d, self)

    @property
    def zero(self) -> Scalar:
        return self._zero

    @property
    def one(self) -> Scalar:
        return self._one

    def prime(self, k: int) -> tuple[int, int | None]:
        """The k-th prime p of the descending sequence from 2^61 - 1 at which
        the field reduces to F_p: every prime for Q; for Q(sqrt(s)) the
        primes not dividing 2s at which s is a nonzero square.  Returned with
        a square root r of s modulo p (None for Q), so sqrt(s) -> +r and -r
        are the two reductions.  Chosen once per field, then reused."""
        primes = self._primes
        p = primes[-1][0] if primes else 2 ** 61 + 1
        while len(primes) <= k:
            p -= 2
            if not _is_prime(p):
                continue
            if self.s is None:
                primes.append((p, None))
            elif self.s % p and pow(self.s % p, (p - 1) // 2, p) == 1:
                primes.append((p, _sqrt_mod(self.s % p, p)))
        return primes[k]

    def sqrt_gen(self) -> Scalar:
        if self.s is None:
            raise PreconditionError("rational field has no extension generator")
        return self.scalar(0, 1)

    def coerce(self, x) -> Scalar:
        if isinstance(x, Scalar):
            if x.field is not self and x.field != self:
                raise PreconditionError("scalar from a different field")
            return x
        return self.scalar(x)

    def parse(self, text: str) -> Scalar:
        text = text.strip()
        if text.startswith("["):
            if self.s is None:
                raise PreconditionError(f"quadratic literal {text!r} in a rational field")
            parts = text[1:-1].split(",") if text.endswith("]") else []
            if len(parts) != 2:
                raise PreconditionError(f"malformed scalar literal {text!r}")
        else:
            parts = [text]
        try:
            return self.scalar(*(_parse_rational(text, part) for part in parts))
        except (ValueError, ZeroDivisionError):
            raise PreconditionError(f"malformed scalar literal {text!r}") from None

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and self.s == other.s

    def __hash__(self) -> int:
        return hash(("Field", self.s))

    def __repr__(self) -> str:
        return "Field(Q)" if self.s is None else f"Field(Q(sqrt({self.s})))"


def canonical_scalar(field: Field, a: int, b: int, d: int) -> Scalar:
    """The scalar (a + b*sqrt(s)) / d, d != 0, in canonical form."""
    if d < 0:
        a, b, d = -a, -b, -d
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    return Scalar(a, b, d, field)


class Scalar:
    """(a + b*sqrt(s)) / d for integers a, b, d with d > 0, gcd(a, b, d) = 1
    and b = 0 over Q.  The form is canonical, so equal scalars have equal
    integers.  The constructor stores the integers as given; build scalars
    through Field.scalar or arithmetic."""

    __slots__ = ("a", "b", "d", "field")

    def __init__(self, a: int, b: int, d: int, field: Field):
        self.a = a
        self.b = b
        self.d = d
        self.field = field

    @property
    def u(self) -> Fraction:
        """The rational part a / d."""
        return Fraction(self.a, self.d)

    @property
    def v(self) -> Fraction:
        """The coefficient b / d of sqrt(s)."""
        return Fraction(self.b, self.d)

    def is_zero(self) -> bool:
        return not (self.a or self.b)

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.field is not self.field and other.field != self.field:
                raise PreconditionError("mixing scalars from different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.scalar(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d, od = self.d, o.d
        return canonical_scalar(self.field, self.a * od + o.a * d, self.b * od + o.b * d, d * od)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(-self.a, -self.b, self.d, self.field)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d, od = self.d, o.d
        return canonical_scalar(self.field, self.a * od - o.a * d, self.b * od - o.b * d, d * od)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, oa, ob = self.a, self.b, o.a, o.b
        if b or ob:
            return canonical_scalar(self.field, a * oa + self.field.s * b * ob,
                                    a * ob + b * oa, self.d * o.d)
        return canonical_scalar(self.field, a * oa, 0, self.d * o.d)

    __rmul__ = __mul__

    def conjugate(self) -> Scalar:
        return Scalar(self.a, -self.b, self.d, self.field)

    def inverse(self) -> Scalar:
        return Scalar(1, 0, 1, self.field)._divide(self)

    def _divide(self, o: Scalar) -> Scalar:
        """self / o: multiply by d_o * conj(o) over the integer norm of o."""
        a, b, oa, ob = self.a, self.b, o.a, o.b
        if ob:
            s = self.field.s
            return canonical_scalar(self.field, o.d * (a * oa - s * b * ob),
                                    o.d * (b * oa - a * ob), self.d * (oa * oa - s * ob * ob))
        if not oa:
            raise ZeroDivisionError("inverse of zero scalar")
        return canonical_scalar(self.field, a * o.d, b * o.d, self.d * oa)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._divide(o)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o._divide(self)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = self.field.one
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def sqrt(self):
        """A square root in the same field, or None if there is none."""
        f = self.field
        if self.is_zero():
            return f.zero
        if f.s is None:
            r = _rational_sqrt(self.u)
            return None if r is None else f.scalar(r)
        A, B, s = self.u, self.v, f.s
        if B == 0:
            r = _rational_sqrt(A)
            if r is not None:
                return f.scalar(r)
            r = _rational_sqrt(A / s)
            if r is not None:
                return f.scalar(0, r)
            return None
        # (a + b*sqrt(s))^2 = A + B*sqrt(s): a^2 + s b^2 = A, 2ab = B.
        w = _rational_sqrt(A * A - s * B * B)
        if w is None:
            return None
        for half in (( A + w) / 2, (A - w) / 2):
            a = _rational_sqrt(half)
            if a is not None and a != 0:
                b = B / (2 * a)
                cand = f.scalar(a, b)
                if cand * cand == self:
                    return cand
        return None

    def __eq__(self, other) -> bool:
        if isinstance(other, Scalar):
            return (self.a == other.a and self.b == other.b and self.d == other.d
                    and (self.field is other.field or self.field == other.field))
        if isinstance(other, int):
            return not self.b and self.d == 1 and self.a == other
        if isinstance(other, Fraction):
            return not self.b and self.a == other.numerator and self.d == other.denominator
        return NotImplemented

    def __hash__(self) -> int:
        if not self.b:
            return hash(self.u)
        return hash((self.u, self.v, self.field.s))

    def serialize(self) -> str:
        try:
            if self.field.s is None:
                return f"{self.a}/{self.d}"
            u, v = self.u, self.v
            return f"[{u.numerator}/{u.denominator}, {v.numerator}/{v.denominator}]"
        except ValueError as exc:  # str() of an int past Python's digit limit
            raise PreconditionError(f"a computed scalar exceeds MAX_LITERAL_DIGITS = "
                                    f"{MAX_LITERAL_DIGITS} digits") from exc

    def __repr__(self) -> str:
        if self.field.s is None or not self.b:
            return str(self.u)
        return f"({self.u}+{self.v}*sqrt({self.field.s}))"


QQ = Field()
