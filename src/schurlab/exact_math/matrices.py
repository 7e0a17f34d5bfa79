"""Dense exact matrices over a Field, with one certified elimination core.

Every reduced row echelon form (and through it rank, kernel_basis, solve
and inverse) comes from modular images that are then proven exact:

1. Each row is cleared to integers (Z, or Z[sqrt(s)] as pairs (a, b) for
   a + b*sqrt(s)); row scaling leaves the RREF unchanged.
2. The RREF is taken modulo 61-bit primes from ``Field.prime``, descending
   from 2^61 - 1; over Q(sqrt(s)) under both reductions sqrt(s) -> +r and
   -r, which must give the same pivots.
3. Images sharing the best pivot set (highest rank, then lexicographically
   earliest pivots) are combined by the Chinese remainder theorem; images
   with a worse set are dropped.  Over Q(sqrt(s)) the two images e1, e2 of
   an entry u + v*sqrt(s) give u = (e1 + e2)/2 and v = (e1 - e2)/(2r).
4. The entries at the free columns are rationally reconstructed (Wang).
5. The candidate is accepted only after an exact check: for each free
   column j the vector v_j with v_j[j] = 1, supported on j and the pivots
   left of it, must satisfy M * v_j = 0 over Z or Z[sqrt(s)].

Why that check proves the answer: reduction cannot raise rank, so the
candidate rank r is at most the rank over the field; the verified v_j are
independent, so the kernel has dimension at least (columns - r) and the
ranks are equal.  Each v_j writes column j through earlier columns, so no
free column is a pivot over the field; with equal ranks the pivot sets are
equal, and the v_j are the unique RREF columns.  A failed check or
reconstruction adds a prime; past a fixed number of bits beyond the
Hadamard bound the core raises ClaimError rather than return anything
unverified.

Determinants use Bareiss's fraction-free elimination over the same
row-cleared integral entries, each division checked to be exact.  Products
clear each row of the left factor and each column of the right factor and
take integral dot products; the one division per entry happens when
from_integral makes it a Scalar.  IntegralRing is the one owner of the
arithmetic of Z and Z[sqrt(s)], for these kernels and for those of
polyring.  Vectors are plain tuples of Scalars.
"""
from __future__ import annotations

import operator
from bisect import bisect_left
from functools import lru_cache
from itertools import combinations_with_replacement
from math import gcd, isqrt, lcm
from typing import Callable, NamedTuple

from ..errors import ClaimError, PreconditionError
from .scalars import Field, Scalar, canonical_scalar


def vec_dot(a, b) -> Scalar:
    assert len(a) == len(b)
    out = a[0] * b[0]
    for x, y in zip(a[1:], b[1:]):
        out = out + x * y
    return out


def vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vec_scale(c: Scalar, a):
    return tuple(c * x for x in a)


def vec_is_zero(a) -> bool:
    return all(x.is_zero() for x in a)


def vec_canonical(a):
    """Scale so the first nonzero coordinate is 1; all-zero stays put."""
    for x in a:
        if not x.is_zero():
            inv = x.inverse()
            return tuple(inv * y for y in a)
    return tuple(a)


def clear_denominators(field: Field, scalars) -> tuple[int, list]:
    """(L, [L * x for x in scalars]) with L the least common denominator:
    ints over Q, pairs (a, b) meaning a + b*sqrt(s) over Q(sqrt(s)).  The
    canonical denominator d of a scalar is the least one that clears it."""
    mult = lcm(*(x.d for x in scalars))
    if field.s is None:
        return mult, [x.a * (mult // x.d) for x in scalars]
    return mult, [(x.a * (mult // x.d), x.b * (mult // x.d)) for x in scalars]


def from_integral(field: Field, x, den: int) -> Scalar:
    """The scalar x / den for an integral x as clear_denominators gives it."""
    if field.s is None:
        return canonical_scalar(field, x, 0, den)
    return canonical_scalar(field, x[0], x[1], den)


def _exact_quotient(x, y, s):
    """x / y in Z or Z[sqrt(s)]; ClaimError unless the division is exact."""
    if s is None:
        q, r = divmod(x, y)
    else:
        norm = y[0] * y[0] - s * y[1] * y[1]
        a, ra = divmod(x[0] * y[0] - s * x[1] * y[1], norm)
        b, rb = divmod(x[1] * y[0] - x[0] * y[1], norm)
        q, r = (a, b), ra or rb
    if r:
        raise ClaimError("fraction-free elimination met an inexact division")
    return q


class IntegralRing(NamedTuple):
    """Arithmetic of the ring clear_denominators clears into: Z (s None;
    ints, with the builtin operators) or Z[sqrt(s)] (pairs (a, b) meaning
    a + b*sqrt(s)).  Every integral kernel takes its arithmetic from here."""
    zero: object
    one: object
    embed: Callable      # an int as a ring element
    add: Callable
    sub: Callable
    mul: Callable
    dot: Callable        # sum of x * y over two sequences of ring elements
    combine: Callable    # sum of x * k over ring elements x and ints k


def _int_dot(xs, ys) -> int:
    return sum(map(operator.mul, xs, ys))


@lru_cache(maxsize=None)
def integral_ring(s: int | None) -> IntegralRing:
    if s is None:
        return IntegralRing(0, 1, int, operator.add, operator.sub, operator.mul,
                            _int_dot, _int_dot)

    def embed(k):
        return (k, 0)

    def add(x, y):
        return (x[0] + y[0], x[1] + y[1])

    def sub(x, y):
        return (x[0] - y[0], x[1] - y[1])

    def mul(x, y):
        return (x[0] * y[0] + s * x[1] * y[1], x[0] * y[1] + x[1] * y[0])

    def dot(xs, ys):
        rational = surd = cross = 0
        for x, y in zip(xs, ys):
            rational += x[0] * y[0]
            surd += x[1] * y[1]
            cross += x[0] * y[1] + x[1] * y[0]
        return (rational + s * surd, cross)

    def combine(xs, ks):
        return (sum(x[0] * k for x, k in zip(xs, ks)),
                sum(x[1] * k for x, k in zip(xs, ks)))

    return IntegralRing((0, 0), (1, 0), embed, add, sub, mul, dot, combine)


def integral_det(rows, s: int | None):
    """Determinant of a square matrix over Z (s None) or over Z[sqrt(s)]
    (entries (a, b) = a + b*sqrt(s)) by Bareiss's fraction-free
    elimination: every entry stays a minor, so every division is exact."""
    n = len(rows)
    ring = integral_ring(s)
    zero, mul, sub = ring.zero, ring.mul, ring.sub
    work = [list(r) for r in rows]
    negate = False
    prev = ring.one
    for k in range(n):
        sel = next((r for r in range(k, n) if work[r][k] != zero), None)
        if sel is None:
            return zero
        if sel != k:
            work[k], work[sel] = work[sel], work[k]
            negate = not negate
        piv = work[k]
        for row in work[k + 1:]:
            c = row[k]
            row[k + 1:] = [_exact_quotient(sub(mul(piv[k], x), mul(c, y)), prev, s)
                           for x, y in zip(row[k + 1:], piv[k + 1:])]
        prev = piv[k]
    det = work[n - 1][n - 1] if n else ring.one
    return sub(zero, det) if negate else det


def _rref_mod(work, p: int):
    """Gauss-Jordan modulo p, in place, on rows already reduced mod p:
    (nonzero rows of the RREF, pivot columns)."""
    ncols = len(work[0])
    pivots = []
    top = 0
    for col in range(ncols):
        sel = next((r for r in range(top, len(work)) if work[r][col]), None)
        if sel is None:
            continue
        work[top], work[sel] = work[sel], work[top]
        inv = pow(work[top][col], -1, p)
        tail = [x * inv % p for x in work[top][col:]]
        work[top][col:] = tail
        for r, row in enumerate(work):
            c = row[col]
            if c and r != top:
                row[col:] = [(x - c * y) % p for x, y in zip(row[col:], tail)]
        pivots.append(col)
        top += 1
        if top == len(work):
            break
    return work[:top], tuple(pivots)


def _image(rows, s, p: int, r):
    """Pivots and RREF entries modulo p, as one table for Q and as the
    tables of u and of v for Q(sqrt(s)); None when the two reductions of
    Q(sqrt(s)) disagree on the pivots."""
    if s is None:
        reduced, pivots = _rref_mod([[x % p for x in row] for row in rows], p)
        return pivots, (reduced,)
    plus, pivots = _rref_mod([[(a + r * b) % p for a, b in row] for row in rows], p)
    minus, other = _rref_mod([[(a - r * b) % p for a, b in row] for row in rows], p)
    if pivots != other:
        return None
    half, half_root = pow(2, -1, p), pow(2 * r, -1, p)
    u = [[(x + y) * half % p for x, y in zip(rp, rm)] for rp, rm in zip(plus, minus)]
    v = [[(x - y) * half_root % p for x, y in zip(rp, rm)] for rp, rm in zip(plus, minus)]
    return pivots, (u, v)


def _hadamard_bits(rows, s) -> int:
    """Bit length of a bound on every minor (product of row norms, each at
    least 1; |a + b*sqrt(s)| <= |a| + |b|*(isqrt|s| + 1) in every embedding)."""
    if s is None:
        return sum((isqrt(sum(x * x for x in row)) + 1).bit_length() for row in rows)
    t = isqrt(abs(s)) + 1
    return sum((isqrt(sum((abs(a) + abs(b) * t) ** 2 for a, b in row)) + 1).bit_length()
               for row in rows)


def _wang(a: int, m: int, bound: int):
    """The fraction n/d = a mod m with |n|, d <= bound, as the pair (n, d)
    with d > 0, or None (Wang 1981)."""
    r0, r1, t0, t1 = m, a, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _reconstruct(residues, modulus: int):
    """Rational reconstruction of each residue with |n|, d <= sqrt(m/2), as
    pairs (n, d) with d > 0, not necessarily coprime, or None if one has
    none.  A running common denominator answers most entries without a
    Euclidean run: the fraction in the box is unique."""
    bound = isqrt(modulus // 2)
    half = modulus // 2
    den = 1
    out = []
    for c in residues:
        t = c * den % modulus
        if t > half:
            t -= modulus
        if den <= bound and -bound <= t <= bound:
            out.append((t, den))
            continue
        x = _wang(c, modulus, bound)
        if x is None:
            return None
        den = lcm(den, x[1])
        out.append(x)
    return out


def _verified(rows, s, columns) -> bool:
    """Exact check of step 5: every candidate kernel vector is annihilated."""
    for j, (support, entries) in columns.items():
        if s is None:
            mult = lcm(*(d for _, d in entries))
            weights = [(c, -n * (mult // d)) for c, (n, d) in zip(support, entries)]
            weights.append((j, mult))
            if any(sum(row[c] * w for c, w in weights) for row in rows):
                return False
            continue
        mult = lcm(*(d for pair in entries for _, d in pair))
        weights = [(c, -nu * (mult // du), -nv * (mult // dv))
                   for c, ((nu, du), (nv, dv)) in zip(support, entries)]
        weights.append((j, mult, 0))
        for row in rows:
            if (sum(row[c][0] * wu + s * row[c][1] * wv for c, wu, wv in weights)
                    or sum(row[c][0] * wv + row[c][1] * wu for c, wu, wv in weights)):
                return False
    return True


def _certified_rref(field: Field, rows):
    """Pivots and {free column j: RREF entries of rows 0.. above it} for
    integral rows, as the module docstring describes.  Entries are fractions
    (n, d) over Q and pairs (u, v) of them over Q(sqrt(s)).  Reconstruction is
    tried after primes 1, 2, 3, 4, 6, 8, 11, ... of one pivot set, so its
    cost stays below that of the eliminations when many primes are needed."""
    s = field.s
    ncols = len(rows[0])
    cap_bits = (5 if s is None else 10) * _hadamard_bits(rows, s) + 256
    used_bits = 0
    best = None
    k = 0
    while True:
        if used_bits > cap_bits:
            raise ClaimError("exact elimination found no verified echelon form "
                             "within its prime budget")
        p, r = field.prime(k)
        k += 1
        used_bits += p.bit_length() - 1
        image = _image(rows, s, p, r)
        if image is None:
            continue
        pivots, tables = image
        key = (-len(pivots), pivots)
        if best is not None and key > best:
            continue
        if best is None or key < best:
            best = key
            pivset = set(pivots)
            free = [j for j in range(ncols) if j not in pivset]
            positions = [(i, j) for j in free for i in range(bisect_left(pivots, j))]
            residues = [0] * (len(positions) * len(tables))
            modulus, combined, attempt_at = 1, 0, 1
        inv = pow(modulus, -1, p)
        image_res = [table[i][j] for table in tables for i, j in positions]
        residues = [x + modulus * ((y - x) % p * inv % p)
                    for x, y in zip(residues, image_res)]
        modulus *= p
        combined += 1
        if combined < attempt_at:
            continue
        attempt_at = combined + 1 + combined // 4
        values = _reconstruct(residues, modulus)
        if values is None:
            continue
        if s is not None:
            values = list(zip(values[:len(positions)], values[len(positions):]))
        columns = {}
        at = 0
        for j in free:
            size = bisect_left(pivots, j)
            columns[j] = (pivots[:size], values[at:at + size])
            at += size
        if _verified(rows, s, columns):
            return pivots, {j: entries for j, (_, entries) in columns.items()}


class Matrix:
    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: Field, data):
        data = tuple(tuple(field.coerce(x) for x in row) for row in data)
        if data:
            w = len(data[0])
            if any(len(r) != w for r in data):
                raise PreconditionError("ragged matrix rows")
        self.field = field
        self.rows = len(data)
        self.cols = len(data[0]) if data else 0
        self.data = data

    @classmethod
    def zero(cls, field: Field, rows: int, cols: int) -> Matrix:
        z = field.zero
        return cls(field, [[z] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, field: Field, n: int) -> Matrix:
        z, o = field.zero, field.one
        return cls(field, [[o if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def from_rows(cls, field: Field, rows) -> Matrix:
        return cls(field, rows)

    @classmethod
    def from_cols(cls, field: Field, cols) -> Matrix:
        return cls(field, list(zip(*cols))) if cols else cls(field, [])

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def row(self, i):
        return self.data[i]

    def col(self, j):
        return tuple(self.data[i][j] for i in range(self.rows))

    def transpose(self) -> Matrix:
        return Matrix(self.field, list(zip(*self.data)) if self.data else [])

    def __add__(self, other: Matrix) -> Matrix:
        assert (self.rows, self.cols) == (other.rows, other.cols)
        return Matrix(self.field, [vec_add(r, s) for r, s in zip(self.data, other.data)])

    def __sub__(self, other: Matrix) -> Matrix:
        assert (self.rows, self.cols) == (other.rows, other.cols)
        return Matrix(self.field, [vec_sub(r, s) for r, s in zip(self.data, other.data)])

    def scale(self, c) -> Matrix:
        c = self.field.coerce(c)
        return Matrix(self.field, [vec_scale(c, r) for r in self.data])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            assert self.cols == other.rows
            field = self.field
            dot = integral_ring(field.s).dot
            left = [clear_denominators(field, r) for r in self.data]
            right = [clear_denominators(field, c) for c in zip(*other.data)]
            return Matrix(field, [[from_integral(field, dot(r, c), lr * lc)
                                   for lc, c in right] for lr, r in left])
        return NotImplemented

    def apply(self, v):
        """Matrix times column vector."""
        assert len(v) == self.cols
        return tuple(vec_dot(r, v) for r in self.data)

    def apply_left(self, v):
        """Row vector times matrix."""
        assert len(v) == self.rows
        return tuple(vec_dot(v, self.col(j)) for j in range(self.cols))

    def is_zero(self) -> bool:
        return all(vec_is_zero(r) for r in self.data)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.field == other.field
                and self.data == other.data)

    def __hash__(self):
        return hash((self.field, self.data))

    def rref(self) -> tuple[Matrix, tuple[int, ...]]:
        """Reduced row echelon form and pivot columns, certified as in the
        module docstring."""
        field = self.field
        z, o = field.zero, field.one
        out = [[z] * self.cols for _ in range(self.rows)]
        if not self.rows or not self.cols:
            return Matrix(field, out), ()
        rows = [clear_denominators(field, row)[1] for row in self.data]
        pivots, columns = _certified_rref(field, rows)
        for i, pc in enumerate(pivots):
            out[i][pc] = o
        for j, entries in columns.items():
            for i, x in enumerate(entries):
                if field.s is None:
                    out[i][j] = canonical_scalar(field, x[0], 0, x[1])
                else:
                    (nu, du), (nv, dv) = x
                    out[i][j] = canonical_scalar(field, nu * dv, nv * du, du * dv)
        return Matrix(field, out), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> list[tuple[Scalar, ...]]:
        """Deterministic basis of the right kernel (free-column construction
        on the reduced echelon form)."""
        R, pivots = self.rref()
        pivset = set(pivots)
        free = [j for j in range(self.cols) if j not in pivset]
        z, o = self.field.zero, self.field.one
        out = []
        for j in free:
            v = [z] * self.cols
            v[j] = o
            for i, pc in enumerate(pivots):
                v[pc] = -R.data[i][j]
            out.append(tuple(v))
        return out

    def left_kernel_basis(self) -> list[tuple[Scalar, ...]]:
        return self.transpose().kernel_basis()

    def det(self) -> Scalar:
        """Bareiss elimination over the row-cleared integral entries."""
        if self.rows != self.cols:
            raise PreconditionError("determinant of a non-square matrix")
        scale = 1
        rows = []
        for row in self.data:
            mult, ints = clear_denominators(self.field, row)
            scale *= mult
            rows.append(ints)
        return from_integral(self.field, integral_det(rows, self.field.s), scale)

    def inverse(self) -> Matrix:
        if self.rows != self.cols:
            raise PreconditionError("inverse of a non-square matrix")
        n = self.rows
        eye = Matrix.identity(self.field, n).data
        aug = Matrix(self.field, [self.data[i] + eye[i] for i in range(n)])
        R, pivots = aug.rref()
        if pivots[:n] != tuple(range(n)):
            raise PreconditionError("matrix is singular")
        return Matrix(self.field, [row[n:] for row in R.data])

    def solve(self, b):
        """One solution of self * x = b, or None if inconsistent."""
        assert len(b) == self.rows
        x = self.solve_columns(Matrix.from_cols(self.field, [b]))
        return None if x is None else x.col(0)

    def solve_columns(self, rhs: Matrix):
        """One solution X of self * X = rhs, free unknowns zero, from one
        elimination of [self | rhs]; None if some column is inconsistent."""
        aug = Matrix(self.field, [r + s for r, s in zip(self.data, rhs.data, strict=True)])
        R, pivots = aug.rref()
        if pivots and pivots[-1] >= self.cols:
            return None
        x = [[self.field.zero] * rhs.cols for _ in range(self.cols)]
        for i, pc in enumerate(pivots):
            x[pc] = R.data[i][self.cols:]
        return Matrix(self.field, x)

    def submatrix(self, row_idx, col_idx) -> Matrix:
        return Matrix(self.field, [[self.data[i][j] for j in col_idx] for i in row_idx])

    def serialize(self):
        return [[x.serialize() for x in row] for row in self.data]

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"


@lru_cache(maxsize=None)
def sym_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """Index pairs u <= v, the coordinates of a symmetric n x n unknown."""
    return tuple(combinations_with_replacement(range(n), 2))


def sym_row(n: int, bilinear) -> list:
    """The functional X -> sum over u, v of bilinear(u, v) * X[u][v] on
    symmetric X, as its row over sym_pairs(n)."""
    return [bilinear(u, u) if u == v else bilinear(u, v) + bilinear(v, u)
            for u, v in sym_pairs(n)]


class SymForm:
    """Symmetric bilinear form given by its (symmetric) Gram matrix."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: Matrix):
        if matrix.rows != matrix.cols:
            raise PreconditionError("symmetric form needs a square matrix")
        if matrix != matrix.transpose():
            raise PreconditionError("form matrix is not symmetric")
        self.matrix = matrix

    @classmethod
    def from_rows(cls, field: Field, rows) -> SymForm:
        return cls(Matrix(field, rows))

    @classmethod
    def from_pairs(cls, field: Field, n: int, vec) -> SymForm:
        """The form X with X[u][v] = X[v][u] = vec[k] for the k-th pair (u, v)
        of sym_pairs(n), so that a sym_row dotted with vec is its functional
        at X."""
        rows = [[field.zero] * n for _ in range(n)]
        for (u, v), val in zip(sym_pairs(n), vec, strict=True):
            rows[u][v] = rows[v][u] = val
        return cls.from_rows(field, rows)

    @property
    def field(self) -> Field:
        return self.matrix.field

    @property
    def dim(self) -> int:
        return self.matrix.rows

    def apply(self, u, v):
        """B(u, v)."""
        return vec_dot(u, self.matrix.apply(v))

    def is_nondegenerate(self) -> bool:
        return not self.matrix.det().is_zero()

    def inverse(self) -> SymForm:
        return SymForm(self.matrix.inverse())

    def canonical(self) -> SymForm:
        """Scale so the first nonzero entry (row-major) is 1."""
        for row in self.matrix.data:
            for x in row:
                if not x.is_zero():
                    return SymForm(self.matrix.scale(x.inverse()))
        return self

    def __eq__(self, other) -> bool:
        return isinstance(other, SymForm) and self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def proportional(self, other: SymForm) -> bool:
        return self.canonical() == other.canonical()

    def serialize(self):
        return self.matrix.serialize()

    def __repr__(self):
        return f"SymForm({self.dim})"
