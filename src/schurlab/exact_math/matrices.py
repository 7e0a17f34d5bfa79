"""Dense exact matrices over a Field.

Elimination uses first-nonzero pivoting, so every derived object (echelon
form, kernel basis, determinant) is deterministic for a given input.
Vectors are plain tuples of Scalars.
"""
from __future__ import annotations

from ..errors import PreconditionError
from .scalars import Field, Scalar


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
            ot = other.transpose()
            return Matrix(self.field, [[vec_dot(r, c) for c in ot.data] for r in self.data])
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
        """Reduced row echelon form and pivot columns."""
        work = [list(r) for r in self.data]
        pivots = []
        prow = 0
        for col in range(self.cols):
            if prow >= self.rows:
                break
            sel = None
            for r in range(prow, self.rows):
                if not work[r][col].is_zero():
                    sel = r
                    break
            if sel is None:
                continue
            work[prow], work[sel] = work[sel], work[prow]
            inv = work[prow][col].inverse()
            work[prow] = [inv * x for x in work[prow]]
            for r in range(self.rows):
                if r != prow and not work[r][col].is_zero():
                    c = work[r][col]
                    work[r] = [x - c * y for x, y in zip(work[r], work[prow])]
            pivots.append(col)
            prow += 1
        return Matrix(self.field, work), tuple(pivots)

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
        if self.rows != self.cols:
            raise PreconditionError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return self.field.one
        work = [list(r) for r in self.data]
        sign = 1
        det = self.field.one
        for col in range(n):
            sel = None
            for r in range(col, n):
                if not work[r][col].is_zero():
                    sel = r
                    break
            if sel is None:
                return self.field.zero
            if sel != col:
                work[col], work[sel] = work[sel], work[col]
                sign = -sign
            piv = work[col][col]
            det = det * piv
            inv = piv.inverse()
            for r in range(col + 1, n):
                if not work[r][col].is_zero():
                    c = work[r][col] * inv
                    work[r] = [x - c * y for x, y in zip(work[r], work[col])]
        if sign < 0:
            det = -det
        return det

    def inverse(self) -> Matrix:
        if self.rows != self.cols:
            raise PreconditionError("inverse of a non-square matrix")
        n = self.rows
        aug = Matrix(self.field, [list(self.data[i]) + list(Matrix.identity(self.field, n).data[i])
                                  for i in range(n)])
        R, pivots = aug.rref()
        if pivots[:n] != tuple(range(n)):
            raise PreconditionError("matrix is singular")
        return Matrix(self.field, [row[n:] for row in R.data])

    def solve(self, b):
        """One solution of self * x = b, or None if inconsistent."""
        assert len(b) == self.rows
        aug = Matrix(self.field, [list(r) + [bb] for r, bb in zip(self.data, b)])
        R, pivots = aug.rref()
        if self.cols in pivots:
            return None
        z = self.field.zero
        x = [z] * self.cols
        for i, pc in enumerate(pivots):
            x[pc] = R.data[i][self.cols]
        return tuple(x)

    def submatrix(self, row_idx, col_idx) -> Matrix:
        return Matrix(self.field, [[self.data[i][j] for j in col_idx] for i in row_idx])

    def serialize(self):
        return [[x.serialize() for x in row] for row in self.data]

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"


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

    @property
    def field(self) -> Field:
        return self.matrix.field

    @property
    def dim(self) -> int:
        return self.matrix.rows

    def apply(self, u, v) -> Scalar:
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
