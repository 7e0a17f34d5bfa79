"""Projective linear subspaces, stored as canonical cone bases.

A ProjSubspace of P^N keeps a reduced-echelon basis of its affine cone in
F^(N+1); equality of subspaces is literal equality of those canonical bases,
and the empty subspace has an empty basis.  from_equations owns canonical
kernels: the free-column kernel basis of the column-reversed system, read
back in the original order, is already echelon, so it takes one elimination.
The annihilator (echelon_kernel) and coordinates, hence containment
(echelon_coordinates), are read off the echelon basis.  Complementary
subspaces, such as two lines of P^3, meet when one determinant vanishes;
incident reads it by Laplace expansion from each subspace's Grassmann
(Plucker) coordinates, computed once, over a table of (column set,
complement, parity) terms kept per shape.  A subspace keeps its polar for
the last form given, so a line polarized twice in one form is eliminated once.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from ..errors import PreconditionError
from .matrices import (Matrix, SymForm, clear_denominators, echelon_coordinates,
                       echelon_kernel, integral_det, integral_ring)
from .scalars import Field


@lru_cache(maxsize=None)
def _laplace_terms(n: int, k: int) -> tuple:
    """(S, complement of S, sum S odd) for each k-subset S of range(n)."""
    return tuple((cols, tuple(j for j in range(n) if j not in cols), sum(cols) % 2 == 1)
                 for cols in combinations(range(n), k))


class ProjSubspace:
    __slots__ = ("field", "ambient", "basis", "_grassmann", "_polar")

    def __init__(self, field: Field, ambient: int, vectors):
        """ambient: projective dimension N; vectors: spanning set in F^(N+1)."""
        vectors = [tuple(field.coerce(x) for x in v) for v in vectors]
        for v in vectors:
            if len(v) != ambient + 1:
                raise PreconditionError("cone vector length does not match ambient dimension")
        R, pivots = Matrix(field, vectors, ambient + 1).rref()
        self._set_basis(field, ambient, R.data[:len(pivots)])

    def _set_basis(self, field: Field, ambient: int, basis):
        """Take basis, a reduced echelon basis of the cone, as it is."""
        self.field, self.ambient, self.basis = field, ambient, tuple(basis)
        self._grassmann = self._polar = None

    @classmethod
    def from_point(cls, field: Field, coords) -> ProjSubspace:
        coords = tuple(coords)
        if all(field.coerce(x).is_zero() for x in coords):
            raise PreconditionError("zero vector does not define a projective point")
        return cls(field, len(coords) - 1, [coords])

    @property
    def dim(self) -> int:
        """Projective dimension; -1 for the empty subspace."""
        return len(self.basis) - 1

    def _require_same_space(self, other: ProjSubspace):
        if self.field != other.field or self.ambient != other.ambient:
            raise PreconditionError("subspaces live in different ambient spaces")

    def join(self, other: ProjSubspace) -> ProjSubspace:
        self._require_same_space(other)
        return ProjSubspace(self.field, self.ambient, list(self.basis) + list(other.basis))

    def annihilator_basis(self):
        """Basis of {covectors xi : xi(u) = 0 for all u in the cone}, read off
        the echelon basis: the pivot of each row is its first nonzero entry."""
        pivots = tuple(next(j for j, x in enumerate(v) if not x.is_zero())
                       for v in self.basis)
        return echelon_kernel(self.field, self.basis, pivots, self.ambient + 1)

    @classmethod
    def from_equations(cls, field: Field, ambient: int, covectors) -> ProjSubspace:
        """Common zero locus of linear functionals: each free-column kernel
        vector of the column-reversed system, reversed back, last one first."""
        flipped = Matrix(field, [tuple(c)[::-1] for c in covectors], ambient + 1)
        out = cls.__new__(cls)
        out._set_basis(field, ambient, [v[::-1] for v in reversed(flipped.kernel_basis())])
        return out

    def meet(self, other: ProjSubspace) -> ProjSubspace:
        self._require_same_space(other)
        eqs = self.annihilator_basis() + other.annihilator_basis()
        return ProjSubspace.from_equations(self.field, self.ambient, eqs)

    def _coordinates(self) -> dict:
        """The k x k minors of the basis rows cleared to Z or Z[sqrt(s)], by
        column subset: Grassmann coordinates up to one nonzero factor,
        computed on first use and kept."""
        if self._grassmann is None:
            rows = [clear_denominators(self.field, v)[1] for v in self.basis]
            self._grassmann = {
                cols: integral_det([[r[j] for j in cols] for r in rows], self.field.s)
                for cols in combinations(range(self.ambient + 1), len(rows))}
        return self._grassmann

    def incident(self, other: ProjSubspace) -> bool:
        """Complementary subspaces (basis sizes summing to ambient + 1) meet
        exactly when the square stack of their bases is singular; others end
        in PreconditionError.  Laplace expansion along this basis gives that
        determinant, up to sign, as the sum over column subsets S of
        (-1)^(sum S) g(S) g'(S^c) of the two Grassmann coordinates; for two
        lines of P^3 it is the Plucker pairing."""
        self._require_same_space(other)
        n = self.ambient + 1
        if len(self.basis) + len(other.basis) != n:
            raise PreconditionError("incidence needs subspaces of complementary dimension")
        ring = integral_ring(self.field.s)
        mine, theirs = self._coordinates(), other._coordinates()
        total = ring.zero
        for cols, rest, odd in _laplace_terms(n, len(self.basis)):
            term = ring.mul(mine[cols], theirs[rest])
            total = ring.sub(total, term) if odd else ring.add(total, term)
        return total == ring.zero

    def contains(self, other: ProjSubspace) -> bool:
        """Other's basis has coordinates in this echelon basis."""
        self._require_same_space(other)
        return echelon_coordinates(self.field, self.basis, other.basis) is not None

    def polar(self, form: SymForm) -> ProjSubspace:
        """Span of {B(xi) : xi annihilates the cone}.  For nondegenerate B
        this is the orthogonal complement; degenerate B is permitted.  The
        result is kept for the last form given."""
        if form.dim != self.ambient + 1:
            raise PreconditionError("form dimension does not match ambient space")
        if self._polar is None or self._polar[0] != form:
            # B is symmetric, so the rows of (annihilator basis) * B are the B(xi)
            covectors = Matrix(self.field, self.annihilator_basis(), self.ambient + 1)
            images = (covectors * form.matrix).data
            self._polar = (form, ProjSubspace(self.field, self.ambient, images))
        return self._polar[1]

    def __eq__(self, other) -> bool:
        return (isinstance(other, ProjSubspace) and self.field == other.field
                and self.ambient == other.ambient and self.basis == other.basis)

    def serialize(self):
        return [[x.serialize() for x in v] for v in self.basis]

    def __repr__(self):
        return f"ProjSubspace(P^{self.ambient}, dim={self.dim})"
