"""Projective linear subspaces, stored as canonical cone bases.

A ProjSubspace of P^N keeps a reduced-echelon basis of its affine cone in
F^(N+1); equality of subspaces is literal equality of those canonical bases,
and the empty subspace has an empty basis.  from_equations owns canonical
kernels: the free-column kernel basis of the column-reversed system, read
back in the original order, is already echelon, so it takes one elimination.
The annihilator (echelon_kernel) and coordinates, hence containment
(echelon_coordinates), are read off the echelon basis.  Two lines of P^3
meet when the Plucker pairing of their coordinates vanishes (incident);
each line computes its six coordinates once, from its basis rows cleared to
Z or Z[sqrt(s)].  A subspace keeps its polar for the last form given, so a
line polarized twice in one form is eliminated once.
"""
from __future__ import annotations

from itertools import combinations

from ..errors import PreconditionError
from .matrices import (Matrix, SymForm, clear_denominators, echelon_coordinates,
                       echelon_kernel, integral_ring)
from .scalars import Field


class ProjSubspace:
    __slots__ = ("field", "ambient", "basis", "_plucker", "_polar")

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
        self._plucker = self._polar = None

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

    def _coordinates(self) -> tuple:
        """Plucker coordinates p_ij = u_i*v_j - u_j*v_i of a line's basis rows
        u, v cleared to Z or Z[sqrt(s)], for ij = 01, 02, 03, 12, 13, 23:
        the line's up to one nonzero factor, computed on first use and kept."""
        if self._plucker is None:
            ring = integral_ring(self.field.s)
            u, v = (clear_denominators(self.field, w)[1] for w in self.basis)
            self._plucker = tuple(ring.sub(ring.mul(u[i], v[j]), ring.mul(u[j], v[i]))
                                  for i, j in combinations(range(4), 2))
        return self._plucker

    def incident(self, other: ProjSubspace) -> bool:
        """Two lines of P^3 meet exactly when the determinant of their stacked
        bases vanishes, which is the Plucker pairing
        p01*q23 - p02*q13 + p03*q12 + p12*q03 - p13*q02 + p23*q01.  Any other
        shape ends in PreconditionError."""
        self._require_same_space(other)
        if self.ambient != 3 or len(self.basis) != 2 or len(other.basis) != 2:
            raise PreconditionError("incidence is defined for two lines of P^3")
        ring = integral_ring(self.field.s)
        p, q = self._coordinates(), other._coordinates()
        plus = ring.dot((p[0], p[2], p[3], p[5]), (q[5], q[3], q[2], q[0]))
        return plus == ring.dot((p[1], p[4]), (q[4], q[1]))

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
