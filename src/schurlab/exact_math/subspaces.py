"""Projective linear subspaces, stored as canonical cone bases.

A ProjSubspace of P^N keeps a reduced-echelon basis of its affine cone in
F^(N+1); equality of subspaces is literal equality of those canonical bases.
The empty subspace has an empty basis.  Subspaces of complementary dimension,
such as two lines of P^3, meet when one determinant vanishes.
"""
from __future__ import annotations

from ..errors import PreconditionError
from .matrices import Matrix, SymForm
from .scalars import Field


class ProjSubspace:
    __slots__ = ("field", "ambient", "basis")

    def __init__(self, field: Field, ambient: int, vectors):
        """ambient: projective dimension N; vectors: spanning set in F^(N+1)."""
        vectors = [tuple(field.coerce(x) for x in v) for v in vectors]
        for v in vectors:
            if len(v) != ambient + 1:
                raise PreconditionError("cone vector length does not match ambient dimension")
        if vectors:
            R, pivots = Matrix(field, vectors).rref()
            basis = tuple(R.data[i] for i in range(len(pivots)))
        else:
            basis = ()
        self.field = field
        self.ambient = ambient
        self.basis = basis

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
        """Basis of {covectors xi : xi(u) = 0 for all u in the cone}."""
        if not self.basis:
            z, o = self.field.zero, self.field.one
            n = self.ambient + 1
            return [tuple(o if i == j else z for j in range(n)) for i in range(n)]
        return Matrix(self.field, self.basis).kernel_basis()

    @classmethod
    def from_equations(cls, field: Field, ambient: int, covectors) -> ProjSubspace:
        """Common zero locus of linear functionals."""
        covectors = list(covectors)
        if not covectors:
            n = ambient + 1
            return cls(field, ambient, Matrix.identity(field, n).data)
        return cls(field, ambient, Matrix(field, covectors).kernel_basis())

    def meet(self, other: ProjSubspace) -> ProjSubspace:
        self._require_same_space(other)
        eqs = self.annihilator_basis() + other.annihilator_basis()
        return ProjSubspace.from_equations(self.field, self.ambient, eqs)

    def incident(self, other: ProjSubspace) -> bool:
        """Complementary subspaces (basis sizes summing to ambient + 1) meet
        exactly when the square stack of their bases is singular; others end
        in PreconditionError.  For two lines of P^3, Laplace expansion along
        the first two rows is the Plucker pairing."""
        self._require_same_space(other)
        return Matrix(self.field, self.basis + other.basis).det().is_zero()

    def contains(self, other: ProjSubspace) -> bool:
        """This (echelon, hence independent) basis stacked on other's keeps
        its rank."""
        self._require_same_space(other)
        return Matrix(self.field, self.basis + other.basis).rank() == len(self.basis)

    def polar(self, form: SymForm) -> ProjSubspace:
        """Span of {B(xi) : xi annihilates the cone}.  For nondegenerate B
        this is the orthogonal complement; degenerate B is permitted."""
        if form.dim != self.ambient + 1:
            raise PreconditionError("form dimension does not match ambient space")
        images = [form.matrix.apply(xi) for xi in self.annihilator_basis()]
        return ProjSubspace(self.field, self.ambient, images)

    def __eq__(self, other) -> bool:
        return (isinstance(other, ProjSubspace) and self.field == other.field
                and self.ambient == other.ambient and self.basis == other.basis)

    def serialize(self):
        return [[x.serialize() for x in v] for v in self.basis]

    def __repr__(self):
        return f"ProjSubspace(P^{self.ambient}, dim={self.dim})"
