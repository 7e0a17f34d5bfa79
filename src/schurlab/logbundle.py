"""Monads for logarithmic bundles of an arrangement of 2d general lines.

Input: 2d linear forms on the plane, pairwise independent, no three
concurrent.  Their coefficient vectors span the dual 3-space, leaving a
(2d-3)-dimensional space of linear relations.  For each degree m there is a
map sending a polynomial tensored with a relation to the vector of its
contractions against the individual forms, weighted by the relation; the
image automatically has components summing to zero, so the target uses the
first 2d-1 coordinates only.

Kernels of this map at degrees d-1, d-2, d-3 have dimensions n-1, n, n-1
with n = (d-1)^2, and coordinate contraction passes between them, producing
three n x (n-1) matrices and three (n-1) x n matrices.  One table of
monomial derivatives per degree (_derivative_table) gives both the map's
columns and the contraction images; each kernel basis is echelon, so the
three matrices out of a kernel are read as coordinates in the target basis.
A one-dimensional solution space ties the two triples together through a
symmetric form; after normalization that form completes the matrices to
monad data whose second-kind jumping curve has degree 2n-2, and the dual
points of the arrangement lines are jumping points of it.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .errors import ClaimError, PreconditionError
from .exact_math import Field, Matrix, ProjSubspace, Scalar, SymForm, sym_row, vec_canonical
from .exact_math.matrices import echelon_coordinates
from .hulek_monad import MonadData
from .polyring import monomials

Form = tuple[Scalar, Scalar, Scalar]


@dataclass
class LogBundle:
    field: Field
    d: int
    forms: list[Form]
    relations: Matrix               # (2d-3) x 2d, reduced basis of relations
    h_basis: list[tuple]            # kernel at degree d-1, dim n-1
    m_basis: list[tuple]            # kernel at degree d-2, dim n
    hp_basis: list[tuple]           # kernel at degree d-3, dim n-1
    a_maps: list[Matrix]            # contraction H -> M, three of n x (n-1)
    b_maps: list[Matrix]            # contraction M -> H', three of (n-1) x n
    monad: MonadData

    @property
    def n(self) -> int:
        return (self.d - 1) ** 2

    @property
    def dims(self) -> tuple[int, int, int]:
        return (len(self.h_basis), len(self.m_basis), len(self.hp_basis))


def check_general_position(field: Field, forms):
    """PreconditionError unless the coefficient triples are pairwise
    independent and no three are linearly dependent (no three of the lines
    concurrent)."""
    canon = [vec_canonical(f) for f in forms]
    for i, j in combinations(range(len(forms)), 2):
        if canon[i] == canon[j]:
            raise PreconditionError("two of the forms are proportional")
    for i, j, k in combinations(range(len(forms)), 3):
        m = Matrix(field, [list(forms[i]), list(forms[j]), list(forms[k])])
        if m.det().is_zero():
            raise PreconditionError("three of the forms are linearly dependent")


def _derivative_table(m: int) -> list[tuple[int, int, int, int]]:
    """Entries (r, k, c, r') with d/dx_k of monomial r of degree m equal to
    c times monomial r' of degree m - 1, both indexed in monomials(3, .)
    order; a monomial free of x_k has no entry for k."""
    dst_idx = {e: r for r, e in enumerate(monomials(3, m - 1))}
    return [(r, k, mu[k], dst_idx[mu[:k] + (mu[k] - 1,) + mu[k + 1:]])
            for r, mu in enumerate(monomials(3, m)) for k in range(3) if mu[k]]


def _contraction_kernel(field: Field, forms, relations: Matrix, m: int) -> list[tuple]:
    """Kernel of the weighted-contraction map at degree m, as reduced basis
    vectors over the (monomial, relation) coordinate grid.  The column of
    (monomial r, relation t) holds, at (monomial r', form j), the relation
    weight of form j times the contraction of r against form j at r'."""
    dim_i = relations.rows
    count = len(forms)
    rows_n = len(monomials(3, m - 1)) * (count - 1)
    cols = [[field.zero] * rows_n for _ in range(len(monomials(3, m)) * dim_i)]
    for r, k, c, rp in _derivative_table(m):
        for j in range(count - 1):
            a = forms[j][k] * c
            if a.is_zero():
                continue
            for t in range(dim_i):
                w = relations[t, j]
                if not w.is_zero():
                    cols[r * dim_i + t][rp * (count - 1) + j] = w * a
    return list(ProjSubspace.from_equations(field, len(cols) - 1, zip(*cols)).basis)


def _contraction_maps(field: Field, src_basis, dst_basis, dim_i: int,
                      src_deg: int) -> list[Matrix]:
    """The matrices of d/dx_0, d/dx_1, d/dx_2 from the span of src_basis
    (degree src_deg) to the span of dst_basis (degree src_deg - 1): the
    coordinates of all 3 * len(src_basis) images in the echelon dst_basis,
    read with no elimination."""
    size = len(monomials(3, src_deg - 1)) * dim_i
    images = [[[field.zero] * size for _ in src_basis] for _ in range(3)]
    for r, k, c, rp in _derivative_table(src_deg):
        for vec, img in zip(src_basis, images[k]):
            for t in range(dim_i):
                x = vec[r * dim_i + t]
                if not x.is_zero():
                    img[rp * dim_i + t] = x * c
    coords = echelon_coordinates(field, dst_basis, sum(images, []))
    if coords is None:
        raise ClaimError("contraction image left the target kernel")
    dim = len(src_basis)
    return [Matrix.from_cols(field, coords.data[k * dim:(k + 1) * dim]) for k in range(3)]


def recover_cup_form(field: Field, a_maps, b_maps) -> tuple[SymForm, Matrix]:
    """The symmetric form B on the middle space, together with the change of
    basis P identifying the third kernel with the dual of the first, solving
    A_k^T B = P b_k for all k.

    P is eliminated first.  Bcat = [b_0 | b_1 | b_2] must have full row rank
    n - 1, so P is unique given B, and B solves the system exactly when each
    row of [A_0^T B | A_1^T B | A_2^T B] is annihilated by a kernel basis N
    of Bcat: (n - 1)(2n + 1) conditions on the n(n + 1)/2 entries of B,
    whose solution space must be exactly one-dimensional.  B is returned
    scaled so its first nonzero entry is 1; P comes from one solve against
    Bcat^T and is checked exactly against A_k^T B = P b_k for every k."""
    n = a_maps[0].rows
    bcat = Matrix(field, [sum((b.row(i) for b in b_maps), ()) for i in range(n - 1)])
    null = bcat.kernel_basis()
    if len(null) != 2 * n + 1:
        raise ClaimError(f"[b_0 | b_1 | b_2] has rank {3 * n - len(null)}, expected {n - 1}")
    rows = []
    for i in range(n - 1):
        for v in null:
            # entry (i, v) of [A_k^T B]_k N as a functional of B: the pairing
            # with W[u][r] = sum over k of A_k[u, i] v[k n + r]
            w = [[field.zero] * n for _ in range(n)]
            for k, A in enumerate(a_maps):
                for u in range(n):
                    a = A[u, i]
                    if a.is_zero():
                        continue
                    for r in range(n):
                        c = v[k * n + r]
                        if not c.is_zero():
                            w[u][r] = w[u][r] + a * c
            rows.append(sym_row(n, lambda u, r: w[u][r]))
    form = SymForm.unique(field, n, rows, "cup-form system")
    images = [A.transpose() * form.matrix for A in a_maps]
    acat = Matrix(field, [sum((m.row(i) for m in images), ()) for i in range(n - 1)])
    p_t = bcat.transpose().solve_columns(acat.transpose())
    if p_t is None:
        raise ClaimError("no dual identification solves A_k^T B = P b_k")
    P = p_t.transpose()
    if any(m != P * b for m, b in zip(images, b_maps)):
        raise ClaimError("dual identification fails A_k^T B = P b_k")
    if P.det().is_zero():
        raise ClaimError("dual identification is singular")
    return form, P


def build_logbundle(field: Field, forms) -> LogBundle:
    fs = []
    for f in forms:
        f = tuple(field.coerce(c) for c in f)
        if len(f) != 3 or all(c.is_zero() for c in f):
            raise PreconditionError("forms need three coordinates, not all zero")
        fs.append(f)
    if len(fs) % 2 != 0 or len(fs) < 6:
        raise PreconditionError("an even number of forms, at least six, is required")
    d = len(fs) // 2
    check_general_position(field, fs)

    kern = ProjSubspace.from_equations(field, 2 * d - 1, zip(*fs)).basis
    if len(kern) != 2 * d - 3:
        raise ClaimError("relation space has unexpected dimension")
    relations = Matrix(field, kern)

    n = (d - 1) ** 2
    h_basis = _contraction_kernel(field, fs, relations, d - 1)
    m_basis = _contraction_kernel(field, fs, relations, d - 2)
    hp_basis = _contraction_kernel(field, fs, relations, d - 3)
    if len(h_basis) != n - 1 or len(m_basis) != n or len(hp_basis) != n - 1:
        raise ClaimError(f"kernel dimensions {(len(h_basis), len(m_basis), len(hp_basis))} "
                         f"differ from expected {(n - 1, n, n - 1)}")

    a_maps = _contraction_maps(field, h_basis, m_basis, relations.rows, d - 1)
    b_maps = _contraction_maps(field, m_basis, hp_basis, relations.rows, d - 2)
    form, _ident = recover_cup_form(field, a_maps, b_maps)
    monad = MonadData(a_maps, form)
    if not monad.compatibility_ok():
        raise ClaimError("recovered form is not compatible with the contraction maps")
    return LogBundle(field, d, fs, relations, h_basis, m_basis, hp_basis,
                     a_maps, b_maps, monad)


@dataclass
class ArrangementJumpReport:
    form: Form
    rank: int
    corank: int
    bound: int
    expected_bound: int

    @property
    def passed(self) -> bool:
        return self.bound == self.expected_bound


def arrangement_jump_check(lb: LogBundle) -> list[ArrangementJumpReport]:
    """Each arrangement line, viewed as a dual-plane point, is a jumping
    point, and the multiplicity bound from its corank matches (d-1)(d-2)/2.
    The expected bound is at least 1 (d >= 3), so a match forces corank >= 2:
    a(z) has rank below n - 1 and every signed minor vanishes at z."""
    n, d = lb.n, lb.d
    expected = (d - 1) * (d - 2) // 2
    out = []
    for f in lb.forms:
        z = vec_canonical(f)
        rank = lb.monad.at(z).rank
        out.append(ArrangementJumpReport(z, rank, n - rank, comb(n - rank, 2), expected))
    return out
