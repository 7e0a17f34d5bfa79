"""Rank-2 bundle monads on the plane given by three n x (n-1) matrices and a
nondegenerate symmetric n x n form.

The three matrices assemble into a pencil-like grid a(z) = sum z_k A_k of
linear forms on the dual plane.  Lines z where a(z) drops below its generic
rank n-1 are the jumping lines.  Every pointwise report reads the kernel data
of a(z) from ``pencil_at``; for the monad of a hexad (see detrep) its left
kernel and contracted space at the k-th point are the double-six lines a_k
and b_k.  The curve of jumping lines of the second kind is the determinant
of the symmetric (n-1) x (n-1) grid s(z) = a(z)^T B a(z), of degree 2n-2.  An
independent route to the same curve evaluates the inverse form on the vector
of signed maximal minors of a(z).

Compatibility (each A_i^T B A_j symmetric) is exactly what makes s(z)
symmetric; it is checked literally.  Generic injectivity of a(z) is decided
exactly, by the signed minors: some minor is nonzero.  Pointwise
surjectivity is read off the jumping locus: if the 3 x n matrix with rows
A_k h had rank at most one for some h != 0 over the algebraic closure, then
a(z)h = 0 along a whole line of z, and every minor would vanish on that
line.  A zero-dimensional locus therefore proves surjectivity everywhere; a
locus with a curve component leaves it unresolved.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, islice
from math import comb, factorial

from .errors import ClaimError, PreconditionError
from .exact_math import (Field, Matrix, ProjSubspace, Scalar, SymForm, sym_pairs,
                         sym_row, vec_canonical)
from .polyring import (HomPoly, LinFormsMatrix, ZeroLocus, local_singularity,
                       poly_det, quadric, resolved_common_zeros)


class PencilPoint:
    """a(z) at one point: its rank and a right kernel basis h; the left
    kernel in P^(n-1) and the contracted space where every A_k h vanishes
    are built when first read."""

    def __init__(self, maps, az: Matrix):
        self.maps, self.az = maps, az
        self.right = az.kernel_basis()
        self.rank = az.cols - len(self.right)

    @cached_property
    def left(self) -> ProjSubspace:
        return ProjSubspace.from_equations(self.az.field, self.az.cols, self.az.transpose().data)

    @cached_property
    def contracted(self) -> ProjSubspace:
        return ProjSubspace.from_equations(
            self.az.field, self.az.cols,
            [m.apply(h) for h in self.right for m in self.maps])


def pencil_at(maps, z) -> PencilPoint:
    """Kernel data of a(z) for three n x (n-1) matrices A_k."""
    z = tuple(maps[0].field.coerce(c) for c in z)
    return PencilPoint(maps, maps[0].scale(z[0]) + maps[1].scale(z[1])
                       + maps[2].scale(z[2]))


def check_monad_input(maps, form: SymForm | None = None) -> int:
    """The admissibility check of monad data: three n x (n-1) matrices over
    one field with n >= 2 and, when given, a nondegenerate symmetric n x n
    form over that field.  Returns n."""
    if len(maps) != 3:
        raise PreconditionError("three matrices required")
    n = maps[0].rows
    for m in maps:
        if not isinstance(m, Matrix) or m.rows != n or m.cols != n - 1:
            raise PreconditionError("matrices must all be n x (n-1)")
        if m.field != maps[0].field:
            raise PreconditionError("matrices live over different fields")
    if n < 2:
        raise PreconditionError("need n >= 2")
    if form is not None:
        if form.dim != n or form.field != maps[0].field:
            raise PreconditionError("form must be symmetric n x n over the same field")
        if not form.is_nondegenerate():
            raise PreconditionError("form must be nondegenerate")
    return n


class MonadData:
    """Three n x (n-1) matrices over one field plus a nondegenerate symmetric
    form on the n-dimensional middle space.

    The grid, its signed minors, the inverse form, the products A_k^T B A_l
    with the compatibility verdict read from them, the second-kind curve,
    the jumping locus and the pencil at each point are each built once per
    instance and shared by every caller; treat them as read-only."""

    __slots__ = ("field", "n", "maps", "form", "_derived")

    def __init__(self, maps, form: SymForm):
        self.n = check_monad_input(maps, form)
        self.field = maps[0].field
        self.maps = list(maps)
        self.form = form
        self._derived = {}

    def _once(self, key, build):
        if key not in self._derived:
            self._derived[key] = build()
        return self._derived[key]

    def a_V(self) -> LinFormsMatrix:
        """n x (n-1) grid of linear forms in the dual-plane coordinates."""
        return self._once(
            "a_V", lambda: LinFormsMatrix.from_coefficient_matrices(self.maps))

    def a_M(self) -> LinFormsMatrix:
        """3 x (n-1) grid of linear forms in n middle-space covector variables."""
        mats = [Matrix(self.field, [[self.maps[k][r, c] for c in range(self.n - 1)]
                                    for k in range(3)]) for r in range(self.n)]
        return LinFormsMatrix.from_coefficient_matrices(mats)

    def signed_minors(self) -> list[HomPoly]:
        """The n signed maximal minors of a(z); they span the left kernel of
        a(z) wherever the rank is n-1, and their common zeros are the jumping
        points."""
        return self._once("signed_minors",
                          lambda: self.a_V().signed_maximal_minors())

    def products(self) -> dict[tuple[int, int], Matrix]:
        """A_k^T B A_l for k <= l; A_l^T B A_k is its transpose, B being
        symmetric."""
        def build():
            right = [self.form.matrix * m for m in self.maps]
            return {(k, l): self.maps[k].transpose() * right[l]
                    for k in range(3) for l in range(k, 3)}
        return self._once("products", build)

    def compatibility_ok(self) -> bool:
        """Each A_i^T B A_j symmetric, i < j (i = j is automatic)."""
        return self._once("compatible", lambda: all(
            P == P.transpose() for (i, j), P in self.products().items() if i < j))

    def s_grid(self) -> list[list[HomPoly]]:
        """The (n-1) x (n-1) grid of quadratic forms a(z)^T B a(z)."""
        products = self.products()
        m = self.n - 1
        grid = []
        for c in range(m):
            row = []
            for cp in range(m):
                coeffs = {}
                for (k, l), P in products.items():
                    exp = [0, 0, 0]
                    exp[k] += 1
                    exp[l] += 1
                    val = P[c, cp] if k == l else P[c, cp] + P[cp, c]
                    if not val.is_zero():
                        coeffs[tuple(exp)] = val
                row.append(HomPoly(self.field, 3, 2, coeffs))
            grid.append(row)
        return grid

    def jlsk_curve(self) -> HomPoly:
        """Curve of jumping lines of the second kind: det of the s-grid,
        degree 2n-2, canonical."""
        return self._once("jlsk_curve", self._build_jlsk_curve)

    def _build_jlsk_curve(self) -> HomPoly:
        det = poly_det(self.s_grid())
        if det.is_zero():
            raise ClaimError("second-kind jumping curve degenerated to zero")
        return det.canonical()

    def inverse_form(self) -> SymForm:
        """The inverse of the form B, read by the form route to the curve
        and by the Schur-pair check of a hexad."""
        return self._once("inverse_form", self.form.inverse)

    def jlsk_via_form(self) -> HomPoly:
        """Independent route: the inverse form evaluated on the signed minor
        vector, canonical."""
        acc = quadric(self.inverse_form()).substitute(self.signed_minors())
        if acc.is_zero():
            raise ClaimError("form route degenerated to zero")
        return acc.canonical()

    def jumping_points(self) -> ZeroLocus:
        return self._once("jumping_points",
                          lambda: resolved_common_zeros(self.signed_minors()))

    def at(self, z) -> PencilPoint:
        """The pencil at the point z, built once per projective point."""
        z = vec_canonical(tuple(self.field.coerce(c) for c in z))
        return self._once(("at", z), lambda: pencil_at(self.maps, z))


@dataclass
class OrthogonalityReport:
    point: tuple[Scalar, ...]
    corank: int
    contained: bool
    equality: bool
    rank_drop_one: bool

    @property
    def passed(self) -> bool:
        if not self.contained:
            return False
        return self.equality if self.rank_drop_one else True


def orthogonality_report(monad: MonadData, z) -> OrthogonalityReport:
    """At a jumping point the inverse-form orthogonal complement of the
    contracted-kernel space sits inside the left kernel, with equality exactly
    at corank 2.

    The complement is computed as the form-image of the annihilator: with C
    the inverse form on the dual middle space, a covector psi is C-orthogonal
    to all of the contracted-kernel space iff C psi annihilates it, i.e. psi
    lies in the B-image of the contracted vectors themselves.
    """
    z = vec_canonical(tuple(monad.field.coerce(c) for c in z))
    pencil = monad.at(z)
    corank = monad.n - pencil.rank
    if corank < 2:
        raise PreconditionError("not a jumping point")
    polar = pencil.contracted.polar(monad.form)
    return OrthogonalityReport(z, corank, pencil.left.contains(polar),
                               polar == pencil.left, corank == 2)


@dataclass
class BiflexReport:
    """Local data of the second-kind curve, of the given degree d, at one
    jumping point.  A tangent of contact order d + 1 lies in the curve: its
    contact is unbounded, so it meets the bound of four even when d < 3."""
    point: tuple[Scalar, ...]
    corank: int
    splitting: int
    multiplicity: int
    is_node: bool
    tangent_orders: list[int]
    degree: int

    @property
    def passed(self) -> bool:
        if self.multiplicity < comb(self.corank, 2):
            return False
        if self.splitting == 1:
            if self.multiplicity != 2 or not self.is_node:
                return False
            if any(o < min(4, self.degree + 1) for o in self.tangent_orders):
                return False
        return True


def biflex_reports(monad: MonadData, points) -> list[BiflexReport]:
    """Local behaviour of the second-kind curve at the given jumping points:
    multiplicity at least the rank-drop bound; at splitting one, an honest
    node whose branch tangents, conjugate ones included, meet the curve with
    contact order at least four or lie in it, read off the curve's layers in
    a chart at the point."""
    curve = monad.jlsk_curve()
    out = []
    for z in points:
        corank = monad.n - monad.at(z).rank
        ls = local_singularity(curve, z)
        out.append(BiflexReport(ls.point, corank, corank - 1, ls.multiplicity,
                                ls.is_node, ls.tangent_orders, curve.degree))
    return out


def determinantal_degree(n1: int, n2: int, r: int) -> int:
    """Degree of the generic rank <= r locus of an n1 x n2 matrix of linear
    forms, when that locus has its expected dimension."""
    assert 0 <= r <= min(n1, n2)
    num, den = 1, 1
    for i in range(n1 - r):
        num *= factorial(n2 + i) * factorial(i)
        den *= factorial(r + i) * factorial(n2 - r - i)
    if num % den:
        raise ClaimError("determinantal degree is not an integer")
    return num // den


def compatible_form_space(field: Field, maps) -> list[Matrix]:
    """Basis of the space of symmetric matrices X with every A_i^T X A_j
    symmetric, i < j: the free-column kernel basis, not the echelon one,
    because select_compatible_form's subset sums pick the printed form."""
    n = maps[0].rows
    rows = []
    for i, j in combinations(range(3), 2):
        Ai, Aj = maps[i], maps[j]
        for c, cp in combinations(range(n - 1), 2):
            # (A_i^T X A_j)[c][cp] - (A_i^T X A_j)[cp][c]
            rows.append(sym_row(n, lambda u, v: (Ai[u, c] * Aj[v, cp]
                                                 - Ai[u, cp] * Aj[v, c])))
    kern = Matrix(field, rows, len(sym_pairs(n))).kernel_basis()
    return [SymForm.from_pairs(field, n, vec).matrix for vec in kern]


FORM_SUBSETS = 401  # basis subset sums tried


def select_compatible_form(field: Field, maps) -> SymForm:
    """Deterministically pick a nondegenerate compatible form: the first
    nondegenerate sum of basis forms, over basis subsets ordered by size then
    position."""
    check_monad_input(maps)
    basis = compatible_form_space(field, maps)
    if not basis:
        raise ClaimError("no compatible symmetric forms at all")
    k = len(basis)
    subsets = chain.from_iterable(combinations(range(k), size) for size in range(1, k + 1))
    for subset in islice(subsets, FORM_SUBSETS):
        cand = sum((basis[s] for s in subset[1:]), basis[subset[0]])
        if not cand.det().is_zero():
            return SymForm(cand).canonical()
    if 2 ** k - 1 <= FORM_SUBSETS:
        raise ClaimError(f"no nondegenerate compatible form found: every subset "
                         f"sum of the {k} basis forms is degenerate")
    raise ClaimError(f"no nondegenerate compatible form found: the first "
                     f"{FORM_SUBSETS} subset sums of the {k} basis forms are "
                     f"degenerate")


@dataclass
class MonadReport:
    generic_injectivity: str       # "pass" or "fail"
    pointwise_surjectivity: str    # "pass", or "unresolved" when not proven
    compatibility: str             # "pass" or "fail"

    @property
    def status(self) -> str:
        if "fail" in (self.generic_injectivity, self.compatibility):
            return "fail"
        return self.pointwise_surjectivity

    @property
    def valid(self) -> bool:
        return self.status == "pass"


def validate_monad(monad: MonadData) -> MonadReport:
    """Generic injectivity and compatibility exactly, then pointwise
    surjectivity from the jumping locus (see the module docstring).  The
    locus is read only when the other two pass: otherwise the monad is
    invalid anyway, and with every minor zero there is no locus to read."""
    # a(z) has generic rank n-1 exactly when some maximal minor is nonzero
    injective = any(not m.is_zero() for m in monad.signed_minors())
    compatible = monad.compatibility_ok()
    finite = injective and compatible and monad.jumping_points().zero_dimensional
    return MonadReport("pass" if injective else "fail",
                       "pass" if finite else "unresolved",
                       "pass" if compatible else "fail")


def middle_rank_at(monad: MonadData, mu) -> int:
    """Rank of the 3 x (n-1) matrix with rows mu^T A_k."""
    mu = tuple(monad.field.coerce(c) for c in mu)
    return Matrix(monad.field, [m.apply_left(mu) for m in monad.maps]).rank()
