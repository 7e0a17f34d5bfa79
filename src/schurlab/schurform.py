"""The invariant quadric attached to a determinantal cubic surface.

Two independent constructions of the same symmetric form, kept separate on
purpose so each validates the other:

  * kernel route: the unique (up to scale) symmetric tensor annihilated by
    the wedge-square of the defining 3 x 3 x 4 tensor; computed as the kernel
    of a 9 x 10 scalar system.  It is built in build_detrep
    (detrep.kernel_form), because it completes the induced monad, and read
    here as rep.monad.form.
  * orthogonality route: the unique symmetric bilinear form on the target
    4-space that pairs the two line sextuples of the double six to zero,
    member against same-index member; a 24 x 10 scalar system.

The kernel form B and the orthogonality form C are mutually inverse up to
scale, and the polarity of either swaps the two sextuples of the double six.
"""
from __future__ import annotations

from .detrep import DetRep
from .errors import ClaimError
from .exact_math import SymForm, sym_row, vec_dot
from .hulek_monad import MonadData
from .polyring import gram


def orthogonal_form_for_pairs(field, pairs) -> SymForm:
    """The unique symmetric form on a 4-space pairing each listed pair of
    lines to zero.  Each pair contributes one row per basis-vector product;
    the kernel of the stacked system must be exactly one-dimensional."""
    rows = []
    for left, right in pairs:
        for u in left.basis:
            for v in right.basis:
                rows.append(sym_row(4, lambda b, bp: u[b] * v[bp]))
    return SymForm.unique(field, 4, rows, "orthogonality route")


def schur_orthogonal_form(rep: DetRep) -> SymForm:
    """Orthogonality route.  C(u, v) = 0 for every u in the cone over the
    k-th line of one sextuple and v in the cone over the k-th line of the
    other, k = 0..5."""
    pairs = [(rep.a_line(k), rep.b_line(k)) for k in range(6)]
    return orthogonal_form_for_pairs(rep.field, pairs)


def schur_pair(rep: DetRep) -> tuple[SymForm, SymForm]:
    """Both routes, with the mutual-inverse claim enforced.  Returns (B, C)
    with B from the kernel route and C from the orthogonality route."""
    B = rep.monad.form
    C = schur_orthogonal_form(rep)
    if not rep.monad.inverse_form().proportional(C):
        raise ClaimError("quadric routes disagree: kernel form is not inverse "
                         "to the orthogonality form")
    return B, C


def minor_apolarity(rep: DetRep, form: SymForm) -> bool:
    """Independent surrogate for the kernel route: the form is trace-paired
    to zero with the Gram matrix of each 2 x 2 minor of the 3 x 3 grid."""
    flat_form = [x for row in form.matrix.data for x in row]
    for q in rep.target_grid.minors(2):
        flat_gram = [x for row in gram(q).matrix.data for x in row]
        if not vec_dot(flat_gram, flat_form).is_zero():
            return False
    return True


def polarity_swaps_sextuples(rep: DetRep, B: SymForm) -> bool:
    """Polarity in the kernel-route form exchanges same-index lines of the
    two sextuples."""
    for k in range(6):
        a, b = rep.a_line(k), rep.b_line(k)
        if a.polar(B) != b or b.polar(B) != a:
            return False
    return True


def induced_monad(rep: DetRep) -> MonadData:
    """Monad over the plane whose middle space is the target 4-space: the
    three coordinate slices of the defining tensor paired with the kernel
    form, built once by build_detrep.  Its jumping points recover the
    original hexad."""
    return rep.monad
