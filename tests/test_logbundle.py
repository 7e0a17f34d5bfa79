"""Logarithmic-bundle monads from line arrangements."""
import pytest

from schurlab.errors import ClaimError, PreconditionError
from schurlab.exact_math import (Field, Matrix, QQ, SymForm, sym_pairs,
                                 sym_row, vec_canonical)
from schurlab.hulek_monad import MonadData, orthogonality_report, validate_monad
from schurlab.logbundle import (arrangement_jump_check, build_logbundle,
                                recover_cup_form)
from schurlab.polyring import homopoly, sorted_points

SIX = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3), (1, 4, 9)]


def quadratic_field_bundle():
    f5 = Field(5)
    phi = f5.scalar(1, 1)
    return build_logbundle(f5, [(1, 0, 0), (0, 1, 0), (0, 0, 1),
                                (1, 1, 1), (1, phi, 3), (1, 4, 9)])


def reference_cup_form(field, a_maps, b_maps):
    """The joint system in (B, P): one row per entry of A_k^T B - P b_k,
    whose kernel must be one-dimensional; B scaled to first nonzero entry 1
    and P scaled to match."""
    n = a_maps[0].rows
    zero = field.zero
    rows = []
    for k in range(3):
        A, b = a_maps[k], b_maps[k]
        for i in range(n - 1):
            for r in range(n):
                row = sym_row(n, lambda u, v: A[u, i] if v == r else zero)
                for ii in range(n - 1):
                    row.extend(-b[j, r] if ii == i else zero for j in range(n - 1))
                rows.append(row)
    kern = Matrix(field, rows).kernel_basis()
    assert len(kern) == 1
    split = len(sym_pairs(n))
    form_part, ident_part = kern[0][:split], kern[0][split:]
    scale = next(val for val in form_part if not val.is_zero()).inverse()
    form = SymForm.from_pairs(field, n, [val * scale for val in form_part])
    P = Matrix(field, [ident_part[at:at + n - 1]
                       for at in range(0, len(ident_part), n - 1)]).scale(scale)
    return form, P


def test_dimensions(six_line_bundle):
    lb = six_line_bundle
    assert lb.d == 3 and lb.n == 4
    assert lb.dims == (3, 4, 3)
    assert lb.relations.rows == 3
    assert all(m.rows == 4 and m.cols == 3 for m in lb.a_maps)
    assert all(m.rows == 3 and m.cols == 4 for m in lb.b_maps)


def test_cup_form_defining_relation(six_line_bundle):
    lb = six_line_bundle
    form, ident = recover_cup_form(QQ, lb.a_maps, lb.b_maps)
    assert form.is_nondegenerate()
    assert not ident.det().is_zero()
    for k in range(3):
        lhs = lb.a_maps[k].transpose() * form.matrix
        rhs = ident * lb.b_maps[k]
        assert lhs.serialize() == rhs.serialize()


def test_monad_is_compatible_and_valid(six_line_bundle):
    monad = six_line_bundle.monad
    assert monad.compatibility_ok()
    assert validate_monad(monad).valid


def test_curve_degree_and_route_identity(six_line_bundle):
    monad = six_line_bundle.monad
    curve = monad.jlsk_curve()
    assert curve.degree == 2 * monad.n - 2 == 6
    # determinant of the quadratic grid against the form applied to the
    # signed-minor vector: the same sextic up to one nonzero constant
    assert monad.jlsk_via_form().proportional(curve)


def test_arrangement_jump_reports(six_line_bundle):
    lb = six_line_bundle
    reports = arrangement_jump_check(lb)
    assert len(reports) == 6
    minors = lb.monad.signed_minors()
    for r in reports:
        assert r.passed
        assert all(m.evaluate(r.form).is_zero() for m in minors)
        assert r.corank == 2
        assert r.bound == r.expected_bound == 1
        assert r.rank == lb.n - lb.d + 1 == 2


def test_support_is_exactly_the_dual_points(six_line_bundle):
    lb = six_line_bundle
    locus = lb.monad.jumping_points()
    assert locus.zero_dimensional and locus.fully_resolved
    duals = [vec_canonical(f) for f in lb.forms]
    assert sorted_points(locus.points) == sorted_points(duals)


def test_orthogonality_at_every_dual_point(six_line_bundle):
    lb = six_line_bundle
    for f in lb.forms:
        report = orthogonality_report(lb.monad, f)
        assert report.corank == 2
        assert report.contained and report.equality


def test_degenerate_arrangements_rejected():
    with pytest.raises(PreconditionError):
        build_logbundle(QQ, [(1, 0, 0), (2, 0, 0)] + SIX[2:])
    with pytest.raises(PreconditionError):
        build_logbundle(QQ, [(1, 0, 0), (0, 1, 0), (1, 1, 0),
                             (1, 1, 1), (1, 2, 3), (1, 4, 9)])
    with pytest.raises(PreconditionError):
        build_logbundle(QQ, SIX[:5])


def test_quadratic_field_arrangement():
    lb = quadratic_field_bundle()
    assert lb.dims == (3, 4, 3)
    assert lb.monad.compatibility_ok()
    reports = arrangement_jump_check(lb)
    assert all(r.passed for r in reports)


def test_cup_form_matches_joint_system_reference(six_line_bundle, eight_line_bundle):
    for lb in (six_line_bundle, eight_line_bundle, quadratic_field_bundle()):
        form, P = recover_cup_form(lb.field, lb.a_maps, lb.b_maps)
        ref_form, ref_P = reference_cup_form(lb.field, lb.a_maps, lb.b_maps)
        assert form == ref_form
        assert P == ref_P


def test_cup_form_rejects_zeroed_b_maps(six_line_bundle):
    lb = six_line_bundle
    zeroed = [Matrix(QQ, [[0] * b.cols] * b.rows) for b in lb.b_maps]
    with pytest.raises(ClaimError, match="rank 0, expected 3"):
        recover_cup_form(QQ, lb.a_maps, zeroed)
    with pytest.raises(ClaimError, match="kernel has dimension 0"):
        recover_cup_form(QQ, lb.a_maps, lb.b_maps[:2] + zeroed[2:])


def test_eight_line_systems_are_lattice_and_b_only_sized(eight_line_bundle, monkeypatch):
    lb = eight_line_bundle
    shapes, dets = [], []
    kernel_basis = Matrix.kernel_basis

    def recorded(self):
        shapes.append((self.rows, self.cols))
        return kernel_basis(self)

    monkeypatch.setattr(Matrix, "kernel_basis", recorded)
    recover_cup_form(QQ, lb.a_maps, lb.b_maps)
    # the kernel of [b_0 | b_1 | b_2], then the cup-form system (n = 9)
    assert shapes == [(8, 27), (152, 45)]

    integral_det = homopoly.integral_det

    def counted(rows, s):
        dets.append(1)
        return integral_det(rows, s)

    monkeypatch.setattr(homopoly, "integral_det", counted)
    curve = MonadData(lb.a_maps, lb.monad.form).jlsk_curve()
    # C(18, 2) lattice nodes for degree 16, and one check node
    assert curve.degree == 16
    assert len(dets) == 154
