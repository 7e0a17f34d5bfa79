"""Polarity quadric of a double six by two independent routes."""
import pytest

from schurlab.errors import ClaimError
from schurlab.exact_math import QQ, SymForm
from schurlab.schurform import (minor_apolarity, orthogonal_form_for_pairs,
                                polarity_swaps_sextuples, schur_orthogonal_form,
                                schur_pair)

# frozen regression value for the standard hexad, confirmed by both routes
STD_C_ROWS = [["1/1", "-8/3", "-5/2", "25/3"],
              ["-8/3", "112/27", "20/3", "-400/27"],
              ["-5/2", "20/3", "-5/1", "2/3"],
              ["25/3", "-400/27", "2/3", "88/9"]]


def test_routes_agree_and_are_inverse(std_rep):
    B, C = schur_pair(std_rep)
    assert B.is_nondegenerate() and C.is_nondegenerate()
    assert B.inverse().proportional(C)


def test_orthogonality_route_value_frozen(std_rep):
    C = schur_orthogonal_form(std_rep)
    rows = C.serialize()
    assert rows[0] == STD_C_ROWS[0]
    assert rows[2] == STD_C_ROWS[2]
    assert rows[1][1] == "112/27" and rows[3][3] == "88/9"


def test_form_pairs_partner_lines_to_zero(std_rep):
    C = schur_orthogonal_form(std_rep)
    for k in range(6):
        for u in std_rep.a_line(k).basis:
            for v in std_rep.b_line(k).basis:
                assert C.apply(u, v).is_zero()


def test_non_partner_lines_not_orthogonal(std_rep):
    C = schur_orthogonal_form(std_rep)
    paired = []
    for u in std_rep.a_line(0).basis:
        for v in std_rep.b_line(1).basis:
            paired.append(C.apply(u, v).is_zero())
    assert not all(paired)


def test_minor_apolarity(std_rep):
    B = std_rep.monad.form
    assert minor_apolarity(std_rep, B)
    # a generic form fails the same pairing
    other = SymForm.from_rows(QQ, [[1, 0, 0, 0], [0, 2, 0, 0],
                                   [0, 0, 3, 0], [0, 0, 0, 4]])
    assert not minor_apolarity(std_rep, other)


def test_polarity_swaps_sextuples(std_rep):
    B = std_rep.monad.form
    assert polarity_swaps_sextuples(std_rep, B)


def test_underdetermined_pairs_rejected(std_rep):
    pairs = [(std_rep.a_line(k), std_rep.b_line(k)) for k in range(2)]
    with pytest.raises(ClaimError):
        orthogonal_form_for_pairs(QQ, pairs)


def test_form_canonical_idempotent(std_rep):
    C = schur_orthogonal_form(std_rep)
    assert C.canonical().serialize() == C.serialize()
