"""Fuzz tests of the scalar literal parsers: on arbitrary JSON values and
literal strings, Field.parse, parse_vector and parse_matrix return Scalars
that serialize and parse back to themselves, or raise PreconditionError.
"""
import pytest

from schurlab.cli_io.documents import parse_matrix, parse_vector
from schurlab.errors import PreconditionError
from schurlab.exact_math import Field, QQ, Scalar

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

FUZZ = settings(max_examples=300, deadline=None, derandomize=True, database=None)

FUZZ_FIELDS = st.sampled_from([QQ, Field(5), Field(-1), Field(-3)])

_rational_literals = st.builds("{}/{}".format, st.integers(), st.integers())
_quadratic_literals = st.builds("[{}, {}]".format, _rational_literals, _rational_literals)

LITERALS = st.one_of(
    st.text(max_size=24),
    st.text(alphabet="0123456789-+/[], ._eE", max_size=24),
    _rational_literals,
    _quadratic_literals,
    st.builds("{}e{}".format, st.integers(-99, 99), st.integers(-10 ** 5, 10 ** 5)))

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | LITERALS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12)

_ENTRIES = st.one_of(_rational_literals, _quadratic_literals, st.integers(), st.booleans(),
                     st.floats(), st.none())

DOCUMENT_VALUES = st.one_of(
    JSON_VALUES, st.lists(_ENTRIES, max_size=4),
    st.lists(st.lists(_ENTRIES, min_size=2, max_size=2), max_size=3))


def round_trips(field, scalars) -> bool:
    return all(isinstance(x, Scalar) and x.field == field
               and field.parse(x.serialize()) == x for x in scalars)


@FUZZ
@given(FUZZ_FIELDS, LITERALS)
def test_parse_returns_a_scalar_or_rejects(field, text):
    try:
        x = field.parse(text)
    except PreconditionError:
        return
    assert round_trips(field, [x])


@FUZZ
@given(FUZZ_FIELDS, DOCUMENT_VALUES)
def test_parse_vector_and_matrix_return_scalars_or_reject(field, value):
    try:
        vector = parse_vector(field, value)
    except PreconditionError:
        pass
    else:
        assert round_trips(field, vector)
    try:
        matrix = parse_matrix(field, value)
    except PreconditionError:
        return
    assert round_trips(field, [x for row in matrix.data for x in row])
