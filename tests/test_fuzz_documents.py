"""Fuzz tests of the command line on whole input documents: for every verb,
main() on a bounded random JSON document exits with 0, 2, 3 or 4 and writes a
structured certificate that parses, and parse_field on a random declaration
returns a Field or raises PreconditionError.

Sizes are bounded so each document runs in well under a second: at most six
points or lines, maps no larger than 4 x 3, forms no larger than 4 x 4.
"""
import json
import tempfile
from pathlib import Path

import pytest

from schurlab.cli_io import main, parse_field
from schurlab.errors import PreconditionError
from schurlab.exact_math import Field

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

FUZZ = settings(max_examples=200, deadline=None, derandomize=True, database=None)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10 ** 6, 10 ** 6) | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8)

FIELD_DECLS = st.one_of(
    st.just({"type": "rational"}),
    st.fixed_dictionaries({"type": st.just("quadratic"),
                           "s": st.sampled_from([5, -1, -3, 2, 0, 1, 4, True, -12])}),
    st.fixed_dictionaries({"type": st.sampled_from(["rational", "quadratic", "real"]),
                           "s": st.integers(-10 ** 12, 10 ** 12) | JSON_VALUES}),
    JSON_VALUES)

ENTRIES = st.one_of(st.integers(-3, 3), st.integers(-3, 3).map(str),
                    st.sampled_from(["1/2", "-2/3", "[1, 1]", "[0, -1/2]", "1e3", "x", ""]),
                    st.booleans(), st.none(), st.floats())


def vector_lists(count):
    """Lists of plane vectors: often exactly count integer ones, which the
    program reads and builds on, else fewer, mixed with junk, or no list."""
    exact = st.lists(st.integers(-3, 3), min_size=3, max_size=3)
    junk = st.lists(ENTRIES, max_size=4)
    return st.one_of(st.lists(exact, min_size=count, max_size=count),
                     st.lists(exact, max_size=count),
                     st.lists(exact | junk, max_size=count), JSON_VALUES)


def matrices(rows, cols):
    return st.lists(st.lists(st.integers(-2, 2), min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


MAPS = st.one_of(
    st.integers(2, 4).flatmap(lambda n: st.lists(matrices(n, n - 1), min_size=3, max_size=3)),
    st.lists(st.tuples(st.integers(1, 4), st.integers(1, 3)).flatmap(lambda s: matrices(*s)),
             max_size=4),
    JSON_VALUES)

FORMS = st.integers(1, 4).flatmap(lambda n: matrices(n, n)) | JSON_VALUES


def documents(key, items):
    """A document with the given list key, a field declaration that may be
    missing or junk, and sometimes a junk extra entry."""
    return st.fixed_dictionaries(
        {key: items},
        optional={"field": FIELD_DECLS, "extra": JSON_VALUES})


VERBS = st.one_of(
    st.tuples(st.just("cubic"), documents("points", vector_lists(6))),
    st.tuples(st.just("logbundle"), documents("lines", vector_lists(6))),
    st.tuples(st.just("monad"), st.fixed_dictionaries(
        {"maps": MAPS}, optional={"field": FIELD_DECLS, "form": FORMS})),
    st.tuples(st.just("example"), st.fixed_dictionaries(
        {}, optional={"name": st.sampled_from(["n2", "triangle", "nosuch", ""]) | JSON_VALUES})),
    st.tuples(st.sampled_from(["cubic", "logbundle", "monad", "example"]), JSON_VALUES))


@FUZZ
@given(VERBS)
def test_every_verb_ends_with_a_certificate(case):
    verb, doc = case
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "in.json", Path(tmp) / "cert.json"
        path.write_text(json.dumps(doc))
        code = main([verb, "--in", str(path), "--format", "structured", "--out", str(out)])
        cert = json.loads(out.read_text())
    assert code in (0, 2, 3, 4), (verb, doc, code)
    assert cert["command"] == verb and cert["status"] in ("pass", "probed", "fail", "unresolved")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(FIELD_DECLS)
def test_parse_field_returns_a_field_or_rejects(decl):
    try:
        field = parse_field(decl)
    except PreconditionError:
        return
    assert isinstance(field, Field)
