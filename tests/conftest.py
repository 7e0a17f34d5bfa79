"""Shared fixtures: one standard hexad and its derived objects, built once,
and sympy's factoring switched off."""
import pytest
import sympy

from schurlab.detrep import build_detrep
from schurlab.exact_math import QQ
from schurlab.logbundle import build_logbundle

STD_POINTS = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3), (1, 4, 9)]
EIGHT_LINES = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1),
               (1, 2, 3), (1, 4, 9), (2, 5, 1), (3, 1, 7)]


@pytest.fixture(scope="session")
def std_rep():
    return build_detrep(QQ, STD_POINTS)


@pytest.fixture(scope="session")
def six_line_bundle():
    return build_logbundle(QQ, STD_POINTS)


@pytest.fixture(scope="session")
def eight_line_bundle():
    return build_logbundle(QQ, EIGHT_LINES)


@pytest.fixture
def no_sympy_factoring(monkeypatch):
    """sympy.factor_list refusing every call, for paths that must not reach it."""
    def refuse(*args, **kwargs):
        raise RuntimeError("sympy.factor_list was called")
    monkeypatch.setattr(sympy, "factor_list", refuse)
