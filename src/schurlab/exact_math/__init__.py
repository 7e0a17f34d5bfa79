"""Exact scalars (Q and quadratic extensions) and dense linear algebra."""
from .scalars import Field, QQ, Scalar
from .matrices import (Matrix, SymForm, sym_pairs, sym_row, vec_add,
                       vec_canonical, vec_dot, vec_is_zero, vec_scale)
from .subspaces import ProjSubspace

__all__ = [
    "Field", "QQ", "Scalar",
    "Matrix", "SymForm", "sym_pairs", "sym_row",
    "vec_add", "vec_canonical", "vec_dot", "vec_is_zero", "vec_scale",
    "ProjSubspace",
]
