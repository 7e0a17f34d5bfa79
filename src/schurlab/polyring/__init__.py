"""Exact homogeneous polynomial arithmetic, elimination, and local analysis."""
from .homopoly import (HomPoly, LinFormsMatrix, exact_div, gram, lagrange_coeffs,
                       monomials, poly_det, quadric, try_exact_div)
from .local import LocalSingularity, line_intersection_order, local_singularity
from .univar import (degree, eval_univar, factor_univar, monic,
                     roots_with_multiplicity, trim, univar_gcd)
from .zeros import (PairSolution, ZeroLocus, gcd_many, multivariate_gcd,
                    resolved_common_zeros, solve_pair)

__all__ = [
    "HomPoly", "LinFormsMatrix", "exact_div", "try_exact_div", "monomials",
    "poly_det", "lagrange_coeffs", "gram", "quadric",
    "degree", "eval_univar", "factor_univar", "monic", "roots_with_multiplicity",
    "trim", "univar_gcd",
    "PairSolution", "ZeroLocus", "gcd_many", "multivariate_gcd",
    "resolved_common_zeros", "solve_pair",
    "LocalSingularity", "local_singularity", "line_intersection_order",
]
