"""Exact amplitude arithmetic: polynomials, scalars, contexts, interpolation."""

from . import polys
from .context import (
    AlgebraContext,
    ContextError,
    cyclotomic_context,
    cyclotomic_polynomial,
    get_context,
    load_context,
    rational_context,
    save_context,
    table_dim_bound,
)
from .interpolation import (
    DegreeBoundError,
    LatticeSpec,
    g_interpolated_product,
    ipoly_direct_product,
    ipoly_interpolated_product,
    ipoly_iterated_sum,
    lagrange_basis,
    principal_lattice,
)
from .scalars import (
    EvaluationError,
    ExactScalar,
    FScalar,
    f_numeric,
    g_iterated_product,
    g_iterated_sum,
)

__all__ = [
    "AlgebraContext",
    "ContextError",
    "DegreeBoundError",
    "EvaluationError",
    "ExactScalar",
    "FScalar",
    "LatticeSpec",
    "cyclotomic_context",
    "cyclotomic_polynomial",
    "f_numeric",
    "g_interpolated_product",
    "g_iterated_product",
    "g_iterated_sum",
    "get_context",
    "ipoly_direct_product",
    "ipoly_interpolated_product",
    "ipoly_iterated_sum",
    "lagrange_basis",
    "load_context",
    "polys",
    "principal_lattice",
    "rational_context",
    "save_context",
    "table_dim_bound",
]
