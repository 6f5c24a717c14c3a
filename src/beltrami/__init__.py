"""Obstruction machinery for curl u = f u with a nonconstant factor.

The package turns a scalar field f on R^3 into adapted flow coordinates on a
level surface, computes the time-dependent tensor driving the evolution of the
dual 1-form of a solution, and evaluates the determinant obstruction
polynomials whose nonvanishing rules out nontrivial solutions.
"""

from .errors import (
    BeltramiError,
    BudgetError,
    CriticalPointError,
    DomainError,
    FrameError,
    ParseError,
    SeriesMismatchError,
)
from .expr import VectorExpr, evaluate, jet, parse, parse_vector, to_string
from .series import SeriesMatrix2, TruncatedSeries

__all__ = [
    "BeltramiError",
    "BudgetError",
    "CriticalPointError",
    "DomainError",
    "FrameError",
    "ParseError",
    "SeriesMismatchError",
    "TruncatedSeries",
    "SeriesMatrix2",
    "parse",
    "parse_vector",
    "to_string",
    "evaluate",
    "jet",
    "VectorExpr",
]
