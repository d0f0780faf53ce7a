"""Exception types shared across the package, and the enumeration budget."""

import math

_MAX_SUBSETS = 2_000_000  # the exhaustive searches' enumeration budget


class ParameterError(ValueError):
    """An argument is outside its mathematical domain."""


class ConstraintError(ValueError):
    """A schedule or power split violates a structural constraint."""


class ConfigError(ValueError):
    """An experiment configuration is malformed or inconsistent."""


class NumericError(RuntimeError):
    """A series, bracketing search, or fixed-point iteration failed to
    converge within its budget.  The message carries diagnostics."""


class EnumerationBudgetError(RuntimeError):
    """An exhaustive search would exceed its subset budget."""


def budgeted_comb(n: int, k: int) -> int:
    """comb(n, k); raises EnumerationBudgetError when it exceeds _MAX_SUBSETS."""
    n_subsets = math.comb(n, k)
    if n_subsets > _MAX_SUBSETS:
        raise EnumerationBudgetError(f"comb({n}, {k}) = {n_subsets} exceeds budget {_MAX_SUBSETS}")
    return n_subsets


class InternalConsistencyError(RuntimeError):
    """A state the surrounding contracts promise is unreachable."""
