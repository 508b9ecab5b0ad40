"""Exception types shared across the package, and the one rule for integer inputs."""

import numpy as np

__all__ = ["ParameterError", "NumericalError", "check_integer"]


class ParameterError(ValueError):
    """A parameter lies outside its admissible domain."""


class NumericalError(RuntimeError):
    """A numerical procedure failed (quadrature budget, factorization, fit)."""


def check_integer(value, name: str, low: int, high=None) -> int:
    """``value`` as a Python int if it is a Python or numpy integer, not a bool, in ``[low, high)``, else a
    :class:`ParameterError` naming ``name``.  A float is refused, 2.0 too; ``high`` None is no upper bound."""
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if integer and low <= value and (high is None or value < high):
        return int(value)
    bound = f">= {low}" if high is None else f"in [{low}, {high})"
    raise ParameterError(f"{name} must be an integer {bound}, got {value!r}")
