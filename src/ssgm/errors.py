"""Exception types shared across the package."""

__all__ = ["ParameterError", "NumericalError"]


class ParameterError(ValueError):
    """A parameter lies outside its admissible domain."""


class NumericalError(RuntimeError):
    """A numerical procedure failed (quadrature budget, factorization, fit)."""
