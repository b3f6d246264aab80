"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument or model parameter lies outside its mathematical domain."""


class PrecisionError(ValueError):
    """A result would not meet the precision the operation guarantees."""


class NumericError(ArithmeticError):
    """An iterative scheme failed to converge within its iteration cap."""
