"""Exception types shared across the package, and the check of count parameters."""

import numbers


class InvalidInputError(ValueError):
    """Raised when an input value is outside the admissible domain (NaN, inf, negative counts, ...)."""


class ShapeError(ValueError):
    """Raised when array dimensions are not conformable."""


class CapacityError(RuntimeError):
    """Raised when a request exceeds a hard resource ceiling (e.g. subset enumeration limit)."""


class DivergenceError(RuntimeError):
    """Raised when an iterated simulation leaves the representable range."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


def check_counts(**counts) -> None:
    """Raise ``InvalidInputError`` unless every value is a positive integer (not a bool)."""
    for name, value in counts.items():
        if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < 1:
            raise InvalidInputError(f"{name} must be a positive integer, got {value!r}")
