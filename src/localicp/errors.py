"""Exception types shared across the package, and the one check of every count, seed, size and real number."""

import numbers
import sys

# Largest array an input may ask for, in doubles (2^27, 1 GiB).
MAX_DOUBLES = 2**27


class InvalidInputError(ValueError):
    """Raised when an input value is outside the admissible domain (NaN, inf, negative counts, ...)."""


class ShapeError(ValueError):
    """Raised when array dimensions are not conformable."""


class CapacityError(RuntimeError):
    """Raised when a request exceeds a hard resource ceiling (e.g. subset enumeration limit)."""


class DivergenceError(RuntimeError):
    """Raised when an iterated simulation leaves the representable range; the message names the step."""


def check_counts(minimum: int = 1, **counts) -> None:
    """Raise ``InvalidInputError`` unless every value is an integer (not a bool) of at least
    ``minimum``: 1, a positive count, or 0, a non-negative one such as a seed."""
    for name, value in counts.items():
        if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < minimum:
            kind = "positive" if minimum else "non-negative"
            raise InvalidInputError(f"{name} must be a {kind} integer, got {value!r}")


def finite(value) -> bool:
    """Whether ``value`` is a real number, not a bool, within the finite doubles."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def check_capacity(size: int, what: str) -> None:
    """Raise ``CapacityError`` when ``size`` doubles exceed ``MAX_DOUBLES``; ``what`` says
    what they hold and ends in their number."""
    if size > MAX_DOUBLES:
        raise CapacityError(f"{what}, above the limit of {MAX_DOUBLES} (1 GiB)")


def check_environments(num_envs: int) -> None:
    """Raise ``InvalidInputError`` for fewer than two environments, which permit no invariance test."""
    if num_envs < 2:
        why = "a single environment permits no causal conclusion"
        raise InvalidInputError(f"testing invariance requires at least two environments; {why}")
