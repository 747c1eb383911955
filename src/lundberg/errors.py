"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: configuration problems exit
with 2, model precondition failures with 3, and numerical failures
(instability, unreached accuracy) with 4.
"""

import contextlib
import math
import numbers

__all__ = [
    "LundbergError", "ValidationError", "ConfigError", "NetProfitError", "InstabilityError",
    "AccuracyError",
]


class LundbergError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(LundbergError, ValueError):
    """A model object or operation input violates its invariants."""


class ConfigError(LundbergError):
    """A model configuration file is malformed.

    Attributes:
        field: dotted path of the offending entry, when known.
    """

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        if field is not None:
            message = f"{field}: {message}"
        super().__init__(message)


class NetProfitError(LundbergError):
    """The premium rate does not exceed the expected claim rate.

    Without a positive safety margin, ruin is certain and the integral
    equation solvers do not apply.

    Attributes:
        margin: premium rate minus expected claim cost per unit time
            (non-positive when this error is raised).
    """

    def __init__(self, margin: float):
        self.margin = margin
        super().__init__(
            f"net profit condition violated: premium margin c - lambda*E[Y] = {margin:g} <= 0"
        )

    def __reduce__(self):  # pickled as the margin, not as the formatted message
        return type(self), (self.margin,)


class InstabilityError(LundbergError):
    """The grid recursion produced values outside the admissible range.

    Usually indicates a grid step too coarse for the claim frequency;
    retry with a smaller step.
    """


class AccuracyError(LundbergError):
    """A quadrature or series evaluation could not reach its target accuracy."""


def _positive(name: str, value):
    """``value`` if it lies in (0, inf); otherwise a :class:`ValidationError` naming ``name``."""
    if not 0 < value < math.inf:
        raise ValidationError(f"{name} must be positive and finite, got {value}")
    return value


def _nonnegative(name: str, value):
    """``value`` if it lies in [0, inf); otherwise a :class:`ValidationError` naming ``name``."""
    if not 0 <= value < math.inf:
        raise ValidationError(f"{name} must be nonnegative and finite, got {value}")
    return value


@contextlib.contextmanager
def _step_grid(name: str, step):
    """Build a grid of step ``step`` in the ``with`` block; a count that overflows, or an array
    that numpy cannot size or allocate, raises a :class:`ValidationError` naming ``name``."""
    try:
        yield
    except (OverflowError, ValueError, MemoryError) as exc:
        raise ValidationError(f"{name} is too small to build its grid, got {step}") from exc


def _count(name: str, value, least: int):
    """``value`` if it is an integer, not a bool, of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValidationError(f"{name} must be an integer of at least {least}, got {value!r}")
    return value
