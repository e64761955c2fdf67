"""Exception types shared across the package, and the checks for unknown keys and indices."""

import math


class DimensionMismatchError(ValueError):
    """An argument's dimension does not match the object it is used with."""


class InvalidMeasureError(ValueError):
    """A jump measure or covariance violates an integrability, symmetry or positivity rule."""


class NotLogIntegrableError(ValueError):
    """The upstream law lacks the finite log-moment needed by this transform."""


class LawSpecError(ValueError):
    """A law description (dict or JSON file) is malformed."""


class HorizonError(ValueError):
    """A time-change horizon discards too much of the exponent on the grid it serves."""


def refuse_unknown(keys, known, what: str) -> None:
    """LawSpecError naming the keys outside ``known`` and the known ones, if any are."""
    unknown = sorted(set(keys) - set(known))
    if unknown:
        raise LawSpecError(f"{what} has unknown fields {unknown}; known: {', '.join(known)}")


def positive_finite(value, name: str = "beta", error: type[Exception] = ValueError) -> float:
    """``value`` as a float when it is positive and finite, else ``error`` naming it.

    The one rule for map indices, convolution powers, the area parameter and
    the CLI's numbers: nan and +-inf are refused along with the nonpositive.
    """
    if value is None or not 0.0 < value < math.inf:
        raise error(f"{name} must be positive and finite, got {value}")
    return float(value)


# errors that mean the input is wrong, not that a computation failed
INPUT_ERRORS = (DimensionMismatchError, InvalidMeasureError, NotLogIntegrableError, LawSpecError,
                HorizonError)


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance.

    Carries the best available value and the achieved error estimate so
    callers can decide whether the partial result is still usable.
    """

    def __init__(self, message, value=None, error_estimate=None):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate
