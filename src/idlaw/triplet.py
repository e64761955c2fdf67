"""Generating triplets (shift, covariance, jump measure) and their exponents.

The characteristic exponent attached to a triplet (a, S, M) is

    Phi(y) = i<y, a> - <y, S y>/2
             + integral of [exp(i<y, x>) - 1 - i<y, x> 1{|x| <= 1}] M(dx),

with the compensation cutoff fixed at the closed unit ball.

A triplet compiles itself once (:attr:`LevyTriplet.compiled`): the jump
measure's flat tables (:class:`idlaw.spectral.JumpTables`), with the
compensation of jumps inside the unit ball folded into the shift. Its
exponent is then one ordered drift sum, one point-mass kernel call over
every atom and tail node, the segment-piece program and, when the
covariance is not zero, one ordered quadratic form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError, InvalidMeasureError
from .spectral import JumpTables, SpectralMeasure, _quad_form

PSD_TOL = 1e-10


def cov_issues(cov: np.ndarray) -> tuple[str, ...]:
    """Why ``cov`` is not a covariance matrix; empty when it is one.

    The one rule for triplets and samplers alike: symmetric within PSD_TOL
    times max(1, largest |entry|), and no eigenvalue below -PSD_TOL times
    max(1, largest eigenvalue).
    """
    cov = np.asarray(cov, dtype=float)
    # exact symmetry, the usual case, skips the slower tolerance test
    if not np.array_equal(cov, cov.T):
        scale = max(1.0, float(np.abs(cov).max()))
        if not np.all(np.abs(cov - cov.T) <= PSD_TOL * scale):
            return ("cov is not symmetric",)
    eigs = np.linalg.eigvalsh(cov)
    if eigs.size and eigs.min() < -PSD_TOL * max(1.0, eigs.max()):
        return (f"cov has negative eigenvalue {eigs.min():.3e}",)
    return ()


@dataclass(frozen=True, eq=False)
class LevyTriplet:
    """Shift vector, covariance matrix, and jump measure of one law."""

    dim: int
    shift: np.ndarray
    cov: np.ndarray
    levy: SpectralMeasure

    def __post_init__(self):
        shift = np.atleast_1d(np.asarray(self.shift, dtype=float)).copy()
        cov = np.asarray(self.cov, dtype=float).copy()
        if shift.shape != (self.dim,):
            raise DimensionMismatchError(
                f"shift shape {shift.shape} does not match dim {self.dim}"
            )
        if cov.shape != (self.dim, self.dim):
            raise DimensionMismatchError(
                f"cov shape {cov.shape} does not match dim {self.dim}"
            )
        if self.levy.dim != self.dim:
            raise DimensionMismatchError(
                f"jump measure dim {self.levy.dim} does not match dim {self.dim}"
            )
        shift.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "cov", cov)

    @cached_property
    def _cov_issues(self) -> tuple[str, ...]:
        return cov_issues(self.cov)

    def issues(self) -> list[str]:
        return [*self._cov_issues, *self.levy.issues()]

    def require_valid(self) -> None:
        """Raise InvalidMeasureError unless the covariance and jump measure are admissible."""
        if self._cov_issues:
            raise InvalidMeasureError("; ".join(self._cov_issues))
        self.levy.require_valid()

    @cached_property
    def compiled(self) -> tuple[JumpTables, np.ndarray, bool]:
        """The jump tables, the shift less their compensation, and whether cov is nonzero."""
        tables = self.levy.tables
        return tables, self.shift - tables.comp, bool(np.any(self.cov))

    def exponent_grid(self, Y: np.ndarray) -> np.ndarray:
        """Characteristic exponent on a grid Y of shape (n, dim)."""
        Y = np.asarray(Y, dtype=float)
        if Y.ndim != 2 or Y.shape[1] != self.dim:
            raise DimensionMismatchError(
                f"grid shape {Y.shape} does not match dim {self.dim}"
            )
        self.require_valid()
        tables, drift, has_cov = self.compiled
        out = tables.exponent(Y, drift)
        if has_cov:
            out.real -= 0.5 * _quad_form(Y, self.cov)
        return out

    def convolve(self, other: "LevyTriplet") -> "LevyTriplet":
        """Triplet of the convolution (independent sum) of the two laws."""
        if self.dim != other.dim:
            raise DimensionMismatchError(
                f"cannot convolve laws of dims {self.dim} and {other.dim}"
            )
        return LevyTriplet(
            self.dim,
            self.shift + other.shift,
            self.cov + other.cov,
            self.levy + other.levy,
        )

    def conv_power(self, c: float) -> "LevyTriplet":
        """Triplet of the c-th convolution power, c > 0."""
        if not c > 0.0:
            raise ValueError(f"convolution power must be positive, got {c}")
        return LevyTriplet(self.dim, c * self.shift, c * self.cov, self.levy.scaled(c))
