"""Generating triplets (shift, covariance, jump measure) and their exponents.

The characteristic exponent attached to a triplet (a, S, M) is

    Phi(y) = i<y, a> - <y, S y>/2
             + integral of [exp(i<y, x>) - 1 - i<y, x> 1{|x| <= 1}] M(dx),

with the compensation cutoff fixed at the closed unit ball.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DimensionMismatchError, InvalidMeasureError
from .spectral import SpectralMeasure

PSD_TOL = 1e-10


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

    def issues(self) -> list[str]:
        out = []
        if not np.allclose(self.cov, self.cov.T, atol=PSD_TOL):
            out.append("cov is not symmetric")
        else:
            eigs = np.linalg.eigvalsh(self.cov)
            if eigs.size and eigs.min() < -PSD_TOL * max(1.0, eigs.max()):
                out.append(f"cov has negative eigenvalue {eigs.min():.3e}")
        out.extend(self.levy.issues())
        return out

    def exponent_grid(self, Y: np.ndarray, tol: float | None = None) -> np.ndarray:
        """Characteristic exponent on a grid Y of shape (n, dim)."""
        Y = np.asarray(Y, dtype=float)
        if Y.ndim != 2 or Y.shape[1] != self.dim:
            raise DimensionMismatchError(
                f"grid shape {Y.shape} does not match dim {self.dim}"
            )
        self.levy.require_valid()
        val = 1j * (Y @ self.shift)
        val = val - 0.5 * np.einsum("ij,jk,ik->i", Y, self.cov, Y)
        val = val + self.levy.exponent_jump_integral(Y, tol)
        return val

    def exponent(self, y, tol: float | None = None) -> complex:
        """Characteristic exponent at a single argument."""
        y = np.atleast_1d(np.asarray(y, dtype=float))
        return complex(self.exponent_grid(y[None, :], tol)[0])

    def log_moment(self) -> float:
        return self.levy.log_moment()

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


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of semantic checks on a measure or triplet."""

    target: str
    issues: tuple[str, ...]

    @property
    def is_valid(self) -> bool:
        return not self.issues

    def summary(self) -> str:
        if self.is_valid:
            return f"{self.target}: ok"
        lines = [f"{self.target}: {len(self.issues)} problem(s)"]
        lines.extend(f"  - {msg}" for msg in self.issues)
        return "\n".join(lines)


def validate(obj: Union[LevyTriplet, SpectralMeasure]) -> ValidationReport:
    """Run admissibility checks; returns a report instead of raising."""
    if isinstance(obj, LevyTriplet):
        return ValidationReport("triplet", tuple(obj.issues()))
    if isinstance(obj, SpectralMeasure):
        return ValidationReport("measure", tuple(obj.issues()))
    raise TypeError(f"cannot validate {type(obj).__name__}")

