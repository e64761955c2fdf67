"""Characteristic exponents as composable evaluation trees.

A CharExponent wraps a node that can evaluate the exponent on a grid of
arguments. Nodes cover triplet-backed laws, rescaling (convolution
powers), sums (convolution), integral transforms, and callables, closed
forms among them. Keeping the structure symbolic lets transforms nest
without committing to a measure representation at every level.

Closed forms are the leaves that nested maps evaluate most. Each row of
their output has the same bytes in whatever batch it rides: `gaussian`
and `dirac` sum coordinates in order, with no matrix product, and
`compound_poisson` goes through the half-angle kernel
:func:`idlaw.spectral._cis_m1`, one `tan` per (row, atom) pair.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .errors import DimensionMismatchError, LawSpecError, positive_finite, refuse_unknown
from .spectral import _cis_m1, _dot, _quad_form
from .triplet import LevyTriplet, cov_issues


def as_grid(y, dim: int) -> tuple[np.ndarray, bool]:
    """Normalize one point or a grid to shape (n, dim); flag scalar input."""
    arr = np.asarray(y, dtype=float)
    if arr.ndim == 0:
        if dim != 1:
            raise DimensionMismatchError(f"scalar argument for a dim-{dim} law")
        return arr.reshape(1, 1), True
    if arr.ndim == 1:
        if dim == 1 and arr.shape[0] != 1:
            # a 1-d batch of scalar arguments
            return arr[:, None], False
        if arr.shape[0] != dim:
            raise DimensionMismatchError(
                f"argument length {arr.shape[0]} does not match dim {dim}"
            )
        return arr[None, :], True
    if arr.ndim == 2:
        if arr.shape[1] != dim:
            raise DimensionMismatchError(
                f"grid shape {arr.shape} does not match dim {dim}"
            )
        return arr, False
    raise DimensionMismatchError(f"argument must be at most 2-d, got shape {arr.shape}")


def default_grid(dim: int, n_points: int = 41) -> np.ndarray:
    """Standard verification grid: symmetric line on [-5, 5] (d=1) or a radial fan.

    For d >= 2 the grid is the origin plus 8 fixed directions at radii
    1, ..., 5, so the default point count stays at 41.
    """
    if dim == 1:
        return np.linspace(-5.0, 5.0, n_points)[:, None]
    if dim == 2:
        angles = np.arange(8) * (np.pi / 4.0)
        dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    else:
        gen = np.random.Generator(np.random.Philox(key=np.array([0, 0], dtype=np.uint64)))
        dirs = gen.standard_normal((8, dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = np.linspace(1.0, 5.0, 5)
    pts = (dirs[:, None, :] * radii[None, :, None]).reshape(-1, dim)
    return np.vstack([np.zeros((1, dim)), pts])


def _folded(evaluate: Callable[[np.ndarray], np.ndarray], Y: np.ndarray) -> np.ndarray:
    """evaluate(Y) as (n,) complex, by the symmetry Phi(-y) = conj Phi(y).

    The exponent of a law on R^dim satisfies it, and every node and map
    keeps it exactly, tabulated tails included. So on a grid that is its
    own negative reversed (Y == -Y[::-1], as a symmetric linspace is) only
    the upper half Y[n // 2:] is evaluated and the lower half is its
    mirrored conjugate; the nested maps below then see half the columns.
    Adding 0.0 keeps imaginary parts +0.0 where conj would give -0.0.
    """
    n = Y.shape[0]
    # the end rows reject stacked inner batches before the O(n) comparison
    if n > 1 and Y[0, 0] == -Y[-1, 0] and np.array_equal(Y, -Y[::-1]):
        out = np.empty(n, dtype=complex)
        out[n // 2 :] = evaluate(Y[n // 2 :])
        lower = out[: n // 2]
        np.conjugate(out[: n // 2 - 1 + n % 2 : -1], out=lower)
        lower += 0.0
        return out
    return np.asarray(evaluate(Y), dtype=complex)


class _Node:
    # whether the law has a power tail to r = inf (LevyTriplet.heavy_tailed);
    # a callable's is taken as False
    heavy_tailed = False

    def eval(self, Y: np.ndarray, tol: float | None) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class _TripletNode(_Node):
    triplet: LevyTriplet

    @property
    def heavy_tailed(self):
        return self.triplet.heavy_tailed

    def eval(self, Y, tol):
        return self.triplet.exponent_grid(Y)


@dataclass(frozen=True, eq=False)
class _ScaleNode(_Node):
    factor: float
    inner: _Node

    @property
    def heavy_tailed(self):
        return self.inner.heavy_tailed

    def eval(self, Y, tol):
        return self.factor * self.inner.eval(Y, tol)


@dataclass(frozen=True, eq=False)
class _SumNode(_Node):
    parts: tuple[_Node, ...]

    @property
    def heavy_tailed(self):
        return any(part.heavy_tailed for part in self.parts)

    def eval(self, Y, tol):
        # summed from +0.0, onto a copy of the first part
        out = np.add(self.parts[0].eval(Y, tol), 0.0, dtype=complex)
        for part in self.parts[1:]:
            out += part.eval(Y, tol)
        return out


@dataclass(frozen=True, eq=False)
class _MappedNode(_Node):
    map: Any  # IntegralMap; typed loosely to avoid an import cycle
    inner: "CharExponent"

    @property
    def heavy_tailed(self):
        return self.inner.heavy_tailed

    def eval(self, Y, tol):
        from . import maps

        return maps.map_exponent_grid(self.map, self.inner, Y, tol)


@dataclass(frozen=True, eq=False)
class _CallbackNode(_Node):
    fn: Callable[[np.ndarray, float | None], np.ndarray]

    def eval(self, Y, tol):
        return np.asarray(self.fn(Y, tol), dtype=complex)


@dataclass(frozen=True, eq=False)
class CharExponent:
    """Characteristic exponent of an infinitely divisible law on R^dim."""

    dim: int
    node: _Node

    def eval_grid(self, Y: np.ndarray, tol: float | None = None) -> np.ndarray:
        """Evaluate on a grid of shape (n, dim); returns (n,) complex, folded
        on an antisymmetric grid (:func:`_folded`)."""
        Y = np.asarray(Y, dtype=float)
        if Y.ndim != 2 or Y.shape[1] != self.dim:
            raise DimensionMismatchError(
                f"grid shape {Y.shape} does not match dim {self.dim}"
            )
        return _folded(lambda rows: self.node.eval(rows, tol), Y)

    @property
    def heavy_tailed(self) -> bool:
        """Whether the law has a power tail to r = inf (:attr:`LevyTriplet.heavy_tailed`)."""
        return self.node.heavy_tailed

    def __call__(self, y, tol: float | None = None):
        """Evaluate at one point (complex) or a batch (complex array)."""
        Y, single = as_grid(y, self.dim)
        vals = self.eval_grid(Y, tol)
        return complex(vals[0]) if single else vals

    # the three law operations of factor.SIDES, shared with LevyTriplet

    def mapped(self, m) -> "CharExponent":
        """The image under the integral map ``m`` (:mod:`idlaw.maps`), a deferred node."""
        return CharExponent(self.dim, _MappedNode(m, self))

    def convolve(self, other: "CharExponent") -> "CharExponent":
        """Exponent of the independent sum with ``other``: :func:`convolve`."""
        return convolve(self, other)

    def conv_power(self, c: float) -> "CharExponent":
        """Exponent of the c-th convolution power (c times the exponent), c > 0."""
        c = positive_finite(c, "convolution power")
        return CharExponent(self.dim, _ScaleNode(c, self.node))


def from_triplet(triplet: LevyTriplet) -> CharExponent:
    return CharExponent(triplet.dim, _TripletNode(triplet))


def from_callable(fn, dim: int) -> CharExponent:
    """Wrap fn(Y, tol) -> (n,) complex as an exponent node.

    fn must satisfy fn(-Y) = conj fn(Y), as the exponent of every law on
    R^dim does: exponents and maps evaluate only half of an antisymmetric
    grid and mirror the rest by conjugation (:func:`_folded`).
    """
    return CharExponent(dim, _CallbackNode(fn))


def convolve(*exponents: CharExponent) -> CharExponent:
    """Exponent of the independent sum: pointwise sum of exponents."""
    if not exponents:
        raise ValueError("convolve needs at least one exponent")
    dim = exponents[0].dim
    for e in exponents:
        if e.dim != dim:
            raise DimensionMismatchError(
                f"cannot convolve laws of dims {dim} and {e.dim}"
            )
    if len(exponents) == 1:
        return exponents[0]
    return CharExponent(dim, _SumNode(tuple(e.node for e in exponents)))


# -- numerically stable scalar kernels used by closed forms ------------------


def xcothx(x: np.ndarray) -> np.ndarray:
    """x * coth(x), even, stable at 0 (limit 1) and for large |x|."""
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    small = ax < 1e-4
    x2 = x * x
    series = 1.0 + x2 / 3.0 - x2 * x2 / 45.0
    safe = np.where(small, 1.0, ax)
    direct = safe / np.tanh(safe)
    return np.where(small, series, direct)


def log_sinhc(x: np.ndarray) -> np.ndarray:
    """log(sinh(x) / x), even, stable at 0 and safe from overflow."""
    x = np.abs(np.asarray(x, dtype=float))
    x2 = x * x
    small = x < 1e-4
    large = x > 300.0
    mid_safe = np.where(small | large, 1.0, x)
    out = np.log(np.sinh(mid_safe) / mid_safe)
    out = np.where(small, x2 / 6.0 - x2 * x2 / 180.0, out)
    large_safe = np.where(large, x, 1.0)
    out = np.where(large, large_safe - np.log(2.0 * large_safe), out)
    return out


# -- closed forms ---------------------------------------------------------------


def jump_atoms(jumps, probs=None) -> tuple[np.ndarray, np.ndarray]:
    """Jump atoms as (k, dim) rows, with their probabilities.

    A 1-d list is one column. Probabilities default to uniform and must be
    nonnegative, one per atom, and sum to 1 within 1e-12.
    """
    jumps = np.asarray(jumps, dtype=float)
    if jumps.ndim == 1:
        jumps = jumps[:, None]
    if jumps.ndim != 2 or 0 in jumps.shape:
        raise LawSpecError("compound Poisson part needs a nonempty jump list of shape (k, dim)")
    k = jumps.shape[0]
    if probs is None:
        probs = np.full(k, 1.0 / k)
    else:
        probs = np.asarray(probs, dtype=float)
    if probs.shape != (k,) or np.any(probs < 0.0):
        raise LawSpecError("jump probabilities must be nonnegative, one per atom")
    if abs(probs.sum() - 1.0) > 1e-12:
        raise LawSpecError(f"jump probabilities sum to {probs.sum()!r}, not 1")
    return jumps, probs


def closed_form(name: str, **params) -> CharExponent:
    """The closed-form exponent ``name`` with the given parameters."""
    builder = CLOSED_FORMS.get(name)
    if builder is None:
        raise LawSpecError(
            f"unknown closed form {name!r}; available: {', '.join(sorted(CLOSED_FORMS))}"
        )
    signature = inspect.signature(builder).parameters
    refuse_unknown(params, tuple(signature), f"closed form {name!r} params")
    for param in signature.values():
        if param.default is param.empty and param.name not in params:
            raise LawSpecError(f"closed form {name!r} is missing parameter {param.name!r}")
    dim, fn = builder(**params)
    return CharExponent(dim, _CallbackNode(fn))


def closed_form_params(name: str) -> tuple[str, ...]:
    """The parameter names of the closed form ``name``."""
    return tuple(inspect.signature(CLOSED_FORMS[name]).parameters)


def _build_gaussian(mean=0.0, cov=1.0):
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    dim = mean.shape[0]
    cov = np.asarray(cov, dtype=float)
    if cov.ndim == 0:
        cov = cov * np.eye(dim)
    if cov.shape != (dim, dim):
        raise LawSpecError(f"gaussian cov shape {cov.shape} does not match dim {dim}")
    issues = cov_issues(cov)
    if issues:
        raise LawSpecError("; ".join(issues))

    def fn(Y, tol):
        # 1j * <y, mean> - 0.5 <y, cov y>, with 0.0 added to both parts so
        # that no -0.0 is left and Phi(-y) is conj Phi(y) to the bit
        out = np.empty(Y.shape[0], dtype=complex)
        np.multiply(_quad_form(Y, cov), -0.5, out=out.real)
        out.real += 0.0
        np.add(_dot(Y, mean), 0.0, out=out.imag)
        return out

    return dim, fn


def _build_dirac(shift):
    shift = np.atleast_1d(np.asarray(shift, dtype=float))
    dim = shift.shape[0]

    def fn(Y, tol):
        out = np.zeros(Y.shape[0], dtype=complex)  # +0.0 real parts, as for the Gaussian
        np.add(_dot(Y, shift), 0.0, out=out.imag)
        return out

    return dim, fn


def _build_compound_poisson(rate, jumps, probs=None):
    rate = float(rate)
    if rate < 0.0:
        raise LawSpecError(f"compound_poisson rate must be >= 0, got {rate}")
    jumps, probs = jump_atoms(jumps, probs)
    half, mass2 = 0.5 * jumps, 2.0 * (rate * probs)[:, None]

    def fn(Y, tol):
        return _cis_m1(Y, half, mass2)

    return jumps.shape[1], fn


def _build_levy_area_bdlp(u):
    """Background driving law of the stochastic-area stationary law.

    Exponent 1 - t*u*coth(t*u) at argument t, for area parameter u > 0.
    """
    u = positive_finite(float(u), "levy_area_bdlp u", LawSpecError)

    def fn(Y, tol):
        t = Y[:, 0]
        return (1.0 - xcothx(t * u)).astype(complex)

    return 1, fn


# name -> builder taking keyword params and returning (dim, fn), where
# fn(Y, tol) maps an (n, dim) grid to (n,) complex values and ignores tol
CLOSED_FORMS: dict[str, Callable] = {
    "gaussian": _build_gaussian,
    "dirac": _build_dirac,
    "compound_poisson": _build_compound_poisson,
    "levy_area_bdlp": _build_levy_area_bdlp,
}
