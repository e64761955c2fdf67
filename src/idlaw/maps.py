"""Random-integral transforms acting on characteristic exponents and triplets.

Four maps are provided, all defined through upsilon-type kernels on the
exponent scale:

* ``jbeta``:  integral over t in (0,1) of Phi(t**(1/beta) y) dt
* ``i``:      integral over u in (0,1) of Phi(u y) / u du
* ``ubetaf``: integral over t in (0,1) of Phi((1 - sqrt(t))**(1/beta) y) dt
* ``ijbeta``: integral over u in (0,1) of Phi(u y) (u**-1 - u**(beta-1)) du,
  the composition of ``i`` after ``jbeta``, also realized by integrating
  against a deterministic time change with rate 1 - exp(-beta s).

The ``jbeta`` map also acts on generating triplets in closed form: shift
and covariance pick up the factors beta/(beta+1) and beta/(beta+2), atoms
of the jump measure spread into power segments, and general radial parts
transform through their right tails,

    tail_out(u) = beta * u**beta * integral_u^inf tail(w) w**(-beta-1) dw,

which this module evaluates exactly piece by piece.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import quadrature
from .errors import DimensionMismatchError, NotLogIntegrableError, QuadratureError
from .exponent import CharExponent, from_callable, iter_triplets
from .spectral import (
    Atom,
    GridTail,
    RadialMeasure,
    Ray,
    Segment,
    SpectralMeasure,
)
from .triplet import LevyTriplet

_KINDS = ("jbeta", "i", "ubetaf", "ijbeta")


@dataclass(frozen=True)
class IntegralMap:
    """One of the four integral transforms, with its index when needed."""

    kind: str
    beta: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown map kind {self.kind!r}; expected one of {_KINDS}")
        if self.kind == "i":
            if self.beta is not None:
                raise ValueError("map 'i' takes no index beta")
        else:
            if self.beta is None or not self.beta > 0.0:
                raise ValueError(f"map {self.kind!r} needs beta > 0, got {self.beta}")


def jbeta_map(beta: float) -> IntegralMap:
    return IntegralMap("jbeta", float(beta))


def i_map() -> IntegralMap:
    return IntegralMap("i")


def ubetaf_map(beta: float) -> IntegralMap:
    return IntegralMap("ubetaf", float(beta))


def i_jbeta_map(beta: float) -> IntegralMap:
    return IntegralMap("ijbeta", float(beta))


def apply_map(m: IntegralMap, phi: CharExponent) -> CharExponent:
    """Deferred application: returns the transformed exponent as a node."""
    from .exponent import _MappedNode

    return CharExponent(phi.dim, _MappedNode(m, phi))


# -- deterministic inner clock ------------------------------------------------


def inner_clock(beta: float, s) -> np.ndarray:
    """sigma(s) = s + (exp(-beta s) - 1)/beta for s >= 0."""
    if not beta > 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    s = np.asarray(s, dtype=float)
    if np.any(s < 0.0):
        raise ValueError("clock argument must be nonnegative")
    return s + np.expm1(-beta * s) / beta


def inner_clock_rate(beta: float, s) -> np.ndarray:
    """sigma'(s) = 1 - exp(-beta s), the thinning rate of the time change."""
    if not beta > 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    s = np.asarray(s, dtype=float)
    if np.any(s < 0.0):
        raise ValueError("clock argument must be nonnegative")
    return -np.expm1(-beta * s)


# -- exponent-level maps -------------------------------------------------------


def map_exponent_grid(
    m: IntegralMap, phi: CharExponent, Y: np.ndarray, tol: float | None = None
) -> np.ndarray:
    """Evaluate the transformed exponent on a grid of shape (n, dim)."""
    if tol is None:
        tol = quadrature.default_tol()
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or Y.shape[1] != phi.dim:
        raise DimensionMismatchError(
            f"grid shape {Y.shape} does not match dim {phi.dim}"
        )
    if m.kind == "i":
        return _singular_grid(phi, Y, tol, np.ones_like)
    beta = m.beta
    if m.kind == "ijbeta":
        return _singular_grid(phi, Y, tol, lambda s: -np.expm1(beta * s))
    # the jbeta and ubetaf kernels are probability densities on (0, 1); for
    # beta >= 1 they are substituted into forms with a bounded kernel
    if m.kind == "jbeta" and beta >= 1.0:
        kern, scale = (lambda w: beta * w ** (beta - 1.0)), (lambda w: w)
    elif m.kind == "jbeta":
        kern, scale = np.ones_like, (lambda t: t ** (1.0 / beta))
    elif beta >= 1.0:
        kern = lambda z: 2.0 * beta * z ** (beta - 1.0) * (1.0 - z ** beta)
        scale = lambda z: z
    else:
        kern, scale = (lambda v: 2.0 * v), (lambda v: (1.0 - v) ** (1.0 / beta))
    return _kernel_integral(phi, Y, tol, 0.0, 1.0, kern, scale)


# Share of a map's tolerance granted to the inner exponent; the outer
# quadrature keeps the rest, so inner noise cannot drive its refinement.
_INNER_SHARE = 0.25


def _eval_scaled(phi, Y, scales, tol):
    """Exponent values at scales[k] * Y for every k, shape (len(scales), n)."""
    m, n = scales.shape[0], Y.shape[0]
    W = (scales[:, None, None] * Y[None, :, :]).reshape(m * n, Y.shape[1])
    return phi.eval_grid(W, tol).reshape(m, n)


def _kernel_integral(phi, Y, tol, a, b, kern, scale, mass=1.0, splits=()):
    """Integral over (a, b) of kern(x) * Phi(scale(x) Y) dx on the grid Y.

    Inner errors reach the value weighted by the kernel's mass on (a, b),
    so the inner exponent gets its share of ``tol`` divided by that mass.
    """
    inner_tol = _INNER_SHARE * tol / mass

    def f(xs: np.ndarray) -> np.ndarray:
        return kern(xs)[:, None] * _eval_scaled(phi, Y, scale(xs), inner_tol)

    val, _ = quadrature.integrate(
        f, a, b, tol=(1.0 - _INNER_SHARE) * tol, splits=splits, vectorized=True
    )
    return val


def _require_log_moment(phi: CharExponent) -> None:
    for trip in iter_triplets(phi):
        if not math.isfinite(trip.log_moment()):
            raise NotLogIntegrableError(
                "the input law has an infinite log moment beyond the unit "
                "ball, so the logarithmic integral transform diverges"
            )


# Lower-limit walk in s = log u: probes start at u = 8**-5 and step down by
# a factor 8. The range above the start, where the integrand may still
# oscillate, is cut at every step. exp(s) must stay a normal double.
_WALK_STEP = math.log(8.0)
_WALK_CUTS = _WALK_STEP * np.arange(-5, 0)
_WALK_FLOOR = math.log(np.finfo(float).tiny)


def _singular_grid(phi, Y, tol, weight):
    """Maps with an integrable 1/u-type kernel singularity at u = 0.

    Integrates in s = log u, where kern(u) du becomes weight(s) ds with
    0 <= weight <= 1, and the behaviour u**a of the exponent near u = 0
    becomes exp(a s), which a few smooth panels resolve. The lower limit
    walks down in fixed steps, probing the integrand at each new limit;
    probes that stop shrinking are reported as a missing log moment, and
    a limit past the double range raises QuadratureError. The walk stops
    once the geometric remainder below the limit, extrapolated from the
    last two probes, is within a quarter of ``tol``, and the remainder is
    added to the value. The kernel's mass in s is the range length.
    """
    _require_log_moment(phi)

    def probe(s: float) -> np.ndarray:
        ss = np.array([s])
        inner_tol = _INNER_SHARE * tol / -s
        return weight(ss)[0] * _eval_scaled(phi, Y, np.exp(ss), inner_tol)[0]

    s_lo = float(_WALK_CUTS[0])
    prev_norm = float(np.max(np.abs(probe(s_lo))))
    strikes = 0
    while True:
        s_lo -= _WALK_STEP
        if s_lo < _WALK_FLOOR:
            raise QuadratureError(
                "the integrand of the logarithmic map does not decay within "
                f"the double range (|integrand| {prev_norm:.3e} at u = 1e-300)"
            )
        edge = probe(s_lo)
        norm = float(np.max(np.abs(edge)))
        if norm == 0.0:
            tail = edge
            break
        # for an integrable singularity the probes must shrink geometrically;
        # a stalled (or growing) probe means the transform diverges
        if norm > 1e-12 and norm > 0.75 * prev_norm:
            strikes += 1
            if strikes >= 3:
                raise NotLogIntegrableError(
                    "the integrand mass near u = 0 does not shrink under "
                    f"refinement (|integrand| {norm:.3e} at u = "
                    f"exp({s_lo:.1f})); the input law appears to lack the "
                    "required log moment"
                )
        else:
            strikes = 0
        if norm < prev_norm:
            # integrand ~ edge * exp(rate (s - s_lo)) below s_lo
            rate = math.log(prev_norm / norm) / _WALK_STEP
            if norm / rate <= 0.25 * tol:
                tail = edge / rate
                break
        prev_norm = norm

    val = _kernel_integral(
        phi, Y, 0.75 * tol, s_lo, 0.0, weight, np.exp, mass=-s_lo, splits=_WALK_CUTS
    )
    return val + tail


def jbeta_inverse(phi_mu: CharExponent, beta: float) -> CharExponent:
    """Left inverse of the jbeta map on exponents, as an exponent.

    If mu is the jbeta image of nu then s * Phi_mu(s**(1/beta) y) equals the
    integral of Phi_nu over a rescaled range, so its derivative in s at
    s = 1 recovers Phi_nu(y). Uses a Richardson-extrapolated central
    difference; accurate to about 1e-10 for smooth exponents.
    """
    if not beta > 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    h = 1e-5
    svals = np.array([1.0 + h, 1.0 - h, 1.0 + 0.5 * h, 1.0 - 0.5 * h])

    def fn(Y, tol):
        stacked = np.concatenate([(s ** (1.0 / beta)) * Y for s in svals], axis=0)
        vals = phi_mu.eval_grid(stacked, tol)
        n = Y.shape[0]
        F = [svals[k] * vals[k * n : (k + 1) * n] for k in range(4)]
        d1 = (F[0] - F[1]) / (2.0 * h)
        d2 = (F[2] - F[3]) / h
        return (4.0 * d2 - d1) / 3.0

    return from_callable(fn, phi_mu.dim, label=f"jbeta_inverse(beta={beta})")


# -- closed-form transformed tails --------------------------------------------


def _segment_tail_transform(sg: Segment, beta: float, us: np.ndarray) -> np.ndarray:
    """integral_u^inf tail_sg(w) w**(-beta-1) dw for one power segment.

    Vectorized over query radii us > 0. On (u, lo) the segment's tail is
    its whole mass; from L = max(u, lo) on it is a combination of 1 and
    w**(p+1), so each piece is a power integral in closed form.
    """
    c, p, lo, hi = sg.c, sg.p, sg.lo, sg.hi

    def p_neg(a, b):
        # integral of w**(-beta-1) over (a, b); b may be inf
        return (a ** (-beta) - b ** (-beta)) / beta

    L = np.maximum(us, lo)
    val = np.zeros_like(us)
    if lo > 0.0:
        val += np.where(us < lo, sg.mass_above(lo) * p_neg(np.minimum(us, lo), lo), 0.0)
    e = p - beta + 1.0
    if math.isinf(hi):
        # p < -1 here, else the tail itself is infinite
        val += (c / (-(p + 1.0))) * (-(L ** e) / e)
    elif p == -1.0:
        val += c * (np.log(hi / L) * L ** (-beta) / beta - p_neg(L, hi) / beta)
    else:
        part = np.log(hi / L) if e == 0.0 else (hi ** e - L ** e) / e
        val += (c / (p + 1.0)) * (hi ** (p + 1.0) * p_neg(L, hi) - part)
    return np.where(us < hi, val, 0.0)


def _grid_tail_transform(gt: GridTail, beta: float, us: np.ndarray) -> np.ndarray:
    """integral_u^inf tail_gt(w) w**(-beta-1) dw, vectorized over query radii.

    The tabulated tail is linear on each cell and zero past the last node,
    so every cell integrates in closed form; suffix sums make the whole
    batch O(cells + queries).
    """
    r = gt.radii
    T = gt.tail
    slope = np.diff(T) / np.diff(r)
    alpha = T[:-1] - slope * r[:-1]

    def p_neg(a, b):
        return (a ** (-beta) - b ** (-beta)) / beta

    def p_one(a, b):
        if beta == 1.0:
            return np.log(b / a)
        return (b ** (1.0 - beta) - a ** (1.0 - beta)) / (1.0 - beta)

    cell_full = alpha * p_neg(r[:-1], r[1:]) + slope * p_one(r[:-1], r[1:])
    suffix = np.concatenate([np.cumsum(cell_full[::-1])[::-1], [0.0]])

    us = np.asarray(us, dtype=float)
    out = np.zeros_like(us)
    inside = us < r[-1]
    if np.any(inside):
        ui = np.minimum(np.maximum(us[inside], r[0]), r[-1])
        idx = np.clip(np.searchsorted(r, ui, side="right") - 1, 0, len(r) - 2)
        partial = alpha[idx] * p_neg(ui, r[idx + 1]) + slope[idx] * p_one(ui, r[idx + 1])
        vals = partial + suffix[idx + 1]
        below = us[inside] < r[0]
        vals = vals + np.where(below, T[0] * p_neg(np.maximum(us[inside], 1e-300), r[0]), 0.0)
        out[inside] = vals
    return out


def transformed_tail(radial: RadialMeasure, beta: float, us) -> np.ndarray:
    """Right tail of the jbeta image of a radial measure, evaluated exactly.

    tail_out(u) = beta * u**beta * integral_u^inf tail(w) w**(-beta-1) dw.
    Atoms contribute m * (1 - (u/r)**beta) below their radius; power
    segments and grid tails integrate in closed form piece by piece.
    """
    if not beta > 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    us = np.atleast_1d(np.asarray(us, dtype=float))
    if np.any(us <= 0.0):
        raise ValueError("tail queries must be at positive radii")
    out = np.zeros_like(us)
    for at in radial.atoms:
        out += at.m * np.maximum(0.0, 1.0 - (us / at.r) ** beta)
    integ = np.zeros_like(us)
    for sg in radial.segments:
        integ += _segment_tail_transform(sg, beta, us)
    if radial.grid_tail is not None:
        integ += _grid_tail_transform(radial.grid_tail, beta, us)
    out += beta * us ** beta * integ
    return out


# -- triplet-level transform ---------------------------------------------------


def _rest_breakpoints(rest: RadialMeasure) -> list[float]:
    bps = []
    for sg in rest.segments:
        if sg.lo > 0.0:
            bps.append(sg.lo)
        if math.isfinite(sg.hi):
            bps.append(sg.hi)
    if rest.grid_tail is not None:
        bps.extend([float(rest.grid_tail.radii[0]), float(rest.grid_tail.radii[-1])])
    return sorted(set(bps))


def jbeta_radial(
    radial: RadialMeasure, beta: float, n_grid: int | None = None
) -> RadialMeasure:
    """Radial part of the jbeta image of one ray's radial measure.

    Atoms map to exact power segments. Segments and tabulated parts have no
    power-form image in general, so their transformed tail is evaluated in
    closed form and re-tabulated on a log-spaced grid wide enough that the
    discarded pieces are negligible. By default the node count grows with
    the log-width of the support, so slowly decaying tails keep enough
    resolution for the oscillatory exponent kernel.
    """
    # each atom at r contributes density m beta u^(beta-1) / r^beta on (0, r);
    # the contributions share one exponent, so splitting at the sorted radii
    # and summing coefficients keeps the image exact and non-overlapping
    cuts = sorted({at.r for at in radial.atoms})
    new_segments = []
    lo = 0.0
    for hi in cuts:
        c = sum(at.m * beta / at.r ** beta for at in radial.atoms if at.r >= hi)
        new_segments.append(Segment(lo, hi, c, beta - 1.0))
        lo = hi
    new_segments = tuple(new_segments)
    rest = RadialMeasure((), radial.segments, radial.grid_tail)
    if rest.is_empty():
        return RadialMeasure((), new_segments, None)

    bps = _rest_breakpoints(rest)
    has_infinite = any(math.isinf(sg.hi) for sg in rest.segments)
    lo_ref = min(bps) if bps else 1.0

    def tail_out(u: float) -> float:
        return float(transformed_tail(rest, beta, np.array([u]))[0])

    if has_infinite:
        r_top = 2.0 * max(bps) if bps else 2.0
        scale = tail_out(lo_ref) + 1e-300
        while tail_out(r_top) > 1e-10 * scale and r_top < 1e15:
            r_top *= 2.0
    else:
        r_top = max(bps)

    r_floor = lo_ref * 1e-2
    while r_floor * r_floor * tail_out(r_floor) > 1e-10 and r_floor > 1e-18:
        r_floor /= 8.0

    if n_grid is None:
        efolds = math.log(r_top / r_floor)
        n_grid = int(min(32769, max(4097, 1024.0 * efolds)))
    us = np.geomspace(r_floor, r_top, n_grid)
    us = np.union1d(us, [b for b in bps if r_floor < b < r_top] + [1.0])
    us = us[(us >= r_floor) & (us <= r_top)]
    tails = transformed_tail(rest, beta, us)
    tails = np.minimum.accumulate(np.maximum(tails, 0.0))
    return RadialMeasure((), new_segments, GridTail(us, tails))


def jbeta_measure(
    measure: SpectralMeasure, beta: float, n_grid: int | None = None
) -> SpectralMeasure:
    """Jump measure of the jbeta image, ray by ray."""
    measure.require_valid()
    if not beta > 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    return SpectralMeasure(
        measure.dim,
        tuple(Ray(r.direction, jbeta_radial(r.radial, beta, n_grid)) for r in measure.rays),
    )


def jbeta_triplet(
    trip: LevyTriplet, beta: float, n_grid: int | None = None
) -> LevyTriplet:
    """Generating triplet of the jbeta image of a law given by its triplet.

    shift picks up beta/(beta+1) times (shift + mean of x/|x| beyond the
    unit ball), covariance scales by beta/(beta+2), and the jump measure
    transforms ray by ray.
    """
    if not beta > 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    trip.levy.require_valid()
    correction = np.zeros(trip.dim)
    for ray_ in trip.levy.rays:
        w = ray_.radial.power_moment_above1(-beta)
        correction = correction + w * ray_.direction
    shift = (beta / (beta + 1.0)) * (trip.shift + correction)
    cov = (beta / (beta + 2.0)) * trip.cov
    return LevyTriplet(trip.dim, shift, cov, jbeta_measure(trip.levy, beta, n_grid))


def log_moment_preserved(
    measure: SpectralMeasure, beta: float, n_grid: int | None = None
) -> tuple[float, float, bool]:
    """Log moments before and after the jbeta map, plus finiteness agreement.

    Returns (transformed, original, same_finiteness). Finiteness of the log
    moment is invariant under the map; the numeric values differ.
    """
    before = measure.log_moment()
    after = jbeta_measure(measure, beta, n_grid).log_moment()
    return after, before, bool(np.isfinite(after) == np.isfinite(before))
