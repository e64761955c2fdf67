"""Random-integral transforms acting on characteristic exponents and triplets.

Four maps are provided, all defined through upsilon-type kernels on the
exponent scale:

* ``jbeta``:  integral over t in (0,1) of Phi(t**(1/beta) y) dt
* ``i``:      integral over u in (0,1) of Phi(u y) / u du
* ``ubetaf``: integral over t in (0,1) of Phi((1 - sqrt(t))**(1/beta) y) dt
* ``ijbeta``: integral over u in (0,1) of Phi(u y) (u**-1 - u**(beta-1)) du,
  the composition of ``i`` after ``jbeta``, also realized by integrating
  against a deterministic time change with rate 1 - exp(-beta s).

Every map also acts on generating triplets in closed form
(:func:`map_triplet`). In u, each kernel is a short sum of power kernels
kappa * u**(a-1) du, and each power kernel scales shift and covariance by
kappa/(a+1) and kappa/(a+2) and maps atoms and segments of the jump
measure exactly, a log form to one with a node more. Any radial part
transforms through its right tail,

    tail_out(u) = kappa * u**a * integral_u^inf tail(w) w**(-a-1) dw,

which this module evaluates in closed form piece by piece, from the
closed-form segment moments of :mod:`idlaw.spectral`; no quadrature runs
below the exponent-level maps. Only a tabulated tail has no exact image,
and its transformed tail is re-tabulated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import quadrature
from .errors import (
    DimensionMismatchError,
    InvalidMeasureError,
    NotLogIntegrableError,
    QuadratureError,
)
from .exponent import CharExponent, _folded, _MappedNode, from_callable
from .spectral import (
    GridTail,
    RadialMeasure,
    Ray,
    Segment,
    SpectralMeasure,
    _expm1_ratio,
    _ints_from,
    _log_moment,
    _log_ratio,
    _moment,
    segments_by_range,
)
from .triplet import LevyTriplet

# Each map's kernel on u in (0, 1) as a sum of power kernels kappa * u**(a-1),
# listed as (kappa, a) and built from the map's beta
POWER_KERNELS = {
    "jbeta": lambda b: ((b, b),),
    "i": lambda b: ((1.0, 0.0),),
    "ubetaf": lambda b: ((2.0 * b, b), (-2.0 * b, 2.0 * b)),
    "ijbeta": lambda b: ((1.0, 0.0), (-1.0, b)),
}


@dataclass(frozen=True)
class IntegralMap:
    """One of the four integral transforms, with its index when needed."""

    kind: str
    beta: float | None = None

    def __post_init__(self):
        if self.kind not in POWER_KERNELS:
            raise ValueError(
                f"unknown map kind {self.kind!r}; expected one of {tuple(POWER_KERNELS)}"
            )
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
    """Evaluate the transformed exponent on a grid of shape (n, dim).

    Folded like :meth:`CharExponent.eval_grid` (:func:`_folded`): of an
    antisymmetric grid only the upper half is integrated.
    """
    if tol is None:
        tol = quadrature.default_tol()
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or Y.shape[1] != phi.dim:
        raise DimensionMismatchError(
            f"grid shape {Y.shape} does not match dim {phi.dim}"
        )
    beta = m.beta
    if m.kind in ("i", "ijbeta"):
        weight = np.ones_like if m.kind == "i" else (lambda s: -np.expm1(beta * s))
        return _folded(lambda rows: _singular_grid(phi, rows, tol, weight), Y)
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
    return _folded(lambda rows: _kernel_integral(phi, rows, tol, 0.0, 1.0, kern, scale), Y)


# Share of a map's tolerance granted to the inner exponent; the outer
# quadrature keeps the rest, so inner noise cannot drive its refinement.
_INNER_SHARE = 0.25


def _kernel_integral(phi, Y, tol, a, b, kern, scale, mass=1.0, splits=()):
    """Integral over (a, b) of kern(x) * Phi(scale(x) Y) dx on the grid Y.

    Each grid point is one column of the quadrature and refines on its
    own. Inner errors reach the value weighted by the kernel's mass on
    (a, b), so the inner exponent gets its share of ``tol`` divided by
    that mass.
    """
    inner_tol = _INNER_SHARE * tol / mass

    def f(pairs: np.ndarray) -> np.ndarray:
        xs = pairs["x"]
        W = scale(xs)[:, None] * Y.take(pairs["col"], axis=0)
        return kern(xs) * phi.eval_grid(W, inner_tol)

    val, _ = quadrature.integrate(
        f, a, b, tol=(1.0 - _INNER_SHARE) * tol, splits=splits, columns=Y.shape[0]
    )
    return val


# Lower-limit walk in s = log u: probes start at u = 8**-5 and step down by
# a factor 8. The range above the start, where the integrand may still
# oscillate, is cut at every step. exp(s) must stay a normal double, so
# the walk's limits, stepped down by repeated subtraction, end at the floor.
_WALK_STEP = math.log(8.0)
_WALK_CUTS = _WALK_STEP * np.arange(-5, 0)
_WALK_FLOOR = math.log(np.finfo(float).tiny)
_WALK_LIMITS = [float(_WALK_CUTS[0])]
while _WALK_LIMITS[-1] - _WALK_STEP >= _WALK_FLOOR:
    _WALK_LIMITS.append(_WALK_LIMITS[-1] - _WALK_STEP)
# probes in the walk's first batch, and in its largest: as many as the
# final integral's first depth has abscissas (21 on each of 6 panels), so
# a batch never evaluates more rows than that depth does
_WALK_FIRST = 8
_WALK_MOST = (len(_WALK_CUTS) + 1) * 21


def _singular_grid(phi, Y, tol, weight):
    """Maps with an integrable 1/u-type kernel singularity at u = 0.

    Integrates in s = log u, where kern(u) du becomes weight(s) ds with
    0 <= weight <= 1, and the behaviour u**a of the exponent near u = 0
    becomes exp(a s), which a few smooth panels resolve. The lower limit
    walks down in fixed steps, probing the integrand at each new limit.
    The geometric remainder below the limit is extrapolated from the last
    two probes; the walk stops once it is within a quarter of ``tol``, and
    it is added to the value. Probes that stop shrinking while the
    remainder does not shrink either are reported as a missing log
    moment, and a limit past the double range raises QuadratureError. The
    kernel's mass in s is the range length.

    The probes are evaluated in stacked batches, one ``eval_grid`` call
    each, and the rules above are replayed over them in order, so the
    limit, the remainder and the value are those of probing one limit at a
    time. The first batch holds the first ``_WALK_FIRST`` limits; each
    later one reaches the stop predicted from the last measured decay
    rate, or doubles when there is none, up to ``_WALK_MOST`` limits and
    never past the floor. A batch runs at its deepest probe's inner
    tolerance, the tightest of its probes; so wherever the exponent's rows
    do not depend on their batch or on ``tol``, as a leaf's do not, every
    probe has the bytes of its own call. An antisymmetric grid arrives
    folded (:func:`map_exponent_grid`): Y is its upper half.
    """
    n = Y.shape[0]
    done, size = 0, _WALK_FIRST
    prev_norm, prev_rest, strikes, tail = None, math.inf, 0, None
    while tail is None:
        if done == len(_WALK_LIMITS):
            raise QuadratureError(
                "the integrand of the logarithmic map does not decay within "
                f"the double range (|integrand| {prev_norm:.3e} at u = 1e-300)"
            )
        limits = _WALK_LIMITS[done : done + size]
        done += len(limits)
        ss = [np.array([s]) for s in limits]
        stack = np.concatenate([np.exp(x)[0] * Y for x in ss])
        vals = phi.eval_grid(stack, _INNER_SHARE * tol / -limits[-1])
        for k, (s_lo, x) in enumerate(zip(limits, ss)):
            edge = weight(x)[0] * vals[k * n : (k + 1) * n]
            norm = float(np.max(np.abs(edge), initial=0.0))
            if prev_norm is None:
                prev_norm = norm
                continue
            if norm == 0.0:
                tail = edge
                break
            # integrand ~ edge * exp(rate (s - s_lo)) below s_lo
            rate = math.log(prev_norm / norm) / _WALK_STEP if norm < prev_norm else 0.0
            rest = norm / rate if rate > 0.0 else math.inf
            # for an integrable singularity the probes must shrink geometrically;
            # a stalled (or growing) probe whose remainder does not shrink either
            # means the transform diverges
            if norm > 1e-12 and norm > 0.75 * prev_norm and not rest < prev_rest:
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
            if rest <= 0.25 * tol:
                tail = edge / rate
                break
            prev_norm, prev_rest = norm, rest
        else:
            # the remainder shrinks by exp(-rate _WALK_STEP) per step
            if prev_rest < math.inf:
                steps = math.log(prev_rest / (0.25 * tol)) / (rate * _WALK_STEP)
                size = math.ceil(min(steps, _WALK_MOST))
            else:
                size = min(2 * size, _WALK_MOST)
    # the last batch is freed before the final integral runs
    del stack, vals

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

    return from_callable(fn, phi_mu.dim)


# -- closed-form transformed tails --------------------------------------------


def _mass_above(kappa: float, a: float, x) -> np.ndarray:
    """kappa times the integral of t**(a-1) over (x, 1), zero for x >= 1.

    The share of a unit mass at radius r that one power kernel carries
    above u = x r: kappa (1 - x**a)/a, or -kappa log(x) at a = 0.
    """
    x = np.minimum(x, 1.0)
    return -kappa * np.log(x) if a == 0.0 else kappa / a * (1.0 - x ** a)


def _grid_tail_transform(gt: GridTail, a: float, us: np.ndarray) -> np.ndarray:
    """integral_u^inf tail_gt(w) w**(-a-1) dw, vectorized over query radii.

    The tabulated tail is linear on each cell and zero past the last node,
    so every cell integrates in closed form, its two powers w**-a and
    w**(-a-1) by :func:`_ints_from`; suffix sums make the whole batch
    O(cells + queries).
    """
    r = gt.radii
    T = gt.tail
    slope = np.diff(T) / np.diff(r)
    alpha = T[:-1] - slope * r[:-1]
    cell_full = alpha * _ints_from(r[:-1], r[1:], -a) + slope * _ints_from(r[:-1], r[1:], 1.0 - a)
    suffix = np.concatenate([np.cumsum(cell_full[::-1])[::-1], [0.0]])

    us = np.asarray(us, dtype=float)
    out = np.zeros_like(us)
    inside = us < r[-1]
    if np.any(inside):
        ui = np.minimum(np.maximum(us[inside], r[0]), r[-1])
        idx = np.clip(np.searchsorted(r, ui, side="right") - 1, 0, len(r) - 2)
        top = r[idx + 1]
        vals = alpha[idx] * _ints_from(ui, top, -a) + slope[idx] * _ints_from(ui, top, 1.0 - a)
        vals = vals + suffix[idx + 1]
        below = us[inside] < r[0]
        low = np.maximum(us[inside], 1e-300)
        vals = vals + np.where(below, T[0] * _ints_from(low, r[0], -a), 0.0)
        out[inside] = vals
    return out


def _kernel_tail(radial: RadialMeasure, kappa: float, a: float, us) -> np.ndarray:
    """Right tail of the image of a radial measure under one power kernel.

    tail_out(u) = kappa * u**a * integral_u^inf tail(w) w**(-a-1) dw.
    Atoms contribute m times :func:`_mass_above` at u/r, and grid tails
    integrate in closed form cell by cell. For a segment, swapping the
    order of integration turns the integral into (u**-a M_0 - M_(-a))/a,
    with M_k the integral of r**k against it over (L, hi), L = max(u, lo);
    at a = 0 it is W + log(L/u) M_0, with W the integral of log(r/L).
    Power segments and log forms alike take these moments in closed form
    (:func:`_moment`, :func:`_log_moment`).
    """
    us = np.atleast_1d(np.asarray(us, dtype=float))
    if np.any(us <= 0.0):
        raise ValueError("tail queries must be at positive radii")
    out = np.zeros_like(us)
    for at in radial.atoms:
        out += at.m * _mass_above(kappa, a, us / at.r)
    integ = np.zeros_like(us)
    for sg in radial.segments:
        inside = us < sg.hi
        u = us[inside]
        L = np.maximum(u, sg.lo)
        if a == 0.0:
            mass = _moment(sg, L, sg.hi, 0.0)
            integ[inside] += sg.c * (_log_moment(sg, L, sg.hi) + np.log(L / u) * mass)
        else:
            mass, m_a = _moment(sg, L, sg.hi, np.array([[0.0], [-a]]))
            integ[inside] += (sg.c / a) * (u ** -a * mass - m_a)
    if radial.grid_tail is not None:
        integ += _grid_tail_transform(radial.grid_tail, a, us)
    out += kappa * us ** a * integ
    return out


def transformed_tail(radial: RadialMeasure, beta: float, us) -> np.ndarray:
    """Right tail of the jbeta image of a radial measure, evaluated exactly:
    :func:`_kernel_tail` at kappa = a = beta."""
    if not beta > 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    return _kernel_tail(radial, beta, beta, us)


# -- triplet-level transform ---------------------------------------------------


# A segment image whose exponent offset e = p - a + 1 is this close to
# zero is kept in log form: its two power terms, of size 1/|e|, would
# cancel to about eps/|e| of the density.
LOG_FORM_BAND = 1e-2


def _segment_image_terms(sg: Segment, kappa: float, a: float) -> tuple[list, Segment | None]:
    """Image of one segment under one power kernel, as Segments.

    With e = p - a + 1 a power segment's image density is c kappa u**(a-1)
    (hi**e - lo**e)/e on (0, lo) and (c kappa/e)(hi**e u**(a-1) - u**p)
    on (lo, hi); for hi = inf, where e < 0, only the u**p term remains.
    Within ``LOG_FORM_BAND`` of e = 0 the (lo, hi) piece is the log form
    c kappa u**p ((hi/u)**e - 1)/e. A log form gives only its (0, lo) term
    c kappa M_(-a) u**(a-1), M_(-a) its moment of r**-a (see
    :func:`_form_image`). A coefficient past the float range raises
    InvalidMeasureError.
    """
    lo, hi, p = sg.lo, sg.hi, sg.p
    e, cb = p + (1.0 - a), sg.c * kappa
    terms, log_form = [], None
    try:
        if sg.e:
            if lo > 0.0:
                terms.append(Segment(0.0, lo, cb * float(_moment(sg, lo, hi, -a)), a - 1.0))
        elif math.isinf(hi):
            if lo > 0.0:
                terms.append(Segment(0.0, lo, cb * lo ** e / -e, a - 1.0))
            terms.append(Segment(lo, hi, cb / -e, p))
        else:
            if lo > 0.0:
                coef = cb * lo ** e * float(_expm1_ratio(e, _log_ratio(hi, lo)))
                terms.append(Segment(0.0, lo, coef, a - 1.0))
            if abs(e) < LOG_FORM_BAND:
                log_form = Segment(lo, hi, cb, p, e)
            else:
                terms += [Segment(lo, hi, cb * hi ** e / e, a - 1.0), Segment(lo, hi, -cb / e, p)]
        overflow = not all(math.isfinite(t.c) for t in terms)
    except OverflowError:
        overflow = True
    if overflow:
        raise InvalidMeasureError(
            f"the image of {sg} under the power kernel {kappa} u**{a - 1.0} overflows"
        )
    return terms, log_form


def _form_image(sg: Segment, kernel) -> Segment:
    """The (lo, hi) image of a log form under a map's power kernels, one log form.

    A power kernel (kappa, a) maps c r**p D[N], D the divided difference
    over the nodes N (:class:`Segment`), to kappa c u**p D[N, p - a + 1];
    the kernels of ``ubetaf`` and ``ijbeta``, kappa_2 = -kappa_1, to
    kappa_1 (a_2 - a_1) c u**p D[N, p - a_1 + 1, p - a_2 + 1], of c's sign.
    """
    (kappa, a), *rest = kernel
    coef = kappa * sg.c * (rest[0][1] - a if rest else 1.0)
    return Segment(sg.lo, sg.hi, coef, sg.p, sg.e + tuple(sg.p + (1.0 - x) for _, x in kernel))


def _radial_image(radial: RadialMeasure, kernel) -> RadialMeasure:
    """Radial part of the image of one ray's radial measure under a kernel.

    ``kernel`` is a sequence of power kernels (kappa, a). Under each, an
    atom m at r becomes the density m kappa u**(a-1) / r**a on (0, r), a
    power segment power terms or a log form (:func:`_segment_image_terms`),
    and a log form a power term and a log form with a node more
    (:func:`_form_image`). Power terms sharing an exponent are summed on
    each range between breakpoints; the sum is certified nonnegative when
    the measure is validated. Only a grid tail is re-tabulated: its
    transformed tail (:func:`_kernel_tail`) on a log-spaced grid wide
    enough that the discarded pieces are negligible, with 1024 nodes per
    e-fold of its width, at least 4097 and at most 32769.
    """
    terms, log_forms = [], []
    for kappa, a in kernel:
        for at in radial.atoms:
            terms.append(Segment(0.0, at.r, at.m * kappa / at.r ** a, a - 1.0))
        for sg in radial.segments:
            seg_terms, log_form = _segment_image_terms(sg, kappa, a)
            terms += seg_terms
            if log_form is not None:
                log_forms.append(log_form)
    log_forms += [_form_image(sg, kernel) for sg in radial.segments if sg.e]
    new_segments = tuple(
        sg for _, _, covering in segments_by_range(terms) for sg in covering
    ) + tuple(log_forms)
    gt = radial.grid_tail
    if gt is None:
        return RadialMeasure((), new_segments, None)
    rest = RadialMeasure(grid_tail=gt)

    def tail_out(us) -> np.ndarray:
        parts = [_kernel_tail(rest, kappa, a, us) for kappa, a in kernel]
        return sum(parts[1:], parts[0])

    r_first, r_top = float(gt.radii[0]), float(gt.radii[-1])
    r_floor = r_first * 1e-2
    while r_floor * r_floor * float(tail_out(r_floor)[0]) > 1e-10 and r_floor > 1e-18:
        r_floor /= 8.0

    n_nodes = int(min(32769, max(4097, 1024.0 * math.log(r_top / r_floor))))
    us = np.union1d(np.geomspace(r_floor, r_top, n_nodes), [r_first, 1.0])
    us = us[(us >= r_floor) & (us <= r_top)]
    tails = np.minimum.accumulate(np.maximum(tail_out(us), 0.0))
    return RadialMeasure((), new_segments, GridTail(us, tails))


def map_triplet(m: IntegralMap, trip: LevyTriplet) -> LevyTriplet:
    """Generating triplet of the image under ``m`` of a law given by its triplet.

    Each power kernel (kappa, a) of the map adds kappa/(a+1) times (shift
    + mean of x/|x| |x|**-a beyond the unit ball) to the shift and
    kappa/(a+2) times the covariance; the jump measure transforms ray by
    ray (:func:`_radial_image`).
    """
    trip.require_valid()
    kernel = POWER_KERNELS[m.kind](m.beta)
    shifts, covs = [], []
    for kappa, a in kernel:
        correction = np.zeros(trip.dim)
        for ray_ in trip.levy.rays:
            w = ray_.radial.power_moment_above1(-a)
            correction = correction + w * ray_.direction
        shifts.append((kappa / (a + 1.0)) * (trip.shift + correction))
        covs.append((kappa / (a + 2.0)) * trip.cov)
    levy = SpectralMeasure(trip.dim, tuple(
        Ray(r.direction, _radial_image(r.radial, kernel)) for r in trip.levy.rays
    ))
    # summed onto the first term: a start of 0 would turn a -0.0 into 0.0
    return LevyTriplet(trip.dim, sum(shifts[1:], shifts[0]), sum(covs[1:], covs[0]), levy)


def jbeta_triplet(trip: LevyTriplet, beta: float) -> LevyTriplet:
    """The jbeta image of a triplet, :func:`map_triplet` at ``jbeta_map(beta)``."""
    return map_triplet(jbeta_map(beta), trip)
