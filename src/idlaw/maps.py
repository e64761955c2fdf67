"""Random-integral transforms acting on characteristic exponents and triplets.

Four maps are provided, all defined through upsilon-type kernels on the
exponent scale:

* ``jbeta``:  integral over t in (0,1) of Phi(t**(1/beta) y) dt
* ``i``:      integral over u in (0,1) of Phi(u y) / u du
* ``ubetaf``: integral over t in (0,1) of Phi((1 - sqrt(t))**(1/beta) y) dt
* ``ijbeta``: integral over u in (0,1) of Phi(u y) (u**-1 - u**(beta-1)) du,
  the composition of ``i`` after ``jbeta``, also realized by integrating
  against a deterministic time change with rate 1 - exp(-beta s).

In u, each kernel is a short sum of power kernels kappa * u**(a-1) du
(:data:`POWER_KERNELS`), and both routes read that one table. On exponents
it picks each integral's variable, weight, scale and rough end
(:func:`_substitution`). On generating triplets (:func:`map_triplet`) each
power kernel scales shift and covariance by kappa/(a+1) and kappa/(a+2)
and maps atoms and segments of the jump measure exactly, a log form to one
with a node more, a tabulated tail as its cells, p = 0 segments, and its
end atom. Any radial part transforms through its right tail,

    tail_out(u) = kappa * u**a * integral_u^inf tail(w) w**(-a-1) dw,

which for ``jbeta`` is tail(u) - u**beta M(u), M the moment of r**-beta
above u (:func:`transformed_tail`); every moment is in closed form
(:meth:`idlaw.spectral.RadialMeasure.moment`), so no quadrature runs
below the exponent-level maps.
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
    positive_finite,
)
from .exponent import CharExponent, _folded, from_callable
from .spectral import (
    RadialMeasure,
    Ray,
    Segment,
    SpectralMeasure,
    _ints_from,
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
            positive_finite(self.beta)


def jbeta_map(beta: float) -> IntegralMap:
    return IntegralMap("jbeta", float(beta))


def i_map() -> IntegralMap:
    return IntegralMap("i")


def ubetaf_map(beta: float) -> IntegralMap:
    return IntegralMap("ubetaf", float(beta))


def i_jbeta_map(beta: float) -> IntegralMap:
    return IntegralMap("ijbeta", float(beta))


# -- deterministic inner clock ------------------------------------------------


def inner_clock(beta: float, s) -> np.ndarray:
    """sigma(s) = s + (exp(-beta s) - 1)/beta = s - sigma'(s)/beta for s >= 0."""
    return np.asarray(s, dtype=float) - inner_clock_rate(beta, s) / beta


def inner_clock_rate(beta: float, s) -> np.ndarray:
    """sigma'(s) = 1 - exp(-beta s), the thinning rate of the time change."""
    positive_finite(beta)
    s = np.asarray(s, dtype=float)
    if np.any(s < 0.0):
        raise ValueError("clock argument must be nonnegative")
    return -np.expm1(-beta * s)


# -- exponent-level maps -------------------------------------------------------


def map_exponent_grid(
    m: IntegralMap, phi: CharExponent, Y: np.ndarray, tol: float | None = None
) -> np.ndarray:
    """Evaluate the transformed exponent on a grid of shape (n, dim).

    The integral is the one :func:`_substitution` reads from the map's power
    kernels, folded like :meth:`CharExponent.eval_grid` (:func:`_folded`):
    of an antisymmetric grid only the upper half is integrated.
    """
    if tol is None:
        tol = quadrature.default_tol()
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or Y.shape[1] != phi.dim:
        raise DimensionMismatchError(
            f"grid shape {Y.shape} does not match dim {phi.dim}"
        )
    weight, scale, rough = _substitution(POWER_KERNELS[m.kind](m.beta), phi.heavy_tailed)
    if scale is np.exp:
        return _folded(lambda rows: _singular_grid(phi, rows, tol, weight), Y)
    return _folded(
        lambda rows: _kernel_integral(phi, rows, tol, 0.0, 1.0, weight, scale, rough=rough), Y
    )


# Kernels whose lowest power a0 is below this walk in s = log u: on 41 points at
# tol 1e-9 (cp, gaussian, panel laws 0-3) the walk took 7.5-11 ms a map at beta
# 1e-8 to 0.5, x = u**beta 7.0-7.6 ms at 0.2-0.5, 10-11 at 0.1 and 13-18 below
WALK_BELOW = 0.1


def _substitution(kernel, heavy_tailed: bool):
    """(weight, scale, rough) of a map's integral, from its power kernels.

    ``kernel`` is one or two power kernels (kappa, a), the lowest a0 first
    (:data:`POWER_KERNELS`); r = kappa_1/kappa_0 and d = a_1 - a0, both 0
    for one. Below a0 = :data:`WALK_BELOW` the variable is s = log u,
    walked by :func:`_singular_grid`, with the scale exp and the weight
    kappa_0 exp(a0 s) ((1 + r) + r expm1(d s)), which loses no digits
    where two terms cancel at s = 0. Otherwise it is x = u**q on (0, 1),
    q = min(a0, 1), the scale x**(1/q) (None at q = 1) and the bounded
    weight c0 x**e0 (1 + r x**(d/q)), c0 = kappa_0/q, e0 = a0/q - 1;
    ``rough`` marks x = 0 when the law is heavy-tailed (Phi ~ |w|**(-p-1)
    at 0) or an exponent of the weight or the scale is not an integer.
    """
    (k0, a0), *second = kernel
    r, d = (second[0][0] / k0, second[0][1] - a0) if second else (0.0, 0.0)
    if a0 < WALK_BELOW:
        c0, e0, scale, rough = k0, a0, np.exp, False
        lead, rest = (lambda s: np.exp(e0 * s)), (lambda s: (1.0 + r) + r * np.expm1(d * s))
    else:
        q = min(a0, 1.0)
        c0, e0, d = k0 / q, a0 / q - 1.0, d / q
        scale = None if q == 1.0 else (lambda x: x ** (1.0 / q))
        rough = heavy_tailed or not all(float(e).is_integer() for e in (e0, d, 1.0 / q))
        lead, rest = (lambda x: x ** e0), (lambda x: 1.0 + r * x ** d)

    def weight(x):
        # c0 lead(x) rest(x), skipping factors identically 1; None if all are
        w = c0 * lead(x) if e0 or not r else c0
        return w * rest(x) if r else w

    return None if (c0, e0, r) == (1.0, 0.0, 0.0) else weight, scale, rough


# Share of a map's tolerance granted to the inner exponent; the outer
# quadrature keeps the rest, so inner noise cannot drive its refinement.
_INNER_SHARE = 0.25


def _kernel_integral(phi, Y, tol, a, b, kern, scale, mass=1.0, splits=(), rough=False):
    """Integral over (a, b) of kern(x) * Phi(scale(x) Y) dx on the grid Y.

    Each grid point is one column of the quadrature and refines on its
    own. Inner errors reach the value weighted by the kernel's mass on
    (a, b), so the inner exponent gets its share of ``tol`` divided by
    that mass. The quadrature applies the kernel, as its weight, and the
    scale, once per depth, and grades its panels toward the lower limit
    when ``rough`` is set (:func:`quadrature.integrate`); a kernel of None
    is identically 1.
    """
    inner_tol = _INNER_SHARE * tol / mass

    def f(pairs: np.ndarray) -> np.ndarray:
        return phi.eval_grid(pairs["x"][:, None] * Y.take(pairs["col"], axis=0), inner_tol)

    val, _ = quadrature.integrate(
        f, a, b, tol=(1.0 - _INNER_SHARE) * tol, splits=splits, columns=Y.shape[0],
        weight=kern, scale=scale, rough=rough,
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
    """Maps whose kernel's lowest power a0 is below :data:`WALK_BELOW`.

    Integrates in s = log u, where kern(u) du becomes weight(s) ds
    (:func:`_substitution`) and the behaviour u**a of the exponent near
    u = 0 becomes exp(a s), which a few smooth panels resolve. Every walked
    kernel of :data:`POWER_KERNELS` has 0 <= weight(s) <= 1 for s <= 0, so
    its mass in s is at most the range length, and a probe bounds the
    integrand below its limit. The lower limit walks down in fixed steps,
    probing the integrand at each new limit; the geometric remainder below
    it, extrapolated from the last two probes, is added to the value once
    it is within a quarter of ``tol``. Probes that stop shrinking while the
    remainder does not shrink either are reported as a missing log moment,
    and a limit past the double range raises QuadratureError.

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
        ss = np.array(limits)
        stack = (np.exp(ss)[:, None, None] * Y).reshape(-1, Y.shape[1])
        vals = phi.eval_grid(stack, _INNER_SHARE * tol / -limits[-1]).reshape(ss.size, n)
        if weight is not None:
            vals = weight(ss)[:, None] * vals
        norms = np.abs(vals).max(axis=1, initial=0.0)
        for k, s_lo in enumerate(limits):
            edge, norm = vals[k], float(norms[k])
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
    positive_finite(beta)
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


def transformed_tail(radial: RadialMeasure, beta: float, us) -> np.ndarray:
    """Right tail of the jbeta image of a radial measure, evaluated exactly.

    By Fubini beta u**beta times the integral of tail(w) w**(-beta-1) over
    (u, inf) is T(u) - M(u), T the measure of (u, inf) and M its moment of
    (r/u)**-beta, one :meth:`RadialMeasure.moment` call: bounded at any r.
    """
    positive_finite(beta)
    us = np.atleast_1d(np.asarray(us, dtype=float))
    if np.any(us <= 0.0):
        raise ValueError("tail queries must be at positive radii")
    tail, above = radial.moment(np.array([[0.0], [-beta]]), us)
    return tail - above


# -- triplet-level transform ---------------------------------------------------


# A segment image whose exponent offset e = p - a + 1 is this close to
# zero is kept in log form: its two power terms, of size 1/|e|, would
# cancel to about eps/|e| of the density, and an image of them to about
# eps/e**2 (1.9e-12 at e = -0.014; at most 8.9e-14 past this band).
LOG_FORM_BAND = 5e-2


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
                end, ratio = _ints_from(lo, hi, e)  # cb (hi**e - lo**e)/e
                terms.append(Segment(0.0, lo, cb * float(end) ** e * float(ratio), a - 1.0))
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
    (:func:`_form_image`). A grid tail maps as its end atom and its cells
    (:attr:`RadialMeasure.parts`). Power terms sharing an exponent are
    summed on each range between breakpoints; the sum is certified
    nonnegative when the measure is validated.
    """
    atoms, segments = radial.parts
    terms, log_forms = [], []
    for kappa, a in kernel:
        for at in atoms:
            terms.append(Segment(0.0, at.r, at.m * kappa / at.r ** a, a - 1.0))
        for sg in segments:
            seg_terms, log_form = _segment_image_terms(sg, kappa, a)
            terms += seg_terms
            if log_form is not None:
                log_forms.append(log_form)
    log_forms += [_form_image(sg, kernel) for sg in segments if sg.e]
    return RadialMeasure((), tuple(
        sg for _, _, covering in segments_by_range(terms) for sg in covering
    ) + tuple(log_forms))


def map_triplet(m: IntegralMap, trip: LevyTriplet) -> LevyTriplet:
    """Generating triplet of the image under ``m`` of a law given by its triplet.

    Each power kernel (kappa, a) of the map adds kappa/(a+1) times (shift
    + mean of x/|x| |x|**-a beyond the unit ball) to the shift and
    kappa/(a+2) times the covariance; the jump measure transforms ray by
    ray (:func:`_radial_image`).
    """
    trip.require_valid()
    kernel = POWER_KERNELS[m.kind](m.beta)
    # one row per power kernel: the mean of x/|x| |x|**-a beyond the unit ball
    ks = np.array([-a for _, a in kernel])
    correction = np.zeros((len(kernel), trip.dim))
    for ray_ in trip.levy.rays:
        correction = correction + ray_.radial.moment(ks, 1.0)[:, None] * ray_.direction
    shifts = [(kappa / (a + 1.0)) * (trip.shift + c) for (kappa, a), c in zip(kernel, correction)]
    covs = [(kappa / (a + 2.0)) * trip.cov for kappa, a in kernel]
    levy = SpectralMeasure(trip.dim, tuple(
        Ray(r.direction, _radial_image(r.radial, kernel)) for r in trip.levy.rays
    ))
    # summed onto the first term: a start of 0 would turn a -0.0 into 0.0
    return LevyTriplet(trip.dim, sum(shifts[1:], shifts[0]), sum(covs[1:], covs[0]), levy)


def jbeta_triplet(trip: LevyTriplet, beta: float) -> LevyTriplet:
    """The jbeta image of a triplet, :func:`map_triplet` at ``jbeta_map(beta)``."""
    return map_triplet(jbeta_map(beta), trip)
