"""Adaptive Gauss–Kronrod quadrature for complex, vector-valued integrands.

The integrators in this package evaluate characteristic exponents on whole
grids of arguments at once, so the integrand maps abscissas to complex
vectors and the refinement decision uses the max norm across components.
Each panel is integrated with the 21-point Kronrod rule; the 10-point
Gauss rule embedded in it gives the panel's error estimate |K21 - G10|.
Refinement is breadth first: the 21 abscissas of every active panel at a
given depth go into one integrand call. Nested transforms stay affordable
because an outer integration hands its inner integration one large stacked
batch per level instead of one call per node.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import QuadratureError

DEFAULT_TOL = 1e-10
DEFAULT_MAX_DEPTH = 40

# QUADPACK qk21 (Piessens et al., QUADPACK, 1983): the positive Kronrod
# abscissas on [-1, 1] in decreasing order down to the centre, their
# weights, and the 10-point Gauss weights of the abscissas XGK[1::2].
_XGK = np.array([
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077600525634696,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.array([
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])

# the same rules on all 21 abscissas, ordered from -1 to 1
_NODES = np.concatenate([-_XGK, _XGK[-2::-1]])
_KRONROD_WEIGHTS = np.concatenate([_WGK, _WGK[-2::-1]])
_GAUSS_WEIGHTS = np.zeros(21)
_GAUSS_WEIGHTS[1::2] = np.concatenate([_WG, _WG[::-1]])
# rows give K21 and K21 - G10 in one product with the panel values
_RULES = np.stack([_KRONROD_WEIGHTS, _KRONROD_WEIGHTS - _GAUSS_WEIGHTS])
# |K21 - G10| below this multiple of the panel's absolute integral is
# rounding noise, and further bisection cannot reduce it
_ROUNDOFF = 50.0 * np.finfo(float).eps


def default_tol() -> float:
    """The tolerance of every quadrature given none."""
    return DEFAULT_TOL


def integrate(
    f: Callable,
    a: float,
    b: float,
    tol: float | None = None,
    max_depth: int = DEFAULT_MAX_DEPTH,
    splits: Sequence[float] = (),
) -> tuple[np.ndarray, float]:
    """Integrate ``f`` over [a, b] with adaptive G10K21 panels.

    Parameters
    ----------
    f : callable
        Batched integrand: maps a float array of abscissas, shape (m,), to
        values of shape (m,) or (m, n); rows must be independent. The
        output shape per abscissa must be constant over the interval.
    a, b : float
        Integration limits, ``a <= b``. ``f`` is only evaluated strictly
        inside each panel, so an integrable singularity at a limit is
        allowed.
    tol : float, optional
        Absolute max-norm tolerance for the whole interval. Defaults to
        :func:`default_tol`. A panel is accepted once its |K21 - G10| is
        within its width share of the part of ``tol`` that the panels
        accepted at earlier depths left unspent.
    max_depth : int
        Maximum number of interval halvings before a panel is abandoned.
    splits : sequence of float, optional
        Interior break points (e.g. kinks of the integrand). The interval
        is cut there before refinement starts.

    Returns
    -------
    (value, error_estimate)
        ``value`` has the integrand's per-abscissa shape: a scalar when
        ``f`` returns shape (m,). ``error_estimate`` is the sum of the
        panels' max-norm |K21 - G10|, at most ``tol`` unless a panel hit
        rounding level.

    Raises
    ------
    QuadratureError
        If some panel hits ``max_depth`` and the error estimate is above
        ``tol``. The exception carries the best value and the estimate.
    """
    if tol is None:
        tol = default_tol()
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"limits must be finite, got [{a}, {b}]")
    if b < a:
        raise ValueError(f"reversed limits: [{a}, {b}]")

    shapes = set()

    def fv(xs: np.ndarray) -> np.ndarray:
        out = np.asarray(f(xs), dtype=complex)
        shapes.add(out.shape[1:])
        if out.ndim not in (1, 2) or out.shape[0] != len(xs) or len(shapes) > 1:
            raise ValueError(
                f"integrand returned shape {out.shape} for {len(xs)} abscissas "
                f"(per-abscissa shapes so far: {sorted(shapes)})"
            )
        return out.reshape(len(xs), -1)

    if a == b:
        zero = np.zeros_like(fv(np.array([a]))[0])
        return (zero[0] if shapes == {()} else zero), 0.0

    points = [a]
    for s in sorted(float(s) for s in splits):
        if a < s < b and s != points[-1]:
            points.append(s)
    points.append(b)
    xl = np.asarray(points[:-1], dtype=float)
    xr = np.asarray(points[1:], dtype=float)

    total = 0.0
    err_total = 0.0
    unconverged = False
    depth = 0
    while xl.size:
        k = xl.size
        mid = 0.5 * (xl + xr)
        half = 0.5 * (xr - xl)
        vals = fv((mid[:, None] + half[:, None] * _NODES).ravel()).reshape(k, 21, -1)
        rules = _RULES @ vals
        value = half[:, None] * rules[:, 0]
        err = half * np.abs(rules[:, 1]).max(axis=1)
        share = 2.0 * half * (max(tol - err_total, 0.0) / (xr - xl).sum())
        noise = _ROUNDOFF * half * (_KRONROD_WEIGHTS @ np.abs(vals)).max(axis=1)
        done = (err <= np.maximum(share, noise)) | (mid <= xl) | (mid >= xr)
        if depth >= max_depth and not done.all():
            unconverged = True
            done[:] = True
        total = total + value[done].sum(axis=0)
        err_total += float(err[done].sum())
        keep = ~done
        xl, xr = np.concatenate([xl[keep], mid[keep]]), np.concatenate([mid[keep], xr[keep]])
        depth += 1

    value = total[0] if shapes == {()} else total
    if unconverged and err_total > tol:
        raise QuadratureError(
            f"Gauss-Kronrod quadrature did not converge on [{a}, {b}]: "
            f"error estimate {err_total:.3e} > tol {tol:.3e} with panels "
            f"left at max depth {max_depth}",
            value=value,
            error_estimate=err_total,
        )
    return value, err_total
