"""Adaptive Gauss–Kronrod quadrature for families of complex integrands.

The integrators in this package evaluate characteristic exponents on whole
grids of arguments at once: one integral per grid point, called a column.
Each panel is integrated with the 21-point Kronrod rule; the 10-point
Gauss rule embedded in it gives the panel's error estimate |K21 - G10|.
The adaptive unit is a (panel, column) pair, accepted on its own estimate
against its own column's budget, so a column stops refining once it has
converged, whatever the other columns still need. Refinement is breadth
first: the 21 abscissas of the active units at a given depth go to the
integrand as (abscissa, column) pairs, in chunks of at most
:data:`CHUNK_PAIRS` pairs. Nested transforms stay affordable because an
outer integration hands its inner integration stacked batches, one call
per chunk instead of one per node, and bounded because no chunk at any
level exceeds that size.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import QuadratureError

DEFAULT_TOL = 1e-10
# interval halvings before a unit is abandoned
MAX_DEPTH = 40
# (abscissa, column) pairs one depth may evaluate, 26x the largest depth
# the test suite and the benchmark workloads reach (316,428); past it
# refinement stops. It caps the work of a depth; its integrand calls hold
# at most CHUNK_PAIRS pairs each whatever the depth's size
MAX_PAIRS = 1 << 23
# (abscissa, column) pairs handed to the integrand in one call at most: a
# depth runs in balanced chunks of whole units, and only per-unit arrays
# outlive a chunk, so a nested integrand's temporaries reuse freed pages.
# At 2**14 the identity-nested workload's prop2 still faulted in fresh
# pages (154 minor faults per check), at 12,288 and 2**13 it did not;
# 12,288 leaves that workload's other depths (at most 9,261 pairs) whole
CHUNK_PAIRS = 12_288

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
# columns give K21 and K21 - G10 in one product with the unit values
_RULES = np.stack([_KRONROD_WEIGHTS, _KRONROD_WEIGHTS - _GAUSS_WEIGHTS], axis=1)
# |K21 - G10| below this multiple of the panel's absolute integral is
# rounding noise, and further bisection cannot reduce it
_ROUNDOFF = 50.0 * np.finfo(float).eps


def default_tol() -> float:
    """The tolerance of every quadrature given none."""
    return DEFAULT_TOL


# one integrand argument: an abscissa and the column it is evaluated for
PAIR = np.dtype([("x", float), ("col", np.intp)])


def integrate(
    f: Callable,
    a: float,
    b: float,
    tol: float | None = None,
    splits: Sequence[float] = (),
    columns: int = 1,
) -> tuple[np.ndarray, float]:
    """Integrate each of ``columns`` integrands over [a, b] with adaptive G10K21.

    Parameters
    ----------
    f : callable
        Batched integrand: maps a 1-d array of dtype :data:`PAIR`, whose
        fields ``x`` and ``col`` hold abscissas and column indices, to one
        complex value per pair, shape (m,). Pairs must be independent. A
        depth's units go to ``f`` in unit order, in balanced chunks of at
        most :data:`CHUNK_PAIRS` pairs (one unit when that is below 21),
        so memory stays bounded however many units are active.
    a, b : float
        Integration limits, ``a <= b``. ``f`` is only evaluated strictly
        inside each panel, so an integrable singularity at a limit is
        allowed.
    tol : float, optional
        Absolute tolerance of every column. Defaults to
        :func:`default_tol`. A (panel, column) unit is accepted once its
        |K21 - G10| is within its width share of the part of ``tol`` that
        its column's units accepted at earlier depths left unspent.
    splits : sequence of float, optional
        Interior break points (e.g. kinks of the integrand). The interval
        is cut there before refinement starts.
    columns : int
        Number of integrands, indexed 0 .. columns - 1 by ``col``.

    Returns
    -------
    (values, error_estimate)
        ``values`` has shape (columns,). ``error_estimate`` is the largest
        column sum of the accepted units' |K21 - G10|, at most ``tol``
        unless a unit hit rounding level (50 eps of its absolute integral).
        A column's value and its pairs do not depend on the other columns,
        nor on how a depth is chunked, as long as each pair's integrand
        value does not depend on the batch it rides in. Every leaf keeps
        that: closed forms, and triplets with any mix of atoms, power
        segments, log forms and grid tails; so do the ``jbeta`` and
        ``ubetaf`` maps over them. The walked maps (``i``, ``ijbeta``) do
        not: their walk stops on the largest row of a batch, so one nested
        inside another map's integrand may move with the chunking, within
        the tolerance.

    Raises
    ------
    QuadratureError
        If units of some column hit :data:`MAX_DEPTH` and that column's error
        estimate is above ``tol``, or if the active units of a depth would
        evaluate more than :data:`MAX_PAIRS` pairs. The exception
        carries the best values and the worst column's estimate; with the
        pair cap, the units still active count at their last estimate.
    """
    if tol is None:
        tol = default_tol()
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"limits must be finite, got [{a}, {b}]")
    if b < a:
        raise ValueError(f"reversed limits: [{a}, {b}]")

    points = [a]
    for s in sorted(float(s) for s in splits):
        if a < s < b and s != points[-1]:
            points.append(s)
    points.append(b)
    # units are (panel, column) pairs; a column's own units keep one order
    # whatever the other columns do, so its sums round the same way
    edges = np.array(points if a < b else [a])
    xl, xr = np.repeat(edges[:-1], columns), np.repeat(edges[1:], columns)
    col = np.tile(np.arange(columns), edges.size - 1)

    total = np.zeros((2, columns))
    spent = np.zeros(columns)
    stuck = np.zeros(columns, dtype=bool)
    depth = 0
    # the previous depth's units: (column, half width, rules, estimate, rejected)
    last = None
    while xl.size:
        k = xl.size
        if 21 * k > MAX_PAIRS:
            raise _over_pair_cap(a, b, tol, 21 * k, total, spent, last)
        span = xr - xl
        mid, half = 0.5 * (xl + xr), 0.5 * span
        width = np.bincount(col, weights=span, minlength=columns)
        # acceptance reads the budget left at the start of the depth
        share = span * (np.maximum(tol - spent, 0.0)[col] / width[col])
        most = max(CHUNK_PAIRS // 21, 1)
        if k <= most:
            rules, err, done = _evaluate_units(f, xl, xr, mid, half, col, share)
        else:
            # balanced chunks of whole units in unit order; only per-unit
            # arrays outlive a chunk
            chunks = -(-k // most)
            cuts = [k * c // chunks for c in range(chunks + 1)]
            parts = [
                _evaluate_units(f, *(v[i:j] for v in (xl, xr, mid, half, col, share)))
                for i, j in zip(cuts[:-1], cuts[1:])
            ]
            rules, err, done = map(np.concatenate, zip(*parts))
        if depth >= MAX_DEPTH and not done.all():
            stuck[col[~done]] = True
            done[:] = True
        value = np.where(done[:, None], half[:, None] * rules[:, :, 0], 0.0)
        total[0] += np.bincount(col, weights=value[:, 0], minlength=columns)
        total[1] += np.bincount(col, weights=value[:, 1], minlength=columns)
        spent += np.bincount(col, weights=np.where(done, err, 0.0), minlength=columns)
        keep = ~done
        last = (col, half, rules, err, keep)
        cut, col = mid[keep], col[keep]
        xl, xr = np.concatenate([xl[keep], cut]), np.concatenate([cut, xr[keep]])
        col = np.concatenate([col, col])
        depth += 1

    values = np.empty(columns, dtype=complex)
    values.real, values.imag = total
    worst = float(spent.max(initial=0.0))
    if np.any(stuck & (spent > tol)):
        raise QuadratureError(
            f"Gauss-Kronrod quadrature did not converge on [{a}, {b}]: "
            f"worst column error estimate {worst:.3e} > tol {tol:.3e} with "
            f"units left at max depth {MAX_DEPTH}",
            value=values,
            error_estimate=worst,
        )
    return values, worst


def _evaluate_units(f, xl, xr, mid, half, col, share):
    """Evaluate units of one depth in one integrand call.

    Returns each unit's (real, imaginary) x (K21, K21 - G10) sums, its
    |K21 - G10| and whether it is accepted against its ``share`` of the
    budget.
    """
    k = xl.size
    pairs = np.empty((k, 21), dtype=PAIR)
    # (nodes, units) order runs the arithmetic along long rows
    pairs["x"] = (_NODES[:, None] * half + mid).T
    pairs["col"] = col[:, None]
    vals = np.ascontiguousarray(f(pairs.reshape(-1)), dtype=complex)
    if vals.shape != (21 * k,):
        raise ValueError(f"integrand returned shape {vals.shape} for {21 * k} pairs")
    vals = vals.reshape(k, 21)
    # one small product per unit, so a unit rounds the same in any batch
    # (one BLAS product over all units would not)
    rules = vals.view(float).reshape(k, 21, 2).transpose(0, 2, 1) @ _RULES
    err = half * np.hypot(rules[:, 0, 1], rules[:, 1, 1])
    done = err <= share
    if not done.all():
        # units over their share may still be at rounding level, or too
        # narrow to bisect
        noise = _ROUNDOFF * half * np.einsum("kj,j->k", abs(vals), _KRONROD_WEIGHTS)
        done |= (err <= noise) | (mid <= xl) | (mid >= xr)
    return rules, err, done


def _over_pair_cap(a, b, tol, n_pairs, total, spent, last) -> QuadratureError:
    """The error raised for a depth over :data:`MAX_PAIRS`.

    Its values are the accepted units' plus the last K21 value of each unit
    still active, and its estimate adds theirs; before any depth ran, the
    values are 0 and the estimate is inf.
    """
    columns = spent.size
    best, err = total.copy(), spent.copy()
    if last is None:
        err[:] = math.inf
    else:
        col, half, rules, unit_err, keep = last
        col = col[keep]
        best[0] += np.bincount(col, weights=half[keep] * rules[keep, 0, 0], minlength=columns)
        best[1] += np.bincount(col, weights=half[keep] * rules[keep, 1, 0], minlength=columns)
        err += np.bincount(col, weights=unit_err[keep], minlength=columns)
    values = np.empty(columns, dtype=complex)
    values.real, values.imag = best
    worst = float(err.max(initial=0.0))
    return QuadratureError(
        f"Gauss-Kronrod quadrature on [{a}, {b}] stopped: the next depth would "
        f"evaluate {n_pairs} pairs, over MAX_PAIRS = {MAX_PAIRS}; worst column "
        f"error estimate {worst:.3e} against tol {tol:.3e}",
        value=values,
        error_estimate=worst,
    )
