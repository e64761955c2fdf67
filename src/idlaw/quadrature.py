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

A depth is a list of panels and a list of units, each a panel index and
a column. The first depth holds every (panel, column) pair, panel by
panel; each later one holds the left pieces of the rejected units' panels,
in their order, then the right pieces. A rejected panel is cut at its
midpoint; an integrand with an algebraic singularity at a limit is best
given to it in a variable that flattens the singularity (as the maps do,
:func:`idlaw.maps._substitution`). What depends on a panel alone is
computed once per depth on its panels' abscissas, whatever the chunks:
the abscissas themselves and, for an integral of w(x) f(s(x)) dx such as
a map's, the weight w and the substitution s (:func:`integrate`). What
depends on a column is computed once per unit.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import QuadratureError

DEFAULT_TOL = 1e-10
# cuts of a unit's panel before the unit is abandoned
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
# rounding noise, and further cuts cannot reduce it
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
    weight: Callable | None = None,
    scale: Callable | None = None,
) -> tuple[np.ndarray, float]:
    """Integrate each of ``columns`` integrands over [a, b] with adaptive G10K21.

    Column j's integral is that of w(x) f(s(x), j) dx, with the weight w
    given by ``weight`` and the substitution s by ``scale``.

    Parameters
    ----------
    f : callable
        Batched integrand: maps a 1-d array of dtype :data:`PAIR`, whose
        fields ``x`` and ``col`` hold s(x) at the abscissas and column
        indices, to one complex value per pair, shape (m,). Pairs must be
        independent. A depth's units go to ``f`` in unit order, in
        balanced chunks of at most :data:`CHUNK_PAIRS` pairs (one unit
        when that is below 21), so memory stays bounded however many
        units are active.
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
    weight, scale : callable, optional
        Elementwise functions of the abscissas, w and s; None means 1 and
        the identity. Each is evaluated once per depth, on that depth's
        (panels, 21) abscissas, however many units and chunks the depth
        holds. ``f`` receives s(x) in ``x``, and its values are multiplied
        by w(x) before the rules are applied, so the estimates and the
        rounding-level test read w(x) f(s(x)).

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
        segments, log forms and grid-tail cells; so do the maps integrated
        on (0, 1) over them. The walked maps (``maps.WALK_BELOW``) do not:
        their walk stops on the largest row of a batch, so one nested in
        another map's integrand may move with the chunking, within tol.

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
    # a depth's units are (panel, column) pairs, and a column's own units
    # keep one order whatever the other columns do, so its sums round the
    # same way
    edges = np.array(points if a < b else [a])
    left, right = edges[:-1], edges[1:]
    panel, col = np.divmod(np.arange(left.size * columns), columns)

    # each column's value, as (real, imaginary), and its spent estimate
    total = np.zeros((columns, 2))
    spent = np.zeros(columns)
    stuck = None
    most = max(CHUNK_PAIRS // 21, 1)
    depth = 0
    # the previous depth's units: (column, half width, rules, estimate, rejected)
    last = None
    while col.size:
        k = col.size
        if 21 * k > MAX_PAIRS:
            raise _over_pair_cap(a, b, tol, 21 * k, total, spent, last)
        span = right - left
        mid, half = 0.5 * (left + right), 0.5 * span
        # each panel's abscissas, weights and substituted abscissas, once per
        # panel however many units and chunks it holds
        nodes = half[:, None] * _NODES + mid[:, None]
        w = None if weight is None else weight(nodes)
        if scale is not None:
            nodes = scale(nodes)
        # panels too narrow to cut, whose units are accepted over their share
        narrow = (mid <= left) | (mid >= right)
        span, half = span[panel], half[panel]
        width = np.bincount(col, weights=span, minlength=columns)
        # acceptance reads the budget left at the start of the depth
        share = span * (np.maximum(tol - spent, 0.0)[col] / width[col])
        if k <= most:
            rules, err, over = _evaluate_units(f, nodes, w, narrow, panel, col, half, share)
        else:
            # balanced chunks of whole units in unit order; only per-unit
            # arrays outlive a chunk
            chunks = -(-k // most)
            cuts = [k * c // chunks for c in range(chunks + 1)]
            parts = [
                _evaluate_units(f, nodes, w, narrow, *(v[i:j] for v in (panel, col, half, share)))
                for i, j in zip(cuts[:-1], cuts[1:])
            ]
            rules, err, over = zip(*parts)
            rules, err = np.concatenate(rules), np.concatenate(err)
            over = np.concatenate([u + i for u, i in zip(over, cuts)])
        if depth >= MAX_DEPTH and over.size:
            stuck = np.zeros(columns, dtype=bool)
            stuck[col[over]] = True
            over = over[:0]
        if not over.size:
            _accumulate(total, spent, col, half, rules, err)
            break
        done = np.ones(k, dtype=bool)
        done[over] = False
        _accumulate(total, spent, col, half, rules, err, done)
        last = (col, half, rules, err, ~done)
        # the panels of rejected units are cut, left pieces first: the units
        # keep their order, and the units of each piece stay adjacent
        panel, col = panel[over], col[over]
        # panels left without units are dropped
        kept = np.zeros(left.size, dtype=bool)
        kept[panel] = True
        panel = (np.add.accumulate(kept, dtype=np.intp) - 1)[panel]
        left, mid, right = left[kept], mid[kept], right[kept]
        left, right = np.concatenate((left, mid)), np.concatenate((mid, right))
        panel = np.concatenate((panel, panel + mid.size))
        col = np.concatenate((col, col))
        depth += 1

    values = total.view(complex)[:, 0]
    worst = float(spent.max(initial=0.0))
    if stuck is not None and np.any(stuck & (spent > tol)):
        raise QuadratureError(
            f"Gauss-Kronrod quadrature did not converge on [{a}, {b}]: "
            f"worst column error estimate {worst:.3e} > tol {tol:.3e} with "
            f"units left at max depth {MAX_DEPTH}",
            value=values,
            error_estimate=worst,
        )
    return values, worst


def _evaluate_units(f, nodes, w, narrow, panel, col, half, share):
    """Evaluate units of one depth in one integrand call.

    ``nodes`` holds the substituted abscissas s(x) of the depth's panels,
    ``w`` their weights w(x) (None for 1) and ``narrow`` marks those too
    narrow to cut. Returns each unit's (real, imaginary) x (K21,
    K21 - G10) sums of w(x) f(s(x)), its |K21 - G10| and the indices of
    the units not accepted against their ``share`` of the budget.
    """
    k = col.size
    # one panel's rows broadcast over all its units
    one = nodes.shape[0] == 1
    pairs = np.empty((k, 21), dtype=PAIR)
    pairs["x"] = nodes if one else nodes[panel]
    pairs["col"] = col[:, None]
    vals = np.ascontiguousarray(f(pairs.reshape(-1)), dtype=complex)
    if vals.shape != (21 * k,):
        raise ValueError(f"integrand returned shape {vals.shape} for {21 * k} pairs")
    vals = vals.reshape(k, 21)
    if w is not None:
        vals = (w if one else w[panel]) * vals
    # one small product per unit, so a unit rounds the same in any batch
    # (one BLAS product over all units would not)
    rules = vals.view(float).reshape(k, 21, 2).transpose(0, 2, 1) @ _RULES
    err = half * np.hypot(rules[:, 0, 1], rules[:, 1, 1])
    over = (~(err <= share)).nonzero()[0]
    if over.size:
        # units over their share may still be at rounding level, or too
        # narrow to cut
        noise = _ROUNDOFF * half[over] * np.einsum("kj,j->k", abs(vals[over]), _KRONROD_WEIGHTS)
        over = over[~((err[over] <= noise) | narrow[panel[over]])]
    return rules, err, over


def _accumulate(total, spent, col, half, rules, err, done=None) -> None:
    """Add units' K21 values and estimates to their columns' sums, in unit order.

    Units outside the mask ``done`` add +0.0, which changes no sum started
    at +0.0.
    """
    n = spent.size
    parts = (half * rules[:, 0, 0], half * rules[:, 1, 0], err)
    if done is not None:
        parts = [np.where(done, v, 0.0) for v in parts]
    for out, v in zip((total[:, 0], total[:, 1], spent), parts):
        out += np.bincount(col, weights=v, minlength=n)


def _over_pair_cap(a, b, tol, n_pairs, total, spent, last) -> QuadratureError:
    """The error raised for a depth over :data:`MAX_PAIRS`.

    Its values are the accepted units' plus the last K21 value of each unit
    still active, and its estimate adds theirs; before any depth ran, the
    values are 0 and the estimate is inf.
    """
    best, err = total.copy(), spent.copy()
    if last is None:
        err[:] = math.inf
    else:
        _accumulate(best, err, *last)
    values = best.view(complex)[:, 0]
    worst = float(err.max(initial=0.0))
    return QuadratureError(
        f"Gauss-Kronrod quadrature on [{a}, {b}] stopped: the next depth would "
        f"evaluate {n_pairs} pairs, over MAX_PAIRS = {MAX_PAIRS}; worst column "
        f"error estimate {worst:.3e} against tol {tol:.3e}",
        value=values,
        error_estimate=worst,
    )
