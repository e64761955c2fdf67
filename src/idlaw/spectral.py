"""Polar representations of jump (Levy) measures.

A measure is a finite family of rays. Each ray carries a unit direction and
a radial measure on (0, inf) made of point atoms, power-law density
segments c * r**p on (lo, hi] (hi may be inf), and optionally a tabulated
right-tail function for shapes with no closed form. Segments may overlap
and carry negative scales as long as their sum is certified nonnegative;
that is how the exact image of a power segment under a map, a difference
of two power terms, is held. Admissibility means integral of min(1, r**2)
against the radial part is finite on every ray.

A measure's exponent runs from flat tables built once per measure
(:class:`JumpTables`). Atoms and the node weights of tabulated tails
become one (jumps x dim) table of jump vectors r * direction with their
masses, summed by the one kernel for exp(i theta) - 1, :func:`_cis_m1`,
which the closed-form compound-Poisson exponent shares; the compensation
of jumps inside the unit ball is one drift vector. Segments, split at
radius 1, become rows of a piece table (:class:`_Pieces`), which one
array program evaluates for all (row, piece) elements of a batch at once.
Every step sums in an order set by the tables alone, so a row's value
does not depend on its batch.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatchError, InvalidMeasureError

UNIT_NORM_TOL = 1e-12
# largest (atoms x rows) block the exp(i theta) - 1 kernel evaluates at
# once: its two float temporaries of 128 KiB each stay in cache
CIS_CHUNK_ELEMENTS = 1 << 14
# (rows x pieces) elements the segment-piece program evaluates at once:
# their two (SERIES_TERMS x elements) term tables take 3 MB
PIECE_CHUNK_ELEMENTS = 1 << 12
# a segment's exponent takes its power series in a = |w| r up to this a,
# and the rotated contour integral beyond it
SERIES_EDGE = 8.0
# series terms run over k = 1..SERIES_TERMS; up to a = 8.2 no term past
# k = 48 is kept (see _KEEP)
SERIES_TERMS = 48
# a signed sum of segment densities may dip this far below zero, relative
# to the sum of its terms' magnitudes: rounding in terms that cancel
# exactly at a point, such as the two terms of a segment image at hi
SIGN_SLACK = 1e-12

# 1/k! for k = 0..SERIES_TERMS, correctly rounded (int / int rounds once)
_INV_FACT = np.array([1 / math.factorial(k) for k in range(SERIES_TERMS + 1)])
# the series terms k = 1..SERIES_TERMS as a column, and the real
# coefficients of i**k / k!: real part for even k, imaginary for odd
_TERM_K = np.arange(1.0, SERIES_TERMS + 1.0)[:, None]
_TERM_COEF = (-1.0) ** (_TERM_K // 2) * _INV_FACT[1:, None]


def _keep_thresholds() -> np.ndarray:
    """Smallest z at which the series keeps term k, for k = 3..SERIES_TERMS.

    A term stays while z**k / k! is at least 1e-18 times min(1, z**2 / 2),
    the leading term of the compensated kernel, or 1. Both sides are
    monotone in z, so each term has one threshold: below sqrt(2), where
    z**2 / 2 is 1, it is where z**(k-2) reaches 1e-18 k!/2, and above it
    where z**k reaches 1e-18 k!.
    """
    out = []
    for k in range(3, SERIES_TERMS + 1):
        z = (0.5e-18 * math.factorial(k)) ** (1.0 / (k - 2))
        out.append(z if z < math.sqrt(2.0) else (1e-18 * math.factorial(k)) ** (1.0 / k))
    return np.array(out)


# an element with z = |w| top keeps the terms up to k = 2 + searchsorted(_KEEP, z, "right")
_KEEP = _keep_thresholds()
# 34-point Gauss-Laguerre rule: nodes and weights for integrals against
# exp(-v) over (0, inf), Newton-refined roots of L_34 at 60 digits. On
# (1 + i v/a)**p it is within 3e-16 of the integral for a >= SERIES_EDGE.
_LAG_NODES = np.array([
    4.190992002006911163452e-2, 2.209164019523595841390e-1, 5.433536945565415322697e-1,
    1.009967765484324819359e+0, 1.621751953473948779074e+0, 2.380014626242268560109e+0,
    3.286400154001770920844e+0, 4.342910167051681899765e+0, 5.551929289036567917419e+0,
    6.916256711692261675069e+0, 8.439144795688380320873e+0, 1.012434610894348775657e+1,
    1.197617070083503476893e+1, 1.399955594701637223161e+1, 1.620015202849429572510e+1,
    1.858442710740987567739e+1, 2.115979764987496693844e+1, 2.393479130658667085849e+1,
    2.691925258122364173893e+1, 3.012460565236800554137e+1, 3.356419491650060782801e+1,
    3.725373335110333272972e+1, 4.121190385773083208524e+1, 4.546118330644089731911e+1,
    5.002900054129932439726e+1, 5.494941289395278032896e+1, 6.026562168468018078805e+1,
    6.603391492353076285478e+1, 7.233019307779106538287e+1, 7.926155448779584694028e+1,
    8.698888681494741893414e+1, 9.577719042218814756345e+1, 1.061334484823827091296e+2,
    1.193621066777035673611e+2,
])
_LAG_WEIGHTS = np.array([
    1.031503857573014813956e-1, 2.009336243372752199074e-1, 2.290577133034142032816e-1,
    1.963233093512662694488e-1, 1.352794683850706096368e-1, 7.700290130862782429861e-2,
    3.668093396700989671854e-2, 1.471880421628160621484e-2, 4.990295392627923671671e-3,
    1.430809946564664590647e-3, 3.467057685540706932679e-4, 7.087155216351781433017e-5,
    1.218662032645914998206e-5, 1.756124027700480881875e-6, 2.110776099032559509282e-7,
    2.104140883091404298652e-8, 1.727915984033780517139e-9, 1.159678783101854008810e-10,
    6.301977516552361132635e-12, 2.742816924614732108569e-13, 9.438765904261873158517e-15,
    2.529440327462406600939e-16, 5.183705189158765950900e-18, 7.947967859943877534438e-20,
    8.876789005200357708038e-22, 6.985695546383358986487e-24, 3.713786539776448258617e-26,
    1.262566747466236794823e-28, 2.549456478722617600099e-31, 2.755788341805502820773e-34,
    1.364760308970172188988e-37, 2.399497948459266320979e-41, 9.232070476190765973693e-46,
    2.283838051318791536557e-51,
])


def _cis_m1(Y: np.ndarray, J: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Sum over atoms k of m_k (exp(i theta_jk) - 1), per row j of Y.

    The angles are theta_jk = sum over c of Y[j, c] J[k, c], built as
    elementwise products in column order, never a matrix product. Each
    angle takes one libm call, the tangent of the half angle
    t = tan(theta/2): with q = t/(1 + t**2), cos(theta) - 1 = -2 t q and
    sin(theta) = 2 q, so there is no cancellation near theta = 0, and t**2
    stays finite next to odd multiples of pi, where t is largest. Atoms go
    in tiles of at most ``CIS_CHUNK_ELEMENTS`` and rows in blocks that keep
    (atoms x rows) within it, so temporaries stay in cache whatever the
    batch size. A block's atoms are summed by halving, in an order set by
    the tile's atom count alone, and tiles add in order; so every row
    rounds the same in any batch.
    """
    Y = np.asarray(Y, dtype=float)
    # halving is exact, so the half angles are the rounded angles halved
    H = 0.5 * np.asarray(J, dtype=float)
    m2 = 2.0 * np.asarray(m, dtype=float)[:, None]
    n, (K, d) = Y.shape[0], H.shape
    out = np.zeros(n, dtype=complex)
    re, im = out.real, out.imag
    tile = max(1, min(K, CIS_CHUNK_ELEMENTS))
    rows = max(1, CIS_CHUNK_ELEMENTS // tile)
    for a in range(0, K, tile):
        h, w = H[a : a + tile], m2[a : a + tile]
        for lo in range(0, n, rows):
            y = Y[lo : lo + rows]
            t = h[:, :1] * y[:, 0]
            for c in range(1, d):
                t += h[:, c : c + 1] * y[:, c]
            np.tan(t, out=t)
            q = t * t
            q += 1.0
            np.divide(t, q, out=q)
            q *= w  # 2 m sin(theta/2) cos(theta/2) = m sin(theta)
            t *= q  # -m (cos(theta) - 1)
            re[lo : lo + rows] -= _fold_sum(t)
            im[lo : lo + rows] += _fold_sum(q)
    return out


def _dot(Y: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Y @ v as a sum of columns in order, so each row rounds alike in any batch."""
    out = np.zeros(Y.shape[0])
    for c in range(Y.shape[1]):
        out += Y[:, c] * v[c]
    return out


def _quad_form(Y: np.ndarray, S: np.ndarray) -> np.ndarray:
    """<y, S y> for each row y of Y, summed in order like :func:`_dot`."""
    out = np.zeros(Y.shape[0])
    for c in range(Y.shape[1]):
        out += _dot(Y, S[c]) * Y[:, c]
    return out


def _fold_sum(v: np.ndarray, k: int | None = None) -> np.ndarray:
    """Sum of the rows of v, by halving in place (overwrites v).

    The halving order is that of ``k`` rows (default: v's own), where rows
    past v's count read as +0.0: a short v sums like its zero-padded form,
    to the same bytes as long as none of its rows holds -0.0.
    """
    n = v.shape[0]
    k = n if k is None else k
    while k > 1:
        h = k // 2
        if n > k - h:
            v[: n - (k - h)] += v[k - h : n]
        k -= h
        n = min(n, k)
    return v[0]


def _expm1_ratio(e, t):
    """(exp(e*t) - 1)/e without cancellation as e -> 0, where it is t; t may be complex.

    Broadcasts over e and t. It is t also where e*t falls below the
    smallest normal double: there the product has lost bits to underflow,
    and t is within that of the value.
    """
    t = np.asarray(t)
    if np.ndim(e) == 0 and e == 0.0:
        return t
    et = e * t
    small = (np.abs(et) < sys.float_info.min) | (e == 0.0)
    return np.where(small, t, np.expm1(et) / np.where(small, 1.0, e))


def _log_ratio(x, y):
    """log(x/y) for x, y >= 0, accurate relative to the result as x/y -> 1.

    The rounding of x/y costs log(x/y) up to eps/(2 |log(x/y)|) relative:
    16 eps while x and y differ by y/32, without bound as x/y -> 1. Closer
    than that, x - y is exact, and log1p((x - y)/y) keeps full accuracy.
    """
    d = x - y
    close = np.abs(d) < y / 32.0
    out = np.log(x / y)
    if not close.any():
        return out
    if np.ndim(out) == 0:
        return np.log1p(d / y)
    return np.log1p(d / y, out=out, where=close)


def _power_ints(a, b, q) -> np.ndarray:
    """Integral of r**(q-1) over (a, b), per 0 <= a <= b <= inf, broadcast over a, b and q.

    From a > 0 to b < inf it is :func:`_ints_from`; from a = 0 it is
    b**q/q and to b = inf -a**q/q, or inf where that diverges.
    """
    a = np.asarray(a, dtype=float)
    pos = a > 0.0
    inner = pos & (b < math.inf)
    n_inner = np.count_nonzero(inner)
    if n_inner == np.size(inner):
        return _ints_from(a, b, q)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # finite from a = 0 for q > 0, to b = inf for q < 0
        ends = np.where((q < 0.0) == pos, np.where(pos, a, b) ** q / np.where(pos, -q, q), math.inf)
        if not n_inner:
            return ends
        return np.where(inner, _ints_from(a, b, q), ends)


def _ints_from(a, b, q) -> np.ndarray:
    """Integral of r**(q-1) over (a, b), for 0 < a <= b < inf.

    Broadcast over a, b and q. Written as a**q (exp(q S) - 1)/q through
    expm1, S = log(b/a) by :func:`_log_ratio`, so it stays accurate as
    q -> 0 and as b -> a. Where q S passes 700, (a/b)**q is below 1e-304
    and nothing cancels: it is b**q/q, and expm1 would overflow.
    """
    span = _log_ratio(b, a)
    far = q * span > 700.0
    if not np.count_nonzero(far):
        return a ** q * _expm1_ratio(q, span)
    q_far = np.where(far, q, 1.0)
    val = a ** q * _expm1_ratio(q, np.where(far, 0.0, span))
    return np.where(far, b ** q_far / q_far, val)


def _exp_divdiff(S, nodes) -> np.ndarray:
    """Divided difference of x -> exp(x S) over ``nodes``, sorted per element.

    S (finite, real >= 0 or complex) and the nodes (floats or arrays)
    broadcast; a node held m times reads derivatives to order m - 1. Where
    |S| times the nodes' spread is below 2 it is the Taylor series about
    their mean x0, exp(x0 S) S**n times the sum over j <= J of
    h_j(S (x - x0))/(n + j)!, n + 1 nodes, h_j the complete homogeneous
    symmetric polynomial of degree j, and J 20 below 1 and 30 from 1, so
    the first omitted term stays below 1e-19 of the sum; otherwise the
    recursion (D(x_1..x_n) - D(x_0..x_(n-1))) / (x_n - x_0) (McCurdy, Ng
    and Parlett 1984). Each step of the recursion cancels by about n over
    |S| times the spread, which is why the series reaches 2.
    """
    shape = np.broadcast_shapes(np.shape(S), *(np.shape(x) for x in nodes))
    S = np.broadcast_to(S, shape).astype(np.result_type(S, float)).ravel()
    nodes = [np.broadcast_to(x, shape).ravel() for x in nodes]
    n = len(nodes) - 1
    if n == 0:
        return np.exp(nodes[0] * S).reshape(shape)
    rho = np.abs(S) * (nodes[-1] - nodes[0])
    out = np.empty(S.shape, dtype=S.dtype)
    for near, terms in ((rho < 1.0, 20), ((rho >= 1.0) & (rho < 2.0), 30)):
        if np.count_nonzero(near):
            s, xs = S[near], [x[near] for x in nodes]
            mean = sum(xs) / (n + 1)
            h = [np.ones_like(s)] + [np.zeros_like(s)] * terms
            for x in xs:
                z = (x - mean) * s
                for j in range(1, terms + 1):
                    h[j] = h[j] + z * h[j - 1]
            total = sum(h[j] / math.factorial(n + j) for j in range(terms, -1, -1))
            out[near] = np.exp(mean * s) * s ** n * total
    far = ~(rho < 2.0)  # and nan, which reads nan through the recursion
    if np.count_nonzero(far):
        s, xs = S[far], [x[far] for x in nodes]
        out[far] = (_exp_divdiff(s, xs[1:]) - _exp_divdiff(s, xs[:-1])) / (xs[-1] - xs[0])
    return out.reshape(shape)


def _form_nodes(e) -> list[float]:
    """The sorted nodes of a log form's factor: 0 and the offsets ``e``."""
    return sorted((0.0, *e))


def _form_ratio(nodes, q, A, S) -> np.ndarray:
    """Integral of r**(q-1) D over (a, b) over b**q, D a log form's factor.

    D is the divided difference of exp(x log(hi/r)) over the sorted
    ``nodes`` n_0..n_m; A = log(hi/b), S = log(b/a), inf from a = 0; all
    broadcast. By the Leibniz rule at log(hi/r) = A + log(b/r) it is the
    sum over j of D_A[n_0..n_j] exp(-q S) D_S[n_j..n_m, q], positive terms,
    each shifted by its largest node t to exp((t - q) S) D_S[n_j - t..q - t]
    so that no exponential overflows. From a = 0 the second factor is the
    product of 1/(q - n) over n_j..n_m, and the ratio inf unless q > n_m.
    """
    q = np.asarray(q, dtype=float)
    finite = np.isfinite(S)
    S0 = np.where(finite, S, 0.0)
    diverges = ~finite & ~(q > nodes[-1])
    out = 0.0
    for j in range(len(nodes)):
        tail = np.sort(np.stack(np.broadcast_arrays(q, *nodes[j:])), axis=0)
        with np.errstate(over="ignore"):
            part = np.exp((tail[-1] - q) * S0) * _exp_divdiff(S0, list(tail - tail[-1]))
        if not finite.all():
            with np.errstate(divide="ignore", invalid="ignore"):
                from_zero = 1.0 / math.prod(q - x for x in nodes[j:])
            part = np.where(finite, part, np.where(diverges, 0.0, from_zero))
        out = out + _exp_divdiff(A, nodes[: j + 1]) * part
    return np.where(diverges, math.inf, out)


@dataclass(frozen=True)
class Atom:
    """Point mass m at radius r > 0."""

    r: float
    m: float


@dataclass(frozen=True)
class Segment:
    """Density c * r**p on (lo, hi); hi may be math.inf.

    With offsets ``e`` (a number or a sequence, kept as a sorted tuple,
    empty for a power segment) the density is c * r**p times the divided
    difference of x -> exp(x log(hi/r)) over {0, e_1, ..., e_m} on a
    finite range: a log form, c * r**p * ((hi/r)**e - 1)/e for one offset,
    positive for c > 0. A power kernel adds a node (:mod:`idlaw.maps`).
    """

    lo: float
    hi: float
    c: float
    p: float
    e: tuple[float, ...] = ()

    def __post_init__(self):
        if type(self.e) is not tuple or self.e:  # the default () needs no work
            object.__setattr__(self, "e", tuple(sorted(map(float, np.atleast_1d(self.e)))))


def _moment(sg: Segment, a, b, k) -> np.ndarray:
    """Integral of r**k against the segment at c = 1 over (a, b), for any real k.

    Needs lo <= a <= b <= hi; inf where the integral diverges. A power
    segment's is :func:`_power_ints`, a log form's b**q :func:`_form_ratio`,
    q = p + 1 + k. Broadcasts over a, b and k.
    """
    q = sg.p + k + 1.0
    if not sg.e:
        return _power_ints(a, b, q)
    # a = 0 reads S = inf; an inadmissible form (hi = inf) reads nan
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        S = _log_ratio(b, np.asarray(a, dtype=float))
        return b ** q * _form_ratio(_form_nodes(sg.e), q, _log_ratio(sg.hi, b), S)


def _log_moment(sg: Segment, a, b: float) -> np.ndarray:
    """Integral of log(r/a) against the segment at c = 1 over (a, b), per a in (0, b].

    Needs b <= hi, and b = hi for a form; vectorized over a. In
    r = a exp(t), t in (0, S) with S = log(b/a), it is a**q E[0, e_1, ...,
    e_m, q, q], q = p + 1, E the divided difference of exp(x S)
    (:func:`_exp_divdiff`) and e_i the offsets; to b = inf a power
    segment's is a**q/q**2, or inf for q >= 0. E is shifted by its largest
    node t, a**q exp(t S) = a**(q-t) b**t, so no exponential overflows.
    """
    a = np.asarray(a, dtype=float)
    q = sg.p + 1.0
    if math.isinf(b):
        with np.errstate(divide="ignore"):
            return np.where(q < 0.0, a ** q / (q * q), math.inf)
    nodes = (0.0, *sg.e, q, q)
    top = max(nodes)
    shifted = tuple(sorted(x - top for x in nodes))
    return a ** (q - top) * b ** top * _exp_divdiff(_log_ratio(b, a), shifted)


@dataclass(frozen=True, eq=False)
class GridTail:
    """Right-tail function tabulated on an increasing radius grid.

    ``tail[k]`` approximates the measure of (radii[k], inf); between nodes
    the tail is linear in r, so cell (r_k, r_{k+1}] carries mass
    tail[k] - tail[k+1]. Any residual tail[-1] is collapsed onto the last
    node as an atom. There is no mass below radii[0]. The exponent takes
    the endpoint-average rule, not this measure: on radii (0.5, 1, 2, 3)
    with tails (1, 0.6, 0.2, 0.05) the two differ by 0.185 at |y| = 4.
    """

    radii: np.ndarray
    tail: np.ndarray

    def __post_init__(self):
        radii = np.asarray(self.radii, dtype=float).copy()
        tail = np.asarray(self.tail, dtype=float).copy()
        if radii.ndim != 1 or tail.shape != radii.shape or radii.size < 2:
            raise ValueError("grid tail needs matching 1-d arrays of length >= 2")
        radii.setflags(write=False)
        tail.setflags(write=False)
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "tail", tail)

    def issues(self, label: str) -> list[str]:
        out = []
        if not np.all(self.radii > 0.0):
            out.append(f"{label}: grid radii must be positive")
        if not np.all(np.diff(self.radii) > 0.0):
            out.append(f"{label}: grid radii must be strictly increasing")
        if not np.all(self.tail >= -1e-15):
            out.append(f"{label}: grid tail values must be nonnegative")
        if not np.all(np.diff(self.tail) <= 1e-12 * (1.0 + self.tail[0])):
            out.append(f"{label}: grid tail must be nonincreasing")
        return out

    def tail_at(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        return np.interp(u, self.radii, self.tail, left=self.tail[0], right=0.0)

    @cached_property
    def _unit_split(self) -> tuple[np.ndarray, np.ndarray]:
        """Node/tail arrays with a node inserted at radius 1.

        The tabulated tail is piecewise linear, so inserting a node is
        exact. With the node present, no cell straddles the compensation
        cutoff and kernels that switch form at radius 1 integrate cleanly.
        """
        r, t = self.radii, self.tail
        if r[0] < 1.0 < r[-1] and 1.0 not in r:
            k = int(np.searchsorted(r, 1.0))
            r = np.insert(r, k, 1.0)
            t = np.insert(t, k, self.tail_at(1.0))
        return r, t

    @cached_property
    def _node_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """The endpoint-average rule folded into per-node weights.

        Each cell gives half its mass to each endpoint, in the first vector
        when the cell lies in (0, 1] and in the second otherwise; the
        residual mass past the last node goes to that node. So the first
        vector is zero on nodes above 1 and the second on nodes below 1.
        """
        r, t = self._unit_split
        half = 0.5 * np.maximum(-np.diff(t), 0.0)
        below = r[1:] <= 1.0
        wt_below, wt_above = np.zeros_like(r), np.zeros_like(r)
        for wts, cells in ((wt_below, half * below), (wt_above, half * ~below)):
            wts[:-1] += cells
            wts[1:] += cells
        (wt_below if r[-1] <= 1.0 else wt_above)[-1] += t[-1]
        return wt_below, wt_above

    def split_integral(self, g_below, g_above) -> float:
        """Stieltjes integral with separate kernels on (0, 1] and (1, inf).

        Cells use the endpoint average of whichever kernel covers them
        (exact for kernels linear over a cell); the residual mass past the
        last node counts as an atom there. Each kernel is evaluated only
        on the nodes where it has weight.
        """
        r = self._unit_split[0]
        wt_below, wt_above = self._node_weights
        n_below = int(np.searchsorted(r, 1.0, side="right"))
        n_above = int(np.searchsorted(r, 1.0, side="left"))
        val = np.asarray(g_below(r[:n_below]), dtype=float) @ wt_below[:n_below]
        val += np.asarray(g_above(r[n_above:]), dtype=float) @ wt_above[n_above:]
        return float(val)

    @cached_property
    def _radial(self) -> "RadialMeasure":
        return RadialMeasure(grid_tail=self)

    def exponent_integral(self, w: np.ndarray) -> np.ndarray:
        """Jump-part integrand against the tabulated measure, batched over w.

        The node weights of the endpoint-average rule are point masses, the
        ones in (0, 1] compensated: the tables of a radial measure with this
        tail alone (:meth:`RadialMeasure.exponent_integral`).
        """
        return self._radial.exponent_integral(w)

    def scaled(self, factor: float) -> "GridTail":
        return GridTail(self.radii, self.tail * factor)


def _merge_grid_tails(a: GridTail, b: GridTail) -> GridTail:
    radii = np.union1d(a.radii, b.radii)
    return GridTail(radii, a.tail_at(radii) + b.tail_at(radii))


@dataclass(frozen=True, eq=False)
class RadialMeasure:
    """Radial part of one ray: atoms + power segments + optional grid tail."""

    atoms: tuple[Atom, ...] = ()
    segments: tuple[Segment, ...] = ()
    grid_tail: GridTail | None = None

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(self.atoms))
        object.__setattr__(self, "segments", tuple(self.segments))

    def is_empty(self) -> bool:
        return not self.atoms and not self.segments and self.grid_tail is None

    def issues(self, label: str) -> list[str]:
        out = []
        for k, at in enumerate(self.atoms):
            if not at.r > 0.0:
                out.append(f"{label}: atom {k} has radius {at.r} <= 0")
            if at.m < 0.0:
                out.append(f"{label}: atom {k} has negative mass {at.m}")
        for k, sg in enumerate(self.segments):
            if sg.lo < 0.0 or not sg.hi > sg.lo:
                out.append(f"{label}: segment {k} has bad range ({sg.lo}, {sg.hi})")
                continue
            if sg.e and not (np.isfinite([sg.hi, *sg.e]).all() and sg.p - sg.e[-1] >= -1.0):
                out.append(
                    f"{label}: log-form segment {k} needs a finite hi and finite "
                    f"offsets e with p - e >= -1, got hi={sg.hi}, p={sg.p}, e={sg.e}"
                )
            if sg.lo == 0.0 and sg.p <= -3.0:
                out.append(
                    f"{label}: segment {k} (p={sg.p}) makes the r^2 moment "
                    "diverge at 0"
                )
            if math.isinf(sg.hi) and sg.p >= -1.0:
                out.append(
                    f"{label}: segment {k} (p={sg.p}) has infinite mass at "
                    "large radii"
                )
        out.extend(self._sign_issues(label))
        if self.grid_tail is not None:
            out.extend(self.grid_tail.issues(label))
        return out

    def _sign_issues(self, label: str) -> list[str]:
        """Ranges on which the segments are not certified to sum to >= 0.

        See :func:`_density_nonnegative` for the certificate.
        """
        return [
            f"{label}: segments on ({a}, {b}) are not certified to sum to a "
            "nonnegative density"
            for a, b in _uncertified_ranges(self.segments)
        ]

    def tail(self, u) -> np.ndarray:
        """Measure of (u, inf), vectorized over u >= 0."""
        u = np.asarray(u, dtype=float)
        val = np.zeros_like(u)
        for at in self.atoms:
            val = val + at.m * (u < at.r)
        for sg in self.segments:
            lower = np.maximum(u, sg.lo)
            inside = lower < sg.hi
            start = np.where(inside, lower, sg.lo)
            val = val + np.where(inside, sg.c * _moment(sg, start, sg.hi, 0), 0.0)
        if self.grid_tail is not None:
            val = val + self.grid_tail.tail_at(u)
        return val

    def log_moment(self) -> float:
        """Integral of log(r) over r > 1; inf when divergent."""
        val = 0.0
        for at in self.atoms:
            if at.r > 1.0:
                val += at.m * math.log(at.r)
        for sg in self.segments:
            # with L = max(lo, 1), the log moment about L plus log(L) times
            # the mass above L
            lo = max(sg.lo, 1.0)
            if sg.hi > lo:
                seg = _log_moment(sg, lo, sg.hi)
                if lo > 1.0:
                    seg = seg + math.log(lo) * _moment(sg, lo, sg.hi, 0)
                val += sg.c * float(seg)
        if self.grid_tail is not None:
            val += self.grid_tail.split_integral(np.zeros_like, np.log)
        return val

    def power_moment_above1(self, s: float) -> float:
        """Integral of r**s over r > 1; inf when divergent."""
        val = 0.0
        for at in self.atoms:
            if at.r > 1.0:
                val += at.m * at.r ** s
        for sg in self.segments:
            lo = max(sg.lo, 1.0)
            if sg.hi > lo:
                val += sg.c * float(_moment(sg, lo, sg.hi, s))
        if self.grid_tail is not None:
            val += self.grid_tail.split_integral(
                np.zeros_like, lambda r: r ** s
            )
        return val

    @cached_property
    def tables(self) -> JumpTables:
        """This measure's tables, as the one ray of a dim-1 measure."""
        return JumpTables.build(1, [(np.ones(1), self)])

    def exponent_integral(self, w: np.ndarray) -> np.ndarray:
        """Jump integrand against this measure, batched over signed arguments w.

        Computes, for each w, the integral of
        exp(i*w*r) - 1 - i*w*r*[r <= 1] over r, from :attr:`tables`. Atoms
        and grid-tail nodes are point masses. Segments, power and log form
        alike, take a closed form: a power series in |w| r up to
        SERIES_EDGE, and past it a fixed Gauss-Laguerre rule along a
        contour in the upper half plane, where the oscillation becomes
        decay. No piece runs a quadrature, and the error is at rounding
        level at any |w|. Every piece takes w of either sign, so the value
        at -w is the conjugate of the one at w piece by piece.
        """
        w = np.asarray(w, dtype=float).ravel()
        return self.tables.exponent(w[:, None], -self.tables.comp)

    def scaled(self, factor: float) -> "RadialMeasure":
        if factor < 0.0:
            raise ValueError(f"scale factor must be nonnegative, got {factor}")
        return RadialMeasure(
            tuple(Atom(at.r, at.m * factor) for at in self.atoms),
            tuple(Segment(sg.lo, sg.hi, sg.c * factor, sg.p, sg.e) for sg in self.segments),
            None if self.grid_tail is None else self.grid_tail.scaled(factor),
        )

    def __add__(self, other: "RadialMeasure") -> "RadialMeasure":
        if not isinstance(other, RadialMeasure):
            return NotImplemented
        if self.grid_tail is None or other.grid_tail is None:
            merged = self.grid_tail or other.grid_tail
        else:
            merged = _merge_grid_tails(self.grid_tail, other.grid_tail)
        return RadialMeasure(
            self.atoms + other.atoms, self.segments + other.segments, merged
        )


def _min1r2(radials: Sequence[RadialMeasure]) -> np.ndarray:
    """Integral of min(1, r**2) against each radial measure.

    Atoms, grid tails and log forms add one at a time. The nonempty
    ranges of all power segments take one array pass through
    :func:`_power_ints`: r**2 over a segment's part of (0, 1] and 1 over
    its part of (1, inf). A divergent range reads inf.
    """
    out = np.zeros(len(radials))
    rows = []
    for i, rad in enumerate(radials):
        for at in rad.atoms:
            out[i] += at.m * min(1.0, at.r * at.r)
        if rad.grid_tail is not None:
            out[i] += rad.grid_tail.split_integral(lambda r: r * r, lambda r: np.ones_like(r))
        for sg in rad.segments:
            for a, b, k in ((max(sg.lo, 0.0), min(sg.hi, 1.0), 2.0), (max(sg.lo, 1.0), sg.hi, 0.0)):
                if b > a and sg.e:
                    out[i] += sg.c * float(_moment(sg, a, b, k))
                elif b > a:
                    rows.append((i, a, b, k, sg.c, sg.p))
    if rows:
        ray, a, b, k, c, p = np.array(rows).T
        out += np.bincount(ray.astype(int), c * _power_ints(a, b, p + k + 1.0), len(radials))
    return out


def segments_by_range(
    segments: Iterable[Segment],
) -> list[tuple[float, float, list[Segment]]]:
    """The segments covering each range between consecutive segment ends.

    Returns (a, b, covering) per range. Power segments on a range are
    summed by exponent into one Segment(a, b, c, p) each, sorted by p and
    dropped where they cancel; log-form segments follow unchanged.
    """
    segments = list(segments)
    cuts = sorted({x for sg in segments for x in (sg.lo, sg.hi)})
    out = []
    for a, b in zip(cuts, cuts[1:]):
        coef: dict[float, float] = {}
        log_forms = []
        for sg in segments:
            if not (sg.lo <= a and b <= sg.hi):
                continue
            if not sg.e:
                coef[sg.p] = coef.get(sg.p, 0.0) + sg.c
            else:
                log_forms.append(sg)
        plain = [Segment(a, b, coef[p], p) for p in sorted(coef) if coef[p] != 0.0]
        out.append((a, b, plain + log_forms))
    return out


def _uncertified_ranges(segments: Iterable[Segment]) -> list[tuple[float, float]]:
    """Ranges where well-formed segments are not certified to sum to >= 0."""
    segs = [sg for sg in segments if sg.lo >= 0.0 and sg.hi > sg.lo]
    if all(sg.c >= 0.0 for sg in segs):
        return []
    return [
        (a, b) for a, b, covering in segments_by_range(segs)
        if not _density_nonnegative(covering, a, b)
    ]


# A density on a range, written in t = log r, is certified as a sum of
# groups (x + y t) exp(p t), held as (p, x, y) sorted by p: a power term
# is one group with y = 0, and a log form one group per distinct node by
# partial fractions.


def _summed(terms) -> list[tuple[float, float, float]]:
    """(p, x, y) terms summed by p into groups sorted by p, zero groups dropped."""
    acc: dict[float, tuple[float, float]] = {}
    for p, x, y in terms:
        x0, y0 = acc.get(p, (0.0, 0.0))
        acc[p] = (x0 + x, y0 + y)
    return [(p, x, y) for p, (x, y) in sorted(acc.items()) if x != 0.0 or y != 0.0]


def _terms(sg: Segment) -> list[tuple[float, float, float]] | None:
    """One segment's density as (p, x, y) terms; None if it has none.

    A power segment is one term. A log form splits by partial fractions
    into a term of exponent p - n per distinct node n: exp(n L)/W, or for a
    double node its derivative in n, exp(n L)/W (L - sum of m_v/(n - v));
    L = log(hi) - t and W the product of (n - v)**m_v over the other nodes
    v. A triple node has none, and neither has a form whose weights are not
    finite, as when nodes 3.8e-239 apart make W underflow to 0. On a form
    with lo > 0, a node within eps / log(hi/lo) of the one below is taken as
    that node: their two terms, of size 1/gap, would cancel to rounding,
    and the merged node moves the density by a relative gap log(hi/r) of
    at most eps.
    """
    if not sg.e:
        return [(sg.p, sg.c, 0.0)]
    nodes = _form_nodes(sg.e)
    span = math.log(sg.hi / sg.lo) if sg.lo > 0.0 else math.inf
    for k in range(1, len(nodes)):
        if (nodes[k] - nodes[k - 1]) * span <= sys.float_info.epsilon:
            nodes[k] = nodes[k - 1]
    mult = {n: nodes.count(n) for n in nodes}
    if max(mult.values()) > 2:
        return None
    terms = []
    for n, m in mult.items():
        gaps = [(n - v, mv) for v, mv in mult.items() if v != n]
        w = math.prod(d ** mv for d, mv in gaps)
        if w == 0.0:
            return None
        base = sg.c * sg.hi ** n / w
        x = base * (math.log(sg.hi) - sum(mv / d for d, mv in gaps)) if m == 2 else base
        if not (math.isfinite(base) and math.isfinite(x)):
            return None
        terms.append((sg.p - n, x, -base if m == 2 else 0.0))
    return terms


def _sign(v: float) -> int:
    return (v > 0.0) - (v < 0.0)


def _sign_at(groups: list[tuple[float, float, float]], t: float) -> int:
    """Sign of the sum of the groups at t, or its limit at t = -inf or inf."""
    if t == math.inf:
        _, x, y = groups[-1]
        return _sign(y) if y != 0.0 else _sign(x)
    if t == -math.inf:
        _, x, y = groups[0]
        return -_sign(y) if y != 0.0 else _sign(x)
    logs = [p * t for p, _, _ in groups]
    top = max(logs)
    return _sign(math.fsum(
        (x + y * t) * math.exp(lg - top) for (_, x, y), lg in zip(groups, logs)
    ))


def _slope(groups: list[tuple[float, float, float]]) -> list[tuple[float, float, float]]:
    """Groups of the derivative in t: (x + y t) exp(p t) gives (p x + y + p y t) exp(p t).

    Exponents shifted by the lowest one (see :func:`_sign_change_points`)
    can round to the same double, so groups are summed by p again.
    """
    return _summed((p, p * x + y, p * y) for p, x, y in groups)


def _finite_end(groups, end: float, other: float, sign: int) -> float:
    """A finite t on the side of ``end`` with the sign of the limit there.

    Steps away from ``other`` (or 0) by doubling lengths; the sum tends to
    that sign, so the walk stops, at the latest where t overflows.
    """
    if math.isfinite(end):
        return end
    start, step = (other if math.isfinite(other) else 0.0), 1.0
    direction = 1.0 if end > 0.0 else -1.0
    t = start + direction * step
    while _sign_at(groups, t) != sign:
        step *= 2.0
        t = start + direction * step
    return t


def _monotone_piece_root(groups, a: float, b: float) -> float | None:
    """The sign change of a sum of groups monotone on (a, b), if any.

    Infinite ends are replaced by points that already carry the limit's
    sign; the change is then bisected down to adjacent doubles.
    """
    sa, sb = _sign_at(groups, a), _sign_at(groups, b)
    if sa * sb >= 0:
        return None
    a = _finite_end(groups, a, b, sa)
    b = _finite_end(groups, b, a, sb)
    while True:
        mid = 0.5 * (a + b)
        if not a < mid < b:
            return mid
        s = _sign_at(groups, mid)
        if s == 0:
            return mid
        if s == sa:
            a = mid
        else:
            b = mid


def _sign_change_points(groups, a: float, b: float) -> list[float]:
    """Points of (a, b) that include every sign change of a sum of groups.

    One group changes sign at most once, and two pure exponentials too,
    both in closed form. Otherwise the sum over the lowest exponential,
    exp(p_1 t), has the same sign changes, and its derivative has one
    degree of freedom fewer: the lowest group loses its t term, or
    vanishes when it has none. By Rolle's theorem the derivative's sign
    changes, found by recursion, split (a, b) into pieces on which the
    sum is monotone: at most one change each, found by bisection. The
    piece ends are returned too.
    """
    if len(groups) == 1:
        _, x, y = groups[0]
        roots = [] if y == 0.0 else [-x / y]
    elif len(groups) == 2 and groups[0][2] == 0.0 == groups[1][2]:
        (p0, x0, _), (p1, x1, _) = groups
        # the logs of |x0| and |x1|, since their ratio may leave the double range
        roots = [] if (x0 > 0.0) == (x1 > 0.0) else [
            (math.log(abs(x0)) - math.log(abs(x1))) / (p1 - p0)
        ]
    else:
        p0 = groups[0][0]
        slope = _slope([(p - p0, x, y) for p, x, y in groups])
        knots = _sign_change_points(slope, a, b) if slope else []
        ends = [a, *knots, b]
        roots = knots + [_monotone_piece_root(groups, u, v) for u, v in zip(ends, ends[1:])]
    return sorted(t for t in roots if t is not None and a < t < b)


def _densities_at(segments: list[Segment], t: float) -> list[float]:
    """Each segment's density at r = exp(t), all over the largest exponential factor.

    A log form's divided difference of exp(x S), S = log(hi) - t, is
    shifted by its largest node n into the factor exp(p t + n S), as in
    :func:`_log_moment`, so no exponential overflows.
    """
    logs, scales = [], []
    for sg in segments:
        lg, scale = sg.p * t, sg.c
        if sg.e:
            nodes = _form_nodes(sg.e)
            top, S = nodes[-1], math.log(sg.hi) - t
            lg += top * S
            scale *= float(_exp_divdiff(S, tuple(n - top for n in nodes)))
        logs.append(lg)
        scales.append(scale)
    top = max(logs)
    return [scale * math.exp(lg - top) for scale, lg in zip(scales, logs)]


def _density_nonnegative(segments: list[Segment], a: float, b: float) -> bool:
    """Whether the segments covering (a, b) sum to a density >= 0 on it.

    In t = log r the minimum over the range lies at an end or at a sign
    change of the derivative, which :func:`_sign_change_points` brackets
    exactly. At r = 0 and r = inf the sum has the sign of its limit. At a
    finite point the density may fall short of zero by ``SIGN_SLACK``
    times the sum of the segments' magnitudes: rounding in terms that
    cancel there, such as the two terms of a segment image at hi.
    """
    if all(sg.c > 0.0 for sg in segments):
        return True
    split = [(sg, _terms(sg)) for sg in segments]
    if any(terms is None and sg.c < 0.0 for sg, terms in split):
        return False
    # a positive log form without terms only adds to the density: the rest
    # is certified in its place
    segments = [sg for sg, terms in split if terms is not None]
    groups = _summed(t for _, terms in split if terms is not None for t in terms)
    if not groups:
        return True
    ta = math.log(a) if a > 0.0 else -math.inf
    tb = math.log(b)
    if any(math.isinf(t) and _sign_at(groups, t) < 0 for t in (ta, tb)):
        return False
    slope = _slope(groups)
    points = [t for t in (ta, tb) if math.isfinite(t)]
    points += _sign_change_points(slope, ta, tb) if slope else []
    for t in points:
        vals = _densities_at(segments, t)
        if not math.fsum(vals) >= -SIGN_SLACK * math.fsum(abs(v) for v in vals):
            return False
    return True


def _powers(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """z**1, z**2, ... down the rows of ``out``, each by at most log2(rows) products."""
    rows = out.shape[0]
    out[0] = z
    n = 1
    while n < rows:
        c = min(n, rows - n)
        np.multiply(out[:c], out[n - 1], out=out[n : n + c])
        n += c
    return out


def _zero_term_row(p: float, k0: int) -> int:
    """Row of the series term k >= k0 with q = p + 1 + k = 0, or -1."""
    k = -p - 1.0
    return int(k) - 1 if k == int(k) and k0 <= k <= SERIES_TERMS else -1


def _log_1is(a: np.ndarray) -> np.ndarray:
    """log(1 + i v/a) at the Laguerre nodes v down the rows, one column per a."""
    s = _LAG_NODES[:, None] * (1.0 / a)
    return 0.5 * np.log1p(s * s) + 1j * np.arctan(s)


# the power pieces' log(1 + i v/a) at the series edge a = SERIES_EDGE
_LOG_1IS_EDGE = _log_1is(np.array([SERIES_EDGE]))
# q = p + 1 + j of the moments j = 0, 1 behind the rotated contour
_MOMENT_Q = np.array([[1.0], [2.0]])


def _laguerre_sum(p, a, forms=()) -> np.ndarray:
    """The Gauss-Laguerre rule on (1 + i v/a)**p F(x (1 + i v/a)), per element.

    With s = v/a, log(1 + i s) is log1p(s**2)/2 + i arctan(s). F is 1 but on
    the log forms, ``forms`` groups (columns, nodes, log(hi/x)), where
    log(hi/r) = log(hi/x) - log(1 + i s). Nodes run down the rows: a fold.
    """
    log_1is = _log_1is(a)
    f = np.exp(p * log_1is)
    for cols, nodes, log_hi_x in forms:
        f[:, cols] *= _exp_divdiff(log_hi_x - log_1is[:, cols], nodes)
    f *= _LAG_WEIGHTS[:, None]
    return _fold_sum(f)


@dataclass(frozen=True, eq=False)
class _Pieces:
    """Segments split at radius 1 into pieces, as columns with one entry per piece.

    A piece is c * r**p F(r) on (a, b) of ray ``ray``, F the density factor
    of its segment, 1 or a log form's; ``nodes`` holds its sorted nodes
    (:func:`_form_nodes`), padded with nan, and hi the segment's end.
    k0 = 2 marks the compensated kernel below radius 1, k0 = 1 the raw one
    above it. Pieces are sorted into power pieces from a = 0, power pieces
    from a > 0 and log forms; ``kinds`` holds the indices where the last
    two start. Per piece, ``coef`` holds the series
    coefficients of i**k / k! for k = 1..SERIES_TERMS, zero below k0; on
    power pieces they are divided by q = p + 1 + k where q is not 0, and
    negated from a > 0, where the series multiplies them by
    expm1(q log(rho)). ``q`` holds the rows q; ``zero_row`` the row where q
    is 0 on a power piece from a > 0, -1 elsewhere, or None when there is
    none; and ``edge_lag`` the Laguerre sum at the series edge, read for
    power pieces.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    p: np.ndarray
    hi: np.ndarray
    k0: np.ndarray
    ray: np.ndarray
    nodes: np.ndarray
    kinds: tuple[int, int]
    coef: np.ndarray
    q: np.ndarray
    zero_row: np.ndarray | None
    edge_lag: np.ndarray

    @classmethod
    def build(cls, rows: list[tuple]) -> "_Pieces":
        """Pieces from rows (a, b, c, p, hi, k0, ray, e), e () for power segments."""
        kind = [2 if r[7] else int(r[0] > 0.0) for r in rows]
        rows = [r for _, r in sorted(zip(kind, rows), key=lambda pair: pair[0])]
        n0, n1 = kind.count(0), kind.count(0) + kind.count(1)
        a, b, c, p, hi, k0, ray_ = np.array([r[:7] for r in rows]).T
        width = max(len(r[7]) for r in rows)
        nodes = np.array([_form_nodes(r[7]) + [np.nan] * (width - len(r[7])) for r in rows])
        q = p + 1.0 + _TERM_K
        coef = _TERM_COEF * (_TERM_K >= k0)
        coef[:, :n1] /= np.where(q[:, :n1] == 0.0, 1.0, q[:, :n1])
        coef[:, n0:n1] *= -1.0
        zero_row = [_zero_term_row(r[3], r[5]) if n0 <= i < n1 else -1 for i, r in enumerate(rows)]
        return cls(
            a, b, c, p, hi, k0, ray_.astype(int), nodes, (n0, n1), coef, q,
            np.array(zero_row) if max(zero_row) >= 0 else None,
            _fold_sum(_LAG_WEIGHTS[:, None] * np.exp(_LOG_1IS_EDGE * p)),
        )

    def _node_groups(self, k: np.ndarray):
        """(mask over k, node columns) per node count of the log-form pieces k."""
        counts = np.count_nonzero(self.nodes[k] == self.nodes[k], axis=1)  # not nan
        for n in np.unique(counts):
            yield counts == n, list(self.nodes[k[counts == n], :n].T)

    def _form_ratios(self, k, q, a, b) -> np.ndarray:
        """:func:`_form_ratio` of log-form pieces k over (a, b), elements down the last axis."""
        with np.errstate(divide="ignore"):
            S, A = _log_ratio(b, a), _log_ratio(self.hi[k], b)
        out = np.empty(np.broadcast_shapes(q.shape, S.shape))
        for at, nodes in self._node_groups(k):
            out[..., at] = _form_ratio(nodes, q[..., at], A[..., at], S[..., at])
        return out

    def add_exponent(self, out: np.ndarray, Y: np.ndarray, dirs: np.ndarray) -> None:
        """Add to out, per row y of Y, the pieces' jump integrals summed.

        A piece's is c * integral of r**p F(r) (exp(i w r) - 1 - i w r [r <= 1])
        over (a, b), with w the projection of y on the piece's ray, from the
        ray directions ``dirs`` (rays x dim) as ordered column sums.
        Rows go in blocks of at most PIECE_CHUNK_ELEMENTS (rows x pieces)
        elements, which share one work buffer for the series terms, so
        memory stays bounded for any batch and the buffer is paged in once.
        """
        n = Y.shape[0]
        step = max(1, PIECE_CHUNK_ELEMENTS // self.a.size)
        work = np.empty((2, SERIES_TERMS * min(n, step) * self.a.size))
        for lo in range(0, n, step):
            y = Y[lo : lo + step]
            proj = dirs[:, :1] * y[:, 0]
            for c in range(1, y.shape[1]):
                proj += dirs[:, c : c + 1] * y[:, c]
            out[lo : lo + step] += self._block(proj, work)

    def _block(self, proj: np.ndarray, work: np.ndarray) -> np.ndarray:
        """The sum over pieces for one block of rows, from their projections (rays x n).

        Elements (piece, row) are taken piece-major and split by the edge
        radius 8/|w|: the part of (a, b) below it goes to the power series
        (:meth:`_series`), the part above to the rotated contour
        (:meth:`_tails`); an element may have both. Both run at |w|, and
        w < 0 takes the conjugate, since F is real on the real axis; w = 0
        gives exactly 0. Pieces add per row by a fold in table order.
        """
        n = proj.shape[1]
        w = proj[self.ray]
        W = np.abs(w)
        # no edge at w = 0, which falls in neither part
        edge = SERIES_EDGE / np.where(W > 0.0, W, np.nan)
        W, edge = W.ravel(), edge.ravel()
        val = np.zeros(W.size, dtype=complex)
        below = (edge.reshape(w.shape) > self.a[:, None]).ravel().nonzero()[0]
        if below.size:
            val[below] = self._series(below // n, W[below], edge[below], work)
        above = (edge.reshape(w.shape) < self.b[:, None]).ravel().nonzero()[0]
        if above.size:
            val[above] += self._tails(above // n, W[above], edge[above])
        val = val.reshape(w.shape)
        val *= self.c[:, None]
        np.negative(val.imag, out=val.imag, where=w < 0.0)
        return _fold_sum(val)

    def _series(
        self, k: np.ndarray, W: np.ndarray, edge: np.ndarray, work: np.ndarray
    ) -> np.ndarray:
        """The integral over (a, top), top = min(edge, b), for elements of pieces k.

        Termwise it is the sum over k0 <= j of (i W)**j / j! times the
        integral M_j of r**j against the piece at c = 1 over (a, top). With
        z = W top, that is top**(p+1) times the sum of (i z)**j / j! *
        M_j / top**(p+1+j). For a power piece, with rho = a / top and
        q = p + j + 1, the ratio is (1 - rho**q) / q, so no term cancels at
        its two ends: 1/q from a = 0, and -log(rho) at q = 0. The table's
        coefficients hold the -1/q, so from a > 0 the terms take
        expm1(q log(rho)), or log(rho) at q = 0 (:func:`_log_ratio`). A log
        form's is :func:`_form_ratio`, set to zero below k0, where from
        a = 0 it may diverge. Each element keeps its terms while z**j / j!
        is at least 1e-18 of min(1, z**2 / 2) (``_KEEP``); the rest are
        zeroed, and the real and imaginary parts fold over the term rows in
        the order of all SERIES_TERMS rows, so the value does not depend on
        the other elements. The term tables live in the two rows of
        ``work``.
        """
        p = self.p[k]
        top = np.minimum(edge, self.b[k])
        z = W * top
        last = 2 + np.searchsorted(_KEEP, z, "right")
        # an even row count pairs each odd term with the even one after it
        rows, m = int(last.max() + 1) & ~1, z.size
        terms = _powers(z, work[0, : rows * m].reshape(rows, m))
        tmp = work[1, : rows * m].reshape(rows, m)
        terms *= np.take(self.coef[:rows], k, axis=1, out=tmp, mode="clip")
        i1, i2 = np.searchsorted(k, self.kinds)
        if i2 > i1:
            kk = k[i1:i2]
            log_rho = _log_ratio(self.a[kk], top[i1:i2])
            ratio = work[1, : rows * kk.size].reshape(rows, kk.size)
            np.take(self.q[:rows], kk, axis=1, out=ratio, mode="clip")
            ratio *= log_rho
            np.expm1(ratio, out=ratio)
            if self.zero_row is not None:
                zero = self.zero_row[kk]
                at = np.flatnonzero((zero >= 0) & (zero < rows))
                ratio[zero[at], at] = log_rho[at]
            terms[:, i1:i2] *= ratio
        if k.size > i2:
            kk = k[i2:]
            ratio = self._form_ratios(kk, self.q[:rows, kk], self.a[kk], top[i2:])
            ratio[_TERM_K[:rows] < self.k0[kk]] = 0.0
            terms[:, i2:] *= ratio
        terms *= np.less_equal(_TERM_K[:rows], last, out=tmp)
        terms += 0.0  # no -0.0 rows, so the fold reads absent rows as zeros
        # rows of (odd term, even term) pairs: imaginary then real parts
        odd_even = _fold_sum(terms.reshape(rows // 2, 2 * m), SERIES_TERMS // 2)
        scale = top ** (p + 1.0)
        out = np.empty(m, dtype=complex)
        out.real = odd_even[m:] * scale
        out.imag = odd_even[:m] * scale
        return out

    def _tails(self, k: np.ndarray, W: np.ndarray, edge: np.ndarray) -> np.ndarray:
        """The integral over (x, b), x = max(edge, a), for elements of pieces k.

        It is T(x) - T(b) - P_0 - i W P_1, where T is :meth:`_rotated_tail`
        and P_j the integral of r**j against the piece at c = 1 over
        (x, b). An unbounded piece has T(b) = 0 and P_0 = -x**(p+1)/(p+1);
        a raw piece (k0 = 1) takes P_1 over (x, x), that is 0.
        """
        m, b = k.size, self.b[k]
        x = np.maximum(edge, self.a[k])
        bounded = b < math.inf
        ends = np.concatenate([x, np.where(bounded, b, x)])
        T = self._rotated_tail(np.concatenate([k, k]), ends, np.concatenate([W, W]))
        moments = self._moments(k, x, np.array([b, np.where(self.k0[k] == 2, b, x)]))
        val = T[:m] - T[m:] * bounded - moments[0]
        val -= 1j * W * moments[1]
        return val

    def _moments(self, k: np.ndarray, x: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """Integrals of r**j against pieces k at c = 1 over (x, ends[j]), rows j = 0, 1."""
        q = self.p[k] + _MOMENT_Q
        out = _ints_from(x, ends, q)
        log = k >= self.kinds[1]
        if log.any():
            b = ends[:, log]
            out[:, log] = b ** q[:, log] * self._form_ratios(k[log], q[:, log], x[log], b)
        return out

    def _rotated_tail(self, k: np.ndarray, x: np.ndarray, W: np.ndarray) -> np.ndarray:
        """T(x) = integral of r**p F(r) exp(i W r) over (x, inf), for W x >= SERIES_EDGE.

        On the contour r = x (1 + i v / a), a = W x, the oscillation turns
        into decay: T(x) = i exp(i a) x**p / W times the integral of
        (1 + i v/a)**p F(x (1 + i v/a)) exp(-v) over v > 0, which the fixed
        Gauss-Laguerre rule takes (:func:`_laguerre_sum`); F is analytic in
        the upper half plane. The contour continues T to p >= -1, where the
        real integral diverges; a difference T(x) - T(b) is the integral
        over (x, b) for every p. A power piece at the edge, a =
        SERIES_EDGE, reads its Laguerre sum from the table.
        """
        a = np.maximum(W * x, SERIES_EDGE)
        lag = self.edge_lag[k]
        need = np.flatnonzero((a > SERIES_EDGE) | (k >= self.kinds[1]))
        if need.size:
            kn = k[need]
            cols = np.flatnonzero(kn >= self.kinds[1])
            forms = []
            if cols.size:
                kf, log_hi_x = kn[cols], _log_ratio(self.hi[kn[cols]], x[need][cols])
                forms = [(cols[at], nodes, log_hi_x[at]) for at, nodes in self._node_groups(kf)]
            lag[need] = _laguerre_sum(self.p[kn], a[need], forms)
        return 1j * np.exp(1j * a) * x ** self.p[k] / W * lag


def _piece_rows(segments: Iterable[Segment], ray_index: int) -> list[tuple]:
    """Rows (a, b, c, p, hi, k0, ray, e) of the segments' pieces below and above radius 1."""
    rows = []
    for sg in segments:
        if sg.c == 0.0:
            continue
        if math.isinf(sg.hi) and sg.p >= -1.0:
            raise InvalidMeasureError(
                f"unbounded segment needs p < -1 for finite mass, got p={sg.p}"
            )
        top, bottom = min(sg.hi, 1.0), max(sg.lo, 1.0)
        if top > sg.lo:
            rows.append((sg.lo, top, sg.c, sg.p, sg.hi, 2, ray_index, sg.e))
        if sg.hi > bottom:
            rows.append((bottom, sg.hi, sg.c, sg.p, sg.hi, 1, ray_index, sg.e))
    return rows


@dataclass(frozen=True, eq=False)
class JumpTables:
    """A jump measure compiled into flat tables for its exponent.

    ``jumps`` (K x dim) holds every atom and tabulated-tail node as a jump
    vector r * direction, with its mass in ``masses``; a tail's nodes
    carry the weights of its endpoint-average rule (:meth:`GridTail._node_weights`).
    ``comp`` is the sum of the jumps inside the unit ball times their
    masses, the compensation as one drift vector. ``dirs`` (rays x dim)
    holds the ray directions and ``pieces`` the segment-piece table, or
    None when there are no segments.
    """

    dirs: np.ndarray
    jumps: np.ndarray
    masses: np.ndarray
    comp: np.ndarray
    pieces: _Pieces | None

    @classmethod
    def build(cls, dim: int, rays: Iterable[tuple[np.ndarray, "RadialMeasure"]]) -> "JumpTables":
        """Tables of the rays given as (direction, radial measure) pairs."""
        dirs, jumps, masses, comp, rows = [], [np.zeros((0, dim))], [np.zeros(0)], np.zeros(dim), []
        for index, (direction, radial) in enumerate(rays):
            dirs.append(direction)
            rows += _piece_rows(radial.segments, index)
            if not radial.atoms and radial.grid_tail is None:
                continue
            r = np.array([at.r for at in radial.atoms], dtype=float)
            m = np.array([at.m for at in radial.atoms], dtype=float)
            m_comp = m * (r <= 1.0)
            if radial.grid_tail is not None:
                wt_below, wt_above = radial.grid_tail._node_weights
                r = np.concatenate([r, radial.grid_tail._unit_split[0]])
                m = np.concatenate([m, wt_below + wt_above])
                m_comp = np.concatenate([m_comp, wt_below])
            jumps.append(np.multiply.outer(r, direction))
            masses.append(m)
            comp = comp + float(r @ m_comp) * direction
        return cls(
            np.array(dirs, dtype=float).reshape(-1, dim),
            np.concatenate(jumps),
            np.concatenate(masses),
            comp,
            _Pieces.build(rows) if rows else None,
        )

    def exponent(self, Y: np.ndarray, drift: np.ndarray) -> np.ndarray:
        """i<y, drift> plus the uncompensated jump integral, per row y of Y.

        Passing drift = -comp gives the compensated jump integral. Atoms
        and nodes go through one :func:`_cis_m1` call, segments through
        the piece table (:meth:`_Pieces.add_exponent`).
        """
        if self.masses.size:
            out = _cis_m1(Y, self.jumps, self.masses)
        else:
            out = np.zeros(Y.shape[0], dtype=complex)
        if np.any(drift):
            out.imag += _dot(Y, drift)
        if self.pieces is not None:
            self.pieces.add_exponent(out, Y, self.dirs)
        return out


@dataclass(frozen=True, eq=False)
class Ray:
    """Unit direction paired with its radial measure."""

    direction: np.ndarray
    radial: RadialMeasure

    def __post_init__(self):
        d = np.atleast_1d(np.asarray(self.direction, dtype=float)).copy()
        d.setflags(write=False)
        object.__setattr__(self, "direction", d)

    def issues(self, idx: int) -> list[str]:
        label = f"ray {idx}"
        out = []
        if self.direction.ndim != 1:
            out.append(f"{label}: direction must be a vector")
            return out
        nrm = float(np.linalg.norm(self.direction))
        if abs(nrm - 1.0) > UNIT_NORM_TOL:
            out.append(f"{label}: direction norm {nrm!r} is not 1")
        out.extend(self.radial.issues(label))
        return out


@dataclass(frozen=True, eq=False)
class SpectralMeasure:
    """Jump measure given in polar form as a finite set of rays."""

    dim: int
    rays: tuple[Ray, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "rays", tuple(self.rays))

    def issues(self) -> list[str]:
        out = []
        if self.dim < 1:
            out.append(f"dim must be >= 1, got {self.dim}")
        for k, ray in enumerate(self.rays):
            if ray.direction.shape != (self.dim,):
                out.append(
                    f"ray {k}: direction shape {ray.direction.shape} does not "
                    f"match dim {self.dim}"
                )
                continue
            out.extend(ray.issues(k))
        shaped = [k for k, ray in enumerate(self.rays) if ray.direction.shape == (self.dim,)]
        for k, v in zip(shaped, _min1r2([self.rays[k].radial for k in shaped])):
            if not math.isfinite(v):
                out.append(f"ray {k}: integral of min(1, r^2) diverges")
        return out

    @cached_property
    def is_valid(self) -> bool:
        return not self.issues()

    @cached_property
    def tables(self) -> JumpTables:
        """The flat tables the exponent runs from, built once."""
        return JumpTables.build(
            self.dim, [(r.direction, r.radial) for r in self.rays if not r.radial.is_empty()]
        )

    def require_valid(self) -> None:
        if not self.is_valid:
            raise InvalidMeasureError("; ".join(self.issues()))

    def log_moment(self) -> float:
        """Integral of log(|x|) over |x| > 1; inf when divergent."""
        return sum(ray.radial.log_moment() for ray in self.rays)

    def scaled(self, factor: float) -> "SpectralMeasure":
        return SpectralMeasure(
            self.dim, tuple(Ray(r.direction, r.radial.scaled(factor)) for r in self.rays)
        )

    def __add__(self, other: "SpectralMeasure") -> "SpectralMeasure":
        if not isinstance(other, SpectralMeasure):
            return NotImplemented
        if self.dim != other.dim:
            raise DimensionMismatchError(
                f"cannot add measures of dims {self.dim} and {other.dim}"
            )
        merged: list[Ray] = list(self.rays)
        for ray in other.rays:
            for i, mine in enumerate(merged):
                if np.array_equal(mine.direction, ray.direction):
                    merged[i] = Ray(mine.direction, mine.radial + ray.radial)
                    break
            else:
                merged.append(ray)
        return SpectralMeasure(self.dim, tuple(merged))


def ray(
    direction: Sequence[float] | float,
    atoms: Iterable[tuple[float, float]] = (),
    segments: Iterable[tuple[float, ...]] = (),
    grid_tail: GridTail | None = None,
) -> Ray:
    """Convenience builder: ray from plain tuples.

    Segments are (lo, hi, c, p), or (lo, hi, c, p, e) in log form, e a
    number or a sequence of offsets.
    """
    if np.isscalar(direction):
        direction = [float(direction)]
    return Ray(
        np.asarray(direction, dtype=float),
        RadialMeasure(
            tuple(Atom(float(r), float(m)) for r, m in atoms),
            tuple(Segment(*(float(v) for v in sg[:4]), *sg[4:]) for sg in segments),
            grid_tail,
        ),
    )
