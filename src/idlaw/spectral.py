"""Polar representations of jump (Levy) measures.

A measure is a finite family of rays. Each ray carries a unit direction and
a radial measure on (0, inf) made of point atoms, power-law density
segments c * r**p on (lo, hi] (hi may be inf), and optionally a tabulated
right-tail function, read as what it stores: p = 0 segments on its cells
and an atom at its last node. Segments may overlap and carry negative
scales as long as their sum is certified nonnegative; that is how the
exact image of a power segment under a map, a difference of two power
terms, is held. Admissibility means integral of min(1, r**2) against the
radial part is finite on every ray.

A measure's exponent runs from flat tables built once per measure
(:class:`JumpTables`). Atoms become one (jumps x dim) table of jump
vectors r * direction with their masses, summed by the one kernel for
exp(i theta) - 1, :func:`_cis_m1`, which the closed-form compound-Poisson
exponent shares; a tabulated tail's cells take that kernel too, by parts
at their nodes (:class:`_Cells`); the compensation of jumps inside the
unit ball is one drift vector. Segments, split at radius 1, become rows
of a piece table (:class:`_Pieces`), which one array program evaluates
for all (row, piece) elements of a batch at once.
Every step sums in an order set by the tables alone, so a row's value
does not depend on its batch.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import zip_longest
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
# a grid-tail node's G(theta) = exp(i theta) - 1 - i theta takes its series,
# n = 2..CELL_TERMS, below |theta| = CELL_EDGE: to 4e-20 of the node's weight;
# from CELL_SERIES_R on, where r**CELL_TERMS nears the float range, node by node
CELL_EDGE = 0.5
CELL_TERMS = 16
CELL_SERIES_R = 1e18
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
_TINY, _HUGE = sys.float_info.min, sys.float_info.max  # the normal double range
# 1/k! for k = 0..SERIES_TERMS, correctly rounded (int / int rounds once)
_INV_FACT = np.array([1 / math.factorial(k) for k in range(SERIES_TERMS + 1)])
# the series terms k = 1..SERIES_TERMS as a column, and the real
# coefficients of i**k / k!: real part for even k, imaginary for odd
_TERM_K = np.arange(1.0, SERIES_TERMS + 1.0)[:, None]
_TERM_COEF = (-1.0) ** (_TERM_K // 2) * _INV_FACT[1:, None]
# the coefficients with the terms below k0 zeroed, one column per k0 = 0, 1, 2
_K0_COEF = _TERM_COEF * (_TERM_K >= np.arange(3.0))


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


# an element with z = |w| top keeps the terms up to k = 2 + searchsorted(_KEEP, z, "right"):
# term k where z reaches row k - 1 of _TERM_KEEP, and terms 1 and 2 always
_KEEP = _keep_thresholds()
_TERM_KEEP = np.concatenate([[-math.inf, -math.inf], _KEEP])[:, None]
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


def _cis_m1(Y: np.ndarray, H: np.ndarray, m2: np.ndarray, start=None) -> np.ndarray:
    """Sum over atoms k of m_k (exp(i theta_jk) - 1), per row j of the float grid Y.

    The atoms come as their jumps J halved, H = J/2 (atoms x dim), and
    their masses doubled, as a column m2 = 2 m: a table built once keeps
    them so. The half angles are sums over c of Y[j, c] H[k, c], built as
    elementwise products in column order, never a matrix product; halving
    is exact, so they are the rounded angles halved. Each angle takes one
    libm call, the tangent of the half angle t = tan(theta/2): with
    q = t/(1 + t**2), cos(theta) - 1 = -2 t q and sin(theta) = 2 q, so
    there is no cancellation near theta = 0, and t**2 stays finite next to
    odd multiples of pi, where t is largest. Atoms go in tiles of at most
    ``CIS_CHUNK_ELEMENTS`` and rows in blocks that keep (atoms x rows)
    within it, so temporaries stay in cache whatever the batch size. A
    block's atoms are summed by halving, in an order set by the tile's
    atom count alone, and tiles add in order; so every row rounds the same
    in any batch. With ``start``, row j sums only the atoms k >= start[j]:
    the others get angle 0.
    """
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
            if start is not None:
                t *= np.arange(a, a + h.shape[0])[:, None] >= start[lo : lo + rows]
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
    """Y @ v as a sum of columns in order, so each row rounds alike in any batch.

    The sum starts from the first column's product plus 0.0, which rounds
    as 0.0 plus it would, -0.0 included.
    """
    out = Y[:, 0] * v[0]
    out += 0.0
    for c in range(1, Y.shape[1]):
        out += Y[:, c] * v[c]
    return out


def _quad_form(Y: np.ndarray, S: np.ndarray) -> np.ndarray:
    """<y, S y> for each row y of Y, summed in order like :func:`_dot`."""
    out = _dot(Y, S[0]) * Y[:, 0]
    out += 0.0
    for c in range(1, Y.shape[1]):
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


def _log_ratio(x, y):
    """log(x/y) for x, y >= 0, accurate relative to the result as x/y -> 1.

    The rounding of x/y costs log(x/y) up to eps/(2 |log(x/y)|) relative:
    16 eps while x and y differ by y/32, without bound as x/y -> 1. Closer
    than that, x - y is exact, and log1p((x - y)/y) keeps full accuracy.
    Where x/y leaves the normal range it is log(x) - log(y); an array caller
    whose x/y may overflow holds an errstate, as :meth:`RadialMeasure.moment` does.
    """
    d = x - y
    close = np.abs(d) < y / 32.0
    out = np.log(x / y)
    far = np.abs(out) >= -math.log(_TINY)  # x/y lost bits below the normal range, or overflowed
    if np.count_nonzero(far):
        out = np.where(far, np.log(x) - np.log(y), out)
    if not np.count_nonzero(close):
        return out
    if np.ndim(out) == 0:
        return np.log1p(d / y)
    return np.log1p(d / y, out=out, where=close)


def _power_ints(a, b, q) -> np.ndarray:
    """Integral of r**(q-1) over (a, b), per 0 <= a <= b <= inf, broadcast over a, b and q.

    From a > 0 to b < inf it is :func:`_ints_from`'s product; from a = 0 it is
    b**q/q and to b = inf -a**q/q, or inf where that diverges.
    """
    a = np.asarray(a, dtype=float)
    pos = a > 0.0
    inner = pos & (b < math.inf)
    n_inner = np.count_nonzero(inner)
    if n_inner == np.size(inner):
        end, ratio = _ints_from(a, b, q)
        return end ** q * ratio
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # finite from a = 0 for q > 0, to b = inf for q < 0
        ends = np.where((q < 0.0) == pos, np.where(pos, a, b) ** q / np.where(pos, -q, q), math.inf)
        if not n_inner:
            return ends
        end, ratio = _ints_from(a, b, q)
        return np.where(inner, end ** q * ratio, ends)


def _ints_from(a, b, q) -> tuple[np.ndarray, np.ndarray]:
    """The integral of r**(q-1) over (a, b), 0 < a <= b < inf, as end**q times a ratio.

    Broadcast over a, b and q. With S = log(b/a) by :func:`_log_ratio` it is
    a**q expm1(q S)/q up to q S = 36, and b**q expm1(-q S)/-q past it, where the
    first's exp would carry the rounding of S up to q S eps/2, and overflow past
    709; S where q S underflows, as at q = 0. Callers multiply in their own order;
    end is a itself where nothing is far, as a power of a broadcast a may round apart.
    """
    span = _log_ratio(b, a)
    far = q * span > 36.0
    end, e = (np.where(far, b, a), np.where(far, -q, q)) if np.count_nonzero(far) else (a, q)
    small = np.abs(et := e * span) < _TINY
    if np.count_nonzero(small):
        return end, np.where(small, span, np.expm1(et) / np.where(small, 1.0, e))
    return end, np.expm1(et) / e


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

    ``tail[k]`` is the measure of (radii[k], inf); between nodes the tail
    is linear in r, and there is no mass below radii[0]. So the measure
    is exactly :attr:`cells`: a p = 0 power segment on each cell, density
    (tail[k] - tail[k+1])/(radii[k+1] - radii[k]), and the residual
    tail[-1] as an atom at the last node. Every reader takes it so.
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
    def cells(self) -> tuple[tuple[Atom, ...], tuple[Segment, ...]]:
        """(atoms, segments): the end atom and a p = 0 segment per cell of :attr:`_unit_split`.

        A tail that rises by a hair (as :meth:`issues` allows) reads as no
        mass there; cells and an end atom without mass are left out.
        """
        r, t = self._unit_split
        density = np.maximum(-np.diff(t), 0.0) / np.diff(r)
        segments = tuple(
            Segment(lo, hi, c, 0.0)
            for lo, hi, c in zip(r[:-1].tolist(), r[1:].tolist(), density.tolist()) if c > 0.0
        )
        return ((Atom(float(r[-1]), float(t[-1])),) if t[-1] > 0.0 else ()), segments

    @cached_property
    def _radial(self) -> "RadialMeasure":
        return RadialMeasure(grid_tail=self)

    def exponent_integral(self, w: np.ndarray) -> np.ndarray:
        """Jump-part integrand against the tabulated measure, batched over w:
        :meth:`RadialMeasure.exponent_integral` of this tail alone."""
        return self._radial.exponent_integral(w)

    def scaled(self, factor: float) -> "GridTail":
        return GridTail(self.radii, self.tail * factor)


@dataclass(frozen=True, eq=False)
class RadialMeasure:
    """Radial part of one ray: atoms, segments and optionally a grid tail.

    Readers take :attr:`parts`, where the grid tail's cells join the atoms
    and segments; only the exponent's tables keep them apart (:class:`JumpTables`).
    """

    atoms: tuple[Atom, ...] = ()
    segments: tuple[Segment, ...] = ()
    grid_tail: GridTail | None = None

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(self.atoms))
        object.__setattr__(self, "segments", tuple(self.segments))

    def is_empty(self) -> bool:
        return not self.atoms and not self.segments and self.grid_tail is None

    @cached_property
    def parts(self) -> tuple[tuple[Atom, ...], tuple[Segment, ...]]:
        """Atoms and segments, with the grid tail's cells after the measure's own."""
        if self.grid_tail is None:
            return self.atoms, self.segments
        atoms, segments = self.grid_tail.cells
        return self.atoms + atoms, self.segments + segments

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

    def moment(self, k, u) -> np.ndarray:
        """Integral of (r/u)**k over r > u against the measure, k broadcast against u >= 0.

        Atoms add m (r/u)**k, its limit 1, 0 or inf where r/u passes the double range
        toward u = 0, and each segment u**-k :func:`_moment` over its part (a, hi) of
        (u, inf), in the order of :attr:`parts`; inf where it diverges. Where u**k leaves the
        normal range, or the parts' sum before u**-k is not finite or below 2**-970, where a
        part below that range could count, a power segment adds c e**(p+1) (d/e)**(p+1)
        (d/u)**k times its moment over (a/d, hi/d) instead, d the part's dominant end and e
        the segment's. At u = 1 it is the moment of r**k, at k = 0 the mass. An atom at u is
        left out, and parts at or below every u are skipped.
        """
        k, u = np.asarray(k, dtype=float), np.asarray(u, dtype=float)
        val = np.zeros(np.broadcast(k, u).shape)
        floor = u.min(initial=math.inf)
        atoms, segments = self.parts
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for at in atoms:
                if at.r > floor:
                    val += at.m * np.where(u < at.r, (at.r / u) ** k, 0.0)
            uk, atoms_val, live = u ** k, val.copy(), [sg for sg in segments if sg.hi > floor]
            total = 0.0  # the parts before u**-k: one below the normal range is < 2**-52 of it
            for sg in live:
                part = sg.c * _moment(sg, u.clip(sg.lo, sg.hi), sg.hi, k)
                total = total + part
                val += part / uk
            mag, top = np.abs(total), max((sg.hi for sg in live), default=0.0)
            redo = (uk < _TINY) | (uk > _HUGE) | ~(mag <= _HUGE) | ((mag < 2.0**-970) & (u < top))
            if np.count_nonzero(redo):
                kk, uu = (np.broadcast_to(x, val.shape)[redo] for x in (k, u))
                val[redo] = atoms_val[redo]
                for sg in live:
                    a, e = uu.clip(sg.lo, sg.hi), sg.lo if sg.lo > 0.0 and sg.p < -1.0 else sg.hi
                    if sg.e or math.isinf(e):
                        part = sg.c * _moment(sg, a, sg.hi, kk) / uu ** kk
                    else:
                        d = np.where((sg.p + kk + 1.0 > 0.0) & (sg.hi < math.inf), sg.hi, a)
                        part = sg.c * np.float64(e) ** (sg.p + 1.0) * (d / e) ** (sg.p + 1.0)
                        part *= (d / uu) ** kk * _moment(sg, a / d, sg.hi / d, kk)
                    val[redo] += np.where(a < sg.hi, part, 0.0)  # an empty part reads 0
        return val

    def tail(self, u) -> np.ndarray:
        """Measure of (u, inf), vectorized over u >= 0: :meth:`moment` at k = 0."""
        return self.moment(0.0, u)

    def log_moment(self) -> float:
        """Integral of log(r) over r > 1; inf when divergent."""
        val = 0.0
        atoms, segments = self.parts
        for at in atoms:
            if at.r > 1.0:
                val += at.m * math.log(at.r)
        for sg in segments:
            # with L = max(lo, 1), the log moment about L plus log(L) times
            # the mass above L
            lo = max(sg.lo, 1.0)
            if sg.hi > lo:
                seg = _log_moment(sg, lo, sg.hi)
                if lo > 1.0:
                    seg = seg + math.log(lo) * _moment(sg, lo, sg.hi, 0)
                val += sg.c * float(seg)
        return val

    @cached_property
    def tables(self) -> JumpTables:
        """This measure's tables, as the one ray of a dim-1 measure."""
        return JumpTables.build(1, [(np.ones(1), self)])

    def exponent_integral(self, w: np.ndarray) -> np.ndarray:
        """Jump integrand against this measure, batched over signed arguments w.

        Computes, for each w, the integral of
        exp(i*w*r) - 1 - i*w*r*[r <= 1] over r, from :attr:`tables`. Atoms
        are point masses, and grid-tail cells sum by parts at their nodes.
        Segments, power and log form alike, take a closed form: a power
        series in |w| r up to SERIES_EDGE, and past it a fixed
        Gauss-Laguerre rule along a contour in the upper half plane, where
        the oscillation becomes decay. No piece runs a quadrature, and the
        error is at rounding level at any |w|. Every piece takes w of
        either sign, so the value at -w is the conjugate of the one at w
        piece by piece.
        """
        w = np.asarray(w, dtype=float).ravel()
        comp = self.tables.comp
        return self.tables.exponent(w[:, None], -comp if np.any(comp) else None)

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
        if self.grid_tail is not None and other.grid_tail is not None:
            other = RadialMeasure(*other.parts)  # one grid tail stays a table
        grid_tail = self.grid_tail or other.grid_tail
        return RadialMeasure(self.atoms + other.atoms, self.segments + other.segments, grid_tail)


def _min1r2(radials: Sequence[RadialMeasure]) -> np.ndarray:
    """Integral of min(1, r**2) against each radial measure.

    Atoms and log forms add one at a time. The nonempty ranges of all
    power segments, grid-tail cells included, take one array pass through
    :func:`_power_ints`: r**2 over a segment's part of (0, 1] and 1 over
    its part of (1, inf). A divergent range reads inf.
    """
    out = np.zeros(len(radials))
    rows = []
    for i, rad in enumerate(radials):
        atoms, segments = rad.parts
        for at in atoms:
            out[i] += at.m * min(1.0, at.r * at.r)
        for sg in segments:
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


def _summed(groups) -> list[tuple[float, list[float]]]:
    """Groups P(t) exp(p t), t = log r, held as (p, coefficients of 1, t, ...), summed by p.

    Sorted by p; zero top coefficients and zero groups are dropped.
    """
    acc: dict[float, list[float]] = {}
    for p, P in groups:
        Q = acc.get(p)
        acc[p] = list(P) if Q is None else [x + y for x, y in zip_longest(Q, P, fillvalue=0.0)]
    for P in acc.values():
        while P and P[-1] == 0.0:
            P.pop()
    return [(p, acc[p]) for p in sorted(acc) if acc[p]]


def _groups(sg: Segment) -> list[tuple[float, list[float]]] | None:
    """One segment's density as (p, P) groups; None if its weights are not finite.

    A power segment is one group of degree 0. A log form c r**p D(log(hi)
    - t) is the sum of the residues of c exp(p t) hi**z exp(-z t)/W(z) at
    its nodes n, W the product of (z - v)**m_v over the nodes v, each held
    m_v times: a group of exponent p - n and degree m_n - 1 with P_i =
    (-1)**i G_(m_n-1-i)/i!, G_k the Taylor coefficients at n of c hi**z
    (z - n)**m_n/W(z). G' = G h, h = log(hi) + the sum of m_v/(v - z) over
    the other nodes. Weights are not finite as when nodes 3.8e-239 apart
    make 1/W overflow. On a form with lo > 0, a node within eps /
    log(hi/lo) of the one below is taken as that node: their two groups,
    of size 1/gap, would cancel to rounding, and the merged node moves the
    density by a relative gap log(hi/r) of at most eps.
    """
    if not sg.e:
        return [(sg.p, [sg.c])]
    nodes = _form_nodes(sg.e)
    span = math.log(sg.hi / sg.lo) if sg.lo > 0.0 else math.inf
    for k in range(1, len(nodes)):
        if (nodes[k] - nodes[k - 1]) * span <= sys.float_info.epsilon:
            nodes[k] = nodes[k - 1]
    mult, lam, groups = {n: nodes.count(n) for n in nodes}, math.log(sg.hi), []
    for n, m in mult.items():
        # products, not powers, so that a weight out of range reads inf, not an error
        inv = [(1.0 / (v - n), mv) for v, mv in mult.items() if v != n]
        G = [sg.c * sg.hi ** n * math.prod(-a for a, mv in inv for _ in range(mv))]
        h = [lam * (k == 1) + sum(mv * math.prod([a] * k) for a, mv in inv) for k in range(1, m)]
        for k in range(1, m):
            G.append(sum(h[i] * G[k - 1 - i] for i in range(k)) / k)
        groups.append((sg.p - n, [(-1) ** i * G[m - 1 - i] / math.factorial(i) for i in range(m)]))
    return groups if all(math.isfinite(x) for _, P in groups for x in P) else None


def _sign(v: float) -> int:
    return (v > 0.0) - (v < 0.0)


def _sign_at(groups: list[tuple[float, list[float]]], t: float) -> int:
    """Sign of the sum of the groups at t, or its limit at t = -inf or inf.

    The limit has the sign of the last group's top coefficient at inf, and
    of the first group's times (-1)**degree at -inf. Powers of t are
    products, so where they overflow they read inf, not an error.
    """
    if math.isinf(t):
        P = groups[-1][1] if t > 0.0 else groups[0][1]
        return _sign(P[-1]) * (-1 if t < 0.0 and len(P) % 2 == 0 else 1)
    logs = [p * t for p, _ in groups]
    top = max(logs)
    vals = [reduce(lambda v, x: v * t + x, reversed(P), 0.0) * math.exp(lg - top)
            for (_, P), lg in zip(groups, logs)]
    return _sign(math.fsum(vals))


def _slope(groups: list[tuple[float, list[float]]]) -> list[tuple[float, list[float]]]:
    """Groups of the derivative in t: P(t) exp(p t) gives (p P + P')(t) exp(p t).

    Exponents shifted by the lowest one (see :func:`_sign_change_points`)
    can round to the same double, so groups are summed by p again.
    """
    return _summed((p, [p * x + k * y for k, (x, y) in enumerate(zip(P, P[1:] + [0.0]), 1)])
                   for p, P in groups)


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

    One group of degree at most 1 changes sign at most once, and two
    groups of degree 0 too, both in closed form. Otherwise the sum over
    the lowest exponential, exp(p_1 t), has the same sign changes, and its
    derivative has one degree of freedom fewer: the lowest group loses a
    degree, or vanishes at degree 0. By Rolle's theorem the derivative's
    sign changes, found by recursion, split (a, b) into pieces on which
    the sum is monotone: at most one change each, found by bisection. The
    piece ends are returned too.
    """
    if len(groups) == 1 and len(groups[0][1]) <= 2:
        P = groups[0][1]
        roots = [-P[0] / P[1]] if len(P) == 2 else []
    elif len(groups) == 2 and len(groups[0][1]) == 1 == len(groups[1][1]):
        (p0, (x0,)), (p1, (x1,)) = groups
        # the logs of |x0| and |x1|, since their ratio may leave the double range
        roots = [] if (x0 > 0.0) == (x1 > 0.0) else [
            (math.log(abs(x0)) - math.log(abs(x1))) / (p1 - p0)
        ]
    else:
        p0 = groups[0][0]
        slope = _slope([(p - p0, P) for p, P in groups])
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
    split = [(sg, _groups(sg)) for sg in segments]
    if any(gs is None and sg.c < 0.0 for sg, gs in split):
        return False
    # a positive log form without groups only adds to the density: the rest
    # is certified in its place
    segments = [sg for sg, gs in split if gs is not None]
    groups = _summed(g for _, gs in split if gs is not None for g in gs)
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
    out = np.empty(s.shape, dtype=complex)
    np.multiply(np.log1p(s * s), 0.5, out=out.real)
    np.arctan(s, out=out.imag)
    return out


# the power pieces' log(1 + i v/a) at the series edge a = SERIES_EDGE
_LOG_1IS_EDGE = _log_1is(np.array([SERIES_EDGE]))


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


# i exp(i a) at the series edge a = SERIES_EDGE, where every tail of a call
# that needs no Laguerre rule starts
_EDGE_TURN = 1j * np.exp(1j * np.array([SERIES_EDGE]))


@dataclass(frozen=True, eq=False)
class _Pieces:
    """Segments split at radius 1 into pieces, as columns with one entry per piece.

    A piece is c * r**p F(r) on (a, b) of a ray with direction ``dirs``
    (pieces x dim), F the density factor of its segment, 1 or a log form's;
    ``nodes`` holds its sorted nodes (:func:`_form_nodes`), padded with nan,
    and hi the segment's end. k0 = 2 marks the compensated kernel below
    radius 1, k0 = 1 the raw one above it. Pieces are sorted into power
    pieces from a = 0, bounded power pieces from a > 0, unbounded ones and
    log forms; ``kinds`` holds the indices where the last three start, and
    ``fold`` the order in which their values add, that of the segments
    with the bounded and unbounded pieces from a > 0 together, or None
    when it is the table's. Per piece, ``coef`` holds the series
    coefficients of i**k / k! for k = 1..SERIES_TERMS, zero below k0; on
    power pieces they are divided by q = p + 1 + k where q is not 0, and
    negated from a > 0, where the series multiplies them by
    expm1(q log(rho)). ``q`` holds the rows q and ``zero_rows`` the
    (piece, row) pairs where q is 0 on a power piece from a > 0. ``rest``
    is the top an element takes where it has no series part, so that its
    terms vanish: a on pieces from a > 0, where its tail then starts, and
    b on pieces from 0, which lack a series part only at w = 0.
    ``bounded_b`` is b on bounded pieces and 0 on unbounded ones, whose
    tails run apart. ``edge_lag`` holds the Laguerre sum at the series
    edge, taken once per distinct p of the power pieces; log forms never
    read it. ``p1`` holds p + 1, the q of the moment of r**0 and the
    exponent of the series' scale, and ``tail_p0`` holds -1/(p + 1) on the
    unbounded pieces, whose moment of r**0 over (x, inf) is
    x**(p+1) times it, and ``unbounded`` their indices, as columns.
    ``far_top`` holds the top past which a power piece from a > 0 takes its
    series in logs (:meth:`_series`), and inf on the other pieces.
    Everything a call only reads is built here, once per law.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    p: np.ndarray
    hi: np.ndarray
    k0: np.ndarray
    dirs: np.ndarray
    nodes: np.ndarray
    kinds: tuple[int, int, int]
    fold: np.ndarray | None
    coef: np.ndarray
    q: np.ndarray
    zero_rows: list[tuple[int, int]]
    rest: np.ndarray
    bounded_b: np.ndarray
    edge_lag: np.ndarray
    p1: np.ndarray
    tail_p0: np.ndarray
    unbounded: np.ndarray
    far_top: np.ndarray

    @classmethod
    def build(cls, rows: list[tuple], dirs: np.ndarray) -> "_Pieces":
        """Pieces from rows (a, b, c, p, hi, k0, ray, e), e () for power segments, on ``dirs``."""
        group = [3 if r[7] else 2 if r[1] == math.inf else int(r[0] > 0.0) for r in rows]
        order = sorted(range(len(rows)), key=group.__getitem__)
        fold = None
        if 2 in group and 1 in group[group.index(2) :]:
            # an unbounded piece comes before a bounded one from a > 0: values
            # add in the segments' order, those pieces together
            fold = sorted(range(len(rows)), key=lambda at: ((group[order[at]] + 1) // 2, order[at]))
        rows = [rows[i] for i in order]
        n0, nu, n1 = group.count(0), group.count(0) + group.count(1), len(rows) - group.count(3)
        a, b, c, p, hi, k0 = np.array([r[:6] for r in rows]).T
        width = max(len(r[7]) for r in rows)
        nodes = np.array([_form_nodes(r[7]) + [np.nan] * (width - len(r[7])) for r in rows[n1:]])
        p1 = p + 1.0
        q = p1 + _TERM_K
        coef = _K0_COEF[:, [r[5] for r in rows]]
        np.divide(coef[:, :n1], q[:, :n1], out=coef[:, :n1], where=q[:, :n1] != 0.0)
        coef[:, n0:n1] *= -1.0
        rest = np.where(a > 0.0, a, b)
        bounded_b = b.copy()
        bounded_b[nu:n1] = 0.0
        # the two pieces of a segment split at radius 1 share p, and the edge
        # sum is taken once per distinct p (the log forms read none: slot 0)
        slots: dict[float, int] = {}
        slot = [slots.setdefault(r[3], len(slots)) for r in rows[:n1]] + [0] * (len(rows) - n1)
        ps = np.array([*slots] or [0.0])
        sums = _fold_sum(_LAG_WEIGHTS[:, None] * np.exp(_LOG_1IS_EDGE * ps))
        # past far_top (at least a) the first term's expm1((p+2) log(a/top)) passes
        # exp(700), or top**p, the unbounded tail's x**p, falls below the normal range
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            steep = np.where(p < -2.0, a * np.exp(700.0 / -(p + 2.0)), math.inf)
            flat = np.where(p < 0.0, np.exp(math.log(_TINY) / p), math.inf)
        far_top = np.maximum(a, np.minimum(steep, flat))
        far_top[:n0] = far_top[n1:] = math.inf
        return cls(
            a, b, c, p, hi, k0, dirs[[r[6] for r in rows]], nodes, (n0, nu, n1),
            None if fold is None else np.array(fold), coef, q,
            [(i, row) for i in range(n0, n1)
             if (row := _zero_term_row(rows[i][3], rows[i][5])) >= 0],
            rest, bounded_b, sums[slot], p1,
            -1.0 / p1[nu:n1, None], np.arange(nu, n1)[:, None],
            far_top[:, None],
        )

    def _node_groups(self, k: np.ndarray):
        """(mask over k, node columns) per node count of the log-form pieces k."""
        nodes = self.nodes[k - self.kinds[2]]
        counts = np.count_nonzero(nodes == nodes, axis=1)  # not nan
        for n in np.unique(counts):
            yield counts == n, list(nodes[counts == n, :n].T)

    def _form_ratios(self, k, q, a, b) -> np.ndarray:
        """:func:`_form_ratio` of log-form pieces k over (a, b), elements down the last axis."""
        with np.errstate(divide="ignore"):
            S, A = _log_ratio(b, a), _log_ratio(self.hi[k], b)
        out = np.empty(np.broadcast_shapes(q.shape, S.shape))
        for at, nodes in self._node_groups(k):
            out[..., at] = _form_ratio(nodes, q[..., at], A[..., at], S[..., at])
        return out

    def add_exponent(self, out: np.ndarray, Y: np.ndarray) -> None:
        """Add to out, per row y of Y, the pieces' jump integrals summed.

        A piece's is c * integral of r**p F(r) (exp(i w r) - 1 - i w r [r <= 1])
        over (a, b), with w the projection of y on the piece's ray as an
        ordered column sum. Rows go in blocks of at most
        PIECE_CHUNK_ELEMENTS (rows x pieces) elements, so memory stays
        bounded for any batch.
        """
        n = Y.shape[0]
        step = max(1, PIECE_CHUNK_ELEMENTS // self.a.size)
        for lo in range(0, n, step):
            y = Y[lo : lo + step]
            w = self.dirs[:, :1] * y[:, 0]
            for c in range(1, y.shape[1]):
                w += self.dirs[:, c : c + 1] * y[:, c]
            out[lo : lo + step] += self._block(w)

    def _block(self, w: np.ndarray) -> np.ndarray:
        """The sum over pieces for one block of rows, from their projections w (pieces x n).

        Each element (piece, row) is split by the edge radius 8/|w|: the
        part of (a, b) below it goes to the power series (:meth:`_series`),
        which runs on all elements at once, the part above to the rotated
        contour. The unbounded pieces have that part at every w != 0 and
        take it together (:meth:`_rotated_tail`); the bounded ones have it
        where |w| b > 8, and take it element by element, piece-major
        (:meth:`_tails`). Both parts run at |w|, and w < 0 takes the
        conjugate, since F is real on the real axis; w = 0 gives exactly 0.
        Past the double range the edge is the largest double (the series takes
        such elements in logs, tails included). Pieces add per row by ``fold``.
        """
        nu, n1 = self.kinds[1:]
        n = w.shape[1]
        W = np.abs(w)
        moving = W > 0.0
        # no edge at w = 0, which falls in neither part
        with np.errstate(over="ignore"):
            edge = np.minimum(SERIES_EDGE / np.where(moving, W, np.nan), _HUGE)
        below = edge > self.a[:, None]
        # top ends the series part, or is rest where there is none; a part
        # above the edge starts at top, which is then max(edge, a)
        top = np.where(below, np.minimum(edge, self.b[:, None]), self.rest[:, None])
        scale = top ** self.p1[:, None]
        val, far = self._series(W, top, scale, below)
        above = (edge < self.bounded_b[:, None]).reshape(-1).nonzero()[0]
        if above.size:
            flat = val.reshape(-1)
            flat[above] += self._tails(above // n, W.reshape(-1)[above], top.reshape(-1)[above])
        if n1 > nu:
            # T(b) = 0 and P_0 = -x**(p+1)/(p+1) over (x, inf); the pieces are raw
            at = slice(nu, n1)
            w_top = W[at] * top[at]
            if far[0].size:  # the series holds far tails; they add none, and skip 1/|w|
                moving[far], W[far] = False, 1.0
            x = np.maximum(edge[at], self.a[at, None])  # top, and nan at w = 0
            tail = self._rotated_tail(self.unbounded, x, W[at], w_top)
            tail -= scale[at] * self.tail_p0
            np.add(val[at], tail, out=val[at], where=moving[at])
        val *= self.c[:, None]
        np.negative(val.imag, out=val.imag, where=w < 0.0)
        return _fold_sum(val if self.fold is None else val[self.fold])

    def _series(self, W: np.ndarray, top: np.ndarray, scale: np.ndarray, below: np.ndarray):
        """The integral over (a, top), top = min(edge, b), per element (piece, row), and far.

        Termwise it is the sum over k0 <= j of (i W)**j / j! times the integral M_j of
        r**j against the piece at c = 1 over (a, top). With z = W top, that is ``scale`` =
        top**(p+1) times the sum of (i z)**j / j! M_j / top**(p+1+j). For a power piece,
        with rho = a / top and q = p + j + 1, the ratio is (1 - rho**q) / q: 1/q from a = 0,
        and from a > 0 the table's -1/q times expm1(q log(rho)), or log(rho) at q = 0, so
        no term cancels at its two ends. A log form's is :func:`_form_ratio`, zero below
        k0. Elements of power pieces from a > 0 whose top passes ``far_top`` take their
        terms in logs over exp(shift), and exp(shift) as their scale (:meth:`_far_terms`);
        their indices are returned as ``far``. An element keeps its terms while z**j / j!
        is at least 1e-18 of min(1, z**2 / 2) (``_KEEP``), and the parts fold over all
        SERIES_TERMS rows in order, so its value does not depend on the other elements.
        An element with no part ``below`` the edge takes z = 0 and reads exactly 0.
        """
        (n0, _, n1), (pieces, n) = self.kinds, W.shape
        z = np.where(below, W * top, 0.0)
        far = (top > self.far_top).nonzero()
        if far[0].size:  # z is 8 where top is the edge
            z[far] = z_far = np.where(top[far] < self.b[far[0]], SERIES_EDGE, W[far] * top[far])
        z = z.reshape(-1)
        # an even row count pairs each odd term with the even one after it
        rows, m = (3 + int(_KEEP.searchsorted(z.max(), "right"))) & ~1, z.size
        work = np.empty((2, rows * m))
        terms = _powers(z, work[0].reshape(rows, m))
        tmp = work[1].reshape(rows, m)
        by_piece = terms.reshape(rows, pieces, n)
        by_piece *= self.coef[:rows, :, None]
        if n1 > n0:
            log_rho = _log_ratio(self.a[n0:n1, None], top[n0:n1])
            ratio = work[1, : rows * log_rho.size].reshape(rows, n1 - n0, n)
            np.multiply(self.q[:rows, n0:n1, None], log_rho, out=ratio)
            if far[0].size:
                ratio[:, far[0] - n0, far[1]] = 0.0
            np.expm1(ratio, out=ratio)
            for i, row in self.zero_rows:
                if row < rows:
                    ratio[row, i - n0] = log_rho[i - n0]
            by_piece[:, n0:n1] *= ratio
            if far[0].size:
                by_piece[:, far[0], far[1]], shift = self._far_terms(far[0], W[far], z_far, rows)
                scale = scale.copy()
                scale[far] = np.exp(shift)
        if pieces > n1:
            # the log forms' ratios cost the most: they are taken below the edge only
            at = below[n1:].reshape(-1).nonzero()[0]
            k = n1 + at // n
            ratio = self._form_ratios(k, self.q[:rows, k], self.a[k], top[n1:].reshape(-1)[at])
            ratio[_TERM_K[:rows] < self.k0[k]] = 0.0
            terms[:, n1 * n + at] *= ratio
        terms *= np.less_equal(_TERM_KEEP[:rows], z, out=tmp)
        # rows of (odd term, even term) pairs: imaginary then real parts
        odd_even = _fold_sum(terms.reshape(rows // 2, 2 * m), SERIES_TERMS // 2)
        # a sum that is zero reads +0.0, as if its -0.0 terms and absent rows were +0.0:
        # the sign of a zero term changes no other sum
        odd_even += 0.0
        out = np.empty((pieces, n), dtype=complex)
        np.multiply(odd_even[m:].reshape(pieces, n), scale, out=out.real)
        np.multiply(odd_even[:m].reshape(pieces, n), scale, out=out.imag)
        return out, far

    def _far_terms(self, k: np.ndarray, W: np.ndarray, z: np.ndarray, rows: int):
        """Series terms over exp(shift), and shift, for elements of power pieces k from a > 0.

        Term j is coef_j (a**q W**j - z**j top**(p+1)), or coef_j log(a/top) z**j top**(p+1)
        at q = 0, with log(top) = min(log(8/W), log(b)). An unbounded piece's tail, top**(p+1)
        (i exp(8i) lag/8 + 1/(p+1)), joins terms 1 and 2 to cancel before the scale rounds.
        shift is at least -700, log(top**(p+1)) and 700 below each log(a**q W**j coef_j).
        """
        log_w, log_a = np.log(W), np.log(self.a[k])
        L = np.minimum(math.log(SERIES_EDGE) - log_w, np.log(self.b[k]))
        coef, kept = self.coef[:rows, k], _TERM_KEEP[:rows] <= z  # rows the batch adds set no shift
        lower = np.where(kept, self.q[:rows, k] * log_a + _TERM_K[:rows] * log_w, -np.inf)
        head = np.max(lower + np.log(np.maximum(np.abs(coef), 1.0)), axis=0)
        shift = np.maximum(np.maximum(self.p1[k] * L, head - 700.0), -700.0)
        scale = np.exp(self.p1[k] * L - shift)
        upper = z ** _TERM_K[:rows] * scale
        ratio = np.exp(lower - shift) - upper
        for i, row in self.zero_rows:
            if row < rows:
                ratio[row, k == i] = ((log_a - L) * upper[row])[k == i]
        terms = coef * ratio
        tail = _EDGE_TURN[0] * self.edge_lag[k] / SERIES_EDGE + 1.0 / self.p1[k]
        tail = np.where(k >= self.kinds[1], scale * tail, 0.0)  # on the unbounded pieces
        terms[:2] += np.array([tail.imag, tail.real])
        return terms, shift

    def _tails(self, k: np.ndarray, W: np.ndarray, x: np.ndarray) -> np.ndarray:
        """The integral over (x, b), x = max(edge, a), for elements of bounded pieces k.

        It is T(x) - T(b) - P_0 - i W P_1, where T is :meth:`_rotated_tail`
        and P_j the integral of r**j against the piece at c = 1 over
        (x, b); only the compensated pieces (k0 = 2) take P_1, which is 0 on
        a raw one.
        """
        m, b = k.size, self.b[k]
        ends, W2 = np.concatenate([x, b]), np.concatenate([W, W])
        T = self._rotated_tail(np.concatenate([k, k]), ends, W2, W2 * ends)
        val = T[:m] - T[m:]
        val -= self._moment(k, self.p1[k], x, b)
        comp = (self.k0[k] == 2).nonzero()[0]
        if comp.size:
            kc = k[comp]
            val[comp] -= 1j * W[comp] * self._moment(kc, self.p[kc] + 2.0, x[comp], b[comp])
        return val

    def _moment(self, k: np.ndarray, q: np.ndarray, x: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Integral of r**(q-1) against pieces k at c = 1 over (x, b)."""
        end, ratio = _ints_from(x, b, q)
        out = end ** q * ratio
        if self.kinds[2] < self.a.size:
            log = (k >= self.kinds[2]).nonzero()[0]
            if log.size:
                out[log] = b[log] ** q[log] * self._form_ratios(k[log], q[log], x[log], b[log])
        return out

    def _rotated_tail(
        self, k: np.ndarray, x: np.ndarray, W: np.ndarray, a: np.ndarray
    ) -> np.ndarray:
        """T(x) = integral of r**p F(r) exp(i W r) over (x, inf), for a = W x >= SERIES_EDGE.

        Elements are those of x, W and a, and k holds their pieces, or a
        column of pieces for rows of elements. On the contour
        r = x (1 + i v / a), a = W x, the oscillation turns into decay:
        T(x) = i exp(i a) x**p / W times the integral of
        (1 + i v/a)**p F(x (1 + i v/a)) exp(-v) over v > 0, which the fixed
        Gauss-Laguerre rule takes (:func:`_laguerre_sum`); F is analytic in
        the upper half plane. The contour continues T to p >= -1, where the
        real integral diverges; a difference T(x) - T(b) is the integral
        over (x, b) for every p. A power piece at the edge, a =
        SERIES_EDGE, reads its Laguerre sum from the table; the rule runs
        only for the elements past the edge and the log forms, and a call
        with neither reads i exp(i a) at the edge too.
        """
        past = a > SERIES_EDGE
        if self.kinds[2] < self.a.size:
            past |= k >= self.kinds[2]
        need = past.nonzero()
        if not need[0].size:
            return _EDGE_TURN * x ** self.p[k] / W * self.edge_lag[k]
        a = np.maximum(a, SERIES_EDGE)
        if k.shape != a.shape:
            k = np.broadcast_to(k, a.shape)
        lag = self.edge_lag[k]
        kn = k[need]
        cols = (kn >= self.kinds[2]).nonzero()[0]
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
class _Cells:
    """One ray's grid-tail cells, p = 0 segments, summed by parts at their nodes.

    With delta_k = f_(k-1) - f_k the drop in density at node r_k, the
    cells' uncompensated jump integral is sum_k delta_k G(w r_k)/(i w),
    G(theta) = exp(i theta) - 1 - i theta. Nodes with |w| r_k < CELL_EDGE,
    a prefix of ``r``, take G's series, n = 2..CELL_TERMS: below CELL_SERIES_R
    from the prefix sums ``series`` of delta_k r_k**n / n!, and past it, where
    r_k**n nears the float range, node by node in theta. The rest take
    :func:`_cis_m1` on ``half_r`` and ``delta2``, less their suffix sum
    ``above`` of delta_k r_k. ``comp`` is the cells' first moment below radius 1.
    """

    direction: np.ndarray
    r: np.ndarray
    half_r: np.ndarray
    delta2: np.ndarray
    series: np.ndarray
    above: np.ndarray
    comp: float

    @classmethod
    def build(cls, direction: np.ndarray, cells: Sequence[Segment]) -> "_Cells":
        lo, hi, c = np.array([(sg.lo, sg.hi, sg.c) for sg in cells]).T
        r, node = np.unique(np.concatenate([lo, hi]), return_inverse=True)
        delta = np.bincount(node, np.concatenate([-c, c]), r.size)
        k, n = int(np.searchsorted(r, CELL_SERIES_R)), np.arange(2, CELL_TERMS + 1)[:, None]
        series = np.zeros((n.size, k + 1))
        np.cumsum(delta[:k] * r[:k] ** n * _INV_FACT[n], axis=1, out=series[:, 1:])
        above = np.zeros(r.size + 1)
        above[:-1] = np.cumsum((delta * r)[::-1])[::-1]
        below = hi <= 1.0
        comp = 0.5 * float(c[below] @ (hi[below] ** 2 - lo[below] ** 2))
        return cls(direction, r, 0.5 * r[:, None], 2.0 * delta[:, None], series, above, comp)

    def add_exponent(self, out: np.ndarray, Y: np.ndarray) -> None:
        """Add to out, per row y of Y, the cells' integral at w = <y, direction>.

        A row sums in an order set by the tables alone; its real part is
        even in w and its imaginary part odd, so -w gives the conjugate.
        """
        w = _dot(Y, self.direction)
        # past the float range at the smallest |w|, where every node is below the edge
        with np.errstate(divide="ignore", over="ignore"):
            cut = np.searchsorted(self.r, CELL_EDGE / np.abs(w))
        x, S = -(w * w), self.series
        first = S.shape[1] - 1  # the first node past CELL_SERIES_R
        prefix = np.minimum(cut, first)
        re, im = S[-2][prefix], S[-1][prefix]
        for k in range(S.shape[0] - 3, -1, -1):
            if k % 2:
                re = re * x + S[k][prefix]
            else:
                im = im * x + S[k][prefix]
        re *= x
        im *= w
        rows = (cut > first).nonzero()[0]
        if rows.size:
            # delta_k G(theta)/(i w) = delta_k r_k (y odd(y) + i theta even(y)), y = -theta**2
            near = np.arange(first, self.r.size)[:, None] < cut[rows]
            theta = self.r[first:, None] * w[rows] * near
            y, dr = -(theta * theta), self.half_r[first:] * self.delta2[first:]
            re[rows] += _fold_sum(dr * y * np.polyval(_INV_FACT[CELL_TERMS - 1 : 2 : -2], y))
            im[rows] += _fold_sum(dr * theta * np.polyval(_INV_FACT[CELL_TERMS : 1 : -2], y))
        e = _cis_m1(w[:, None], self.half_r, self.delta2, cut)
        zero = w == 0.0  # such a row reads 0 past its prefix, and no -i theta
        w = np.where(zero, 1.0, w)
        re += e.imag / w
        re -= self.above[np.where(zero, -1, cut)]
        im -= e.real / w
        out.real += re
        out.imag += im


@dataclass(frozen=True, eq=False)
class JumpTables:
    """A jump measure compiled into flat tables for its exponent.

    Every atom, a grid tail's end atom included, is a jump vector
    r * direction with a mass. ``half_jumps`` (K x dim) holds the jumps
    halved and ``mass2`` (K x 1) the masses doubled, the form
    :func:`_cis_m1` reads. ``cells`` holds each grid tail's cells
    (:class:`_Cells`). ``comp`` is the first moment of the atoms and cells
    inside the unit ball, the compensation as one drift vector.
    ``pieces`` holds the segment-piece table, or None when there are no
    segments.
    """

    half_jumps: np.ndarray
    mass2: np.ndarray
    comp: np.ndarray
    pieces: _Pieces | None
    cells: tuple[_Cells, ...]

    @classmethod
    def build(cls, dim: int, rays: Iterable[tuple[np.ndarray, "RadialMeasure"]]) -> "JumpTables":
        """Tables of the rays given as (direction, radial measure) pairs."""
        dirs, jumps, masses, comp, rows = [], [np.zeros((0, dim))], [np.zeros(0)], np.zeros(dim), []
        cells = []
        for index, (direction, radial) in enumerate(rays):
            dirs.append(direction)
            rows += _piece_rows(radial.segments, index)
            atoms = radial.parts[0]
            if atoms:
                r = np.array([at.r for at in atoms], dtype=float)
                m = np.array([at.m for at in atoms], dtype=float)
                jumps.append(np.multiply.outer(r, direction))
                masses.append(m)
                comp = comp + float(r @ (m * (r <= 1.0))) * direction
            if radial.grid_tail is not None and radial.grid_tail.cells[1]:
                cells.append(_Cells.build(direction, radial.grid_tail.cells[1]))
                comp = comp + cells[-1].comp * direction
        dirs = np.array(dirs, dtype=float).reshape(-1, dim)
        return cls(
            0.5 * np.concatenate(jumps),
            2.0 * np.concatenate(masses)[:, None],
            comp,
            _Pieces.build(rows, dirs) if rows else None,
            tuple(cells),
        )

    def exponent(self, Y: np.ndarray, drift: np.ndarray | None) -> np.ndarray:
        """i<y, drift> plus the uncompensated jump integral, per row y of the float grid Y.

        Passing drift = -comp gives the compensated jump integral; None
        stands for a zero drift. Atoms go through one :func:`_cis_m1`
        call, each grid tail's cells through their own kernel
        (:meth:`_Cells.add_exponent`) and segments through the piece table
        (:meth:`_Pieces.add_exponent`).
        """
        if self.mass2.size:
            out = _cis_m1(Y, self.half_jumps, self.mass2)
        else:
            out = np.zeros(Y.shape[0], dtype=complex)
        for cells in self.cells:
            cells.add_exponent(out, Y)
        if drift is not None:
            out.imag += _dot(Y, drift)
        if self.pieces is not None:
            self.pieces.add_exponent(out, Y)
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
