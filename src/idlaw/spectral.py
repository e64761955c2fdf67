"""Polar representations of jump (Levy) measures.

A measure is a finite family of rays. Each ray carries a unit direction and
a radial measure on (0, inf) made of point atoms, power-law density
segments c * r**p on (lo, hi] (hi may be inf), and optionally a tabulated
right-tail function for shapes with no closed form. Admissibility means
integral of min(1, r**2) against the radial part is finite on every ray.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatchError, InvalidMeasureError
from . import quadrature

UNIT_NORM_TOL = 1e-12
# largest (arguments x nodes) block a grid tail evaluates at once
GRID_CHUNK_ELEMENTS = 1 << 18
# share of the tolerance each discarded end of an unbounded-tail contour
# integral may take; the quadrature gets what the two ends leave
TAIL_CUT_SHARE = 1e-6
# arguments per segment quadrature; at the 100-400 abscissas such a
# quadrature evaluates per integrand call, a batch stays near 20 MB
SEGMENT_CHUNK = 4096


def _cis_m1(theta: np.ndarray) -> np.ndarray:
    """exp(i*theta) - 1 without cancellation near theta = 0."""
    theta = np.asarray(theta, dtype=float)
    half = 0.5 * theta
    return -2.0 * np.sin(half) ** 2 + 1j * np.sin(theta)


def _sin_m_theta(theta: np.ndarray) -> np.ndarray:
    """sin(theta) - theta, series branch below 1e-2."""
    theta = np.asarray(theta, dtype=float)
    small = np.abs(theta) < 1e-2
    t2 = theta * theta
    series = theta * t2 * (-1.0 / 6.0 + t2 * (1.0 / 120.0 - t2 / 5040.0))
    with np.errstate(invalid="ignore"):
        direct = np.sin(theta) - theta
    return np.where(small, series, direct)


def _cis_m1_comp(theta: np.ndarray) -> np.ndarray:
    """exp(i*theta) - 1 - i*theta, stable for small theta."""
    theta = np.asarray(theta, dtype=float)
    half = 0.5 * theta
    return -2.0 * np.sin(half) ** 2 + 1j * _sin_m_theta(theta)


def _cis_ratio(theta: np.ndarray) -> np.ndarray:
    """(exp(i*theta) - 1 - i*theta) / theta**2, finite at theta = 0 (-> -1/2)."""
    theta = np.asarray(theta, dtype=float)
    small = np.abs(theta) < 1e-4
    t_safe = np.where(small, 1.0, theta)
    direct = _cis_m1_comp(t_safe) / (t_safe * t_safe)
    series = -0.5 - 1j * theta / 6.0 + theta * theta / 24.0
    return np.where(small, series, direct)


def _power_int(lo: float, hi: float, p: float) -> float:
    """Integral of r**p over (lo, hi); inf when divergent. Needs 0 <= lo < hi."""
    if hi <= lo:
        return 0.0
    q = p + 1.0
    if math.isinf(hi):
        if q >= 0.0:
            return math.inf
        return -(lo ** q) / q if lo > 0.0 else math.inf
    if q == 0.0:
        if lo == 0.0:
            return math.inf
        return math.log(hi / lo)
    if lo == 0.0 and q < 0.0:
        return math.inf
    return (hi ** q - lo ** q) / q


def _log_power_int(lo: float, hi: float, p: float) -> float:
    """Integral of log(r) * r**p over (lo, hi) with 1 <= lo; inf when divergent."""
    if hi <= lo:
        return 0.0
    q = p + 1.0

    def anti(r: float) -> float:
        if q == 0.0:
            return 0.5 * math.log(r) ** 2
        return (r ** q) * (q * math.log(r) - 1.0) / (q * q)

    if math.isinf(hi):
        if q >= 0.0:
            return math.inf
        return -anti(lo)
    return anti(hi) - anti(lo)


@dataclass(frozen=True)
class Atom:
    """Point mass m at radius r > 0."""

    r: float
    m: float


@dataclass(frozen=True)
class Segment:
    """Density c * r**p on (lo, hi); hi may be math.inf."""

    lo: float
    hi: float
    c: float
    p: float

    def mass_above(self, u: float) -> float:
        return self.c * _power_int(max(self.lo, u), self.hi, self.p)


@dataclass(frozen=True, eq=False)
class GridTail:
    """Right-tail function tabulated on an increasing radius grid.

    ``tail[k]`` approximates the measure of (radii[k], inf); between nodes
    the tail is linear in r, so cell (r_k, r_{k+1}] carries mass
    tail[k] - tail[k+1]. Any residual tail[-1] is collapsed onto the last
    node as an atom. There is no mass below radii[0].
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

    def cell_masses(self) -> np.ndarray:
        return np.maximum(-np.diff(self.tail), 0.0)

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

    def integral(self, g) -> float:
        """Stieltjes integral of one kernel against the tabulated measure."""
        return self.split_integral(g, g)

    def exponent_integral(self, w: np.ndarray) -> np.ndarray:
        """Jump-part integrand integrated against the tabulated measure.

        Below radius 1 the compensated kernel is the plain one minus
        i*w*r, whose weighted sum is w times a first moment, so the plain
        kernel exp(i*w*r) - 1 runs once over all nodes, in chunks of
        ``GRID_CHUNK_ELEMENTS // w.size`` nodes (at least one) to keep
        temporaries bounded for any batch size.
        """
        w = np.atleast_1d(np.asarray(w, dtype=float))
        r = self._unit_split[0]
        wt_below, wt_above = self._node_weights
        weights = wt_below + wt_above
        half_versine, im = np.zeros(w.shape), -w * float(r @ wt_below)
        step = max(1, GRID_CHUNK_ELEMENTS // max(w.size, 1))
        for k in range(0, r.size, step):
            theta = np.multiply.outer(w, r[k : k + step])
            half_versine += np.sin(0.5 * theta) ** 2 @ weights[k : k + step]
            im += np.sin(theta) @ weights[k : k + step]
        return -2.0 * half_versine + 1j * im

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
            if sg.c < 0.0:
                out.append(f"{label}: segment {k} has negative density scale {sg.c}")
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
        ranged = sorted(
            (sg.lo, sg.hi, k)
            for k, sg in enumerate(self.segments)
            if sg.lo >= 0.0 and sg.hi > sg.lo
        )
        for (lo_a, hi_a, ka), (lo_b, hi_b, kb) in zip(ranged, ranged[1:]):
            if lo_b < hi_a:
                out.append(
                    f"{label}: segments {ka} and {kb} overlap on "
                    f"({lo_b}, {min(hi_a, hi_b)})"
                )
        if self.grid_tail is not None:
            out.extend(self.grid_tail.issues(label))
        return out

    def min1r2(self) -> float:
        """Integral of min(1, r**2) against the radial measure."""
        val = 0.0
        for at in self.atoms:
            val += at.m * min(1.0, at.r * at.r)
        for sg in self.segments:
            lo, hi = sg.lo, sg.hi
            val += sg.c * _power_int(lo, min(hi, 1.0), sg.p + 2.0)
            val += sg.c * _power_int(max(lo, 1.0), hi, sg.p)
        if self.grid_tail is not None:
            val += self.grid_tail.split_integral(
                lambda r: r * r, lambda r: np.ones_like(r)
            )
        return val

    def tail(self, u) -> np.ndarray:
        """Measure of (u, inf), vectorized over u >= 0."""
        u = np.asarray(u, dtype=float)
        val = np.zeros_like(u)
        for at in self.atoms:
            val = val + at.m * (u < at.r)
        for sg in self.segments:
            lower = np.maximum(u, sg.lo)
            q = sg.p + 1.0
            with np.errstate(divide="ignore"):
                if math.isinf(sg.hi):
                    piece = np.where(q < 0.0, -(lower ** q) / q, math.inf)
                elif q == 0.0:
                    piece = np.where(lower < sg.hi, np.log(sg.hi / lower), 0.0)
                else:
                    piece = np.where(lower < sg.hi, (sg.hi ** q - lower ** q) / q, 0.0)
            val = val + sg.c * piece
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
            val += sg.c * _log_power_int(max(sg.lo, 1.0), sg.hi, sg.p)
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
            val += sg.c * _power_int(max(sg.lo, 1.0), sg.hi, sg.p + s)
        if self.grid_tail is not None:
            val += self.grid_tail.split_integral(
                np.zeros_like, lambda r: r ** s
            )
        return val

    def exponent_integral(self, w: np.ndarray, tol: float | None = None) -> np.ndarray:
        """Jump integrand against this measure, batched over arguments w.

        Computes, for each w, the integral of
        exp(i*w*r) - 1 - i*w*r*[r <= 1] over r. Atoms and grid tails are
        summed directly; segments use adaptive quadrature on the finite
        part, and past radius max(lo, 1) an unbounded segment is
        integrated along a contour in the upper half plane, where the
        oscillation becomes decay. The integrand at -w is the conjugate of
        the one at w, so each distinct |w| is evaluated once.
        """
        signed = np.asarray(w, dtype=float).ravel()
        w, inverse = np.unique(np.abs(signed), return_inverse=True)
        out = np.zeros(w.shape, dtype=complex)
        if self.atoms:
            rs = np.array([at.r for at in self.atoms])
            ms = np.array([at.m for at in self.atoms])
            theta = np.multiply.outer(w, rs)
            g = _cis_m1(theta) - 1j * theta * (rs <= 1.0)
            out += g @ ms
        for sg in self.segments:
            out += _segment_exponent(sg, w, tol)
        if self.grid_tail is not None:
            out += self.grid_tail.exponent_integral(w)
        out = out[inverse]
        return np.where(signed < 0.0, np.conj(out), out)

    def scaled(self, factor: float) -> "RadialMeasure":
        if factor < 0.0:
            raise ValueError(f"scale factor must be nonnegative, got {factor}")
        return RadialMeasure(
            tuple(Atom(at.r, at.m * factor) for at in self.atoms),
            tuple(Segment(sg.lo, sg.hi, sg.c * factor, sg.p) for sg in self.segments),
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


def _segment_exponent(sg: Segment, w: np.ndarray, tol: float | None) -> np.ndarray:
    """Jump integrand integrated over one power segment, batched over w.

    The quadratures run on chunks of at most ``SEGMENT_CHUNK`` arguments, so
    their (abscissas x arguments) arrays stay bounded for any batch.
    """
    if tol is None:
        tol = quadrature.default_tol()
    out = np.zeros(w.shape, dtype=complex)
    if sg.c != 0.0:
        for j in range(0, w.size, SEGMENT_CHUNK):
            out[j : j + SEGMENT_CHUNK] = _segment_chunk(sg, w[j : j + SEGMENT_CHUNK], tol)
    return out


def _segment_chunk(sg: Segment, w: np.ndarray, tol: float) -> np.ndarray:
    """One chunk of arguments of :func:`_segment_exponent`."""
    out = np.zeros(w.shape, dtype=complex)
    c, p = sg.c, sg.p

    lo_c, hi_c = sg.lo, min(sg.hi, 1.0)
    if hi_c > lo_c:
        # compensated region; substitute r = v**k to flatten the endpoint
        # singularity of r**(p+2) when p <= -2
        k = 1 if p > -1.5 else max(1, math.ceil(2.0 / (p + 3.0)))
        a, b = lo_c ** (1.0 / k), hi_c ** (1.0 / k)
        expo = k * (p + 3.0) - 1.0

        def f_comp(vs: np.ndarray) -> np.ndarray:
            r = vs ** k
            theta = r[:, None] * w[None, :]
            return (c * k * vs ** expo)[:, None] * (w * w)[None, :] * _cis_ratio(theta)

        val, _ = quadrature.integrate(f_comp, a, b, tol=tol, vectorized=True)
        out += val

    lo_u = max(sg.lo, 1.0)
    if sg.hi > lo_u:
        if math.isinf(sg.hi):
            out += _segment_exponent_infinite(c, p, lo_u, w, tol)
        else:

            def f_raw(rs: np.ndarray) -> np.ndarray:
                return (c * rs ** p)[:, None] * _cis_m1(rs[:, None] * w[None, :])

            val, _ = quadrature.integrate(f_raw, lo_u, sg.hi, tol=tol, vectorized=True)
            out += val
    return out


def _segment_exponent_infinite(
    c: float, p: float, lo: float, w: np.ndarray, tol: float
) -> np.ndarray:
    """c * int_lo^inf r**p (exp(i w r) - 1) dr for p < -1 and lo >= 1.

    On the contour r = lo + i*lo*u the oscillation turns into decay: for
    w > 0, int_lo^inf r**p exp(i w r) dr = i exp(i w lo) lo**(p+1)
    int_0^inf (1 + i u)**p exp(-a u) du with a = w lo. In u = exp(x) that
    integrand is smooth and decays at both ends, so one batched quadrature
    in x covers the batch; w < 0 follows by conjugation and w = 0 gives
    exactly 0. Each discarded end costs at most
    ``TAIL_CUT_SHARE * tol``: below u_lo the factor (1 + i u)**p, within
    |p| u of 1, is replaced by 1 and integrated in closed form; past u_hi
    the rest is under exp(-a u_hi) / a per unit scale, as |1 + i u|**p <= 1.
    """
    if p >= -1.0:
        raise InvalidMeasureError(
            f"unbounded segment needs p < -1 for finite mass, got p={p}"
        )
    out = np.zeros(w.shape, dtype=complex)
    scale = c * lo ** (p + 1.0)
    mass = -(lo ** (p + 1.0)) / (p + 1.0)
    cut = TAIL_CUT_SHARE * tol
    u_lo = math.sqrt(cut / (0.5 * -p * scale))
    x_lo = math.log(u_lo)
    idx = np.flatnonzero(w)
    if idx.size == 0:
        return out
    a = np.abs(w[idx]) * lo
    a_min = float(a.min())
    u_hi = max(math.log(scale / (a_min * cut)), 1.0) / a_min

    def f(xs: np.ndarray) -> np.ndarray:
        u = np.exp(xs)
        g = scale * u * np.hypot(1.0, u) ** p * np.exp(1j * p * np.arctan(u))
        return g[:, None] * np.exp(-np.multiply.outer(u, a))

    val, _ = quadrature.integrate(
        f, x_lo, max(math.log(u_hi), x_lo), tol=tol - 2.0 * cut, vectorized=True
    )
    val = 1j * np.exp(1j * a) * (val + scale * -np.expm1(-a * u_lo) / a)
    out[idx] = np.where(w[idx] > 0.0, val, np.conj(val)) - c * mass
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
        for k, ray in enumerate(self.rays):
            if ray.direction.shape == (self.dim,):
                v = ray.radial.min1r2()
                if not math.isfinite(v):
                    out.append(
                        f"ray {k}: integral of min(1, r^2) diverges"
                    )
        return out

    @cached_property
    def is_valid(self) -> bool:
        return not self.issues()

    def require_valid(self) -> None:
        if not self.is_valid:
            raise InvalidMeasureError("; ".join(self.issues()))

    def min1r2(self) -> float:
        return sum(ray.radial.min1r2() for ray in self.rays)

    def log_moment(self) -> float:
        """Integral of log(|x|) over |x| > 1; inf when divergent."""
        return sum(ray.radial.log_moment() for ray in self.rays)

    def exponent_jump_integral(self, Y: np.ndarray, tol: float | None = None) -> np.ndarray:
        """Jump part of the characteristic exponent on a grid Y of shape (n, d)."""
        Y = np.asarray(Y, dtype=float)
        if Y.ndim != 2 or Y.shape[1] != self.dim:
            raise DimensionMismatchError(
                f"grid shape {Y.shape} does not match dim {self.dim}"
            )
        out = np.zeros(Y.shape[0], dtype=complex)
        for ray in self.rays:
            if ray.radial.is_empty():
                continue
            out += ray.radial.exponent_integral(Y @ ray.direction, tol)
        return out

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
    segments: Iterable[tuple[float, float, float, float]] = (),
    grid_tail: GridTail | None = None,
) -> Ray:
    """Convenience builder: ray from plain tuples."""
    if np.isscalar(direction):
        direction = [float(direction)]
    return Ray(
        np.asarray(direction, dtype=float),
        RadialMeasure(
            tuple(Atom(float(r), float(m)) for r, m in atoms),
            tuple(Segment(float(a), float(b), float(c), float(p)) for a, b, c, p in segments),
            grid_tail,
        ),
    )
