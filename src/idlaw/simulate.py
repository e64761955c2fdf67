"""Exact Monte Carlo for the random integrals of finite-activity laws.

The driving process is drift + Brownian part + compound Poisson jumps, so
both integrals sample without discretization error:

* the power-kernel integral over (0,1): deterministic part gamma*beta/(beta+1),
  Gaussian part with covariance Sigma*beta/(beta+2), and jumps tau**(1/beta)*J
  at uniform times tau with a Poisson count;
* the killed integral of exp(-s) against the time-changed process: jumps
  thinned from a rate-lambda envelope by the clock rate 1 - exp(-beta*s),
  two uniforms per envelope jump (the accept uniform, rescaled by the
  clock rate, also picks the atom), Gaussian and drift parts with
  closed-form coefficients on [0, s_max].

A jump's atom is the index of its uniform in the jump cdf, found by a
branch-free bisection over a table padded to a power of two.

Empirical characteristic functions take one tangent per term (half-angle
formulas for cos and sin) and report two-pass standard errors. They run
over the grid in row blocks of at most ECF_CHUNK_ELEMENTS (grid points x
samples) elements, at least one row, so memory stays at a few rows of
samples however large the grid.

Randomness is counter based: samples come in blocks of BLOCK = 4096, and
block b draws all of its samples from one Philox stream keyed by (seed, b).
Sample k is row k % BLOCK of block k // BLOCK, so it does not depend on n,
and chunked, parallel or threaded execution (each block is drawn whole by
one thread) reproduces the exact byte stream of a serial run. One block body
serves both integrals; a law gives its factors and envelope segments, one
(0, 1) for the power kernel and 10-unit ones for the time change. A
segment's stream holds every row's Poisson count, then all jump times, then
all second uniforms. The kept rows draw theirs and skip the others' exactly,
so a last block that keeps only its first rows has those of a whole block. A
segment goes in row chunks of whole rows and at most PICK_CHUNK jumps (one
row at least), so the scratch does not grow with the rate and one bincount
sums each row's terms in the order a whole segment would. One chunk reads
its second uniforms from the block's stream; more read them through a second
cursor. A call's blocks run on one thread per CPU when it has two of at
least BLOCK / 2 rows and a block expects more than _THREAD_JUMPS envelope
jumps.
"""

from __future__ import annotations

import copy
import math
import operator
import os
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from . import maps
from .errors import LawSpecError
from .exponent import CharExponent, as_grid, default_grid, from_triplet, jump_atoms
from .report import CheckReport
from .spectral import SpectralMeasure, ray
from .triplet import LevyTriplet, cov_issues

_TAIL_BOUND = 1e-6
# envelope segments for the thinned jump times live on an absolute grid of
# this pitch, so a larger horizon only appends segments
_SEG_LEN = 10.0

# samples per Philox stream: sample k is row k % BLOCK of block k // BLOCK
BLOCK = 4096
_ROWS = np.arange(BLOCK)
# keys per pass of the atom pick: its three buffers (about 270 KiB) stay in
# cache, and the chunks are long enough that numpy's per-call cost is small
PICK_CHUNK = 1 << 14
# largest (grid points x samples) row block of the empirical CF: its three
# float planes of 256 KiB each stay in cache
ECF_CHUNK_ELEMENTS = 1 << 15

# expected envelope jumps per block above which a call's blocks run on
# threads: on two CPUs at n = 10,000, threads paid from about 37,000 for the
# time change and from about 55,000 for the power kernel (README)
_THREAD_JUMPS = 40_000

# stream tags: fourth Philox counter word, so the per-purpose streams of one
# (seed, block) pair never overlap
TAG_JBETA = 1
TAG_TIMECHANGE = 2
TAG_TIMECHANGE_ALT = 3


@dataclass(frozen=True, eq=False)
class SimSpec:
    """Finite-activity driving law: drift + diffusion + compound Poisson."""

    dim: int
    drift: np.ndarray
    diffusion: np.ndarray
    rate: float = 0.0
    jumps: np.ndarray | None = None
    probs: np.ndarray | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise LawSpecError(f"dim must be >= 1, got {self.dim}")
        drift = np.asarray(self.drift, dtype=float).reshape(-1)
        if drift.shape != (self.dim,):
            raise LawSpecError(f"drift shape {drift.shape} != ({self.dim},)")
        diff = np.asarray(self.diffusion, dtype=float)
        if diff.ndim == 0:
            diff = float(diff) * np.eye(self.dim)
        if diff.shape != (self.dim, self.dim):
            raise LawSpecError(f"diffusion shape {diff.shape} != ({self.dim}, {self.dim})")
        issues = cov_issues(diff)
        if issues:
            raise LawSpecError("; ".join(issues))
        rate = float(self.rate)
        if rate < 0.0:
            raise LawSpecError(f"jump rate must be >= 0, got {rate}")
        jumps = self.jumps
        probs = self.probs
        if rate > 0.0:
            if jumps is None:
                raise LawSpecError("positive jump rate needs a jump atom list")
            jumps, probs = jump_atoms(jumps, probs)
            if jumps.shape[1] != self.dim:
                raise LawSpecError(f"jump atoms must have shape (k, {self.dim})")
        else:
            jumps = None if jumps is None else np.asarray(jumps, dtype=float)
            probs = None
        object.__setattr__(self, "drift", drift)
        object.__setattr__(self, "diffusion", diff)
        object.__setattr__(self, "rate", rate)
        object.__setattr__(self, "jumps", jumps)
        object.__setattr__(self, "probs", probs)

    @property
    def has_gaussian(self) -> bool:
        return bool(np.any(self.diffusion != 0.0))

    @property
    def has_jumps(self) -> bool:
        return self.rate > 0.0

    def jump_cdf(self) -> np.ndarray | None:
        if not self.has_jumps:
            return None
        return np.cumsum(self.probs)

    @cached_property
    def _pick_table(self) -> np.ndarray:
        """The cdf without its last entry, padded with +inf to a power of two.

        Leaving the last entry out keeps the picked index in range when the
        probabilities sum to a hair under 1; the padding holds at least one
        +inf, so the bisection of :func:`_pick_atoms` never runs off the end.
        """
        inner = self.jump_cdf()[:-1]
        table = np.full(1 << len(inner).bit_length(), np.inf)
        table[: len(inner)] = inner
        return table

    @cached_property
    def triplet(self) -> LevyTriplet:
        """The generating triplet of the law at unit time.

        One ray per jump direction, in order of first appearance, holds that
        direction's atoms; the shift is the drift plus the compensation of
        the jumps inside the unit ball. Jumps of size or mass zero add
        nothing and are dropped.
        """
        shift = self.drift.copy()
        rays: dict[tuple, tuple[list, np.ndarray]] = {}
        if self.has_jumps:
            for x, p in zip(self.jumps, self.probs):
                r = float(np.linalg.norm(x))
                m = self.rate * float(p)
                if m == 0.0 or r == 0.0:
                    continue
                u = x / r
                if r <= 1.0:
                    shift += m * x
                rays.setdefault(tuple(np.round(u, 15)), ([], u))[0].append((r, m))
        measure = SpectralMeasure(
            self.dim, tuple(ray(u, atoms=atoms) for atoms, u in rays.values())
        )
        return LevyTriplet(self.dim, shift, self.diffusion, measure)

    @classmethod
    def from_triplet(cls, trip: LevyTriplet) -> SimSpec | None:
        """The spec of an atoms-only triplet, ray by ray; None if it has segments or a grid tail."""
        jumps, masses = [], []
        comp = np.zeros(trip.dim)
        for ray_ in trip.levy.rays:
            rad = ray_.radial
            if rad.segments or rad.grid_tail is not None:
                return None
            for at in rad.atoms:
                x = at.r * ray_.direction
                jumps.append(x)
                masses.append(at.m)
                if at.r <= 1.0:
                    comp += at.m * x
        rate = float(sum(masses))
        drift = trip.shift - comp
        if rate > 0.0:
            return cls(
                trip.dim, drift, trip.cov,
                rate=rate, jumps=np.asarray(jumps), probs=np.asarray(masses) / rate,
            )
        return cls(trip.dim, drift, trip.cov)


def _cov_factor(cov: np.ndarray) -> np.ndarray:
    """Symmetric square root; tolerates semidefinite matrices."""
    vals, vecs = np.linalg.eigh(cov)
    vals = np.clip(vals, 0.0, None)
    return vecs * np.sqrt(vals) @ vecs.T


def _skip(bitgen: np.random.BitGenerator, m: int) -> None:
    """Move a Philox stream past m 64-bit draws, as m uniforms would.

    A counter step yields four draws: the rest of the current four come from
    the buffer, whole steps from ``advance`` and the remainder by drawing.
    """
    if not m:
        return
    head = min(m, 4 - bitgen.state["buffer_pos"])
    bitgen.random_raw(head)
    m -= head
    # advance(0) would drop a partly used buffer
    if m >= 4:
        bitgen.advance(m // 4)
    bitgen.random_raw(m % 4)


def _pick_atoms(table: np.ndarray, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """np.searchsorted(table, u) for a table padded with +inf to a power of two.

    A branch-free bisection: at each level, a key moves its index up by the
    step when the entry step - 1 past the index is below it. Keys go in
    chunks through reused buffers, since a fresh temporary per level costs
    more than the level. The index goes into ``out`` (intp, len(u)) when
    given.
    """
    idx = np.empty(len(u), dtype=np.intp) if out is None else out
    idx[...] = 0
    steps = [1 << e for e in reversed(range(len(table).bit_length() - 1))]
    if not steps:
        return idx
    entry = np.empty(min(len(u), PICK_CHUNK))
    below = np.empty(len(entry), dtype=bool)
    moves = np.empty(len(entry), dtype=np.intp)
    for a in range(0, len(u), PICK_CHUNK):
        i, key = idx[a : a + PICK_CHUNK], u[a : a + PICK_CHUNK]
        e, f, m = entry[: len(i)], below[: len(i)], moves[: len(i)]
        for step in steps:
            # a view that starts step - 1 entries in reads table[i + step - 1]
            table[step - 1 :].take(i, out=e, mode="clip")
            np.less(e, key, out=f)
            i += np.multiply(f, step, out=m) if step > 1 else f
    return idx


def _add_jumps(
    x: np.ndarray,
    spec: SimSpec,
    owner: np.ndarray,
    weight: np.ndarray,
    u_atom: np.ndarray,
    idx: np.ndarray | None = None,
    terms: np.ndarray | None = None,
) -> None:
    """Scatter-add weight[j] * atom(u_atom[j]) into row owner[j] of x.

    Every row of x gets one sum, in jump order, even if it is 0. ``idx``
    (intp) and ``terms`` (float), as long as ``weight``, take the atom index
    and the terms when given, else fresh arrays do.
    """
    idx = _pick_atoms(spec._pick_table, u_atom, idx)
    for c, atoms in enumerate(spec.jumps.T):
        terms = np.take(atoms, idx, out=terms, mode="clip")
        terms *= weight
        x[:, c] += np.bincount(owner, weights=terms, minlength=len(x))


# -- one block body for every law ------------------------------------------------


@dataclass(frozen=True, eq=False)
class _Law:
    """What one block draws: the drift factor, the square root of the
    Gaussian part's covariance, the envelope segments (start, length), and
    ``jumps(beta, start, length, times, seconds, spare, keeps)``, which turns
    a chunk's uniforms into weights and atom uniforms in its buffers (module
    level, so the law pickles)."""

    spec: SimSpec
    beta: float
    drift_factor: float
    root: np.ndarray
    segments: tuple[tuple[float, float], ...]
    jumps: Callable


def _row_chunks(kept: np.ndarray, km: int) -> list[tuple[int, int, int]]:
    """(r0, r1, jumps) of each chunk of rows r0..r1 - 1 that share ``km``
    jumps: whole rows, at most PICK_CHUNK jumps unless one row has more."""
    if km <= PICK_CHUNK:
        return [(0, len(kept), km)]
    # row r's jumps are first[r]..first[r + 1] - 1
    first = np.zeros(len(kept) + 1, dtype=np.intp)
    np.cumsum(kept, out=first[1:])
    chunks, r0 = [], 0
    while r0 < len(kept):
        r1 = max(r0 + 1, int(first.searchsorted(first[r0] + PICK_CHUNK, "right")) - 1)
        chunks.append((r0, r1, int(first[r1] - first[r0])))
        r0 = r1
    return chunks


def _block(g: np.random.Generator, law: _Law, rows: int = BLOCK) -> np.ndarray:
    """The first ``rows`` samples of one block, shape (rows, dim)."""
    spec = law.spec
    x = np.tile(law.drift_factor * spec.drift, (BLOCK, 1))
    if spec.has_gaussian:
        # all BLOCK rows: a normal takes a variable share of the stream
        x += g.standard_normal((BLOCK, spec.dim)) @ law.root
    if not spec.has_jumps:
        return x[:rows]
    # strictly segment-by-segment draws: the randomness consumed by segment j
    # depends only on segments <= j, so a longer horizon appends new draws
    # without disturbing earlier ones
    for j, (lo, length) in enumerate(law.segments):
        counts = g.poisson(spec.rate * length, BLOCK)
        kept = counts[:rows]
        k, km = int(counts.sum()), int(kept.sum())
        chunks = _row_chunks(kept, km)
        # the chunks share the block's scratch, sized for the largest and
        # grown only when a segment needs more, since fresh arrays fault in
        # new pages
        need = max(m for _, _, m in chunks)
        if j == 0 or need > len(picks):
            floats = np.empty((3, need))
            keeps, picks = np.empty(need, dtype=bool), np.empty(need, dtype=np.intp)
        # one chunk skips the other rows' times to its second uniforms; more use
        # a second cursor k draws ahead (a copy costs more than a small segment)
        one = len(chunks) == 1
        seconds = g if one else copy.deepcopy(g)
        if not one:
            _skip(seconds.bit_generator, k)
        for r0, r1, m in chunks:
            t = g.random(out=floats[0, :m])
            if one:
                _skip(g.bit_generator, k - km)
            u = seconds.random(out=floats[1, :m])
            weight, u_atom = law.jumps(law.beta, lo, length, t, u, floats[2, :m], keeps[:m])
            # the spare buffer is spent, so it takes the terms
            owner = np.repeat(_ROWS[: r1 - r0], kept[r0:r1])
            _add_jumps(x[r0:r1], spec, owner, weight, u_atom, picks[:m], floats[2, :m])
        # past the other rows' draws, so the next segment draws as in a whole block
        _skip(g.bit_generator, k - km if one else 2 * k - km)
    return x[:rows]


# -- the power-kernel integral over (0,1) ---------------------------------------


def _power_jumps(beta, lo, length, t, u, spare, keeps):
    """A jump at time t weighs t**(1/beta); its second uniform picks the atom."""
    t **= 1.0 / beta
    return t, u


def _power_law(spec: SimSpec, beta: float) -> _Law:
    root = _cov_factor(beta / (beta + 2.0) * spec.diffusion)
    return _Law(spec, beta, beta / (beta + 1.0), root, ((0.0, 1.0),), _power_jumps)


def sample_jbeta_integral(
    spec: SimSpec,
    beta: float,
    n: int,
    seed: int,
    workers: int = 1,
) -> np.ndarray:
    """Exact samples of the power-kernel integral of the driving process.

    Deterministic part gamma*beta/(beta+1); Gaussian part N(0, Sigma*beta/(beta+2));
    jump part sums tau**(1/beta) * J over a Poisson(rate) number of jumps at
    independent uniform times tau. Returns an (n, dim) array. Sample k is a
    pure function of (spec, beta, seed, k // BLOCK, k % BLOCK), so neither n
    nor the worker count changes it.
    """
    return _run_chunked(_power_law, spec, beta, n, seed, TAG_JBETA, workers)


# -- the killed integral against the time-changed process -----------------------


def time_change_variance_factor(beta: float, s_max: float) -> float:
    """integral of exp(-2s)(1 - exp(-beta s)) over (0, s_max), closed form."""
    return -np.expm1(-2.0 * s_max) / 2.0 + np.expm1(-(beta + 2.0) * s_max) / (beta + 2.0)


def time_change_drift_factor(beta: float, s_max: float) -> float:
    """integral of exp(-s)(1 - exp(-beta s)) over (0, s_max), closed form."""
    return -np.expm1(-s_max) + np.expm1(-(beta + 1.0) * s_max) / (beta + 1.0)


def truncation_tail_bound(
    spec: SimSpec, beta: float, s_max: float, y_scale: float = 5.0
) -> float:
    """Bound on the exponent mass discarded by stopping the integral at s_max.

    Bounds |integral over (0, u_max] of Phi(u y)(1/u - u**(beta-1)) du| for
    every |y| <= R = y_scale, with u_max = exp(-s_max), in closed form.
    The law has |Phi(z)| <= (|b| + lambda E|J|)|z| + ||Sigma|| |z|**2 / 2,
    since |exp(i t) - 1| <= |t|, and the kernel lies in [0, 1/u] on (0, 1),
    so the mass is at most
    (|b| + lambda E|J|) R u_max + ||Sigma|| R**2 u_max**2 / 4.
    """
    u_max = math.exp(-s_max)
    first = float(np.linalg.norm(spec.drift))
    if spec.has_jumps:
        first += spec.rate * float(spec.probs @ np.linalg.norm(spec.jumps, axis=1))
    sigma = float(np.abs(np.linalg.eigvalsh(spec.diffusion)).max())
    reach = y_scale * u_max
    return first * reach + sigma * reach * reach / 4.0


def _clock_jumps(beta, lo, length, t, v, spare, keeps):
    """Thinning at s = lo + length t (see sample_time_changed_integral): a
    kept jump weighs exp(-s), a rejected one 0 and is never divided (its
    clock may be 0)."""
    # the times become minus the envelope times, -(lo + length t)
    neg_s = np.multiply(t, -length, out=t)
    neg_s -= lo
    clock = np.multiply(neg_s, beta, out=spare)
    np.expm1(clock, out=clock)
    np.negative(clock, out=clock)
    keep = np.less(v, clock, out=keeps)
    np.divide(v, clock, out=v, where=keep)
    weight = np.exp(neg_s, out=neg_s)
    weight *= keep
    return weight, v


def _time_change_law(spec: SimSpec, beta: float, s_max: float) -> _Law:
    if not s_max > 0.0:
        raise ValueError(f"s_max must be positive, got {s_max}")
    bound = truncation_tail_bound(spec, beta, s_max)
    if bound >= _TAIL_BOUND:
        raise ValueError(
            f"s_max={s_max} discards exponent mass {bound:.3e} >= {_TAIL_BOUND}; "
            "increase the horizon"
        )
    starts = [j * _SEG_LEN for j in range(int(math.ceil(s_max / _SEG_LEN)))]
    return _Law(
        spec,
        beta,
        time_change_drift_factor(beta, s_max),
        _cov_factor(time_change_variance_factor(beta, s_max) * spec.diffusion),
        tuple((lo, min(lo + _SEG_LEN, s_max) - lo) for lo in starts),
        _clock_jumps,
    )


def sample_time_changed_integral(
    spec: SimSpec,
    beta: float,
    n: int,
    seed: int,
    s_max: float = 30.0,
    workers: int = 1,
) -> np.ndarray:
    """Samples of the exp(-s) integral against the time-changed process.

    The inner clock s + (exp(-beta s) - 1)/beta has rate 1 - exp(-beta s),
    so jumps are thinned from a rate-lambda envelope on [0, s_max]; each
    accepted jump J at time s contributes exp(-s) * J. An envelope jump
    costs two uniforms, a time u and an accept v; an accepted v is uniform
    on [0, clock rate), so v / clock rate is a fresh uniform that picks J.
    The envelope is drawn segment by segment, so a larger s_max only
    appends draws. Drift and Gaussian parts use the closed-form kernel
    integrals over [0, s_max]. Raises if the discarded tail beyond s_max
    is not negligible.
    """
    law = partial(_time_change_law, s_max=s_max)
    return _run_chunked(law, spec, beta, n, seed, TAG_TIMECHANGE, workers)


# -- second integral form of the defining identity ------------------------------


def sample_clocked_integral(
    spec: SimSpec, beta: float, n: int, seed: int, workers: int = 1
) -> np.ndarray:
    """Samples of the integral of t against the process at clock t**beta.

    The inner process jumps at uniform times w, contributing w**(1/beta),
    so the sampler is the power-kernel one. It draws from an independent
    sub-stream of the same seed so the two samplers give statistically
    independent sample sets.
    """
    return _run_chunked(_power_law, spec, beta, n, seed, TAG_TIMECHANGE_ALT, workers)


def sample_integral(
    spec: SimSpec,
    m: maps.IntegralMap,
    n: int,
    seed: int,
    s_max: float = 30.0,
    workers: int = 1,
) -> np.ndarray:
    """Exact samples of the random integral whose law is the image under m.

    The power-kernel map uses the unit-interval sampler; the combined
    logarithmic map uses the time-changed sampler with horizon s_max. The
    other maps have no exact sampler here.
    """
    if m.kind == "jbeta":
        return sample_jbeta_integral(spec, m.beta, n, seed, workers=workers)
    if m.kind == "ijbeta":
        return sample_time_changed_integral(
            spec, m.beta, n, seed, s_max=s_max, workers=workers
        )
    raise ValueError(f"no exact sampler for map kind {m.kind!r}")


# -- chunked execution -----------------------------------------------------------


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _sample_blocks(
    law: _Law, seed: int, tag: int, start: int, stop: int, threads: int = 1
) -> np.ndarray:
    """Samples start..stop-1 (start a multiple of BLOCK), one stream per block.

    With ``threads`` > 1 the blocks run on that many threads, started and
    joined inside the call.
    """
    blocks = range(start // BLOCK, (stop - 1) // BLOCK + 1)

    def draw(b: int) -> np.ndarray:
        g = np.random.Generator(
            np.random.Philox(
                counter=np.array([0, 0, 0, tag], dtype=np.uint64),
                key=np.array([seed, b], dtype=np.uint64),
            )
        )
        return _block(g, law, min(BLOCK, stop - b * BLOCK))

    if threads == 1:
        return np.concatenate([draw(b) for b in blocks], axis=0)
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(threads) as pool:
        return np.concatenate(list(pool.map(draw, blocks)), axis=0)


def _run_chunked(
    make_law, spec: SimSpec, beta: float, n: int, seed: int, tag: int, workers: int
) -> np.ndarray:
    """Samples 0..n-1 of ``make_law(spec, beta)``: on threads in one
    process, or, with ``workers`` > 1, on that many processes that draw
    their blocks serially."""
    # before the law, whose factors divide by beta + 1
    if not beta > 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    if n < 1:
        raise ValueError(f"need n >= 1 samples, got {n}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    law = make_law(spec, beta)
    # whole blocks per worker, so every block is drawn by one process
    chunk = -(-n // (BLOCK * workers)) * BLOCK
    starts = range(0, n, chunk)
    if len(starts) == 1:
        # one thread per CPU and per block of at least BLOCK / 2 rows, when a
        # block expects more than _THREAD_JUMPS envelope jumps
        big = n // BLOCK + (n % BLOCK >= BLOCK // 2)
        threaded = big > 1 and spec.rate * sum(d for _, d in law.segments) * BLOCK > _THREAD_JUMPS
        if threaded:
            # the block threads only read the spec's atom table, so it is built here
            spec._pick_table
        return _sample_blocks(law, seed, tag, 0, n, min(_cpus(), big) if threaded else 1)
    from concurrent.futures import ProcessPoolExecutor

    stops = [min(s + chunk, n) for s in starts]
    with ProcessPoolExecutor(max_workers=len(starts)) as pool:
        parts = pool.map(partial(_sample_blocks, law, seed, tag), starts, stops)
        return np.concatenate(list(parts), axis=0)


def samples_to_csv(samples: np.ndarray, path: str) -> None:
    """One row per sample, full double precision."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 1:
        samples = samples[:, None]
    header = ",".join(f"x{j}" for j in range(samples.shape[1]))
    np.savetxt(path, samples, delimiter=",", header=header, comments="", fmt="%.17g")


# -- empirical characteristic functions ------------------------------------------


@dataclass(frozen=True, eq=False)
class EmpiricalCF:
    """Empirical characteristic function on a grid, with standard errors."""

    y_grid: np.ndarray
    estimate: np.ndarray
    se_real: np.ndarray
    se_imag: np.ndarray
    n: int


def empirical_cf(samples: np.ndarray, y_grid) -> EmpiricalCF:
    """Mean of exp(i <y, X>) over the samples, with componentwise SEs.

    Each term takes one libm call, the tangent of the half angle
    t = tan(<y, X>/2): cos = (1 - t**2)/(1 + t**2) and sin = 2t/(1 + t**2)
    are within 2.3e-16 of the exact values (t reaches about 1.6e16 next to
    odd multiples of pi, and t**2 stays finite). The SEs are the two-pass
    ddof=1 standard deviations of the real and imaginary parts over sqrt(n).
    Grid points go in row blocks of at most ``ECF_CHUNK_ELEMENTS`` elements
    (at least one row), through one reused (3, rows, n) buffer.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 1:
        samples = samples[:, None]
    if samples.shape[0] == 0:
        raise ValueError("need at least one sample")
    Y, _ = as_grid(y_grid, samples.shape[1])
    if Y.shape[0] == 0:
        raise ValueError("need at least one grid point")
    n, m = samples.shape[0], Y.shape[0]
    # one contiguous row of half angles per grid point (halving Y is exact),
    # summed over coordinates in order and reduced along the row, so a row
    # has the same bytes in any row block (a matrix product would not)
    half, xt = 0.5 * Y, np.ascontiguousarray(samples.T)
    rows = max(1, min(m, ECF_CHUNK_ELEMENTS // n))
    buf = np.empty((3, rows, n))
    mean_re, mean_im, se_re, se_im = np.empty((4, m))
    for a in range(0, m, rows):
        b = min(a + rows, m)
        t, t2, den = buf[:, : b - a]
        np.multiply(half[a:b, :1], xt[0], out=t)
        for c in range(1, len(xt)):
            t += np.multiply(half[a:b, c : c + 1], xt[c], out=t2)
        np.tan(t, out=t)
        np.multiply(t, t, out=t2)
        np.add(t2, 1.0, out=den)
        re = np.subtract(1.0, t2, out=t2)
        re /= den
        im = np.add(t, t, out=t)
        im /= den
        mean_re[a:b] = re.mean(axis=1)
        mean_im[a:b] = im.mean(axis=1)
        se_re[a:b] = _row_se(re, mean_re[a:b])
        se_im[a:b] = _row_se(im, mean_im[a:b])
    est = mean_re + 1j * mean_im
    # one-ulp guard: the mean of unit-modulus terms cannot exceed modulus 1
    mod = np.abs(est)
    est = np.where(mod > 1.0, est / mod, est)
    return EmpiricalCF(Y, est, se_re, se_im, n)


def _row_se(terms: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """Standard error of each row's mean, two-pass; overwrites terms."""
    n = terms.shape[1]
    if n == 1:
        return np.zeros(len(mean))
    terms -= mean[:, None]
    terms *= terms
    return np.sqrt(terms.sum(axis=1) / (n - 1)) / math.sqrt(n)


def _z_scores(diff: np.ndarray, se: np.ndarray) -> np.ndarray:
    z = np.zeros_like(diff)
    ok = se > 0.0
    z[ok] = diff[ok] / se[ok]
    z[~ok & (np.abs(diff) > 0.0)] = np.inf
    return z


@dataclass(frozen=True, eq=False)
class MCReport(CheckReport):
    """Empirical CF (lhs) against a target CF (rhs), pointwise z-scores."""

    kind = "mc"
    template = "{r.identity}: worst |z| {r.worst_z:.2f} (limit {r.z_max}) {word}"
    score_key = "worst_z"
    limit_key = "z_max"
    within = operator.le
    scalar_inputs = False

    z_real: np.ndarray
    z_imag: np.ndarray
    n: int
    seed: int
    z_max: float

    @property
    def estimate(self) -> np.ndarray:
        return self.lhs

    @property
    def target(self) -> np.ndarray:
        return self.rhs

    @property
    def worst_z(self) -> float:
        return float(max(np.max(np.abs(self.z_real)), np.max(np.abs(self.z_imag))))

    def _extra_row(self, k: int) -> dict:
        return {"z": [float(self.z_real[k]), float(self.z_imag[k])]}

    def _extra_doc(self) -> dict:
        return {"n": self.n, "seed": self.seed}


def mc_report(
    samples: np.ndarray,
    m: maps.IntegralMap,
    phi: CharExponent,
    y_grid,
    seed: int,
    z_max: float = 4.0,
    s_max: float = 30.0,
) -> MCReport:
    """Empirical CF of samples of the m-integral vs. exp of the m-image of phi.

    ``samples`` come from :func:`sample_integral` with the same map, seed
    and (for ``ijbeta``) horizon ``s_max``, which the report records.
    """
    ecf = empirical_cf(samples, y_grid)
    Y = ecf.y_grid
    target = np.exp(maps.map_exponent_grid(m, phi, Y))
    z_re = _z_scores(ecf.estimate.real - target.real, ecf.se_real)
    z_im = _z_scores(ecf.estimate.imag - target.imag, ecf.se_imag)
    params = {"map": m.kind, "beta": m.beta, "n": ecf.n, "seed": seed}
    if m.kind == "ijbeta":
        params["s_max"] = s_max
    return MCReport(
        f"mc-{m.kind}", params, Y, ecf.estimate, target, z_re, z_im, ecf.n, seed, z_max
    )


def mc_vs_quadrature(
    spec: SimSpec,
    m: maps.IntegralMap,
    y_grid,
    n: int,
    seed: int,
    z_max: float = 4.0,
    s_max: float = 30.0,
    workers: int = 1,
) -> MCReport:
    """Empirical CF of the sampled integral vs. exp of the mapped exponent.

    :func:`sample_integral` followed by :func:`mc_report` against the
    driving law's own exponent.
    """
    samples = sample_integral(spec, m, n, seed, s_max=s_max, workers=workers)
    return mc_report(
        samples, m, from_triplet(spec.triplet), y_grid, seed,
        z_max=z_max, s_max=s_max,
    )


def time_change_equivalence(
    spec: SimSpec,
    beta: float,
    n: int,
    seed: int,
    y_grid=None,
    z_max: float = 4.0,
    workers: int = 1,
) -> MCReport:
    """Two-sample test of the two integral forms of the defining identity.

    Samples the power-kernel form and the clocked form on independent
    sub-streams of one seed and compares their empirical CFs pointwise
    with two-sample z-scores.
    """
    if y_grid is None:
        y_grid = default_grid(spec.dim, n_points=21)
    Y, _ = as_grid(y_grid, spec.dim)
    s1 = sample_jbeta_integral(spec, beta, n, seed, workers=workers)
    s2 = sample_clocked_integral(spec, beta, n, seed, workers=workers)
    e1 = empirical_cf(s1, Y)
    e2 = empirical_cf(s2, Y)
    se_re = np.hypot(e1.se_real, e2.se_real)
    se_im = np.hypot(e1.se_imag, e2.se_imag)
    z_re = _z_scores(e1.estimate.real - e2.estimate.real, se_re)
    z_im = _z_scores(e1.estimate.imag - e2.estimate.imag, se_im)
    return MCReport(
        "eq2-timechange",
        {"beta": beta, "n": n, "seed": seed},
        Y,
        e1.estimate,
        e2.estimate,
        z_re,
        z_im,
        n,
        seed,
        z_max,
    )
