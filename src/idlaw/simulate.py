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

Empirical characteristic functions take one tangent per term (half-angle
formulas for cos and sin) and report two-pass standard errors.

Randomness is counter based: samples come in blocks of BLOCK = 4096, and
block b draws all of its samples at once, as arrays, from one Philox stream
keyed by (seed, b). Sample k is row k % BLOCK of block k // BLOCK, so it does
not depend on n, and chunked or parallel execution (chunks are whole blocks)
reproduces the exact byte stream of a serial run.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import maps
from .errors import LawSpecError
from .exponent import CharExponent, as_grid, closed_form, convolve
from .report import CheckReport

_PROB_TOL = 1e-12
_PSD_TOL = 1e-10
_TAIL_BOUND = 1e-6
# envelope segments for the thinned jump times live on an absolute grid of
# this pitch, so a larger horizon only appends segments
_SEG_LEN = 10.0

# samples per Philox stream: sample k is row k % BLOCK of block k // BLOCK
BLOCK = 4096
_ROWS = np.arange(BLOCK)

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
        if not np.allclose(diff, diff.T, atol=1e-12):
            raise LawSpecError("diffusion matrix must be symmetric")
        eigs = np.linalg.eigvalsh(diff)
        if eigs.min() < -_PSD_TOL:
            raise LawSpecError(f"diffusion matrix not PSD (min eig {eigs.min():.3e})")
        rate = float(self.rate)
        if rate < 0.0:
            raise LawSpecError(f"jump rate must be >= 0, got {rate}")
        jumps = self.jumps
        probs = self.probs
        if rate > 0.0:
            if jumps is None:
                raise LawSpecError("positive jump rate needs a jump atom list")
            jumps = np.asarray(jumps, dtype=float)
            if jumps.ndim == 1:
                jumps = jumps[:, None]
            if jumps.ndim != 2 or jumps.shape[0] == 0 or jumps.shape[1] != self.dim:
                raise LawSpecError(f"jump atoms must have shape (k, {self.dim})")
            k = jumps.shape[0]
            if probs is None:
                probs = np.full(k, 1.0 / k)
            else:
                probs = np.asarray(probs, dtype=float).reshape(-1)
            if probs.shape != (k,) or np.any(probs < 0.0):
                raise LawSpecError("jump probabilities must be nonnegative, one per atom")
            if abs(probs.sum() - 1.0) > _PROB_TOL:
                raise LawSpecError(f"jump probabilities sum to {probs.sum()!r}, not 1")
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

    def char_exponent(self) -> CharExponent:
        """Exponent of the law at unit time: log E exp(i <y, X_1>)."""
        parts = []
        if np.any(self.drift != 0.0):
            parts.append(closed_form("dirac", shift=self.drift))
        if self.has_gaussian:
            parts.append(
                closed_form("gaussian", mean=np.zeros(self.dim), cov=self.diffusion)
            )
        if self.has_jumps:
            parts.append(
                closed_form(
                    "compound_poisson",
                    rate=self.rate,
                    jumps=self.jumps,
                    probs=self.probs,
                )
            )
        if not parts:
            parts.append(closed_form("dirac", shift=np.zeros(self.dim)))
        out = parts[0]
        for p in parts[1:]:
            out = convolve(out, p)
        return out


def _cov_factor(cov: np.ndarray) -> np.ndarray:
    """Symmetric square root; tolerates semidefinite matrices."""
    vals, vecs = np.linalg.eigh(cov)
    vals = np.clip(vals, 0.0, None)
    return vecs * np.sqrt(vals) @ vecs.T


def _base_block(
    g: np.random.Generator, spec: SimSpec, drift_factor: float, var_factor: float
) -> np.ndarray:
    """Drift plus Gaussian part of one block, shape (BLOCK, dim)."""
    x = np.tile(drift_factor * spec.drift, (BLOCK, 1))
    if spec.has_gaussian:
        z = g.standard_normal((BLOCK, spec.dim))
        x += z @ _cov_factor(var_factor * spec.diffusion)
    return x


def _add_jumps(
    x: np.ndarray,
    spec: SimSpec,
    owner: np.ndarray,
    weight: np.ndarray,
    u_atom: np.ndarray,
) -> None:
    """Scatter-add weight[j] * atom(u_atom[j]) into row owner[j] of x."""
    # searching the cdf without its last entry keeps the index in range when
    # the probabilities sum to a hair under 1
    idx = np.searchsorted(spec.jump_cdf()[:-1], u_atom)
    for c, atoms in enumerate(spec.jumps.T):
        terms = atoms[idx]
        terms *= weight
        x[:, c] += np.bincount(owner, weights=terms, minlength=BLOCK)


# -- the power-kernel integral over (0,1) ---------------------------------------


def _jbeta_block(g: np.random.Generator, spec: SimSpec, beta: float) -> np.ndarray:
    x = _base_block(g, spec, beta / (beta + 1.0), beta / (beta + 2.0))
    if spec.has_jumps:
        counts = g.poisson(spec.rate, BLOCK)
        k = int(counts.sum())
        u = g.random(2 * k)
        _add_jumps(x, spec, np.repeat(_ROWS, counts), u[:k] ** (1.0 / beta), u[k:])
    return x


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
    if not beta > 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    if n < 1:
        raise ValueError(f"need n >= 1 samples, got {n}")
    return _run_chunked(_jbeta_block, (spec, beta), seed, TAG_JBETA, n, workers)


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


def _timechange_block(
    g: np.random.Generator, spec: SimSpec, beta: float, s_max: float
) -> np.ndarray:
    x = _base_block(
        g,
        spec,
        time_change_drift_factor(beta, s_max),
        time_change_variance_factor(beta, s_max),
    )
    if spec.has_jumps:
        # strictly segment-by-segment draws: the randomness consumed by
        # segment j depends only on segments <= j, so enlarging s_max
        # appends new draws without disturbing earlier ones
        for j in range(int(math.ceil(s_max / _SEG_LEN))):
            lo = j * _SEG_LEN
            length = min(lo + _SEG_LEN, s_max) - lo
            counts = g.poisson(spec.rate * length, BLOCK)
            k = int(counts.sum())
            u = g.random(2 * k)
            # the first half becomes minus the envelope times, -(lo + length u)
            neg_s, v = u[:k], u[k:]
            neg_s *= -length
            neg_s -= lo
            clock = neg_s * beta
            np.expm1(clock, out=clock)
            np.negative(clock, out=clock)
            keep = v < clock
            # an accepted v is uniform on [0, clock(s)), so v / clock(s) is a
            # fresh uniform, independent of s, and picks the atom; a rejected
            # jump is never divided (its clock may be 0) and gets weight 0
            np.divide(v, clock, out=v, where=keep)
            weight = np.exp(neg_s, out=neg_s)
            weight *= keep
            _add_jumps(x, spec, np.repeat(_ROWS, counts), weight, v)
    return x


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
    if not beta > 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    if n < 1:
        raise ValueError(f"need n >= 1 samples, got {n}")
    if not s_max > 0.0:
        raise ValueError(f"s_max must be positive, got {s_max}")
    bound = truncation_tail_bound(spec, beta, s_max)
    if bound >= _TAIL_BOUND:
        raise ValueError(
            f"s_max={s_max} discards exponent mass {bound:.3e} >= {_TAIL_BOUND}; "
            "increase the horizon"
        )
    return _run_chunked(
        _timechange_block, (spec, beta, s_max), seed, TAG_TIMECHANGE, n, workers
    )


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
    if not beta > 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    if n < 1:
        raise ValueError(f"need n >= 1 samples, got {n}")
    return _run_chunked(_jbeta_block, (spec, beta), seed, TAG_TIMECHANGE_ALT, n, workers)


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


def _sample_blocks(
    block_fn, args: tuple, seed: int, tag: int, start: int, stop: int
) -> np.ndarray:
    """Samples start..stop-1 (start a multiple of BLOCK), one stream per block."""
    parts = []
    for b in range(start // BLOCK, (stop - 1) // BLOCK + 1):
        g = np.random.Generator(
            np.random.Philox(
                counter=np.array([0, 0, 0, tag], dtype=np.uint64),
                key=np.array([seed, b], dtype=np.uint64),
            )
        )
        parts.append(block_fn(g, *args)[: stop - b * BLOCK])
    return np.concatenate(parts, axis=0)


def _run_chunked(
    block_fn, args: tuple, seed: int, tag: int, n: int, workers: int
) -> np.ndarray:
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    # whole blocks per worker, so every block is drawn by one process
    chunk = -(-n // (BLOCK * workers)) * BLOCK
    starts = range(0, n, chunk)
    if len(starts) == 1:
        return _sample_blocks(block_fn, args, seed, tag, 0, n)
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=len(starts)) as pool:
        futs = [
            pool.submit(_sample_blocks, block_fn, args, seed, tag, s, min(s + chunk, n))
            for s in starts
        ]
        parts = [f.result() for f in futs]
    return np.concatenate(parts, axis=0)


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
    seed: int | None = None

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "seed": self.seed,
            "rows": [
                {
                    "y": [float(v) for v in np.atleast_1d(self.y_grid[k])],
                    "estimate": [self.estimate[k].real, self.estimate[k].imag],
                    "se": [float(self.se_real[k]), float(self.se_imag[k])],
                }
                for k in range(len(self.estimate))
            ],
        }


def empirical_cf(samples: np.ndarray, y_grid, seed: int | None = None) -> EmpiricalCF:
    """Mean of exp(i <y, X>) over the samples, with componentwise SEs.

    Each term takes one libm call, the tangent of the half angle
    t = tan(<y, X>/2): cos = (1 - t**2)/(1 + t**2) and sin = 2t/(1 + t**2)
    are within 2.3e-16 of the exact values (t reaches about 1.6e16 next to
    odd multiples of pi, and t**2 stays finite). The SEs are the two-pass
    ddof=1 standard deviations of the real and imaginary parts over sqrt(n).
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 1:
        samples = samples[:, None]
    if samples.shape[0] == 0:
        raise ValueError("need at least one sample")
    Y, _ = as_grid(y_grid, samples.shape[1])
    if Y.shape[0] == 0:
        raise ValueError("need at least one grid point")
    n = samples.shape[0]
    # one contiguous row of half angles per grid point (halving Y is exact)
    t = (0.5 * Y) @ samples.T
    np.tan(t, out=t)
    t2 = t * t
    den = t2 + 1.0
    re = np.subtract(1.0, t2, out=t2)
    re /= den
    im = np.add(t, t, out=t)
    im /= den
    mean_re = re.mean(axis=1)
    mean_im = im.mean(axis=1)
    est = mean_re + 1j * mean_im
    # one-ulp guard: the mean of unit-modulus terms cannot exceed modulus 1
    mod = np.abs(est)
    est = np.where(mod > 1.0, est / mod, est)
    return EmpiricalCF(Y, est, _row_se(re, mean_re), _row_se(im, mean_im), n, seed)


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
    quad_tol: float | None = None,
) -> MCReport:
    """Empirical CF of samples of the m-integral vs. exp of the m-image of phi.

    ``samples`` come from :func:`sample_integral` with the same map, seed
    and (for ``ijbeta``) horizon ``s_max``, which the report records.
    """
    ecf = empirical_cf(samples, y_grid, seed)
    Y = ecf.y_grid
    target = np.exp(maps.map_exponent_grid(m, phi, Y, quad_tol))
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
    quad_tol: float | None = None,
) -> MCReport:
    """Empirical CF of the sampled integral vs. exp of the mapped exponent.

    :func:`sample_integral` followed by :func:`mc_report` against the
    driving law's own exponent.
    """
    samples = sample_integral(spec, m, n, seed, s_max=s_max, workers=workers)
    return mc_report(
        samples, m, spec.char_exponent(), y_grid, seed,
        z_max=z_max, s_max=s_max, quad_tol=quad_tol,
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
        from .factor import default_grid

        y_grid = default_grid(spec.dim, n_points=21)
    Y, _ = as_grid(y_grid, spec.dim)
    s1 = sample_jbeta_integral(spec, beta, n, seed, workers=workers)
    s2 = sample_clocked_integral(spec, beta, n, seed, workers=workers)
    e1 = empirical_cf(s1, Y, seed)
    e2 = empirical_cf(s2, Y, seed)
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
