"""Workload definitions: seeded inputs and the checks run on them.

Each workload turns a seed into an endless, deterministic sequence of
checks. A check is one call a user of idlaw waits on (an identity check,
a Monte Carlo comparison, a map evaluation); the harness runs them one
after another in a closed loop. Every check returns the bytes of its
numeric outputs, so the harness can compare runs, and the outcome of its
own gate. Cross-checks against independent references run outside the
timed region.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from idlaw import factor, maps, simulate
from idlaw.exponent import closed_form, convolve, from_triplet
from idlaw.spectral import RadialMeasure, Segment, SpectralMeasure, ray
from idlaw.triplet import LevyTriplet

WORKLOADS = ("identity-nested", "mc-sample", "triplet-tail")

# Check time of one block on a 2-core Xeon (Python 3.11, numpy 2.4) at the
# commit that defined this benchmark. A run of S seconds runs
# round(S / nominal) blocks, so every commit does the same work and sees
# the same mix of checks; a faster program finishes it sooner.
NOMINAL_BLOCK_S = {"identity-nested": 7.2, "mc-sample": 2.0, "triplet-tail": 7.5}


def blocks_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_BLOCK_S[workload]))


IDENTITY_TOL = 1e-8
IDENTITY_BETAS = (0.5, 3.0, 1.0, 2.0)
IDENTITIES = ("eq3", "eq15", "cor1a", "prop2")
CHECKERS = {
    "eq3": "verify_factorization",
    "eq15": "identity_e_check",
    "cor1a": "ubeta_f_membership",
    "prop2": "clock_composition_check",
}

MC_N = 10000
# time_change_equivalence draws two sample sets; at n/2 each it costs about
# one jbeta comparison, so three of a block's four checks take about the
# same time and the median falls inside that cluster, not in a gap

MC_N_TIMECHANGE = MC_N // 2
MC_Z_MAX = 4.0
# |z| beyond 4 over 40 real and imaginary parts happens on about one seed
# in a hundred by chance; beyond 6 it does not (below 1e-7)
MC_Z_GROSS = 6.0
MC_S_MAX = 30.0

TRIPLET_QUAD_TOL = 1e-9
TRIPLET_BETA = 1.0
# non-negative half of a coarse default grid: the exponent of a real law
# satisfies phi(-y) = conj(phi(y)), so negative arguments repeat these
TRIPLET_MAP_GRID = np.array([[0.0], [2.5], [5.0]])
# the logarithmic map refines hard toward u = 0 through the per-point
# incomplete-gamma leaf: over 6000 abscissas for one point at |y| = 5, and
# up to 8 s for one heavy-tailed point at 1e-9
I_MAP_GRID = TRIPLET_MAP_GRID[:2]
I_MAP_QUAD_TOL = 1e-6
DUAL_ROUTE_TOL = 1e-6
ORACLE_TOL = 1e-8


@dataclass
class Outcome:
    """What one check produced: its gate, output bytes and side values."""

    passed: bool
    data: bytes
    values: dict = field(default_factory=dict)


@dataclass
class CrossCheck:
    """A comparison against an independent reference, made untimed."""

    name: str
    value: float
    limit: float
    # gate: the package promises this accuracy, so a miss makes the run
    # incorrect; finding: a miss is counted as a failed check and listed
    gate: bool = True

    @property
    def ok(self) -> bool:
        return bool(np.isfinite(self.value) and self.value <= self.limit)


@dataclass
class Check:
    """One unit of closed-loop work. ``run`` is timed, ``verify`` is not."""

    check_id: str
    kind: str
    run: Callable[[], Outcome]
    verify: Callable[[Outcome], list] = lambda out: []


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _cbytes(*arrays) -> bytes:
    return b"".join(np.ascontiguousarray(a, dtype=complex).tobytes() for a in arrays)


def _jitter(rng: np.random.Generator, x: float, rel: float = 0.02) -> float:
    """x moved by a uniform relative amount of at most ``rel``."""
    return float(x * (1.0 + rel * rng.uniform(-1.0, 1.0)))


# -- identity-nested -----------------------------------------------------------


# atoms of the compound-Poisson law, before jitter: the largest as in the
# builtin ``cp`` law, the others spread over the lower half of [0.5, 3]
IDENTITY_JUMPS = (2.0, -1.25, 0.75)
IDENTITY_RATE = 2.0


def identity_laws(seed: int) -> dict:
    """A compound-Poisson law and the same law convolved with a Gaussian.

    The seed moves every jump and the rate by up to 2% and draws the
    Gaussian variance in [0.25, 1]. Nested checks cost roughly in
    proportion to the rate times the square of the largest jump, and their
    peak memory jumps between refinement levels; drawn over the full
    ranges (jumps in +-[0.5, 3], rate in [1, 3]), one seed moved every
    end-to-end metric by up to 3.7x.
    """
    rng = _rng(seed, "identity-nested")
    jumps = np.array([_jitter(rng, j) for j in IDENTITY_JUMPS])
    rate = _jitter(rng, IDENTITY_RATE)
    var = float(rng.uniform(0.25, 1.0))
    cp = closed_form("compound_poisson", rate=rate, jumps=jumps[:, None])
    mix = convolve(closed_form("gaussian", mean=[0.0], cov=[[var]]), cp)
    return {
        "cp": cp,
        "mix": mix,
        "params": {"jumps": jumps.tolist(), "rate": rate, "gauss_var": var},
    }


def _identity_check(laws: dict, law: str, identity: str, beta: float, grid=None) -> Check:
    def run() -> Outcome:
        checker = getattr(factor, CHECKERS[identity])
        rep = checker(laws[law], beta, grid=grid, tol=IDENTITY_TOL)
        return Outcome(
            rep.passed, _cbytes(rep.lhs, rep.rhs), {"residual": rep.max_residual}
        )

    return Check(f"{identity}/{law}/beta={beta:g}", identity, run)


def identity_blocks(seed: int) -> Iterator[list[Check]]:
    """Blocks of four checks: one per identity, each at a different beta.

    Within a block the laws alternate, so every block holds two checks on
    each law; eight consecutive blocks cover all 32 (identity, law, beta)
    combinations once. Blocks therefore cost about the same.
    """
    laws = identity_laws(seed)
    for b in itertools.count():
        yield [
            _identity_check(
                laws,
                ("cp", "mix")[(i + (b // 4) % 2) % 2],
                identity,
                IDENTITY_BETAS[(i + b) % 4],
            )
            for i, identity in enumerate(IDENTITIES)
        ]


# -- mc-sample -----------------------------------------------------------------


def mc_spec() -> simulate.SimSpec:
    """Gaussian plus compound Poisson with jumps +-2 at rate 2."""
    return simulate.SimSpec(1, [0.0], [[1.0]], rate=2.0, jumps=[[2.0], [-2.0]])


MC_GRID = np.linspace(-3.0, 3.0, 20)[:, None]


def _mc_check(kind: str, beta: float, seed: int, n: int) -> Check:
    spec = mc_spec()

    def run() -> Outcome:
        if kind == "eq2-timechange":
            rep = simulate.time_change_equivalence(
                spec, beta, n=n, seed=seed, y_grid=MC_GRID, z_max=MC_Z_MAX, workers=1
            )
        else:
            m = maps.jbeta_map(beta) if kind == "mc-jbeta" else maps.i_jbeta_map(beta)
            rep = simulate.mc_vs_quadrature(
                spec, m, MC_GRID, n=n, seed=seed, z_max=MC_Z_MAX, s_max=MC_S_MAX, workers=1
            )
        data = _cbytes(rep.estimate, rep.target, rep.z_real, rep.z_imag)
        finite = bool(np.all(np.isfinite(np.concatenate([rep.estimate, rep.target]))))
        return Outcome(finite, data, {"worst_z": rep.worst_z})

    def verify(out: Outcome) -> list:
        # the package's own gate is a 4-sigma test, so a miss is a finding;
        # only a gross miss says the sampler or the target is wrong
        z = out.values["worst_z"]
        return [CrossCheck("worst_z", z, MC_Z_MAX, gate=False),
                CrossCheck("worst_z_gross", z, MC_Z_GROSS)]

    return Check(f"{kind}/beta={beta:g}", kind, run, verify)


MC_CYCLE = (("mc-jbeta", 1.0), ("mc-jbeta", 2.0), ("mc-ijbeta", 1.0), ("eq2-timechange", 2.0))


def mc_blocks(seed: int) -> Iterator[list[Check]]:
    """The acceptance-test comparisons, repeated with the seed as Philox key.

    Every block draws the same samples, so each repeat must reproduce the
    first block's bytes exactly.
    """
    first: dict[str, bytes] = {}
    for block in itertools.count():
        checks = []
        for kind, beta in MC_CYCLE:
            n = MC_N_TIMECHANGE if kind == "eq2-timechange" else MC_N
            check = _mc_check(kind, beta, seed, n)

            def verify(out: Outcome, key=check.check_id, own=check.verify) -> list:
                ref = first.setdefault(key, out.data)
                return own(out) + [CrossCheck("repeat_bytes_differ", float(ref != out.data), 0.0)]

            check.verify = verify
            check.check_id = f"{check.check_id}/repeat={block}"
            checks.append(check)
        yield checks


# -- triplet-tail --------------------------------------------------------------


# the four laws of a block before jitter: (atoms, finite segment power,
# unbounded segment power); the powers span (-2.5, -0.5) and (-3, -1.5)
TRIPLET_PANEL = (
    (((2.0, 1.0),), -0.7, -2.8),
    (((2.0, 1.0), (1.0, 0.5)), -1.2, -2.4),
    (((2.0, 1.0),), -1.7, -2.0),
    (((2.0, 1.0), (1.0, 0.5)), -2.2, -1.6),
)


def triplet_law(rng: np.random.Generator, index: int) -> LevyTriplet:
    """Atoms, a finite power segment from 0 and an unbounded power tail.

    The atoms and the finite segment (0, 0.8] sit on the positive ray, the
    unbounded segment (1.5, inf) on the negative ray. Law ``index`` is
    panel law ``index % 4`` with every parameter moved by up to 2% by the
    seed. Map cost grows with the largest atom radius times |y| and
    changes by several times across tail powers, so only jitter is drawn.
    """
    atoms, p_finite, p_tail = TRIPLET_PANEL[index % len(TRIPLET_PANEL)]
    atoms = [(_jitter(rng, r), _jitter(rng, m)) for r, m in atoms]
    finite = (0.0, _jitter(rng, 0.8), _jitter(rng, 0.5), _jitter(rng, p_finite))
    tail = (_jitter(rng, 1.5), math.inf, _jitter(rng, 0.3), _jitter(rng, p_tail))
    levy = SpectralMeasure(
        1, (ray([1.0], atoms=atoms, segments=[finite]), ray([-1.0], segments=[tail]))
    )
    return LevyTriplet(1, [_jitter(rng, 0.25)], [[_jitter(rng, 0.2)]], levy)


def atomic_measure(rng: np.random.Generator) -> SpectralMeasure:
    """One or two rays, each with one to three atoms."""
    rays = []
    for direction in ([1.0], [-1.0])[: int(rng.integers(1, 3))]:
        atoms = [
            (float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.1, 2.0)))
            for _ in range(int(rng.integers(1, 4)))
        ]
        rays.append(ray(direction, atoms=atoms))
    return SpectralMeasure(1, tuple(rays))


def leaf_oracle(trip: LevyTriplet, ys: np.ndarray) -> np.ndarray:
    """Exponent of a 1-d triplet law by scipy quadrature, independent of idlaw.

    Power segments starting at 0 use QUADPACK's algebraic weight for the
    r**p singularity; unbounded segments are integrated along a path
    turned into the upper half plane, where the oscillation becomes decay
    (idlaw uses an incomplete gamma function there).
    """
    out = 1j * ys * float(trip.shift[0]) - 0.5 * ys * ys * float(trip.cov[0, 0])
    for ray_ in trip.levy.rays:
        sgn = float(ray_.direction[0])
        rad = ray_.radial
        for k, y in enumerate(ys):
            w = sgn * float(y)
            val = 0j
            for at in rad.atoms:
                th = w * at.r
                val += at.m * (np.expm1(1j * th) - (1j * th if at.r <= 1.0 else 0.0))
            for sg in rad.segments:
                val += _segment_oracle(sg, w)
            out[k] += val
    return out


def _tail_fourier(p: float, lo: float, w: float) -> complex:
    """integral over (lo, inf) of r**p exp(i w r) dr for w > 0, lo > 0, p < -1.

    The integrand is analytic in the upper half plane and r**p vanishes at
    infinity, so the path turns upward, r = lo + i s / w:

        i / w * exp(i w lo) * integral over (0, inf) of (lo + i s / w)**p exp(-s) ds

    which is smooth and decays like exp(-s); past s = 60 it is below 1e-26.
    QUADPACK's Fourier-weight routine (QAWF) on the real line was tried
    first: its extrapolation over cycles stopped short, without an error,
    on about one seed in thirty (off by up to 3e-7). Over 3000 random tails
    (p in (-3.1, -1.5), lo in (1, 1.6), w up to 5) this form matched a
    30-digit incomplete-gamma value to 3.2e-16.
    """
    from scipy.integrate import quad

    def f(s: float) -> complex:
        return (lo + 1j * s / w) ** p * math.exp(-s)

    kw = dict(epsabs=1e-15, epsrel=1e-13, limit=200)
    re = quad(lambda s: f(s).real, 0.0, 60.0, **kw)[0]
    im = quad(lambda s: f(s).imag, 0.0, 60.0, **kw)[0]
    return 1j / w * cmath.exp(1j * w * lo) * (re + 1j * im)


def _segment_oracle(sg: Segment, w: float) -> complex:
    from scipy.integrate import quad

    c, p = sg.c, sg.p
    val = 0j
    top = min(sg.hi, 1.0)
    if top > sg.lo:
        # compensated region: r**(p+2) times the smooth
        # ((cos - 1) + i (sin - w r)) / r**2, weighted exactly when lo = 0
        def f_re(r):
            return -0.5 * w * w if r == 0.0 else -2.0 * math.sin(0.5 * w * r) ** 2 / (r * r)

        def f_im(r):
            t = w * r
            if abs(t) < 1e-2:
                return w * w * t * (-1.0 / 6.0 + t * t / 120.0)
            return (math.sin(t) - t) / (r * r)

        if sg.lo == 0.0:
            kw = dict(weight="alg", wvar=(p + 2.0, 0.0))
            fr, fi = f_re, f_im
        else:
            kw = {}
            fr = lambda r: f_re(r) * r ** (p + 2.0)
            fi = lambda r: f_im(r) * r ** (p + 2.0)
        re = quad(fr, sg.lo, top, epsabs=1e-14, epsrel=1e-13, limit=200, **kw)[0]
        im = quad(fi, sg.lo, top, epsabs=1e-14, epsrel=1e-13, limit=200, **kw)[0]
        val += c * (re + 1j * im)
    lo = max(sg.lo, 1.0)
    if sg.hi > lo:
        if math.isinf(sg.hi):
            if w != 0.0:
                osc = _tail_fourier(p, lo, abs(w))
                mass = -(lo ** (p + 1.0)) / (p + 1.0)
                val += c * ((osc if w > 0.0 else osc.conjugate()) - mass)
        else:
            f_re = lambda r: r ** p * (math.cos(w * r) - 1.0)
            f_im = lambda r: r ** p * math.sin(w * r)
            re = quad(f_re, lo, sg.hi, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
            im = quad(f_im, lo, sg.hi, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
            val += c * (re + 1j * im)
    return val


def law_checks(rng: np.random.Generator, index: int) -> list[Check]:
    """Five single-level checks on one seeded triplet law."""
    trip = triplet_law(rng, index)
    atomic = atomic_measure(rng)
    cor5_beta = (1.0, 2.0)[index % 2]
    phi = from_triplet(trip)
    grid = factor.default_grid(1)
    state: dict = {}
    tag = f"law={index}"

    def leaf() -> Outcome:
        vals = phi.eval_grid(grid, TRIPLET_QUAD_TOL)
        return Outcome(bool(np.all(np.isfinite(vals))), _cbytes(vals), {"vals": vals})

    def leaf_verify(out: Outcome) -> list:
        ref = leaf_oracle(trip, grid[:, 0])
        err = float(np.max(np.abs(out.values["vals"] - ref)))
        return [CrossCheck("leaf_vs_oracle", err, ORACLE_TOL)]

    def map_check(m, ys, tol) -> Callable[[], Outcome]:
        def run() -> Outcome:
            vals = maps.map_exponent_grid(m, phi, ys, tol)
            state[m.kind] = vals
            return Outcome(bool(np.all(np.isfinite(vals))), _cbytes(vals))

        return run

    def image() -> Outcome:
        img = maps.jbeta_triplet(trip, TRIPLET_BETA)
        vals = from_triplet(img).eval_grid(grid, TRIPLET_QUAD_TOL)
        return Outcome(bool(np.all(np.isfinite(vals))), _cbytes(vals), {"vals": vals})

    def image_verify(out: Outcome) -> list:
        # the exponent route is the jbeta map check run just before
        at = np.searchsorted(grid[:, 0], TRIPLET_MAP_GRID[:, 0])
        res = float(np.max(np.abs(out.values["vals"][at] - state["jbeta"])))
        return [CrossCheck("dual_route_residual", res, DUAL_ROUTE_TOL, gate=False)]

    def cor5() -> Outcome:
        rep = factor.spectral_factor_check(atomic, cor5_beta, tol=1e-9)
        return Outcome(rep.passed, _cbytes(rep.lhs, rep.rhs), {"residual": rep.max_residual})

    jbeta_map = map_check(maps.jbeta_map(TRIPLET_BETA), TRIPLET_MAP_GRID, TRIPLET_QUAD_TOL)
    i_map = map_check(maps.i_map(), I_MAP_GRID, I_MAP_QUAD_TOL)
    return [
        Check(f"leaf/{tag}", "leaf", leaf, leaf_verify),
        Check(f"jbeta-map/{tag}", "jbeta-map", jbeta_map),
        Check(f"i-map/{tag}", "i-map", i_map),
        Check(f"jbeta-triplet/{tag}", "jbeta-triplet", image, image_verify),
        Check(f"cor5/{tag}/beta={cor5_beta:g}", "cor5", cor5),
    ]


def triplet_blocks(seed: int) -> Iterator[list[Check]]:
    """Blocks of the four panel laws, freshly jittered, five checks each."""
    rng = _rng(seed, "triplet-tail")
    for start in itertools.count(0, len(TRIPLET_PANEL)):
        yield [
            check
            for index in range(start, start + len(TRIPLET_PANEL))
            for check in law_checks(rng, index)
        ]


# -- entry points --------------------------------------------------------------


def blocks(workload: str, seed: int) -> Iterator[list[Check]]:
    """The workload's endless sequence of check blocks for this seed."""
    if workload == "identity-nested":
        return identity_blocks(seed)
    if workload == "mc-sample":
        return mc_blocks(seed)
    if workload == "triplet-tail":
        return triplet_blocks(seed)
    raise ValueError(f"unknown workload {workload!r}")


def warmup(workload: str, seed: int) -> Outcome:
    """One small check that finishes lazy imports and first-call set-up."""
    if workload == "identity-nested":
        laws = identity_laws(seed)
        small = np.linspace(-5.0, 5.0, 5)[:, None]
        return _identity_check(laws, "cp", "eq3", 1.0, small).run()
    if workload == "mc-sample":
        return _mc_check("mc-jbeta", 1.0, seed, 1000).run()
    if workload == "triplet-tail":
        trip = triplet_law(_rng(seed, workload), 0)
        vals = from_triplet(trip).eval_grid(factor.default_grid(1), TRIPLET_QUAD_TOL)
        return Outcome(bool(np.all(np.isfinite(vals))), _cbytes(vals))
    raise ValueError(f"unknown workload {workload!r}")


def describe_inputs(workload: str, seed: int, laws: int = 4) -> dict:
    """Plain-number description of the generated inputs (for determinism)."""
    if workload == "identity-nested":
        return identity_laws(seed)["params"]
    if workload == "mc-sample":
        spec = mc_spec()
        return {"philox_key": seed, "n": MC_N, "n_timechange": MC_N_TIMECHANGE,
                "rate": spec.rate, "jumps": spec.jumps.tolist(),
                "diffusion": spec.diffusion.tolist()}
    if workload == "triplet-tail":
        rng = _rng(seed, workload)
        out = []
        for index in range(laws):
            trip = triplet_law(rng, index)
            atomic = atomic_measure(rng)
            out.append({
                "shift": trip.shift.tolist(),
                "cov": trip.cov.tolist(),
                "rays": [_radial_dict(r.radial) for r in trip.levy.rays],
                "atomic": [_radial_dict(r.radial) for r in atomic.rays],
            })
        return {"laws": out}
    raise ValueError(f"unknown workload {workload!r}")


def _radial_dict(rad: RadialMeasure) -> dict:
    return {
        "atoms": [[a.r, a.m] for a in rad.atoms],
        "segments": [[s.lo, s.hi, s.c, s.p] for s in rad.segments],
    }
