"""Triplet-level images of laws under the four integral maps.

Run as a script to rewrite the golden digests of the jbeta images; it
first prints each key whose digest changed, with the part that moved,
``document`` (the image document) or ``exponent`` (its 41-point exponent):

    PYTHONPATH=src python tests/test_map_triplet.py
"""

import hashlib
import json
import math
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import idlaw.factor as factor
import idlaw.maps as maps
from idlaw.exponent import convolve, from_triplet
from idlaw.lawio import triplet_to_dict
from idlaw.spectral import GridTail, RadialMeasure, SpectralMeasure, ray
from idlaw.triplet import LevyTriplet
from test_spectral import log_power_moment, power_moment, power_terms

GOLDEN = Path(__file__).parent / "golden" / "jbeta_images.json"

# panel laws before jitter: (atoms, finite segment power, unbounded
# segment power), the powers spanning (-2.5, -0.5) and (-3, -1.5)
PANEL = (
    (((2.0, 1.0),), -0.7, -2.8),
    (((2.0, 1.0), (1.0, 0.5)), -1.2, -2.4),
    (((2.0, 1.0),), -1.7, -2.0),
    (((2.0, 1.0), (1.0, 0.5)), -2.2, -1.6),
)
HASH_BETAS = (0.5, 1.0, 1.3, 2.0)
COR5_BETAS = (0.5, 1.0, 2.0, 3.0)


def _jitter(rng, x, rel=0.02):
    return float(x * (1.0 + rel * rng.uniform(-1.0, 1.0)))


def panel_law(rng: np.random.Generator, index: int) -> LevyTriplet:
    """Atoms and a power segment from 0 on one ray, an unbounded tail on the other.

    Panel law ``index % 4`` with every parameter moved by up to 2%.
    """
    atoms, p_finite, p_tail = PANEL[index % len(PANEL)]
    atoms = [(_jitter(rng, r), _jitter(rng, m)) for r, m in atoms]
    finite = (0.0, _jitter(rng, 0.8), _jitter(rng, 0.5), _jitter(rng, p_finite))
    tail = (_jitter(rng, 1.5), math.inf, _jitter(rng, 0.3), _jitter(rng, p_tail))
    levy = SpectralMeasure(
        1, (ray([1.0], atoms=atoms, segments=[finite]), ray([-1.0], segments=[tail]))
    )
    return LevyTriplet(1, [_jitter(rng, 0.25)], [[_jitter(rng, 0.2)]], levy)


def panel_laws(seed: int, n: int = 8) -> list[LevyTriplet]:
    rng = np.random.default_rng(seed)
    return [panel_law(rng, k) for k in range(n)]


def dim2_law() -> LevyTriplet:
    levy = SpectralMeasure(2, (
        ray([0.6, 0.8], atoms=[(1.5, 0.4)], segments=[(0.0, 1.2, 0.3, -1.5)]),
        ray([-1.0, 0.0], segments=[(1.2, math.inf, 0.2, -2.3)]),
    ))
    return LevyTriplet(2, [0.1, -0.2], [[0.3, 0.1], [0.1, 0.2]], levy)


def hash_panel() -> dict[str, LevyTriplet]:
    """Laws whose jbeta images are pinned byte for byte."""
    laws = {f"panel{k}": trip for k, trip in enumerate(panel_laws(9002))}
    laws["panel-image"] = LevyTriplet(1, [0.25], [[0.2]], SpectralMeasure(1, (
        ray([1.0], atoms=[(2.0, 1.0), (1.0, 0.5)], segments=[(0.0, 0.8, 0.5, -2.2)]),
        ray([-1.0], segments=[(1.5, math.inf, 0.3, -1.6)]),
    )))
    # at beta 1.3 the image exponent p - beta + 1 = 1e-3 is in the log-form band
    laws["near-band"] = LevyTriplet(1, [0.1], [[0.0]], SpectralMeasure(1, (
        ray([1.0], atoms=[(0.7, 0.3)], segments=[(0.5, 3.0, 0.3, 0.301)]),
    )))
    grid = GridTail(np.array([0.5, 1.0, 2.0, 3.0]), np.array([1.0, 0.6, 0.2, 0.05]))
    laws["grid-tail"] = LevyTriplet(1, [0.0], [[0.1]], SpectralMeasure(1, (
        ray([1.0], atoms=[(1.5, 0.2)], grid_tail=grid),
    )))
    laws["dim2"] = dim2_law()
    return laws


def atomic_measures(seed: int, n: int = 6) -> list[SpectralMeasure]:
    """One or two rays, each with one to three atoms."""
    rng = np.random.default_rng([seed, 1])
    out = []
    for _ in range(n):
        rays = []
        for direction in ([1.0], [-1.0])[: int(rng.integers(1, 3))]:
            atoms = [
                (float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.1, 2.0)))
                for _ in range(int(rng.integers(1, 4)))
            ]
            rays.append(ray(direction, atoms=atoms))
        out.append(SpectralMeasure(1, tuple(rays)))
    return out


def _sha(*parts: bytes) -> str:
    return hashlib.sha256(b"".join(parts)).hexdigest()


def image_digests() -> dict[str, dict[str, str]]:
    """sha256 of each jbeta image document and of its 41-point exponent, and of cor5 sides."""
    out = {}
    for name, trip in hash_panel().items():
        grid = factor.default_grid(trip.dim)
        for beta in HASH_BETAS:
            img = maps.jbeta_triplet(trip, beta)
            doc = json.dumps(triplet_to_dict(img), sort_keys=True).encode()
            vals = from_triplet(img).eval_grid(grid)
            out[f"{name}/beta={beta:g}"] = {"document": _sha(doc), "exponent": _sha(vals.tobytes())}
    for k, measure in enumerate(atomic_measures(9002)):
        for beta in COR5_BETAS:
            rep = factor.spectral_factor_check(measure, beta)
            out[f"cor5/{k}/beta={beta:g}"] = {"exponent": _sha(rep.lhs.tobytes(), rep.rhs.tobytes())}
    return out


def moved_digests(old: dict, new: dict) -> list[str]:
    """'key part' for each digest part that differs between two golden tables."""
    return [
        f"{key} {part}"
        for key in sorted(set(old) | set(new))
        for part in sorted(set(old.get(key, {})) | set(new.get(key, {})))
        if old.get(key, {}).get(part) != new.get(key, {}).get(part)
    ]


def test_jbeta_images_keep_their_bytes():
    assert moved_digests(json.loads(GOLDEN.read_text()), image_digests()) == []


ALL_MAPS = ("jbeta", "i", "ubetaf", "ijbeta")
BETAS = (0.5, 1.0, 1.3, 1.7, 2.0)


def make_map(kind, beta):
    return maps.i_map() if kind == "i" else maps.IntegralMap(kind, beta)


@pytest.fixture(scope="module")
def panel():
    return panel_laws(9002, 4)


def exponent_route(m, trip, grid):
    return maps.map_exponent_grid(m, from_triplet(trip), grid, 1e-10)


def triplet_route(m, trip, grid):
    img = maps.map_triplet(m, trip)
    img.require_valid()
    return from_triplet(img).eval_grid(grid)


@pytest.mark.parametrize("kind", ALL_MAPS)
def test_routes_agree_on_the_panel_laws(panel, kind):
    grid = np.linspace(-5.0, 5.0, 11)[:, None]
    for trip in panel:
        for beta in (1.0,) if kind == "i" else BETAS:
            m = make_map(kind, beta)
            diff = np.abs(triplet_route(m, trip, grid) - exponent_route(m, trip, grid))
            assert np.max(diff) < 1e-11, (kind, beta)


@pytest.mark.parametrize("kind", ALL_MAPS)
def test_routes_agree_on_a_dim2_law(kind):
    grid = np.array([[0.0, 0.0], [1.0, 0.5], [-2.0, 1.0], [3.0, -2.5], [0.3, 4.0]])
    m = make_map(kind, 1.3)
    diff = np.abs(triplet_route(m, dim2_law(), grid) - exponent_route(m, dim2_law(), grid))
    assert np.max(diff) < 1e-11


def test_shift_and_covariance_sum_over_power_kernels():
    trip = LevyTriplet(1, [0.3], [[0.8]], SpectralMeasure(1, ()))
    beta = 1.5
    # ubetaf: 2b/(b+1) - 2b/(2b+1) and 2b/(b+2) - 2b/(2b+2); i: 1 and 1/2
    want = {
        "jbeta": (beta / (beta + 1.0), beta / (beta + 2.0)),
        "i": (1.0, 0.5),
        "ubetaf": (2 * beta / (beta + 1) - 2 * beta / (2 * beta + 1),
                   2 * beta / (beta + 2) - 2 * beta / (2 * beta + 2)),
        "ijbeta": (1.0 - 1.0 / (beta + 1.0), 0.5 - 1.0 / (beta + 2.0)),
    }
    for kind, (f_shift, f_cov) in want.items():
        img = maps.map_triplet(make_map(kind, beta), trip)
        assert img.shift[0] == pytest.approx(0.3 * f_shift, rel=1e-15)
        assert img.cov[0, 0] == pytest.approx(0.8 * f_cov, rel=1e-15)


def j(beta, trip):
    return maps.map_triplet(maps.jbeta_map(beta), trip)


def identity_sides(identity, trip, beta):
    """Both sides of an identity, each composed at triplet level on its own."""
    if identity == "eq3":
        rho = j(2.0 * beta, trip.conv_power(0.5))
        lhs = convolve(from_triplet(j(beta, rho)), from_triplet(rho))
        return lhs, from_triplet(j(beta, trip))
    if identity == "eq15":
        lhs = j(2.0 * beta, j(beta, trip).convolve(trip))
        return from_triplet(lhs), from_triplet(j(beta, trip.conv_power(2.0)))
    if identity == "cor1a":
        ubetaf = maps.map_triplet(maps.ubetaf_map(beta), trip)
        return from_triplet(ubetaf), from_triplet(j(2.0 * beta, j(beta, trip)))
    ijbeta = maps.map_triplet(maps.i_jbeta_map(beta), trip)
    return from_triplet(ijbeta), from_triplet(maps.map_triplet(maps.i_map(), j(beta, trip)))


@pytest.mark.parametrize("identity", ["eq3", "eq15", "cor1a", "prop2"])
def test_identities_hold_at_triplet_level(panel, identity):
    grid = factor.default_grid(1)
    for trip in panel:
        for beta in BETAS:
            lhs, rhs = identity_sides(identity, trip, beta)
            diff = np.abs(lhs.eval_grid(grid) - rhs.eval_grid(grid))
            assert np.max(diff) < 1e-13, (identity, beta)


# log-form offsets as image offsets p + 1 - a, a in (0.01, 3): up to three,
# one of them repeated
POWERS_A = st.floats(0.01, 3.0)
OFFSET_POWERS = st.one_of(
    st.just([]), st.lists(POWERS_A, min_size=1, max_size=3),
    st.lists(POWERS_A, min_size=1, max_size=2).map(lambda xs: xs + xs[:1]),
)


@settings(max_examples=25, deadline=None)
@given(
    atoms=st.lists(st.tuples(st.floats(0.2, 3.0), st.floats(0.05, 2.0)), max_size=2),
    segs=st.lists(
        st.tuples(st.one_of(st.just(0.0), st.floats(0.05, 2.0)), st.floats(0.1, 2.0),
                  st.floats(0.05, 1.0), st.floats(-2.5, 1.0), OFFSET_POWERS),
        min_size=1, max_size=2,
    ),
    tail_p=st.one_of(st.none(), st.floats(-2.9, -1.1)),
    kind=st.sampled_from(ALL_MAPS),
    beta=st.floats(0.3, 2.5),
)
# image forms with nodes 0, 0 and 3.8e-239 (or 2.23e-249): their
# partial-fraction weights are not finite
@example(atoms=[], segs=[(0.0, 1.0, 1.0, 0.0, []), (0.0, 1.0, 1.0, 3.8e-239, [1.0])],
         tail_p=None, kind="ubetaf", beta=1.0)
@example(atoms=[(1.0, 1.0)], segs=[(0.0, 1.0, 1.0, 2.23e-249, [1.0])],
         tail_p=None, kind="ubetaf", beta=1.0)
# an image form that holds the node 0 three times, so it has no
# partial-fraction terms: positive, it is left out of the certified sum
@example(atoms=[(1.0, 1.0)], segs=[(0.0, 1.0, 1.0, 0.0, [1.0])],
         tail_p=None, kind="ubetaf", beta=1.0)
# a form whose divided difference would overflow at t = -1140 unshifted
@example(atoms=[(1.0, 1.0)], segs=[(0.0, 1.0, 1.0, 2.23e-249, [0.25, 0.25])],
         tail_p=None, kind="ubetaf", beta=0.75)
def test_random_laws_map_under_every_map(atoms, segs, tail_p, kind, beta):
    segments = [
        (lo, lo + length, c, p, tuple(p + 1.0 - a for a in powers))
        for lo, length, c, p, powers in segs
    ]
    if tail_p is not None:
        segments.append((3.0, math.inf, 0.3, tail_p))
    levy = SpectralMeasure(1, (ray([1.0], atoms=atoms, segments=segments),))
    trip = LevyTriplet(1, [0.1], [[0.05]], levy)
    grid = np.linspace(-3.0, 3.0, 5)[:, None]
    m = make_map(kind, beta)
    diff = np.abs(triplet_route(m, trip, grid) - exponent_route(m, trip, grid))
    assert np.max(diff) < 1e-9


def near_log_law() -> LevyTriplet:
    # p + 1 = -3e-3 is in the log-form band of the i map
    return LevyTriplet(1, [0.0], [[0.0]], SpectralMeasure(1, (
        ray([1.0], segments=[(0.0, 2.0, 0.5, -1.003)]),
    )))


def test_i_image_of_a_near_log_segment_has_infinite_mass_near_zero():
    # the image is c u**p ((2/u)**e - 1)/e with p - e = -1 exactly, from 0
    trip = near_log_law()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        img = maps.map_triplet(maps.i_map(), trip)
        img.require_valid()
        (sg,) = img.levy.rays[0].radial.segments
        assert len(sg.e) == 1 and sg.p - sg.e[0] == -1.0
        assert img.levy.rays[0].radial.tail(0.0) == math.inf
        grid = np.linspace(-3.0, 3.0, 7)[:, None]
        diff = np.abs(from_triplet(img).eval_grid(grid) - exponent_route(maps.i_map(), trip, grid))
    assert np.max(diff) < 1e-9


# images holding a log form, each mapped again by every map below
FIRST_IMAGES = {
    "jbeta1.3-near-band": lambda: j(1.3, hash_panel()["near-band"]),
    "i-near-log": lambda: maps.map_triplet(maps.i_map(), near_log_law()),
}
REMAPS = (maps.jbeta_map(2.0), maps.jbeta_map(0.5), maps.i_map(), maps.i_jbeta_map(1.3),
          maps.ubetaf_map(1.0))


def kernel_tail_oracle(log_forms, kernel, u):
    """30-digit tail at u of the image of log-form segments under a kernel.

    Each power kernel (kappa, a) weighs the density at r > u by kappa (1 -
    (u/r)**a)/a, or kappa log(r/u) at a = 0. Over (L, hi), L = max(u, lo),
    each power term c r**(x-1) of a form's partial fractions (power_terms)
    gives kappa c (M(x) - u**a M(x - a))/a, or kappa c (M_log(x) + log(L/u)
    M(x)), with M its moment (power_moment) and M_log its log moment
    (log_power_moment) over (L, hi).
    """
    total = mp.mpf(0)
    for sg in log_forms:
        if u >= sg.hi:
            continue
        L = max(u, sg.lo)
        terms, dps = power_terms(sg.p, sg.e, sg.hi, math.log(sg.hi / L))
        with mp.workdps(dps):
            u_, L, hi = mp.mpf(u), mp.mpf(L), mp.mpf(sg.hi)

            def weighed(kappa, a, x):
                if a == 0:
                    return kappa * (log_power_moment(x, L, hi) + mp.log(L / u_) * power_moment(x, L, hi))
                return kappa * (power_moment(x, L, hi) - u_ ** a * power_moment(x - a, L, hi)) / a

            total += sg.c * mp.fsum(
                coef * weighed(kappa, a, power + 1) for kappa, a in kernel for coef, power in terms
            )
    return float(total)


@pytest.mark.parametrize("second", REMAPS, ids=lambda m: f"{m.kind}{m.beta or ''}")
@pytest.mark.parametrize("first", sorted(FIRST_IMAGES))
def test_images_of_log_form_images_match_oracle(first, second):
    # the log form of the first image maps to a log form with one node
    # more per power kernel, exactly: no grid tail, the tail of its image
    # matches the oracle at six radii from hi/1000 to just below hi, and
    # the whole image matches the exponent route
    img = FIRST_IMAGES[first]()
    log_forms = [sg for sg in img.levy.rays[0].radial.segments if sg.e]
    assert log_forms
    kernel = maps.POWER_KERNELS[second.kind](second.beta)
    hi = max(sg.hi for sg in log_forms)
    radii = hi * np.array([1e-3, 1e-2, 0.1, 0.4, 0.8, 0.99])
    image = maps._radial_image(RadialMeasure((), tuple(log_forms)), kernel)
    assert image.grid_tail is None
    want = np.array([kernel_tail_oracle(log_forms, kernel, u) for u in radii])
    assert np.max(np.abs(image.tail(radii) - want)) <= 1e-14 * np.max(want)
    again = maps.map_triplet(second, img)
    assert all(r.radial.grid_tail is None for r in again.levy.rays)
    grid = np.array([[-3.0], [-1.0], [0.5], [1.0], [2.0], [4.0]])
    via_phi = maps.map_exponent_grid(second, from_triplet(img), grid, 1e-12)
    assert np.max(np.abs(triplet_route(second, img, grid) - via_phi)) <= 1e-10


def test_three_nested_images_of_a_near_band_law_are_exact():
    # at beta 1.3 the segment's image offset p - beta + 1 is 0 up to
    # rounding, and the atom's image power u**0.3 maps into the band too:
    # each image adds a node, repeated ones included, and holds no grid
    trip = LevyTriplet(1, [0.1], [[0.0]], SpectralMeasure(1, (
        ray([1.0], atoms=[(1.5, 0.3)], segments=[(0.2, 3.0, 0.7, 0.3)]),
    )))
    m = maps.jbeta_map(1.3)
    first = maps.map_triplet(m, trip)
    third = maps.map_triplet(m, maps.map_triplet(m, first))
    third.require_valid()
    assert third.levy.rays[0].radial.grid_tail is None
    assert max(len(sg.e) for sg in third.levy.rays[0].radial.segments) == 3
    grid = np.array([[0.5], [1.0]])
    twice = maps.map_exponent_grid(m, maps.apply_map(m, from_triplet(first)), grid, 1e-11)
    assert np.max(np.abs(from_triplet(third).eval_grid(grid) - twice)) <= 1e-10


if __name__ == "__main__":
    # name the digests that moved, then rewrite the file
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    new = image_digests()
    for line in moved_digests(old, new):
        print(line)
    GOLDEN.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n")
