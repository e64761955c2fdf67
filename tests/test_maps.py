"""Integral transforms of exponents, measures, and triplets."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.integrate import quad

import idlaw.factor as factor
import idlaw.maps as maps
from idlaw import lawio
from idlaw.errors import (
    DimensionMismatchError,
    InvalidMeasureError,
    NotLogIntegrableError,
    QuadratureError,
)
from idlaw.exponent import convolve, from_callable, from_triplet
from idlaw.spectral import GridTail, RadialMeasure, Ray, Segment, SpectralMeasure, ray
from idlaw.triplet import LevyTriplet
from test_exponent import FOLD_TRIPLET
from test_map_triplet import panel_laws


def no_log_moment(Y, tol):
    # decays so slowly at the origin that the 1/u-weighted transform diverges
    y = np.abs(Y[:, 0])
    out = np.where(y == 0.0, 0.0, -1.0 / (1.0 - np.log(np.minimum(y, 1.0))))
    return out + 0j


def mapped(m, phi, y, tol=None):
    return maps.apply_map(m, phi)(y, tol)


def image_radial(rad, beta):
    """The jbeta image of one ray's radial part, through map_triplet."""
    trip = LevyTriplet(1, [0.0], [[0.0]], SpectralMeasure(1, (Ray(np.array([1.0]), rad),)))
    return maps.map_triplet(maps.jbeta_map(beta), trip).levy.rays[0].radial


class TestClosedFormSpots:
    def test_gaussian_images(self, gaussian_phi):
        assert mapped(maps.jbeta_map(1.0), gaussian_phi, 1.0) == pytest.approx(
            -1.0 / 6.0, abs=1e-12
        )
        assert mapped(maps.jbeta_map(2.0), gaussian_phi, 1.0) == pytest.approx(
            -0.25, abs=1e-12
        )
        assert mapped(maps.i_map(), gaussian_phi, 1.0) == pytest.approx(-0.25, abs=1e-12)
        assert mapped(maps.ubetaf_map(1.0), gaussian_phi, 1.0) == pytest.approx(
            -1.0 / 12.0, abs=1e-12
        )
        assert mapped(maps.i_jbeta_map(1.0), gaussian_phi, 1.0) == pytest.approx(
            -1.0 / 12.0, abs=1e-12
        )

    def test_jump_law_images(self, cp_phi):
        tol = 1e-12
        assert mapped(maps.jbeta_map(1.0), cp_phi, 1.0, tol) == pytest.approx(
            -1.0907025731743183046, abs=1e-12
        )
        assert mapped(maps.jbeta_map(2.0), cp_phi, 1.0, tol) == pytest.approx(
            -1.5975519828957789962, abs=1e-12
        )
        assert mapped(maps.i_jbeta_map(1.0), cp_phi, 1.0, tol) == pytest.approx(
            -0.60406146019890804405, abs=1e-12
        )
        assert mapped(maps.ubetaf_map(2.0), cp_phi, 1.0, tol) == pytest.approx(
            -1.1280686024987674406, abs=1e-12
        )

    def test_singular_map_matches_clock_route_constants(self, cp_phi):
        # reference values computed separately through the time-changed form
        assert mapped(maps.i_jbeta_map(1.0), cp_phi, 0.7, 1e-12) == pytest.approx(
            -0.31114796141108010726, abs=1e-12
        )
        assert mapped(maps.i_jbeta_map(2.0), cp_phi, 1.3, 1e-12) == pytest.approx(
            -1.4059451336992967, abs=1e-12
        )


class TestMapObjects:
    def test_bad_index_rejected(self):
        for b in (0.0, -1.0):
            with pytest.raises(ValueError):
                maps.jbeta_map(b)
        with pytest.raises(ValueError):
            maps.IntegralMap("jbeta", -2.0)
        with pytest.raises(ValueError):
            maps.IntegralMap("jbeta", None)

    def test_i_map_takes_no_index(self):
        assert maps.i_map().beta is None
        with pytest.raises(ValueError):
            maps.IntegralMap("i", 2.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            maps.IntegralMap("w", 1.0)

    def test_grid_dim_mismatch(self, gaussian_phi):
        with pytest.raises(DimensionMismatchError):
            maps.map_exponent_grid(
                maps.jbeta_map(1.0), gaussian_phi, np.zeros((3, 2))
            )


class TestMappedInvariants:
    def test_mapped_exponents_keep_exponent_properties(self, law_family, grid9):
        cases = [maps.jbeta_map(2.0), maps.ubetaf_map(1.0), maps.i_jbeta_map(1.0)]
        for name in ("gaussian", "cp"):
            phi = law_family[name]
            for mp_ in cases:
                img = maps.apply_map(mp_, phi)
                vals = img.eval_grid(grid9, 1e-10)
                flipped = img.eval_grid(-grid9, 1e-10)
                assert abs(img(0.0, 1e-10)) < 1e-12
                np.testing.assert_allclose(
                    flipped, np.conj(vals), rtol=0, atol=1e-11
                )
                assert np.all(vals.real <= 1e-12)

    @pytest.mark.parametrize("beta", [0.5, 1.3, 1.7])
    def test_nested_map_columns_meet_tol(self, mix_phi, beta):
        # prop2's right side: columns converge apart, each within tol of a
        # reference computed at a much tighter tolerance
        img = maps.apply_map(maps.i_map(), maps.apply_map(maps.jbeta_map(beta), mix_phi))
        grid = np.linspace(-5.0, 5.0, 11)[:, None]
        got = img.eval_grid(grid, 1e-7)
        ref = img.eval_grid(grid, 1e-11)
        assert np.max(np.abs(got - ref)) <= 1e-7

    @pytest.mark.parametrize(
        "m",
        [maps.jbeta_map(1.3), maps.i_map(), maps.ubetaf_map(0.5), maps.i_jbeta_map(2.0)],
        ids=lambda m: m.kind,
    )
    def test_empty_grids_map_to_empty_arrays(self, mix_phi, m):
        empty = np.zeros((0, 1))
        inner = maps.apply_map(maps.jbeta_map(2.0), mix_phi)
        for vals in (
            maps.map_exponent_grid(m, mix_phi, empty),
            maps.apply_map(m, mix_phi).eval_grid(empty),
            maps.apply_map(m, inner).eval_grid(empty, 1e-8),
        ):
            assert vals.shape == (0,) and vals.dtype == complex


class TestAlgebraicStructure:
    def test_maps_commute(self, gaussian_phi, cp_phi):
        Y = np.linspace(-2.0, 2.0, 5)[:, None]
        for phi, pairs, tol_assert in (
            (gaussian_phi, [(0.5, 2.0), (1.0, 3.0), (2.0, 3.0)], 1e-14),
            (cp_phi, [(1.0, 2.0)], 1e-11),
        ):
            for b1, b2 in pairs:
                ab = maps.apply_map(
                    maps.jbeta_map(b2), maps.apply_map(maps.jbeta_map(b1), phi)
                ).eval_grid(Y, 1e-9)
                ba = maps.apply_map(
                    maps.jbeta_map(b1), maps.apply_map(maps.jbeta_map(b2), phi)
                ).eval_grid(Y, 1e-9)
                np.testing.assert_allclose(ab, ba, rtol=0, atol=tol_assert)

    def test_map_respects_convolution(self, gaussian_phi, cp_phi):
        Y = np.linspace(-2.0, 2.0, 5)[:, None]
        lhs = maps.apply_map(
            maps.jbeta_map(1.5), convolve(gaussian_phi, cp_phi)
        ).eval_grid(Y, 1e-10)
        rhs = maps.apply_map(maps.jbeta_map(1.5), gaussian_phi).eval_grid(
            Y, 1e-10
        ) + maps.apply_map(maps.jbeta_map(1.5), cp_phi).eval_grid(Y, 1e-10)
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-11)


class TestInverse:
    def test_inverse_recovers_gaussian(self, gaussian_phi):
        img = maps.apply_map(maps.jbeta_map(1.0), gaussian_phi)
        inv = maps.jbeta_inverse(img, 1.0)
        assert inv(1.0, 1e-10) == pytest.approx(-0.5, abs=1e-9)

    def test_inverse_at_origin_is_zero(self, gaussian_phi):
        inv = maps.jbeta_inverse(
            maps.apply_map(maps.jbeta_map(1.0), gaussian_phi), 1.0
        )
        assert inv(0.0, 1e-10) == 0.0

    def test_roundtrip_on_jump_law(self, cp_phi):
        inv = maps.jbeta_inverse(
            maps.apply_map(maps.jbeta_map(2.0), cp_phi), 2.0
        )
        Y = np.linspace(-2.0, 2.0, 5)[:, None]
        np.testing.assert_allclose(
            inv.eval_grid(Y, 1e-9), cp_phi.eval_grid(Y), rtol=0, atol=1e-6
        )


class TestInnerClock:
    def test_values(self):
        assert maps.inner_clock(1.0, 0.0) == 0.0
        assert maps.inner_clock(1.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
        assert maps.inner_clock(1.0, 2.0) == pytest.approx(
            1.0 + math.exp(-2.0), rel=1e-15
        )

    def test_rate_is_one_minus_decay(self):
        s = np.linspace(0.0, 10.0, 21)
        np.testing.assert_allclose(
            maps.inner_clock_rate(2.0, s), 1.0 - np.exp(-2.0 * s), rtol=1e-15
        )

    def test_clock_is_increasing_and_slower_than_identity(self):
        s = np.linspace(0.0, 20.0, 101)
        v = maps.inner_clock(0.7, s)
        assert np.all(np.diff(v) > 0.0)
        assert np.all(v <= s)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            maps.inner_clock(0.0, 1.0)
        with pytest.raises(ValueError):
            maps.inner_clock(1.0, -0.5)


class TestDivergenceDetection:
    def test_law_without_log_moment_is_refused(self):
        bad = from_callable(no_log_moment, dim=1)
        with pytest.raises(NotLogIntegrableError):
            mapped(maps.i_map(), bad, 1.0, 1e-8)

    @pytest.mark.parametrize("p", [-1.1, -1.05])
    def test_heavy_tail_with_a_log_moment_is_mapped(self, p):
        # the probes shrink by only 8**(p + 1) per step, above the stall
        # bound 0.75, while the extrapolated remainder keeps shrinking
        levy = SpectralMeasure(1, (ray([1.0], segments=[(1.5, math.inf, 0.3, p)]),))
        trip = LevyTriplet(1, [0.0], [[0.0]], levy)
        grid = np.linspace(-5.0, 5.0, 11)[:, None]
        for m in (maps.i_map(), maps.i_jbeta_map(1.0)):
            via_phi = maps.map_exponent_grid(m, from_triplet(trip), grid, 1e-10)
            via_trip = from_triplet(maps.map_triplet(m, trip)).eval_grid(grid)
            np.testing.assert_allclose(via_phi, via_trip, rtol=0, atol=1e-12)

    def test_invalid_triplet_is_refused_as_invalid(self):
        levy = SpectralMeasure(1, (ray([1.0], segments=[(1.5, math.inf, 0.3, -0.5)]),))
        phi = from_triplet(LevyTriplet(1, [0.0], [[0.0]], levy))
        with pytest.raises(InvalidMeasureError):
            mapped(maps.i_map(), phi, 1.0, 1e-8)

    def test_overflowing_segment_image_is_a_typed_error(self):
        # lo**e = (1.6e-260)**-2 leaves the float range; the segment is admissible
        levy = SpectralMeasure(1, (ray([1.0], segments=[(1.6e-260, 1.0, 1.0, -2.0)]),))
        trip = LevyTriplet(1, [0.0], [[0.0]], levy)
        trip.require_valid()
        with pytest.raises(InvalidMeasureError, match=r"lo=1\.6e-260.*overflows"):
            maps.map_triplet(maps.jbeta_map(1.0), trip)

    def test_convergent_laws_pass_the_same_gate(self, mix_phi):
        # sanity guard: the divergence heuristic must not fire on good input
        val = mapped(maps.i_map(), mix_phi, 1.0, 1e-9)
        assert np.isfinite(val.real) and np.isfinite(val.imag)


def heavy_tail(p):
    """A law whose only jumps are an unbounded power tail c r**p from 1.5."""
    levy = SpectralMeasure(1, (ray([1.0], segments=[(1.5, math.inf, 0.3, p)]),))
    return from_triplet(LevyTriplet(1, [0.0], [[0.0]], levy))


def sequential_log_map(m, phi, Y, tol):
    """The ``i`` or ``ijbeta`` map of phi with one eval_grid call per walk probe.

    The lower-limit walk of ``maps._singular_grid`` before its probes were
    batched, kept as the reference the batched walk must reproduce.
    """
    Y = np.asarray(Y, dtype=float)
    weight = np.ones_like if m.kind == "i" else (lambda s: -np.expm1(m.beta * s))

    def probe(s):
        ss = np.array([s])
        return weight(ss)[0] * phi.eval_grid(np.exp(ss)[0] * Y, maps._INNER_SHARE * tol / -s)

    s_lo = float(maps._WALK_CUTS[0])
    prev_norm = float(np.max(np.abs(probe(s_lo)), initial=0.0))
    prev_rest, strikes = math.inf, 0
    while True:
        s_lo -= maps._WALK_STEP
        if s_lo < maps._WALK_FLOOR:
            raise QuadratureError(
                "the integrand of the logarithmic map does not decay within "
                f"the double range (|integrand| {prev_norm:.3e} at u = 1e-300)"
            )
        edge = probe(s_lo)
        norm = float(np.max(np.abs(edge), initial=0.0))
        if norm == 0.0:
            tail = edge
            break
        rate = math.log(prev_norm / norm) / maps._WALK_STEP if norm < prev_norm else 0.0
        rest = norm / rate if rate > 0.0 else math.inf
        if norm > 1e-12 and norm > 0.75 * prev_norm and not rest < prev_rest:
            strikes += 1
            if strikes >= 3:
                raise NotLogIntegrableError(
                    "the integrand mass near u = 0 does not shrink under "
                    f"refinement (|integrand| {norm:.3e} at u = "
                    f"exp({s_lo:.1f})); the input law appears to lack the "
                    "required log moment"
                )
        else:
            strikes = 0
        if rest <= 0.25 * tol:
            tail = edge / rate
            break
        prev_norm, prev_rest = norm, rest
    val = maps._kernel_integral(
        phi, Y, 0.75 * tol, s_lo, 0.0, weight, np.exp, mass=-s_lo, splits=maps._WALK_CUTS
    )
    return val + tail


LOG_MAPS = [maps.i_map()] + [maps.i_jbeta_map(b) for b in (0.5, 1.0, 2.0)]
WALK_GRIDS = {
    "antisymmetric": np.linspace(-5.0, 5.0, 11)[:, None],
    "skew": np.array([[0.0], [0.7], [2.5], [-1.3]]),
}
# the grid and tolerance of the benchmark's i-map check on its panel laws
PANEL_MAP_GRID, PANEL_MAP_TOL = np.array([[0.0], [2.5]]), 1e-6


@pytest.fixture(scope="module")
def walk_laws(cp_phi, mix_phi):
    """Leaf exponents of every kind the logarithmic maps walk over."""
    radii = np.geomspace(0.5, 4.0, 50)
    tabulated = GridTail(radii, 0.3 * (radii ** -1.5 - 4.0 ** -1.5))
    grid_tail = LevyTriplet(1, [0.1], [[0.2]], SpectralMeasure(1, (
        Ray(np.array([1.0]), RadialMeasure((), (), tabulated)),
    )))
    return {
        "cp": cp_phi,
        "cp+gaussian": mix_phi,
        "panel": from_triplet(panel_laws(9002, 1)[0]),
        "tail-1.1": heavy_tail(-1.1),
        "tail-1.05": heavy_tail(-1.05),
        "grid-tail": from_triplet(grid_tail),
    }


class TestBatchedWalk:
    """The lower-limit walk of the logarithmic maps, probed in batches."""

    @pytest.mark.parametrize("grid", WALK_GRIDS)
    @pytest.mark.parametrize(
        "law", ["cp", "cp+gaussian", "panel", "tail-1.1", "tail-1.05", "grid-tail"]
    )
    def test_leaf_laws_keep_the_bytes_of_the_sequential_walk(self, walk_laws, law, grid):
        phi, Y = walk_laws[law], WALK_GRIDS[grid]
        for m in LOG_MAPS:
            got = maps.map_exponent_grid(m, phi, Y, 1e-10)
            assert np.array_equal(got, sequential_log_map(m, phi, Y, 1e-10)), (m, law, grid)

    @pytest.mark.parametrize("grid", WALK_GRIDS)
    @pytest.mark.parametrize("beta", [1.0, 2.0])
    def test_nested_map_agrees_within_tol(self, mix_phi, beta, grid):
        # the batch runs the inner map at its deepest probe's tolerance, the
        # tightest of the batch, so values agree within tol, not to the bit
        inner = maps.apply_map(maps.jbeta_map(beta), mix_phi)
        Y = WALK_GRIDS[grid]
        got = maps.map_exponent_grid(maps.i_map(), inner, Y, 1e-8)
        ref = sequential_log_map(maps.i_map(), inner, Y, 1e-8)
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-8)

    @pytest.mark.parametrize("m", [maps.i_map(), maps.i_jbeta_map(1.0)], ids=lambda m: m.kind)
    def test_failures_keep_their_type_and_message(self, m):
        # no_log_moment takes log(|y|) on every row, so no row is 0
        Y = np.array([[-2.5], [1.0], [2.5]])
        for phi, error in (
            (from_callable(no_log_moment, dim=1), NotLogIntegrableError),
            (heavy_tail(-1.02), QuadratureError),
        ):
            with pytest.raises(error) as batched:
                maps.map_exponent_grid(m, phi, Y, 1e-10)
            with pytest.raises(error) as sequential:
                sequential_log_map(m, phi, Y, 1e-10)
            assert str(batched.value) == str(sequential.value)
        assert "at u = 1e-300" in str(batched.value)

    @pytest.mark.parametrize("index", range(4))
    @pytest.mark.parametrize("m", [maps.i_map(), maps.i_jbeta_map(1.0)], ids=lambda m: m.kind)
    def test_panel_law_map_makes_at_most_three_leaf_calls(self, leaf_calls, m, index):
        # probing one limit per call took 5 to 10 calls, the final integral's included
        phi = from_triplet(panel_laws(9002, 4)[index])
        maps.map_exponent_grid(m, phi, PANEL_MAP_GRID, PANEL_MAP_TOL)
        assert 1 <= leaf_calls.count <= 3

    @pytest.mark.parametrize("m", [maps.i_map(), maps.i_jbeta_map(1.0)], ids=lambda m: m.kind)
    def test_long_walks_make_at_most_ten_leaf_calls(self, leaf_calls, m):
        # the p = -1.05 tail walks 277 steps and the p = -1.02 tail to the
        # floor, one call per step before batching; no batch holds more rows
        # than the final integral's first depth, 6 panels of 21 per column
        Y = WALK_GRIDS["antisymmetric"]
        maps.map_exponent_grid(m, heavy_tail(-1.05), Y, 1e-10)
        assert leaf_calls.count <= 10
        assert max(leaf_calls.rows) <= 6 * 21 * len(Y)
        leaf_calls.rows.clear()
        with pytest.raises(QuadratureError):
            maps.map_exponent_grid(m, heavy_tail(-1.02), Y, 1e-10)
        assert leaf_calls.count <= 10
        assert max(leaf_calls.rows) <= 6 * 21 * len(Y)

    @pytest.mark.parametrize("grid, rows", [("antisymmetric", 6), ("skew", 4)])
    def test_an_antisymmetric_grid_stacks_its_upper_half(self, leaf_calls, cp_phi, grid, rows):
        maps.map_exponent_grid(maps.i_map(), cp_phi, WALK_GRIDS[grid], 1e-10)
        assert leaf_calls.rows[0] == 8 * rows


FOLD_MAPS = [
    maps.jbeta_map(0.5), maps.jbeta_map(1.3), maps.ubetaf_map(0.5), maps.ubetaf_map(2.0),
    maps.i_map(), maps.i_jbeta_map(1.0),
]


@pytest.mark.parametrize("law", [*lawio.BUILTIN_LAWS, "triplet"])
def test_folding_keeps_the_bytes(law):
    # an antisymmetric grid integrates its upper half and mirrors it; every
    # row keeps the bytes of the unfolded evaluation, signed zeros included
    if law == "triplet":
        phi = from_triplet(FOLD_TRIPLET)
    else:
        phi = lawio.builtin_law(law).exponent
    Y = np.linspace(-4.0, 4.0, 9)[:, None]
    for m in FOLD_MAPS:
        folded = maps.map_exponent_grid(m, phi, Y, 1e-8)
        # the same rows in an order that is not antisymmetric
        rolled = maps.map_exponent_grid(m, phi, np.roll(Y, 1, axis=0), 1e-8)
        assert folded.tobytes() == np.roll(rolled, -1).tobytes(), m
        if m.kind in ("jbeta", "ubetaf"):
            # no walk ties the columns together: each is its own one-row call
            rows = [maps.map_exponent_grid(m, phi, Y[k : k + 1], 1e-8) for k in range(len(Y))]
            assert folded.tobytes() == np.concatenate(rows).tobytes(), m


class TestMeasureTransform:
    def atom_triplet(self):
        m = SpectralMeasure(1, (ray([1.0], atoms=[(2.0, 1.0)]),))
        return LevyTriplet(1, [0.0], [[0.0]], m)

    def test_atom_maps_to_power_segment(self):
        src = SpectralMeasure(1, (ray([1.0], atoms=[(2.0, 1.0)]),))
        img = maps.map_triplet(maps.jbeta_map(1.0), LevyTriplet(1, [0.0], [[0.0]], src)).levy
        seg = img.rays[0].radial.segments[0]
        assert (seg.lo, seg.hi) == (0.0, 2.0)
        assert seg.c == pytest.approx(0.5, abs=0)
        assert seg.p == 0.0
        assert img.rays[0].radial.atoms == ()

    def test_atom_image_tail(self):
        # image tail of a unit-mass atom at radius 2 is 1 - (u/2)^beta
        u = np.array([0.5, 1.0, 1.5])
        rad = ray([1.0], atoms=[(2.0, 1.0)]).radial
        np.testing.assert_allclose(
            maps.transformed_tail(rad, 1.0, u), 1.0 - u / 2.0, rtol=0, atol=1e-15
        )

    def test_gaussian_part_scales_exactly(self):
        trip = LevyTriplet(1, [0.3], [[0.8]], SpectralMeasure(1, ()))
        for beta in (1.0, 2.0, 3.5):
            out = maps.jbeta_triplet(trip, beta)
            assert out.shift[0] == 0.3 * beta / (beta + 1.0)
            assert out.cov[0, 0] == 0.8 * beta / (beta + 2.0)

    def test_trip_route_matches_exponent_route(self, grid9):
        trip = self.atom_triplet()
        beta = 2.0
        via_trip = from_triplet(maps.jbeta_triplet(trip, beta)).eval_grid(
            grid9, 1e-9
        )
        via_phi = maps.map_exponent_grid(
            maps.jbeta_map(beta), from_triplet(trip), grid9, 1e-9
        )
        np.testing.assert_allclose(via_trip, via_phi, rtol=0, atol=1e-7)

    def test_transformed_tail_of_segment(self):
        rad = RadialMeasure((), (Segment(0.5, 3.0, 0.3, -1.4),), None)
        beta = 1.5
        us = np.array([0.1, 0.5, 1.0, 2.0, 2.9, 3.5])

        def oracle(u):
            lo = max(u, 0.5)
            if lo >= 3.0:
                return 0.0
            val, _ = quad(
                lambda r: (1.0 - (u / r) ** beta) * 0.3 * r ** -1.4, lo, 3.0
            )
            return val

        want = np.array([oracle(u) for u in us])
        np.testing.assert_allclose(
            maps.transformed_tail(rad, beta, us), want, rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("beta", [0.5, 1.0, 1.3, 2.0, 3.0])
    @pytest.mark.parametrize(
        "seg",
        [
            Segment(0.0, 0.8, 0.5, -0.5),
            Segment(0.0, 0.8, 0.5, -1.0),
            Segment(0.5, 3.0, 0.3, -1.4),
            Segment(0.5, 3.0, 0.3, -1.0),
            Segment(0.5, 3.0, 0.3, 0.3),
            Segment(0.0, math.inf, 0.4, -2.0),
            Segment(1.5, math.inf, 0.3, -1.6),
        ],
    )
    def test_transformed_tail_matches_scalar_closed_form(self, seg, beta):
        def neg(a, b):
            # integral of w**(-beta-1) over (a, b), b may be inf
            return (a ** -beta - (0.0 if math.isinf(b) else b ** -beta)) / beta

        def pow_int(a, b, q):
            # integral of w**q over (a, b), convergent cases
            e = q + 1.0
            if math.isinf(b):
                return -(a ** e) / e
            return math.log(b / a) if e == 0.0 else (b ** e - a ** e) / e

        def scalar(u):
            c, p, lo, hi = seg.c, seg.p, seg.lo, seg.hi
            if u >= hi:
                return 0.0
            L = max(u, lo)
            val = float(RadialMeasure((), (seg,)).tail(lo)) * neg(u, lo) if u < lo else 0.0
            if math.isinf(hi):
                val += c / -(p + 1.0) * pow_int(L, hi, p - beta)
            elif p == -1.0:
                val += c * (math.log(hi / L) * L ** -beta / beta - neg(L, hi) / beta)
            else:
                val += c / (p + 1.0) * (hi ** (p + 1.0) * neg(L, hi) - pow_int(L, hi, p - beta))
            return beta * u ** beta * val

        us = np.array([1e-6, 0.1, 0.5, 0.8, 1.0, 2.0, 2.9, 3.0, 3.5, 40.0])
        want = np.array([scalar(u) for u in us])
        got = maps.transformed_tail(RadialMeasure((), (seg,), None), beta, us)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-15)

    def test_segment_image_is_exact(self):
        rad = RadialMeasure((), (Segment(0.5, 3.0, 0.3, -1.4),), None)
        img = image_radial(rad, 1.5)
        assert img.atoms == () and img.grid_tail is None
        # a dense log grid down to 1e-5, plus the breakpoint and radius 1
        radii = np.union1d(np.geomspace(0.5e-2 / 512, 3.0, 12938), [0.5, 1.0])
        direct = maps.transformed_tail(rad, 1.5, radii)
        np.testing.assert_allclose(img.tail(radii), direct, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("rel_len", [1e-4, 3e-5, 1e-6])
    def test_short_segment_image_is_exact_below_lo(self, rel_len):
        # the (0, lo) term's coefficient takes the range's log-length; as
        # log(hi/lo) it carried the rounding of hi/lo, eps/(2 rel_len)
        # relative: 3e-13 to 3e-11 off here
        rad = RadialMeasure((), (Segment(0.7, 0.7 * (1.0 + rel_len), 0.3, -1.4),), None)
        img = image_radial(rad, 1.5)
        us = np.geomspace(1e-3, 0.6, 9)
        np.testing.assert_allclose(img.tail(us), maps.transformed_tail(rad, 1.5, us), rtol=1e-14)

    def test_grid_tail_image_is_tabulated_consistently(self):
        radii = np.geomspace(0.5, 3.0, 40)
        seg_tail = RadialMeasure((), (Segment(0.5, 3.0, 0.3, -1.4),)).tail(radii)
        rad = RadialMeasure((), (), GridTail(radii, seg_tail))
        img = image_radial(rad, 1.5)
        assert img.atoms == () and img.segments == ()
        gt = img.grid_tail
        assert gt.radii.size >= 4097
        direct = maps.transformed_tail(rad, 1.5, gt.radii)
        np.testing.assert_allclose(gt.tail, direct, rtol=0, atol=1e-15)

    def test_grid_tail_transform_is_continuous_across_beta_one(self):
        radii = np.geomspace(0.5, 3.0, 40)
        rad = RadialMeasure((), (), GridTail(radii, np.linspace(1.0, 0.0, 40)))
        us = np.array([0.3, 0.7, 1.5, 2.5])
        at_one = maps.transformed_tail(rad, 1.0, us)
        for beta in (1.0 - 1e-12, 1.0 + 1e-12):
            np.testing.assert_allclose(
                maps.transformed_tail(rad, beta, us), at_one, rtol=0, atol=1e-11
            )

    def test_log_form_segment_maps_exactly_when_mapped_again(self):
        # the log form of nodes {0, 0} maps to one of nodes {-0.7, 0, 0} on
        # (0.5, 3) plus a power term on (0, 0.5)
        rad = RadialMeasure((), (Segment(0.5, 3.0, 0.39, 0.3, 0.0),))
        img = image_radial(rad, 2.0)
        assert img.grid_tail is None and img.issues("ray") == []
        assert [sg.e for sg in img.segments] == [(), (0.3 + (1.0 - 2.0), 0.0)]
        us = np.union1d(np.geomspace(1e-3, 3.0, 200), [0.2, 0.5, 0.7, 1.0, 1.5, 2.9])
        direct = maps.transformed_tail(rad, 2.0, us)
        np.testing.assert_allclose(img.tail(us), direct, rtol=0, atol=1e-15)

    def test_negative_log_form_maps_exactly_with_the_other_segments(self):
        # -0.3 r^0.3 log(3/r) + 0.75 on (0.5, 3) is positive, the log form
        # alone is not; in the image its double node 0 is one (x + y t)
        # group of the sign certificate. The image's signed terms sum to
        # tails up to 1.37 with a few ulps more rounding than
        # transformed_tail (1.6e-15 against 2e-16 off a 30-digit value)
        rad = RadialMeasure((), (Segment(0.5, 3.0, -0.3, 0.3, 0.0), Segment(0.5, 3.0, 0.75, 0.0)))
        img = image_radial(rad, 1.5)
        assert img.grid_tail is None and img.issues("ray") == []
        us = np.union1d(np.geomspace(1e-3, 3.0, 200), [0.5, 1.0])
        direct = maps.transformed_tail(rad, 1.5, us)
        np.testing.assert_allclose(img.tail(us), direct, rtol=2e-15, atol=1e-15)

    # e = p - beta + 1 at, and within 1e-7 of, the log form's e = 0
    NEAR_LOG_FORM = [
        (Segment(0.5, 3.0, 0.3, 0.3), 1.3),
        (Segment(0.0, 0.8, 0.5, -0.5), 0.5),
        (Segment(0.5, 3.0, 0.3, 0.3 + 1e-7), 1.3),
        (Segment(0.5, 3.0, 0.3, 0.3 - 1e-7), 1.3),
        (Segment(0.0, 0.8, 0.5, -0.5 + 1e-7), 0.5),
        (Segment(0.0, 0.8, 0.5, -0.5 - 1e-7), 0.5),
    ]

    @pytest.mark.parametrize("seg, beta", NEAR_LOG_FORM)
    def test_image_tail_near_log_form(self, seg, beta):
        rad = RadialMeasure((), (seg,), None)
        img = image_radial(rad, beta)
        assert img.grid_tail is None and img.issues("ray") == []
        us = np.array([1e-6, 0.1, 0.5, 0.8, 1.0, 2.0, 2.9, 3.0, 3.5])
        np.testing.assert_allclose(
            img.tail(us), maps.transformed_tail(rad, beta, us), rtol=0, atol=1e-15
        )

    @pytest.mark.parametrize("seg, beta", NEAR_LOG_FORM)
    def test_image_exponent_near_log_form(self, seg, beta, grid9):
        trip = LevyTriplet(1, [0.1], [[0.0]], SpectralMeasure(1, (ray([1.0], segments=[
            (seg.lo, seg.hi, seg.c, seg.p)]),)))
        via_trip = from_triplet(maps.jbeta_triplet(trip, beta)).eval_grid(grid9, 1e-10)
        via_phi = maps.map_exponent_grid(
            maps.jbeta_map(beta), from_triplet(trip), grid9, 1e-10
        )
        np.testing.assert_allclose(via_trip, via_phi, rtol=0, atol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.lists(
            st.tuples(
                st.floats(0.05, 3.0),  # length of the gap before the segment
                st.floats(0.05, 3.0),  # segment length
                st.floats(0.01, 2.0),  # scale c
                st.floats(-2.9, 1.0),  # power p
            ),
            min_size=1,
            max_size=4,
        ),
        first_at_zero=st.booleans(),
        tail_p=st.one_of(st.none(), st.floats(-2.9, -1.05)),
        beta=st.floats(0.2, 3.5),
        beta2=st.floats(0.2, 3.5),
    )
    # e = p + (1 - beta) of the second map is 4.7e-35, not 0: p - beta + 1
    # rounded it to 0, and the log form stored for it dipped below zero
    @example(data=[(1.0, 1.0, 1.0, 4.695602009556252e-35)], first_at_zero=True,
             tail_p=None, beta=2.0, beta2=1.0)
    # the second image holds a power term at p = 0.09375 and a log form
    # whose other exponent p - e lands on it too: the sign certificate must
    # take the two as one group (it divided by their difference, zero)
    @example(data=[(1.0, 1.0, 1.0, 0.0920383834908358)], first_at_zero=False,
             tail_p=None, beta=0.5, beta2=1.09375)
    # p = 5e-324: the first image's two power terms on (0.25, 0.375) change
    # sign at t = -745, whose exp(t) the ratio of their coefficients
    # underflowed to 0 (a math domain error in the certificate)
    @example(data=[(0.25, 0.125, 1.0, 5e-324)], first_at_zero=False,
             tail_p=None, beta=2.0, beta2=1.0)
    # and the second image's log form of offset 5e-324 had partial-fraction
    # weights 1/5e-324 = inf, so it was left out and the rest, -2 + r on
    # (1, 2), was not certified
    @example(data=[(1.0, 1.0, 1.0, 5e-324)], first_at_zero=False,
             tail_p=None, beta=2.0, beta2=1.0)
    def test_images_of_segment_sets_are_certified(
        self, data, first_at_zero, tail_p, beta, beta2
    ):
        segments, edge = [], 0.0
        for k, (gap, length, c, p) in enumerate(data):
            lo = 0.0 if (k == 0 and first_at_zero) else edge + gap
            segments.append((lo, lo + length, c, p))
            edge = lo + length
        if tail_p is not None:
            segments.append((edge, math.inf, 0.3, tail_p))
        src = ray([1.0], atoms=[(1.0, 0.5)], segments=segments).radial
        img = image_radial(src, beta)
        assert img.grid_tail is None
        assert img.issues("ray") == []
        us = np.array([0.01, 0.3, 1.0, 2.5, 7.0])
        np.testing.assert_allclose(
            img.tail(us), maps.transformed_tail(src, beta, us), rtol=1e-12, atol=1e-12
        )
        # the image of the image: one more power term per range, whose
        # coefficients may change sign more than once
        assume(all(not sg.e for sg in img.segments))
        img2 = image_radial(img, beta2)
        assert img2.issues("ray") == []
        np.testing.assert_allclose(
            img2.tail(us), maps.transformed_tail(img, beta2, us), rtol=1e-12, atol=1e-12
        )

    def test_signed_pair_with_a_negative_dip_is_refused(self):
        # the exact image of Segment(0.5, 3, 0.3, -1.4) at beta 1.5 with its
        # positive term cut by 10%: the density turns negative below hi
        cb, e = 0.3 * 1.5, -1.4 - 1.5 + 1.0
        pair = [(0.5, 3.0, 0.9 * cb / -e, -1.4), (0.5, 3.0, cb * 3.0 ** e / e, 0.5)]
        levy = SpectralMeasure(1, (ray([1.0], segments=pair),))
        with pytest.raises(InvalidMeasureError, match="nonnegative"):
            levy.require_valid()
        exact = [(0.5, 3.0, cb / -e, -1.4), pair[1]]
        SpectralMeasure(1, (ray([1.0], segments=exact),)).require_valid()

    # the second map of (1, 2) p 0.5 at betas 1 then 0.5 has the density
    # c (sqrt(u) - sqrt(2))^2 / sqrt(u) on (1, 2): three terms whose
    # coefficients change sign twice
    NESTED = [
        ((1.0, 2.0, 0.7, 0.5), (1.0, 0.5)),
        ((0.0, 0.8, 0.5, -2.2), (1.0, 2.0)),
        ((0.3, 2.0, 0.4, -0.7), (0.5, 2.0, 0.7)),
        ((1.5, math.inf, 0.3, -1.6), (2.0, 0.5, 1.0)),
    ]

    @pytest.mark.parametrize("seg, betas", NESTED)
    def test_images_of_images_are_certified_and_exact(self, seg, betas):
        img = ray([1.0], atoms=[(1.0, 0.5)], segments=[seg]).radial
        us = np.array([0.05, 0.4, 1.0, 1.3, 1.9, 2.5])
        for beta in betas:
            want = maps.transformed_tail(img, beta, us)
            img = image_radial(img, beta)
            assert img.grid_tail is None and img.issues("ray") == []
            np.testing.assert_allclose(img.tail(us), want, rtol=1e-13, atol=1e-14)

    def test_exponent_of_an_image_of_an_image(self, grid9):
        levy = SpectralMeasure(1, (ray([1.0], segments=[(1.0, 2.0, 0.7, 0.5)]),))
        once = maps.jbeta_triplet(LevyTriplet(1, [0.1], [[0.0]], levy), 1.0)
        twice = maps.jbeta_triplet(once, 0.5)
        via_trip = from_triplet(twice).eval_grid(grid9, 1e-10)
        via_phi = maps.map_exponent_grid(maps.jbeta_map(0.5), from_triplet(once), grid9, 1e-10)
        np.testing.assert_allclose(via_trip, via_phi, rtol=0, atol=1e-9)

    @staticmethod
    def log_moments(src, beta):
        trip = LevyTriplet(1, [0.0], [[0.0]], src)
        after = maps.map_triplet(maps.jbeta_map(beta), trip).levy.log_moment()
        return after, src.log_moment(), math.isfinite(after) == math.isfinite(src.log_moment())

    def test_log_moment_finiteness_is_preserved(self):
        src = SpectralMeasure(1, (ray([1.0], atoms=[(math.e, 1.0)]),))
        after, before, same = self.log_moments(src, 1.0)
        assert same
        assert before == pytest.approx(1.0, abs=1e-15)
        assert after == pytest.approx(math.exp(-1.0), rel=1e-13)

    def test_inside_ball_atom_has_zero_log_moment_image(self):
        src = SpectralMeasure(1, (ray([1.0], atoms=[(0.5, 2.0)]),))
        after, before, same = self.log_moments(src, 2.0)
        assert same and before == 0.0 and after == 0.0


class TestPanelLawImage:
    """Atoms, a finite power segment from 0 and an unbounded power tail."""

    @pytest.fixture(scope="class")
    def trip(self):
        levy = SpectralMeasure(1, (
            ray([1.0], atoms=[(2.0, 1.0), (1.0, 0.5)], segments=[(0.0, 0.8, 0.5, -2.2)]),
            ray([-1.0], segments=[(1.5, math.inf, 0.3, -1.6)]),
        ))
        return LevyTriplet(1, [0.25], [[0.2]], levy)

    def test_triplet_image_matches_exponent_image(self, trip):
        grid = factor.default_grid(1)
        img = maps.jbeta_triplet(trip, 1.0)
        assert all(r.radial.grid_tail is None for r in img.levy.rays)
        via_trip = from_triplet(img).eval_grid(grid, 1e-10)
        via_phi = maps.map_exponent_grid(
            maps.jbeta_map(1.0), from_triplet(trip), grid, 1e-10
        )
        np.testing.assert_allclose(via_trip, via_phi, rtol=0, atol=1e-8)

    def test_logarithmic_map_of_the_image_is_the_composite_map(self, trip):
        # prop2 at the triplet level: i after jbeta equals the ijbeta map
        grid = factor.default_grid(1)
        img = from_triplet(maps.jbeta_triplet(trip, 1.0))
        nested = maps.map_exponent_grid(maps.i_map(), img, grid, 1e-8)
        direct = maps.map_exponent_grid(
            maps.i_jbeta_map(1.0), from_triplet(trip), grid, 1e-8
        )
        np.testing.assert_allclose(nested, direct, rtol=0, atol=1e-8)

    def test_image_of_the_image_is_exact(self, trip):
        # the second map acts on signed power terms and must certify them
        grid = np.linspace(-3.0, 3.0, 7)[:, None]
        once = maps.jbeta_triplet(trip, 1.0)
        twice = maps.jbeta_triplet(once, 2.0)
        assert all(r.radial.grid_tail is None for r in twice.levy.rays)
        via_trip = from_triplet(twice).eval_grid(grid, 1e-10)
        via_phi = maps.map_exponent_grid(maps.jbeta_map(2.0), from_triplet(once), grid, 1e-10)
        np.testing.assert_allclose(via_trip, via_phi, rtol=0, atol=1e-8)
