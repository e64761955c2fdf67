"""Integral transforms of exponents, measures, and triplets."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

import idlaw.maps as maps
from idlaw.errors import DimensionMismatchError, NotLogIntegrableError
from idlaw.exponent import convolve, from_callable, from_triplet
from idlaw.spectral import GridTail, RadialMeasure, Segment, SpectralMeasure, ray
from idlaw.triplet import LevyTriplet


def no_log_moment(Y, tol):
    # decays so slowly at the origin that the 1/u-weighted transform diverges
    y = np.abs(Y[:, 0])
    out = np.where(y == 0.0, 0.0, -1.0 / (1.0 - np.log(np.minimum(y, 1.0))))
    return out + 0j


class TestClosedFormSpots:
    def test_gaussian_images(self, gaussian_phi):
        assert maps.jbeta_exponent(gaussian_phi, 1.0, 1.0) == pytest.approx(
            -1.0 / 6.0, abs=1e-12
        )
        assert maps.jbeta_exponent(gaussian_phi, 2.0, 1.0) == pytest.approx(
            -0.25, abs=1e-12
        )
        assert maps.i_exponent(gaussian_phi, 1.0) == pytest.approx(-0.25, abs=1e-12)
        assert maps.ubeta_f_exponent(gaussian_phi, 1.0, 1.0) == pytest.approx(
            -1.0 / 12.0, abs=1e-12
        )
        assert maps.i_jbeta_exponent(gaussian_phi, 1.0, 1.0) == pytest.approx(
            -1.0 / 12.0, abs=1e-12
        )

    def test_jump_law_images(self, cp_phi):
        tol = 1e-12
        assert maps.jbeta_exponent(cp_phi, 1.0, 1.0, tol) == pytest.approx(
            -1.0907025731743183046, abs=1e-12
        )
        assert maps.jbeta_exponent(cp_phi, 2.0, 1.0, tol) == pytest.approx(
            -1.5975519828957789962, abs=1e-12
        )
        assert maps.i_jbeta_exponent(cp_phi, 1.0, 1.0, tol) == pytest.approx(
            -0.60406146019890804405, abs=1e-12
        )
        assert maps.ubeta_f_exponent(cp_phi, 2.0, 1.0, tol) == pytest.approx(
            -1.1280686024987674406, abs=1e-12
        )

    def test_singular_map_matches_clock_route_constants(self, cp_phi):
        # reference values computed separately through the time-changed form
        assert maps.i_jbeta_exponent(cp_phi, 1.0, 0.7, 1e-12) == pytest.approx(
            -0.31114796141108010726, abs=1e-12
        )
        assert maps.i_jbeta_exponent(cp_phi, 2.0, 1.3, 1e-12) == pytest.approx(
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

    def test_apply_method_matches_function(self, gaussian_phi):
        mp_ = maps.jbeta_map(2.0)
        Y = np.linspace(-1.0, 1.0, 5)[:, None]
        np.testing.assert_array_equal(
            mp_.apply(gaussian_phi).eval_grid(Y),
            maps.apply_map(mp_, gaussian_phi).eval_grid(Y),
        )

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
        with pytest.raises(ValueError):
            maps.InnerClock(-1.0)

    def test_clock_object_wraps_functions(self):
        clk = maps.InnerClock(1.5)
        s = np.array([0.5, 3.0])
        np.testing.assert_array_equal(clk.value(s), maps.inner_clock(1.5, s))
        np.testing.assert_array_equal(clk.rate(s), maps.inner_clock_rate(1.5, s))


class TestDivergenceDetection:
    def test_law_without_log_moment_is_refused(self):
        bad = from_callable(no_log_moment, dim=1, label="slowlog")
        with pytest.raises(NotLogIntegrableError):
            maps.i_exponent(bad, 1.0, 1e-8)

    def test_convergent_laws_pass_the_same_gate(self, mix_phi):
        # sanity guard: the divergence heuristic must not fire on good input
        val = maps.i_exponent(mix_phi, 1.0, 1e-9)
        assert np.isfinite(val.real) and np.isfinite(val.imag)


class TestMeasureTransform:
    def atom_triplet(self):
        m = SpectralMeasure(1, (ray([1.0], atoms=[(2.0, 1.0)]),))
        return LevyTriplet(1, [0.0], [[0.0]], m)

    def test_atom_maps_to_power_segment(self):
        src = SpectralMeasure(1, (ray([1.0], atoms=[(2.0, 1.0)]),))
        img = maps.jbeta_measure(src, 1.0)
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
            val = seg.mass_above(lo) * neg(u, lo) if u < lo else 0.0
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

    def test_segment_image_is_tabulated_consistently(self):
        rad = RadialMeasure((), (Segment(0.5, 3.0, 0.3, -1.4),), None)
        img = maps.jbeta_radial(rad, 1.5)
        assert img.atoms == () and img.segments == ()
        gt = img.grid_tail
        assert isinstance(gt, GridTail)
        direct = maps.transformed_tail(rad, 1.5, gt.radii)
        np.testing.assert_allclose(gt.tail, direct, rtol=0, atol=1e-15)

    def test_log_moment_finiteness_is_preserved(self):
        src = SpectralMeasure(1, (ray([1.0], atoms=[(math.e, 1.0)]),))
        after, before, same = maps.log_moment_preserved(src, 1.0)
        assert same
        assert before == pytest.approx(1.0, abs=1e-15)
        assert after == pytest.approx(math.exp(-1.0), rel=1e-13)

    def test_inside_ball_atom_has_zero_log_moment_image(self):
        src = SpectralMeasure(1, (ray([1.0], atoms=[(0.5, 2.0)]),))
        after, before, same = maps.log_moment_preserved(src, 2.0)
        assert same and before == 0.0 and after == 0.0
