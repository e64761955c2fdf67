"""Triplet-level exponent evaluation, algebra, and validation."""

import math

import numpy as np
import pytest

from idlaw.exponent import closed_form, from_triplet
from idlaw.spectral import (
    DimensionMismatchError,
    InvalidMeasureError,
    SpectralMeasure,
    ray,
)
from idlaw.triplet import LevyTriplet, cov_issues


def empty_measure(dim=1):
    return SpectralMeasure(dim, ())


def atom_measure(r, m, direction=(1.0,)):
    d = len(direction)
    return SpectralMeasure(d, (ray(direction, atoms=[(r, m)]),))


class TestExponent:
    def test_pure_gaussian_value(self):
        trip = LevyTriplet(1, [0.0], [[1.0]], empty_measure())
        assert from_triplet(trip)([2.0]) == pytest.approx(-2.0, abs=1e-15)
        assert from_triplet(trip)([2.0]).imag == 0.0

    def test_shift_adds_linear_imaginary_part(self):
        trip = LevyTriplet(1, [0.7], [[1.0]], empty_measure())
        got = from_triplet(trip)([1.5])
        assert got == pytest.approx(0.7 * 1.5j - 0.5 * 1.5**2, abs=1e-15)

    def test_large_atom_is_uncompensated(self):
        # atom beyond the unit ball: exp(i y r) - 1 with no linear term
        trip = LevyTriplet(1, [0.0], [[0.0]], atom_measure(2.0, 1.0))
        got = from_triplet(trip)([math.pi / 2])
        assert got == pytest.approx(-2.0, abs=1e-14)

    def test_small_atom_is_compensated(self):
        r, m, y = 0.5, 1.3, 1.7
        trip = LevyTriplet(1, [0.0], [[0.0]], atom_measure(r, m))
        want = m * (np.exp(1j * y * r) - 1.0 - 1j * y * r)
        assert from_triplet(trip)([y]) == pytest.approx(want, abs=1e-14)

    def test_grid_evaluation_matches_pointwise(self):
        trip = LevyTriplet(1, [0.3], [[0.8]], atom_measure(2.0, 0.5))
        Y = np.linspace(-2.0, 2.0, 7)[:, None]
        grid = trip.exponent_grid(Y)
        for k, y in enumerate(Y[:, 0]):
            assert grid[k] == pytest.approx(from_triplet(trip)([y]), abs=1e-15)

    def test_two_dimensional_gaussian(self):
        cov = np.array([[2.0, 0.5], [0.5, 1.0]])
        trip = LevyTriplet(2, [0.0, 0.0], cov, empty_measure(2))
        y = np.array([1.0, -1.0])
        assert from_triplet(trip)(y) == pytest.approx(-0.5 * y @ cov @ y, abs=1e-14)

    @pytest.mark.parametrize("jumps, rate", [
        ([2.0, -1.25, 0.75], 2.0),
        ([0.3, 1.7, -0.6, 2.5], 1.3),
    ])
    def test_atoms_only_triplet_matches_compound_poisson(self, jumps, rate):
        # the same law twice: its atoms on two rays, with the compensation
        # of the jumps inside the unit ball in the shift, and the closed form
        jumps = np.array(jumps)
        masses = rate / jumps.size
        shift = float(np.sum(jumps * masses * (np.abs(jumps) <= 1.0)))
        levy = SpectralMeasure(1, (
            ray([1.0], atoms=[(j, masses) for j in jumps if j > 0.0]),
            ray([-1.0], atoms=[(-j, masses) for j in jumps if j < 0.0]),
        ))
        trip = LevyTriplet(1, [shift], [[0.0]], levy)
        cp = closed_form("compound_poisson", rate=rate, jumps=jumps[:, None])
        Y = np.linspace(-50.0, 50.0, 2001)[:, None]
        assert np.max(np.abs(trip.exponent_grid(Y) - cp.eval_grid(Y))) <= 1e-15

    def test_wrong_grid_dim_raises(self):
        trip = LevyTriplet(1, [0.0], [[1.0]], empty_measure())
        with pytest.raises(DimensionMismatchError):
            trip.exponent_grid(np.zeros((3, 2)))
        with pytest.raises(DimensionMismatchError):
            trip.exponent_grid(np.zeros(3))

    def test_invalid_measure_refused_at_evaluation(self):
        bad = SpectralMeasure(
            1, (ray([1.0], segments=[(0.0, 1.0, 1.0, -3.0)]),)
        )
        trip = LevyTriplet(1, [0.0], [[0.0]], bad)
        with pytest.raises(InvalidMeasureError):
            from_triplet(trip)([1.0])


class TestConstruction:
    def test_shift_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            LevyTriplet(2, [0.0], np.eye(2), empty_measure(2))

    def test_cov_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            LevyTriplet(1, [0.0], np.eye(2), empty_measure())

    def test_measure_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            LevyTriplet(2, [0.0, 0.0], np.eye(2), empty_measure(1))

    def test_arrays_are_frozen(self):
        trip = LevyTriplet(1, [0.0], [[1.0]], empty_measure())
        with pytest.raises(ValueError):
            trip.shift[0] = 1.0


class TestAlgebra:
    def test_convolution_adds_exponents(self):
        a = LevyTriplet(1, [0.4], [[1.0]], atom_measure(2.0, 1.0))
        b = LevyTriplet(1, [-0.1], [[0.5]], atom_measure(0.5, 2.0))
        both = a.convolve(b)
        Y = np.linspace(-2.0, 2.0, 9)[:, None]
        np.testing.assert_allclose(
            both.exponent_grid(Y),
            a.exponent_grid(Y) + b.exponent_grid(Y),
            rtol=0, atol=1e-14,
        )

    def test_convolution_dim_mismatch(self):
        a = LevyTriplet(1, [0.0], [[1.0]], empty_measure())
        b = LevyTriplet(2, [0.0, 0.0], np.eye(2), empty_measure(2))
        with pytest.raises(DimensionMismatchError):
            a.convolve(b)

    def test_conv_power_scales_exponent(self):
        trip = LevyTriplet(1, [0.4], [[1.0]], atom_measure(2.0, 1.0))
        half = trip.conv_power(0.5)
        Y = np.linspace(-2.0, 2.0, 9)[:, None]
        np.testing.assert_allclose(
            half.exponent_grid(Y),
            0.5 * trip.exponent_grid(Y),
            rtol=1e-14, atol=1e-16,
        )

    def test_conv_power_requires_positive_exponent(self):
        trip = LevyTriplet(1, [0.0], [[1.0]], empty_measure())
        for c in (0.0, -1.0, math.inf):
            with pytest.raises(ValueError):
                trip.conv_power(c)


class TestValidation:
    def test_clean_triplet_is_valid(self):
        trip = LevyTriplet(1, [0.1], [[2.0]], atom_measure(0.5, 1.0))
        assert trip.issues() == []

    def test_asymmetric_cov_is_flagged(self):
        trip = LevyTriplet(2, [0.0, 0.0], [[1.0, 0.3], [0.0, 1.0]], empty_measure(2))
        issues = trip.issues()
        assert issues
        assert any("symmetric" in msg for msg in issues)

    def test_negative_eigenvalue_is_flagged(self):
        trip = LevyTriplet(1, [0.0], [[-1.0]], empty_measure())
        issues = trip.issues()
        assert issues
        assert any("eigenvalue" in msg for msg in issues)

    def test_one_by_one_cov_is_read_without_eigvalsh(self, monkeypatch):
        # a 1 x 1 covariance is its own eigenvalue: same message, no eigvalsh call
        eigvalsh = np.linalg.eigvalsh

        def refuse_1x1(a, *args, **kwargs):
            if np.shape(a) == (1, 1):
                raise AssertionError("eigvalsh called on a 1 x 1 covariance")
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse_1x1)
        assert cov_issues(np.array([[-1.0]])) == ("cov has negative eigenvalue -1.000e+00",)
        assert cov_issues(np.array([[-1e-11]])) == ()
        assert cov_issues(np.array([[0.5]])) == ()
        assert cov_issues(np.array([[2.0, 0.0], [0.0, -1.0]])) == (
            "cov has negative eigenvalue -1.000e+00",
        )

    def test_divergent_small_jump_segment_is_flagged(self):
        bad = SpectralMeasure(
            1, (ray([1.0], segments=[(0.0, 1.0, 1.0, -3.0)]),)
        )
        assert not bad.is_valid
        assert bad.issues()

    def test_bare_measure_is_valid(self):
        assert atom_measure(1.0, 1.0).is_valid


class TestLogMoment:
    def test_single_atom_beyond_unit_ball(self):
        trip = LevyTriplet(1, [0.0], [[0.0]], atom_measure(math.e, 1.0))
        val = trip.levy.log_moment()
        assert math.isfinite(val)
        assert val == pytest.approx(1.0, abs=1e-15)

    def test_atoms_inside_unit_ball_contribute_nothing(self):
        val = atom_measure(0.5, 3.0).log_moment()
        assert math.isfinite(val)
        assert val == 0.0

    def test_power_tail_segment(self):
        # integral of log(r) r^-2 over (1, inf) equals 1
        m = SpectralMeasure(
            1, (ray([1.0], segments=[(1.0, math.inf, 1.0, -2.0)]),)
        )
        val = m.log_moment()
        assert math.isfinite(val)
        assert val == pytest.approx(1.0, rel=1e-12)

    def test_mixed_measure_sums_contributions(self):
        m = SpectralMeasure(
            1,
            (ray([1.0], atoms=[(2.0, 0.5)], segments=[(1.0, math.inf, 1.0, -2.0)]),),
        )
        val = m.log_moment()
        assert math.isfinite(val)
        assert val == pytest.approx(0.5 * math.log(2.0) + 1.0, rel=1e-12)
