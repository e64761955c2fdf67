import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

import idlaw
import idlaw.spectral as spectral
from idlaw import quadrature
from idlaw import triplet as tripmod
from idlaw.errors import InvalidMeasureError
from idlaw.spectral import GridTail, SpectralMeasure, ray


def jump_kernel(r, w):
    # integrand of the compensated jump part for a positive ray
    val = np.exp(1j * w * r) - 1.0
    if r <= 1.0:
        val -= 1j * w * r
    return val


class TestGridTail:
    def test_cell_masses_and_tail_interpolation(self):
        gt = GridTail([0.5, 1.0, 2.0, 4.0], [1.0, 0.6, 0.2, 0.0])
        assert np.allclose(gt.cell_masses(), [0.4, 0.4, 0.2], atol=1e-15)
        assert gt.tail_at(0.4) == 1.0
        assert abs(gt.tail_at(1.5) - 0.4) < 1e-15
        assert gt.tail_at(4.0) == 0.0
        assert gt.tail_at(7.0) == 0.0

    def test_integral_uses_endpoint_averages_per_cell(self):
        gt = GridTail([0.5, 1.5, 3.0], [0.8, 0.3, 0.0])
        # a node is interposed at radius 1, then each cell weighs the kernel
        # by the average of its endpoint values
        nodes = [0.5, 1.0, 1.5, 3.0]
        tails = [0.8, 0.55, 0.3, 0.0]
        g = lambda r: r * r
        truth = sum(
            (tails[k] - tails[k + 1]) * 0.5 * (g(nodes[k]) + g(nodes[k + 1]))
            for k in range(3)
        )
        assert abs(gt.integral(g) - truth) < 1e-12

    def test_split_integral_straddles_unit_radius(self):
        gt = GridTail([0.5, 1.5, 3.0], [0.8, 0.3, 0.0])
        # below-1 kernel r^2 sees the (0.5, 1] cell, the flat kernel the rest
        truth = 0.25 * 0.5 * (0.25 + 1.0) + 0.25 * 1.0 + 0.3 * 1.0
        got = gt.split_integral(lambda r: r * r, lambda r: np.ones_like(r))
        assert abs(got - truth) < 1e-12

    def test_residual_tail_mass_sits_on_last_node(self):
        gt = GridTail([1.0, 2.0], [0.5, 0.2])
        got = gt.integral(lambda r: r)
        truth = 0.3 * 0.5 * (1.0 + 2.0) + 0.2 * 2.0
        assert abs(got - truth) < 1e-12

    def test_fine_tabulation_converges_to_density_integral(self):
        # tail exp(-r) on a dense grid: endpoint averaging is second order,
        # so the Stieltjes integral approaches the true density integral
        radii = np.linspace(0.2, 20.0, 4001)
        gt = GridTail(radii, np.exp(-radii))
        got = gt.integral(lambda r: r * r)
        truth = quad(lambda r: r * r * np.exp(-r), 0.2, 20.0, epsabs=1e-13)[0]
        truth += np.exp(-20.0) * 20.0**2
        assert abs(got - truth) < 1e-5

    def test_rejects_malformed_grids(self):
        with pytest.raises(ValueError):
            GridTail([1.0], [0.5])
        with pytest.raises(ValueError):
            GridTail([1.0, 2.0], [0.5])

    def test_issues_flag_increasing_tail(self):
        gt = GridTail([1.0, 2.0, 3.0], [0.2, 0.6, 0.0])
        assert gt.issues("t")


class TestRadialClosedForms:
    def test_tails_combine_atoms_and_segments(self):
        rad = ray(1.0, atoms=[(1.0, 0.5), (2.0, 1.0)], segments=[(1.0, 3.0, 0.6, -2.0)]).radial
        seg_mass = lambda u: 0.6 * (1.0 / u - 1.0 / 3.0)
        assert abs(rad.tail(0.5) - (1.5 + seg_mass(1.0))) < 1e-14
        assert abs(rad.tail(1.0) - (1.0 + seg_mass(1.0))) < 1e-14
        assert abs(rad.tail(2.0) - (0.0 + seg_mass(2.0))) < 1e-14
        assert rad.tail(3.5) == 0.0

    def test_power_moment_beyond_unit_ball(self):
        rad = ray(1.0, atoms=[(2.0, 1.0)], segments=[(1.0, math.inf, 0.2, -2.5)]).radial
        truth = 2.0**-1.0 + 0.2 / 2.5
        assert abs(rad.power_moment_above1(-1.0) - truth) < 1e-12

    def test_log_moment_of_unbounded_segment(self):
        rad = ray(1.0, segments=[(1.0, math.inf, 0.2, -2.5)]).radial
        # int_1^inf log(r) * 0.2 r^-2.5 dr = 0.2 / 1.5^2
        assert abs(rad.log_moment() - 0.2 / 2.25) < 1e-12


class TestExponentIntegrals:
    def test_segment_matches_high_precision_oracle(self):
        m = SpectralMeasure(1, (ray(1.0, segments=[(0.5, 3.0, 0.3, -1.4)]),))
        got = m.exponent_jump_integral(np.array([[1.2]]))[0]
        # frozen 30-digit quadrature of the compensated kernel
        truth = -0.45162806527956827053 + 0.15911312123657953195j
        assert abs(got - truth) < 1e-10

    def test_unbounded_segment_matches_oscillatory_oracle(self):
        m = SpectralMeasure(1, (ray(1.0, segments=[(1.0, math.inf, 0.2, -2.5)]),))
        got = m.exponent_jump_integral(np.array([[0.7]]))[0]
        # frozen oscillatory-aware high-precision quadrature of the tail
        truth = -0.098531378210745869589 + 0.091804516769435187804j
        assert abs(got - truth) < 1e-12

    def test_grid_tail_exponent_follows_endpoint_average_rule(self):
        gt = GridTail([0.5, 1.5, 3.0], [0.8, 0.3, 0.0])
        m = SpectralMeasure(1, (ray(1.0, grid_tail=gt),))
        nodes = np.array([0.5, 1.0, 1.5, 3.0])
        tails = np.array([0.8, 0.55, 0.3, 0.0])
        for w in (0.9, 1.7):
            got = m.exponent_jump_integral(np.array([[w]]))[0]
            masses = tails[:-1] - tails[1:]
            truth = 0.0
            for k in range(3):
                # each cell applies one kernel form, chosen by which side of
                # the unit radius the whole cell sits on
                comp = nodes[k + 1] <= 1.0
                gl = np.exp(1j * w * nodes[k]) - 1.0 - (1j * w * nodes[k] if comp else 0.0)
                gr = np.exp(1j * w * nodes[k + 1]) - 1.0 - (1j * w * nodes[k + 1] if comp else 0.0)
                truth += masses[k] * 0.5 * (gl + gr)
            assert abs(got - truth) < 1e-13

    def test_fine_grid_tail_exponent_converges_to_density_oracle(self):
        radii = np.linspace(0.2, 12.0, 3001)
        gt = GridTail(radii, np.exp(-radii))
        m = SpectralMeasure(1, (ray(1.0, grid_tail=gt),))
        w = 1.3
        got = m.exponent_jump_integral(np.array([[w]]))[0]
        truth = 0.0
        for a, b in ((0.2, 1.0), (1.0, 12.0)):
            re = quad(lambda r: jump_kernel(r, w).real * np.exp(-r), a, b, epsabs=1e-13)[0]
            im = quad(lambda r: jump_kernel(r, w).imag * np.exp(-r), a, b, epsabs=1e-13)[0]
            truth += re + 1j * im
        truth += np.exp(-12.0) * jump_kernel(12.0, w)
        assert abs(got - truth) < 1e-5

    @pytest.mark.parametrize("p", [-1.001, -1.05, -2.5, -2.999])
    @pytest.mark.parametrize("lo", [1.0, 1e3])
    def test_unbounded_tail_matches_incomplete_gamma(self, p, lo):
        # 30-digit reference: int_lo^inf r^p exp(i w r) dr
        # = (-i w)^(-p-1) Gamma(p+1, -i lo w) on the principal branch
        ws = np.array([0.0, 1e-12, -1e-12, 1e-6, -1e-6, 5.0, -5.0, 1e3])
        mass = -(lo ** (p + 1.0)) / (p + 1.0)
        want = np.zeros(ws.shape, dtype=complex)
        with mp.workdps(30):
            for k, w in enumerate(ws):
                if w != 0.0:
                    z = mp.mpc(0.0, -w)
                    want[k] = complex(z ** (-p - 1.0) * mp.gammainc(p + 1.0, z * lo) - mass)
        got = spectral._segment_exponent_infinite(1.0, p, lo, ws, quadrature.default_tol())
        assert got[0] == 0.0
        assert np.max(np.abs(got - want)) < 1e-12

    def test_grid_tail_memory_is_bounded_for_large_batches(self, monkeypatch):
        # 1e5 arguments against 600 nodes: the dense complex kernel would
        # take 960 MB; chunking keeps the peak near a few output vectors
        radii = np.geomspace(1e-3, 1e4, 600)
        gt = GridTail(radii, 1.0 / radii)
        w = np.linspace(-5.0, 5.0, 100_000)
        tracemalloc.start()
        try:
            got = gt.exponent_integral(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6
        # the chunked sum agrees with the dense endpoint-average rule,
        # here with chunks a few nodes wide
        monkeypatch.setattr(spectral, "GRID_CHUNK_ELEMENTS", 7 * 40)
        sub = w[::2500]
        r, t = gt._unit_split
        theta = np.multiply.outer(sub, r)
        g_plain = np.exp(1j * theta) - 1.0
        g_comp = g_plain - 1j * theta
        g_cell = np.where(
            r[1:] <= 1.0,
            0.5 * (g_comp[:, :-1] + g_comp[:, 1:]),
            0.5 * (g_plain[:, :-1] + g_plain[:, 1:]),
        )
        want = g_cell @ -np.diff(t) + g_plain[:, -1] * t[-1]
        assert np.max(np.abs(gt.exponent_integral(sub) - want)) < 1e-11
        assert np.max(np.abs(got[::2500] - want)) < 1e-11

    def test_segment_memory_is_bounded_for_large_batches(self, monkeypatch):
        # 1e5 arguments on a finite segment below the unit radius: one
        # (abscissas x arguments) array for the whole batch peaked near
        # 400 MB; per-chunk quadratures keep the peak near 20 MB
        sg = spectral.Segment(0.0, 0.8, 0.5, -0.7)
        w = np.linspace(0.0, 5.0, 100_001)[1:]
        tracemalloc.start()
        try:
            spectral._segment_exponent(sg, w, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6
        # each chunk meets the tolerance on its own, so chunked and
        # single-batch results agree within twice the tolerance, for the
        # compensated, raw and unbounded parts alike
        tol = quadrature.default_tol()
        sub = np.linspace(0.05, 8.0, 40)
        for seg in (sg, spectral.Segment(0.5, 3.0, 0.3, -1.4),
                    spectral.Segment(1.5, math.inf, 0.3, -1.6)):
            whole = spectral._segment_exponent(seg, sub, tol)
            monkeypatch.setattr(spectral, "SEGMENT_CHUNK", 7)
            chunked = spectral._segment_exponent(seg, sub, tol)
            monkeypatch.undo()
            assert np.max(np.abs(chunked - whole)) < 2.0 * tol

    def test_hermitian_symmetry(self):
        m = SpectralMeasure(
            1,
            (
                ray(1.0, atoms=[(0.4, 0.5), (2.0, 1.0)], segments=[(0.5, 3.0, 0.3, -1.4)]),
                ray(-1.0, atoms=[(1.5, 0.7)]),
            ),
        )
        W = np.linspace(-3.0, 3.0, 13)[:, None]
        vals = m.exponent_jump_integral(W)
        assert np.max(np.abs(vals - np.conj(vals[::-1]))) < 1e-13


class TestValidation:
    def test_divergent_small_jump_segment_is_flagged(self):
        m = SpectralMeasure(1, (ray(1.0, segments=[(0.0, 1.0, 1.0, -3.0)]),))
        rep = tripmod.validate(m)
        assert not rep.is_valid
        assert any("diverge" in msg for msg in rep.issues)

    def test_negative_mass_is_flagged(self):
        m = SpectralMeasure(1, (ray(1.0, atoms=[(2.0, -1.0)]),))
        assert not tripmod.validate(m).is_valid

    def test_non_unit_direction_is_flagged(self):
        m = SpectralMeasure(1, (ray([2.0], atoms=[(1.0, 1.0)]),))
        assert not tripmod.validate(m).is_valid

    def test_overlapping_segments_are_flagged(self):
        m = SpectralMeasure(
            1, (ray(1.0, segments=[(0.5, 2.0, 1.0, -1.0), (1.5, 3.0, 1.0, -1.0)]),)
        )
        assert not tripmod.validate(m).is_valid

    def test_clean_measure_validates(self):
        m = SpectralMeasure(1, (ray(1.0, atoms=[(2.0, 1.0)], segments=[(0.1, 1.0, 0.5, -0.5)]),))
        rep = tripmod.validate(m)
        assert rep.is_valid and rep.summary().endswith("ok")


class TestRequireValid:
    def test_valid_measure_checks_issues_once(self, monkeypatch):
        m = SpectralMeasure(1, (ray(1.0, atoms=[(2.0, 1.0)]),))
        m.require_valid()
        monkeypatch.setattr(SpectralMeasure, "issues", lambda self: pytest.fail("re-checked"))
        m.require_valid()

    def test_invalid_measure_names_its_issues(self):
        m = SpectralMeasure(1, (ray(1.0, atoms=[(2.0, -1.0)]),))
        with pytest.raises(InvalidMeasureError, match="negative mass"):
            m.require_valid()


def test_triplet_exponent_does_not_import_mpmath():
    code = (
        "import math, sys\n"
        "import numpy as np\n"
        "from idlaw.spectral import SpectralMeasure, ray\n"
        "from idlaw.triplet import LevyTriplet\n"
        "levy = SpectralMeasure(1, (ray(-1.0, segments=[(1.5, math.inf, 0.3, -1.6)]),))\n"
        "vals = LevyTriplet(1, [0.1], [[0.2]], levy).exponent_grid(np.array([[0.7], [-2.0]]))\n"
        "assert np.all(np.isfinite(vals))\n"
        "print('mpmath' in sys.modules)\n"
    )
    src = str(Path(idlaw.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


class TestMeasureAlgebra:
    def test_addition_merges_and_sums_exponents(self):
        m1 = SpectralMeasure(1, (ray(1.0, atoms=[(2.0, 1.0)]),))
        m2 = SpectralMeasure(1, (ray(1.0, atoms=[(0.5, 0.3)]), ray(-1.0, atoms=[(1.2, 0.4)])))
        W = np.linspace(-2.0, 2.0, 7)[:, None]
        both = (m1 + m2).exponent_jump_integral(W)
        parts = m1.exponent_jump_integral(W) + m2.exponent_jump_integral(W)
        assert np.max(np.abs(both - parts)) < 1e-13

    def test_scaling_scales_tails_and_exponent(self):
        m = SpectralMeasure(1, (ray(1.0, atoms=[(2.0, 1.0)], segments=[(0.5, 1.5, 0.4, -1.0)]),))
        half = m.scaled(0.5)
        assert abs(half.rays[0].radial.tail(0.7) - 0.5 * m.rays[0].radial.tail(0.7)) < 1e-15
        W = np.array([[1.1]])
        assert abs(half.exponent_jump_integral(W)[0] - 0.5 * m.exponent_jump_integral(W)[0]) < 1e-12
