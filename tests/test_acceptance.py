"""Top-level acceptance checks, one test per shipped guarantee.

Each test prints a one-line verdict with the measured numbers; the pytest
-v line for the test is the pass/fail record for that guarantee.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

import idlaw.cli as cli
import idlaw.factor as factor
import idlaw.maps as maps
import idlaw.simulate as simulate
from idlaw.exponent import closed_form, from_triplet
from idlaw.lawio import builtin_law
from idlaw.spectral import SpectralMeasure, ray
from idlaw.triplet import LevyTriplet

SWEEP_LAWS = ("gaussian", "drift", "cp", "gauss_cp_mix")
SWEEP_BETAS = (0.5, 1.0, 2.0, 3.0)
SPOT = np.array([[1.0]])


def sweep(checker, tol=1e-8):
    worst = 0.0
    for name in SWEEP_LAWS:
        phi = builtin_law(name).exponent
        for beta in SWEEP_BETAS:
            rep = checker(phi, beta, tol=tol)
            assert rep.passed, f"{name} beta={beta}: {rep.summary()}"
            worst = max(worst, rep.max_residual)
    return worst


def test_factorization_identity_sweep_under_runtime_budget():
    t0 = time.monotonic()
    worst = sweep(factor.verify_factorization)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"runtime {elapsed:.1f}s exceeds the 5s budget"
    print(f"factorization sweep: worst residual {worst:.3e} (<1e-8), "
          f"{elapsed:.1f}s (<5s)")


def test_background_driving_identity_sweep_with_spot_value():
    worst = sweep(factor.identity_e_check)
    rep = factor.identity_e_check(
        builtin_law("gaussian").exponent, 1.0, grid=SPOT, quad_tol=1e-12
    )
    assert rep.lhs[0] == pytest.approx(-1.0 / 3.0, abs=1e-10)
    assert rep.rhs[0] == pytest.approx(-1.0 / 3.0, abs=1e-10)
    print(f"background-driving sweep: worst residual {worst:.3e} (<1e-8), "
          f"spot value {rep.lhs[0].real:.12f} = -1/3")


def test_membership_composition_sweep_with_spot_value():
    worst = sweep(factor.ubeta_f_membership)
    rep = factor.ubeta_f_membership(
        builtin_law("gaussian").exponent, 1.0, grid=SPOT, quad_tol=1e-12
    )
    assert rep.lhs[0] == pytest.approx(-1.0 / 12.0, abs=1e-10)
    print(f"membership sweep: worst residual {worst:.3e} (<1e-8), "
          f"spot value {rep.lhs[0].real:.12f} = -1/12")


def test_clock_composition_sweep_with_spot_value():
    worst = sweep(factor.clock_composition_check)
    rep = factor.clock_composition_check(
        builtin_law("gaussian").exponent, 1.0, grid=SPOT, quad_tol=1e-12
    )
    assert rep.lhs[0] == pytest.approx(-1.0 / 12.0, abs=1e-10)
    assert rep.rhs[0] == pytest.approx(-1.0 / 12.0, abs=1e-10)
    print(f"clock-composition sweep: worst residual {worst:.3e} (<1e-8), "
          f"spot value {rep.lhs[0].real:.12f} = -1/12")


def test_triplet_transform_agrees_with_exponent_transform():
    atoms = [(0.5, 1.0), (2.0, 1.0), (math.e, 1.0)]
    levy = SpectralMeasure(1, (ray([1.0], atoms=atoms),))
    trip = LevyTriplet(1, [0.3], [[0.8]], levy)
    grid = np.linspace(-3.0, 3.0, 9)[:, None]
    worst = 0.0
    for beta in (1.0, 2.0):
        via_measure = from_triplet(maps.jbeta_triplet(trip, beta)).eval_grid(
            grid, 1e-9
        )
        via_exponent = maps.map_exponent_grid(
            maps.jbeta_map(beta), from_triplet(trip), grid, 1e-9
        )
        worst = max(worst, float(np.max(np.abs(via_measure - via_exponent))))
    assert worst < 1e-7

    plain = LevyTriplet(1, [0.3], [[0.8]], SpectralMeasure(1, ()))
    for beta in SWEEP_BETAS:
        out = maps.jbeta_triplet(plain, beta)
        assert out.shift[0] == beta / (beta + 1.0) * 0.3
        assert out.cov[0, 0] == beta / (beta + 2.0) * 0.8

    logmom_err = 0.0
    for beta in (1.0, 2.0):
        before = trip.levy.log_moment()
        after = maps.map_triplet(maps.jbeta_map(beta), trip).levy.log_moment()
        assert math.isfinite(after) == math.isfinite(before)
        # independent route: integrate log(u) against each image segment
        want = 0.0
        for r, m in atoms:
            if r > 1.0:
                val, _ = quad(
                    lambda u: math.log(u) * m * beta * u ** (beta - 1.0) / r ** beta,
                    1.0, r,
                )
                want += val
        logmom_err = max(logmom_err, abs(after - want))
    assert logmom_err < 1e-9
    print(f"triplet transform: dual-route residual {worst:.3e} (<1e-7), "
          f"exact shift/cov factors, log-moment error {logmom_err:.3e} (<1e-9)")


def test_spectral_tail_factorization_on_atomic_measures():
    one = SpectralMeasure(1, (ray([1.0], atoms=[(1.0, 1.0)]),))
    two = SpectralMeasure(
        1, (ray([1.0], atoms=[(0.5, 0.7)]), ray([-1.0], atoms=[(2.0, 1.1)]))
    )
    worst = 0.0
    for G in (one, two):
        radii = factor.default_radius_grid(G)
        assert radii.shape == (20,)
        for beta in (1.0, 2.0):
            rep = factor.spectral_factor_check(G, beta, radii, tol=1e-9)
            assert rep.passed
            worst = max(worst, rep.max_residual)
    print(f"spectral tail factorization: worst residual {worst:.3e} (<1e-9) "
          "on 20-point radius grids")


def test_area_demo_matches_closed_form_and_reports_cosh_variant():
    t_grid = np.linspace(0.1, 5.0, 25)
    worst = 0.0
    for u in (1.0, 2.0):
        rep = factor.levy_area_demo(u, t_grid=t_grid, tol=1e-8)
        assert rep.passed
        worst = max(worst, rep.max_residual)
        doc = rep.to_dict()
        assert doc["cosh_variant"]["cf_deviation_from_one"] == pytest.approx(
            math.e - 1.0, rel=1e-12
        )
        assert doc["rows"][0]["cosh_variant_exponent"] == pytest.approx(
            1.0 - t_grid[0] * u * math.cosh(t_grid[0] * u), rel=1e-12
        )
    print(f"area demo: worst residual {worst:.3e} (<1e-8) for u in {{1,2}}; "
          f"cosh variant deviation e-1 = {math.e - 1.0:.6f} reported")


def test_monte_carlo_agreement_under_runtime_budget():
    spec = simulate.SimSpec(1, [0.0], [[1.0]], rate=2.0, jumps=[[2.0], [-2.0]])
    y20 = np.linspace(-3.0, 3.0, 20)[:, None]
    n, seed = 200000, 1729
    t0 = time.monotonic()
    worst = 0.0
    for m in (maps.jbeta_map(1.0), maps.jbeta_map(2.0), maps.i_jbeta_map(1.0)):
        rep = simulate.mc_vs_quadrature(spec, m, y20, n=n, seed=seed, s_max=30.0)
        assert rep.passed, rep.summary()
        worst = max(worst, rep.worst_z)
    rep = simulate.time_change_equivalence(spec, 2.0, n=n, seed=seed, y_grid=y20)
    assert rep.passed, rep.summary()
    worst = max(worst, rep.worst_z)
    elapsed = time.monotonic() - t0
    assert elapsed < 20.0, f"runtime {elapsed:.1f}s exceeds the 20s budget"
    print(f"monte carlo: worst |z| {worst:.2f} (<=4) at n={n}, seed={seed}, "
          f"{elapsed:.1f}s (<20s)")


def test_inverse_transform_recovers_registry_exponents():
    cases = [
        (closed_form("gaussian", mean=[0.0], cov=[[1.0]]),
         np.linspace(-3.0, 3.0, 9)[:, None]),
        (closed_form("dirac", shift=[0.7]),
         np.linspace(-3.0, 3.0, 9)[:, None]),
        (closed_form("compound_poisson", rate=2.0, jumps=[[2.0], [-2.0]],
                     probs=[0.5, 0.5]),
         np.linspace(-3.0, 3.0, 9)[:, None]),
        (closed_form("levy_area_bdlp", u=1.0),
         np.linspace(0.2, 3.0, 9)[:, None]),
    ]
    worst = 0.0
    for phi, grid in cases:
        for beta in (1.0, 2.0):
            img = maps.apply_map(maps.jbeta_map(beta), phi)
            back = maps.jbeta_inverse(img, beta).eval_grid(grid, 1e-9)
            worst = max(worst, float(np.max(np.abs(back - phi.eval_grid(grid)))))
    assert worst < 1e-6
    print(f"inverse transform: worst roundtrip error {worst:.3e} (<1e-6) "
          "over all registry closed forms")


def test_sample_dumps_are_byte_identical_across_worker_counts(
    law_files, tmp_path, capsys
):
    for map_name, beta in (("jbeta", "1"), ("ijbeta", "1")):
        dumps = []
        for w in ("1", "2"):
            path = tmp_path / f"{map_name}_w{w}.csv"
            code = cli.main([
                "simulate", "--law", law_files["gauss_cp_mix"], "--map",
                map_name, "--beta", beta, "--n", "4096", "--seed", "99",
                "--workers", w, "--out", str(path),
            ])
            assert code == 0
            dumps.append(path.read_bytes())
        assert dumps[0] == dumps[1], f"{map_name} dump differs across workers"
    capsys.readouterr()
    print("determinism: jbeta and ijbeta sample CSVs byte-identical "
          "for 1 vs 2 workers (n=4096, seed=99)")
