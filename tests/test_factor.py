"""Factorization checkers: dual-route identity reports and the area law."""

import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import idlaw.factor as factor
from idlaw.exponent import closed_form, convolve
from idlaw.spectral import SpectralMeasure, ray


GRID1 = np.array([[1.0]])


README = Path(__file__).resolve().parents[1] / "README.md"


def test_identity_tables_and_readme_agree():
    # the README's token table lists every identity token, and SIDES holds
    # the two sides of exactly the identities checked on an exponent's grid
    tokens = re.findall(r"^\| `([^`]+)` +\|", README.read_text(), flags=re.M)
    assert sorted(tokens) == sorted(factor.IDENTITIES)
    on_exponents = {k for k, v in factor.IDENTITIES.items() if v.subject == "exponent"}
    assert set(factor.SIDES) == on_exponents


class TestGrids:
    def test_default_grid_shapes(self):
        for d in (1, 2, 3):
            g = factor.default_grid(d)
            assert g.shape == (41, d)
            assert np.max(np.abs(g)) <= 5.0 + 1e-12

    def test_default_radius_grid_spans_support(self):
        G = SpectralMeasure(1, (ray([1.0], atoms=[(2.0, 1.0)]),))
        r = factor.default_radius_grid(G)
        assert r.shape == (20,)
        assert r[0] > 0.0
        # reaches past the largest support radius to show the zero tail
        assert 2.0 < r[-1] <= 3.0

    def test_default_radius_grid_for_empty_measure(self):
        r = factor.default_radius_grid(SpectralMeasure(1, ()))
        assert r.shape == (20,) and np.all(r > 0.0)


class TestReportObject:
    def make(self, **kw):
        args = dict(
            identity="eq3",
            params={"beta": 1.0},
            grid=np.array([[0.0], [1.0]]),
            lhs=np.array([0.0, 1.0 + 1e-12j]),
            rhs=np.array([0.0, 1.0]),
            tol=1e-8,
        )
        args.update(kw)
        return factor.FactorizationReport(**args)

    def test_residuals_and_pass(self):
        rep = self.make()
        assert rep.max_residual == pytest.approx(1e-12, rel=1e-6)
        assert rep.passed
        assert "pass" in rep.summary()

    def test_failing_report(self):
        rep = self.make(rhs=np.array([0.0, 2.0]))
        assert not rep.passed
        assert "FAIL" in rep.summary()

    def test_rows_and_dict(self):
        d = self.make().to_dict()
        assert d["kind"] == "identity" and d["identity"] == "eq3"
        assert len(d["rows"]) == 2
        row = d["rows"][1]
        assert row["input"] == 1.0
        assert row["lhs"] == [1.0, 1e-12]

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            self.make(grid=np.zeros((0, 1)), lhs=np.zeros(0), rhs=np.zeros(0))
        with pytest.raises(ValueError):
            self.make(lhs=np.zeros(3))
        with pytest.raises(ValueError):
            self.make(tol=0.0)


class TestFactorConstructors:
    def test_background_factor_of_gaussian(self, gaussian_phi):
        rho = factor.rho_from_nu(gaussian_phi, 1.0)
        assert rho(1.0, 1e-12) == pytest.approx(-0.125, abs=1e-12)

    def test_background_factor_of_single_jump_law(self):
        cp1 = closed_form(
            "compound_poisson", rate=1.0, jumps=[[2.0]], probs=[1.0]
        )
        got = factor.rho_from_nu(cp1, 1.0)(math.pi / 4.0, 1e-12)
        assert got == pytest.approx(
            -0.2686649622017697427 + 0.40528473456935108578j, abs=1e-12
        )

    def test_reassembled_image_of_gaussian(self, gaussian_phi):
        mu = factor.mu_from_rho(factor.rho_from_nu(gaussian_phi, 1.0), 1.0)
        assert mu(1.0, 1e-12) == pytest.approx(-1.0 / 6.0, abs=1e-12)

    def test_beta_validation(self, gaussian_phi):
        with pytest.raises(ValueError):
            factor.rho_from_nu(gaussian_phi, 0.0)
        with pytest.raises(ValueError):
            factor.mu_from_rho(gaussian_phi, -1.0)


class TestFactorizationCheck:
    def test_gaussian_passes_tight(self, gaussian_phi):
        rep = factor.verify_factorization(gaussian_phi, 1.0, tol=1e-10)
        assert rep.passed
        assert rep.identity == "eq3"
        assert rep.params["beta"] == 1.0

    def test_pure_drift_is_exact(self, drift_phi):
        rep = factor.verify_factorization(
            drift_phi, 2.0, grid=np.linspace(-2.0, 2.0, 5)[:, None]
        )
        assert rep.max_residual < 1e-14

    def test_mixed_law_passes(self, mix_phi, grid5):
        rep = factor.verify_factorization(mix_phi, 0.5, grid=grid5, tol=1e-8)
        assert rep.passed


class TestBackgroundDrivingCheck:
    def test_gaussian_spot_value(self, gaussian_phi):
        rep = factor.identity_e_check(
            gaussian_phi, 1.0, grid=GRID1
        )
        assert rep.passed
        assert rep.lhs[0] == pytest.approx(-1.0 / 3.0, abs=1e-10)
        assert rep.rhs[0] == pytest.approx(-1.0 / 3.0, abs=1e-10)

    def test_jump_law_passes(self, cp_phi, grid5):
        rep = factor.identity_e_check(cp_phi, 2.0, grid=grid5, tol=1e-8)
        assert rep.passed


class TestMembershipCheck:
    def test_gaussian_spot_value(self, gaussian_phi):
        rep = factor.ubeta_f_membership(
            gaussian_phi, 1.0, grid=GRID1
        )
        assert rep.passed
        assert rep.lhs[0] == pytest.approx(-1.0 / 12.0, abs=1e-10)

    def test_jump_law_small_grid(self, cp_phi):
        rep = factor.ubeta_f_membership(
            cp_phi, 3.0, grid=np.linspace(-1.5, 1.5, 5)[:, None], tol=1e-8
        )
        assert rep.passed


class TestClockCompositionCheck:
    def test_gaussian_spot_value(self, gaussian_phi):
        rep = factor.clock_composition_check(
            gaussian_phi, 1.0, grid=GRID1
        )
        assert rep.passed
        assert rep.lhs[0] == pytest.approx(-1.0 / 12.0, abs=1e-10)
        assert rep.rhs[0] == pytest.approx(-1.0 / 12.0, abs=1e-10)

    def test_drift_spot_value(self, drift_phi):
        rep = factor.clock_composition_check(
            drift_phi, 2.0, grid=GRID1
        )
        assert rep.passed
        assert rep.lhs[0] == pytest.approx(0.7 * 2.0 / 3.0 * 1j, abs=1e-10)


@st.composite
def finite_activity_laws(draw):
    """Compound Poisson law, convolved with a Gaussian about half the time."""
    jumps = draw(
        st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=1, max_size=3)
    )
    rate = draw(st.floats(min_value=0.5, max_value=3.0))
    phi = closed_form("compound_poisson", rate=rate, jumps=[[j] for j in jumps])
    var = draw(st.one_of(st.just(0.0), st.floats(min_value=0.1, max_value=1.0)))
    return convolve(phi, closed_form("gaussian", cov=var)) if var else phi


class TestNestedErrorBudget:
    @pytest.mark.parametrize(
        "checker",
        [
            factor.verify_factorization,
            factor.identity_e_check,
            factor.ubeta_f_membership,
            factor.clock_composition_check,
        ],
    )
    @settings(max_examples=6, deadline=None)
    @given(phi=finite_activity_laws(), beta=st.floats(min_value=0.5, max_value=3.0))
    def test_identity_residual_within_tolerance(self, checker, phi, beta):
        rep = checker(phi, beta, tol=1e-8)
        assert rep.passed, rep.summary()


class TestSpectralFactorCheck:
    def test_single_atom_tail_formula(self):
        G = SpectralMeasure(1, (ray([1.0], atoms=[(2.0, 1.0)]),))
        rep = factor.spectral_factor_check(G, 1.0)
        assert rep.passed
        u = rep.grid.ravel()
        want = np.where(u < 2.0, 1.0 - u / 2.0, 0.0)
        np.testing.assert_allclose(rep.lhs, want, rtol=0, atol=1e-14)
        np.testing.assert_allclose(rep.rhs, want, rtol=0, atol=1e-12)

    def test_two_atoms(self):
        G = SpectralMeasure(1, (ray([1.0], atoms=[(0.5, 0.7), (2.0, 1.1)]),))
        rep = factor.spectral_factor_check(G, 2.0)
        assert rep.passed
        assert rep.max_residual < 1e-12

    def test_empty_measure_trivially_passes(self):
        rep = factor.spectral_factor_check(SpectralMeasure(1, ()), 1.0)
        assert rep.passed
        assert len(rep.grid) == 20
        assert np.all(rep.lhs == 0.0) and np.all(rep.rhs == 0.0)

    def test_segment_backed_measure(self):
        G = SpectralMeasure(1, (ray([1.0], segments=[(0.5, 3.0, 0.3, -1.4)]),))
        rep = factor.spectral_factor_check(G, 1.0, tol=1e-6)
        assert rep.passed

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize(
        "rays",
        [
            (ray([1.0], atoms=[(1.5, 0.7)], segments=[(0.3, 2.0, 0.4, -0.7)]),),
            (ray([1.0], segments=[(1.0, math.inf, 0.4, -2.5)]),),
            (ray([1.0], segments=[(0.0, 0.8, 0.5, -1.6)]),),
            (
                ray([1.0], atoms=[(0.5, 0.3)], segments=[(0.0, 0.8, 0.5, -1.6)]),
                ray([-1.0], segments=[(1.0, math.inf, 0.4, -2.5)]),
            ),
        ],
    )
    def test_segment_measures_pass_tight(self, rays, beta):
        rep = factor.spectral_factor_check(SpectralMeasure(1, rays), beta, tol=1e-9)
        assert rep.passed, rep.summary()

    def test_beta_validation(self):
        G = SpectralMeasure(1, (ray([1.0], atoms=[(2.0, 1.0)]),))
        with pytest.raises(ValueError):
            factor.spectral_factor_check(G, 0.0)


class TestAreaLaw:
    def test_parts_sum_to_log_cf(self):
        case = factor.LevyAreaCase(1.5)
        t = np.linspace(0.0, 4.0, 9)
        np.testing.assert_array_equal(
            case.chi_log(t), case.bdlp_exponent(t) + case.class_l_exponent(t)
        )

    def test_values_at_zero(self):
        case = factor.LevyAreaCase(2.0)
        assert case.bdlp_exponent(0.0) == 0.0
        assert case.class_l_exponent(0.0) == 0.0
        assert case.chi(0.0) == 1.0
        assert case.cosh_variant_exponent(0.0) == 1.0

    def test_u_must_be_positive(self):
        with pytest.raises(ValueError):
            factor.LevyAreaCase(0.0)

    def test_demo_spot_values(self):
        rep = factor.levy_area_demo(1.0, t_grid=np.array([1.0, 2.0]))
        assert rep.passed
        # closed-form transform value is log(t/sinh t), -0.161439... at t = 1
        assert rep.rhs[0] == pytest.approx(
            -0.16143936157119563361, rel=1e-13
        )
        assert rep.chi_closed[0] == pytest.approx(0.62221185143506075106, rel=1e-12)
        assert rep.chi_closed[1] == pytest.approx(0.18827537381763528367, rel=1e-12)

    def test_demo_other_conditioning_passes(self):
        rep = factor.levy_area_demo(2.0, t_grid=np.linspace(0.5, 3.0, 6))
        assert rep.passed

    def test_demo_dict_documents_cosh_variant(self):
        d = factor.levy_area_demo(1.0, t_grid=np.array([1.0])).to_dict()
        assert d["kind"] == "area"
        assert d["cosh_variant"]["cf_deviation_from_one"] == pytest.approx(
            math.e - 1.0
        )
        assert d["rows"][0]["cosh_variant_exponent"] == pytest.approx(
            1.0 - math.cosh(1.0)
        )
