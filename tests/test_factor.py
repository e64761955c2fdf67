"""Factorization checkers: dual-route identity reports and the area law.

Run as a script to print the digests of the grid identities' report
bytes, and the keys whose digest moved from the pinned ``IDENTITY_DIGESTS``;
with a path ending in .npz it writes the values behind them there, for
``tests/digest_diff.py``:

    PYTHONPATH=src python tests/test_factor.py [values.npz]
"""

import hashlib
import json
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import idlaw.factor as factor
from idlaw import maps
from idlaw.errors import LawSpecError
from idlaw.exponent import closed_form, convolve
from idlaw.spectral import SpectralMeasure, ray
from idlaw.triplet import LevyTriplet


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
        for beta in (math.inf, math.nan):
            with pytest.raises(ValueError, match="beta must be positive"):
                factor.rho_from_nu(gaussian_phi, beta)


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
        for u in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                factor.LevyAreaCase(u)
            with pytest.raises(LawSpecError, match="levy_area_bdlp u must be positive"):
                closed_form("levy_area_bdlp", u=u)
        with pytest.raises(ValueError):
            factor.levy_area_demo(math.inf)

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


# -- the identities as exact Mellin multipliers ---------------------------------


def poly_mul(p: tuple, q: tuple) -> tuple:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return tuple(out)


def poly_add(p: tuple, q: tuple) -> tuple:
    n = max(len(p), len(q))
    return tuple(sum(c[k] for c in (p, q) if k < len(c)) for k in range(n))


def poly_trim(p: tuple) -> tuple:
    while p and p[-1] == 0:
        p = p[:-1]
    return p


@dataclass(frozen=True)
class Multiplier:
    """What a law operation does to a jump measure's moment of order s, exactly.

    A rational function num(s)/den(s), coefficients lowest degree first.
    A power kernel (kappa, a) maps an atom m at r to the density
    m kappa u**(a-1) / r**a on (0, r), whose moment of order s is
    kappa/(a+s) times the atom's, so a map multiplies by the sum of its
    kernels' kappa/(a+s); a convolution adds multipliers and a c-th power
    scales one by c. At s = 2 it is the factor on the covariance. It has
    the three law operations of factor.SIDES and holds no law; its
    coefficients are the floats' exact values, so two sides compare
    exactly, with no rounding to hide a wrong one.
    """

    num: tuple = (Fraction(1),)
    den: tuple = (Fraction(1),)

    def mapped(self, m) -> "Multiplier":
        num, den = (Fraction(0),), (Fraction(1),)
        for kappa, a in maps.POWER_KERNELS[m.kind](m.beta):
            pole = (Fraction(a), Fraction(1))  # s + a
            num = poly_add(poly_mul(num, pole), poly_mul(den, (Fraction(kappa),)))
            den = poly_mul(den, pole)
        return Multiplier(poly_mul(self.num, num), poly_mul(self.den, den))

    def convolve(self, other: "Multiplier") -> "Multiplier":
        num = poly_add(poly_mul(self.num, other.den), poly_mul(other.num, self.den))
        return Multiplier(num, poly_mul(self.den, other.den))

    def conv_power(self, c: float) -> "Multiplier":
        return Multiplier(poly_mul(self.num, (Fraction(c),)), self.den)

    def __call__(self, s) -> Fraction:
        s = Fraction(s)
        return sum(c * s**k for k, c in enumerate(self.num)) / sum(
            c * s**k for k, c in enumerate(self.den)
        )

    def __eq__(self, other) -> bool:
        return poly_trim(poly_mul(self.num, other.den)) == poly_trim(poly_mul(other.num, self.den))


MULTIPLIER_BETAS = (0.5, 1.0, 1.3, 1.7, 2.0, 3.0)


def unequal_sides(betas) -> list[tuple[str, float]]:
    """(identity, beta) of every SIDES entry whose multipliers differ."""
    out = []
    for identity, sides in factor.SIDES.items():
        for beta in betas:
            lhs, rhs = sides(Multiplier(), beta)
            if lhs != rhs:
                out.append((identity, beta))
    return out


class TestExactMultipliers:
    def test_every_identity_holds_exactly(self):
        assert unequal_sides(MULTIPLIER_BETAS) == []

    @settings(max_examples=25, deadline=None)
    @given(st.floats(1e-3, 1e3))
    def test_every_identity_holds_exactly_at_any_beta(self, beta):
        assert unequal_sides([beta]) == []

    @pytest.mark.parametrize("identity", list(factor.SIDES))
    def test_covariance_factor_is_the_value_at_two(self, identity):
        # the multiplier model is the one map_triplet implements: a unit
        # covariance comes out of each side scaled by the side's value at s = 2
        unit = LevyTriplet(1, [0.0], [[1.0]], SpectralMeasure(1, ()))
        for beta in MULTIPLIER_BETAS:
            for trip, mult in zip(factor.SIDES[identity](unit, beta),
                                  factor.SIDES[identity](Multiplier(), beta)):
                assert trip.cov[0, 0] == pytest.approx(float(mult(2)), rel=1e-14)

    def test_wrong_sides_are_refused(self, monkeypatch):
        wrong = {
            # cor1a without its outer (2 beta)-transform
            "cor1a": lambda nu, b: (
                nu.mapped(maps.ubetaf_map(b)), nu.mapped(maps.jbeta_map(b))
            ),
            # eq15 with a convolution power a hair off 2
            "eq15": lambda rho, b: (
                factor.mu_from_rho(rho, b).mapped(maps.jbeta_map(2.0 * b)),
                rho.conv_power(2.000001).mapped(maps.jbeta_map(b)),
            ),
        }
        for identity, sides in wrong.items():
            with monkeypatch.context() as mp:
                mp.setitem(factor.SIDES, identity, sides)
                assert unequal_sides(MULTIPLIER_BETAS) == [
                    (identity, beta) for beta in MULTIPLIER_BETAS
                ]
        # a typo of 1e-9 in the second exponent of the ubetaf kernel
        monkeypatch.setitem(
            maps.POWER_KERNELS, "ubetaf", lambda b: ((2.0 * b, b), (-2.0 * b, 2.0 * b + 1e-9))
        )
        assert unequal_sides(MULTIPLIER_BETAS) == [("cor1a", beta) for beta in MULTIPLIER_BETAS]


# The four grid identities on a compound-Poisson law (jumps 2, -1.25 and
# 0.75 at rate 2) and on the same law convolved with a Gaussian of variance
# 0.5, at four betas on the 41-point default grid and tol 1e-8: the sha256
# of each report's lhs and rhs bytes.
IDENTITY_CP = closed_form("compound_poisson", rate=2.0, jumps=[2.0, -1.25, 0.75])
IDENTITY_LAWS = {
    "cp": IDENTITY_CP,
    "mix": convolve(closed_form("gaussian", mean=[0.0], cov=[[0.5]]), IDENTITY_CP),
}
IDENTITY_CHECKERS = ("verify_factorization", "identity_e_check", "ubeta_f_membership",
                     "clock_composition_check")
IDENTITY_DIGESTS = {
    "eq3/cp/beta=0.5": "b6c07438fc86f1b994a26c9bf4a59d6e026a80d79e7098e0064ebf76516623af",
    "eq3/cp/beta=1": "76b16a589a0dddde62db8ab29d6843f73b1b08d2458387fcadb425caedb063d4",
    "eq3/cp/beta=2": "d55e77b22aeab3b667562bfe9480b6787f845aca5e7489aa68894c6a7f376313",
    "eq3/cp/beta=3": "7949565271a5bd54a1de47c2899b75cec989b19794151d7b2984541c7e96e29c",
    "eq3/mix/beta=0.5": "151b198c12bcb9c6a6f3b52fcdc3f75c99cd0973a5ce735bd8e793211645ebf3",
    "eq3/mix/beta=1": "8dd1eacf8dd0f3001dc901e1197fb31e7a174b8146db31a162b8e9ac9ea1451c",
    "eq3/mix/beta=2": "9282f2221036139ac7093d9adc02a0dc53705f0f5d893ae235a8b3e79955ada6",
    "eq3/mix/beta=3": "a82bfc5fbde4305d6cef9084e1a354cd07dace32010fd388a29120ff6c60f036",
    "eq15/cp/beta=0.5": "9307d8ac856455c57c4a346ee22dfad43f8f1c612dfd3f3e989f5c0a084400e8",
    "eq15/cp/beta=1": "5d1cc3bb41c51a6e3a601abe13ae66a6e0d6304ebab3ce115d839cca21b19087",
    "eq15/cp/beta=2": "01d75021aeb496228b8bbcb01b36d659245ca4c381e5fa303bdcecf6b7e6e281",
    "eq15/cp/beta=3": "defbe8a86f540146b9df1026d20c92acf925ce972ce3f37242cfac24b4f8aedc",
    "eq15/mix/beta=0.5": "7830c93113c8e250411273d1cc343671980057eb4b07aa49436eb30b6dae6298",
    "eq15/mix/beta=1": "05b7ee3a384ebc8ee0e2faf2fd02210167539fd7ecbb0668acdb93ce73feb3f2",
    "eq15/mix/beta=2": "86f9ea288920d4c5395505df0c0499ad3715e0227e1a5c3ec4d84146499279f5",
    "eq15/mix/beta=3": "cbf748559a88e117a31db5ca9fd93e0fb0d1753c53bc411dcb7f085a74e2c724",
    "cor1a/cp/beta=0.5": "e5c65c22f7f0c976cb1b69c059fb54816cb9ed349bda560986a413781326b37a",
    "cor1a/cp/beta=1": "ee98c63ef6d60f758f38db024dd975379cd215b34c57eb4e6381fd34f394efb8",
    "cor1a/cp/beta=2": "f15f1777ed0a13c29e2455998c7c834368ac92aae3313211ba6f6f87211badd3",
    "cor1a/cp/beta=3": "b7ff6b51d470efbfc62b869bf739e6558f0b62c0a380d4a55224cf25943d6fd4",
    "cor1a/mix/beta=0.5": "fb2184df5194baeeb3ca789597c34e47e36b59d0311e64385bab30f1642f6bab",
    "cor1a/mix/beta=1": "d54c62def3c393bb7413e93f21cbea3ad412647d75b2f30f0b60155384576e5e",
    "cor1a/mix/beta=2": "c1842b4cd186b591c8f4f14fef6c4cd77eba0cb7942e5a4e742ade23096ee6df",
    "cor1a/mix/beta=3": "ab0d8d4fa3e19ab074a6ac1e11b9f13107feb62c1513b04fabe46f784ebe3aa4",
    "prop2/cp/beta=0.5": "415d083ef2deade853c2add58d1496e52ee4e37213d65d56ca98af616665a736",
    "prop2/cp/beta=1": "8e06da9c54c6fd9e28f4f849cb5396c0dedb44e8b98bc5fe69cd97596bdc0b33",
    "prop2/cp/beta=2": "9b851ca6b3ce6547ad1ffa587fefb5947b04dbc51fbf607207a201d697de37bd",
    "prop2/cp/beta=3": "4add1794028a29c4e568b5476cb32ebeb219c9998d2fba0167cbe32cfcc8d560",
    "prop2/mix/beta=0.5": "1044733cb93658d5e5720af8db9066ee31556d07e187dea562bb94cab137176f",
    "prop2/mix/beta=1": "493afd91b218773447001908da581e315b3dd8386d3a10b5d9afd0f1e66a530f",
    "prop2/mix/beta=2": "204753487cb82c70196f73077b355c076d9e83ccb585cb07b7fcfba3f7a5ae97",
    "prop2/mix/beta=3": "ada8c9b3bb868f0fc3865790be324789f51491da05cfe302cdba99d7512989aa",
}


def identity_arrays() -> dict[str, np.ndarray]:
    """The lhs then rhs values of each grid identity, law and beta."""
    out = {}
    for checker in IDENTITY_CHECKERS:
        for law, phi in IDENTITY_LAWS.items():
            for beta in (0.5, 1.0, 2.0, 3.0):
                rep = getattr(factor, checker)(phi, beta, tol=1e-8)
                out[f"{rep.identity}/{law}/beta={beta:g}"] = np.concatenate([rep.lhs, rep.rhs])
    return out


def identity_digests(arrays: dict[str, np.ndarray] | None = None) -> dict[str, str]:
    """sha256 of each of :func:`identity_arrays`' bytes."""
    arrays = identity_arrays() if arrays is None else arrays
    return {key: hashlib.sha256(v.tobytes()).hexdigest() for key, v in arrays.items()}


def moved_identities(old: dict, new: dict) -> list[str]:
    return [key for key in sorted(set(old) | set(new)) if old.get(key) != new.get(key)]


def test_grid_identities_keep_their_bytes():
    assert moved_identities(IDENTITY_DIGESTS, identity_digests()) == []


if __name__ == "__main__":
    # the digests to pin, then the keys that moved; the arrays behind them go
    # to the .npz file named on the command line (see digest_diff.py)
    from digest_diff import save_arrays

    arrays = identity_arrays()
    new = identity_digests(arrays)
    print(json.dumps(new, indent=4))
    for key in moved_identities(IDENTITY_DIGESTS, new):
        print(f"moved: {key}")
    save_arrays(arrays, sys.argv[1:])
