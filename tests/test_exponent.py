"""Exponent objects: closed forms, algebra, invariants, special functions."""

import inspect
import math
from types import SimpleNamespace
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import idlaw.factor as factor
import idlaw.maps as maps
import idlaw.spectral as spectral
from idlaw.exponent import (
    CLOSED_FORMS,
    CharExponent,
    DimensionMismatchError,
    LawSpecError,
    as_grid,
    closed_form,
    conv_power,
    convolve,
    from_callable,
    from_triplet,
    log_sinhc,
    xcothx,
)
from idlaw.spectral import GridTail, SpectralMeasure, ray
from idlaw.triplet import LevyTriplet


class TestRegistry:
    def test_builtin_names(self):
        assert sorted(CLOSED_FORMS) == [
            "compound_poisson",
            "dirac",
            "gaussian",
            "levy_area_bdlp",
        ]

    def test_unknown_name_raises_and_lists_choices(self):
        with pytest.raises(LawSpecError, match="gaussian"):
            closed_form("no_such_law")

    # valid values of every required parameter
    REQUIRED = {
        "dirac": {"shift": [0.5]},
        "compound_poisson": {"rate": 1.0, "jumps": [1.0, -2.0]},
        "levy_area_bdlp": {"u": 1.0},
    }

    def test_required_parameters_are_the_listed_ones(self):
        required = {
            name: {
                p.name for p in inspect.signature(build).parameters.values()
                if p.default is p.empty
            }
            for name, build in CLOSED_FORMS.items()
        }
        assert required == {name: set(self.REQUIRED.get(name, ())) for name in CLOSED_FORMS}
        for name, params in self.REQUIRED.items():
            closed_form(name, **params)

    @pytest.mark.parametrize("name, missing", [
        (name, key) for name, params in REQUIRED.items() for key in params
    ])
    def test_missing_parameter_is_named(self, name, missing):
        # the message of the law-document route
        params = {k: v for k, v in self.REQUIRED[name].items() if k != missing}
        with pytest.raises(
            LawSpecError, match=f"^closed form '{name}' is missing parameter '{missing}'$"
        ):
            closed_form(name, **params)


class TestClosedFormValues:
    def test_gaussian(self):
        phi = closed_form("gaussian", mean=[0.3], cov=[[2.0]])
        y = 1.7
        assert phi(y) == pytest.approx(0.3j * y - y * y, abs=1e-15)

    def test_dirac(self):
        phi = closed_form("dirac", shift=[0.7])
        assert phi(2.0) == pytest.approx(1.4j, abs=1e-16)

    def test_compound_poisson_symmetric_jumps(self):
        phi = closed_form(
            "compound_poisson", rate=2.0, jumps=[[2.0], [-2.0]], probs=[0.5, 0.5]
        )
        y = 0.9
        assert phi(y) == pytest.approx(2.0 * (math.cos(2.0 * y) - 1.0), abs=1e-15)

    def test_area_law_spot_value(self):
        phi = closed_form("levy_area_bdlp", u=1.0)
        assert phi(1.0) == pytest.approx(1.0 - 1.0 / math.tanh(1.0), abs=1e-14)

    def test_area_law_vanishes_at_origin(self):
        phi = closed_form("levy_area_bdlp", u=2.0)
        assert phi(0.0) == 0.0


class TestInvariants:
    def grid(self):
        return np.linspace(-3.0, 3.0, 13)[:, None]

    def all_laws(self, law_family):
        laws = dict(law_family)
        laws["area"] = closed_form("levy_area_bdlp", u=1.0)
        return laws

    def test_zero_argument_gives_zero(self, law_family):
        for name, phi in self.all_laws(law_family).items():
            assert abs(phi(0.0)) < 1e-12, name

    def test_hermitian_symmetry(self, law_family):
        Y = self.grid()
        for name, phi in self.all_laws(law_family).items():
            np.testing.assert_allclose(
                phi.eval_grid(-Y), np.conj(phi.eval_grid(Y)),
                rtol=0, atol=1e-12, err_msg=name,
            )

    def test_real_part_nonpositive(self, law_family):
        Y = self.grid()
        for name, phi in self.all_laws(law_family).items():
            assert np.all(phi.eval_grid(Y).real <= 1e-12), name

    def test_cf_bounded_by_one(self, law_family):
        Y = self.grid()
        for name, phi in self.all_laws(law_family).items():
            assert np.all(np.abs(np.exp(phi(Y[:, 0]))) <= 1.0 + 1e-12), name


class TestAlgebra:
    def test_convolve_adds(self, gaussian_phi, cp_phi):
        both = convolve(gaussian_phi, cp_phi)
        Y = np.linspace(-2.0, 2.0, 9)[:, None]
        np.testing.assert_allclose(
            both.eval_grid(Y),
            gaussian_phi.eval_grid(Y) + cp_phi.eval_grid(Y),
            rtol=0, atol=1e-14,
        )

    def test_convolve_dim_mismatch(self, gaussian_phi):
        two = from_callable(
            lambda Y, tol: -np.sum(Y * Y, axis=1) + 0j, dim=2
        )
        with pytest.raises(DimensionMismatchError):
            convolve(gaussian_phi, two)

    def test_conv_power_scales(self, cp_phi):
        Y = np.linspace(-2.0, 2.0, 9)[:, None]
        np.testing.assert_allclose(
            conv_power(cp_phi, 2.5).eval_grid(Y),
            2.5 * cp_phi.eval_grid(Y),
            rtol=1e-14, atol=1e-16,
        )

    def test_conv_power_requires_positive(self, gaussian_phi):
        for c in (0.0, -2.0):
            with pytest.raises(ValueError):
                conv_power(gaussian_phi, c)


class TestFromCallableAndTriplets:
    def test_callable_is_used_verbatim(self):
        phi = from_callable(lambda Y, tol: -(Y[:, 0] ** 2) + 0j, dim=1)
        assert phi(1.5) == pytest.approx(-2.25, abs=0)

    def test_wrong_dim_argument_raises(self):
        phi = from_callable(lambda Y, tol: np.zeros(len(Y), complex), dim=2)
        with pytest.raises(DimensionMismatchError):
            phi(1.0)
        with pytest.raises(DimensionMismatchError):
            phi([1.0, 2.0, 3.0])

    def test_segment_law_vanishes_at_origin(self):
        # jump integral here is quadrature-backed, not a formula
        m = SpectralMeasure(1, (ray([1.0], segments=[(0.5, 3.0, 0.3, -1.4)]),))
        phi = from_triplet(LevyTriplet(1, [0.0], [[0.0]], m))
        assert abs(phi(0.0)) < 1e-12


def unfolded(phi, Y, tol=None):
    """phi on Y in one batch that is not antisymmetric: Y rolled by one row."""
    return np.roll(phi.eval_grid(np.roll(Y, 1, axis=0), tol), -1)


def counted(batches):
    """A Hermitian callable exponent that records every batch it is given."""

    def fn(Y, tol):
        batches.append(Y.copy())
        y = Y[:, 0]
        return -0.5 * y * y + 0.3j * y

    return from_callable(fn, dim=1)


# asymmetric jumps, as in the benchmark's identity laws, so that the
# exponents have imaginary parts for the fold to mirror
FOLD_CP = closed_form("compound_poisson", rate=2.0, jumps=[[2.0], [-1.25], [0.75]])
FOLD_LAWS = {"cp": FOLD_CP, "mix": convolve(closed_form("gaussian", cov=0.5), FOLD_CP)}

# one (identity, beta) per check of each law, every beta on each law once
FOLD_CHECKS = [
    ("cp", "eq3", 0.5), ("cp", "eq15", 3.0), ("cp", "cor1a", 1.0), ("cp", "prop2", 2.0),
    ("mix", "eq3", 2.0), ("mix", "eq15", 0.5), ("mix", "cor1a", 3.0), ("mix", "prop2", 1.0),
]


# every primitive of a triplet law: atoms, power and log-form segments, an
# unbounded power tail and a tabulated grid tail
FOLD_TRIPLET = LevyTriplet(1, [0.2], [[0.5]], SpectralMeasure(1, (
    ray([1.0], atoms=[(0.4, 0.5), (2.0, 1.0)],
        segments=[(0.0, 0.8, 0.5, -0.7), (0.5, 3.0, 0.3, 0.3, 0.004)],
        grid_tail=GridTail(np.geomspace(0.5, 4.0, 30), np.linspace(1.0, 0.0, 30))),
    ray([-1.0], segments=[(1.5, math.inf, 0.3, -1.6)]),
)))
CONJUGATE_LAWS = {
    "gaussian": closed_form("gaussian", mean=0.3, cov=0.5),
    # no quadratic term to cover the real part left by the drift
    "gaussian-degenerate": closed_form("gaussian", mean=0.3, cov=0.0),
    "dirac": closed_form("dirac", shift=0.7),
    "compound_poisson": FOLD_CP,
    "levy_area_bdlp": closed_form("levy_area_bdlp", u=1.0),
    "triplet": from_triplet(FOLD_TRIPLET),
}


class TestHermitianFold:
    """eval_grid evaluates half of an antisymmetric grid and mirrors it."""

    GRID = np.linspace(-5.0, 5.0, 41)[:, None]

    @pytest.mark.parametrize("law, identity, beta", FOLD_CHECKS)
    def test_identity_sides_are_byte_identical(self, law, identity, beta):
        run = factor.IDENTITIES[identity].run
        folded = run(FOLD_LAWS[law], beta, SimpleNamespace(grid=self.GRID, tol=1e-8))
        rolled = run(
            FOLD_LAWS[law], beta, SimpleNamespace(grid=np.roll(self.GRID, 1, axis=0), tol=1e-8)
        )
        assert folded.lhs.tobytes() == np.roll(rolled.lhs, -1).tobytes()
        assert folded.rhs.tobytes() == np.roll(rolled.rhs, -1).tobytes()

    def test_power_segment_triplet_is_byte_identical(self):
        m = SpectralMeasure(1, (
            ray([1.0], atoms=[(1.5, 0.4)],
                segments=[(0.0, 0.8, 0.5, -0.7), (1.0, math.inf, 0.2, -2.5)]),
            ray([-1.0], segments=[(0.3, 2.0, 0.6, -1.6)]),
        ))
        phi = from_triplet(LevyTriplet(1, [0.2], [[0.5]], m))
        for psi in (phi, maps.apply_map(maps.i_map(), phi)):
            want = unfolded(psi, self.GRID, 1e-9)
            assert psi.eval_grid(self.GRID, 1e-9).tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "grid, seen",
        [
            (np.linspace(-5.0, 5.0, 41), 21),
            (np.arange(-4.5, 5.0), 5),
            (np.array([1.0, -1.0, 2.0]), 3),
            # not exactly antisymmetric: its ends cancel to 6.7e-16
            (np.linspace(-3.0, 3.0, 20), 20),
        ],
    )
    def test_node_sees_half_of_an_antisymmetric_grid_only(self, grid, seen):
        batches = []
        vals = counted(batches).eval_grid(grid[:, None])
        assert [len(b) for b in batches] == [seen]
        assert vals.tobytes() == (-0.5 * grid * grid + 0.3j * grid + 0.0).tobytes()

    def test_stacked_inner_batches_are_evaluated_whole(self):
        batches = []
        phi = counted(batches)
        phi.eval_grid(np.concatenate([0.5 * self.GRID, self.GRID]))
        assert [len(b) for b in batches] == [82]
        # a map on the antisymmetric grid folds once at the top: every
        # batch beneath is stacked from the 21 upper points
        batches.clear()
        maps.apply_map(maps.jbeta_map(2.0), phi).eval_grid(self.GRID, 1e-9)
        assert batches and all(len(b) % 21 == 0 and np.all(b >= 0.0) for b in batches)
        # and so does every map called on the grid directly
        for m in (maps.jbeta_map(0.5), maps.ubetaf_map(2.0), maps.i_map(), maps.i_jbeta_map(1.0)):
            batches.clear()
            maps.map_exponent_grid(m, phi, self.GRID, 1e-9)
            assert batches and all(np.all(b >= 0.0) for b in batches), m

    @pytest.mark.parametrize("law", CONJUGATE_LAWS)
    def test_negated_rows_have_the_conjugate_bytes(self, law):
        # what one fold relies on, row by row and to the bit: Phi(-y) is
        # conj Phi(y) + 0.0, tabulated tails included
        rng = np.random.default_rng(2200)
        Y = rng.uniform(-1.0, 1.0, (200, 1)) * 10.0 ** rng.uniform(-3.0, 2.0, (200, 1))
        phi = CONJUGATE_LAWS[law]
        assert phi.eval_grid(-Y).tobytes() == (np.conj(phi.eval_grid(Y)) + 0.0).tobytes()

    def test_gaussian_keeps_positive_zero_imaginary_parts(self, gaussian_phi):
        vals = gaussian_phi.eval_grid(self.GRID)
        assert not np.any(np.signbit(vals.imag))
        assert vals.tobytes() == unfolded(gaussian_phi, self.GRID).tobytes()


class TestGridNormalization:
    def test_scalar_input(self):
        Y, single = as_grid(0.5, 1)
        assert single and Y.shape == (1, 1)

    def test_scalar_for_multidim_law_raises(self):
        with pytest.raises(DimensionMismatchError):
            as_grid(0.5, 2)

    def test_one_dim_batch(self):
        Y, single = as_grid([1.0, 2.0, 3.0], 1)
        assert not single and Y.shape == (3, 1)

    def test_vector_point(self):
        Y, single = as_grid([1.0, 2.0], 2)
        assert single and Y.shape == (1, 2)

    def test_wrong_vector_length(self):
        with pytest.raises(DimensionMismatchError):
            as_grid([1.0, 2.0, 3.0], 2)

    def test_grid_shape_checked(self):
        with pytest.raises(DimensionMismatchError):
            as_grid(np.zeros((4, 3)), 2)
        with pytest.raises(DimensionMismatchError):
            as_grid(np.zeros((2, 2, 2)), 2)


def _closed_form_case(name: str, dim: int, k: int, rng) -> dict:
    """Random parameters of one closed form."""
    if name == "gaussian":
        a = rng.normal(size=(dim, dim))
        return {"mean": rng.normal(size=dim), "cov": a @ a.T}
    if name == "dirac":
        return {"shift": rng.normal(size=dim)}
    if name == "compound_poisson":
        sign = rng.choice([-1.0, 1.0], size=(k, dim))
        probs = rng.uniform(0.1, 1.0, k)
        return {
            "rate": rng.uniform(0.1, 5.0),
            "jumps": sign * rng.uniform(0.01, 5.0, (k, dim)),
            "probs": probs / probs.sum(),
        }
    return {"u": rng.uniform(0.1, 3.0)}


def _rows_alone_and_in_batch(fn, Y: np.ndarray, positions) -> list[int]:
    """Positions whose row, evaluated alone, differs in any byte from the batch."""
    batch = fn(Y)
    return [j for j in positions if fn(Y[j : j + 1]).tobytes() != batch[j : j + 1].tobytes()]


class TestBatchIndependence:
    """A leaf row has the same bytes in whatever batch it rides.

    Nested quadrature takes column independence for granted: a column's
    value must not depend on which other columns share its integrand
    batches. Matrix products and einsum round a row differently with the
    batch's size and alignment, so the leaves sum in a fixed order.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(sorted(CLOSED_FORMS)),
        dim=st.integers(min_value=1, max_value=2),
        k=st.integers(min_value=1, max_value=13),
        n=st.integers(min_value=1, max_value=20_000),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_closed_form_rows(self, name, dim, k, n, seed):
        rng = np.random.default_rng(seed)
        dim = 1 if name == "levy_area_bdlp" else dim
        phi = closed_form(name, **_closed_form_case(name, dim, k, rng))
        Y = rng.uniform(-1.0, 1.0, (n, dim)) * 10.0 ** rng.uniform(-3.0, 2.0, (n, 1))
        positions = rng.integers(0, n, 8)
        assert _rows_alone_and_in_batch(phi.eval_grid, Y, positions) == []

    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(min_value=1, max_value=200),
        n=st.integers(min_value=1, max_value=20_000),
        budget=st.sampled_from([spectral.CIS_CHUNK_ELEMENTS, 128]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_point_mass_rows(self, k, n, budget, seed):
        # a budget below the atom count also splits the atoms into tiles,
        # of one row each, so those batches stay short
        n = n if budget == spectral.CIS_CHUNK_ELEMENTS else 1 + n % 1000
        rng = np.random.default_rng(seed)
        r, m = rng.uniform(0.01, 5.0, k), rng.uniform(0.0, 2.0, k)
        w = rng.uniform(-50.0, 50.0, n)

        radial = spectral.RadialMeasure(tuple(spectral.Atom(*a) for a in zip(r, m)))

        def fn(w_rows):
            return radial.exponent_integral(w_rows)

        with mock.patch.object(spectral, "CIS_CHUNK_ELEMENTS", budget):
            assert _rows_alone_and_in_batch(fn, w, rng.integers(0, n, 8)) == []

    @settings(max_examples=20, deadline=None)
    @given(
        k=st.integers(min_value=1, max_value=4),
        n=st.integers(min_value=1, max_value=5000),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_atoms_only_triplet_rows(self, k, n, seed):
        # the shift, the covariance and each ray's projection sum in order
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(2, 2))
        rays = []
        for _ in range(k):
            d = rng.normal(size=2)
            atoms = zip(rng.uniform(0.1, 3.0, 3), rng.uniform(0.0, 2.0, 3))
            rays.append(ray(d / np.linalg.norm(d), atoms=atoms))
        law = LevyTriplet(2, rng.normal(size=2), a @ a.T, SpectralMeasure(2, rays))
        Y = rng.uniform(-1.0, 1.0, (n, 2)) * 10.0 ** rng.uniform(-3.0, 2.0, (n, 1))
        positions = rng.integers(0, n, 8)
        assert _rows_alone_and_in_batch(law.exponent_grid, Y, positions) == []


    @staticmethod
    def _triplet_law(rng: np.random.Generator, dim: int) -> LevyTriplet:
        """Atoms, power segments from 0, from lo > 0 and unbounded, log forms and a grid tail."""
        rays = []
        for _ in range(int(rng.integers(1, 4))):
            d = rng.normal(size=dim)
            lo = float(rng.uniform(0.05, 2.0))
            hi = lo + float(rng.uniform(0.05, 3.0))
            segments = [
                (0.0, float(rng.uniform(0.1, 2.0)), float(rng.uniform(0.05, 1.0)),
                 float(rng.uniform(-2.9, 1.0))),
                (lo, hi, float(rng.uniform(0.05, 1.0)), float(rng.uniform(-3.0, 1.0))),
                (float(rng.uniform(0.5, 3.0)), math.inf, float(rng.uniform(0.05, 1.0)),
                 float(rng.uniform(-2.9, -1.1))),
                # log forms need p - e >= -1, from 0 also p > -3
                (lo, hi, float(rng.uniform(0.05, 1.0)), float(rng.uniform(-0.9, 1.0)),
                 float(rng.uniform(-0.01, 0.01))),
                (0.0, hi, float(rng.uniform(0.05, 1.0)), float(rng.uniform(-0.9, 1.0)), 0.0),
            ]
            keep = rng.random(len(segments)) < 0.6
            radii = np.geomspace(lo, hi + 1.0, int(rng.integers(2, 30)))
            grid = GridTail(radii, np.linspace(1.0, 0.0, radii.size) * rng.uniform(0.1, 1.0))
            radii_masses = rng.uniform(0.05, 4.0, 3), rng.uniform(0.0, 2.0, 3)
            rays.append(ray(
                d / np.linalg.norm(d),
                atoms=list(zip(*radii_masses))[: int(rng.integers(0, 4))],
                segments=[sg for sg, k in zip(segments, keep) if k],
                grid_tail=grid if rng.random() < 0.4 else None,
            ))
        a = rng.normal(size=(dim, dim))
        law = LevyTriplet(dim, rng.normal(size=dim), a @ a.T, SpectralMeasure(dim, rays))
        law.require_valid()
        return law

    @settings(max_examples=25, deadline=None)
    @given(
        dim=st.integers(min_value=1, max_value=2),
        n=st.integers(min_value=1, max_value=20_000),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_triplet_rows(self, dim, n, seed):
        # every primitive of a triplet law; |y| from 1e-3 to 1e2 takes both
        # the series and the rotated contour, at and past the series edge
        rng = np.random.default_rng(seed)
        law = self._triplet_law(rng, dim)
        Y = rng.uniform(-1.0, 1.0, (n, dim)) * 10.0 ** rng.uniform(-3.0, 2.0, (n, 1))
        positions = rng.integers(0, n, 8)
        assert _rows_alone_and_in_batch(law.exponent_grid, Y, positions) == []

    def test_mapped_segment_law_columns(self):
        # a map's quadrature batches a column's abscissas with the other
        # columns'; over a segment law each column keeps its bytes
        levy = SpectralMeasure(1, (
            ray(1.0, atoms=[(2.0, 1.0)],
                segments=[(0.0, 0.8, 0.5, -1.2), (0.5, 3.0, 0.3, 0.3, 0.004)]),
            ray(-1.0, segments=[(1.5, math.inf, 0.3, -2.4)]),
        ))
        phi = from_triplet(LevyTriplet(1, [0.25], [[0.2]], levy))
        Y = np.array([[-4.0], [-0.3], [0.7], [1.9], [4.5]])
        m = maps.jbeta_map(1.3)
        together = maps.map_exponent_grid(m, phi, Y, 1e-8)
        for j in range(Y.shape[0]):
            alone = maps.map_exponent_grid(m, phi, Y[j : j + 1], 1e-8)
            assert alone.tobytes() == together[j : j + 1].tobytes(), j


class TestCompoundPoissonAccuracy:
    """The compound-Poisson exponent against 40-digit mpmath.

    Jumps and weights are dyadic, so every angle y*j and weight is exact
    and the error is the kernel's and the atom sum's alone; it is relative
    to the sum of the terms' moduli.
    """

    jumps = np.array([1.0, -2.0, 0.5])
    probs = np.array([0.5, 0.25, 0.25])

    def _want(self, y: float) -> tuple[complex, float]:
        total, scale = mp.mpc(0), mp.mpf(0)
        for j, p in zip(self.jumps, self.probs):
            half = mp.mpf(y) * mp.mpf(j) / 2
            term = p * mp.mpc(-2 * mp.sin(half) ** 2, mp.sin(2 * half))
            total += term
            scale += abs(term)
        return complex(total), float(scale)

    def test_matches_mpmath_over_magnitudes_and_near_odd_multiples_of_pi(self):
        phi = closed_form("compound_poisson", rate=1.0, jumps=self.jumps, probs=self.probs)
        rng = np.random.default_rng(3)
        ys = rng.choice([-1.0, 1.0], 600) * 10.0 ** rng.uniform(-12.0, 3.0, 600)
        odd_pi = (2 * np.arange(160) + 1) * math.pi
        ys = np.concatenate([ys, np.nextafter(odd_pi, 0.0), np.nextafter(odd_pi, 1e4)])
        got = phi.eval_grid(ys[:, None])
        with mp.workdps(40):
            for y, g in zip(ys, got):
                want, scale = self._want(y)
                assert abs(g - want) <= 1e-15 * scale, y


class TestSpecialFunctions:
    points = [0.0, 1e-6, 1e-4, 0.5, 1.0, 5.0, 50.0, 299.0, 301.0, 700.0, 1e4]

    def test_xcothx_matches_high_precision(self):
        with mp.workdps(30):
            for x in self.points:
                want = float(x / mp.tanh(x)) if x else 1.0
                got = float(xcothx(np.array(x)))
                assert got == pytest.approx(want, rel=5e-15), x

    def test_log_sinhc_matches_high_precision(self):
        with mp.workdps(30):
            for x in self.points:
                want = float(mp.log(mp.sinh(mp.mpf(x)) / x)) if x else 0.0
                got = float(log_sinhc(np.array(x)))
                assert got == pytest.approx(want, rel=5e-15, abs=1e-15), x

    def test_both_are_even(self):
        x = np.array([0.3, 2.0, 40.0])
        np.testing.assert_array_equal(xcothx(-x), xcothx(x))
        np.testing.assert_array_equal(log_sinhc(-x), log_sinhc(x))

    def test_vectorized_shapes(self):
        x = np.linspace(-2.0, 2.0, 11)
        assert xcothx(x).shape == x.shape
        assert log_sinhc(x).shape == x.shape
