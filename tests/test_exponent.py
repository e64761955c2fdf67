"""Exponent objects: closed forms, algebra, invariants, special functions.

Run as a script to print the triplet leaf's digests (``LEAF_DIGESTS``) and the
keys whose digest moved, and with a path ending in .npz write the values
behind them there, for ``tests/digest_diff.py``:

    PYTHONPATH=src python tests/test_exponent.py [values.npz]
"""

import hashlib
import inspect
import json
import math
import sys
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
            cp_phi.conv_power(2.5).eval_grid(Y),
            2.5 * cp_phi.eval_grid(Y),
            rtol=1e-14, atol=1e-16,
        )

    def test_conv_power_requires_positive(self, gaussian_phi):
        for c in (0.0, -2.0, math.inf):
            with pytest.raises(ValueError):
                gaussian_phi.conv_power(c)


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
        for psi in (phi, phi.mapped(maps.i_map())):
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
        phi.mapped(maps.jbeta_map(2.0)).eval_grid(self.GRID, 1e-9)
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


# -- the triplet leaf's bytes ---------------------------------------------------


def leaf_grids(dim: int) -> dict[str, np.ndarray]:
    """Rows the leaf is pinned on: one row, the default grid, and |y| up to 30.

    At |y| = 30 the rotated contour and the Laguerre rule run on power pieces
    and log forms. The rows a jbeta map hands the leaf are pinned apart
    (:func:`leaf_map_batches`).
    """
    if dim == 1:
        return {
            "one-row": np.array([[2.5]]),
            "default": factor.default_grid(1),
            "wide": np.linspace(-30.0, 30.0, 61)[:, None],
        }
    return {
        "one-row": np.array([[2.5, -1.0]]),
        "default": factor.default_grid(2),
        "wide": 6.0 * factor.default_grid(2),
    }


def leaf_laws() -> dict[str, LevyTriplet]:
    """The laws whose leaf bytes are pinned.

    Panel laws 0-7 (seed 9002), their jbeta images at beta 1 and 1.3, and
    near-band's at 1.3, which holds a log form. Then a law whose unbounded
    piece comes before two bounded pieces from a > 0, so that pieces add in
    an order other than the one they are evaluated in, the dim-2 law, and
    two grid tails: hash-panel's, with an atom, and 600 nodes from 1e-3 to
    1e4 with tail 1/r.
    """
    from test_map_triplet import dim2_law, hash_panel

    hashed = hash_panel()
    laws = {f"panel{k}": hashed[f"panel{k}"] for k in range(8)}
    for name, trip in list(laws.items()):
        for beta in (1.0, 1.3):
            laws[f"jbeta{beta:g}-{name}"] = maps.jbeta_triplet(trip, beta)
    laws["jbeta1.3-near-band"] = maps.jbeta_triplet(hashed["near-band"], 1.3)
    laws["unbounded-first"] = LevyTriplet(1, [0.1], [[0.3]], SpectralMeasure(1, (
        ray([1.0], atoms=[(0.5, 0.4)],
            segments=[(1.5, math.inf, 0.3, -2.4), (0.3, 2.5, 0.4, -1.3)]),
    )))
    laws["dim2"] = dim2_law()
    laws["grid-tail"] = hashed["grid-tail"]
    radii = np.geomspace(1e-3, 1e4, 600)
    laws["grid-tail-600"] = LevyTriplet(1, [0.0], [[0.0]], SpectralMeasure(1, (
        ray([1.0], grid_tail=GridTail(radii, 1.0 / radii)),
    )))
    return laws


def leaf_map_batches(trip: LevyTriplet) -> list[np.ndarray]:
    """The batches ``maps.map_exponent_grid`` hands the triplet leaf for a jbeta map.

    The map is at beta 1 and tol 1e-9, on the rows 0, 2.5 and 5 (in dim 2,
    with second coordinates 0, -1 and 2).
    """
    rows = np.array([[0.0, 0.0], [2.5, -1.0], [5.0, 2.0]])[:, : trip.dim]
    batches = []
    leaf = LevyTriplet.exponent_grid

    def recorded(self, Y):
        batches.append(np.array(Y))
        return leaf(self, Y)

    with mock.patch.object(LevyTriplet, "exponent_grid", recorded):
        maps.map_exponent_grid(maps.jbeta_map(1.0), from_triplet(trip), rows, 1e-9)
    return batches


def leaf_arrays() -> dict[str, np.ndarray]:
    """The triplet leaf's values on each law and grid, the map batches stacked."""
    out = {}
    for name, trip in leaf_laws().items():
        for grid, Y in leaf_grids(trip.dim).items():
            out[f"{name}/{grid}"] = trip.exponent_grid(Y)
        batches = [trip.exponent_grid(Y) for Y in leaf_map_batches(trip)]
        out[f"{name}/jbeta-map"] = np.concatenate(batches)
    return out


def leaf_digests(arrays: dict[str, np.ndarray] | None = None) -> dict[str, str]:
    """sha256 of each of :func:`leaf_arrays`' bytes."""
    arrays = leaf_arrays() if arrays is None else arrays
    return {key: hashlib.sha256(v.tobytes()).hexdigest() for key, v in arrays.items()}


LEAF_DIGESTS = {
    "panel0/one-row": "4830cf6411c61dcdda6ae3b6ad64dd80fedb9b325d1bb6f86dc5501a8ea15fee",
    "panel0/default": "c505d154a74a6533ae3323bda438360deb0e589938b0796770121de730d478f3",
    "panel0/wide": "ebbed3c09f68e2499c2eebcb35bda033fec6c939da6cc0a6bc65f249f6df3203",
    "panel0/jbeta-map": "b5f9ab9655b28d430cfbf52a5e38a8f5cbcf09c3a80b79b6f555fb6a2d08c736",
    "panel1/one-row": "bf64c5fdcd98a525bc280a93dc49c501e9ea7ff54b515e5645c96941fc489f6f",
    "panel1/default": "371e9aad39288758c06237e774ca8af4d487f6fb1747a731cd84f770cd6e6d2e",
    "panel1/wide": "287b633d5d6ca7cc44542cd249e8270783cd810eb616ea5295a661c82aa600af",
    "panel1/jbeta-map": "35755a3a2a6166f704fd331f46ac063d77b3b874797ef731f0d361a8f6ab1be4",
    "panel2/one-row": "da0e966d17815774274325bff424ccd3a4bdfd50096e0e670a154abcde8623aa",
    "panel2/default": "5bb80b62799162d53f0acf96bb91bb27a5b85ddd9614d01c3548345bc0419229",
    "panel2/wide": "76ea8039c2c0639894664e47188d625a8801107d4c6286882b8a6a70449bdfde",
    "panel2/jbeta-map": "0e8d293e2e3d96f4297c013953b04e136d6e41ae2edf659fa8d073ae1c27f59a",
    "panel3/one-row": "3926c3f1642003e0069c6c2e900148bd1f5673b77f77bcf95308d0237252b938",
    "panel3/default": "4b0ecb08a5a67ec90048c11e3ba44bd22fd420fa5142d507e8d07da39b5478c2",
    "panel3/wide": "410609f3b11f07e7dbc5bbe085f6a4c5b050571f1f9098b6beafef48aeffae74",
    "panel3/jbeta-map": "b75d9ce788c157b6cf3702f7911dfc839cb8bedf8d4723e850fb7f9264eb91a7",
    "panel4/one-row": "82ed04ac96636df37ff13c3147a0e4b361b1bf4284bd0de07c2a4f40f361dd7f",
    "panel4/default": "cdfaa2cf2fa367c8dbe2ef5028c19a0cd0548c1763b9ab35a14a79dfac1e7dde",
    "panel4/wide": "8e6db0eed5d1d25466ab37213e03b371406e517afd8e2c8d14e00d339fcffec8",
    "panel4/jbeta-map": "907f2fdacbb915c46542e884ef5eb61b6e1326163db34dd15ccc47421198becc",
    "panel5/one-row": "36475938c659e579730ce0cff146d921be6c734f22e95bc51a4d5aed0fa1dc38",
    "panel5/default": "31c110688f074e79dc4ac30b63f4cce79d265d07e94c53d9ea83ef0decdf3639",
    "panel5/wide": "bcbd384b807f58bd413a50fe43c79b5525ad90f7648290d0107d23abc55fcd1f",
    "panel5/jbeta-map": "a60c65d1ee7681a1e0fe33a7880ed9edf1733501a5e390999171a36430441c71",
    "panel6/one-row": "f4c154d04cb3f9008a88c14909ad0e50c2f8f6f1e1f0281451e3694e3bed6ef0",
    "panel6/default": "27ca2e9436934bd1456aaa21c5915d770eb945c33abc8007eb470bc5602d81d5",
    "panel6/wide": "2d315eb8e43479dc6572bcfed0e0248083b96c41a3f19264b00ed96175b6581a",
    "panel6/jbeta-map": "0c8de71fcb2f6b6f2fca0035b39184218fb40c0557429303dde469f4383dd3fc",
    "panel7/one-row": "c73d8c5bb087e094ea3a9b30610fc3d85b0a076f20d6c955981ca3f1dd6658f1",
    "panel7/default": "f6c4ad9f888faa402983caf8d3b46b0e1b7d7f463983f9952927875f051eb253",
    "panel7/wide": "9f0ec7905d880b7eaa9f84aa1c18952c33a8a51733eafd0864e234f51bccc114",
    "panel7/jbeta-map": "f582450d3a7833c60671117087f65e71b18e66bad874d07ed3850d373888f41b",
    "jbeta1-panel0/one-row": "fb98be466c54b01d6335d281ea720de3772d9da5bfdff65ac8ff5180eb674a14",
    "jbeta1-panel0/default": "0a1a93c67a4cf17211024a05e4c6f3c291dbfc0e72efd4beb97c0ccf1d0b4d41",
    "jbeta1-panel0/wide": "1cad112d623b900456f4bb3df5994ec8d3e997e087c1c225fd01b0bae3d29883",
    "jbeta1-panel0/jbeta-map": "dffb1f32a5e99b5b0ba488657fe934dd04268c1d59da2c6bb6d42faddc7f937c",
    "jbeta1.3-panel0/one-row": "98d23308cc1a0d0fd6453132f9ee368635e5a5458be4a548eef6f58a508889c7",
    "jbeta1.3-panel0/default": "feae9b1934152cb45caf801ae55cd528e59b65a7c841d1536f42256755494f08",
    "jbeta1.3-panel0/wide": "3c32f3a4b8a06c55804afbfa4d26769cd8d7b8e656773d96cdda7be60ed52e95",
    "jbeta1.3-panel0/jbeta-map": "55b477c8a0634aa10f53d2ca1d9b209a5fd66bc3463fc84e2851882eb53b7f17",
    "jbeta1-panel1/one-row": "b83c328968ab302f2a654269be344d51123218e04fea6d1a6b77c97e20f807c0",
    "jbeta1-panel1/default": "d76b501cb0949e28b4c9afc25feb0938b736a22ee7133847a1110b2e78a7eed5",
    "jbeta1-panel1/wide": "684213011c05c4ac80605ab8032789fa2ae3ec14358dc7a623daf4f263071089",
    "jbeta1-panel1/jbeta-map": "7c2b8f37b8523b7a3e3d5233638c33a0308145bed932bf79760e5745e6393e66",
    "jbeta1.3-panel1/one-row": "36afcb21afac59380d52fb6e54d5b73a635269a5639c261de5a0becee431d970",
    "jbeta1.3-panel1/default": "388192300775e8b935b3932c2bb178200e0a3b3cfc8cbc068ec2b816f5d3412b",
    "jbeta1.3-panel1/wide": "361bfbfa8d921a1b747f38791724f7034133900017ad5c2a3a2dc695414117ae",
    "jbeta1.3-panel1/jbeta-map": "e8b13592ef3b9b81c8c11ed674de9d9231f2179fc68496a813ad10304d2acea1",
    "jbeta1-panel2/one-row": "14211703995a55b8b31148db437b7d1fc7d14892635608b021ac420e90db807f",
    "jbeta1-panel2/default": "a001af66d61b92590210ca19c360a6d5589ff6db69c6030d0c6c7ecc93af277e",
    "jbeta1-panel2/wide": "e3f4ddcf726c77aa5fd985317da51767b38b678a4ae150655dd99d2f8a96b5d1",
    "jbeta1-panel2/jbeta-map": "505b10ba114f82706365cbd1942fa6ff48b760f7b5a530095ad7638c94098ee7",
    "jbeta1.3-panel2/one-row": "d4f95993b9bb988489ef161c0481b430fc10098341942239f5a762dac13a7bbb",
    "jbeta1.3-panel2/default": "9d2b109e318e075047356cf76acb5597e98b429e758d910f0bb4b9d41f1b1f71",
    "jbeta1.3-panel2/wide": "d4bc65f0d9d6b362a3bf78949f63b6649d9cbae9910557aec65f185bf12a9cb1",
    "jbeta1.3-panel2/jbeta-map": "dda4c34479865aac91ef3488c7469ad1c750e08de612d524e7311003a12b63f0",
    "jbeta1-panel3/one-row": "99387231363e6090f87abaffceddd47c4bd5264804f7dfa5c4eef14ea1375a51",
    "jbeta1-panel3/default": "282c4c428a87e89763dd05aee8d0e74f5c1ed347ba22f23467494af301918602",
    "jbeta1-panel3/wide": "b3a7883aebe72a2b89a9c52dd252c49f7d48151cea9edeee6d59b6aa94351c1b",
    "jbeta1-panel3/jbeta-map": "100bdadd7a3121042f65dbf80af444a21a3f128ee7ba1fd0fa8586937ba0f47a",
    "jbeta1.3-panel3/one-row": "19fc1bceffba8adb5b7b2cd912a5558b62328757249d1483b8618d02f8e65b82",
    "jbeta1.3-panel3/default": "e169d42bb7f1b716022e4535d0f969fd3eecf146d8255b2ea87df2e1ee615183",
    "jbeta1.3-panel3/wide": "d49fd1809e7410e6ee40b277785cb5571376c6d82d7266f797bf0ff681ab44c9",
    "jbeta1.3-panel3/jbeta-map": "b0941ce6abe4aa92376c5954c734029773b841b895d28c4471d033c5d6176120",
    "jbeta1-panel4/one-row": "ed5285652b3dbb1ec3624de57a05c27d6c98f4ad76f74e711d088d49f3f57f2e",
    "jbeta1-panel4/default": "592e8601412293bb2bbe6ffec3a947ebff83cc12a0a05f9bcdf1a80eee91a3d2",
    "jbeta1-panel4/wide": "2fc99e2d50c1e4ba01bc8586a0bd13f3b2df7852d59abdd5dba625f24b74cbc0",
    "jbeta1-panel4/jbeta-map": "9cab776c7074b51c33da8b4c4fecc80f698f25ab4e7de1b528b54cbbdb237c7d",
    "jbeta1.3-panel4/one-row": "36c07fbc0a918baa44e07c305b06635ad3b5e99abb2f5aa10432ac36faf6a015",
    "jbeta1.3-panel4/default": "3e3fbaa5a671aa5b0e8c108f605a094e06d5175e51675ae71e5faf03120d1de4",
    "jbeta1.3-panel4/wide": "b5e72f7a4eb29898f971588a97d9f24d479e40a99c88267f704b98a7dc2babfe",
    "jbeta1.3-panel4/jbeta-map": "23152a70f9d3c3168987ad802b6ece3c6de561aa87234a364fce6cc58e3a57ca",
    "jbeta1-panel5/one-row": "d8b74ff1c5e111d0bd78972ba3f9d30ddf2d0d438ffea8a0d755fc188ec568b7",
    "jbeta1-panel5/default": "df8a6ded57dc6d41e4912c9e493fccafd98973d9fe74df451b1e23d0aeb9f0e9",
    "jbeta1-panel5/wide": "f7352d54a308b15f3ea6d4234137d07bbe64bd611801da8d6559e86b55366fb5",
    "jbeta1-panel5/jbeta-map": "439e7d415ebb4d294b7ba960896d7e4ce8451917e265477448a3b420eb8381cf",
    "jbeta1.3-panel5/one-row": "eadc066ec94d2c517b735c97880b2920af0aa7b50ddc558147fc10c832ef56fe",
    "jbeta1.3-panel5/default": "427f9dace3681ed1ced304fa380f622b776af92c9aa68ee2b9f2c56eae7f7898",
    "jbeta1.3-panel5/wide": "39b4c39086846f4e7d0c224ad820184ce00748c1fd6f2102c8cf4815562a98d9",
    "jbeta1.3-panel5/jbeta-map": "f7afafe680e8e28e060074110318e8e9e44f865ab19effa1385f720a5b48cf15",
    "jbeta1-panel6/one-row": "5f8e683fbacfbc5b5251208b6b3944b2927b83325462a9db3dce6bfcd506087d",
    "jbeta1-panel6/default": "861ef36853157b95f2e977215875ee12d60757d9c5446a59d1ad90d75ec26d45",
    "jbeta1-panel6/wide": "70db3a31c21f9042893bc10bf718abec8506e6821c1dae2ffb499bb48c511cf7",
    "jbeta1-panel6/jbeta-map": "a66c7cb96641b346aa21f285177433b97a6d2c3c769cb70e461aa117b7a6c4b5",
    "jbeta1.3-panel6/one-row": "debc90fff941c6fa265e1b2487b8648c9c08af18200278df61f914b55beb1f79",
    "jbeta1.3-panel6/default": "c4f57f0ee97398daabb56d37b50b512c1ed5ff04a5e07df10ba8a7c7bb98055e",
    "jbeta1.3-panel6/wide": "02474b2ebed555a449d097738d71f182d35474a0a615b9c953d35951aa665a20",
    "jbeta1.3-panel6/jbeta-map": "e59c96d43092cfa36ea96cab6da5df9cff89e42b336da87298836c53daa8c04b",
    "jbeta1-panel7/one-row": "0be97221e243911f23cca5d5080565b6847bb24f2753b653cb6ab2fa10ad6e5e",
    "jbeta1-panel7/default": "b442ac97d49ec41a015e5cd5342b60f0790575424440300f981ecf48652dd8ff",
    "jbeta1-panel7/wide": "73effb7c278210941d478b9237979d9fc36a581038df9abe098816901b163064",
    "jbeta1-panel7/jbeta-map": "1e9d51687d2e30f23ed7b23701db52d70e273afaa3b52ae661129314ad73f565",
    "jbeta1.3-panel7/one-row": "27c182a2846faf3ca7c5617c1b76c13114a170e6194da8df3309d1e364cc26a4",
    "jbeta1.3-panel7/default": "df0fe96ec4d0c9302e701c092980eb189b146d64e732cda6944707c4371bdf72",
    "jbeta1.3-panel7/wide": "1796678ccdc9f2ff68b40a37b30ff79e38216106e2687e4c139f574917a47389",
    "jbeta1.3-panel7/jbeta-map": "e5fc5bcc1d5e1c728c66dce9a718b276c2a1c7219ec9adf6186dafbbea0be697",
    "jbeta1.3-near-band/one-row": "a72b8ad70906b7bb916282957cc060d0a7a008a91905bf8a1656a4f40f219ced",
    "jbeta1.3-near-band/default": "314ba4a9ee2ba7ec0d96d878a589403a7c82629a22a36cd0aa39e38670bf1f7b",
    "jbeta1.3-near-band/wide": "feaa7e3e6e4786d2d29ffa88c9fd9baa3d24f56a982f0ec740ca75e68808be41",
    "jbeta1.3-near-band/jbeta-map": "37e6a771db45d3c1e63fdd942f37fa77e1733bec05e160c175e274be57bf496f",
    "unbounded-first/one-row": "a0369dcd1b01242dab64989315d51b56b784278cc79bbd11c6a86b62770930f2",
    "unbounded-first/default": "3b0688e5cb6fc0ee771a1232bf4095f7d72f23fa30323cab519cb7d189566365",
    "unbounded-first/wide": "08ff8199ff2a33b69f3b9268a3b266416bb4007ebd65a89533308905728495a3",
    "unbounded-first/jbeta-map": "d6753b4418e442c9a1c38b2d67574d3fa14a2f6e2c32c767cecd391ae89e510b",
    "dim2/one-row": "bb149b387724c98f4bf94d0ef777db1d3a47d6c3d797847191fa5dffd31c63ce",
    "dim2/default": "634d7814250abd2bbcddbb8d10052baad60158622155ccfb7c6b593b1c306923",
    "dim2/wide": "2f7b5762183ed1e7ecc2e5da8767a4fc5bb2f3aeb96139217e3839474b5a2e9b",
    "dim2/jbeta-map": "8c7327716ae812c6f15c0a73481eda3da025d561dda5b60d588421ba2702a86a",
    "grid-tail/one-row": "56233a17c964eb40d3b2c0ad16dcc62b2284bac8a765a234d12ea21856b3a0ae",
    "grid-tail/default": "d31b3cf56025a445752d255d9b9bfd18a79a6fbf4b1e1f3b2b6cdf166c0ef892",
    "grid-tail/wide": "a7cc5ed2f2cc00c3ca679c72954a8ffb102d71daf05ff346b2c453f4a946b810",
    "grid-tail/jbeta-map": "5b460b1631e9548484b3ff56631201389c565977fdac80c991756cf4dd5cc1a3",
    "grid-tail-600/one-row": "fd437aab48621a625748a1527457db6a5a1619c6d4c851a576f9ad262253afaf",
    "grid-tail-600/default": "fbcfbaf5553b13c0026e3ba9630290c2c7b2a9d9c9066b46d33411e3398342af",
    "grid-tail-600/wide": "719df50b102a92d6c2215a656fcc2a525775c188f7bd25a05ca6317afea06f11",
    "grid-tail-600/jbeta-map": "303ecf91b55256fce220458d86423c06347d56fee6def4aaa4a508a582ac5132",
}

def moved_leaf_keys(old: dict, new: dict) -> list[str]:
    return [key for key in sorted(set(old) | set(new)) if old.get(key) != new.get(key)]


def test_triplet_leaf_keeps_its_bytes():
    assert moved_leaf_keys(LEAF_DIGESTS, leaf_digests()) == []


def test_wide_rows_reach_the_laguerre_rule_on_power_pieces_and_log_forms(monkeypatch):
    # past the series edge the rotated tail runs the Laguerre rule itself:
    # on the power pieces of a panel law, and on the log form of near-band's image
    laws = leaf_laws()
    seen = []
    rule = spectral._laguerre_sum

    def recorded(p, a, forms=()):
        seen.append(bool(forms))
        return rule(p, a, forms)

    monkeypatch.setattr(spectral, "_laguerre_sum", recorded)
    for name in ("panel0", "jbeta1.3-near-band"):
        laws[name].exponent_grid(leaf_grids(1)["wide"])
    assert False in seen and True in seen


@pytest.mark.parametrize("k", range(4))
def test_default_grid_reads_the_edge_table_only(k, monkeypatch):
    # on |y| <= 5 every tail element of panel laws 0-3 starts at the series
    # edge of a power piece, so no call runs the Laguerre rule; at |y| = 30 one does
    from test_map_triplet import panel_laws

    law = panel_laws(9002, 4)[k]

    def refuse(*args, **kwargs):
        raise AssertionError("the default grid must not reach _laguerre_sum")

    monkeypatch.setattr(spectral, "_laguerre_sum", refuse)
    law.exponent_grid(factor.default_grid(1))
    with pytest.raises(AssertionError, match="must not reach"):
        law.exponent_grid(np.array([[30.0], [-30.0]]))


if __name__ == "__main__":
    # the digests to pin, then the keys that moved; the arrays behind them go
    # to the .npz file named on the command line (see digest_diff.py)
    from digest_diff import save_arrays

    arrays = leaf_arrays()
    new = leaf_digests(arrays)
    print(json.dumps(new, indent=4))
    for key in moved_leaf_keys(LEAF_DIGESTS, new):
        print(f"moved: {key}")
    save_arrays(arrays, sys.argv[1:])
