import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idlaw import maps, quadrature
from idlaw.errors import QuadratureError
from idlaw.exponent import from_triplet
from idlaw.spectral import SpectralMeasure, ray
from idlaw.triplet import LevyTriplet

GAUSS_WEIGHTS = quadrature._GAUSS_WEIGHTS
GAUSS = GAUSS_WEIGHTS > 0.0


def test_gauss_nodes_inside_the_kronrod_table_match_legendre():
    nodes, weights = np.polynomial.legendre.leggauss(10)
    assert GAUSS.sum() == 10
    np.testing.assert_allclose(quadrature._NODES[GAUSS], nodes, rtol=0, atol=1e-15)
    np.testing.assert_allclose(GAUSS_WEIGHTS[GAUSS], weights, rtol=0, atol=1e-15)


def test_rule_degrees_of_exactness():
    # K21 is exact up to degree 31 and G10 up to degree 19, and no further
    x = quadrature._NODES
    for weights, degree in ((quadrature._KRONROD_WEIGHTS, 31), (GAUSS_WEIGHTS, 19)):
        for deg in range(degree + 2):
            exact = (1.0 - (-1.0) ** (deg + 1)) / (deg + 1)
            assert (abs(weights @ x**deg - exact) < 1e-15) == (deg <= degree), deg


def test_endpoint_singularity_meets_its_error_estimate():
    val, err = quadrature.integrate(lambda us: us**-0.4, 0.0, 1.0, tol=1e-8)
    miss = abs(complex(val) - 1.0 / 0.6)
    assert miss <= err <= 1e-8


def test_i_map_on_unbounded_power_tail_returns():
    levy = SpectralMeasure(
        1,
        (
            ray([1.0], atoms=[(0.8, 0.5)], segments=[(0.2, 2.0, 0.4, -2.2)]),
            ray([-1.0], segments=[(1.5, math.inf, 0.3, -1.6)]),
        ),
    )
    phi = from_triplet(LevyTriplet(1, [0.1], [[0.2]], levy))
    vals = maps.apply_map(maps.i_map(), phi)(np.array([[0.0], [2.5]]), 1e-6)
    assert vals[0] == 0.0
    assert np.isfinite(vals[1]) and vals[1].real < 0.0


def test_smooth_scalar_matches_closed_form():
    val, err = quadrature.integrate(lambda xs: np.exp(-xs * xs), 0.0, 3.0, tol=1e-12)
    truth = 0.5 * math.sqrt(math.pi) * math.erf(3.0)
    assert abs(complex(val).real - truth) < 1e-12
    assert err < 1e-12


def test_cubic_is_integrated_exactly():
    val, _ = quadrature.integrate(lambda xs: xs**3, 0.0, 1.0)
    assert abs(complex(val) - 0.25) < 5e-16


def test_vector_integrand_components():
    def f(xs):
        return np.stack([np.cos(3.0 * xs), np.sin(5.0 * xs)], axis=1)

    val, _ = quadrature.integrate(f, 0.0, 2.0, tol=1e-12)
    truth = np.array([math.sin(6.0) / 3.0, (1.0 - math.cos(10.0)) / 5.0])
    assert np.max(np.abs(val - truth)) < 1e-12


def test_complex_integrand():
    val, _ = quadrature.integrate(lambda xs: np.exp(1j * xs), 0.0, math.pi, tol=1e-12)
    assert abs(complex(val) - 2.0j) < 1e-12


def test_scalar_callable_path():
    val, _ = quadrature.integrate(lambda xs: 1.0 / (1.0 + xs * xs), 0.0, 1.0, tol=1e-11)
    assert abs(complex(val).real - math.pi / 4.0) < 1e-11


def test_degenerate_interval_is_zero():
    val, err = quadrature.integrate(lambda xs: np.exp(xs), 1.0, 1.0)
    assert complex(val) == 0.0
    assert err == 0.0


def test_split_points_handle_kinks():
    third = 1.0 / 3.0

    def f(xs):
        return np.abs(xs - third)

    truth = 0.5 * (third**2 + (1.0 - third) ** 2)
    val, _ = quadrature.integrate(f, 0.0, 1.0, tol=1e-12, splits=(third,))
    assert abs(complex(val).real - truth) < 1e-13
    # the kink is still resolvable without a split, just more slowly
    val2, _ = quadrature.integrate(f, 0.0, 1.0, tol=1e-10)
    assert abs(complex(val2).real - truth) < 1e-9


def test_nonconvergence_carries_partial_result():
    with pytest.raises(QuadratureError) as exc:
        quadrature.integrate(
            lambda xs: np.cos(1000.0 * xs),
            0.0,
            1.0,
            tol=1e-14,
            max_depth=4,
        )
    err = exc.value
    assert err.value is not None
    assert err.error_estimate is not None and err.error_estimate > 1e-14


@settings(max_examples=20, deadline=None)
@given(
    a=st.floats(min_value=-4.0, max_value=4.0),
    b=st.floats(min_value=-4.0, max_value=4.0),
)
def test_linearity_in_the_integrand(a, b):
    f = lambda xs: a * xs * xs
    g = lambda xs: b * xs**3 + xs
    both, _ = quadrature.integrate(lambda xs: f(xs) + g(xs), 0.0, 1.0, tol=1e-12)
    fa, _ = quadrature.integrate(f, 0.0, 1.0, tol=1e-12)
    gb, _ = quadrature.integrate(g, 0.0, 1.0, tol=1e-12)
    assert abs(complex(both) - complex(fa) - complex(gb)) < 1e-11


@settings(max_examples=20, deadline=None)
@given(c=st.floats(min_value=0.05, max_value=0.95))
def test_additivity_over_subintervals(c):
    f = lambda xs: np.sin(3.0 * xs) + xs * xs
    whole, _ = quadrature.integrate(f, 0.0, 1.0, tol=1e-12)
    left, _ = quadrature.integrate(f, 0.0, c, tol=1e-12)
    right, _ = quadrature.integrate(f, c, 1.0, tol=1e-12)
    assert abs(complex(whole) - complex(left) - complex(right)) < 1e-10
