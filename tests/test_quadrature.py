import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idlaw import lawio, maps, quadrature
from idlaw.errors import QuadratureError
from idlaw.exponent import closed_form, from_triplet
from idlaw.spectral import SpectralMeasure, ray
from idlaw.triplet import LevyTriplet

from test_map_triplet import panel_laws

GAUSS_WEIGHTS = quadrature._GAUSS_WEIGHTS
GAUSS = GAUSS_WEIGHTS > 0.0


def integrate_one(g, a, b, **kwargs):
    """One column whose integrand g maps abscissas to values."""
    val, err = quadrature.integrate(lambda pairs: g(pairs["x"]), a, b, **kwargs)
    assert val.shape == (1,)
    return val[0], err


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
    val, err = integrate_one(lambda us: us**-0.4, 0.0, 1.0, tol=1e-8)
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
    vals = phi.mapped(maps.i_map())(np.array([[0.0], [2.5]]), 1e-6)
    assert vals[0] == 0.0
    assert np.isfinite(vals[1]) and vals[1].real < 0.0


def test_smooth_scalar_matches_closed_form():
    val, err = integrate_one(lambda xs: np.exp(-xs * xs), 0.0, 3.0, tol=1e-12)
    truth = 0.5 * math.sqrt(math.pi) * math.erf(3.0)
    assert abs(complex(val).real - truth) < 1e-12
    assert err < 1e-12


def test_cubic_is_integrated_exactly():
    val, _ = integrate_one(lambda xs: xs**3, 0.0, 1.0)
    assert abs(complex(val) - 0.25) < 5e-16


def test_vector_integrand_components():
    def f(pairs):
        xs = pairs["x"]
        return np.where(pairs["col"] == 0, np.cos(3.0 * xs), np.sin(5.0 * xs))

    val, _ = quadrature.integrate(f, 0.0, 2.0, tol=1e-12, columns=2)
    truth = np.array([math.sin(6.0) / 3.0, (1.0 - math.cos(10.0)) / 5.0])
    assert np.max(np.abs(val - truth)) < 1e-12


def test_complex_integrand():
    val, _ = integrate_one(lambda xs: np.exp(1j * xs), 0.0, math.pi, tol=1e-12)
    assert abs(complex(val) - 2.0j) < 1e-12


def test_scalar_callable_path():
    val, _ = integrate_one(lambda xs: 1.0 / (1.0 + xs * xs), 0.0, 1.0, tol=1e-11)
    assert abs(complex(val).real - math.pi / 4.0) < 1e-11


def test_degenerate_interval_is_zero():
    val, err = integrate_one(lambda xs: np.exp(xs), 1.0, 1.0)
    assert complex(val) == 0.0
    assert err == 0.0


def test_split_points_handle_kinks():
    third = 1.0 / 3.0

    def f(xs):
        return np.abs(xs - third)

    truth = 0.5 * (third**2 + (1.0 - third) ** 2)
    val, _ = integrate_one(f, 0.0, 1.0, tol=1e-12, splits=(third,))
    assert abs(complex(val).real - truth) < 1e-13
    # the kink is still resolvable without a split, just more slowly
    val2, _ = integrate_one(f, 0.0, 1.0, tol=1e-10)
    assert abs(complex(val2).real - truth) < 1e-9


def test_nonconvergence_carries_partial_result(monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_DEPTH", 4)
    with pytest.raises(QuadratureError) as exc:
        integrate_one(lambda xs: np.cos(1000.0 * xs), 0.0, 1.0, tol=1e-14)
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
    both, _ = integrate_one(lambda xs: f(xs) + g(xs), 0.0, 1.0, tol=1e-12)
    fa, _ = integrate_one(f, 0.0, 1.0, tol=1e-12)
    gb, _ = integrate_one(g, 0.0, 1.0, tol=1e-12)
    assert abs(complex(both) - complex(fa) - complex(gb)) < 1e-11


@settings(max_examples=20, deadline=None)
@given(c=st.floats(min_value=0.05, max_value=0.95))
def test_additivity_over_subintervals(c):
    f = lambda xs: np.sin(3.0 * xs) + xs * xs
    whole, _ = integrate_one(f, 0.0, 1.0, tol=1e-12)
    left, _ = integrate_one(f, 0.0, c, tol=1e-12)
    right, _ = integrate_one(f, c, 1.0, tol=1e-12)
    assert abs(complex(whole) - complex(left) - complex(right)) < 1e-10


def powers(exps):
    """Integrand with column j equal to x**exps[j]; records the columns it sees."""
    exps = np.asarray(exps, dtype=float)
    seen = []

    def f(pairs):
        seen.append(pairs["col"].copy())
        return pairs["x"] ** exps[pairs["col"]]

    return f, seen


@pytest.mark.parametrize("rough", [False, True], ids=["halved", "graded"])
def test_easy_columns_do_not_ride_along_with_a_hard_one(rough):
    # column 0 has an endpoint singularity and refines deep toward 0; the
    # smooth columns beside it keep the values and pairs of their solo runs,
    # also where the panels touching 0 are cut toward it
    exps = [-0.4, 1.0, 2.5, 7.0]
    f, seen = powers(exps)
    vals, _ = quadrature.integrate(f, 0.0, 1.0, tol=1e-8, columns=len(exps), rough=rough)
    counts = np.bincount(np.concatenate(seen), minlength=len(exps))
    assert counts[0] > 10 * counts[1:].max()
    for j, p in enumerate(exps):
        g, solo_seen = powers([p])
        solo, _ = quadrature.integrate(g, 0.0, 1.0, tol=1e-8, rough=rough)
        assert solo.tobytes() == vals[j : j + 1].tobytes()
        assert sum(c.size for c in solo_seen) == counts[j]
    assert np.max(np.abs(vals - 1.0 / (np.asarray(exps) + 1.0))) < 1e-8
    if rough:
        # the graded cut reaches the singularity in fewer pairs than halving
        g, halved = powers(exps[:1])
        quadrature.integrate(g, 0.0, 1.0, tol=1e-8)
        assert counts[0] < sum(c.size for c in halved)


@settings(max_examples=25, deadline=None)
@given(
    exps=st.lists(st.floats(min_value=-0.3, max_value=4.0), min_size=1, max_size=6),
    freqs=st.lists(st.floats(min_value=-30.0, max_value=30.0), min_size=6, max_size=6),
    tol=st.sampled_from([1e-6, 1e-8, 1e-10]),
)
def test_every_column_meets_tol_against_its_closed_form(exps, freqs, tol):
    p = np.asarray(exps)
    w = np.asarray(freqs[: p.size])

    def f(pairs):
        x, j = pairs["x"], pairs["col"]
        return x ** p[j] + np.exp(1j * w[j] * x)

    vals, err = quadrature.integrate(f, 0.0, 1.0, tol=tol, columns=p.size)
    # the integral of exp(i w x) over (0, 1), in real arithmetic
    safe = np.where(w == 0.0, 1.0, w)
    osc_re = np.where(w == 0.0, 1.0, np.sin(w) / safe)
    osc_im = 2.0 * np.sin(0.5 * w) ** 2 / safe
    truth = 1.0 / (p + 1.0) + osc_re + 1j * osc_im
    assert np.all(np.abs(vals - truth) <= tol)
    assert err <= tol


def test_nonconvergence_carries_the_worst_column(monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_DEPTH", 4)
    freqs = np.array([1.0, 1000.0, 3.0])

    def f(pairs):
        return np.cos(freqs[pairs["col"]] * pairs["x"])

    with pytest.raises(QuadratureError) as exc:
        quadrature.integrate(f, 0.0, 1.0, tol=1e-14, columns=3)
    with pytest.raises(QuadratureError) as solo:
        quadrature.integrate(lambda pairs: np.cos(1000.0 * pairs["x"]), 0.0, 1.0, tol=1e-14)
    assert exc.value.error_estimate == solo.value.error_estimate > 1e-14
    # the easy columns converged and carry their values
    easy = exc.value.value[[0, 2]]
    assert np.max(np.abs(easy - np.sin(freqs[[0, 2]]) / freqs[[0, 2]])) < 1e-14


def test_pair_cap_raises_with_the_best_values(monkeypatch):
    # cos(1000 x) needs about 64 units per column; a cap of 21 pairs per
    # unit times 24 units stops it while its easy neighbours have converged
    monkeypatch.setattr(quadrature, "MAX_PAIRS", 21 * 24)
    freqs = np.array([1.0, 1000.0, 3.0])
    calls = []

    def f(pairs):
        calls.append(pairs.size)
        return np.cos(freqs[pairs["col"]] * pairs["x"])

    with pytest.raises(QuadratureError, match="MAX_PAIRS") as exc:
        quadrature.integrate(f, 0.0, 1.0, tol=1e-14, columns=3)
    assert max(calls) <= quadrature.MAX_PAIRS
    truth = np.sin(freqs) / freqs
    best = exc.value.value
    assert np.max(np.abs(best[[0, 2]] - truth[[0, 2]])) < 1e-14
    # the hard column counts its active units at their last estimate, which
    # the reported worst estimate covers
    assert abs(best[1] - truth[1]) <= exc.value.error_estimate
    assert 1e-14 < exc.value.error_estimate < math.inf


def test_pair_cap_before_any_estimate_reports_an_infinite_one(monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_PAIRS", 21 * 2)

    def f(pairs):
        raise AssertionError("nothing may be evaluated over the cap")

    with pytest.raises(QuadratureError) as exc:
        quadrature.integrate(f, 0.0, 1.0, columns=3)
    assert exc.value.error_estimate == math.inf
    assert np.array_equal(exc.value.value, np.zeros(3, dtype=complex))


def test_nested_map_over_the_pair_cap_raises_a_typed_error(monkeypatch):
    # a nested map's inner depth holds every pair of an outer chunk times
    # its own; over the cap it ends in QuadratureError, never in MemoryError
    monkeypatch.setattr(quadrature, "MAX_PAIRS", 50_000)
    phi = lawio.builtin_law("gauss_cp_mix").exponent
    nested = phi.mapped(maps.jbeta_map(1.3)).mapped(maps.i_map())
    with pytest.raises(QuadratureError, match="MAX_PAIRS"):
        nested.eval_grid(np.linspace(-5.0, 5.0, 41)[:, None], 1e-12)


def test_integrand_takes_one_array_counted_by_size():
    # instrumentation wraps the integrand as integrand(xs) -> f(xs) and
    # counts np.size(xs) as the pairs evaluated
    calls = []

    def f(*args, **kwargs):
        assert len(args) == 1 and not kwargs
        (pairs,) = args
        calls.append((np.size(pairs), pairs.shape))
        assert pairs.dtype.names == ("x", "col")
        return np.exp(pairs["x"]) * (1.0 + pairs["col"])

    vals, _ = quadrature.integrate(f, 0.0, 1.0, tol=1e-12, splits=(0.5,), columns=3)
    assert calls and all(shape == (size,) and size % 21 == 0 for size, shape in calls)
    # one depth: two panels for each of three columns, 21 pairs per unit
    assert calls[0][0] == 2 * 3 * 21
    assert np.max(np.abs(vals - math.expm1(1.0) * np.arange(1.0, 4.0))) < 1e-12


def test_zero_columns_integrate_to_an_empty_array():
    def f(pairs):
        raise AssertionError("no pairs to evaluate")

    vals, err = quadrature.integrate(f, 0.0, 1.0, columns=0)
    assert vals.shape == (0,) and vals.dtype == complex and err == 0.0


class TestChunkedDepths:
    """A depth runs in chunks of at most CHUNK_PAIRS pairs, with the bytes
    of one call per depth."""

    # five units per chunk
    SMALL = 5 * 21

    @staticmethod
    def _nested_mix():
        phi = lawio.builtin_law("gauss_cp_mix").exponent
        return phi.mapped(maps.jbeta_map(1.0)).mapped(maps.i_map())

    def _same_in_small_chunks(self, monkeypatch, run):
        """``run`` returns (values, estimate), with the same bytes in small chunks."""

        def outcome():
            vals, err = run()
            return np.asarray(vals).tobytes(), np.float64(err).tobytes()

        whole = outcome()
        monkeypatch.setattr(quadrature, "CHUNK_PAIRS", self.SMALL)
        assert outcome() == whole

    def test_split_columns(self, monkeypatch):
        def f(pairs):
            return pairs["x"] ** -0.4 * (1.0 + pairs["col"])

        self._same_in_small_chunks(monkeypatch, lambda: quadrature.integrate(
            f, 0.0, 1.0, tol=1e-8, splits=(0.3,), columns=3))

    def test_jbeta_image_of_a_panel_law(self, monkeypatch):
        # panel law 3: its unbounded tail has power -1.6 (jittered)
        phi = from_triplet(panel_laws(9002, 4)[3])
        Y = np.linspace(-5.0, 5.0, 41)[:, None]
        self._same_in_small_chunks(monkeypatch, lambda: (
            maps.map_exponent_grid(maps.jbeta_map(1.0), phi, Y, 1e-9), 0.0))

    def test_nested_map(self, monkeypatch):
        nested = self._nested_mix()
        Y = np.linspace(-5.0, 5.0, 41)[:, None]
        self._same_in_small_chunks(monkeypatch, lambda: (nested.eval_grid(Y, 1e-8), 0.0))

    @pytest.mark.parametrize("cap", ["MAX_DEPTH", "MAX_PAIRS"])
    def test_errors_carry_the_same_values(self, monkeypatch, cap):
        monkeypatch.setattr(quadrature, cap, 4 if cap == "MAX_DEPTH" else 21 * 24)
        freqs = np.array([1.0, 1000.0, 3.0])

        def f(pairs):
            return np.cos(freqs[pairs["col"]] * pairs["x"])

        def run():
            with pytest.raises(QuadratureError, match="max depth|MAX_PAIRS") as exc:
                quadrature.integrate(f, 0.0, 1.0, tol=1e-14, columns=3)
            return exc.value.value, exc.value.error_estimate

        self._same_in_small_chunks(monkeypatch, run)

    def test_no_call_holds_more_than_a_chunk(self, monkeypatch):
        # every integrand call at every level of a nested map, whose depths
        # split into more calls than at the default size
        calls = []
        integrate = quadrature.integrate

        def recorded(f, *args, **kwargs):
            def g(pairs):
                calls.append(pairs.size)
                return f(pairs)

            return integrate(g, *args, **kwargs)

        monkeypatch.setattr(quadrature, "integrate", recorded)
        Y = np.linspace(-5.0, 5.0, 41)[:, None]
        self._nested_mix().eval_grid(Y, 1e-8)
        whole = len(calls)
        assert max(calls) > self.SMALL
        calls.clear()
        monkeypatch.setattr(quadrature, "CHUNK_PAIRS", self.SMALL)
        self._nested_mix().eval_grid(Y, 1e-8)
        assert max(calls) <= self.SMALL and len(calls) > whole

    def test_nested_map_memory_is_bounded(self):
        # one call per depth peaked at 172 MB here: the inner depth held
        # every pair of the outer one
        nested = self._nested_mix()
        Y = np.linspace(-5.0, 5.0, 801)[:, None]
        tracemalloc.start()
        try:
            nested.eval_grid(Y, 1e-10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6


def test_units_on_one_panel_share_its_kernel_and_scale(monkeypatch):
    # a jbeta map at beta 2 (kernel 2 u, and u itself the variable: no
    # scale) over 441 columns that refines no further than its one first panel
    cp = closed_form("compound_poisson", rate=2.0, jumps=[2.0, -1.25, 0.75])
    m, Y = maps.jbeta_map(2.0), np.linspace(0.01, 5.0, 441)[:, None]
    sizes = []
    kernel_integral = maps._kernel_integral

    def counted(phi, Y, tol, a, b, kern, scale, *args, **kwargs):
        def count(fn):
            def g(x):
                sizes.append(np.size(x))
                return fn(x)

            return None if fn is None else g

        return kernel_integral(phi, Y, tol, a, b, count(kern), count(scale), *args, **kwargs)

    monkeypatch.setattr(maps, "_kernel_integral", counted)
    maps.map_exponent_grid(m, cp, Y, 1e-9)
    # the kernel on the panel's 21 abscissas, not 9,261
    assert sizes == [21]
    monkeypatch.setattr(maps, "_kernel_integral", kernel_integral)
    singles = [maps.map_exponent_grid(m, cp, Y[j : j + 1], 1e-9).tobytes() for j in range(441)]
    for chunk in (quadrature.CHUNK_PAIRS, 21):
        monkeypatch.setattr(quadrature, "CHUNK_PAIRS", chunk)
        vals = maps.map_exponent_grid(m, cp, Y, 1e-9)
        assert [vals[j : j + 1].tobytes() for j in range(441)] == singles


class TestWeightAndScale:
    """integrate(f, weight=w, scale=s) integrates w(x) f(s(x)), evaluating
    w and s once per depth on the depth's panel abscissas."""

    FREQS = np.array([1.0, 40.0, 3.0])

    @staticmethod
    def weight(x):
        return 2.0 * x ** 0.5 * (1.0 - x)

    @staticmethod
    def scale(x):
        return (1.0 - x) ** 0.7

    @classmethod
    def f(cls, pairs):
        return np.exp(1j * cls.FREQS[pairs["col"]] * pairs["x"]) * (1.0 + pairs["col"])

    @staticmethod
    def composed(f, weight, scale):
        """The integrand w(x) f(s(x)) of pairs."""

        def g(pairs):
            substituted = pairs.copy()
            substituted["x"] = scale(pairs["x"])
            return weight(pairs["x"]) * f(substituted)

        return g

    @staticmethod
    def outcome(vals, err):
        return vals.tobytes(), np.float64(err).tobytes()

    @pytest.mark.parametrize("chunk", [quadrature.CHUNK_PAIRS, 21])
    def test_once_per_depth_on_its_panels(self, monkeypatch, chunk):
        monkeypatch.setattr(quadrature, "CHUNK_PAIRS", chunk)
        log = []

        def logged(name, fn):
            def g(x):
                log.append((name, x.copy()))
                return fn(x)

            return g

        quadrature.integrate(
            logged("f", self.f), 0.0, 1.0, tol=1e-10, splits=(0.3,), columns=3,
            weight=logged("weight", self.weight), scale=logged("scale", self.scale),
        )
        starts = [k for k, (name, _) in enumerate(log) if name != "f"][::2]
        assert len(starts) > 2
        calls = 0
        for i, j in zip(starts, starts[1:] + [len(log)]):
            (first, x), (second, x2), *depth = log[i:j]
            # the weight and the scale, each once, on the same abscissas
            assert {first, second} == {"weight", "scale"} and np.array_equal(x, x2)
            assert x.ndim == 2 and x.shape[1] == 21
            # one row per panel, and every panel in use
            mid, half = x[:, 10], 0.5 * (x[:, -1] - x[:, 0]) / quadrature._XGK[0]
            np.testing.assert_allclose(x, half[:, None] * quadrature._NODES + mid[:, None],
                                       rtol=0, atol=1e-15)
            assert np.unique(mid).size == mid.size
            assert depth and all(name == "f" for name, _ in depth)
            units = np.concatenate([pairs["x"].reshape(-1, 21) for _, pairs in depth])
            assert np.array_equal(np.unique(units, axis=0), np.unique(self.scale(x), axis=0))
            calls += len(depth)
        if chunk == 21:
            assert calls > len(starts)

    @pytest.mark.parametrize("chunk", [quadrature.CHUNK_PAIRS, 21])
    def test_bytes_of_the_composed_integrand(self, monkeypatch, chunk):
        monkeypatch.setattr(quadrature, "CHUNK_PAIRS", chunk)
        kw = dict(tol=1e-10, splits=(0.3,), columns=3)
        for scale in (self.scale, None):
            keyed = quadrature.integrate(self.f, 0.0, 1.0, weight=self.weight, scale=scale, **kw)
            g = self.composed(self.f, self.weight, scale or (lambda x: x))
            assert self.outcome(*keyed) == self.outcome(*quadrature.integrate(g, 0.0, 1.0, **kw))

    @pytest.mark.parametrize("rough", [False, True], ids=["halved", "rough-a"])
    def test_adjacent_panels_too_narrow_to_bisect(self, rough):
        # the panels on both sides of 1.0 share their midpoint; a steep
        # integrand is over its share on both, which are kept uncut. A panel
        # starting at a rough lower limit has its cut point round onto that
        # limit, and is kept too: it is never queued again
        a, b = np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)
        assert 0.5 * (a + 1.0) == 0.5 * (1.0 + b) == 1.0
        assert a + quadrature.ROUGH_CUT * (1.0 - a) == a
        calls = []

        def weight(x):
            calls.append(x.shape)
            return np.exp(x)

        def scale(x):
            return 1e16 * (x - 1.0)

        def f(pairs):
            return np.exp(pairs["x"] * (1.0 + pairs["col"]))

        kw = dict(tol=1e-300, splits=(1.0,), columns=2, rough=rough)
        keyed = quadrature.integrate(f, a, b, weight=weight, scale=scale, **kw)
        assert calls == [(2, 21)]
        plain = quadrature.integrate(self.composed(f, weight, scale), a, b, **kw)
        assert keyed[1] > kw["tol"] and self.outcome(*keyed) == self.outcome(*plain)
