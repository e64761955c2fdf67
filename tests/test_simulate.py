"""Monte Carlo samplers, empirical CFs, and simulation-vs-quadrature checks."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import idlaw.maps as maps
from idlaw import quadrature
import idlaw.simulate as sim
from idlaw.errors import LawSpecError


def drift_spec(b=1.0):
    return sim.SimSpec(1, [b], 0.0)


def gauss_spec(v=1.0):
    return sim.SimSpec(1, [0.0], v)


def mix_spec():
    return sim.SimSpec(1, [0.0], 1.0, rate=2.0, jumps=[[2.0], [-2.0]])


class TestSimSpec:
    def test_scalar_diffusion_becomes_matrix(self):
        spec = sim.SimSpec(2, [0.0, 0.0], 2.0)
        np.testing.assert_array_equal(spec.diffusion, 2.0 * np.eye(2))

    def test_default_probs_are_uniform(self):
        spec = mix_spec()
        np.testing.assert_array_equal(spec.probs, [0.5, 0.5])
        np.testing.assert_array_equal(spec.jump_cdf(), [0.5, 1.0])

    def test_no_jump_flags(self):
        spec = gauss_spec()
        assert spec.has_gaussian and not spec.has_jumps
        assert spec.jump_cdf() is None

    def test_validation_failures(self):
        with pytest.raises(LawSpecError):
            sim.SimSpec(0, [], 0.0)
        with pytest.raises(LawSpecError):
            sim.SimSpec(1, [0.0, 1.0], 0.0)
        with pytest.raises(LawSpecError):
            sim.SimSpec(2, [0.0, 0.0], [[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(LawSpecError):
            sim.SimSpec(1, [0.0], -1.0)
        with pytest.raises(LawSpecError):
            sim.SimSpec(1, [0.0], 0.0, rate=-2.0)
        with pytest.raises(LawSpecError):
            sim.SimSpec(1, [0.0], 0.0, rate=1.0)
        with pytest.raises(LawSpecError):
            sim.SimSpec(1, [0.0], 0.0, rate=1.0, jumps=[[1.0]], probs=[0.4])
        with pytest.raises(LawSpecError):
            sim.SimSpec(1, [0.0], 0.0, rate=1.0, jumps=[[1.0], [2.0]],
                        probs=[1.5, -0.5])

    def test_char_exponent_matches_parts(self, mix_phi):
        spec = mix_spec()
        Y = np.linspace(-3.0, 3.0, 9)[:, None]
        np.testing.assert_allclose(
            spec.char_exponent().eval_grid(Y), mix_phi.eval_grid(Y),
            rtol=0, atol=1e-14,
        )

    def test_trivial_spec_is_point_mass_at_zero(self):
        spec = sim.SimSpec(1, [0.0], 0.0)
        assert spec.char_exponent()(1.3) == 0.0


class TestSamplers:
    def test_same_seed_reproduces(self):
        a = sim.sample_jbeta_integral(mix_spec(), 1.0, 256, seed=5)
        b = sim.sample_jbeta_integral(mix_spec(), 1.0, 256, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = sim.sample_jbeta_integral(mix_spec(), 1.0, 64, seed=5)
        b = sim.sample_jbeta_integral(mix_spec(), 1.0, 64, seed=6)
        assert np.any(a != b)

    def test_workers_do_not_change_the_stream(self):
        one = sim.sample_jbeta_integral(mix_spec(), 2.0, 301, seed=8, workers=1)
        two = sim.sample_jbeta_integral(mix_spec(), 2.0, 301, seed=8, workers=2)
        np.testing.assert_array_equal(one, two)

    @pytest.mark.parametrize("sampler", [
        sim.sample_jbeta_integral, sim.sample_time_changed_integral,
    ])
    def test_samples_do_not_depend_on_n(self, sampler):
        short = sampler(mix_spec(), 1.0, 100, seed=4)
        long = sampler(mix_spec(), 1.0, 5000, seed=4)
        assert long[:100].tobytes() == short.tobytes()

    @pytest.mark.parametrize("sampler", [
        sim.sample_jbeta_integral, sim.sample_time_changed_integral,
    ])
    def test_workers_byte_identical_across_blocks(self, sampler):
        n = 2 * sim.BLOCK + 17
        runs = [sampler(mix_spec(), 1.0, n, seed=13, workers=w) for w in (1, 2, 3)]
        assert runs[0].shape == (n, 1)
        assert runs[1].tobytes() == runs[0].tobytes()
        assert runs[2].tobytes() == runs[0].tobytes()

    @pytest.mark.parametrize("sampler, mean_factor, var_factor", [
        (sim.sample_jbeta_integral, 1.5 / 2.5, 1.5 / 3.5),
        (sim.sample_clocked_integral, 1.5 / 2.5, 1.5 / 3.5),
        (sim.sample_time_changed_integral,
         sim.time_change_drift_factor(1.5, 30.0),
         sim.time_change_variance_factor(1.5, 30.0)),
    ], ids=["jbeta", "clocked", "timechange"])
    def test_jump_scatter_add_matches_closed_form_moments(
        self, sampler, mean_factor, var_factor
    ):
        # asymmetric atoms in two coordinates, so each coordinate of the
        # scatter-add has its own nonzero mean
        atoms = np.array([[3.0, 0.0], [-1.0, 2.0]])
        probs = np.array([0.3, 0.7])
        rate, n = 2.0, 20000
        spec = sim.SimSpec(2, [0.0, 0.0], 0.0, rate=rate, jumps=atoms, probs=probs)
        x = sampler(spec, 1.5, n, seed=17)
        mean_want = rate * mean_factor * (probs @ atoms)
        var_want = rate * var_factor * (probs @ atoms**2)
        se = np.sqrt(var_want / n)
        assert np.all(np.abs(x.mean(axis=0) - mean_want) < 5.0 * se)
        # the mean does not see which row a jump lands in; the variance does
        # (0.1 is about seven standard errors of the sample variance here)
        np.testing.assert_allclose(x.var(axis=0), var_want, rtol=0.1)

    def test_atom_draw_stays_in_range_when_probs_sum_below_one(self):
        # probabilities may sum to 1 - 1e-12; the largest uniform a stream
        # can return then lies above the last cdf entry
        spec = sim.SimSpec(1, [0.0], 0.0, rate=1.0, jumps=[[1.0], [2.0]],
                           probs=[0.5, 0.5 - 1e-13])
        x = np.zeros((sim.BLOCK, 1))
        sim._add_jumps(x, spec, np.array([3]), np.array([1.0]),
                       np.array([1.0 - 2.0**-53]))
        assert x[3, 0] == 2.0 and np.count_nonzero(x) == 1

    def test_time_change_atom_pick_matches_closed_form_moments(self):
        # one atom per coordinate with unequal probabilities: coordinate c
        # sees only the jumps whose accept uniform picked atom c
        atoms = np.diag([1.0, -2.0, 3.0])
        probs = np.array([0.1, 0.3, 0.6])
        rate, n, beta = 2.0, 20000, 1.5
        spec = sim.SimSpec(3, np.zeros(3), 0.0, rate=rate, jumps=atoms, probs=probs)
        x = sim.sample_time_changed_integral(spec, beta, n, seed=23)
        mean_want = rate * sim.time_change_drift_factor(beta, 30.0) * (probs @ atoms)
        var_want = rate * sim.time_change_variance_factor(beta, 30.0) * (probs @ atoms**2)
        se = np.sqrt(var_want / n)
        assert np.all(np.abs(x.mean(axis=0) - mean_want) < 5.0 * se)
        np.testing.assert_allclose(x.var(axis=0), var_want, rtol=0.1)

    class _ScriptedStream:
        """Stands in for a block's Generator: scripted counts and uniforms."""

        def __init__(self, counts, uniforms):
            self.counts = list(counts)
            self.uniforms = list(uniforms)

        def poisson(self, lam, size):
            return self.counts.pop(0)

        def random(self, size):
            out = self.uniforms.pop(0)
            assert out.shape == (size,)
            return out

    def _one_jump_block(self, spec, beta, u_time, v):
        # one envelope jump, on row 3 in the first segment; the other two
        # segments of s_max = 30 stay empty
        counts = np.zeros(sim.BLOCK, dtype=np.int64)
        counts[3] = 1
        empty = np.zeros(sim.BLOCK, dtype=np.int64)
        stream = self._ScriptedStream(
            [counts, empty, empty], [np.array([u_time, v]), np.zeros(0), np.zeros(0)]
        )
        return sim._timechange_block(stream, spec, beta, 30.0)

    def test_accept_uniform_just_below_the_clock_picks_an_atom_in_range(self):
        # v / clock(s) comes out at most 1 - 2**-53, above the last cdf entry
        # when the probabilities sum to 1 - 1e-13
        spec = sim.SimSpec(1, [0.0], 0.0, rate=1.0, jumps=[[1.0], [2.0]],
                           probs=[0.5, 0.5 - 1e-13])
        beta, u_time = 0.7, 0.3
        s = 10.0 * u_time
        clock = -np.expm1(-beta * s)
        v = np.nextafter(clock, 0.0)
        assert v / clock > 1.0 - 1e-13
        x = self._one_jump_block(spec, beta, u_time, v)
        assert x[3, 0] == math.exp(-s) * 2.0 and np.count_nonzero(x) == 1

    def test_time_uniform_at_zero_adds_nothing_and_does_not_warn(self):
        # s = 0 has clock rate 0, so no accept uniform passes and nothing is
        # divided by the zero clock
        spec = sim.SimSpec(1, [0.0], 0.0, rate=1.0, jumps=[[1.0], [2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for v in (0.0, 0.5):
                x = self._one_jump_block(spec, 1.0, 0.0, v)
                assert np.count_nonzero(x) == 0

    def test_drift_only_integral_is_exact(self):
        x = sim.sample_jbeta_integral(drift_spec(), 1.0, 8, seed=3)
        np.testing.assert_array_equal(x.ravel(), np.full(8, 0.5))

    def test_gaussian_moments(self):
        n = 50000
        x = sim.sample_jbeta_integral(gauss_spec(), 1.0, n, seed=11).ravel()
        var_want = 1.0 / 3.0
        se_mean = math.sqrt(var_want / n)
        se_var = var_want * math.sqrt(2.0 / (n - 1))
        assert abs(x.mean()) < 4.0 * se_mean
        assert abs(x.var() - var_want) < 4.0 * se_var

    def test_time_change_variance(self):
        n = 50000
        x = sim.sample_time_changed_integral(gauss_spec(), 1.0, n, seed=12).ravel()
        var_want = sim.time_change_variance_factor(1.0, 30.0)
        assert var_want == pytest.approx(1.0 / 6.0, rel=1e-12)
        se_var = var_want * math.sqrt(2.0 / (n - 1))
        assert abs(x.var() - var_want) < 4.0 * se_var

    def test_time_change_drift_is_exact(self):
        x = sim.sample_time_changed_integral(drift_spec(), 2.0, 4, seed=1)
        fac = sim.time_change_drift_factor(2.0, 30.0)
        np.testing.assert_array_equal(x.ravel(), np.full(4, fac))

    def test_too_small_horizon_is_refused(self):
        with pytest.raises(ValueError, match="horizon"):
            sim.sample_time_changed_integral(gauss_spec(), 1.0, 4, seed=1, s_max=2.0)

    @pytest.mark.parametrize("spec", [
        drift_spec(-0.7),
        gauss_spec(2.0),
        sim.SimSpec(1, [0.4], 0.5, rate=3.0, jumps=[[2.0], [-0.5]], probs=[0.25, 0.75]),
        sim.SimSpec(2, [0.3, -0.2], [[1.0, 0.6], [0.6, 0.5]], rate=1.5,
                    jumps=[[1.0, -2.0], [0.5, 0.5]]),
    ])
    @pytest.mark.parametrize("beta", [0.3, 1.0, 2.5])
    @pytest.mark.parametrize("s_max", [0.5, 3.0, 12.0])
    def test_truncation_tail_bound_holds(self, spec, beta, s_max):
        # the discarded integral over u in (0, exp(-s_max)], in s = -log u:
        # Phi(exp(-s) y)(1 - exp(-beta s)) over s > s_max, past s_max + 60
        # below 1e-26 of its size
        phi = spec.char_exponent()
        rng = np.random.default_rng(11)
        dirs = np.vstack([np.eye(spec.dim), rng.normal(size=(4, spec.dim))])
        Y = 5.0 * dirs / np.linalg.norm(dirs, axis=1)[:, None]
        Y = np.vstack([Y, 0.5 * Y])

        def f(pairs):
            ss = pairs["x"]
            vals = phi.eval_grid(np.exp(-ss)[:, None] * Y[pairs["col"]])
            return vals * -np.expm1(-beta * ss)

        mass, _ = quadrature.integrate(f, s_max, s_max + 60.0, tol=1e-13, columns=len(Y))
        bound = sim.truncation_tail_bound(spec, beta, s_max)
        assert np.max(np.abs(mass)) <= bound

    def test_longer_horizon_keeps_sample_prefix(self):
        a = sim.sample_time_changed_integral(mix_spec(), 1.0, 64, seed=5, s_max=30.0)
        b = sim.sample_time_changed_integral(mix_spec(), 1.0, 64, seed=5, s_max=45.0)
        assert np.max(np.abs(a - b)) < 1e-9

    def test_clocked_sampler_reproducible(self):
        a = sim.sample_clocked_integral(mix_spec(), 1.5, 128, seed=2)
        b = sim.sample_clocked_integral(mix_spec(), 1.5, 128, seed=2)
        np.testing.assert_array_equal(a, b)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            sim.sample_jbeta_integral(gauss_spec(), 0.0, 4, seed=1)
        with pytest.raises(ValueError):
            sim.sample_jbeta_integral(gauss_spec(), 1.0, 0, seed=1)


class TestEmpiricalCF:
    def test_value_at_zero_is_exactly_one(self):
        x = np.random.default_rng(0).normal(size=257)
        ecf = sim.empirical_cf(x, [0.0])
        assert ecf.estimate[0] == 1.0 + 0.0j

    def test_zero_samples_give_unit_cf(self):
        ecf = sim.empirical_cf(np.zeros(64), np.linspace(-2.0, 2.0, 7))
        np.testing.assert_array_equal(ecf.estimate, np.ones(7, complex))

    def test_standard_normal_cf(self):
        n = 60000
        x = np.random.default_rng(42).normal(size=n)
        ecf = sim.empirical_cf(x, [1.0])
        want = math.exp(-0.5)
        err = abs(ecf.estimate[0] - want)
        se = math.hypot(ecf.se_real[0], ecf.se_imag[0])
        assert err < 4.0 * se

    def test_se_matches_direct_formula(self):
        x = np.random.default_rng(3).normal(size=500)
        y = 0.8
        ecf = sim.empirical_cf(x, [y])
        re = np.cos(y * x)
        assert ecf.se_real[0] == pytest.approx(
            re.std(ddof=1) / math.sqrt(len(x)), rel=1e-12
        )

    def test_empty_input_raises(self):
        with pytest.raises(ValueError):
            sim.empirical_cf(np.zeros(0), [1.0])
        with pytest.raises(ValueError):
            sim.empirical_cf(np.zeros(5), np.zeros((0, 1)))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31))
    def test_modulus_never_exceeds_one(self, seed):
        x = np.random.default_rng(seed).standard_cauchy(size=512)
        ecf = sim.empirical_cf(x, np.linspace(-5.0, 5.0, 21), seed=seed)
        assert np.all(np.abs(ecf.estimate) <= 1.0)
        assert ecf.n == 512 and ecf.seed == seed

    def test_half_angle_terms_match_mpmath(self):
        # one sample at 1 with the angles as grid points: row k of the
        # estimate is the single term exp(i theta_k)
        mags = np.logspace(-8.0, 6.0, 141)
        near_pi = []
        for k in (1, 3, 1001):
            for toward in (0.0, np.inf):
                t = k * np.pi
                for _ in range(4):
                    near_pi.append(t)
                    t = np.nextafter(t, toward)
        near_pi = np.array(near_pi)
        assert np.max(np.abs(np.tan(near_pi / 2.0))) > 1e16
        theta = np.concatenate([mags, -mags, near_pi, -near_pi])
        ecf = sim.empirical_cf([1.0], theta)
        with mp.workprec(120):
            want = np.array([complex(mp.cos(mp.mpf(t)), mp.sin(mp.mpf(t)))
                             for t in theta])
        assert np.max(np.abs(ecf.estimate.real - want.real)) <= 4e-16
        assert np.max(np.abs(ecf.estimate.imag - want.imag)) <= 4e-16

    def test_zero_row_is_exactly_one_with_zero_se(self):
        x = np.random.default_rng(5).normal(size=(300, 2))
        ecf = sim.empirical_cf(x, [[0.0, 0.0], [1.0, -0.5]])
        assert ecf.estimate[0] == 1.0 + 0.0j
        assert ecf.se_real[0] == 0.0 and ecf.se_imag[0] == 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.integers(1, 2),
        n=st.integers(2, 64),
        m=st.integers(1, 6),
        data=st.data(),
    )
    def test_matches_cos_sin_two_pass_reference(self, dim, n, m, data):
        def block(rows, bound):
            vals = st.floats(-bound, bound)
            flat = data.draw(st.lists(vals, min_size=rows * dim, max_size=rows * dim))
            return np.array(flat).reshape(rows, dim)

        x, y = block(n, 50.0), block(m, 5.0)
        ecf = sim.empirical_cf(x, y)
        theta = y @ x.T
        cos, sin = np.cos(theta), np.sin(theta)
        np.testing.assert_allclose(
            ecf.estimate, cos.mean(axis=1) + 1j * sin.mean(axis=1), rtol=0, atol=1e-14
        )
        # a term error of up to 4e-16, and each mean's rounding (under
        # n * eps), move an SE by at most their sum over sqrt(n - 1), however
        # small the SE is
        floor = (4e-16 + 2 * n * np.finfo(float).eps) / math.sqrt(n - 1)
        for got, terms in ((ecf.se_real, cos), (ecf.se_imag, sin)):
            dev = terms - terms.mean(axis=1, keepdims=True)
            want = np.sqrt((dev * dev).sum(axis=1) / (n - 1)) / math.sqrt(n)
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=floor)


class TestMCVsQuadrature:
    def test_gaussian_jbeta_passes(self):
        rep = sim.mc_vs_quadrature(
            gauss_spec(), maps.jbeta_map(1.0), np.linspace(-2.0, 2.0, 9),
            n=30000, seed=21,
        )
        assert rep.passed
        assert rep.identity == "mc-jbeta"
        assert rep.n == 30000 and rep.seed == 21

    def test_mix_singular_map_passes(self):
        rep = sim.mc_vs_quadrature(
            mix_spec(), maps.i_jbeta_map(1.0), np.linspace(-2.0, 2.0, 7),
            n=30000, seed=22,
        )
        assert rep.passed
        assert rep.identity == "mc-ijbeta"

    def test_origin_scores_zero(self):
        rep = sim.mc_vs_quadrature(
            gauss_spec(), maps.jbeta_map(1.0), [0.0], n=64, seed=7
        )
        assert rep.worst_z == 0.0

    def test_unsupported_map_is_refused(self):
        with pytest.raises(ValueError, match="sampler"):
            sim.mc_vs_quadrature(gauss_spec(), maps.i_map(), [1.0], n=16, seed=2)

    def test_report_dict_shape(self):
        rep = sim.mc_vs_quadrature(
            gauss_spec(), maps.jbeta_map(2.0), [0.5, 1.0], n=512, seed=4
        )
        d = rep.to_dict()
        assert d["kind"] == "mc"
        assert d["identity"] == "mc-jbeta"
        assert len(d["rows"]) == 2
        assert set(d["rows"][0]) == {"input", "lhs", "rhs", "residual", "z"}


class TestTimeChangeEquivalence:
    def test_gaussian_routes_agree(self):
        rep = sim.time_change_equivalence(gauss_spec(), 2.0, n=30000, seed=31)
        assert rep.passed
        assert rep.identity == "eq2-timechange"

    def test_drift_only_is_basically_exact(self):
        rep = sim.time_change_equivalence(drift_spec(), 2.0, n=32, seed=9)
        assert rep.worst_z == 0.0

    def test_mixed_law_routes_agree(self):
        rep = sim.time_change_equivalence(mix_spec(), 1.0, n=30000, seed=33)
        assert rep.passed


class TestCSV:
    def test_roundtrip_and_determinism(self, tmp_path):
        x = sim.sample_jbeta_integral(mix_spec(), 1.0, 32, seed=5)
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        sim.samples_to_csv(x, str(p1))
        sim.samples_to_csv(x, str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        back = np.loadtxt(p1, delimiter=",", skiprows=1).reshape(x.shape)
        np.testing.assert_allclose(back, x, rtol=0, atol=1e-15)

    def test_two_dim_samples(self, tmp_path):
        spec = sim.SimSpec(2, [0.1, -0.2], np.eye(2))
        x = sim.sample_jbeta_integral(spec, 1.0, 16, seed=1)
        path = tmp_path / "c.csv"
        sim.samples_to_csv(x, str(path))
        header = path.read_text().splitlines()[0]
        assert header.count(",") == 1
        back = np.loadtxt(path, delimiter=",", skiprows=1)
        assert back.shape == (16, 2)
