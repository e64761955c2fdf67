"""Monte Carlo samplers, empirical CFs, and simulation-vs-quadrature checks."""

import dataclasses
import math
import os
import subprocess
import sys
import textwrap
import threading
import tracemalloc
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import idlaw.maps as maps
from idlaw import quadrature
import idlaw.simulate as sim
from idlaw.errors import LawSpecError
from idlaw.exponent import from_triplet
from idlaw.factor import default_grid


def drift_spec(b=1.0):
    return sim.SimSpec(1, [b], 0.0)


def gauss_spec(v=1.0):
    return sim.SimSpec(1, [0.0], v)


def mix_spec():
    return sim.SimSpec(1, [0.0], 1.0, rate=2.0, jumps=[[2.0], [-2.0]])


def dim2_spec(rate):
    return sim.SimSpec(2, [0.3, -0.2], [[1.0, 0.6], [0.6, 0.5]], rate=rate,
                       jumps=[[1.0, -2.0], [0.5, 0.5], [-1.5, 0.25]], probs=[0.2, 0.5, 0.3])


def power_block(g, spec, beta, rows=sim.BLOCK):
    return sim._block(g, sim._power_law(spec, beta), rows)


def time_change_block(g, spec, beta, s_max, rows=sim.BLOCK):
    return sim._block(g, sim._time_change_law(spec, beta, s_max), rows)


def philox(key):
    return np.random.Generator(np.random.Philox(key=[key, 7]))


def base_block(g, spec, drift_factor, var_factor):
    """Drift plus Gaussian part of one block, as every block draws it first."""
    x = np.tile(drift_factor * spec.drift, (sim.BLOCK, 1))
    if spec.has_gaussian:
        x += g.standard_normal((sim.BLOCK, spec.dim)) @ sim._cov_factor(var_factor * spec.diffusion)
    return x


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
            from_triplet(spec.triplet).eval_grid(Y), mix_phi.eval_grid(Y),
            rtol=0, atol=1e-14,
        )

    def test_trivial_spec_is_point_mass_at_zero(self):
        spec = sim.SimSpec(1, [0.0], 0.0)
        assert from_triplet(spec.triplet)(1.3) == 0.0


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

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(1, 2000), seed=st.integers(0, 2**32 - 1))
    def test_atom_pick_matches_searchsorted(self, k, seed):
        # some atoms have probability 0, so the cdf has ties; the keys are 0,
        # the largest uniform below 1, every cdf entry and its neighbours,
        # and more than one chunk of random keys
        rng = np.random.default_rng(seed)
        probs = rng.uniform(0.0, 1.0, k) * (rng.random(k) > 0.2)
        probs[rng.integers(k)] = 1.0
        probs *= (1.0 - 1e-13) / probs.sum()
        spec = sim.SimSpec(1, [0.0], 0.0, rate=1.0, jumps=np.arange(k)[:, None],
                           probs=probs)
        cdf = spec.jump_cdf()
        u = np.concatenate([
            [0.0, 1.0 - 2.0**-53], cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0),
            rng.random(sim.PICK_CHUNK + 17),
        ])
        u = u[u < 1.0]
        want = np.searchsorted(cdf[:-1], u)
        np.testing.assert_array_equal(sim._pick_atoms(spec._pick_table, u), want)

    @pytest.mark.parametrize("offset", range(12))
    def test_skip_matches_draw_and_discard(self, offset):
        def stream():
            return np.random.Generator(np.random.Philox(key=np.array([7, 3], dtype=np.uint64)))

        for m in [0, *range(1, 10), 1001, 1002, 1003, 1004]:
            drawn, skipped = stream(), stream()
            drawn.random(offset)
            skipped.random(offset)
            drawn.random(m)
            sim._skip(skipped.bit_generator, m)
            assert skipped.random(9).tobytes() == drawn.random(9).tobytes()
            assert skipped.poisson(3.0, 9).tobytes() == drawn.poisson(3.0, 9).tobytes()

    @pytest.mark.parametrize("spec", [
        sim.SimSpec(1, [0.2], 0.7, rate=2.0, jumps=[[1.5]]),
        sim.SimSpec(1, [0.0], 1.0, rate=2.0, jumps=[[2.0], [-2.0]]),
        sim.SimSpec(2, [0.3, -0.2], [[1.0, 0.6], [0.6, 0.5]], rate=1.5,
                    jumps=[[1.0, -2.0], [0.5, 0.5], [-1.5, 0.25]], probs=[0.2, 0.5, 0.3]),
    ], ids=["dim1-K1", "dim1-K2", "dim2-K3"])
    @pytest.mark.parametrize("j, m", [(0, 1), (1, 17), (1, sim.BLOCK - 1)])
    def test_partial_block_is_a_prefix_of_the_whole_block(self, spec, j, m):
        # the last block draws only its kept rows' per-jump uniforms and
        # skips the rest; its rows must still be those of a whole block
        n = j * sim.BLOCK + m
        for sampler in (sim.sample_jbeta_integral, sim.sample_clocked_integral,
                        sim.sample_time_changed_integral):
            whole = sampler(spec, 0.7, (j + 1) * sim.BLOCK, seed=19)
            assert sampler(spec, 0.7, n, seed=19).tobytes() == whole[:n].tobytes()
        # the power kernel from almost no jumps to several chunks a block
        for rate in (2e-5, 0.1, 2.0, 50.0):
            law = dataclasses.replace(spec, rate=rate)
            for sampler in (sim.sample_jbeta_integral, sim.sample_clocked_integral):
                whole = sampler(law, 0.7, (j + 1) * sim.BLOCK, seed=19)
                assert sampler(law, 0.7, n, seed=19).tobytes() == whole[:n].tobytes()

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

    @staticmethod
    def _fresh_array_block(g, spec, beta, s_max, rows):
        """The time-change block with a fresh array for every draw and product."""
        x = base_block(g, spec, sim.time_change_drift_factor(beta, s_max),
                       sim.time_change_variance_factor(beta, s_max))
        for j in range(int(math.ceil(s_max / sim._SEG_LEN))):
            lo = j * sim._SEG_LEN
            length = min(lo + sim._SEG_LEN, s_max) - lo
            counts = g.poisson(spec.rate * length, sim.BLOCK)
            kept = counts[:rows]
            k, km = int(counts.sum()), int(kept.sum())
            u = g.random(k + km)
            if km < k:
                sim._skip(g.bit_generator, k - km)
            neg_s, v = -(lo + length * u[:km]), u[k:]
            clock = -np.expm1(beta * neg_s)
            keep = v < clock
            v = np.divide(v, clock, out=v.copy(), where=keep)
            idx = np.searchsorted(spec.jump_cdf()[:-1], v)
            for c, atoms in enumerate(spec.jumps.T):
                x[:, c] += np.bincount(np.repeat(np.arange(rows), kept),
                                       weights=atoms[idx] * (np.exp(neg_s) * keep),
                                       minlength=sim.BLOCK)
        return x[:rows]

    @staticmethod
    def _whole_array_jbeta_block(g, spec, beta, rows):
        """The power-kernel block with each draw and product one array."""
        x = base_block(g, spec, beta / (beta + 1.0), beta / (beta + 2.0))
        if spec.has_jumps:
            counts = g.poisson(spec.rate, sim.BLOCK)
            kept = counts[:rows]
            k, km = int(counts.sum()), int(kept.sum())
            # the stream holds the k jump times, then the atom uniforms: the
            # kept jumps draw theirs, and the other k - km times are skipped
            times = g.random(km)
            if km < k:
                sim._skip(g.bit_generator, k - km)
            sim._add_jumps(x, spec, np.repeat(np.arange(rows), kept), times ** (1.0 / beta),
                           g.random(km))
        return x[:rows]

    @pytest.mark.parametrize("spec", [
        mix_spec(),
        # about 16 envelope jumps per segment, so a later segment often draws
        # more than the scratch arrays the first one sized; and about 0.8,
        # so the first segment often draws none
        sim.SimSpec(1, [0.0], 0.0, rate=4e-4, jumps=[[1.0], [-0.5]], probs=[0.3, 0.7]),
        sim.SimSpec(1, [0.0], 0.0, rate=2e-5, jumps=[[1.0], [-0.5]], probs=[0.3, 0.7]),
        dim2_spec(1.5),
    ], ids=["mix", "sparse", "rare", "dim2-K3"])
    @pytest.mark.parametrize("rows, s_max", [(sim.BLOCK, 30.0), (17, 45.0)])
    def test_time_change_block_matches_fresh_arrays(self, spec, rows, s_max):
        for key in range(4):
            block = []
            for body in (time_change_block, self._fresh_array_block):
                block.append(body(philox(key), spec, 0.7, s_max, rows))
            assert block[0].tobytes() == block[1].tobytes()

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("rows", [sim.BLOCK, 17, 1])
    @pytest.mark.parametrize("rate", [2e-5, 0.1, 2.0, 50.0])
    def test_power_block_matches_whole_arrays(self, rate, rows, dim):
        # from blocks with no jumps to one chunk per segment (read from the
        # block's stream) and, at rate 50, about 12 (read by a second cursor)
        spec = dim2_spec(rate) if dim == 2 else sim.SimSpec(
            1, [0.2], 0.7, rate=rate, jumps=[[1.5], [-0.5]], probs=[0.3, 0.7])
        for beta in (0.7, 1.0, 2.0):
            for key in range(2):
                want = self._whole_array_jbeta_block(philox(key), spec, beta, rows)
                got = power_block(philox(key), spec, beta, rows)
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("chunk", [1, 5, 64, 1000])
    @pytest.mark.parametrize("rows", [sim.BLOCK, 17])
    def test_row_chunk_size_does_not_change_a_byte(self, chunk, rows, monkeypatch):
        # about 200 envelope jumps per segment and at most a few per row, so
        # a chunk of 1 or 5 jumps often holds one row with more; the power
        # kernel at rate 2 has about 8,000 jumps, 2 a row
        for key in range(2):
            want = self._fresh_array_block(philox(key), dim2_spec(5e-3), 0.7, 30.0, rows)
            want_power = self._whole_array_jbeta_block(philox(key), dim2_spec(2.0), 0.7, rows)
            monkeypatch.setattr(sim, "PICK_CHUNK", chunk)
            got = time_change_block(philox(key), dim2_spec(5e-3), 0.7, 30.0, rows)
            got_power = power_block(philox(key), dim2_spec(2.0), 0.7, rows)
            monkeypatch.undo()
            assert got.tobytes() == want.tobytes()
            assert got_power.tobytes() == want_power.tobytes()

    @pytest.mark.parametrize("gaussian", [0.0, 1.0], ids=["cp", "mix"])
    @pytest.mark.parametrize("beta", [0.7, 1.0, 2.0])
    def test_threads_do_not_change_a_byte(self, gaussian, beta, monkeypatch):
        # four threads, whatever this host has, against one; both laws run
        # their blocks on threads (the power kernel's expect 81,920 jumps)
        spec = sim.SimSpec(1, [0.0], gaussian, rate=2.0, jumps=[[2.0], [-2.0]])
        power = sim.SimSpec(1, [0.0], gaussian, rate=20.0, jumps=[[2.0], [-2.0]])
        for n in (1, sim.BLOCK - 1, sim.BLOCK, sim.BLOCK + 1, 10000, 3 * sim.BLOCK + 1):
            for sampler, law in ((sim.sample_time_changed_integral, spec),
                                 (sim.sample_jbeta_integral, power)):
                got = []
                for cpus in (4, 1):
                    monkeypatch.setattr(sim, "_cpus", lambda cpus=cpus: cpus)
                    got.append(sampler(law, beta, n, seed=29))
                assert got[0].shape == (n, 1)
                assert got[0].tobytes() == got[1].tobytes()

    def test_blocks_run_on_threads_that_end_with_the_call(self, monkeypatch):
        # the first two blocks meet at a barrier, so they must run at once
        meet = threading.Barrier(2, timeout=60)
        idents = []
        block = sim._block

        def met(g, *args):
            idents.append(threading.get_ident())
            if len(idents) <= 2:
                meet.wait()
            return block(g, *args)

        monkeypatch.setattr(sim, "_cpus", lambda: 2)
        before = threading.active_count()
        law = sim._time_change_law(mix_spec(), 1.0, 30.0)
        serial = sim._sample_blocks(law, 3, sim.TAG_TIMECHANGE, 0, 10000)
        monkeypatch.setattr(sim, "_block", met)
        got = sim.sample_time_changed_integral(mix_spec(), 1.0, 10000, seed=3)
        assert len(idents) == 3 and len(set(idents)) == 2
        assert threading.active_count() == before
        assert got.tobytes() == serial.tobytes()

    def _block_threads(self, monkeypatch, sampler, *args, **kwargs):
        """The threads that draw the blocks of one call on two CPUs."""
        idents = set()
        block = sim._block

        def draw(g, *args):
            idents.add(threading.get_ident())
            return block(g, *args)

        monkeypatch.setattr(sim, "_block", draw)
        monkeypatch.setattr(sim, "_cpus", lambda: 2)
        sampler(*args, **kwargs)
        monkeypatch.undo()
        return idents

    @pytest.mark.parametrize("rate, s_max, threaded", [
        (0.0, 30.0, False), (0.3, 30.0, False), (0.35, 30.0, True), (0.2, 45.0, False),
        (0.2, 50.0, True), (2.0, None, False), (9.5, None, False), (10.0, None, True),
    ])
    def test_only_blocks_with_many_envelope_jumps_run_on_threads(self, rate, s_max, threaded,
                                                                  monkeypatch):
        # below _THREAD_JUMPS expected envelope jumps per block (rate x
        # horizon x BLOCK) a second thread costs more than it saves; s_max
        # None is the power kernel, whose horizon is 1
        spec = sim.SimSpec(1, [0.0], 1.0, rate=rate, jumps=[[2.0], [-2.0]])
        if s_max is None:
            samplers = [(sim.sample_jbeta_integral, {}), (sim.sample_clocked_integral, {})]
        else:
            samplers = [(sim.sample_time_changed_integral, {"s_max": s_max})]
        for sampler, kwargs in samplers:
            idents = self._block_threads(monkeypatch, sampler, spec, 1.0, 3 * sim.BLOCK,
                                         seed=1, **kwargs)
            assert (idents != {threading.get_ident()}) == threaded

    def test_only_blocks_of_half_a_block_or_more_get_a_thread(self, monkeypatch):
        # a call of one whole block and one row draws both on the caller's
        # thread; two whole blocks meet at a barrier, so they run at once
        caller = {threading.get_ident()}
        n = sim.BLOCK + 1
        assert self._block_threads(monkeypatch, sim.sample_time_changed_integral, mix_spec(),
                                   1.0, n, seed=2) == caller
        meet = threading.Barrier(2, timeout=60)
        block = sim._block

        def met(g, *args):
            meet.wait()
            return block(g, *args)

        monkeypatch.setattr(sim, "_block", met)
        idents = self._block_threads(monkeypatch, sim.sample_time_changed_integral, mix_spec(),
                                     1.0, 2 * sim.BLOCK, seed=2)
        assert len(idents) == 2 and not idents & caller

    def test_time_change_memory_is_bounded_for_large_rates(self):
        # about 2 million envelope jumps per segment, 16 MB for each array
        # of them; the chunks' scratch stays under 1 MB
        spec = sim.SimSpec(1, [0], [[1]], rate=50, jumps=[[0.05], [-0.05]])
        tracemalloc.start()
        try:
            sim.sample_time_changed_integral(spec, 1.0, sim.BLOCK, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    @pytest.mark.parametrize("sampler", [sim.sample_jbeta_integral, sim.sample_clocked_integral])
    def test_power_kernel_memory_is_bounded_for_large_rates(self, sampler):
        # about 800,000 jumps per block, 6.5 MB for each array of them (the
        # whole-array block peaked at 39.5 MB); the chunks' scratch stays
        # under 1 MB
        spec = sim.SimSpec(1, [0], [[1]], rate=200, jumps=[[0.05], [-0.05]])
        tracemalloc.start()
        try:
            sampler(spec, 1.0, sim.BLOCK, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_process_workers_after_a_threaded_call(self):
        # worker processes fork from a process whose block threads have all
        # ended, so they neither hang nor change a byte
        script = textwrap.dedent("""
            import threading
            import idlaw.simulate as sim
            sim._cpus = lambda: 2
            spec = sim.SimSpec(1, [0.0], 1.0, rate=2.0, jumps=[[2.0], [-2.0]])
            n = 2 * sim.BLOCK + 17
            one = sim.sample_time_changed_integral(spec, 1.0, n, seed=13)
            assert threading.active_count() == 1
            two = sim.sample_time_changed_integral(spec, 1.0, n, seed=13, workers=2)
            assert one.tobytes() == two.tobytes()
            print("same")
        """)
        src = str(Path(sim.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "same"

    class _ScriptedStream:
        """Stands in for a block's Generator: scripted counts and uniforms.

        Skips move nothing, since the script is the stream.
        """

        def __init__(self, counts, uniforms):
            self.counts = list(counts)
            self.uniforms = list(uniforms)
            self.bit_generator = self
            self.state = {"buffer_pos": 4}

        def random_raw(self, m):
            pass

        def advance(self, m):
            pass

        def poisson(self, lam, size):
            return self.counts.pop(0)

        def random(self, out):
            uniforms = self.uniforms.pop(0)
            assert out.shape == uniforms.shape
            out[...] = uniforms
            return out

    def _one_jump_block(self, spec, beta, u_time, v):
        # one envelope jump, on row 3 in the first segment, whose one chunk
        # reads the time and then the accept uniform; the other two segments
        # of s_max = 30 stay empty
        counts = np.zeros(sim.BLOCK, dtype=np.int64)
        counts[3] = 1
        empty = np.zeros(sim.BLOCK, dtype=np.int64)
        stream = self._ScriptedStream(
            [counts, empty, empty], [np.array([u_time]), np.array([v]), *[np.zeros(0)] * 4]
        )
        return time_change_block(stream, spec, beta, 30.0)

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
        phi = from_triplet(spec.triplet)
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
        for sampler in (sim.sample_jbeta_integral, sim.sample_clocked_integral,
                        sim.sample_time_changed_integral):
            # beta = -1 is refused before the law's factors divide by beta + 1
            for beta in (0.0, -1.0):
                with pytest.raises(ValueError, match="beta must be positive"):
                    sampler(gauss_spec(), beta, 4, seed=1)
            with pytest.raises(ValueError, match="n >= 1"):
                sampler(gauss_spec(), 1.0, 0, seed=1)
            with pytest.raises(ValueError, match="workers"):
                sampler(gauss_spec(), 1.0, 4, seed=1, workers=0)


@st.composite
def samples_and_grid(draw):
    """Samples of shape (n, dim) in [-50, 50] and a grid of shape (m, dim) in [-5, 5]."""
    dim, n, m = draw(st.integers(1, 2)), draw(st.integers(2, 64)), draw(st.integers(1, 6))

    def block(rows, bound):
        vals = st.floats(-bound, bound)
        flat = draw(st.lists(vals, min_size=rows * dim, max_size=rows * dim))
        return np.array(flat).reshape(rows, dim)

    return block(n, 50.0), block(m, 5.0)


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
        ecf = sim.empirical_cf(x, np.linspace(-5.0, 5.0, 21))
        assert np.all(np.abs(ecf.estimate) <= 1.0)
        assert ecf.n == 512

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
    @given(case=samples_and_grid())
    # y @ x.T rounds the last angle one ulp away from the ordered sum, and
    # the cosine mean moves by 1.4e-14
    @example(case=(
        np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [28.0, -27.114984289416583]]),
        np.array([[0.0, 0.0], [5.0, -4.375]]),
    ))
    def test_matches_cos_sin_two_pass_reference(self, case):
        x, y = case
        n, dim = x.shape
        ecf = sim.empirical_cf(x, y)
        # the angles as empirical_cf builds them, summed over coordinates in order
        theta = sum(y[:, c : c + 1] * x[:, c] for c in range(dim))
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

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_row_block_budget_does_not_change_a_byte(self, dim, monkeypatch):
        rng = np.random.default_rng(dim)
        x = 3.0 * rng.normal(size=(1000, dim))
        Y = default_grid(dim, n_points=21)
        got = []
        # one row per block, two rows, and the whole grid in one block
        for budget in (1, 2 * len(x), len(Y) * len(x)):
            monkeypatch.setattr(sim, "ECF_CHUNK_ELEMENTS", budget)
            ecf = sim.empirical_cf(x, Y)
            got.append((ecf.estimate.tobytes(), ecf.se_real.tobytes(), ecf.se_imag.tobytes()))
        assert got[1] == got[0] and got[2] == got[0]

    def test_memory_stays_bounded_at_large_n(self):
        x = np.random.default_rng(8).normal(size=200_000)
        Y = np.linspace(-5.0, 5.0, 41)
        tracemalloc.start()
        try:
            sim.empirical_cf(x, Y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the (41 x 200,000) half-angle array alone is 62.6 MiB
        assert peak < 16 * 2**20


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
