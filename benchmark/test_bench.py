"""Self-tests of the benchmark harness.

Run from the root of the checkout:

    python3 -m pytest benchmark/test_bench.py -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._import_package()

import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from idlaw import exponent, factor, maps, quadrature, simulate, spectral, triplet  # noqa: E402

SMALL_GRID = np.linspace(-5.0, 5.0, 5)[:, None]


def small_checks(seed: int) -> dict:
    """Inexpensive checks per workload, built from the seed, in run order."""
    laws = workloads.identity_laws(seed)
    law = workloads.law_checks(workloads._rng(seed, "triplet-tail"), 0)
    by_kind = {c.kind: c for c in law}
    return {
        "identity-nested": [workloads._identity_check(laws, "cp", "prop2", 2.0, SMALL_GRID)],
        "mc-sample": [workloads._mc_check("mc-ijbeta", 1.0, seed, 500)],
        # the image's cross-check reads the exponent route of the map check
        "triplet-tail": [by_kind["leaf"], by_kind["jbeta-map"], by_kind["jbeta-triplet"]],
    }


def originals() -> dict:
    return {
        "integrate": quadrature.integrate,
        "eval_grid": exponent.CharExponent.__dict__["eval_grid"],
        "map_exponent_grid": maps.map_exponent_grid,
        "jbeta_triplet": maps.jbeta_triplet,
        "radial": spectral.RadialMeasure.__dict__["exponent_integral"],
        "gridtail": spectral.GridTail.__dict__["exponent_integral"],
        "require_valid": spectral.SpectralMeasure.__dict__["require_valid"],
        "exponent_grid": triplet.LevyTriplet.__dict__["exponent_grid"],
        "samplers": [getattr(simulate, n) for n in tracer_mod.SAMPLERS],
        "empirical_cf": simulate.empirical_cf,
        "checkers": [getattr(factor, n) for n in tracer_mod.FACTOR_CHECKERS],
    }


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_outputs_match_untraced_and_wrappers_are_removed(workload):
    before = originals()
    for check in small_checks(3)[workload]:
        plain = run.run_check(check)
        tr = tracer_mod.Tracer()
        traced = run.run_check(check, tr)
        assert plain.error is None and traced.error is None
        assert not plain.failed and not traced.failed, plain.reasons() + traced.reasons()
        assert plain.outcome.data == traced.outcome.data
        assert tr.spans, "the traced run recorded no spans"
        assert all(s[tracer_mod.T1] is not None for s in tr.spans)
        assert {s[tracer_mod.CHECK] for s in tr.spans} == {check.check_id}
        assert originals() == before


def test_spans_nest_and_self_times_add_up():
    check = small_checks(4)["identity-nested"][0]
    tr = tracer_mod.Tracer()
    run.run_check(check, tr)
    selfs = tr.self_times()
    assert min(selfs) > -1e-6
    roots = [k for k, s in enumerate(tr.spans) if s[tracer_mod.PARENT] < 0]
    total = sum(tr.spans[k][tracer_mod.T1] - tr.spans[k][tracer_mod.T0] for k in roots)
    assert sum(selfs) == pytest.approx(total, rel=1e-9, abs=1e-9)
    metrics = tr.layer_metrics(1)
    assert metrics["quadrature.calls.L1"] > 0
    assert metrics["exponent.leaf_points.closed_form"] > 0
    assert metrics["factor.check_s.prop2"] > 0


def test_same_seed_gives_same_inputs_and_outputs():
    for workload in workloads.WORKLOADS:
        a = workloads.describe_inputs(workload, 5)
        b = workloads.describe_inputs(workload, 5)
        assert json.dumps(a) == json.dumps(b)
        assert json.dumps(a) != json.dumps(workloads.describe_inputs(workload, 6))
    first, second = small_checks(5), small_checks(5)
    for name in first:
        for a, b in zip(first[name], second[name]):
            assert a.run().data == b.run().data


def test_identity_blocks_cover_every_combination_once():
    seen = []
    blocks = workloads.blocks("identity-nested", 0)
    for _ in range(8):
        block = next(blocks)
        assert sorted(c.kind for c in block) == sorted(workloads.IDENTITIES)
        assert sum("/cp/" in c.check_id for c in block) == 2
        seen += [c.check_id for c in block]
    assert len(set(seen)) == 32


def test_leaf_oracle_matches_frozen_tail_value():
    # the same high-precision value the package's spectral tests pin
    levy = spectral.SpectralMeasure(1, (spectral.ray(1.0, segments=[(1.0, math.inf, 0.2, -2.5)]),))
    trip = triplet.LevyTriplet(1, [0.0], [[0.0]], levy)
    got = workloads.leaf_oracle(trip, np.array([0.7]))[0]
    truth = -0.098531378210745869589 + 0.091804516769435187804j
    assert abs(got - truth) < 1e-12


def test_tail_percentile_keeps_ten_checks_beyond():
    xs = list(range(100))
    value, pct, n = run.tail_percentile(xs)
    assert (value, n) == (89, 100)
    assert sum(x > value for x in xs) == 10
    assert run.tail_percentile([3.0, 1.0, 2.0])[:2] == (1.0, 0.0)


def test_benchmark_json_matches_the_metric_catalogue():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_refuses_to_run_without_package_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "mc-sample", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
