"""idlaw benchmark: closed-loop identity, Monte Carlo and triplet checks.

Run from the root of a source checkout:

    python3 benchmark/run.py --workload identity-nested --seed 1 --seconds 26 --trace 0

One caller runs the workload's checks one after another (a closed loop)
for ``--seconds`` seconds of check time, verifies every answer, and prints
one metric per line followed by a JSON summary as the last line. With
``--trace 0`` the summary holds the end-to-end metrics; with ``--trace 1``
the run repeats its checks under the span tracer and the summary holds
the per-layer metrics. Details land in ``.bench_out/`` in the checkout.

Check times are adjusted for the speed of the host: a fixed reference
kernel, which shares no code with idlaw, is timed right before and right
after every check, and the check's time is divided by how much slower the
kernel ran than ``REF_NOMINAL_S``. The raw times are printed as notes.
Set-up time is not adjusted (see ``measure_setup``).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5
# Median time of one pass of ``_reference_kernel`` on the 2-core Xeon where
# the benchmark was defined (Python 3.11, numpy 2.4), when the host was quiet
REF_NOMINAL_S = 3.0e-3

# name -> (unit, better); the order is the order of printing
END_TO_END = {
    "setup_s": ("s", "lower"),
    "checks_per_s": ("1/s", "higher"),
    "check_s_p50": ("s", "lower"),
    "check_s_tail": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}


def _per_layer() -> dict[str, tuple[str, str]]:
    m: dict[str, tuple[str, str]] = {}
    for lvl in (0, 1, 2):
        m[f"quadrature.calls.L{lvl}"] = ("count", "lower")
        m[f"quadrature.abscissas.L{lvl}"] = ("count", "lower")
        m[f"quadrature.err_over_tol_max.L{lvl}"] = ("ratio", "lower")
    m["quadrature.errors"] = ("count", "lower")
    for kind in ("closed_form", "triplet"):
        m[f"exponent.leaf_points.{kind}"] = ("count", "lower")
        m[f"exponent.leaf_s.{kind}"] = ("s", "lower")
        m[f"exponent.leaf_points_per_s.{kind}"] = ("1/s", "higher")
    for kind in ("jbeta", "i", "ubetaf", "ijbeta"):
        m[f"maps.map_s.{kind}"] = ("s", "lower")
    m["maps.jbeta_triplet_s"] = ("s", "lower")
    m["maps.jbeta_triplet_nodes"] = ("count", "lower")
    m["maps.dual_route_residual"] = ("abs", "lower")
    m["spectral.radial_exponent_s"] = ("s", "lower")
    m["spectral.radial_exponent_points"] = ("count", "lower")
    m["spectral.gridtail_bytes_computed"] = ("B", "lower")
    m["spectral.require_valid_calls"] = ("count", "lower")
    m["spectral.require_valid_s"] = ("s", "lower")
    m["triplet.exponent_grid_s"] = ("s", "lower")
    m["triplet.exponent_grid_points"] = ("count", "lower")
    for kind in ("jbeta", "timechange", "clocked"):
        m[f"simulate.us_per_sample.{kind}"] = ("us", "lower")
    m["simulate.samples_per_s"] = ("1/s", "higher")
    m["simulate.empirical_cf_s"] = ("s", "lower")
    m["simulate.pool_speedup_w2"] = ("ratio", "higher")
    m["simulate.worst_z"] = ("abs", "lower")
    for ident in ("eq3", "eq15", "cor1a", "prop2", "cor5"):
        m[f"factor.check_s.{ident}"] = ("s", "lower")
        m[f"factor.residual_max.{ident}"] = ("abs", "lower")
    for layer in ("quadrature", "exponent", "maps", "spectral", "triplet", "simulate", "factor"):
        m[f"{layer}.self_s"] = ("s", "lower")
    m["trace.overhead_s"] = ("s", "lower")
    m["trace.overhead_frac"] = ("ratio", "lower")
    m["failed_frac"] = ("ratio", "lower")
    return m


PER_LAYER = _per_layer()


def _import_package():
    """Make the checkout's own ``src/idlaw`` importable, or fail."""
    if not (SRC / "idlaw" / "__init__.py").is_file():
        sys.exit(f"benchmark: no idlaw sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import idlaw

    if Path(idlaw.__file__).resolve().parent != (SRC / "idlaw").resolve():
        sys.exit(f"benchmark: imported idlaw from {idlaw.__file__}, not from {SRC}")
    return idlaw


# -- host speed ----------------------------------------------------------------


def _reference_kernel(x) -> None:
    """A few ms of scalar Python and small numpy arrays; never changes."""
    s = 0.0
    for i in range(4000):
        s += math.sin(i * 1e-3) * math.exp(-i * 1e-4)
    for _ in range(40):
        x = np.cos(x * 1.0001) + np.sqrt(x * x + 1.0)


def host_slowdown() -> float:
    """How many times slower than ``REF_NOMINAL_S`` the host runs right now.

    The 2-core VM this benchmark was defined on shares its cores with other
    tenants: over minutes its speed drifted by up to 1.8x, and every idlaw
    check moved with it. The kernel shares no code with idlaw, so a change
    to the package moves this factor only through the state it leaves the
    host in (the kernel read up to 2x faster after half a second idle than
    right after a check).
    """
    x = np.linspace(0.0, 1.0, 4096)
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        _reference_kernel(x)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / REF_NOMINAL_S


# -- closed loop ---------------------------------------------------------------


class Record:
    """One completed check: timing, outcome and verdicts."""

    def __init__(self, check, seconds, outcome, error, cross, before, after):
        self.check = check
        self.seconds = seconds
        self.outcome = outcome
        self.error = error
        self.cross = cross
        # host slowdown measured right before and right after the check
        self.before = before
        self.after = after

    @property
    def slowdown(self) -> float:
        return 0.5 * (self.before + self.after)

    @property
    def adjusted_seconds(self) -> float:
        return self.seconds / self.slowdown

    @property
    def gate_failed(self) -> bool:
        """A miss the package promises not to make."""
        return (
            self.error is not None
            or not self.outcome.passed
            or any(c.gate and not c.ok for c in self.cross)
        )

    @property
    def failed(self) -> bool:
        return self.gate_failed or any(not c.ok for c in self.cross)

    def reasons(self) -> list[str]:
        out = []
        if self.error is not None:
            out.append(f"{type(self.error).__name__}: {self.error}")
        elif not self.outcome.passed:
            out.append("own gate failed")
        out += [f"{c.name}={c.value:.3e} > {c.limit:.0e}" for c in self.cross if not c.ok]
        return out


def package_errors() -> tuple[type, ...]:
    """Every exception type that ``idlaw.errors`` defines."""
    from idlaw import errors

    return tuple(
        v for v in vars(errors).values() if isinstance(v, type) and issubclass(v, Exception)
    )


def run_check(check, tracer=None, before=None) -> Record:
    """Run one check, timed; package errors become a failed record.

    ``before`` is the host slowdown measured after the previous check, if
    nothing but untimed verification ran since.
    """
    if before is None:
        before = host_slowdown()
    if tracer is not None:
        tracer.check_id = check.check_id
        tracer.install()
    t0 = time.perf_counter()
    try:
        outcome, error = check.run(), None
    except package_errors() as exc:
        outcome, error = None, exc
    finally:
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.restore()
            tracer.check_id = None
    after = host_slowdown()
    cross = check.verify(outcome) if error is None else []
    return Record(check, dt, outcome, error, cross, before, after)


def run_pass(blocks, count: int, tracer=None, after_block=None):
    """Run ``count`` blocks of checks back to back.

    Cross-checks run between checks and ``after_block`` between blocks;
    neither is timed. With a tracer,
    every check runs twice in a row, once untraced and once traced, so the
    pair shares its inputs and machine state; which runs first alternates,
    so the warmer second run favours neither side. Returns (untraced
    records, traced records).
    """
    plain, traced = [], []
    last = None

    def run(check, into, tracer=None):
        nonlocal last
        into.append(run_check(check, tracer, last))
        last = into[-1].after

    for block in itertools.islice(blocks, count):
        for check in block:
            if tracer is not None and len(traced) % 2:
                run(check, traced, tracer)
                run(check, plain)
                continue
            run(check, plain)
            if tracer is not None:
                run(check, traced, tracer)
        if after_block is not None:
            after_block()
            last = None
    return plain, traced


def tail_percentile(durations: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten checks beyond it: (value, pct, n).

    With ten checks or fewer no such percentile exists; the smallest
    duration is reported then, as percentile 0.
    """
    xs = sorted(durations)
    n = len(xs)
    k = max(n - 11, 0)
    return xs[k], 100.0 * k / n, n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


# -- set-up ----------------------------------------------------------------------


def setup_probe(workload: str, seed: int) -> None:
    """Body of one set-up measurement, run in a fresh interpreter."""
    _import_package()
    import workloads

    out = workloads.warmup(workload, seed)
    if not out.passed:
        sys.exit("benchmark: warm-up check failed")
    print("ready", flush=True)


def measure_setup(workload: str, seed: int) -> float:
    """Wall time from interpreter start to a warmed-up workload.

    Not adjusted for host speed: the reference kernel, timed in the parent
    around a probe or in the probe itself, did not follow the probe's time
    (it read 0.7-2.0 while probes took 0.33-0.56 s with no trend).
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline().strip()
        dt = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line != "ready" or code != 0:
        sys.exit(f"benchmark: set-up probe failed (exit {code})")
    return dt


# -- metadata --------------------------------------------------------------------


def _read(path: Path) -> str | None:
    try:
        return path.read_text()
    except OSError:
        return None


def git_commit() -> str:
    head = _read(ROOT / ".git" / "HEAD")
    if head is None:
        return "unknown"
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(ROOT / ".git" / ref)
    if direct:
        return direct.strip()
    for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def metadata() -> dict:
    import mpmath
    import numpy
    import scipy

    # the kernel's read-only description of the CPU; nothing else outside
    # the checkout is read
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, ctype, size = (_read(idx / f) for f in ("level", "type", "size"))
        if level and ctype and size:
            caches[f"L{level.strip()}{ctype.strip()[0].lower()}"] = size.strip()
    mem_total_mib = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20
    src_loc = sum(
        len(p.read_text().splitlines()) for p in sorted((SRC / "idlaw").glob("*.py"))
    )
    return {
        "nproc": os.cpu_count(),
        "caches": caches,
        "mem_total_mib": round(mem_total_mib),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "git_commit": git_commit(),
        "src_idlaw_loc": src_loc,
    }


# -- the two kinds of run ----------------------------------------------------------


def end_to_end_run(workload: str, seed: int, seconds: float):
    import workloads

    if not workloads.warmup(workload, seed).passed:
        sys.exit("benchmark: warm-up check failed")
    n_blocks = workloads.blocks_for(workload, seconds)
    setups = []

    def probe_setup():
        # between blocks, so set-up is timed in the host state the checks
        # see; probes at the start of a run read up to 1.3x faster
        if len(setups) < SETUP_REPEATS:
            setups.append(measure_setup(workload, seed))

    cpu0 = cpu_seconds()
    records, _ = run_pass(workloads.blocks(workload, seed), n_blocks, after_block=probe_setup)
    cpu = cpu_seconds() - cpu0
    while len(setups) < SETUP_REPEATS:
        probe_setup()
    busy = sum(r.seconds for r in records)
    durations = [r.seconds for r in records]
    adjusted = [r.adjusted_seconds for r in records]
    tail, pct, n = tail_percentile(adjusted)
    metrics = {
        "setup_s": statistics.median(setups),
        "checks_per_s": len(records) / sum(adjusted),
        "check_s_p50": statistics.median(adjusted),
        "check_s_tail": tail,
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = {
        "host_slowdown_p50": statistics.median(r.slowdown for r in records),
        "raw_checks_per_s": len(records) / busy,
        "raw_check_s_p50": statistics.median(durations),
        "raw_check_s_tail": tail_percentile(durations)[0],
        "setup_s_samples": setups,
        "check_s_tail_percentile": pct,
        "check_count": n,
        "blocks": n_blocks,
        "check_time_s": busy,
        # CPU time of the whole pass, untimed cross-checks and reference
        # kernels included, set-up probes excluded; far
        # below check_time_s means the process waited for a CPU
        "pass_cpu_s": cpu,
    }
    return records, metrics, notes, END_TO_END, True


def traced_run(workload: str, seed: int, seconds: float):
    import workloads
    from tracer import Tracer

    if not workloads.warmup(workload, seed).passed:
        sys.exit("benchmark: warm-up check failed")
    tracer = Tracer()
    n_blocks = workloads.blocks_for(workload, seconds / 2.0)
    plain, traced = run_pass(workloads.blocks(workload, seed), n_blocks, tracer)
    plain_s = sum(r.seconds for r in plain)
    traced_s = sum(r.seconds for r in traced)
    consistent = all(
        (a.outcome.data if a.outcome else None) == (b.outcome.data if b.outcome else None)
        for a, b in zip(plain, traced)
    )

    metrics = tracer.layer_metrics(len(traced))
    records = plain + traced
    by_kind: dict[str, float] = {}
    worst_z = dual = 0.0
    for r in records:
        if r.outcome is None:
            continue
        if "residual" in r.outcome.values:
            by_kind[r.check.kind] = max(by_kind.get(r.check.kind, 0.0),
                                        r.outcome.values["residual"])
        worst_z = max(worst_z, r.outcome.values.get("worst_z", 0.0))
        for c in r.cross:
            if c.name == "dual_route_residual":
                dual = max(dual, c.value)
    for ident in ("eq3", "eq15", "cor1a", "prop2", "cor5"):
        metrics[f"factor.residual_max.{ident}"] = by_kind.get(ident, 0.0)
    metrics["simulate.worst_z"] = worst_z
    metrics["maps.dual_route_residual"] = dual
    metrics["trace.overhead_s"] = traced_s - plain_s
    metrics["trace.overhead_frac"] = (traced_s - plain_s) / plain_s

    pool_same = True
    metrics["simulate.pool_speedup_w2"] = 0.0
    if workload == "mc-sample":
        import idlaw.simulate as simulate

        spec = workloads.mc_spec()
        samples, secs = {}, {}
        for w in (1, 2):
            t0 = time.perf_counter()
            samples[w] = simulate.sample_jbeta_integral(spec, 1.0, workloads.MC_N, seed, workers=w)
            secs[w] = time.perf_counter() - t0
        metrics["simulate.pool_speedup_w2"] = secs[1] / secs[2]
        pool_same = bool(np.array_equal(samples[1], samples[2]))

    failed = sum(r.failed for r in records)
    metrics["failed_frac"] = failed / len(records)
    notes = {
        "traced_checks": len(traced),
        "untraced_check_time_s": plain_s,
        "traced_check_time_s": traced_s,
        "traced_outputs_identical": consistent,
        "pool_outputs_identical": pool_same,
        "leaf_points_per_check": tracer.leaf_points_by_check(),
        "spans": len(tracer.spans),
    }
    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(OUT_DIR / f"{workload}-seed{seed}-spans.jsonl")
    return records, metrics, notes, PER_LAYER, consistent and pool_same


def main(argv=None) -> int:
    started = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=26.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    _import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    run = traced_run if args.trace else end_to_end_run
    records, metrics, notes, catalogue, invariants_ok = run(args.workload, args.seed, args.seconds)

    notes["run_wall_s"] = time.perf_counter() - started
    failed = [r for r in records if r.failed]
    values_ok = all(math.isfinite(v) for v in metrics.values())
    correct = invariants_ok and values_ok and not any(r.gate_failed for r in records)
    for name, (unit, _) in catalogue.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    if "failed_frac" not in catalogue:
        print(f"failed_frac {len(failed) / len(records):.6g} ratio")
    print(f"# failed checks: {len(failed)} of {len(records)}")
    for key, val in notes.items():
        print(f"# {key}: {val}")
    # a traced run holds each check twice; list each finding once
    findings = dict.fromkeys(f"{r.check.check_id}: {'; '.join(r.reasons())}" for r in failed)
    for finding in findings:
        print(f"# finding: workload={args.workload} seed={args.seed} check={finding}")

    OUT_DIR.mkdir(exist_ok=True)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "metadata": metadata(), "notes": notes,
        "inputs": workloads.describe_inputs(args.workload, args.seed),
        "metrics": metrics, "correct": correct,
        "checks": [
            {"id": r.check.check_id, "seconds": r.seconds, "slowdown": r.slowdown,
             "failed": r.failed,
             "reasons": r.reasons(),
             "cross": {c.name: c.value for c in r.cross}}
            for r in records
        ],
    }
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail, indent=1, default=str))

    summary = {
        "correct": bool(correct),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, (unit, _) in catalogue.items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
