"""Command-line front end.

Subcommands: ``eval`` (exponent values, optionally mapped), ``transform``
(closed-form triplet transform), ``verify`` (identity checks by name, the
stochastic-area factorization among them), ``simulate`` (exact samplers +
CSV dumps), ``suite`` (batch of identity checks from a config).

Exit codes: 0 success / all checks pass; 1 a check failed or quadrature
did not converge; 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from types import SimpleNamespace

import numpy as np

from . import factor, maps, report, simulate
from .errors import INPUT_ERRORS, LawSpecError, QuadratureError
from .lawio import BUILTIN_LAWS, LoadedLaw, builtin_law, law_from_dict, load_law, triplet_to_dict
from .spectral import SpectralMeasure, ray

IDENTITIES = tuple(factor.IDENTITIES)

# what a law provides for each kind of identity subject, and what the
# law must be when it provides none
_LAW_SUBJECTS = {
    "exponent": (lambda law: law.exponent, "a law"),
    "jumps": (
        lambda law: law.triplet.levy
        if law.triplet is not None and law.triplet.levy.rays
        else None,
        "a law with a nonempty jump measure (triplet form or compound Poisson)",
    ),
    "sim": (lambda law: law.sim, "a simulable law (drift + Gaussian + finite jump atoms)"),
}


def _count(text: str) -> int:
    """argparse type for sample and worker counts: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _seed(text: str) -> int:
    """argparse type for a sampler seed, one 64-bit Philox key word."""
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"must be in [0, 2**64), got {value}")
    return value


def _positive(text: str) -> float:
    """argparse type for indices, tolerances, horizons and limits: a float > 0."""
    value = float(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _config_value(parse, value, where: str):
    """A suite config value, checked by the argparse type of its CLI flag."""
    try:
        return parse(str(value))
    except (argparse.ArgumentTypeError, ValueError) as exc:
        raise LawSpecError(f"suite config {where}: {exc}") from None


def _config_typed(value, kind: type, where: str):
    """A suite config value that must be a JSON object (dict) or array (list)."""
    if not isinstance(value, kind):
        noun = "an object" if kind is dict else "a list"
        raise LawSpecError(f"suite {where} must be {noun}, got {value!r}")
    return value


def _config_positives(values, where: str) -> list[float]:
    values = _config_typed(values, list, f"config {where}")
    return [_config_value(_positive, v, f"{where}[{k}]") for k, v in enumerate(values)]


def _parse_points(text: str, dim: int) -> np.ndarray:
    """'1,2,3' lists scalar points; 'a,b;c,d' separates vectors with ';'."""
    text = text.strip()
    if not text:
        raise LawSpecError("empty --y value")
    try:
        if dim == 1 and ";" not in text:
            vals = [float(v) for v in text.split(",")]
            return np.asarray(vals, dtype=float)[:, None]
        pts = [[float(v) for v in chunk.split(",")] for chunk in text.split(";")]
    except ValueError as exc:
        raise LawSpecError(f"cannot parse --y {text!r}: {exc}") from None
    sizes = {len(pt) for pt in pts}
    if sizes != {dim}:
        got = " or ".join(str(n) for n in sorted(sizes))
        raise LawSpecError(f"--y points have {got} components, law has dim {dim}")
    return np.asarray(pts, dtype=float)


def _make_map(kind: str | None, beta: float | None) -> maps.IntegralMap:
    if kind is None:
        raise LawSpecError("this command needs --map")
    if kind == "i":
        return maps.i_map()
    if beta is None:
        raise LawSpecError(f"map {kind!r} needs --beta")
    return maps.IntegralMap(kind, beta)


def _emit(doc: dict, out: str | None, fmt: str) -> None:
    if out:
        report.write_report(doc, out, fmt)


def _fmt_complex(v: complex) -> str:
    return f"{v.real:.16g}{v.imag:+.16g}j"


# -- subcommand handlers ---------------------------------------------------------


def _cmd_eval(args) -> int:
    if not args.law:
        raise LawSpecError("eval needs --law")
    law = load_law(args.law)
    if args.y is not None:
        Y = _parse_points(args.y, law.dim)
    else:
        Y = factor.default_grid(law.dim)
    if args.map is not None:
        m = _make_map(args.map, args.beta)
        vals = maps.map_exponent_grid(m, law.exponent, Y, args.tol)
    else:
        vals = law.exponent.eval_grid(Y, args.tol)
    rows = []
    for k in range(Y.shape[0]):
        inp = float(Y[k, 0]) if law.dim == 1 else [float(v) for v in Y[k]]
        rows.append({"input": inp, "value": [vals[k].real, vals[k].imag]})
        print(_fmt_complex(vals[k]))
    doc = {
        "kind": "eval",
        "law": law.name,
        "map": args.map,
        "beta": args.beta if args.map is not None and args.map != "i" else None,
        "rows": rows,
    }
    _emit(doc, args.out, args.format)
    return 0


def _cmd_transform(args) -> int:
    if not args.law:
        raise LawSpecError("transform needs --law")
    law = load_law(args.law)
    if law.triplet is None:
        raise LawSpecError("the law description does not determine a triplet")
    m = _make_map(args.map, args.beta)
    doc = {
        "kind": "transform",
        "law": law.name,
        "map": m.kind,
        "beta": m.beta,
        "triplet": triplet_to_dict(maps.map_triplet(m, law.triplet)),
    }
    if args.out:
        report.write_report(doc, args.out, "json")
    else:
        sys.stdout.write(report.canonical_json(doc))
    return 0


def _atomic_check_measures() -> list[tuple[str, SpectralMeasure]]:
    one = SpectralMeasure(1, (ray([1.0], atoms=[(1.0, 1.0)]),))
    two = SpectralMeasure(
        1, (ray([1.0], atoms=[(0.5, 0.7)]), ray([-1.0], atoms=[(2.0, 1.1)]))
    )
    return [("one-atom", one), ("two-atom", two)]


def _cmd_verify(args) -> int:
    entry = factor.IDENTITIES.get(args.identity)
    if entry is None:
        print(
            f"unknown identity {args.identity!r}; known: {', '.join(IDENTITIES)}",
            file=sys.stderr,
        )
        return 2
    subject, dim = None, 1
    if entry.subject is not None:
        if not args.law:
            raise LawSpecError(f"identity {args.identity!r} needs --law")
        law = load_law(args.law)
        take, need = _LAW_SUBJECTS[entry.subject]
        subject, dim = take(law), law.dim
        if subject is None:
            raise LawSpecError(f"identity {args.identity} needs {need}")
    args.grid = _parse_points(args.y, dim) if args.y else None
    rep = entry.run(subject, getattr(args, entry.param), args)
    print(rep.summary())
    _emit(rep.to_dict(), args.out, args.format)
    return 0 if rep.passed else 1


def _cmd_simulate(args) -> int:
    law = load_law(args.law)
    if law.sim is None:
        raise LawSpecError(
            "the law is not simulable: need drift + Gaussian + finite jump atoms"
        )
    m = _make_map(args.map, args.beta)
    samples = simulate.sample_integral(
        law.sim, m, args.n, args.seed, s_max=args.s_max, workers=args.workers
    )
    if args.out:
        simulate.samples_to_csv(samples, args.out)
        print(f"wrote {samples.shape[0]} samples to {args.out}")
    code = 0
    if args.y is not None or args.report:
        Y = (
            _parse_points(args.y, law.dim)
            if args.y is not None
            else factor.default_grid(law.dim, n_points=21)
        )
        rep = simulate.mc_report(
            samples, m, law.exponent, Y, args.seed, z_max=args.z_max, s_max=args.s_max
        )
        print(rep.summary())
        if args.report:
            report.write_report(rep.to_dict(), args.report, "json")
        code = 0 if rep.passed else 1
    return code


DEFAULT_SUITE_CONFIG = {
    "identities": list(IDENTITIES),
    "laws": ["gaussian", "drift", "cp", "gauss_cp_mix"],
    "betas": [0.5, 1.0, 2.0, 3.0],
    "tol": 1e-8,
    "cor5_tol": 1e-9,
    "mc": {"n": 20000, "seed": 1729, "z_max": 4.0, "betas": [1.0, 2.0]},
    "area_u": [1.0, 2.0],
}


def _suite_law(entry) -> LoadedLaw:
    if isinstance(entry, dict):
        return law_from_dict(entry)
    if isinstance(entry, str):
        if entry in BUILTIN_LAWS:
            return builtin_law(entry)
        return load_law(entry)
    raise LawSpecError(f"cannot interpret law entry {entry!r}")


def _cmd_suite(args) -> int:
    config = dict(DEFAULT_SUITE_CONFIG)
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                config.update(_config_typed(json.load(fh), dict, "config"))
        except OSError as exc:
            raise LawSpecError(f"cannot read config {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise LawSpecError(f"config is not valid JSON: {exc}") from exc
    identities = _config_typed(config.get("identities", []), list, "config 'identities'")
    if not identities:
        print("suite config has an empty identity list", file=sys.stderr)
        return 2
    unknown = [i for i in identities if not isinstance(i, str) or i not in factor.IDENTITIES]
    if unknown:
        print(
            f"unknown identities in config: {unknown}; known: {', '.join(IDENTITIES)}",
            file=sys.stderr,
        )
        return 2
    tol = _config_value(_positive, config.get("tol", 1e-8), "'tol'")
    cor5_tol = _config_value(_positive, config.get("cor5_tol", 1e-9), "'cor5_tol'")
    betas = _config_positives(config.get("betas", [1.0]), "'betas'")
    area_u = _config_positives(config.get("area_u", [1.0]), "'area_u'")
    mc = dict(DEFAULT_SUITE_CONFIG["mc"])
    mc.update(_config_typed(config.get("mc", {}), dict, "config 'mc'"))
    mc_betas = _config_positives(mc["betas"], "'mc.betas'")
    z_max = _config_value(_positive, mc["z_max"], "'mc.z_max'")
    n = _config_value(_count, mc["n"], "'mc.n'")
    seed = _config_value(_seed, mc["seed"], "'mc.seed'")
    laws = [_suite_law(e) for e in _config_typed(config.get("laws", []), list, "config 'laws'")]

    subjects = {
        "exponent": [(law.name, law.exponent) for law in laws],
        "jumps": _atomic_check_measures(),
        "sim": [(law.name, law.sim) for law in laws if law.sim is not None],
        None: [("", None)],
    }
    sweeps = {
        "exponent": betas,
        "jumps": betas,
        "sim": mc_betas,
        None: area_u,
    }
    opts = SimpleNamespace(
        tol=tol,
        cor5_tol=cor5_tol,
        grid=None,
        n=n,
        seed=seed,
        z_max=z_max,
        workers=1,
    )
    checks = []
    for identity in identities:
        entry = factor.IDENTITIES[identity]
        for name, subject in subjects[entry.subject]:
            for value in sweeps[entry.subject]:
                rep = entry.run(subject, value, opts)
                label = f"{name} {entry.param}={value:g}".lstrip()
                checks.append(
                    {
                        "identity": identity,
                        "label": label,
                        "passed": bool(rep.passed),
                        "params": dict(rep.params),
                        rep.score_key: float(getattr(rep, rep.score_key)),
                    }
                )
                print(f"[{identity}] {label}: {rep.summary()}")

    passed = all(c["passed"] for c in checks)
    n_fail = sum(1 for c in checks if not c["passed"])
    print(f"suite: {len(checks)} checks, {n_fail} failed")
    doc = {"kind": "suite", "passed": passed, "config": config, "checks": checks}
    _emit(doc, args.out, args.format)
    return 0 if passed else 1


# -- argument parsing ------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="idlaw",
        description=(
            "Characteristic exponents of infinitely divisible laws, integral "
            "transforms, factorization checks, and exact Monte Carlo."
        ),
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, with_map=True):
        sp.add_argument("--law", help="path to a law JSON file")
        if with_map:
            sp.add_argument("--map", choices=list(maps.POWER_KERNELS))
            sp.add_argument("--beta", type=_positive, help="map index (not for 'i')")
        sp.add_argument("--out", help="write a report to this path")
        sp.add_argument("--format", choices=["json", "csv"], default="json")

    sp = sub.add_parser("eval", help="evaluate the (optionally mapped) exponent")
    add_common(sp)
    sp.add_argument("--y", help="evaluation points: 'a,b,c' or 'a,b;c,d' for vectors")
    sp.add_argument("--tol", type=_positive, default=None, help="quadrature tolerance")
    sp.set_defaults(fn=_cmd_eval)

    sp = sub.add_parser("transform", help="closed-form triplet transform")
    sp.add_argument("--law", help="path to a law JSON file")
    sp.add_argument("--map", default="jbeta", choices=list(maps.POWER_KERNELS))
    sp.add_argument("--beta", type=_positive, help="map index (not for 'i')")
    sp.add_argument("--out")
    sp.set_defaults(fn=_cmd_transform)

    sp = sub.add_parser("verify", help="run one named identity check")
    sp.add_argument("--identity", required=True)
    add_common(sp, with_map=False)
    sp.add_argument("--beta", type=_positive, default=1.0, help="index (default 1)")
    sp.add_argument("--tol", type=_positive, default=1e-8, help="identity tolerance")
    sp.add_argument("--cor5-tol", type=_positive, default=1e-9, dest="cor5_tol")
    sp.add_argument("--y", help="override the verification grid")
    sp.add_argument("--u", type=_positive, default=1.0, help="area parameter")
    sp.add_argument("--n", type=_count, default=20000, help="MC sample count")
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--z-max", type=_positive, default=4.0, dest="z_max")
    sp.add_argument("--workers", type=_count, default=1)
    sp.set_defaults(fn=_cmd_verify)

    sp = sub.add_parser("simulate", help="draw exact samples, dump CSV")
    sp.add_argument("--law", required=True)
    sp.add_argument("--map", required=True, choices=["jbeta", "ijbeta"])
    sp.add_argument("--beta", type=_positive, required=True)
    sp.add_argument("--n", type=_count, required=True)
    sp.add_argument("--seed", type=_seed, required=True)
    sp.add_argument("--s-max", type=_positive, default=30.0, dest="s_max")
    sp.add_argument("--workers", type=_count, default=1)
    sp.add_argument("--out", help="samples CSV path")
    sp.add_argument("--y", help="grid for an empirical-CF comparison")
    sp.add_argument("--report", help="write the comparison report JSON here")
    sp.add_argument("--z-max", type=_positive, default=4.0, dest="z_max")
    sp.set_defaults(fn=_cmd_simulate)

    sp = sub.add_parser("suite", help="batch of identity checks from a config")
    sp.add_argument("--config", help="JSON config; defaults to the builtin suite")
    sp.add_argument("--out")
    sp.add_argument("--format", choices=["json", "csv"], default="json")
    sp.set_defaults(fn=_cmd_suite)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.fn(args)
    except QuadratureError as exc:
        print(f"quadrature failure: {exc}", file=sys.stderr)
        return 1
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
