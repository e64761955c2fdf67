"""Outside-in span recorder for idlaw's layers.

The tracer replaces public functions and methods of the ``idlaw`` modules
with wrappers that open a span on entry and close it on return. A span
holds its name, layer, start, end, parent span and the id of the check
that caused it, plus a few counts read at the boundary (abscissas, points,
error estimates). Spans stay in memory; :meth:`Tracer.dump` writes them
out when the run ends. :meth:`Tracer.restore` puts the originals back.

The package itself is not modified: everything here sits around the
calls, so the traced run computes exactly the same numbers as an
untraced one.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Any, Callable

import numpy as np

from idlaw import exponent, factor, maps, quadrature, simulate, spectral, triplet
from idlaw.errors import QuadratureError

LAYERS = ("quadrature", "exponent", "maps", "spectral", "triplet", "simulate", "factor")
LEVELS = (0, 1, 2)

# span fields, stored as lists for speed
NAME, LAYER, T0, T1, PARENT, CHECK, ATTRS = range(7)

FACTOR_CHECKERS = (
    "verify_factorization",
    "identity_e_check",
    "ubeta_f_membership",
    "clock_composition_check",
    "spectral_factor_check",
)
SAMPLERS = {
    "sample_jbeta_integral": "jbeta",
    "sample_time_changed_integral": "timechange",
    "sample_clocked_integral": "clocked",
}


def _tree_flags(node) -> tuple[bool, bool]:
    """(contains a mapped node, contains a triplet node) for an exponent tree."""
    if isinstance(node, exponent._MappedNode):
        return True, _tree_flags(node.inner.node)[1]
    if isinstance(node, exponent._TripletNode):
        return False, True
    if isinstance(node, exponent._ScaleNode):
        return _tree_flags(node.inner)
    if isinstance(node, exponent._SumNode):
        flags = [_tree_flags(p) for p in node.parts]
        return any(f[0] for f in flags), any(f[1] for f in flags)
    return False, False


class Tracer:
    """Records spans around idlaw's layer boundaries while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self.check_id: str | None = None
        self._quad_level = 0
        self._map_level = 0

    # -- span bookkeeping ------------------------------------------------------

    def _open(self, name: str, layer: str, **attrs) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, time.perf_counter(), None, parent, self.check_id, attrs])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, **attrs) -> None:
        span = self.spans[idx]
        span[T1] = time.perf_counter()
        if attrs:
            span[ATTRS].update(attrs)
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError("span stack out of order")

    def _span(self, name: str, layer: str, fn: Callable, attrs_in=None, attrs_out=None):
        """Wrapper that opens a span around fn and records optional attributes."""
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(name, layer, **(attrs_in(*args, **kwargs) if attrs_in else {}))
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                extra = attrs_out(out, *args, **kwargs) if (attrs_out and out is not None) else {}
                tracer._close(idx, **extra)

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    # -- install / restore -----------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._patch(quadrature, "integrate", self._wrap_integrate(quadrature.integrate))
        self._patch(exponent.CharExponent, "eval_grid",
                    self._wrap_eval_grid(exponent.CharExponent.eval_grid))
        self._patch(maps, "map_exponent_grid", self._wrap_map(maps.map_exponent_grid))
        self._patch(maps, "jbeta_triplet", self._span(
            "maps.jbeta_triplet", "maps", maps.jbeta_triplet,
            attrs_out=lambda out, *a, **k: {"nodes": _nodes(out)}))
        self._patch(spectral.RadialMeasure, "exponent_integral", self._span(
            "spectral.RadialMeasure.exponent_integral", "spectral",
            spectral.RadialMeasure.exponent_integral,
            attrs_in=lambda self_, w, *a, **k: {"points": int(np.size(w))}))
        self._patch(spectral.GridTail, "exponent_integral", self._span(
            "spectral.GridTail.exponent_integral", "spectral",
            spectral.GridTail.exponent_integral,
            attrs_out=lambda out, self_, w, *a, **k: {
                "bytes": 16 * int(np.size(w)) * int(self_._unit_split[0].size)}))
        self._patch(spectral.SpectralMeasure, "require_valid", self._span(
            "spectral.SpectralMeasure.require_valid", "spectral",
            spectral.SpectralMeasure.require_valid))
        self._patch(triplet.LevyTriplet, "exponent_grid", self._span(
            "triplet.LevyTriplet.exponent_grid", "triplet",
            triplet.LevyTriplet.exponent_grid,
            attrs_in=lambda self_, Y, *a, **k: {"points": int(np.shape(Y)[0])}))
        for fname, kind in SAMPLERS.items():
            self._patch(simulate, fname, self._span(
                f"simulate.{fname}", "simulate", getattr(simulate, fname),
                attrs_in=lambda *a, kind=kind, **k: {"kind": kind},
                attrs_out=lambda out, *a, **k: {"samples": int(np.shape(out)[0])}))
        self._patch(simulate, "empirical_cf", self._span(
            "simulate.empirical_cf", "simulate", simulate.empirical_cf))
        for fname in FACTOR_CHECKERS:
            self._patch(factor, fname, self._span(
                f"factor.{fname}", "factor", getattr(factor, fname),
                attrs_out=lambda out, *a, **k: {
                    "identity": out.identity, "residual": out.max_residual}))

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- wrappers with layer-specific counts -----------------------------------

    def _wrap_integrate(self, orig):
        tracer = self

        def integrate(f, a, b, tol=None, *args, **kwargs):
            level = tracer._quad_level
            counted = [0]
            layer = (getattr(f, "__module__", "") or "").rpartition(".")[2] or "quadrature"

            def integrand(xs):
                idx = tracer._open("quadrature.integrand", layer, level=level)
                try:
                    return f(xs)
                finally:
                    counted[0] += int(np.size(xs))
                    tracer._close(idx)

            idx = tracer._open("quadrature.integrate", "quadrature", level=level)
            tracer._quad_level += 1
            eff_tol = quadrature.default_tol() if tol is None else tol
            attrs = {}
            try:
                val, err = orig(integrand, a, b, tol, *args, **kwargs)
                attrs["err_over_tol"] = float(err) / float(eff_tol)
                return val, err
            except QuadratureError:
                attrs["error"] = True
                raise
            finally:
                tracer._quad_level -= 1
                attrs["abscissas"] = counted[0]
                tracer._close(idx, **attrs)

        integrate.__wrapped__ = orig
        return integrate

    def _wrap_eval_grid(self, orig):
        tracer = self

        def eval_grid(ce, Y, tol=None):
            has_map, has_trip = _tree_flags(ce.node)
            attrs = {"points": int(np.shape(Y)[0])}
            if not has_map:
                attrs["leaf"] = "triplet" if has_trip else "closed_form"
            idx = tracer._open("exponent.CharExponent.eval_grid", "exponent", **attrs)
            try:
                return orig(ce, Y, tol)
            finally:
                tracer._close(idx)

        eval_grid.__wrapped__ = orig
        return eval_grid

    def _wrap_map(self, orig):
        tracer = self

        def map_exponent_grid(m, phi, Y, tol=None):
            idx = tracer._open("maps.map_exponent_grid", "maps", kind=m.kind,
                               level=tracer._map_level)
            tracer._map_level += 1
            try:
                return orig(m, phi, Y, tol)
            finally:
                tracer._map_level -= 1
                tracer._close(idx)

        map_exponent_grid.__wrapped__ = orig
        return map_exponent_grid

    # -- reductions ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the time covered by its direct children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[T1] - s[T0]
        return [s[T1] - s[T0] - c for s, c in zip(self.spans, child)]

    def layer_metrics(self, n_checks: int) -> dict[str, float]:
        """Per-layer metrics; counts and times are per completed check."""
        per = 1.0 / max(n_checks, 1)
        acc: dict[str, float] = defaultdict(float)
        err_max: dict[int, float] = defaultdict(float)
        selfs = self.self_times()
        for s, self_t in zip(self.spans, selfs):
            name, layer, dur, a = s[NAME], s[LAYER], s[T1] - s[T0], s[ATTRS]
            acc[f"{layer}.self_s"] += self_t
            if name == "quadrature.integrate":
                lvl = min(a["level"], LEVELS[-1])
                acc[f"quadrature.calls.L{lvl}"] += 1
                acc[f"quadrature.abscissas.L{lvl}"] += a["abscissas"]
                acc["quadrature.errors"] += bool(a.get("error"))
                err_max[lvl] = max(err_max[lvl], a.get("err_over_tol", 0.0))
            elif name == "exponent.CharExponent.eval_grid" and "leaf" in a:
                acc[f"exponent.leaf_points.{a['leaf']}"] += a["points"]
                acc[f"exponent.leaf_s.{a['leaf']}"] += dur
            elif name == "maps.map_exponent_grid" and a["level"] == 0:
                acc[f"maps.map_s.{a['kind']}"] += dur
            elif name == "maps.jbeta_triplet":
                acc["maps.jbeta_triplet_s"] += dur
                acc["maps.jbeta_triplet_nodes"] += a.get("nodes", 0)
                acc["maps.jbeta_triplet_calls"] += 1
            elif name == "spectral.RadialMeasure.exponent_integral":
                acc["spectral.radial_exponent_s"] += dur
                acc["spectral.radial_exponent_points"] += a["points"]
            elif name == "spectral.GridTail.exponent_integral":
                acc["spectral.gridtail_bytes_computed"] += a.get("bytes", 0)
            elif name == "spectral.SpectralMeasure.require_valid":
                acc["spectral.require_valid_calls"] += 1
                acc["spectral.require_valid_s"] += dur
            elif name == "triplet.LevyTriplet.exponent_grid":
                acc["triplet.exponent_grid_s"] += dur
                acc["triplet.exponent_grid_points"] += a["points"]
            elif name.startswith("simulate.sample_"):
                acc[f"simulate.sample_s.{a['kind']}"] += dur
                acc[f"simulate.samples.{a['kind']}"] += a.get("samples", 0)
            elif name == "simulate.empirical_cf":
                acc["simulate.empirical_cf_s"] += dur
            elif name.startswith("factor.") and "identity" in a:
                acc[f"factor.check_s.{a['identity']}"] += dur
                acc[f"factor.checks.{a['identity']}"] += 1

        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = acc[f"{layer}.self_s"] * per
        for lvl in LEVELS:
            out[f"quadrature.calls.L{lvl}"] = acc[f"quadrature.calls.L{lvl}"] * per
            out[f"quadrature.abscissas.L{lvl}"] = acc[f"quadrature.abscissas.L{lvl}"] * per
            out[f"quadrature.err_over_tol_max.L{lvl}"] = err_max[lvl]
        out["quadrature.errors"] = acc["quadrature.errors"]
        for kind in ("closed_form", "triplet"):
            pts, secs = acc[f"exponent.leaf_points.{kind}"], acc[f"exponent.leaf_s.{kind}"]
            out[f"exponent.leaf_points.{kind}"] = pts * per
            out[f"exponent.leaf_s.{kind}"] = secs * per
            out[f"exponent.leaf_points_per_s.{kind}"] = pts / secs if secs > 0 else 0.0
        for kind in ("jbeta", "i", "ubetaf", "ijbeta"):
            out[f"maps.map_s.{kind}"] = acc[f"maps.map_s.{kind}"] * per
        calls = acc["maps.jbeta_triplet_calls"]
        out["maps.jbeta_triplet_s"] = acc["maps.jbeta_triplet_s"] / calls if calls else 0.0
        out["maps.jbeta_triplet_nodes"] = acc["maps.jbeta_triplet_nodes"] / calls if calls else 0.0
        for key in ("spectral.radial_exponent_s", "spectral.radial_exponent_points",
                    "spectral.gridtail_bytes_computed", "spectral.require_valid_calls",
                    "spectral.require_valid_s", "triplet.exponent_grid_s",
                    "triplet.exponent_grid_points", "simulate.empirical_cf_s"):
            out[key] = acc[key] * per
        total_samples = total_sample_s = 0.0
        for kind in SAMPLERS.values():
            n, secs = acc[f"simulate.samples.{kind}"], acc[f"simulate.sample_s.{kind}"]
            out[f"simulate.us_per_sample.{kind}"] = 1e6 * secs / n if n else 0.0
            total_samples += n
            total_sample_s += secs
        out["simulate.samples_per_s"] = total_samples / total_sample_s if total_sample_s else 0.0
        for ident in ("eq3", "eq15", "cor1a", "prop2", "cor5"):
            n = acc[f"factor.checks.{ident}"]
            out[f"factor.check_s.{ident}"] = acc[f"factor.check_s.{ident}"] / n if n else 0.0
        return out

    def leaf_points_by_check(self) -> dict[str, float]:
        """Mean leaf points per check, keyed by check kind (and law, if named)."""
        pts: dict[str, float] = defaultdict(float)
        seen: dict[str, set] = defaultdict(set)
        for s in self.spans:
            if s[NAME] == "exponent.CharExponent.eval_grid" and "leaf" in s[ATTRS] and s[CHECK]:
                parts = s[CHECK].split("/")
                kind = "/".join(parts[:2]) if parts[1:2] in (["cp"], ["mix"]) else parts[0]
                pts[kind] += s[ATTRS]["points"]
                seen[kind].add(s[CHECK])
        return {k: pts[k] / len(seen[k]) for k in pts}

    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s[NAME], "layer": s[LAYER], "start": s[T0], "end": s[T1],
                    "parent": s[PARENT], "check": s[CHECK], **s[ATTRS],
                }) + "\n")


def _nodes(trip) -> int:
    return sum(
        r.radial.grid_tail.radii.size for r in trip.levy.rays if r.radial.grid_tail is not None
    )
