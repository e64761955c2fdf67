"""Loading law descriptions from JSON and wiring them to the numeric types.

A law document takes one of three shapes:

* closed form: ``{"closed_form": "gaussian", "params": {...}}``
* convolution: ``{"convolve": [doc, doc, ...]}``
* triplet: ``{"dim": d, "shift": [...], "cov": [[...]], "levy": {"rays": [...]}}``
  plus an optional ``"name"``, and no other keys. Each ray has a unit
  ``direction`` plus optional ``atoms`` ``[{"r":, "m":}]``, ``segments``
  ``[{"lo":, "hi": (number or "inf"), "c":, "p":}]`` (with an optional
  ``"e"``, a number or a list of two or more, for a log form) and
  ``grid_tail`` ``{"radii": [...], "tail": [...]}``.

Whenever the description pins down a finite-activity process (drift +
Gaussian + finitely many jump atoms), a simulation spec is derived so the
law can also be sampled exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import INPUT_ERRORS, LawSpecError
from .exponent import CharExponent, closed_form, convolve, from_triplet, jump_atoms
from .simulate import SimSpec
from .spectral import GridTail, Ray, SpectralMeasure, ray
from .triplet import LevyTriplet


@dataclass(frozen=True)
class LoadedLaw:
    """A law with every representation the description supports."""

    name: str
    exponent: CharExponent
    triplet: LevyTriplet | None = None
    sim: SimSpec | None = None

    @property
    def dim(self) -> int:
        return self.exponent.dim


def _object(v, what: str) -> dict:
    """v itself when it is a JSON object; otherwise LawSpecError naming ``what``."""
    if not isinstance(v, dict):
        raise LawSpecError(f"{what} must be a JSON object, got {type(v).__name__}")
    return v


def _as_matrix(v, dim, what):
    arr = np.asarray(v, dtype=float)
    if arr.ndim == 0:
        arr = float(arr) * np.eye(dim)
    if arr.shape != (dim, dim):
        raise LawSpecError(f"{what} must be a {dim}x{dim} matrix, got shape {arr.shape}")
    return arr


def _gaussian_law(params) -> LoadedLaw:
    mean = np.atleast_1d(np.asarray(params.get("mean", 0.0), dtype=float))
    d = mean.shape[0]
    cov = _as_matrix(params.get("cov", 1.0), d, "cov")
    exp_ = closed_form("gaussian", mean=mean, cov=cov)
    trip = LevyTriplet(d, mean, cov, SpectralMeasure(d, ()))
    sim = SimSpec(d, mean, cov)
    return LoadedLaw("gaussian", exp_, trip, sim)


def _dirac_law(params) -> LoadedLaw:
    shift = np.atleast_1d(np.asarray(params["shift"], dtype=float))
    d = shift.shape[0]
    exp_ = closed_form("dirac", shift=shift)
    trip = LevyTriplet(d, shift, np.zeros((d, d)), SpectralMeasure(d, ()))
    sim = SimSpec(d, shift, np.zeros((d, d)))
    return LoadedLaw("dirac", exp_, trip, sim)


def _cp_triplet(rate, jumps, probs) -> LevyTriplet:
    d = jumps.shape[1]
    rays: dict[tuple, tuple[list, np.ndarray]] = {}
    shift = np.zeros(d)
    for x, p in zip(jumps, probs):
        r = float(np.linalg.norm(x))
        m = rate * float(p)
        if m == 0.0:
            continue
        if r == 0.0:
            # a jump of size zero contributes nothing
            continue
        u = x / r
        if r <= 1.0:
            shift += m * x
        key = tuple(np.round(u, 15))
        rays.setdefault(key, ([], u))[0].append((r, m))
    measure = SpectralMeasure(
        d, tuple(ray(u, atoms=atoms) for atoms, u in rays.values())
    )
    return LevyTriplet(d, shift, np.zeros((d, d)), measure)


def _cp_law(params) -> LoadedLaw:
    rate = float(params["rate"])
    jumps, probs = jump_atoms(params["jumps"], params.get("probs"))
    d = jumps.shape[1]
    exp_ = closed_form("compound_poisson", rate=rate, jumps=jumps, probs=probs)
    trip = _cp_triplet(rate, jumps, probs) if rate > 0.0 else LevyTriplet(
        d, np.zeros(d), np.zeros((d, d)), SpectralMeasure(d, ())
    )
    sim = SimSpec(d, np.zeros(d), np.zeros((d, d)), rate=rate, jumps=jumps, probs=probs)
    return LoadedLaw("compound_poisson", exp_, trip, sim)


def _area_law(params) -> LoadedLaw:
    u = float(params["u"])
    return LoadedLaw("levy_area_bdlp", closed_form("levy_area_bdlp", u=u))


_CLOSED_FORM_LOADERS = {
    "gaussian": _gaussian_law,
    "dirac": _dirac_law,
    "compound_poisson": _cp_law,
    "levy_area_bdlp": _area_law,
}


def _merge_sims(parts: list[LoadedLaw]) -> SimSpec | None:
    if any(p.sim is None for p in parts):
        return None
    d = parts[0].dim
    drift = np.zeros(d)
    diff = np.zeros((d, d))
    rate = 0.0
    jumps, weights = [], []
    for p in parts:
        s = p.sim
        drift = drift + s.drift
        diff = diff + s.diffusion
        if s.has_jumps:
            rate += s.rate
            jumps.append(s.jumps)
            weights.append(s.rate * s.probs)
    if rate > 0.0:
        jumps = np.concatenate(jumps, axis=0)
        probs = np.concatenate(weights) / rate
        return SimSpec(d, drift, diff, rate=rate, jumps=jumps, probs=probs)
    return SimSpec(d, drift, diff)


def _convolve_law(docs: list, name: str) -> LoadedLaw:
    if not isinstance(docs, list) or len(docs) == 0:
        raise LawSpecError("'convolve' needs a non-empty list of laws")
    parts = [law_from_dict(doc) for doc in docs]
    dims = {p.dim for p in parts}
    if len(dims) != 1:
        raise LawSpecError(f"convolved laws disagree on dimension: {sorted(dims)}")
    exp_ = parts[0].exponent
    for p in parts[1:]:
        exp_ = convolve(exp_, p.exponent)
    trip = None
    if all(p.triplet is not None for p in parts):
        trip = parts[0].triplet
        for p in parts[1:]:
            trip = trip.convolve(p.triplet)
    return LoadedLaw(name, exp_, trip, _merge_sims(parts))


def _parse_hi(v) -> float:
    if isinstance(v, str):
        if v.lower() in ("inf", "infinity"):
            return math.inf
        raise LawSpecError(f"segment 'hi' must be a number or 'inf', got {v!r}")
    return float(v)


def _parse_offsets(v):
    if isinstance(v, list) and len(v) < 2:
        raise LawSpecError(f"segment 'e' must be a number or a list of two or more, got {v!r}")
    return v


def _ray_from_dict(doc, dim) -> Ray:
    _object(doc, "ray")
    raw_dir = doc.get("dir", doc.get("direction"))
    if raw_dir is None:
        raise LawSpecError("ray needs a 'dir' entry")
    direction = np.asarray(raw_dir, dtype=float)
    if direction.shape != (dim,):
        raise LawSpecError(f"ray direction must have {dim} components")
    atoms = [(float(a["r"]), float(a["m"])) for a in doc.get("atoms", [])]
    segments = [
        (float(s["lo"]), _parse_hi(s["hi"]), float(s["c"]), float(s["p"]))
        + ((_parse_offsets(s["e"]),) if s.get("e") is not None else ())
        for s in doc.get("segments", [])
    ]
    gt = None
    if "grid_tail" in doc and doc["grid_tail"] is not None:
        g = doc["grid_tail"]
        gt = GridTail(np.asarray(g["radii"], dtype=float), np.asarray(g["tail"], dtype=float))
    return ray(direction, atoms=atoms, segments=segments, grid_tail=gt)


def _atoms_only_sim(trip: LevyTriplet) -> SimSpec | None:
    levy = trip.levy
    jumps, masses = [], []
    comp = np.zeros(trip.dim)
    for ray_ in levy.rays:
        rad = ray_.radial
        if rad.segments or rad.grid_tail is not None:
            return None
        for at in rad.atoms:
            x = at.r * ray_.direction
            jumps.append(x)
            masses.append(at.m)
            if at.r <= 1.0:
                comp += at.m * x
    rate = float(sum(masses))
    drift = trip.shift - comp
    if rate > 0.0:
        return SimSpec(
            trip.dim,
            drift,
            trip.cov,
            rate=rate,
            jumps=np.asarray(jumps),
            probs=np.asarray(masses) / rate,
        )
    return SimSpec(trip.dim, drift, trip.cov)


def _triplet_law(doc, name: str) -> LoadedLaw:
    unknown = sorted(set(doc) - {"name", "dim", "shift", "cov", "levy"})
    if unknown:
        raise LawSpecError(
            f"triplet law has unknown fields {unknown}; known: name, dim, shift, cov, levy"
        )
    try:
        dim = int(doc["dim"])
        shift = np.asarray(doc["shift"], dtype=float)
        cov = _as_matrix(doc.get("cov", 0.0), dim, "cov")
        levy = _object(doc.get("levy", {}), "triplet 'levy'")
        rays = tuple(_ray_from_dict(r, dim) for r in levy.get("rays", []))
    except KeyError as exc:
        raise LawSpecError(f"triplet law is missing field {exc}") from None
    levy = SpectralMeasure(dim, rays)
    trip = LevyTriplet(dim, shift, cov, levy)
    trip.require_valid()
    return LoadedLaw(name, from_triplet(trip), trip, _atoms_only_sim(trip))


def triplet_to_dict(trip: LevyTriplet) -> dict:
    """The triplet law document of ``trip``, which :func:`law_from_dict` reads back."""
    rays = []
    for ray_ in trip.levy.rays:
        rad = ray_.radial
        entry = {
            "dir": [float(v) for v in ray_.direction],
            "atoms": [{"r": a.r, "m": a.m} for a in rad.atoms],
            "segments": [
                {
                    "lo": s.lo,
                    "hi": ("inf" if math.isinf(s.hi) else s.hi),
                    "c": s.c,
                    "p": s.p,
                    **({"e": s.e[0] if len(s.e) == 1 else list(s.e)} if s.e else {}),
                }
                for s in rad.segments
            ],
        }
        if rad.grid_tail is not None:
            entry["grid_tail"] = {
                "radii": [float(v) for v in rad.grid_tail.radii],
                "tail": [float(v) for v in rad.grid_tail.tail],
            }
        else:
            entry["grid_tail"] = None
        rays.append(entry)
    return {
        "dim": trip.dim,
        "shift": [float(v) for v in trip.shift],
        "cov": [[float(v) for v in row] for row in trip.cov],
        "levy": {"rays": rays},
    }


def law_from_dict(doc: dict, name: str | None = None) -> LoadedLaw:
    """Build a law from a parsed JSON document.

    A value that does not read as the number, array or grid it stands for
    (a ValueError or TypeError from numpy or the measure types) is a
    malformed description too, and raises LawSpecError.
    """
    try:
        return _law_from_doc(doc, name)
    except INPUT_ERRORS:
        raise
    except (ValueError, TypeError) as exc:
        raise LawSpecError(f"malformed law description: {exc}") from None


def _law_from_doc(doc: dict, name: str | None) -> LoadedLaw:
    _object(doc, "law description")
    label = name or doc.get("name")
    if "closed_form" in doc:
        kind = doc["closed_form"]
        loader = _CLOSED_FORM_LOADERS.get(kind)
        if loader is None:
            raise LawSpecError(
                f"unknown closed form {kind!r}; known: {sorted(_CLOSED_FORM_LOADERS)}"
            )
        try:
            law = loader(_object(doc.get("params", {}), f"closed form {kind!r} params"))
        except KeyError as exc:
            raise LawSpecError(f"closed form {kind!r} is missing parameter {exc}") from None
        return LoadedLaw(label or law.name, law.exponent, law.triplet, law.sim)
    if "convolve" in doc:
        return _convolve_law(doc["convolve"], label or "convolution")
    if "levy" in doc or ("shift" in doc and "dim" in doc):
        return _triplet_law(doc, label or "triplet")
    raise LawSpecError(
        "law description needs one of: 'closed_form', 'convolve', or triplet "
        "fields ('dim', 'shift', 'cov', 'levy')"
    )


def load_law(path: str) -> LoadedLaw:
    """Read and build a law from a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise LawSpecError(f"cannot read law file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise LawSpecError(f"law file {path} is not valid JSON: {exc}") from exc
    return law_from_dict(doc)


# documents for the laws used across the verification suites
BUILTIN_LAWS: dict[str, dict] = {
    "gaussian": {"closed_form": "gaussian", "params": {"mean": [0.0], "cov": [[1.0]]}},
    "drift": {"closed_form": "dirac", "params": {"shift": [0.7]}},
    "cp": {
        "closed_form": "compound_poisson",
        "params": {"rate": 2.0, "jumps": [[2.0], [-2.0]], "probs": [0.5, 0.5]},
    },
    "gauss_cp_mix": {
        "convolve": [
            {"closed_form": "gaussian", "params": {"mean": [0.0], "cov": [[1.0]]}},
            {
                "closed_form": "compound_poisson",
                "params": {"rate": 2.0, "jumps": [[2.0], [-2.0]], "probs": [0.5, 0.5]},
            },
        ]
    },
    "levy_area_bdlp": {"closed_form": "levy_area_bdlp", "params": {"u": 1.0}},
}


def builtin_law(name: str) -> LoadedLaw:
    doc = BUILTIN_LAWS.get(name)
    if doc is None:
        raise LawSpecError(f"unknown builtin law {name!r}; known: {sorted(BUILTIN_LAWS)}")
    return law_from_dict(doc, name=name)
