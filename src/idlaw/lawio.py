"""Loading law descriptions from JSON and wiring them to the numeric types.

A law document takes one of three shapes:

* closed form: ``{"closed_form": "gaussian", "params": {...}}``
* convolution: ``{"convolve": [doc, doc, ...]}``
* triplet: ``{"dim": d, "shift": [...], "cov": [[...]], "levy": {"rays": [...]}}``.
  Each ray has a unit ``direction`` (or ``dir``) plus optional ``atoms``
  ``[{"r":, "m":}]``, ``segments``
  ``[{"lo":, "hi": (number or "inf"), "c":, "p":}]`` (with an optional
  ``"e"``, a number or a list of two or more, for a log form) and
  ``grid_tail`` ``{"radii": [...], "tail": [...]}``.

Each shape takes an optional ``"name"`` too. An object of a document with
any other key not named here (in ``params``, one that is not a parameter
of the closed form) raises LawSpecError.

Every law but ``levy_area_bdlp`` loads as one generating triplet, and its
exponent is that triplet's. A ``gaussian``, ``dirac`` or
``compound_poisson`` document reads its params into a
:class:`~idlaw.simulate.SimSpec`, which validates them, and takes the
spec's triplet; a convolution of triplet laws is their triplet sum. Only
``levy_area_bdlp``, and any convolution that includes it, is an exponent
alone. A law whose triplet is atoms only (drift + Gaussian + finitely many
jump atoms) also has a sampler spec, read back from the triplet.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import INPUT_ERRORS, LawSpecError, refuse_unknown
from .exponent import (
    CLOSED_FORMS, CharExponent, closed_form, closed_form_params, convolve, from_triplet, jump_atoms,
)
from .simulate import SimSpec
from .spectral import GridTail, Ray, SpectralMeasure, ray
from .triplet import LevyTriplet


@dataclass(frozen=True)
class LoadedLaw:
    """A law's exponent, and the generating triplet behind it where there is one."""

    name: str
    exponent: CharExponent
    triplet: LevyTriplet | None = None

    @property
    def dim(self) -> int:
        return self.exponent.dim

    @cached_property
    def sim(self) -> SimSpec | None:
        """The sampler spec of an atoms-only triplet; None for any other law."""
        return None if self.triplet is None else SimSpec.from_triplet(self.triplet)


def _law_of(name: str, trip: LevyTriplet) -> LoadedLaw:
    return LoadedLaw(name, from_triplet(trip), trip)


def _object(v, what: str, known: tuple[str, ...] | None = None) -> dict:
    """v itself when it is a JSON object with no keys outside ``known`` (when
    given); otherwise LawSpecError naming ``what``."""
    if not isinstance(v, dict):
        raise LawSpecError(f"{what} must be a JSON object, got {type(v).__name__}")
    if known is not None:
        refuse_unknown(v, known, what)
    return v


def _as_matrix(v, dim, what):
    arr = np.asarray(v, dtype=float)
    if arr.ndim == 0:
        arr = float(arr) * np.eye(dim)
    if arr.shape != (dim, dim):
        raise LawSpecError(f"{what} must be a {dim}x{dim} matrix, got shape {arr.shape}")
    return arr


def _gaussian_spec(params) -> SimSpec:
    mean = np.atleast_1d(np.asarray(params.get("mean", 0.0), dtype=float))
    d = mean.shape[0]
    return SimSpec(d, mean, _as_matrix(params.get("cov", 1.0), d, "cov"))


def _dirac_spec(params) -> SimSpec:
    shift = np.atleast_1d(np.asarray(params["shift"], dtype=float))
    return SimSpec(shift.shape[0], shift, 0.0)


def _cp_spec(params) -> SimSpec:
    rate = params["rate"]
    jumps, probs = jump_atoms(params["jumps"], params.get("probs"))
    d = jumps.shape[1]
    return SimSpec(d, np.zeros(d), 0.0, rate=rate, jumps=jumps, probs=probs)


# the closed forms with a triplet: params -> the SimSpec whose triplet the law is
_CLOSED_FORM_SPECS = {
    "gaussian": _gaussian_spec,
    "dirac": _dirac_spec,
    "compound_poisson": _cp_spec,
}


def _closed_form_law(kind, params, name: str | None) -> LoadedLaw:
    if kind not in CLOSED_FORMS:
        raise LawSpecError(f"unknown closed form {kind!r}; known: {sorted(CLOSED_FORMS)}")
    params = _object(params, f"closed form {kind!r} params", closed_form_params(kind))
    try:
        if kind not in _CLOSED_FORM_SPECS:
            # levy_area_bdlp, the one closed form without a triplet
            return LoadedLaw(name or kind, closed_form(kind, u=float(params["u"])))
        return _law_of(name or kind, _CLOSED_FORM_SPECS[kind](params).triplet)
    except KeyError as exc:
        raise LawSpecError(f"closed form {kind!r} is missing parameter {exc}") from None


def _convolve_law(docs: list, name: str) -> LoadedLaw:
    if not isinstance(docs, list) or len(docs) == 0:
        raise LawSpecError("'convolve' needs a non-empty list of laws")
    parts = [law_from_dict(doc) for doc in docs]
    dims = {p.dim for p in parts}
    if len(dims) != 1:
        raise LawSpecError(f"convolved laws disagree on dimension: {sorted(dims)}")
    if any(p.triplet is None for p in parts):
        return LoadedLaw(name, convolve(*(p.exponent for p in parts)))
    trip = parts[0].triplet
    for p in parts[1:]:
        trip = trip.convolve(p.triplet)
    return _law_of(name, trip)


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
    _object(doc, "ray", ("dir", "direction", "atoms", "segments", "grid_tail"))
    raw_dir = doc.get("dir", doc.get("direction"))
    if raw_dir is None:
        raise LawSpecError("ray needs a 'dir' entry")
    direction = np.asarray(raw_dir, dtype=float)
    if direction.shape != (dim,):
        raise LawSpecError(f"ray direction must have {dim} components")
    atoms = [_object(a, "atom", ("r", "m")) for a in doc.get("atoms", [])]
    segments = [_object(s, "segment", ("lo", "hi", "c", "p", "e")) for s in doc.get("segments", [])]
    gt = None
    if doc.get("grid_tail") is not None:
        g = _object(doc["grid_tail"], "grid_tail", ("radii", "tail"))
        gt = GridTail(np.asarray(g["radii"], dtype=float), np.asarray(g["tail"], dtype=float))
    return ray(
        direction,
        atoms=[(float(a["r"]), float(a["m"])) for a in atoms],
        segments=[
            (float(s["lo"]), _parse_hi(s["hi"]), float(s["c"]), float(s["p"]))
            + ((_parse_offsets(s["e"]),) if s.get("e") is not None else ())
            for s in segments
        ],
        grid_tail=gt,
    )


def _triplet_law(doc, name: str) -> LoadedLaw:
    refuse_unknown(doc, ("name", "dim", "shift", "cov", "levy"), "triplet law")
    try:
        dim = int(doc["dim"])
        shift = np.asarray(doc["shift"], dtype=float)
        cov = _as_matrix(doc.get("cov", 0.0), dim, "cov")
        levy = _object(doc.get("levy", {}), "triplet 'levy'", ("rays",))
        rays = tuple(_ray_from_dict(r, dim) for r in levy.get("rays", []))
    except KeyError as exc:
        raise LawSpecError(f"triplet law is missing field {exc}") from None
    levy = SpectralMeasure(dim, rays)
    trip = LevyTriplet(dim, shift, cov, levy)
    trip.require_valid()
    return _law_of(name, trip)


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
        refuse_unknown(doc, ("name", "closed_form", "params"), "closed-form law")
        return _closed_form_law(doc["closed_form"], doc.get("params", {}), label)
    if "convolve" in doc:
        refuse_unknown(doc, ("name", "convolve"), "convolution law")
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
