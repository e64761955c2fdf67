"""Law descriptions: JSON documents to exponents, triplets, and samplers.

Run as a script to print the sample digests of the builtin laws, and the
keys whose digest moved from the pinned ``SAMPLE_DIGESTS``; with a path
ending in .npz it writes the samples behind them there, for
``tests/digest_diff.py``:

    PYTHONPATH=src python tests/test_lawio.py [values.npz]
"""

import hashlib
import json
import math
import sys

import numpy as np
import pytest

import idlaw.maps as maps
from idlaw.errors import InvalidMeasureError, LawSpecError
from idlaw.exponent import closed_form, convolve
from idlaw.factor import default_grid
from idlaw.lawio import BUILTIN_LAWS, builtin_law, law_from_dict, load_law, triplet_to_dict
from idlaw.simulate import SimSpec, sample_integral


def triplet_doc(**kw):
    doc = {
        "dim": 1,
        "shift": [0.3],
        "cov": [[0.0]],
        "levy": {"rays": [{"dir": [1.0], "atoms": [{"r": 0.5, "m": 2.0}]}]},
    }
    doc.update(kw)
    return doc


class TestClosedFormDocs:
    def test_gaussian(self):
        law = law_from_dict(
            {"closed_form": "gaussian", "params": {"mean": [0.1], "cov": [[2.0]]}}
        )
        assert law.dim == 1
        assert law.exponent(1.0) == pytest.approx(0.1j - 1.0, abs=1e-15)
        assert law.triplet is not None and law.sim is not None
        assert law.sim.diffusion[0, 0] == 2.0

    def test_dirac(self):
        law = law_from_dict({"closed_form": "dirac", "params": {"shift": [0.7]}})
        assert law.exponent(2.0) == pytest.approx(1.4j, abs=1e-16)
        assert law.sim.rate == 0.0

    def test_compound_poisson_compensation(self):
        # the jump at 0.5 sits inside the unit ball, so the triplet shift
        # carries rate * prob * 0.5 = 0.25 of compensation
        law = law_from_dict(
            {
                "closed_form": "compound_poisson",
                "params": {"rate": 1.0, "jumps": [[0.5], [2.0]]},
            }
        )
        assert law.triplet.shift[0] == pytest.approx(0.25, abs=1e-15)
        atoms = law.triplet.levy.rays[0].radial.atoms
        assert [(a.r, a.m) for a in atoms] == [(0.5, 0.5), (2.0, 0.5)]

    def test_compound_poisson_two_dim_rays(self):
        law = law_from_dict(
            {
                "closed_form": "compound_poisson",
                "params": {
                    "rate": 2.0,
                    "jumps": [[3.0, 4.0], [0.0, 1.0]],
                    "probs": [0.25, 0.75],
                },
            }
        )
        rays = law.triplet.levy.rays
        got = {tuple(np.round(r.direction, 12)): (r.radial.atoms[0].r,
               r.radial.atoms[0].m) for r in rays}
        assert got[(0.6, 0.8)] == (5.0, 0.5)
        assert got[(0.0, 1.0)] == (1.0, 1.5)

    @pytest.mark.parametrize("missing", ["rate", "jumps"])
    def test_compound_poisson_missing_key_names_it(self, missing):
        params = {"rate": 1.0, "jumps": [[2.0]]}
        del params[missing]
        with pytest.raises(LawSpecError, match=f"missing parameter '{missing}'"):
            law_from_dict({"closed_form": "compound_poisson", "params": params})

    def test_area_law_has_no_triplet_route(self):
        law = law_from_dict({"closed_form": "levy_area_bdlp", "params": {"u": 1.0}})
        assert law.triplet is None and law.sim is None

    def test_unknown_closed_form(self):
        with pytest.raises(LawSpecError, match="unknown closed form"):
            law_from_dict({"closed_form": "stable", "params": {}})


class TestTripletDocs:
    def test_atoms_only_doc_gets_a_sampler(self):
        law = law_from_dict(triplet_doc(), name="atoms")
        assert law.name == "atoms"
        sim = law.sim
        assert sim is not None
        assert sim.rate == 2.0
        np.testing.assert_array_equal(sim.jumps, [[0.5]])
        # sampler drift removes the compensation the triplet shift carries
        assert sim.drift[0] == pytest.approx(0.3 - 1.0, abs=1e-15)

    def test_direction_alias_accepted(self):
        doc = triplet_doc()
        ray_doc = doc["levy"]["rays"][0]
        ray_doc["direction"] = ray_doc.pop("dir")
        law = law_from_dict(doc)
        assert law.triplet.levy.rays[0].direction[0] == 1.0

    def test_missing_direction_rejected(self):
        doc = triplet_doc()
        del doc["levy"]["rays"][0]["dir"]
        with pytest.raises(LawSpecError, match="dir"):
            law_from_dict(doc)

    def test_infinite_segment_endpoint(self):
        doc = triplet_doc()
        doc["levy"]["rays"][0] = {
            "dir": [1.0],
            "segments": [{"lo": 1.0, "hi": "inf", "c": 1.0, "p": -2.0}],
        }
        law = law_from_dict(doc)
        seg = law.triplet.levy.rays[0].radial.segments[0]
        assert math.isinf(seg.hi)
        assert law.sim is None

    def test_junk_segment_endpoint_rejected(self):
        doc = triplet_doc()
        doc["levy"]["rays"][0] = {
            "dir": [1.0],
            "segments": [{"lo": 1.0, "hi": "lots", "c": 1.0, "p": -2.0}],
        }
        with pytest.raises(LawSpecError, match="hi"):
            law_from_dict(doc)

    @pytest.mark.parametrize("ray_doc, fault", [
        ({"atoms": [{"r": 0.0, "m": 1.0}]}, r"atom 0 has radius 0\.0 <= 0"),
        ({"atoms": [{"r": 1.0, "m": -0.5}]}, r"atom 0 has negative mass -0\.5"),
        ({"segments": [{"lo": -0.5, "hi": 1.0, "c": 1.0, "p": 0.0}]},
         r"segment 0 has bad range \(-0\.5, 1\.0\)"),
        ({"segments": [{"lo": 1.0, "hi": 1.0, "c": 1.0, "p": 0.0}]},
         r"segment 0 has bad range \(1\.0, 1\.0\)"),
        ({"grid_tail": {"radii": [0.0, 1.0], "tail": [1.0, 0.5]}}, "grid radii must be positive"),
        ({"grid_tail": {"radii": [2.0, 1.0], "tail": [1.0, 0.5]}},
         "grid radii must be strictly increasing"),
        ({"grid_tail": {"radii": [1.0, 2.0], "tail": [0.5, -0.1]}},
         "grid tail values must be nonnegative"),
        ({"grid_tail": {"radii": [1.0, 2.0], "tail": [0.5, 0.7]}}, "grid tail must be nonincreasing"),
        ({"dir": [2.0]}, r"direction norm 2\.0 is not 1"),
    ], ids=["atom-at-0", "negative-mass", "negative-lo", "empty-range", "grid-at-0",
            "grid-decreasing", "negative-tail", "rising-tail", "direction-norm-2"])
    def test_inadmissible_measures_are_refused_by_name(self, ray_doc, fault):
        doc = triplet_doc()
        doc["levy"]["rays"][0] = {"dir": [1.0], **ray_doc}
        with pytest.raises(InvalidMeasureError, match=fault):
            law_from_dict(doc)

    @staticmethod
    def log_form_doc(*offsets):
        doc = triplet_doc()
        doc["levy"]["rays"][0] = {"dir": [1.0], "atoms": [], "grid_tail": None, "segments": [
            {"lo": 0.5, "hi": 3.0, "c": 0.3, "p": 0.3, "e": e} for e in offsets
        ]}
        return doc

    def test_log_form_offsets_round_trip(self):
        # one offset reads and writes as a number, two or more as a list
        doc = self.log_form_doc(0.0, [-0.7, 0.0, 0.0])
        trip = law_from_dict(doc).triplet
        assert [sg.e for sg in trip.levy.rays[0].radial.segments] == [(0.0,), (-0.7, 0.0, 0.0)]
        assert triplet_to_dict(trip) == doc

    @pytest.mark.parametrize("e", [[], [0.3], [0.1, "x"], [[0.1, 0.2], [0.3]]])
    def test_malformed_offset_lists_rejected(self, e):
        with pytest.raises(LawSpecError):
            law_from_dict(self.log_form_doc(e))

    def test_cov_defaults_to_zero(self):
        doc = triplet_doc()
        del doc["cov"]
        law = law_from_dict(doc)
        assert law.triplet.cov[0, 0] == 0.0

    def test_invalid_measure_rejected_at_load(self):
        doc = triplet_doc()
        doc["levy"]["rays"][0] = {
            "dir": [1.0],
            "segments": [{"lo": 0.0, "hi": 1.0, "c": 1.0, "p": -3.0}],
        }
        with pytest.raises(Exception):
            law_from_dict(doc)

    @pytest.mark.parametrize(
        "cov, want",
        [
            ([[1.0, 1e-11], [0.0, 1.0]], "loaded"),
            ([[1e12, 1.0], [0.0, 1e12]], "loaded"),
            ([[1.0, 1e-3], [0.0, 1.0]], "cov is not symmetric"),
            ([[1.0, 0.0], [0.0, -1e-3]], "cov has negative eigenvalue -1.000e-03"),
            ([[1.0, 2.0], [0.0, 1.0]], "cov is not symmetric"),
            ([[-1.0]], "cov has negative eigenvalue -1.000e+00"),
        ],
    )
    def test_one_covariance_rule_with_or_without_a_sampler(self, cov, want):
        # an atoms-only law also builds a sampler spec and a segment drops
        # it; the sampler spec and the gaussian closed form must judge the
        # covariance as the triplet does
        def verdict(build):
            try:
                build()
            except ValueError as exc:
                return str(exc)
            return "loaded"

        dim = len(cov)
        atoms = {"dir": list(np.eye(dim)[0]), "atoms": [{"r": 0.5, "m": 2.0}]}
        segment = {"dir": list(np.eye(dim)[-1]),
                   "segments": [{"lo": 0.5, "hi": 2.0, "c": 1.0, "p": 0.0}]}
        docs = [
            {"dim": dim, "shift": [0.0] * dim, "cov": cov, "levy": {"rays": rays}}
            for rays in ([atoms], [atoms, segment])
        ]
        assert verdict(lambda: law_from_dict(docs[0])) == want
        assert verdict(lambda: law_from_dict(docs[1])) == want
        assert verdict(lambda: SimSpec(dim, [0.0] * dim, cov)) == want
        assert verdict(lambda: closed_form("gaussian", mean=[0.0] * dim, cov=cov)) == want

    def test_exponent_matches_triplet_route(self):
        law = law_from_dict(triplet_doc())
        y = 1.3
        assert law.exponent(y) == pytest.approx(law.triplet.exponent_grid([[y]])[0], abs=1e-14)


MALFORMED_DOCS = {
    "atom radius": triplet_doc(
        levy={"rays": [{"dir": [1.0], "atoms": [{"r": "abc", "m": 1.0}]}]}
    ),
    "one-node grid tail": triplet_doc(
        levy={"rays": [{"dir": [1.0], "grid_tail": {"radii": [1.0], "tail": [0.5]}}]}
    ),
    "gaussian mean": {"convolve": [{"closed_form": "gaussian", "params": {"mean": "x"}}]},
    "ragged jumps": {
        "closed_form": "compound_poisson",
        "params": {"rate": 1.0, "jumps": [[1.0], [2.0, 3.0]]},
    },
}


@pytest.mark.parametrize("doc", MALFORMED_DOCS.values(), ids=MALFORMED_DOCS.keys())
def test_malformed_values_raise_law_spec_error(doc):
    with pytest.raises(LawSpecError, match="malformed law description"):
        law_from_dict(doc)


MISSHAPEN_DOCS = {
    "params not an object": (
        {"closed_form": "gaussian", "params": 5}, "params must be a JSON object"
    ),
    "levy not an object": (triplet_doc(levy=[]), "'levy' must be a JSON object"),
    "ray not an object": (triplet_doc(levy={"rays": ["x"]}), "ray must be a JSON object"),
    "no jumps": (
        {"closed_form": "compound_poisson", "params": {"rate": 1.0, "jumps": []}},
        "nonempty jump list",
    ),
}


@pytest.mark.parametrize("doc, match", MISSHAPEN_DOCS.values(), ids=MISSHAPEN_DOCS.keys())
def test_misshapen_documents_raise_law_spec_error(doc, match):
    with pytest.raises(LawSpecError, match=match):
        law_from_dict(doc)


# jump atoms that every route refuses: (jumps, probs, message)
BAD_ATOMS = {
    "empty": ([], None, "nonempty jump list"),
    "negative probability": ([[1.0], [2.0]], [1.5, -0.5], "nonnegative"),
    "sum off by 2e-12": ([[1.0], [2.0]], [0.5, 0.5 + 2e-12], "sum to"),
    "wrong shape": ([[[1.0]]], None, "nonempty jump list"),
    "one probability short": ([[1.0], [2.0]], [1.0], "one per atom"),
}
ATOM_ROUTES = {
    "closed_form": lambda j, p: closed_form("compound_poisson", rate=1.0, jumps=j, probs=p),
    "SimSpec": lambda j, p: SimSpec(1, [0.0], 0.0, rate=1.0, jumps=j, probs=p),
    "law document": lambda j, p: law_from_dict({
        "closed_form": "compound_poisson",
        "params": {"rate": 1.0, "jumps": j, **({} if p is None else {"probs": p})},
    }),
}


@pytest.mark.parametrize("route", ATOM_ROUTES)
@pytest.mark.parametrize("case", BAD_ATOMS)
def test_bad_jump_atoms_are_refused_on_every_route(route, case):
    jumps, probs, match = BAD_ATOMS[case]
    with pytest.raises(LawSpecError, match=match):
        ATOM_ROUTES[route](jumps, probs)


def test_triplet_with_unknown_top_level_key_is_refused():
    # a transform output of the old layout put "rays" beside "levy"
    doc = triplet_doc(levy={}, rays=[{"dir": [1.0], "atoms": [{"r": 0.5, "m": 2.0}]}])
    with pytest.raises(LawSpecError, match="unknown fields \\['rays'\\]"):
        law_from_dict(doc)


def one_ray(**fields):
    return triplet_doc(levy={"rays": [{"dir": [1.0], **fields}]})


GAUSSIAN_DOC = {"closed_form": "gaussian", "params": {"mean": [0.0], "cov": [[4.0]]}}
# one misspelled or extra key per level of a document: (document, the key)
UNKNOWN_KEY_DOCS = {
    "closed-form top level": ({**GAUSSIAN_DOC, "parms": {}}, "parms"),
    "closed-form params": (
        {"closed_form": "gaussian", "params": {"mean": [0.0], "covv": [[4.0]]}}, "covv"
    ),
    "convolution top level": ({"convolve": [GAUSSIAN_DOC], "rate": 2.0}, "rate"),
    "levy": (triplet_doc(levy={"rayz": []}), "rayz"),
    "ray": (one_ray(segmets=[{"lo": 0.0, "hi": 1.0, "c": 1.0, "p": -0.5}]), "segmets"),
    "atom": (one_ray(atoms=[{"r": 0.5, "m": 2.0, "mass": 1.0}]), "mass"),
    "segment": (one_ray(segments=[{"lo": 0.0, "hi": 1.0, "c": 1.0, "pp": -0.5}]), "pp"),
    "grid_tail": (
        one_ray(grid_tail={"radii": [1.0, 2.0], "tail": [0.5, 0.0], "tails": []}), "tails"
    ),
}


@pytest.mark.parametrize("doc, key", UNKNOWN_KEY_DOCS.values(), ids=UNKNOWN_KEY_DOCS.keys())
def test_unknown_keys_are_refused_at_every_level(doc, key):
    with pytest.raises(LawSpecError, match=f"unknown fields \\['{key}'\\]; known: "):
        law_from_dict(doc)


def test_closed_form_refuses_unknown_parameters():
    with pytest.raises(LawSpecError, match="unknown fields \\['covv'\\]; known: mean, cov"):
        closed_form("gaussian", covv=[[4.0]])


def test_own_errors_are_not_rewrapped():
    doc = triplet_doc()
    doc["levy"]["rays"][0] = {
        "dir": [1.0],
        "segments": [{"lo": 0.0, "hi": 1.0, "c": 1.0, "p": -3.0}],
    }
    with pytest.raises(InvalidMeasureError) as exc:
        law_from_dict(doc)
    assert not isinstance(exc.value, LawSpecError)


class TestConvolveDocs:
    def test_parts_are_merged(self):
        law = law_from_dict(BUILTIN_LAWS["gauss_cp_mix"])
        assert law.name == "convolution"
        assert law.triplet is not None
        assert law.triplet.cov[0, 0] == 1.0
        assert law.sim is not None and law.sim.rate == 2.0
        assert law.sim.diffusion[0, 0] == 1.0

    def test_exponent_is_the_sum(self):
        law = law_from_dict(BUILTIN_LAWS["gauss_cp_mix"])
        g = law_from_dict(BUILTIN_LAWS["gaussian"])
        cp = law_from_dict(BUILTIN_LAWS["cp"])
        y = 1.1
        assert law.exponent(y) == pytest.approx(
            g.exponent(y) + cp.exponent(y), abs=1e-14
        )

    def test_empty_list_rejected(self):
        with pytest.raises(LawSpecError):
            law_from_dict({"convolve": []})

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(LawSpecError, match="dimension"):
            law_from_dict(
                {
                    "convolve": [
                        {"closed_form": "dirac", "params": {"shift": [0.1]}},
                        {"closed_form": "dirac", "params": {"shift": [0.1, 0.2]}},
                    ]
                }
            )

    def test_sim_dropped_when_any_part_lacks_one(self):
        law = law_from_dict(
            {
                "convolve": [
                    {"closed_form": "dirac", "params": {"shift": [0.1]}},
                    {"closed_form": "levy_area_bdlp", "params": {"u": 1.0}},
                ]
            }
        )
        assert law.sim is None and law.triplet is None


class TestFiles:
    def test_load_from_file(self, tmp_path):
        path = tmp_path / "law.json"
        path.write_text(json.dumps(BUILTIN_LAWS["cp"]))
        law = load_law(str(path))
        assert law.sim.rate == 2.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(LawSpecError, match="cannot read"):
            load_law(str(tmp_path / "nope.json"))

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(LawSpecError, match="not valid JSON"):
            load_law(str(path))

    def test_non_object_document(self):
        with pytest.raises(LawSpecError, match="JSON object"):
            law_from_dict([1, 2, 3])

    def test_unrecognized_shape(self):
        with pytest.raises(LawSpecError, match="closed_form"):
            law_from_dict({"foo": 1})


class TestBuiltins:
    def test_all_builtins_load(self):
        for name in BUILTIN_LAWS:
            law = builtin_law(name)
            assert law.name == name
            assert law.dim == 1
            assert abs(law.exponent(0.0)) < 1e-12

    def test_unknown_builtin(self):
        with pytest.raises(LawSpecError, match="unknown builtin"):
            builtin_law("cauchy")


# documents whose triplet regroups the atoms: by direction, in order of
# first appearance, with the compensation of those inside the unit ball
REGROUPED_DOCS = {
    "interleaved atoms": {
        "closed_form": "compound_poisson",
        "params": {"rate": 1.5, "jumps": [2.0, -1.25, 0.75], "probs": [0.25, 0.25, 0.5]},
    },
    "2-d atoms": {
        "closed_form": "compound_poisson",
        "params": {"rate": 2.0, "jumps": [[3.0, 4.0], [0.0, 1.0], [-0.3, 0.4], [0.6, 0.8]]},
    },
    "atoms inside the unit ball": {
        "closed_form": "compound_poisson",
        "params": {"rate": 1.0, "jumps": [[0.5], [-0.25], [2.0]], "probs": [0.5, 0.25, 0.25]},
    },
    "convolve with a small jump": {"convolve": [
        {"closed_form": "gaussian", "params": {"mean": [0.3], "cov": [[0.5]]}},
        {"closed_form": "compound_poisson", "params": {"rate": 0.5, "jumps": [[0.5]]}},
    ]},
    "2-d convolve": {"convolve": [
        {"closed_form": "gaussian", "params": {"mean": [0.1, -0.2], "cov": [[1.0, 0.3], [0.3, 0.5]]}},
        {"closed_form": "dirac", "params": {"shift": [0.7, 0.0]}},
        {"closed_form": "compound_poisson",
         "params": {"rate": 3.0, "jumps": [[0.3, -0.4], [1.0, 2.0], [0.6, -0.8]]}},
    ]},
}
CLOSED_FORM_DOCS = {**{f"builtin {k}": v for k, v in BUILTIN_LAWS.items()}, **REGROUPED_DOCS}


def closed_form_of(doc):
    """The exponent of a closed-form or convolve document, built from the closed-form callbacks."""
    if "convolve" in doc:
        return convolve(*(closed_form_of(part) for part in doc["convolve"]))
    return closed_form(doc["closed_form"], **doc["params"])


@pytest.mark.parametrize("doc", CLOSED_FORM_DOCS.values(), ids=CLOSED_FORM_DOCS.keys())
def test_loaded_exponent_matches_the_closed_forms(doc):
    law = law_from_dict(doc)
    grid = default_grid(law.dim)
    want = closed_form_of(doc).eval_grid(grid)
    got = law.exponent.eval_grid(grid)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


# sha256 of n = 5000 samples (one whole block and part of a second) at
# seed 11 and beta 1.3, drawn from the sampler spec of each builtin law
SAMPLE_DIGESTS = {
    "gaussian/jbeta": "67af9a0c2ab9bbda54bbb39bc70386a8fd5feb904ea562af2d1b9c88ce729e68",
    "gaussian/ijbeta": "03f22324c121c0ce90d3b3fe657a943b6076644633431c0720a006432c797877",
    "drift/jbeta": "505505da0b17e1677f3edd5faba50a74c8cdc70e2ac8f634937a6413593bef4d",
    "drift/ijbeta": "e05b50eafd5982f00238d95e836af6a27d0de6989c8fa683b13ce014cdeeca41",
    "cp/jbeta": "b5c243b2d7ec9d417e463a35a6801471160735b3798054dbfc393d1077e7090c",
    "cp/ijbeta": "dd8bbaa1863cb3c2d5ac6aa8657b923d8b7a78e9ee32c2bb9b84e1a32a7fa3f5",
    "gauss_cp_mix/jbeta": "8b878fa64f2a49956677178671b4d0f9a624ee5120ff928d02a53114c4e4b9c9",
    "gauss_cp_mix/ijbeta": "86e7b4efd614d410db33975380100d9d48682bb68f2e7584585c0668d64a966a",
}


def sample_arrays() -> dict[str, np.ndarray]:
    """The jbeta and time-change (ijbeta) samples of each builtin law with a sampler."""
    out = {}
    for name in BUILTIN_LAWS:
        spec = builtin_law(name).sim
        if spec is None:
            continue
        for m in (maps.jbeta_map(1.3), maps.i_jbeta_map(1.3)):
            out[f"{name}/{m.kind}"] = sample_integral(spec, m, 5000, seed=11)
    return out


def sample_digests(arrays: dict[str, np.ndarray] | None = None) -> dict[str, str]:
    """sha256 of each of :func:`sample_arrays`' bytes."""
    arrays = sample_arrays() if arrays is None else arrays
    return {key: hashlib.sha256(v.tobytes()).hexdigest() for key, v in arrays.items()}


def moved_samples(old: dict, new: dict) -> list[str]:
    return [key for key in sorted(set(old) | set(new)) if old.get(key) != new.get(key)]


def test_builtin_law_samples_keep_their_bytes():
    assert moved_samples(SAMPLE_DIGESTS, sample_digests()) == []


if __name__ == "__main__":
    # the digests to pin, then the keys that moved; the arrays behind them go
    # to the .npz file named on the command line (see digest_diff.py)
    from digest_diff import save_arrays

    arrays = sample_arrays()
    new = sample_digests(arrays)
    print(json.dumps(new, indent=4))
    for key in moved_samples(SAMPLE_DIGESTS, new):
        print(f"moved: {key}")
    save_arrays(arrays, sys.argv[1:])
