"""End-to-end command line behavior, including exit codes and reports."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import idlaw
import idlaw.cli as cli
import idlaw.factor as factor
import idlaw.maps as maps
from idlaw.errors import QuadratureError
from idlaw.exponent import from_triplet
from idlaw.lawio import law_from_dict, load_law, triplet_to_dict
from idlaw.report import load_report_schema

GOLDEN = Path(__file__).parent / "golden"


def write_law(tmp_path, doc) -> str:
    path = tmp_path / "law.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_module_entry_point_runs_the_cli():
    src = str(Path(idlaw.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-m", "idlaw", "suite", "--help"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert "--config" in out.stdout


class TestParsing:
    def test_no_arguments_is_a_usage_error(self, capsys):
        code, _, _ = run(capsys)
        assert code == 2

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2


class TestEval:
    def test_mapped_point_value(self, capsys, law_files):
        code, out, _ = run(
            capsys, "eval", "--law", law_files["gaussian"], "--map", "jbeta",
            "--beta", "1", "--y", "1.0",
        )
        assert code == 0
        assert out.strip() == "-0.1666666666666667+0j"

    def test_folded_grid_prints_the_rows_of_one_row_calls(self, capsys, law_files, monkeypatch):
        # the default grid is antisymmetric, so the map integrates its upper
        # half only; the text, signed zeros included, is that of evaluating
        # each row on its own
        argv = ("eval", "--law", law_files["cp"], "--map", "jbeta", "--beta", "1")
        _, folded, _ = run(capsys, *argv)
        whole = maps.map_exponent_grid

        def row_by_row(m, phi, Y, tol=None):
            return np.concatenate([whole(m, phi, Y[k : k + 1], tol) for k in range(len(Y))])

        monkeypatch.setattr(maps, "map_exponent_grid", row_by_row)
        _, rows, _ = run(capsys, *argv)
        assert len(folded.splitlines()) == 41
        assert folded == rows

    def test_plain_exponent_grid(self, capsys, law_files, tmp_path):
        out_path = tmp_path / "eval.json"
        code, out, _ = run(
            capsys, "eval", "--law", law_files["gaussian"], "--y", "0.0,1.0,2.0",
            "--out", str(out_path),
        )
        assert code == 0
        assert out.splitlines()[0] == "0+0j"
        doc = json.loads(out_path.read_text())
        assert doc["kind"] == "eval"
        assert doc["rows"][2]["value"][0] == pytest.approx(-2.0)

    def test_missing_law_is_usage_error(self, capsys):
        code, _, err = run(capsys, "eval", "--y", "1.0")
        assert code == 2
        assert "error:" in err

    def test_unreadable_law_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "eval", "--law", str(tmp_path / "no.json"))
        assert code == 2
        assert "cannot read" in err

    def test_malformed_number_in_law_file_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "law.json"
        path.write_text(json.dumps({
            "dim": 1, "shift": [0.0],
            "levy": {"rays": [{"dir": [1.0], "atoms": [{"r": "abc", "m": 1.0}]}]},
        }))
        code, _, err = run(capsys, "eval", "--law", str(path), "--y", "1")
        assert code == 2
        assert "error: malformed law description" in err

    @pytest.mark.parametrize(
        "doc",
        [
            {"closed_form": "gaussian", "params": 5},
            {"dim": 1, "shift": [0.0], "levy": []},
            {"closed_form": "compound_poisson", "params": {"rate": 1.0, "jumps": []}},
        ],
        ids=["params", "levy", "jumps"],
    )
    def test_misshapen_law_file_is_usage_error(self, capsys, tmp_path, doc):
        path = tmp_path / "law.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "eval", "--law", str(path), "--y", "1")
        assert code == 2
        assert err.startswith("error: ")
        assert "Traceback" not in err


    @pytest.mark.parametrize(
        "y, message",
        [
            ("1,2;3", "1 or 2 components"),
            ("1,2;3,x", "cannot parse"),
            ("1,2,3;4,5,6", "3 components"),
        ],
    )
    def test_malformed_points_are_usage_errors(self, capsys, tmp_path, y, message):
        path = tmp_path / "law2.json"
        path.write_text(json.dumps(
            {"closed_form": "gaussian", "params": {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}}
        ))
        code, _, err = run(capsys, "eval", "--law", str(path), "--y", y)
        assert code == 2
        assert err.startswith("error: ") and message in err
        assert run(capsys, "eval", "--law", str(path), "--y", "1,2;3,4")[0] == 0


class TestVerify:
    def test_factorization_passes_and_writes_golden_report(
        self, capsys, law_files, tmp_path
    ):
        out_path = tmp_path / "rep.json"
        code, out, _ = run(
            capsys, "verify", "--identity", "eq3", "--law",
            law_files["gaussian"], "--out", str(out_path),
        )
        assert code == 0
        assert "pass" in out
        doc = json.loads(out_path.read_text())
        jsonschema.validate(doc, load_report_schema())
        assert out_path.read_bytes() == (GOLDEN / "verify_eq3_gaussian.json").read_bytes()

    def test_repeat_runs_are_byte_identical(self, capsys, law_files, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for p in (a, b):
            code, _, _ = run(
                capsys, "verify", "--identity", "eq15", "--law",
                law_files["cp"], "--beta", "2", "--out", str(p),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_grid_override(self, capsys, law_files):
        code, out, _ = run(
            capsys, "verify", "--identity", "cor1a", "--law", law_files["cp"],
            "--y", "0.5,1.0",
        )
        assert code == 0

    @pytest.mark.parametrize("identity, law", [("area", None), ("eq2-timechange", "cp")])
    def test_points_are_the_grid_of_every_grid_identity(
        self, capsys, law_files, tmp_path, identity, law
    ):
        # area reads them as its t values, eq2-timechange as its y grid
        out_path = tmp_path / "rep.json"
        argv = ["verify", "--identity", identity, "--y", "0.5,2", "--out", str(out_path)]
        if law is not None:
            argv += ["--law", law_files[law], "--n", "2000"]
        code, _, _ = run(capsys, *argv)
        assert code == 0
        rows = json.loads(out_path.read_text())["rows"]
        assert np.ravel([row["input"] for row in rows]).tolist() == [0.5, 2.0]

    def test_radius_identity_refuses_points(self, capsys, law_files):
        code, _, err = run(
            capsys, "verify", "--identity", "cor5", "--law", law_files["cp"], "--y", "0.5,1"
        )
        assert code == 2
        assert "cor5" in err and "no grid of points" in err

    def test_unknown_identity(self, capsys, law_files):
        code, _, err = run(
            capsys, "verify", "--identity", "eq99", "--law", law_files["cp"]
        )
        assert code == 2
        assert "unknown identity" in err

    def test_missing_law(self, capsys):
        code, _, err = run(capsys, "verify", "--identity", "eq3")
        assert code == 2
        assert "needs --law" in err

    def test_spectral_identity_needs_jump_measure(self, capsys, law_files):
        code, _, err = run(
            capsys, "verify", "--identity", "cor5", "--law", law_files["gaussian"]
        )
        assert code == 2
        assert "jump measure" in err

    def test_spectral_identity_on_jump_law(self, capsys, law_files):
        code, out, _ = run(
            capsys, "verify", "--identity", "cor5", "--law", law_files["cp"],
            "--beta", "2",
        )
        assert code == 0

    def test_area_identity_needs_no_law(self, capsys):
        code, out, _ = run(capsys, "verify", "--identity", "area", "--u", "2.0")
        assert code == 0
        assert "pass" in out

    def test_monte_carlo_identity(self, capsys, law_files):
        code, out, _ = run(
            capsys, "verify", "--identity", "eq2-timechange", "--law",
            law_files["cp"], "--beta", "1", "--n", "2000", "--seed", "7",
        )
        assert code == 0
        assert "worst |z|" in out

    def test_impossible_tolerance_fails(self, capsys, law_files):
        code, out, _ = run(
            capsys, "verify", "--identity", "eq3", "--law", law_files["cp"],
            "--tol", "1e-20",
        )
        assert code == 1
        assert "FAIL" in out

    def test_quadrature_failure_exit_code(self, capsys, law_files, monkeypatch):
        def boom(*a, **kw):
            raise QuadratureError("no convergence", value=None, error_estimate=1.0)

        monkeypatch.setattr(factor, "verify_factorization", boom)
        code, _, err = run(
            capsys, "verify", "--identity", "eq3", "--law", law_files["gaussian"]
        )
        assert code == 1
        assert "quadrature failure:" in err


# covariances that are not positive semidefinite, beside a jump segment
SEGMENT = {"segments": [{"lo": 0.5, "hi": 2.0, "c": 1.0, "p": 0.0}]}
BAD_COV_LAWS = {
    "negative": {"dim": 1, "shift": [0.0], "cov": [[-1.0]],
                 "levy": {"rays": [{"dir": [1.0], **SEGMENT}]}},
    "asymmetric": {"dim": 2, "shift": [0.0, 0.0], "cov": [[1.0, 0.9], [0.0, 1.0]],
                   "levy": {"rays": [{"dir": [1.0, 0.0], **SEGMENT}]}},
}


@pytest.mark.parametrize("kind", BAD_COV_LAWS)
@pytest.mark.parametrize("command", ["eval", "transform"])
def test_invalid_covariance_is_refused(capsys, tmp_path, command, kind):
    law = write_law(tmp_path, BAD_COV_LAWS[kind])
    beta = ["--beta", "1"] if command == "transform" else []
    code, out, err = run(capsys, command, "--law", law, *beta)
    assert code == 2
    assert "error: cov" in err and not out


class TestTransform:
    def test_stdout_document(self, capsys, law_files):
        code, out, _ = run(
            capsys, "transform", "--law", law_files["cp"], "--beta", "1"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "transform"
        jsonschema.validate(doc, load_report_schema())
        rays = doc["triplet"]["levy"]["rays"]
        assert {tuple(r["dir"]) for r in rays} == {(1.0,), (-1.0,)}
        seg = rays[0]["segments"][0]
        assert seg["lo"] == 0.0 and seg["hi"] == 2.0

    def test_out_file(self, capsys, law_files, tmp_path):
        path = tmp_path / "trip.json"
        code, out, _ = run(
            capsys, "transform", "--law", law_files["gaussian"], "--beta", "2",
            "--out", str(path),
        )
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["triplet"]["cov"][0][0] == pytest.approx(0.5)

    @pytest.mark.parametrize("kind, beta", [("i", None), ("ubetaf", 1.3), ("ijbeta", 1.3)])
    def test_every_map_image_reloads_as_map_triplet(self, capsys, law_files, kind, beta):
        flags = [] if beta is None else ["--beta", str(beta)]
        code, out, _ = run(
            capsys, "transform", "--law", law_files["cp"], "--map", kind, *flags
        )
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, load_report_schema())
        assert (doc["map"], doc["beta"]) == (kind, beta)
        image = law_from_dict(doc["triplet"]).triplet
        direct = maps.map_triplet(maps.IntegralMap(kind, beta), load_law(law_files["cp"]).triplet)
        assert triplet_to_dict(image) == triplet_to_dict(direct) == doc["triplet"]

    def test_law_without_triplet(self, capsys, law_files):
        code, _, err = run(
            capsys, "transform", "--law", law_files["levy_area_bdlp"],
            "--beta", "1",
        )
        assert code == 2
        assert "triplet" in err

    def test_missing_beta(self, capsys, law_files):
        code, _, err = run(capsys, "transform", "--law", law_files["cp"])
        assert code == 2

    def segment_law(self, tmp_path, segments, atoms=()):
        doc = {"dim": 1, "shift": [0.1], "cov": [[0.0]],
               "levy": {"rays": [{"dir": [1.0], "segments": segments, "atoms": list(atoms)}]}}
        return write_law(tmp_path, doc)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 1.3])
    def test_image_reloads_as_the_same_triplet(self, capsys, tmp_path, beta):
        law = self.segment_law(
            tmp_path,
            [
                {"lo": 0.2, "hi": 2.0, "c": 0.3, "p": 0.5},
                {"lo": 1.0, "hi": "inf", "c": 0.2, "p": -2.5},
            ],
            atoms=[{"r": 0.5, "m": 1.0}],
        )
        code, out, _ = run(capsys, "transform", "--law", law, "--beta", str(beta))
        assert code == 0
        doc = json.loads(out)["triplet"]
        image = law_from_dict(doc).triplet
        assert triplet_to_dict(image) == doc
        direct = maps.jbeta_triplet(load_law(law).triplet, beta)
        grid = factor.default_grid(1)
        assert (
            from_triplet(image).eval_grid(grid).tobytes()
            == from_triplet(direct).eval_grid(grid).tobytes()
        )
        twice = maps.jbeta_triplet(direct, beta)
        assert triplet_to_dict(maps.jbeta_triplet(image, beta)) == triplet_to_dict(twice)

    def test_segment_image_is_exact_and_keeps_the_log_form(self, capsys, tmp_path):
        # p - beta + 1 = 0: the (0.5, 3) piece of the image is in log form,
        # its e the exact offset of the doubles 0.3 and 1.3, -2**-54
        e = float(Fraction(0.3) + 1 - Fraction(1.3))
        assert e == -(2.0 ** -54)
        law = self.segment_law(tmp_path, [{"lo": 0.5, "hi": 3.0, "c": 0.3, "p": 0.3}])
        code, out, _ = run(capsys, "transform", "--law", law, "--beta", "1.3")
        assert code == 0
        (ray_,) = json.loads(out)["triplet"]["levy"]["rays"]
        assert ray_["grid_tail"] is None
        assert [s.get("e") for s in ray_["segments"]] == [None, e]
        assert ray_["segments"][1] == {"lo": 0.5, "hi": 3.0, "c": 0.39, "p": 0.3, "e": e}


@pytest.mark.parametrize("y", ["nan", "inf", "1,-inf", "0.5,nan,2"])
@pytest.mark.parametrize("head", [
    ["eval"],
    ["verify", "--identity", "eq3"],
    ["simulate", "--map", "jbeta", "--beta", "1", "--n", "8", "--seed", "0"],
])
def test_nonfinite_points_are_usage_errors(capsys, law_files, head, y):
    code, out, err = run(capsys, *head, "--law", law_files["cp"], f"--y={y}")
    assert code == 2
    assert err.startswith("error: ") and "must be finite" in err and not out


class TestSimulate:
    def test_report_validates_and_passes(self, capsys, law_files, tmp_path):
        rep_path = tmp_path / "mc.json"
        code, out, _ = run(
            capsys, "simulate", "--law", law_files["cp"], "--map", "ijbeta",
            "--beta", "2", "--n", "4000", "--seed", "3",
            "--y", "0.5,1.0,1.5", "--report", str(rep_path),
        )
        assert code == 0
        doc = json.loads(rep_path.read_text())
        jsonschema.validate(doc, load_report_schema())
        assert doc["kind"] == "mc"
        assert doc["params"] == {
            "map": "ijbeta", "beta": 2.0, "n": 4000, "seed": 3, "s_max": 30.0,
        }

    def test_unsimulable_law(self, capsys, law_files):
        code, _, err = run(
            capsys, "simulate", "--law", law_files["levy_area_bdlp"], "--map",
            "jbeta", "--beta", "1", "--n", "8", "--seed", "0",
        )
        assert code == 2
        assert "not simulable" in err

    @staticmethod
    def sampler_head(command):
        if command == "simulate":
            return ["simulate", "--map", "jbeta", "--beta", "1"]
        return ["verify", "--identity", "eq2-timechange"]

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    @pytest.mark.parametrize("flag, value", [("--n", "0"), ("--seed", "-1")])
    def test_bad_sampler_arguments_are_usage_errors(self, capsys, law_files, command, flag, value):
        args = {"--n": "8", "--seed": "0", flag: value}
        code, _, err = run(
            capsys, *self.sampler_head(command), "--law", law_files["gauss_cp_mix"],
            *[part for item in args.items() for part in item],
        )
        assert code == 2
        assert f"error: argument {flag}" in err

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_workers_flag_is_gone(self, capsys, law_files, command):
        code, out, err = run(
            capsys, *self.sampler_head(command), "--law", law_files["gauss_cp_mix"],
            "--n", "8", "--seed", "0", "--workers", "2",
        )
        assert code == 2
        assert "unrecognized arguments: --workers 2" in err and not out

    # the cp law (rate 2, jumps +-2) has |Phi(z)| <= 4|z|, so s_max 16 may
    # discard 2.3e-6 of its exponent at |y| = 5, and s_max 17 8.3e-7 at 5
    # but 3.3e-6 at the grid's 20
    @pytest.mark.parametrize("s_max, y", [("16", None), ("17", "-20,-5,5,20")])
    def test_short_horizons_are_usage_errors(self, capsys, law_files, s_max, y):
        grid = [] if y is None else [f"--y={y}"]
        code, out, err = run(
            capsys, "simulate", "--law", law_files["cp"], "--map", "ijbeta", "--beta", "1",
            "--n", "4096", "--seed", "1", f"--s-max={s_max}", *grid,
        )
        assert code == 2
        assert err.startswith("error: s_max=") and "increase the horizon" in err
        assert "Traceback" not in err and not out

    @pytest.mark.parametrize(
        "head, flag",
        [
            (["eval", "--map", "jbeta"], "--beta"),
            (["eval"], "--tol"),
            (["transform"], "--beta"),
            (["verify", "--identity", "eq3"], "--beta"),
            (["verify", "--identity", "eq3"], "--tol"),
            (["verify", "--identity", "cor5"], "--cor5-tol"),
            (["verify", "--identity", "area"], "--u"),
            (["verify", "--identity", "eq2-timechange"], "--z-max"),
            (["simulate", "--map", "jbeta", "--beta", "1", "--n", "8", "--seed", "0"], "--z-max"),
            (["simulate", "--map", "ijbeta", "--beta", "1", "--n", "8", "--seed", "0"], "--s-max"),
            (["simulate", "--map", "jbeta", "--n", "8", "--seed", "0"], "--beta"),
            # the area check as it is run, without a law
            (["verify", "--identity=area"], "--u"),
            (["verify", "--identity=area"], "--tol"),
        ],
    )
    @pytest.mark.parametrize("value", ["0", "-1", "inf"])
    def test_nonpositive_numeric_flags_are_usage_errors(
        self, capsys, law_files, head, flag, value
    ):
        law = [] if head[-1] == "--identity=area" else ["--law", law_files["cp"]]
        code, _, err = run(capsys, *head, *law, f"{flag}={value}")
        assert code == 2
        assert f"error: argument {flag}" in err

    def test_map_choices_enforced(self, capsys, law_files):
        code, _, _ = run(
            capsys, "simulate", "--law", law_files["cp"], "--map", "i",
            "--beta", "1", "--n", "8", "--seed", "0",
        )
        assert code == 2


class TestAreaDemo:
    def test_matches_golden_report(self, capsys, tmp_path):
        path = tmp_path / "area.json"
        code, _, _ = run(capsys, "verify", "--identity", "area", "--u", "1.0", "--out", str(path))
        assert code == 0
        assert path.read_bytes() == (GOLDEN / "area_demo_u1.json").read_bytes()


class TestSuite:
    def write_config(self, tmp_path, doc):
        path = tmp_path / "conf.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_default_stdout_matches_golden(self, capsys):
        code, out, _ = run(capsys, "suite")
        assert code == 0
        assert out.encode() == (GOLDEN / "suite_default.txt").read_bytes()

    def test_small_suite_passes_with_csv_report(self, capsys, tmp_path):
        conf = self.write_config(
            tmp_path,
            {
                "identities": ["eq3", "area"],
                "laws": ["gaussian", "drift"],
                "betas": [1.0, 2.0],
                "tol": 1e-8,
                "area_u": [1.0],
            },
        )
        out_path = tmp_path / "suite.csv"
        code, out, _ = run(
            capsys, "suite", "--config", conf, "--out", str(out_path),
            "--format", "csv",
        )
        assert code == 0
        assert "0 failed" in out
        text = out_path.read_text()
        assert text.startswith("identity,label,passed,metric")
        assert "eq3,gaussian beta=1,1," in text
        json_path = tmp_path / "suite.json"
        assert run(capsys, "suite", "--config", conf, "--out", str(json_path))[0] == 0
        checks = json.loads(json_path.read_text())["checks"]
        assert [c["params"] for c in checks if c["identity"] == "area"] == [{"u": 1.0}]
        assert {c["params"]["beta"] for c in checks if c["identity"] == "eq3"} == {1.0, 2.0}

    @pytest.mark.parametrize(
        "doc, identity, key, values",
        [
            ({"identities": ["eq3"], "laws": ["gaussian", "drift"]}, "eq3", "beta",
             cli.DEFAULT_SUITE_CONFIG["betas"] * 2),
            ({"identities": ["area"]}, "area", "u", cli.DEFAULT_SUITE_CONFIG["area_u"]),
        ],
        ids=["betas", "area_u"],
    )
    def test_omitted_sweeps_take_the_defaults(self, capsys, tmp_path, doc, identity, key, values):
        conf = self.write_config(tmp_path, doc)
        path = tmp_path / "suite.json"
        assert run(capsys, "suite", "--config", conf, "--out", str(path))[0] == 0
        checks = json.loads(path.read_text())["checks"]
        assert {c["identity"] for c in checks} == {identity}
        assert [c["params"][key] for c in checks] == values

    def test_failing_suite_exits_one(self, capsys, tmp_path):
        conf = self.write_config(
            tmp_path,
            {"identities": ["eq3"], "laws": ["cp"], "betas": [1.0], "tol": 1e-20},
        )
        code, out, _ = run(capsys, "suite", "--config", conf)
        assert code == 1
        assert "FAIL" in out

    def test_empty_identities_rejected(self, capsys, tmp_path):
        conf = self.write_config(tmp_path, {"identities": []})
        code, _, err = run(capsys, "suite", "--config", conf)
        assert code == 2
        assert "empty identity list" in err

    def test_unknown_identity_rejected(self, capsys, tmp_path):
        conf = self.write_config(
            tmp_path, {"identities": ["eq3", "lemma9"], "laws": ["gaussian"]}
        )
        code, _, err = run(capsys, "suite", "--config", conf)
        assert code == 2
        assert "lemma9" in err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("tol", -1),
            ("tol", "tight"),
            ("cor5_tol", 0),
            ("betas", [-1.0]),
            ("betas", [1.0, 0.0]),
            ("area_u", [-2.0]),
            ("mc", {"z_max": 0}),
            ("mc", {"betas": [-1.0]}),
            ("mc", {"n": 0}),
            ("mc", {"seed": -1}),
            ("tol", float("inf")),
        ],
    )
    def test_nonpositive_numbers_are_usage_errors(self, capsys, tmp_path, field, value):
        conf = self.write_config(
            tmp_path, {"identities": ["eq3"], "laws": ["gaussian"], field: value}
        )
        code, _, err = run(capsys, "suite", "--config", conf)
        assert code == 2
        assert err.startswith(f"error: suite config '{field}")

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"mc": 5}, "suite config 'mc' must be an object"),
            ({"identities": ["eq3"], "laws": ["gaussian"], "mc": []}, "suite config 'mc' must be an object"),
            ([{"identities": ["eq3"]}], "suite config must be an object"),
            ({"identities": "eq3"}, "suite config 'identities' must be a list"),
            ({"identities": ["eq3"], "laws": "cp"}, "suite config 'laws' must be a list"),
            ({"identities": [["eq3"]]}, "unknown identities"),
        ],
    )
    def test_misshapen_config_is_usage_error(self, capsys, tmp_path, doc, message):
        code, _, err = run(capsys, "suite", "--config", self.write_config(tmp_path, doc))
        assert code == 2
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"identities": ["eq3"], "betaz": [2.0]}, "suite config has unknown fields ['betaz']"),
            ({"identities": ["eq2-timechange"], "mc": {"nn": 5}},
             "suite config 'mc' has unknown fields ['nn']"),
        ],
        ids=["config", "mc"],
    )
    def test_unknown_config_keys_are_usage_errors(self, capsys, tmp_path, doc, message):
        code, _, err = run(capsys, "suite", "--config", self.write_config(tmp_path, doc))
        assert code == 2
        assert message in err and "known: " in err

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "suite", "--config", str(tmp_path / "no.json"))
        assert code == 2
