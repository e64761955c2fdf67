"""End-to-end command line behavior, including exit codes and reports."""

import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import idlaw.cli as cli
import idlaw.factor as factor
from idlaw.errors import QuadratureError
from idlaw.report import load_report_schema

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


class TestTransform:
    def test_stdout_document(self, capsys, law_files):
        code, out, _ = run(
            capsys, "transform", "--law", law_files["cp"], "--beta", "1"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "transform"
        rays = doc["triplet"]["rays"]
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

    def test_only_power_map_supported(self, capsys, law_files):
        code, _, err = run(
            capsys, "transform", "--law", law_files["cp"], "--map", "ijbeta",
            "--beta", "1",
        )
        assert code == 2

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


class TestSimulate:
    def test_csv_output_worker_invariant(self, capsys, law_files, tmp_path):
        outs = []
        for w in ("1", "2"):
            path = tmp_path / f"s{w}.csv"
            code, _, _ = run(
                capsys, "simulate", "--law", law_files["gauss_cp_mix"], "--map",
                "jbeta", "--beta", "1", "--n", "257", "--seed", "11",
                "--workers", w, "--out", str(path),
            )
            assert code == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

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

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    @pytest.mark.parametrize("flag, value", [("--n", "0"), ("--workers", "0"), ("--seed", "-1")])
    def test_bad_sampler_arguments_are_usage_errors(self, capsys, law_files, command, flag, value):
        args = {"--n": "8", "--seed": "0", "--workers": "1", flag: value}
        head = (
            ["simulate", "--map", "jbeta", "--beta", "1"]
            if command == "simulate"
            else ["verify", "--identity", "eq2-timechange"]
        )
        code, _, err = run(
            capsys, *head, "--law", law_files["gauss_cp_mix"],
            *[part for item in args.items() for part in item],
        )
        assert code == 2
        assert f"error: argument {flag}" in err

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
            (["area-demo"], "--u"),
            (["area-demo"], "--tol"),
        ],
    )
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_nonpositive_numeric_flags_are_usage_errors(
        self, capsys, law_files, head, flag, value
    ):
        law = [] if head[0] == "area-demo" else ["--law", law_files["cp"]]
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
        code, out, _ = run(capsys, "area-demo", "--u", "1.0", "--out", str(path))
        assert code == 0
        assert "cosh" in out
        assert path.read_bytes() == (GOLDEN / "area_demo_u1.json").read_bytes()


class TestSuite:
    def write_config(self, tmp_path, doc):
        path = tmp_path / "conf.json"
        path.write_text(json.dumps(doc))
        return str(path)

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

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "suite", "--config", str(tmp_path / "no.json"))
        assert code == 2
