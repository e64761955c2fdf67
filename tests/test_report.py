"""Report serialization: canonical JSON, CSV tables, and the JSON schema."""

import json
import math

import jsonschema
import numpy as np
import pytest

import idlaw.factor as factor
import idlaw.maps as maps
import idlaw.simulate as sim
from idlaw.report import (
    canonical_json,
    eval_rows_to_csv,
    load_report_schema,
    report_to_csv,
    rows_to_csv,
    suite_rows_to_csv,
    write_report,
)


class TestCanonicalJson:
    def test_sorted_keys_and_trailing_newline(self):
        text = canonical_json({"b": 1, "a": 2})
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')

    def test_equal_documents_serialize_identically(self):
        a = canonical_json({"x": [1, 2], "y": {"k": 0.5}})
        b = canonical_json({"y": {"k": 0.5}, "x": [1, 2]})
        assert a == b

    def test_nan_is_rejected(self):
        with pytest.raises(ValueError):
            canonical_json({"v": math.nan})


class TestCsvTables:
    def rows(self, with_z=False):
        row = {
            "input": 1.5,
            "lhs": [-0.25, 0.0],
            "rhs": [-0.25, 1e-17],
            "residual": 1e-17,
        }
        if with_z:
            row["z"] = [0.1, -0.2]
        return [row]

    def test_identity_rows(self):
        text = rows_to_csv(self.rows())
        lines = text.splitlines()
        assert lines[0] == "input,lhs_re,lhs_im,rhs_re,rhs_im,residual"
        assert lines[1].startswith("1.5,-0.25,0.0,-0.25,")

    def test_mc_rows_add_z_columns(self):
        text = rows_to_csv(self.rows(with_z=True))
        lines = text.splitlines()
        assert lines[0].endswith(",z_re,z_im")
        assert lines[1].endswith(",0.1,-0.2")

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError):
            rows_to_csv([])

    def test_eval_rows(self):
        text = eval_rows_to_csv([{"input": [0.5, 1.0], "value": [-0.1, 0.2]}])
        lines = text.splitlines()
        assert lines[0] == "input,value_re,value_im"
        assert lines[1].endswith(",-0.1,0.2")

    def test_suite_rows(self):
        checks = [
            {"identity": "eq3", "label": "gaussian beta=1", "passed": True,
             "max_residual": 1e-12},
            {"identity": "eq2-timechange", "label": "mix", "passed": False,
             "worst_z": 5.2},
        ]
        text = suite_rows_to_csv(checks)
        lines = text.splitlines()
        assert lines[0] == "identity,label,passed,metric"
        assert lines[1] == "eq3,gaussian beta=1,1,1e-12"
        assert lines[2] == "eq2-timechange,mix,0,5.2"

    def test_report_to_csv_dispatch(self):
        doc = {"kind": "identity", "rows": self.rows()}
        assert report_to_csv(doc).startswith("input,")
        with pytest.raises(ValueError, match="kind"):
            report_to_csv({"kind": "movie", "rows": []})


class TestResiduals:
    def test_residuals_are_correctly_rounded_moduli(self):
        # numpy's complex abs is one ulp off the true modulus on these
        import mpmath as mp

        d = np.array([
            -0.1321048632913019 - 0.5022445517110371j,
            -0.535669373161111 - 1.680333677376483j,
            0.36159505490948474 - 0.12212012008830882j,
        ])
        rep = factor.FactorizationReport(
            "eq3", {"beta": 1.0}, np.arange(3.0), d, np.zeros(3, dtype=complex), 1.0
        )
        with mp.workdps(60):
            want = [float(mp.sqrt(mp.mpf(z.real) ** 2 + mp.mpf(z.imag) ** 2)) for z in d]
        assert rep.residuals.tolist() == want
        assert [row["residual"] for row in rep.rows()] == want


class TestWriteReport:
    def test_json_roundtrip(self, tmp_path):
        path = tmp_path / "r.json"
        write_report({"kind": "suite", "checks": []}, str(path))
        assert json.loads(path.read_text()) == {"kind": "suite", "checks": []}

    def test_csv_output(self, tmp_path):
        path = tmp_path / "r.csv"
        doc = {
            "kind": "eval",
            "rows": [{"input": 1.0, "value": [0.0, 0.0]}],
        }
        write_report(doc, str(path), fmt="csv")
        assert path.read_text().startswith("input,value_re,value_im")

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            write_report({}, str(tmp_path / "r.x"), fmt="yaml")


class TestSchema:
    def test_schema_itself_is_valid_draft7(self):
        jsonschema.Draft7Validator.check_schema(load_report_schema())

    def test_identity_report_validates(self, gaussian_phi):
        rep = factor.verify_factorization(
            gaussian_phi, 1.0, grid=np.linspace(-1.0, 1.0, 5)[:, None]
        )
        jsonschema.validate(rep.to_dict(), load_report_schema())

    def test_mc_report_validates(self):
        spec = sim.SimSpec(1, [0.0], 1.0)
        rep = sim.mc_vs_quadrature(
            spec, maps.jbeta_map(1.0), [0.5, 1.0], n=256, seed=3
        )
        jsonschema.validate(rep.to_dict(), load_report_schema())

    def test_area_report_validates(self):
        rep = factor.levy_area_demo(1.0, t_grid=np.array([0.5, 1.0]))
        jsonschema.validate(rep.to_dict(), load_report_schema())

    def test_schema_rejects_malformed_row(self):
        doc = {
            "kind": "identity",
            "identity": "eq3",
            "params": {},
            "tol": 1e-8,
            "max_residual": 0.0,
            "passed": True,
            "rows": [{"input": 1.0, "lhs": [0.0], "rhs": [0.0, 0.0],
                      "residual": 0.0}],
        }
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, load_report_schema())
