"""Check reports: their shared shape, canonical JSON and flat CSV.

Complex values are encoded as [real, imag] pairs. JSON output is canonical
(sorted keys, two-space indent, trailing newline) so byte comparison of
reports is meaningful. The published schema for every JSON report lives in
``schemas/report.schema.json``.
"""

from __future__ import annotations

import io
import json
import operator
from dataclasses import dataclass
from importlib import resources
from typing import Any, Callable, ClassVar, Mapping

import numpy as np


@dataclass(frozen=True, eq=False)
class CheckReport:
    """Shape shared by every check report.

    A check compares a left and a right side pointwise on a grid of
    inputs and passes when its score is ``within`` its limit. A subclass
    sets ``kind``, the summary ``template``, and the names of the
    attributes holding the score and the limit, which also key them in
    the JSON document; it adds its own per-row and top-level fields
    through ``_extra_row`` and ``_extra_doc``.
    """

    kind: ClassVar[str]
    template: ClassVar[str]
    score_key: ClassVar[str] = "max_residual"
    limit_key: ClassVar[str] = "tol"
    within: ClassVar[Callable[[float, float], bool]] = operator.lt
    # one-component inputs are written as plain numbers instead of lists
    scalar_inputs: ClassVar[bool] = True

    identity: str
    params: Mapping[str, Any]
    grid: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray

    @property
    def residuals(self) -> np.ndarray:
        return np.abs(self.lhs - self.rhs)

    @property
    def passed(self) -> bool:
        return self.within(getattr(self, self.score_key), getattr(self, self.limit_key))

    def summary(self) -> str:
        return self.template.format(r=self, word="pass" if self.passed else "FAIL")

    def _extra_row(self, k: int) -> dict:
        return {}

    def _extra_doc(self) -> dict:
        return {}

    def rows(self) -> list[dict]:
        residuals = self.residuals
        out = []
        for k, point in enumerate(self.grid):
            inp = [float(v) for v in np.atleast_1d(point)]
            out.append(
                {
                    "input": inp[0] if self.scalar_inputs and len(inp) == 1 else inp,
                    "lhs": [self.lhs[k].real, self.lhs[k].imag],
                    "rhs": [self.rhs[k].real, self.rhs[k].imag],
                    "residual": float(residuals[k]),
                    **self._extra_row(k),
                }
            )
        return out

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "identity": self.identity,
            "params": dict(self.params),
            self.score_key: getattr(self, self.score_key),
            self.limit_key: getattr(self, self.limit_key),
            "passed": self.passed,
            "rows": self.rows(),
            **self._extra_doc(),
        }


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _fmt_input(value) -> str:
    if isinstance(value, (list, tuple)):
        return ";".join(repr(float(v)) for v in value)
    return repr(float(value))


def rows_to_csv(rows: list[dict]) -> str:
    """Flat table for identity/mc rows: input, lhs, rhs, residual (+ z)."""
    if not rows:
        raise ValueError("no rows to serialize")
    with_z = "z" in rows[0]
    out = io.StringIO()
    header = "input,lhs_re,lhs_im,rhs_re,rhs_im,residual"
    if with_z:
        header += ",z_re,z_im"
    out.write(header + "\n")
    for row in rows:
        cells = [
            _fmt_input(row["input"]),
            repr(float(row["lhs"][0])),
            repr(float(row["lhs"][1])),
            repr(float(row["rhs"][0])),
            repr(float(row["rhs"][1])),
            repr(float(row["residual"])),
        ]
        if with_z:
            cells += [repr(float(row["z"][0])), repr(float(row["z"][1]))]
        out.write(",".join(cells) + "\n")
    return out.getvalue()


def eval_rows_to_csv(rows: list[dict]) -> str:
    out = io.StringIO()
    out.write("input,value_re,value_im\n")
    for row in rows:
        out.write(
            ",".join(
                [
                    _fmt_input(row["input"]),
                    repr(float(row["value"][0])),
                    repr(float(row["value"][1])),
                ]
            )
            + "\n"
        )
    return out.getvalue()


def suite_rows_to_csv(checks: list[dict]) -> str:
    out = io.StringIO()
    out.write("identity,label,passed,metric\n")
    for c in checks:
        metric = c.get("max_residual", c.get("worst_z", ""))
        out.write(
            f"{c['identity']},{c.get('label', '')},{int(c['passed'])},{metric}\n"
        )
    return out.getvalue()


def report_to_csv(doc: dict) -> str:
    kind = doc.get("kind")
    if kind in ("identity", "mc", "area"):
        return rows_to_csv(doc["rows"])
    if kind == "eval":
        return eval_rows_to_csv(doc["rows"])
    if kind == "suite":
        return suite_rows_to_csv(doc["checks"])
    raise ValueError(f"no CSV form for report kind {kind!r}")


def write_report(doc: dict, path: str, fmt: str = "json") -> None:
    if fmt == "json":
        text = canonical_json(doc)
    elif fmt == "csv":
        text = report_to_csv(doc)
    else:
        raise ValueError(f"unknown format {fmt!r}; expected json or csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_report_schema() -> dict:
    with resources.files("idlaw").joinpath("schemas/report.schema.json").open(
        "r", encoding="utf-8"
    ) as fh:
        return json.load(fh)
