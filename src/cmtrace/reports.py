"""Table and report emission with a stable schema.

Tables go out as JSON lines (one object per row) or CSV with the same
field order; exact rationals are rendered as "num/den" strings so no
reader ever coerces them through floats.  Reports are single JSON
documents.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

TRACE_FIELDS = ["D", "p", "f", "trace", "residual", "certified", "precision"]
CLASSNUM_FIELDS = ["D", "H"]
FORM_FIELDS = ["D", "a", "b", "c", "stabilizer"]
SERIES_FIELDS = ["exponent", "coefficient"]
DUKE_FIELDS = ["D", "statistic", "H", "fundamental"]
EXACTFORMULA_FIELDS = ["D", "c_max", "value", "error_bound"]
POINCARE_FIELDS = ["k", "m", "n", "c_max", "value", "error_bound"]
THETA_FIELDS = ["h", "tau", "f", "tol", "integral_re", "integral_im", "error_bound"]
AVG_FIELDS = ["f", "value", "error_bound"]


def trace_row(e) -> dict:
    """The TRACE_FIELDS row of an analytic.TraceEntry."""
    return {"D": e.D, "p": e.p, "f": e.f_label, "trace": e.value_rounded,
            "residual": e.residual, "certified": e.certified,
            "precision": e.precision}


def rational_str(x) -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _cell(v):
    if isinstance(v, Fraction):
        return rational_str(v)
    if isinstance(v, bool) or v is None or isinstance(v, (int, str)):
        return v
    if isinstance(v, float):
        return v
    return str(v)


def render_table(rows, fields, fmt: str = "json") -> str:
    """Rows to text; identical data and field order in either format."""
    if fmt == "json":
        out = []
        for r in rows:
            obj = {k: _cell(r[k]) for k in fields}
            out.append(json.dumps(obj, separators=(", ", ": ")))
        return "\n".join(out) + ("\n" if out else "")
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(fields)
        for r in rows:
            w.writerow(["" if r[k] is None else _cell(r[k]) for k in fields])
        return buf.getvalue()
    raise ValueError(f"unknown format {fmt!r}")


def make_report(command: str, inputs: dict, outputs, provenance: str,
                passed=None, seconds: float = None) -> dict:
    """Stable-schema report document; pass/fail only for verify runs."""
    rep = {
        "command": command,
        "inputs": {k: _cell(v) for k, v in inputs.items()},
        "outputs": outputs,
        "provenance": provenance,
    }
    if passed is not None:
        rep["passed"] = bool(passed)
    if seconds is not None:
        rep["seconds"] = round(seconds, 3)
    return rep


def render_report(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"
