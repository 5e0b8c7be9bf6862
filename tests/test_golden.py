"""Golden CLI output: stdout of fixed commands is byte-identical to the
committed files under tests/data/golden.  `verify` reports are compared
with every `seconds` field dropped.

The quadrature command `theta` and `verify weil` print floats that
depend on the numpy version, so they are compared only under the numpy
version recorded in numpy_version.txt there, and skipped under any other.
After a deliberate output change, regenerate every file (and that record)
with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from cmtrace.cli import run

GOLDEN_DIR = Path(__file__).resolve().parent / "data" / "golden"

COMMANDS = {
    "trace_J_3": ["trace", "--f", "J", "--D", "3"],
    "trace_J_1003": ["trace", "--f", "J", "--D", "1003"],
    "trace_J2_200": ["trace", "--f", "J2", "--D", "200"],
    "trace_J_3_600": ["trace", "--f", "J", "--range", "3:600"],
    "trace_J2_3_200": ["trace", "--f", "J2", "--range", "3:200"],
    "trace_J3_3_100": ["trace", "--f", "J3", "--range", "3:100"],
    "trace_J_48003": ["trace", "--f", "J", "--D", "48003"],
    "forms_23": ["forms", "--D", "23"],
    "classnum_3_100": ["classnum", "--range", "3:100"],
    "series_g_50": ["series", "--name", "g", "--dmax", "50"],
    "reduce_12_10_3": ["reduce", "--form", "12,10,3"],
    "exactformula_3": ["exactformula", "--D", "3", "--cmax", "400"],
    "poincare_4_1_2": ["poincare", "--k", "4", "--m", "1", "--n", "2", "--cmax", "300"],
    "duke_500_600": ["duke", "--range", "500:600"],
    "verify_decay": ["verify", "decay"],
    "avg_J": ["avg", "--f", "J"],
}
NUMPY_COMMANDS = {
    "theta_0_J": ["theta", "--h", "0", "--tau", "0.25+1.5j", "--f", "J", "--tol", "1e-4"],
    "verify_weil": ["verify", "weil"],
}
NUMPY_VERSION = GOLDEN_DIR / "numpy_version.txt"


def _stdout(argv, out: str) -> str:
    """out with every `seconds` field dropped when argv runs `verify`."""
    def strip(obj):
        if isinstance(obj, dict):
            return {k: strip(v) for k, v in obj.items() if k != "seconds"}
        if isinstance(obj, list):
            return [strip(v) for v in obj]
        return obj
    return json.dumps(strip(json.loads(out)), indent=2) + "\n" if argv[0] == "verify" else out


@pytest.mark.parametrize("name", sorted(COMMANDS) + sorted(NUMPY_COMMANDS))
def test_stdout_matches_golden(name, capsys):
    if name in NUMPY_COMMANDS:
        recorded = NUMPY_VERSION.read_text(encoding="utf-8").strip()
        if np.__version__ != recorded:
            pytest.skip(f"recorded under numpy {recorded}, installed {np.__version__}")
    argv = {**COMMANDS, **NUMPY_COMMANDS}[name]
    assert run(argv + ["--no-cache"]) == 0
    out = _stdout(argv, capsys.readouterr().out)
    assert out == (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")


if __name__ == "__main__":
    import contextlib
    import io

    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    NUMPY_VERSION.write_text(np.__version__ + "\n", encoding="utf-8")
    for name, argv in {**COMMANDS, **NUMPY_COMMANDS}.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = run(argv + ["--no-cache"])
        if code != 0:
            raise SystemExit(f"{name}: exit code {code}")
        (GOLDEN_DIR / f"{name}.txt").write_text(_stdout(argv, buf.getvalue()), encoding="utf-8")
