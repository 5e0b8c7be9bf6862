"""Golden CLI output: stdout of fixed commands is byte-identical to the
committed files under tests/data/golden.

The quadrature commands (theta, avg) print floats that depend on the numpy
version, so they are compared only under the numpy version recorded in
numpy_version.txt there, and skipped under any other.  After a deliberate
output change, regenerate every file (and that record) with

    PYTHONPATH=src python tests/test_golden.py
"""

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
}
QUADRATURE_COMMANDS = {
    "theta_0_J": ["theta", "--h", "0", "--tau", "0.25+1.5j", "--f", "J", "--tol", "1e-4"],
    "avg_J": ["avg", "--f", "J"],
}
NUMPY_VERSION = GOLDEN_DIR / "numpy_version.txt"


@pytest.mark.parametrize("name", sorted(COMMANDS) + sorted(QUADRATURE_COMMANDS))
def test_stdout_matches_golden(name, capsys):
    if name in QUADRATURE_COMMANDS:
        recorded = NUMPY_VERSION.read_text(encoding="utf-8").strip()
        if np.__version__ != recorded:
            pytest.skip(f"recorded under numpy {recorded}, installed {np.__version__}")
    assert run({**COMMANDS, **QUADRATURE_COMMANDS}[name] + ["--no-cache"]) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")


if __name__ == "__main__":
    import contextlib
    import io

    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    NUMPY_VERSION.write_text(np.__version__ + "\n", encoding="utf-8")
    for name, argv in {**COMMANDS, **QUADRATURE_COMMANDS}.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = run(argv + ["--no-cache"])
        if code != 0:
            raise SystemExit(f"{name}: exit code {code}")
        (GOLDEN_DIR / f"{name}.txt").write_text(buf.getvalue(), encoding="utf-8")
