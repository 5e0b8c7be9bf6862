"""CLI surface: schemas, caching, exit codes, determinism.

Everything runs in-process through cli.run so monkeypatching and
coverage work; stdout is captured per invocation.
"""

import json

import pytest

from cmtrace import cache as cache_mod
from cmtrace.cli import run
from cmtrace.qform import enumerate_reduced, hurwitz, reduce, stabilizer_order
from cmtrace.qform import QuadForm
from cmtrace.series import QSeries, g_series


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("CMTRACE_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path / "cache"


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def rows_of(out: str):
    return [json.loads(line) for line in out.splitlines() if line]


class TestSchemas:
    def test_trace_anchor_row(self, capsys):
        code, out = invoke(capsys, "trace", "--f", "J", "--D", "3")
        assert code == 0
        (row,) = rows_of(out)
        assert row["trace"] == "-248" and row["certified"] is True

    def test_trace_golden_shape(self, capsys):
        code, out = invoke(capsys, "trace", "--f", "J", "--D", "8")
        (row,) = rows_of(out)
        assert list(row) == ["D", "p", "f", "trace", "residual", "certified", "precision"]
        assert row["D"] == 8 and row["f"] == "J" and row["trace"] == "7256"

    def test_classnum_matches_enumeration(self, capsys):
        code, out = invoke(capsys, "classnum", "--range", "3:40")
        assert code == 0
        for row in rows_of(out):
            want = hurwitz(row["D"])
            got = row["H"]
            assert got == (str(want) if want.denominator == 1
                           else f"{want.numerator}/{want.denominator}")

    def test_classnum_zero_convention(self, capsys):
        _, out = invoke(capsys, "classnum", "--D", "0")
        assert rows_of(out) == [{"D": 0, "H": "-1/12"}]

    def test_csv_json_same_data(self, capsys):
        import csv as csvlib
        import io

        _, js = invoke(capsys, "classnum", "--range", "3:30")
        _, cs = invoke(capsys, "classnum", "--range", "3:30", "--format", "csv")
        jrows = rows_of(js)
        crows = list(csvlib.DictReader(io.StringIO(cs)))
        assert len(jrows) == len(crows)
        for j, c in zip(jrows, crows):
            assert str(j["D"]) == c["D"] and str(j["H"]) == c["H"]

    def test_forms_match_enumeration(self, capsys):
        _, out = invoke(capsys, "forms", "--D", "23")
        got = [(r["a"], r["b"], r["c"], r["stabilizer"]) for r in rows_of(out)]
        want = [(F.a, F.b, F.c, stabilizer_order(F)) for F in enumerate_reduced(23)]
        assert got == want

    def test_reduce(self, capsys):
        _, out = invoke(capsys, "reduce", "--form", "12,10,3")
        (row,) = rows_of(out)
        R = reduce(QuadForm(12, 10, 3))
        assert (row["a"], row["b"], row["c"], row["D"]) == (R.a, R.b, R.c, 44)

    def test_series_matches_library(self, capsys):
        _, out = invoke(capsys, "series", "--name", "g", "--dmax", "12")
        got = {r["exponent"]: r["coefficient"] for r in rows_of(out)}
        want = {int(e): str(c) for e, c in g_series(13).items()}
        assert got == want

    def test_duke_fields(self, capsys):
        _, out = invoke(capsys, "duke", "--range", "500:510")
        rows = rows_of(out)
        assert [r["D"] for r in rows] == [500, 503, 504, 507, 508]
        r503 = rows[1]
        assert r503["fundamental"] is True and r503["H"] == "21"
        assert isinstance(r503["statistic"], float)

    def test_duke_precision_selects_mp_route(self, capsys):
        from cmtrace.analytic import duke_statistic

        _, out = invoke(capsys, "duke", "--range", "103:103", "--precision", "120")
        (row,) = rows_of(out)
        assert row["statistic"] == float(duke_statistic(103, 120).value)
        assert row["statistic"] != float(duke_statistic(103).value)

    def test_exactformula_echoes_cmax(self, capsys):
        _, out = invoke(capsys, "exactformula", "--D", "3", "--cmax", "100")
        (row,) = rows_of(out)
        assert row["c_max"] == 100
        assert abs(row["value"] + 247.76) < 0.01  # single-c partial sum anchor

    def test_poincare_row(self, capsys):
        _, out = invoke(capsys, "poincare", "--k", "4", "--m", "1", "--n", "1",
                        "--cmax", "2000")
        (row,) = rows_of(out)
        assert row["c_max"] == 2000
        assert abs(row["value"] - 141444) < 0.01

    def test_avg_constant(self, capsys):
        _, out = invoke(capsys, "avg", "--f", "1")
        (row,) = rows_of(out)
        assert abs(row["value"] - 1) < 1e-6

    @pytest.mark.parametrize("f, want", [("J9", -312), ("J12", -672)])
    def test_avg_exact(self, capsys, f, want):
        # these printed 1.235e9 +- 3.4e8 and -4.76e19 +- 4.7e18 with exit 0
        code, out = invoke(capsys, "avg", "--f", f)
        (row,) = rows_of(out)
        assert code == 0 and (row["value"], row["error_bound"]) == (want, 0.0)

    def test_theta_row(self, capsys):
        _, out = invoke(capsys, "theta", "--h", "0", "--tau", "1.5j",
                        "--f", "1", "--tol", "1e-2")
        (row,) = rows_of(out)
        assert row["tol"] == 1e-2 and row["f"] == "1"
        assert abs(row["integral_im"]) < 1e-2  # real on the imaginary axis

    def test_out_flag_writes_file(self, capsys, tmp_path):
        target = tmp_path / "rows.json"
        code, out = invoke(capsys, "trace", "--f", "J", "--D", "3",
                           "--no-cache", "--out", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["trace"] == "-248"


class TestCache:
    def test_hit_is_byte_identical(self, capsys, isolated_cache):
        _, first = invoke(capsys, "trace", "--f", "J", "--range", "3:20")
        assert list(isolated_cache.glob("*.json"))
        _, second = invoke(capsys, "trace", "--f", "J", "--range", "3:20")
        assert first == second

    def test_no_cache_identical(self, capsys, isolated_cache):
        _, cached = invoke(capsys, "trace", "--f", "J", "--range", "3:20")
        _, fresh = invoke(capsys, "trace", "--f", "J", "--range", "3:20", "--no-cache")
        assert cached == fresh
        # and --no-cache must not have written anything new
        names = sorted(p.name for p in isolated_cache.glob("*.json"))
        _, _ = invoke(capsys, "classnum", "--range", "3:8", "--no-cache")
        assert sorted(p.name for p in isolated_cache.glob("*.json")) == names

    def test_corrupt_entry_recovers_with_warning(self, capsys, isolated_cache):
        _, first = invoke(capsys, "classnum", "--range", "3:12")
        for p in isolated_cache.glob("*.json"):
            p.write_text("not json at all")
        with pytest.warns(UserWarning, match="corrupt cache entry"):
            _, again = invoke(capsys, "classnum", "--range", "3:12")
        assert again == first

    @pytest.mark.parametrize("text", ["[]", "3", '"payload"', "null"])
    def test_non_object_entry_recovers_with_warning(self, capsys, isolated_cache, text):
        _, first = invoke(capsys, "classnum", "--range", "3:12")
        for p in isolated_cache.glob("*.json"):
            p.write_text(text)
        with pytest.warns(UserWarning, match="corrupt cache entry"):
            _, again = invoke(capsys, "classnum", "--range", "3:12")
        assert again == first

    def test_version_bump_invalidates(self, capsys, isolated_cache, monkeypatch):
        _, first = invoke(capsys, "classnum", "--range", "3:12")
        n_before = len(list(isolated_cache.glob("*.json")))
        monkeypatch.setattr(cache_mod, "__version__", "0.1.0+next")
        _, again = invoke(capsys, "classnum", "--range", "3:12")
        assert again == first  # same data, recomputed under the new key
        assert len(list(isolated_cache.glob("*.json"))) == n_before + 1

    def test_cache_dir_flag(self, capsys, tmp_path):
        alt = tmp_path / "alt"
        invoke(capsys, "classnum", "--range", "3:8", "--cache-dir", str(alt))
        assert list(alt.glob("*.json"))


class TestExitCodes:
    @pytest.mark.parametrize("argv", [
        ("trace", "--f", "J", "--D", "3", "--bogus"),
        ("nosuchcommand",),
        ("verify", "nosuchcheck"),
        ("trace", "--f", "J", "--range", "9:3"),
        ("trace", "--f", "Q", "--D", "3"),
        ("reduce", "--form", "1,5,1"),
        ("trace", "--f", "J", "--D", "3", "--precision", "32"),
        ("trace", "--f", "J", "--D", "3", "--threads", "0"),
        ("trace", "--f", "J", "--D", "3", "--level", "2"),
        ("trace", "--D", "3", "--precision", "0"),
        ("exactformula", "--D", "3", "--cmax", "0"),
        ("poincare", "--cmax", "0"),
        ("theta", "--tau", "1j", "--tol", "0"),
        ("verify", "zagier", "--dmax", "0"),
        ("verify", "zagier", "--dmax", "-5"),
        ("series", "--name", "g", "--dmax", "-5"),
        ("classnum", "--D", "-1"),
        ("trace", "--f", "J", "--D", "-7"),
        ("theta", "--tau", "1j", "--h", "9"),
        # arguments outside the computation's domain
        ("exactformula", "--D", "3", "--cmax", "5"),
        ("exactformula", "--D", "5", "--cmax", "8"),
        ("poincare", "--k", "5"),
        ("poincare", "--k", "4", "--m", "0"),
        ("series", "--name", "foo"),
        ("series", "--name", "J0"),
        # Im tau <= 0 is a usage error, not a truncation failure
        ("theta", "--tau", "0.3-1j"),
        ("theta", "--tau", "0.3+0j"),
        # converter branches
        ("trace", "--D", "x"),
        ("trace", "--range", "3-5"),
        ("theta", "--tau", "foo"),
        ("trace", "--f", "J0", "--D", "3"),
        # j = J + 744 has a nonzero constant term
        ("avg", "--f", "j"),
        ("theta", "--tau", "1j", "--f", "j"),
    ])
    def test_usage_errors_exit_2(self, capsys, argv):
        assert run(list(argv)) == 2

    def test_computational_failure_exits_3(self, capsys):
        # height below the truncation design's floor
        assert run(["theta", "--tau", "0.1+0.2j"]) == 3

    def test_theta_tolerance_past_float_kernel_exits_3(self, capsys):
        # this used to run for minutes
        assert run(["theta", "--h", "0", "--tau", "0.3+1.5j", "--tol", "1e-300"]) == 3
        assert "tol >= 1e-12 required" in capsys.readouterr().err

    @pytest.mark.parametrize("n, cmax, what", [
        # I_3(4 pi sqrt 4000) = I_3(794.7) > 1e308: the float64 c-sum
        # cannot hold its c = 1 term
        ("4000", "600", "I_3(4 pi sqrt(m n)) at m n = 4000"),
        ("4000", "5", "I_3(4 pi sqrt(m n)) at m n = 4000"),
        # I_3(4 pi sqrt 3000) is finite, but the tail bound past c = 5
        # carries e^{4 pi^2 3000 / 25}
        ("3000", "5", "the tail bound past c = 5 at m n = 3000"),
        # each term is finite, but (n/m)^{3/2} times their sum is not
        ("3220", "50", "a(3220) at m n = 3220"),
    ])
    def test_poincare_past_float_range_exits_3(self, capsys, n, cmax, what):
        assert run(["poincare", "--k", "4", "--m", "1", "--n", n, "--cmax", cmax]) == 3
        assert f"{what} is past the float range" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        # these printed error_bound 7.3e10 and -1.06e88 +- 1.04e88 with exit 0
        ("theta", "--tau", "1j", "--f", "J2", "--tol", "1e-3"),
        ("theta", "--tau", "2j", "--f", "J3", "--tol", "1e-3"),
    ])
    def test_theta_bound_past_tol_exits_3(self, capsys, argv):
        assert run(list(argv) + ["--no-cache"]) == 3
        assert "exceeds tol 0.001" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        assert run(["--help"]) == 0


class TestVerifyCommand:
    def test_check_lists_pinned(self):
        from cmtrace.verify import FAST_CHECKS, FULL_CHECKS, run_suite

        fast = ["zagier", "faber", "hurwitz", "atkin", "poincare", "exactformula",
                "asymptotic", "duke", "weil", "decay", "plusspace", "determinism"]
        assert list(FAST_CHECKS) == fast
        assert list(FULL_CHECKS) == fast + ["eisenstein", "theta"]
        # each check reports under its own key (sizes kept small: passing is
        # not the point here)
        results, _ = run_suite("full", dmax=3, cmax=4, tol=0.5)
        assert [r.name for r in results] == list(FULL_CHECKS)

    def test_single_check_report(self, capsys):
        code, out = invoke(capsys, "verify", "hurwitz", "--dmax", "500")
        assert code == 0
        rep = json.loads(out)
        assert rep["command"] == "verify" and rep["passed"] is True
        (chk,) = rep["outputs"]
        assert chk["check"] == "hurwitz" and chk["passed"] is True
        assert rep["inputs"]["dmax"] == 500

    def test_mutation_fails_zagier(self, capsys, monkeypatch):
        import cmtrace.verify as verify_mod

        real = g_series

        def corrupted(trunc):
            s = real(trunc)
            terms = dict(s.terms)
            if 3 in terms:
                terms[3] = -247  # flip one coefficient
            return QSeries(terms, s.trunc, s.denom)

        monkeypatch.setattr(verify_mod, "g_series", corrupted)
        code, out = invoke(capsys, "verify", "zagier", "--dmax", "60")
        assert code == 1
        rep = json.loads(out)
        assert rep["passed"] is False
        assert rep["outputs"][0]["passed"] is False
        assert "mismatches [3]" in rep["outputs"][0]["detail"]  # failing D named


class TestDeterminism:
    def test_threads_byte_identical(self, capsys):
        _, one = invoke(capsys, "trace", "--f", "J", "--range", "3:60", "--no-cache")
        _, four = invoke(capsys, "trace", "--f", "J", "--range", "3:60",
                         "--no-cache", "--threads", "4")
        assert one == four
