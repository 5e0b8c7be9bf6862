"""Acceptance gate: the fourteen contract-level properties, one test and
one printed pass/fail line each.

Each test recomputes its property through the public API (most via the
verification-suite checks, which pin the contract tolerances) and prints
a single summary line straight to the terminal, bypassing capture.
"""

from cmtrace.analytic import exact_formula_tJ, trace
from cmtrace.cli import run
from cmtrace.verify import (
    DUKE_WIDENING_NOTE,
    check_atkin,
    check_asymptotic,
    check_decay,
    check_determinism,
    check_duke,
    check_eisenstein,
    check_exactformula,
    check_faber,
    check_hurwitz,
    check_plusspace,
    check_poincare,
    check_theta_traces,
    check_weil,
    check_zagier,
)


def announce(capsys, number: int, title: str, ok: bool, detail: str):
    with capsys.disabled():
        print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'}  {title}: {detail}")


def test_criterion_01_zagier_identity(capsys):
    r = check_zagier(dmax=500)
    anchors = {3: -248, 4: 492, 7: -4119, 8: 7256}
    anchors_ok = all(trace("J", D).value_rounded == want
                     for D, want in anchors.items())
    ok = r.passed and anchors_ok and r.seconds < 300
    announce(capsys, 1, "trace of J equals eta-quotient coefficient, D <= 500,"
             " residual < 1e-6", ok, f"{r.detail}; anchors {sorted(anchors)} ok="
             f"{anchors_ok}; {r.seconds:.1f}s (limit 300)")
    assert ok


def test_criterion_02_faber_level(capsys):
    r = check_faber(dmax=200)
    announce(capsys, 2, "traces of J2, J3 equal plus-space coefficients,"
             " constants 2*sigma1(m)", r.passed, f"{r.detail}; {r.seconds:.1f}s")
    assert r.passed


def test_criterion_03_hurwitz(capsys):
    r = check_hurwitz(dmax=10 ** 4)
    announce(capsys, 3, "class numbers match weighted form counts to 10^4,"
             " H(0) = -1/12", r.passed, f"{r.detail}; {r.seconds:.1f}s")
    assert r.passed


def test_criterion_04_regularized_average(capsys):
    r = check_atkin()
    announce(capsys, 4, "regularized average: <J> = -24 (1e-3), <1> = 1 (1e-6)",
             r.passed, f"{r.detail}; {r.seconds:.1f}s")
    assert r.passed


def test_criterion_05_poincare(capsys):
    r = check_poincare(cmax=10 ** 5)
    ok = r.passed and r.seconds < 120
    announce(capsys, 5, "Kloosterman/Bessel sums give 141444 (0.5) and"
             " 68234240 (5) at c_max 1e5", ok,
             f"{r.detail}; {r.seconds:.1f}s (limit 120)")
    assert ok


def test_criterion_06_exact_formula(capsys):
    r = check_exactformula(dmax=200)
    anchor = float(exact_formula_tJ(3, c_max=4).value)
    anchor_ok = abs(anchor + 238.76) < 0.01
    ok = r.passed and anchor_ok
    announce(capsys, 6, "first exponential-sum term dominates:"
             " |t - partial| < 10 e^{0.6 pi sqrt D}", ok,
             f"{r.detail}; D=3 partial {anchor:.2f} (want -238.76); {r.seconds:.1f}s")
    assert ok


def test_criterion_07_asymptotic(capsys):
    r = check_asymptotic(dmax=200)
    announce(capsys, 7, "|t_J(D) - (-1)^D e^{pi sqrt D}| < e^{0.8 pi sqrt D},"
             " D <= 200", r.passed, f"{r.detail}; {r.seconds:.1f}s")
    assert r.passed


def test_criterion_08_duke_trend(capsys):
    r = check_duke()
    announce(capsys, 8, "windowed equidistribution statistic trends to -24",
             r.passed, f"{r.detail}; {r.seconds:.1f}s")
    with capsys.disabled():
        print(f"               justification: {DUKE_WIDENING_NOTE}")
    assert r.passed


def test_criterion_09_constant_lift(capsys):
    r = check_eisenstein(tol=1e-3)
    ok = r.passed and r.seconds < 1200
    announce(capsys, 9, "averaged lift of 1 matches class-number expansion"
             " within 1% at tau = i, 2i", ok,
             f"{r.detail}; {r.seconds:.1f}s (limit 1200)")
    assert ok


def test_criterion_10_lift_of_J(capsys):
    r = check_theta_traces(tol=1e-3)
    announce(capsys, 10, "Fourier extraction of the lift of J recovers"
             " -248 and 492 within 2%", r.passed, f"{r.detail}; {r.seconds:.1f}s")
    assert r.passed


def test_criterion_11_kernel_decay(capsys):
    r = check_decay()
    announce(capsys, 11, "kernel log-magnitude concave decreasing in y"
             " (quadratic exponent)", r.passed, f"{r.detail}; {r.seconds:.1f}s")
    assert r.passed


def test_criterion_12_weil_relations(capsys):
    r = check_weil()
    announce(capsys, 12, "discriminant-form S, T unitary and (ST)^3 = S^2"
             " to 2^-40, levels 4 and 8", r.passed, f"{r.detail}; {r.seconds:.1f}s")
    assert r.passed


def test_criterion_13_plus_space_support(capsys):
    r = check_plusspace(trunc=200)
    announce(capsys, 13, "weight-3/2 outputs vanish on exponents 1,2 mod 4"
             " through q^200", r.passed, f"{r.detail}; {r.seconds:.1f}s")
    assert r.passed


def test_criterion_14_determinism(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("CMTRACE_CACHE_DIR", str(tmp_path / "cache"))
    commands = [
        ["trace", "--f", "J", "--range", "3:60", "--no-cache"],
        ["classnum", "--range", "3:200", "--no-cache"],
        ["duke", "--range", "500:600"],
        ["series", "--name", "g", "--dmax", "40"],
    ]
    mismatched = []
    for argv in commands:
        outs = []
        for th in ("1", "3"):
            code = run(argv + ["--threads", th])
            outs.append(capsys.readouterr().out)
            assert code == 0
        if outs[0] != outs[1]:
            mismatched.append(argv[0])
    r = check_determinism()
    ok = not mismatched and r.passed
    announce(capsys, 14, "table commands byte-identical across thread counts,"
             " global mpmath precision and the cache",
             ok, f"{len(commands)} commands x 1 vs 3 threads, mismatches"
             f" {mismatched}; library check: {r.detail}")
    assert ok
