"""Certified CM evaluation, traces, the exact formula, Duke's statistic,
the regularized average, and beta(s).

Anchors: classical singular moduli (j(i)=1728, j(2i)=66^3, ...), the
integer traces reproduced independently by the exact eta-quotient series
and the plus-space lifts, and closed forms for beta.
"""

import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest
from mpmath.libmp import from_man_exp

from cmtrace import analytic
from cmtrace.analytic import (
    _form_precision,
    _j_certified,
    _parse_fspec,
    beta_integral,
    duke_statistic,
    eval_modular,
    exact_formula_tJ,
    precision_for,
    regularized_average,
    trace,
    trace_table,
)
from cmtrace.qform import QuadForm, enumerate_reduced, fricke_image, hurwitz, level_p_orbits
from cmtrace.series import QSeries, eta, faber_poly, g_series, j_series, t_series

SQ3 = math.sqrt(3)
SRC = str(Path(__file__).resolve().parents[1] / "src")


    # singular moduli for class-number-one discriminants: (-b, D, value)
CLASSICS = [
    (1, 3, 0),
    (0, 4, 1728),
    (1, 7, -3375),
    (0, 8, 8000),
    (0, 12, 54000),
    (0, 16, 287496),    # 66^3
    (0, 28, 16581375),  # 255^3
]


def _alpha_of(form, prec):
    # the CM point (-b + i sqrt D) / 2a as an mpc carrying prec + 32 bits
    with mp.workprec(prec + 32):
        return mp.mpc(-form.b, mp.sqrt(form.D)) / (2 * form.a)


def _j_ball(point, prec):
    # _j_certified's ball (x, y, r, W) as its exact midpoint and radius
    x, y, r, W = _j_certified(point, prec)
    return mp.make_mpc((from_man_exp(x, -W), from_man_exp(y, -W))), mp.make_mpf(from_man_exp(r, -W))


class TestEvalModular:
    def test_singular_moduli(self):
        for b, D, want in CLASSICS:
            # tau must carry full precision: |dj/dtau| ~ 2 pi e^{pi sqrt D}
            with mp.workprec(160):
                tau = mp.mpc(-b, mp.sqrt(D)) / 2
            v = eval_modular("j", tau, 96)
            assert abs(float(abs(v.value - want))) <= v.error_bound
            assert v.error_bound < 1e-15 * (abs(want) + 1)

    def test_translation_invariance(self):
        a = eval_modular("j", mp.mpc(0.37, 1.22), 80)
        b = eval_modular("j", mp.mpc(0.37 - 1, 1.22), 80)
        assert abs(a.value - b.value) <= a.error_bound + b.error_bound

    def test_faber_value(self):
        # J2 = j^2 - 1488 j + 159768 at j = 1728
        v = eval_modular("J2", mp.mpc(0, 1), 80)
        assert abs(float(abs(v.value - 574488))) <= v.error_bound

    @pytest.mark.parametrize("prec", [64, 80, 200, 1000])
    def test_bound_holds_at_rho(self, prec):
        # j has a triple zero at rho = alpha of [36, 36, 36] (D = 3888): there
        # u = 1 + 256 f vanishes in j = u^3 / f, so u's error cannot be
        # charged relative to |u|
        tau = _alpha_of(QuadForm(36, 36, 36), prec)
        v, rad = _j_ball(tau, prec)
        assert abs(v) <= rad
        with mp.workprec(prec + 160):
            assert abs(v - 1728 * mp.kleinj(tau)) <= rad

    def test_constant(self):
        v = eval_modular("1", mp.mpc(0, 5), 64)
        assert v.value == 1 and v.error_bound == 0.0

    def test_domain_check(self):
        with pytest.raises(ValueError):
            eval_modular("j", mp.mpc(0, 0.5), 64)
        with pytest.raises(ValueError):
            eval_modular("Jx", mp.mpc(0, 1), 64)


def _kernel_points(prec):
    # rho, i, the arc |tau| = 1, both edges Re tau = -1/2 and 1/2, and high
    # up the cusp, where |j| ~ e^{2 pi Im tau} outgrows 2^prec
    with mp.workprec(prec + 40):
        pts = [mp.mpc(-0.5, mp.sqrt(3) / 2), mp.mpc(0, 1)]
        pts += [mp.expjpi(mp.mpf(t)) for t in (0.36, 0.42, 0.58, 0.64)]
        pts += [mp.mpc(x, y) for x in (-0.5, 0.5) for y in (0.9, 1.5, 4)]
        pts += [mp.mpc(0.1234, y) for y in (2, 12, 40, 80, 110)]
    return pts


class TestJKernel:
    @pytest.mark.parametrize("prec", [64, 200, 1000, 1400])
    def test_within_bound_against_kleinj(self, prec):
        for tau in _kernel_points(prec):
            v, rad = _j_ball(tau, prec)
            with mp.workprec(prec + 160):
                ref = 1728 * mp.kleinj(tau)
                assert abs(v - ref) <= rad, (tau, prec)
                assert rad <= mp.ldexp(abs(ref) + 1, 16 - prec), (tau, prec)

    def test_radius_finite_where_q_underflows(self):
        # |q| = e^{-260 pi} < 2^-1074 and |j| > 1e308: the int radius
        # stays finite and still bounds the error
        tau = mp.mpc(0.25, 130)
        v, rad = _j_ball(tau, 1200)
        assert mp.isfinite(rad)
        with mp.workprec(1200 + 160):
            assert abs(v - 1728 * mp.kleinj(tau)) <= rad


# about 30 seeded D <= 4000, with 3, 4 and 7, where the forms sit at rho,
# i and near the arc
_ORACLE_DS = [3, 4, 7] + random.Random(4000).sample([D for D in range(8, 4001) if D % 4 in (0, 3)], 30)


class TestCMPointKernel:
    # the kernel at a QuadForm builds q from the exact CM point
    @pytest.mark.parametrize("D", _ORACLE_DS)
    def test_every_reduced_form_within_bound(self, D):
        precision = precision_for(D)
        for F in enumerate_reduced(D):
            pF = _form_precision(precision, D, 1, F.a)
            v, rad = _j_ball(F, pF)
            with mp.workprec(pF + 160):
                ref = 1728 * mp.kleinj(mp.mpc(-F.b, mp.sqrt(D)) / (2 * F.a))
                assert abs(v - ref) <= rad, (F, pF)

    @pytest.mark.parametrize("D", [3, 4, 23, 1003, 3999])
    def test_form_and_its_tau_agree(self, D):
        precision = precision_for(D)
        for F in enumerate_reduced(D):
            pF = _form_precision(precision, D, 1, F.a)
            (v, rv), (w, rw) = _j_ball(F, pF), _j_ball(_alpha_of(F, pF), pF)
            assert abs(v - w) <= rv + rw, (F, pF)

    @pytest.mark.parametrize("prec", [64, 200, 1000])
    def test_rho_absolute(self, prec):
        # j(rho) = 0: the bound is absolute, a few units of 2^-(prec+32)
        # times |1/q| = e^{pi sqrt 3}
        v, rad = _j_ball(QuadForm(36, 36, 36), prec)
        assert abs(v) <= rad <= math.ldexp(1.0, -prec)

    def test_form_point_through_eval_modular(self):
        F = QuadForm(2, 1, 3)
        a = eval_modular("J2", F, 90)
        b = eval_modular("J2", _alpha_of(F, 90), 90)
        assert abs(a.value - b.value) <= a.error_bound + b.error_bound
        with pytest.raises(ValueError):
            eval_modular("J", QuadForm(3, 0, 1), 64)  # not reduced


class TestEvalQexpansion:
    def test_eta_quotient_oracle(self):
        # t = eta(tau)^8/eta(4tau)^8 = q^{-1} (qp(q)/qp(q^4))^8
        tau = mp.mpc(0.3, 0.9)
        v = eval_modular(t_series(80), tau, 70)
        with mp.workprec(140):
            q = mp.e ** (2j * mp.pi * tau)
            ref = (mp.qp(q) / mp.qp(q**4)) ** 8 / q
        assert abs(float(abs(v.value - ref))) < 1e-18

    @pytest.mark.parametrize("prec", [53, 200, 1000])
    def test_rounding_within_bound(self, prec):
        # the truncated series itself, term by term at 200 more bits: the
        # stepped Horner sum differs from it by rounding only
        T2 = _fricke_hauptmodul(60)
        for tau in (mp.mpc(0.3, 0.9), mp.mpc(-0.45, 0.12), mp.mpc(7.25, 2.5)):
            v = eval_modular(T2, tau, prec)
            with mp.workprec(prec + 200):
                w = mp.exp(2j * mp.pi * tau / T2.denom)
                ref = mp.fsum(mp.mpf(c.numerator) / c.denominator * w**n for n, c in T2.terms.items())
                assert abs(v.value - ref) <= v.error_bound, (tau, prec)
            assert v.error_bound < 1e-9 * float(abs(ref) + 1), (tau, prec)

    def test_requires_upper_half_plane(self):
        with pytest.raises(ValueError):
            eval_modular(t_series(10), mp.mpc(1, -2), 53)


class TestTrace:
    def test_matches_weight_half_form(self):
        # traces of J appear as coefficients of the weight-3/2 form built
        # from pure eta/theta arithmetic: completely independent pipeline
        g = g_series(30)
        for D in (3, 4, 7, 8, 11, 12, 15, 16, 19, 20, 23, 24, 27, 28):
            e = trace("J", D)
            assert e.certified, (D, e.residual)
            assert e.value_rounded == g.coeff(D), D

    def test_faber_traces_match_lifts(self):
        from cmtrace.plusspace import plus_form
        from cmtrace.series import predicted_series

        # the m=2 trace generating form has principal part -q^-1 - 2q^-4
        pp = {e: c for e, c in predicted_series({-2: 1}).items() if e < 0}
        assert pp == {-1: Fraction(-1), -4: Fraction(-2)}
        lift = plus_form(pp, 10)
        for D in (3, 4, 7, 8):
            e = trace("J2", D)
            assert e.certified
            assert e.value_rounded == lift.coeff(D), D

    def test_known_values(self):
        assert trace("J2", 4).value_rounded == 287244
        assert trace("J3", 3).value_rounded == -12288992

    @pytest.mark.parametrize("d", [3, 4, 7, 23, 100, 999, 12003, 13003])
    def test_hecke_relation_for_J2(self, d):
        # Zagier, "Traces of singular moduli", section 5, at p = 2:
        # Tr(J2; d) = t(4d) + (-d/2) t(d) + 2 t(d/4) with t = Tr(J; .), an
        # exact identity; at d = 13003 both J2(d) and J(4d) have |f(alpha)|
        # past the float range
        def t(D):
            e = trace("J", D)
            assert e.certified, D
            return e.value_rounded

        kronecker = 0 if d % 4 == 0 else (1 if d % 8 == 7 else -1)  # (-d/2)
        e = trace("J2", d)
        assert e.certified
        assert e.value_rounded == t(4 * d) + kronecker * t(d) + (2 * t(d // 4) if d % 4 == 0 else 0)

    def test_kaneko_identity(self):
        # Kaneko (1996), in Zagier's normalisation: for c(n) the
        # coefficients of j and t(d) = Tr(J; d),
        # n c(n) = sum_{r in Z} t(n - r^2)
        #          + sum_{r >= 1 odd} ((-1)^n t(4n - r^2) - t(16n - r^2)),
        # with t(0) = 2, t(-1) = -1 and t = 0 at every other d < 0 and at
        # d = 1, 2 (mod 4); an exact oracle for the p = 1 kernel up to D = 640
        traces = {0: 2, -1: -1}

        def t(d):
            if d not in traces:
                e = trace("J", d)  # 0 for d < 0 and d = 1, 2 (mod 4)
                assert e.certified, d
                traces[d] = e.value_rounded
            return traces[d]

        j = j_series(41)
        for n in range(1, 41):
            odd = range(1, math.isqrt(16 * n + 1) + 1, 2)
            rhs = t(n) + 2 * sum(t(n - r * r) for r in range(1, math.isqrt(n + 1) + 1))
            rhs += sum((-1) ** n * t(4 * n - r * r) - t(16 * n - r * r) for r in odd)
            assert n * j.coeff(n) == rhs, n

    def test_constant_gives_class_numbers(self):
        for D in (3, 4, 7, 12, 20, 23, 36):
            e = trace("1", D)
            assert e.certified
            assert e.value_rounded == hurwitz(D), D

    def test_skipped_discriminants(self):
        for D in (1, 2, 5, 6, 9):
            e = trace("J", D)
            assert e.value_rounded == 0 and e.certified and e.class_count == 0

    def test_entry_metadata(self):
        e = trace("J", 23)
        assert e.precision >= 64
        assert e.p == 1 and e.D == 23 and e.f_label == "J"
        assert e.class_count == len(enumerate_reduced(23))
        assert e.residual <= 1e-6
        assert float(e.value_numeric.value) == pytest.approx(-3493982, abs=1e-3)


def _fricke_hauptmodul(n: int = 60):
    A = eta(n, 1) ** 24 / eta(n, 2) ** 24
    return A + QSeries.exact({0: 24}) + 4096 * A.reciprocal()


def _fricke_hauptmodul_trace(D: int):
    # the same Hauptmodul untruncated, A by mpmath's q-Pochhammer product,
    # summed at the Fricke image of each representative: another point of
    # its orbit, so the sum does not depend on which form represents it
    with mp.workprec(300):
        total = mp.mpf(0)
        for o in level_p_orbits(D, 2):
            q = mp.exp(2j * mp.pi * _alpha_of(fricke_image(o.form, 2), 300))
            A = (mp.qp(q) / mp.qp(q * q)) ** 24 / q
            total += (A + 24 + 4096 / A).real / o.stabilizer_order
        return total


class TestLevelTraces:
    def test_mass_of_constant(self):
        from cmtrace.qform import level_p_orbits

        one = QSeries.exact({0: 1})
        for D, p in [(4, 2), (23, 2), (12, 2), (7, 3), (11, 5), (3, 2)]:
            e = trace(one, D, p=p)
            mass = sum(Fraction(1, o.stabilizer_order) for o in level_p_orbits(D, p))
            assert e.certified and e.value_rounded == mass, (D, p)

    def test_fricke_invariant_hauptmodul(self):
        # A + 24 + 4096/A with A = (eta(tau)/eta(2tau))^24 is invariant
        # under the Fricke involution, so its folded-orbit trace is exact.
        T2 = _fricke_hauptmodul()
        assert T2.coeff(1) == 4372  # sanity: known expansion
        # D=4 rep is Fricke-fixed with stabilizer 4: A^2 = 4096 there, and
        # numerics pick A = -64, giving (-64 + 24 - 64)/4
        for D, want in [(4, -26), (8, 76), (12, -248)]:
            e = trace(T2, D, p=2)
            assert e.certified and e.value_rounded == want, D

    def test_pole_order_counts_whole_powers_of_q(self):
        # T2 = q^-1 + ... is stored on a q^(1/24) grid; its degree is 1,
        # so level-2 traces run at the policy precision of degree 1
        T2 = _fricke_hauptmodul()
        assert T2.denom == 24 and _parse_fspec(T2)[3] == 1
        for D, want in [(4, -26), (8, 76), (12, -248), (23, -94)]:
            e = trace(T2, D, p=2)
            assert e.precision == precision_for(D), D
            assert e.certified and e.value_rounded == want, D

    @pytest.mark.parametrize("D, want", [(84, -1788112), (116, -22252856)])
    def test_least_form_representatives_certify(self, D, want):
        # each orbit is evaluated at its form nearest the cusp, where the
        # expansion through q^60 converges
        e = trace(_fricke_hauptmodul(), D, p=2)
        assert e.certified and e.value_rounded == want
        assert abs(_fricke_hauptmodul_trace(D) - want) < 1e-20

    def test_least_form_representatives_certify_large_D(self):
        # a = 28 keeps |q| below 0.03; a form of the same orbit with
        # a = 252 has |q| = 0.67, where no truncation of the expansion
        # converges
        want = -4128446190315309503576
        assert max(o.form.a for o in level_p_orbits(1004, 2)) == 28
        e = trace(_fricke_hauptmodul(200), 1004, p=2)
        assert e.certified and e.value_rounded == want
        assert abs(_fricke_hauptmodul_trace(1004) - want) < 1e-20

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_sum_with_p_scaled_copy(self, p):
        # for a level-1 f, Tr*_p(f(tau) + f(p tau); D)
        # = eps (t(D) - t(D/p^2)) + (p + 1) t(D/p^2) with t = Tr(f; .),
        # eps = 1 + (-D/p), and t(D/p^2) = 0 unless D/p^2 is a
        # discriminant: exact, and independent of the representatives
        def t(D):
            e = trace("j", D)
            assert e.certified, D
            return e.value_rounded

        f = j_series(200)
        fp = f + f.scale_q(p)
        for D in range(3, 80):
            if D % 4 in (1, 2):
                continue
            if p == 2:
                kronecker = 0 if D % 4 == 0 else (1 if D % 8 == 7 else -1)
            else:
                kronecker = {0: 0, 1: 1, p - 1: -1}[pow(-D % p, (p - 1) // 2, p)]
            Dp = D // (p * p) if D % (p * p) == 0 and D // (p * p) % 4 in (0, 3) else 0
            tp = t(Dp) if Dp else 0
            e = trace(fp, D, p=p)
            assert e.certified, D
            assert e.value_rounded == (1 + kronecker) * (t(D) - tp) + (p + 1) * tp, D

    def test_one_hp_record_per_trace(self, monkeypatch):
        # each term is an integer ball; the trace builds the one HP
        built = []

        class CountingHP(analytic.HP):
            __slots__ = ()

            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(analytic, "HP", CountingHP)
        for f, D, p in [(_fricke_hauptmodul(), 116, 2), (j_series(60), 23, 1)]:
            built.clear()
            assert trace(f, D, p=p).certified
            assert len(built) == 1, (D, p)

    def test_level_requires_qexp(self):
        with pytest.raises(ValueError):
            trace("J", 23, p=2)


class TestPerFormPrecision:
    # every reduced form with b >= 0, the ones a p = 1 trace evaluates
    @pytest.mark.parametrize("f, m, D", [("J", 1, 1003), ("J", 1, 43472), ("J2", 2, 10644)])
    def test_values_within_bounds_against_kleinj(self, f, m, D):
        # independent reference: mpmath's j = 1728 kleinj at the exact
        # alpha, through the Faber polynomial, with 160 bits to spare
        precision = precision_for(D, m)
        coeffs = faber_poly(m)
        forms = [F for F in enumerate_reduced(D) if F.b >= 0]
        for F in forms:
            pF = _form_precision(precision, D, m, F.a)
            v = eval_modular(f, _alpha_of(F, pF), pF)
            with mp.workprec(pF + 160):
                j = 1728 * mp.kleinj(mp.mpc(-F.b, mp.sqrt(D)) / (2 * F.a))
                ref = mp.mpc(0)
                for c in reversed(coeffs):
                    ref = ref * j + mp.mpf(c.numerator) / c.denominator
                gap = abs(v.value - ref)
            assert gap <= v.error_bound, (F, pF, float(gap), v.error_bound)

    def test_trace_runs_forms_below_its_precision(self, monkeypatch):
        D = 43472
        precs = []
        j_certified = analytic._j_certified

        def spy(tau, prec):
            precs.append(prec)
            return j_certified(tau, prec)

        monkeypatch.setattr(analytic, "_j_certified", spy)
        e = trace("J", D)
        assert e.certified
        want = [_form_precision(e.precision, D, 1, F.a) for F in enumerate_reduced(D) if F.b >= 0]
        assert precs == want
        assert max(precs) == e.precision  # the a = 1 form
        assert min(precs) < e.precision


def _run_isolated(argv):
    # a fresh interpreter with a deadline: these inputs used to hang
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, timeout=30, env=env)


class TestHighPrecision:
    # past ~1054 bits 2^-(prec+20) and past Im tau ~ 118 |q| underflow as
    # floats; the stopping tests and bounds must not depend on either
    @pytest.mark.parametrize("f, D", [("J", 48003), ("J2", 12003)])
    def test_trace_certified_in_bounded_time(self, f, D):
        code = f"from cmtrace.analytic import trace; e = trace({f!r}, {D}); print(e.certified, e.precision)"
        out = _run_isolated(["-c", code])
        assert out.returncode == 0, out.stderr
        certified, prec = out.stdout.split()
        assert certified == "True" and int(prec) > 1054

    def test_radius_past_float_range_is_finite(self):
        # |j| at the a = 1 form of D = 60007 is about e^{pi sqrt D} > 1e308
        code = "from cmtrace.analytic import trace; e = trace('J', 60007); print(e.certified, e.value_numeric.error_bound)"
        out = _run_isolated(["-c", code])
        assert out.returncode == 0, out.stderr
        certified, bound = out.stdout.split()
        assert certified == "True" and math.isfinite(float(bound))

    def test_qexpansion_past_float_range(self):
        # |1/q| = e^{pi sqrt D} > 1e308 at the a = 1 form: the q-expansion's
        # ball stays finite, like j's
        e = trace(j_series(120), 60007)
        assert e.certified and math.isfinite(e.value_numeric.error_bound)
        assert e.value_rounded == trace("j", 60007).value_rounded

    def test_cli_exits_0_past_float_range(self):
        out = _run_isolated(["-m", "cmtrace.cli", "trace", "--f", "J", "--D", "60007", "--no-cache"])
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)["certified"] is True


class TestExactFormula:
    def test_first_term_anchors(self):
        v3 = exact_formula_tJ(3, 4)
        assert float(v3.value) == pytest.approx(-8 - 2 * math.sinh(math.pi * SQ3), abs=1e-9)
        v4 = exact_formula_tJ(4, 4)
        assert float(v4.value) == pytest.approx(-12 + 2 * math.sinh(2 * math.pi), abs=1e-9)

    def test_converges_to_trace(self):
        assert abs(float(exact_formula_tJ(3, 10000).value) + 248) < 0.02
        assert abs(float(exact_formula_tJ(4, 10000).value) - 492) < 0.04

    @pytest.mark.parametrize("D, value, bound", [
        (3, "-248.0002552425113", "1.7770612480778651e-12"),
        (7, "-4118.999592415224", "2.4236332770731265e-11"),
        (79, "-1339190286959.9875", "0.00743936310897847"),
    ])
    def test_pinned_bytes_at_40000(self, D, value, bound):
        # the bits of the scan over all of Z/c.  At D = 7 and 79, 80 and 66
        # moduli have eight roots whose cosines fsum to exactly 0.0
        # (S(7, 184) is the first); the skip rule drops them, so their
        # bounds stay out of the total
        v = exact_formula_tJ(D, 40000)
        assert (repr(float(v.value)), repr(v.error_bound)) == (value, bound)

    def test_validation(self):
        with pytest.raises(ValueError):
            exact_formula_tJ(3, 6)
        with pytest.raises(ValueError):
            exact_formula_tJ(5, 4)


def _duke_oracle(D, prec=140):
    # reconstruct from the exact integer trace and a direct high-precision
    # subtraction of the dominant terms
    t = trace("J", D)
    assert t.certified
    with mp.workprec(prec):
        sub = mp.mpf(0)
        for F in enumerate_reduced(D):
            alpha = mp.mpc(-F.b, mp.sqrt(D)) / (2 * F.a)
            if float(alpha.imag) > 1:
                sub += (mp.e ** (-2j * mp.pi * alpha)).real
        h = hurwitz(D)
        tv = mp.mpf(t.value_rounded.numerator) / t.value_rounded.denominator
        return (tv - sub) * h.denominator / h.numerator


class TestDuke:
    def test_small_anchors(self):
        assert float(duke_statistic(3).value) == pytest.approx(-744, abs=1e-9)
        assert float(duke_statistic(4).value) == pytest.approx(984, abs=1e-9)

    def test_against_oracle(self):
        for D in (23, 47, 59):
            got = float(duke_statistic(D).value)
            assert got == pytest.approx(float(_duke_oracle(D)), abs=1e-10), D

    def test_float_vs_mp_paths(self):
        lo = float(duke_statistic(103).value)
        hi = float(duke_statistic(103, precision=120).value)
        assert abs(lo - hi) < 1e-11

    @pytest.mark.parametrize("D, man_exp, bound", [
        (3, (93, 3), "2.295708493709585e-30"),
        (4, (123, 3), "3.0352655923542837e-30"),  # [1, 0, 1] at Im alpha = 1
        (12, (951339985717672518827344619234407637, -112), "5.676760681380395e-31"),
        (16, (426362742132741606108787533884085755, -110), "1.0152205634583605e-30"),
        (27, (965829606385893631180808544286098129, -112), "5.762752665546304e-31"),
        (36, (989137455618723135999976935233909139, -112), "5.901078453920234e-31"),
        (100, (1021782399027430054845917574820637715, -112), "6.094817373728904e-31"),
        (103, (798459956125381155224722362524670557, -115), "6.231453951777703e-32"),
        (503, (326685480113386124341159737086205661, -112), "1.9696049465931479e-31"),
        (9999, (335520302186603058191119143930695415, -114), "5.286204665306159e-32"),
    ])
    def test_pinned_bytes_at_120_bits(self, D, man_exp, bound):
        # the mpmath route, bit for bit: a = b = c forms (3, 12, 27), forms
        # at Im alpha = 1 exactly ([a, 0, a] at D = 4a^2: 4, 16, 36, 100)
        # and many mirror pairs (503, 9999)
        r = duke_statistic(D, 120)
        assert (r.value.man_exp, repr(r.error_bound)) == (man_exp, bound)

    def test_validation(self):
        with pytest.raises(ValueError):
            duke_statistic(5)


class TestRegularizedAverage:
    def test_constant(self):
        r = regularized_average("1")
        assert float(r.value) == 1.0 and r.error_bound == 0.0

    def test_bigJ(self):
        r = regularized_average("J")
        assert abs(float(r.value) + 24) <= r.error_bound + 1e-8
        assert r.error_bound < 1e-6

    def test_faber_follow_sigma(self):
        # <J_m> = -24 sigma_1(m)
        for lab, want in [("J2", -72), ("J3", -96)]:
            r = regularized_average(lab)
            assert abs(float(r.value) - want) <= r.error_bound + 1e-6, lab
            assert r.error_bound < 1e-4

    def test_poly_spec(self):
        r = regularized_average([-744, 1])  # same as "J"
        assert float(r.value) == pytest.approx(-24, abs=1e-6)

    def test_rejects_nonvanishing_constant_term(self):
        with pytest.raises(ValueError):
            regularized_average("j")
        with pytest.raises(ValueError):
            regularized_average([1, 1])


class TestBeta:
    def test_zero(self):
        b = beta_integral(0)
        assert float(b.value) == 2.0 and b.error_bound == 0.0

    @pytest.mark.parametrize("s", [0.25, 1.0, 4.0])
    def test_closed_form(self, s):
        # beta(s) = 2(e^{-s} - sqrt(pi s) erfc(sqrt s))
        b = beta_integral(s)
        cf = 2 * (math.exp(-s) - math.sqrt(math.pi * s) * math.erfc(math.sqrt(s)))
        assert abs(float(b.value) - cf) < 1e-12

    @pytest.mark.parametrize("precision", [53, 70])
    @pytest.mark.parametrize("s", [0.25, 3.0, 20.0, 50.0, 100.0, 157.0])
    def test_against_quadrature(self, s, precision):
        # t = 1 + w/s: beta(s) = e^{-s}/s * integral_0^inf (1 + w/s)^{-3/2} e^{-w} dw,
        # a smooth integrand that a 300-bit quadrature resolves far past 70 bits
        b = beta_integral(s, precision)
        with mp.workprec(300):
            ref = mp.exp(-s) / s * mp.quad(lambda w: (1 + w / s) ** -1.5 * mp.exp(-w), [0, 1, 10, mp.inf])
            assert abs(b.value - ref) <= b.error_bound
            assert b.error_bound <= mp.ldexp(ref, 4 - precision)

    def test_decay_bound(self):
        for s in (0.1, 0.5, 2.0, 8.0):
            assert float(beta_integral(s).value) <= math.exp(-s) / s

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            beta_integral(-0.5)


class TestBatch:
    def test_independent_of_global_precision(self):
        # every step runs under its own workprec, so mpmath's global
        # precision (here far below and far above the policy) changes nothing
        def key(e):
            return (e.D, e.p, str(e.value_rounded), e.value_numeric.value._mpf_,
                    e.value_numeric.error_bound, e.residual, e.certified, e.precision)

        want = [key(e) for e in trace_table("J", range(3, 80))]
        for prec in (20, 2000):
            with mp.workprec(prec):
                assert [key(e) for e in trace_table("J", range(3, 80))] == want, prec

    def test_sorted_dedup(self):
        out = trace_table("J", [8, 3, 8, 4])
        assert [e.D for e in out] == [3, 4, 8]

    def test_precision_policy(self):
        assert precision_for(3) >= 64
        assert precision_for(100, 1) < precision_for(100, 3)
        assert precision_for(500) > precision_for(100)
