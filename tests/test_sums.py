"""Kloosterman sums, quadratic exponential sums, Bessel I, and the
Fourier coefficients of negative-index Poincare series.

Oracle notes: bessel values are checked against mpmath.besseli at high
working precision, against sqrt(2/(pi x)) sinh x at order 1/2, and against
(1/pi) int_0^pi e^{x cos t} cos(nu t) dt by quadrature at integer order;
K(m,n,c) against a direct complex-exponential sum; the three Poincare
coefficients against their known integer values (141444, 68234240,
6446476530).
"""

import cmath
import math

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmtrace.hp import _ulp
from cmtrace.sums import _COS_TERM_ERR, bessel_i, exp_sum_S, kloosterman, poincare_coeff


def _kloosterman_naive(m, n, c):
    # direct complex sum, independent of the integer-phase reduction
    tot = 0j
    for d in range(1, c + 1):
        if math.gcd(d, c) != 1:
            continue
        dbar = pow(d, -1, c)
        tot += cmath.exp(2j * math.pi * (m * dbar + n * d) / c)
    return tot


class TestKloosterman:
    def test_anchors(self):
        for c, want in [(1, 1), (2, 1), (3, -1), (4, -2)]:
            v = kloosterman(1, 1, c)
            assert abs(float(v.value) - want) <= v.error_bound + 1e-12

    def test_vs_naive_sum(self):
        for (m, n, c) in [(1, 1, 5), (2, 3, 7), (-1, 1, 12), (1, 4, 9), (5, 5, 16), (-2, 7, 15)]:
            v = kloosterman(m, n, c)
            z = _kloosterman_naive(m, n, c)
            assert abs(z.imag) < 1e-9  # sums are real
            assert abs(float(v.value) - z.real) < 1e-9

    @given(st.integers(-20, 20), st.integers(-20, 20), st.integers(1, 40))
    @settings(max_examples=150, deadline=None)
    def test_periodicity_and_symmetry(self, m, n, c):
        v = float(kloosterman(m, n, c).value)
        assert abs(v - float(kloosterman(m + c, n, c).value)) < 1e-9
        assert abs(v - float(kloosterman(n, m, c).value)) < 1e-9
        assert abs(v) <= c + 1e-9  # trivial bound: phi(c) <= c terms of modulus 1


class TestExpSumS:
    def test_anchors(self):
        assert abs(float(exp_sum_S(3, 4).value) - (-2)) < 1e-12
        assert abs(float(exp_sum_S(4, 4).value) - 2) < 1e-12
        assert abs(float(exp_sum_S(1, 4).value) - 0) < 1e-12

    def test_vs_naive(self):
        for D in (3, 4, 8, 11, 20):
            for c in (4, 8, 12, 20):
                tot = 0j
                for x in range(c):
                    if (x * x + D) % c == 0:
                        tot += cmath.exp(2j * math.pi * (2 * x) / c)
                v = exp_sum_S(D, c)
                assert abs(tot.imag) < 1e-9
                assert abs(float(v.value) - tot.real) < 1e-9

    @given(st.integers(-10 ** 6, 10 ** 6), st.integers(1, 2000))
    @settings(max_examples=150, deadline=None)
    def test_matches_root_loop(self, D, c):
        # the scan over all of Z/c, term for term in the same order
        terms = [math.cos(2.0 * math.pi * ((2 * x) % c) / c)
                 for x in range(c) if (x * x + D) % c == 0]
        val = math.fsum(terms)
        v = exp_sum_S(D, c)
        assert repr(float(v.value)) == repr(val)
        assert v.error_bound == len(terms) * _COS_TERM_ERR + _ulp(abs(val) + 1.0, 53)

    def test_modulus_past_int64_rejected(self):
        with pytest.raises(ValueError, match="int64"):
            exp_sum_S(3, 2 ** 32)

    @given(st.integers(1, 60), st.integers(1, 50))
    @settings(max_examples=120, deadline=None)
    def test_trivial_bound(self, D, c):
        assert abs(float(exp_sum_S(D, c).value)) <= c + 1e-9


class TestBesselI:
    @pytest.mark.parametrize("nu", [0.5, 3, 5, 13])
    @pytest.mark.parametrize("x", [0.3, 1.0, 7.5, 30.0, 55.0, 120.0])
    def test_against_mpmath(self, nu, x):
        v = bessel_i(nu, x, precision=60)
        with mp.workprec(120):
            ref = mp.besseli(nu, x)
        assert abs(float(v.value - ref)) <= v.error_bound + 1e-300
        assert v.error_bound < 1e-8 * (abs(float(ref)) + 1)

    def test_half_integer_closed_form(self):
        for x in (0.7, 3.0, 20.0):
            v = bessel_i(0.5, x)
            cf = math.sqrt(2 / (math.pi * x)) * math.sinh(x)
            assert abs(float(v.value) - cf) <= v.error_bound + 1e-12 * cf

    def test_edges(self):
        assert float(bessel_i(3, 0).value) == 0.0
        assert float(bessel_i(0, 0).value) == 1.0
        with pytest.raises(ValueError):
            bessel_i(3, -1.0)

    @pytest.mark.parametrize("x", [50.5, 55.0, 60.0])
    def test_half_integer_bound_at_high_precision(self, x):
        # I_{1/2}(x) = sqrt(2/(pi x)) sinh x, with the e^-x half of sinh kept
        v = bessel_i(0.5, x, precision=200)
        with mp.workprec(400):
            cf = mp.sqrt(2 / (mp.pi * x)) * mp.sinh(x)
            assert abs(v.value - cf) <= v.error_bound

    def test_past_float_range(self):
        v = bessel_i(0.5, 1000)
        with mp.workprec(200):
            cf = mp.sqrt(2 / (mp.pi * 1000)) * mp.sinh(1000)
            assert abs(v.value - cf) <= mp.ldexp(cf, -50)

    @pytest.mark.parametrize("nu", [0, 3, 13])
    @pytest.mark.parametrize("x", [0.3, 7.5, 30.0, 55.0])
    def test_against_integral(self, nu, x):
        # integer order: I_nu(x) = (1/pi) int_0^pi e^{x cos t} cos(nu t) dt,
        # an oracle that does not go through besseli
        v = bessel_i(nu, x, precision=120)
        with mp.workprec(300):
            ref = mp.quad(lambda t: mp.exp(x * mp.cos(t)) * mp.cos(nu * t), [0, mp.pi]) / mp.pi
            assert abs(v.value - ref) <= v.error_bound


class TestPoincare:
    # weight-4 index -1 coefficients; the c-sum tail is certified
    def test_first_coefficient(self):
        v = poincare_coeff(4, 1, 1, 600)
        assert abs(float(v.value) - 141444) <= v.error_bound
        assert v.error_bound < 0.01

    def test_second_coefficient(self):
        v = poincare_coeff(4, 1, 2, 600)
        assert abs(float(v.value) - 68234240) <= v.error_bound
        assert v.error_bound < 0.5

    def test_third_coefficient(self):
        v = poincare_coeff(4, 1, 3, 800)
        assert abs(float(v.value) - 6446476530) / 6446476530 < 1e-8

    def test_cmax_stability(self):
        a = poincare_coeff(4, 1, 1, 300)
        b = poincare_coeff(4, 1, 1, 600)
        assert abs(float(a.value) - float(b.value)) <= a.error_bound + b.error_bound

    def test_rejects_bad_weight(self):
        with pytest.raises(ValueError):
            poincare_coeff(5, 1, 1, 100)
        with pytest.raises(ValueError):
            poincare_coeff(2, 1, 1, 100)
