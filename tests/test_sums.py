"""Kloosterman sums, quadratic exponential sums, Bessel I, and the
Fourier coefficients of negative-index Poincare series.

Oracle notes: bessel values are checked against mpmath.besseli at high
working precision, against sqrt(2/(pi x)) sinh x at order 1/2, against
(1/pi) int_0^pi e^{x cos t} cos(nu t) dt by quadrature at integer order,
and to the last bit against the mp.besseli route; K(m,n,c) against a
direct complex-exponential sum and, to the last bit, against the
per-residue loop; S(D,c) to the last bit against the scan over all of
Z/c in tests/references.py; the three Poincare coefficients against their
known integer values (141444, 68234240, 6446476530) and, to the last bit,
against pinned reprs.
"""

import cmath
import math
import tracemalloc

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmtrace.hp import HP, _ulp
from cmtrace.sums import (
    _COS_TERM_ERR,
    _kloosterman_block,
    _kloosterman_run,
    bessel_i,
    exp_sum_S,
    kloosterman,
    poincare_coeff,
)
from references import exp_sum_scan, exp_sum_terms


def _kloosterman_naive(m, n, c):
    # direct complex sum, independent of the integer-phase reduction
    tot = 0j
    for d in range(1, c + 1):
        if math.gcd(d, c) != 1:
            continue
        dbar = pow(d, -1, c)
        tot += cmath.exp(2j * math.pi * (m * dbar + n * d) / c)
    return tot


def _kloosterman_loop(m, n, c):
    # the per-residue loop the numpy kernel replaced, term for term: the
    # reference its value and bound must equal exactly
    if c == 1:
        return 1.0, 0.0
    terms = []
    for d in range(1, c):
        if math.gcd(d, c) != 1:
            continue
        dbar = pow(d, -1, c)
        r = (m * dbar + n * d) % c
        terms.append(math.cos(2.0 * math.pi * r / c))
    val = math.fsum(terms)
    return val, len(terms) * _COS_TERM_ERR + _ulp(abs(val) + 1.0, 53)


def _bessel_besseli(nu, x, precision=53):
    # the mp.besseli route bessel_i replaced: the same bits, value and bound
    p = max(precision, 53)
    with mp.workprec(p + 24):
        val = mp.besseli(nu, x)
    return HP(val, _ulp(abs(float(val)), p), precision)


ORACLE_INDICES = [(-1, 1), (-1, 2), (-1, 3), (3, -7), (-2, 5), (0, 0), (5, 5)]


class TestKloosterman:
    @pytest.mark.parametrize("m, n", ORACLE_INDICES)
    def test_equals_residue_loop(self, m, n):
        # every c <= 300 one modulus at a time, and in poincare_coeff's
        # blocks, whose edges at this cap fall at c = 90|91, 127|128, ...
        for c, blocked in enumerate(_kloosterman_run(m, n, 300), 1):
            want = _kloosterman_loop(m, n, c)
            v = kloosterman(m, n, c)
            assert (float(v.value), v.error_bound) == want
            assert blocked == want

    @pytest.mark.parametrize("lo, hi", [(1, 2), (2, 3), (1, 3), (2, 4), (3, 4), (1, 12), (2, 12)])
    def test_block_edges_equal_residue_loop(self, lo, hi):
        # c = 1 and c = 2 have no d <-> c - d pairs; a block may start or
        # stop at either
        for m, n in ORACLE_INDICES:
            want = [_kloosterman_loop(m, n, c) for c in range(lo, hi)]
            assert _kloosterman_block(m, n, lo, hi) == want

    @pytest.mark.parametrize("m", [2 ** 62, 10 ** 20, -(10 ** 30) - 3])
    def test_large_index_reduced_before_int64(self, m):
        for c in (7, 12, 300):
            v = kloosterman(m, 1, c)
            w = kloosterman(m % c, 1, c)
            assert (v.value, v.error_bound) == (w.value, w.error_bound)
            assert (float(v.value), v.error_bound) == _kloosterman_loop(m, 1, c)

    def test_modulus_past_int64_rejected(self):
        with pytest.raises(ValueError, match="int64"):
            kloosterman(1, 1, 2 ** 32)

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


_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
_C_MAX = 10 ** 5


@st.composite
def _modulus_and_disc(draw):
    """(c, D) with c <= 10^5: a high power of 2 times an odd part, an odd
    prime power, a product of five distinct primes, or any c; D any
    integer, or a multiple of p^j or 4 p^2 for a prime p | c."""
    kind = draw(st.sampled_from(["two", "prime power", "five primes", "any"]))
    if kind == "two":
        e = draw(st.integers(1, 16))
        c = 2 ** e * (2 * draw(st.integers(0, ((_C_MAX >> e) - 1) // 2)) + 1)
    elif kind == "prime power":
        p = draw(st.sampled_from(_SMALL_PRIMES[1:] + [101, 313, 991, 99991]))
        c = p ** draw(st.integers(1, int(math.log(_C_MAX, p))))
    elif kind == "five primes":
        ps = draw(st.lists(st.sampled_from(_SMALL_PRIMES), min_size=5, max_size=5, unique=True)
                  .filter(lambda ps: math.prod(ps) <= _C_MAX))
        c = math.prod(ps)
    else:
        c = draw(st.integers(1, _C_MAX))
    ps = [p for p in range(2, min(c, 400) + 1) if c % p == 0 and all(p % q for q in range(2, p))]
    if c > 1 and not ps:
        ps = [c]  # c is prime
    if not ps or draw(st.booleans()):
        return c, draw(st.integers(-10 ** 6, 10 ** 6))
    p = draw(st.sampled_from(ps))
    k = draw(st.integers(-1000, 1000))
    return c, draw(st.sampled_from([4 * p * p * k, p ** draw(st.integers(1, 6)) * k]))


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

    def test_equals_scan_every_small_modulus(self):
        # every D in -20..300 and c <= 2000; the scan groups the residues of
        # each c by x^2 mod c once for all D
        for c in range(1, 2001):
            classes = {}
            for x in range(c):
                classes.setdefault(x * x % c, []).append(x)
            for D in range(-20, 301):
                v = exp_sum_S(D, c)
                assert (float(v.value), v.error_bound) == exp_sum_terms(c, classes.get(-D % c, []))

    @given(_modulus_and_disc())
    @settings(max_examples=300, deadline=None)
    def test_equals_scan(self, case):
        c, D = case
        v = exp_sum_S(D, c)
        assert (float(v.value), v.error_bound) == exp_sum_scan(D, c)

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

    @pytest.mark.parametrize("nu, x", [(-1, 0), (-0.5, 0), (-3, 0.0), (-1, 1.0), (-0.5, 2.0)])
    def test_negative_order_rejected(self, nu, x):
        # I_{-1}(0) = 0 and I_{-1/2}(0) = +inf, where the x = 0 branch gave
        # 1; at x > 0 the 0F1 parameter nu + 1 = 0 divided by zero
        with pytest.raises(ValueError, match="nu >= 0"):
            bessel_i(nu, x)

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

    @pytest.mark.parametrize("nu", [0, 0.5, 3, 13])
    @pytest.mark.parametrize("precision", [53, 120])
    def test_equals_besseli_route(self, nu, precision):
        xs = [1e-3, 0.3, 1.0, 7.5, 22.0, 23.0, 30.0, 55.0, 120.0, 300.0, 714.0, 1000.0]
        xs += [4 * math.pi * math.sqrt(n) / c for n in (1, 3) for c in range(1, 40)]
        for x in xs:
            v, want = bessel_i(nu, x, precision), _bessel_besseli(nu, x, precision)
            assert (v.value, v.error_bound, v.prec) == (want.value, want.error_bound, want.prec)

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

    @pytest.mark.parametrize("n, c_max, value, bound", [
        (1, 600, "141444.00000003257", "0.0003608141974289255"),
        (2, 600, "68234239.99999899", "0.002886934467283774"),
        (3, 600, "6446476529.999984", "0.009754134492306528"),
        (1, 4000, "141443.99999999953", "8.117664962998753e-06"),
        # x^2/4 = 16 pi^2 >= 128 at c = 1: hyp0f1's asymptotic branch
        (4, 600, "275423256575.9997", "0.023527790394133552"),
    ])
    def test_pinned_bytes(self, n, c_max, value, bound):
        # the value and bound of the per-residue Kloosterman loop and the
        # mp.besseli route, to the last bit
        v = poincare_coeff(4, 1, n, c_max)
        assert (repr(float(v.value)), repr(v.error_bound)) == (value, bound)

    @pytest.mark.parametrize("k, m, n, c_max, value, bound", [
        (14, 1, 1, 600, "-323.9999999999998", "5.036131275328145e-13"),
        (4, 2, 1, 600, "8529279.999999873", "0.00036086680841047175"),
        (6, 2, 1, 200, "-2695039.999999998", "8.446390159050749e-08"),
    ])
    def test_pinned_bytes_weight_and_index(self, k, m, n, c_max, value, bound):
        # as test_pinned_bytes, at the top weight and at the pole order 2
        v = poincare_coeff(k, m, n, c_max)
        assert (repr(float(v.value)), repr(v.error_bound)) == (value, bound)

    def test_memory_stays_flat(self):
        # the Kloosterman kernel holds one block of residues at a time: with
        # 65,536-residue blocks this peak is 5.0 MiB, with 4,096 it is
        # 0.35 MiB.  c_max = 600 is the benchmark's size; at 4000,
        # tracemalloc traces the floats of 4.9 million terms for about 50 s
        tracemalloc.start()
        try:
            poincare_coeff(4, 1, 1, 600)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20

    def test_rejects_bad_weight(self):
        with pytest.raises(ValueError):
            poincare_coeff(5, 1, 1, 100)
        with pytest.raises(ValueError):
            poincare_coeff(2, 1, 1, 100)
