"""sympy as an independent oracle for the exact q-series arithmetic."""

from fractions import Fraction as F

import pytest

from cmtrace.series import QSeries, j_series, t_series

sympy = pytest.importorskip("sympy")
from sympy.polys.ring_series import rs_mul, rs_pow, rs_series_inversion  # noqa: E402

N = 41  # compare through q^40


def _ring():
    return sympy.polys.rings.ring("x", sympy.QQ)


def _euler(R, x, scale):
    """prod_{n >= 1} (1 - x^(scale n)) mod x^N."""
    p = R(1)
    for n in range(1, (N - 1) // scale + 1):
        p = rs_mul(p, 1 - x ** (scale * n), x, N)
    return p


def _coeffs(p, shift):
    """{exponent: Fraction} of x^shift * p."""
    return {e + shift: F(int(c.numerator), int(c.denominator))
            for (e,), c in p.terms() if c}


def _series_coeffs(s: QSeries, below: int):
    return {int(x): c for x, c in s.items() if x < below}


def test_j_against_sympy():
    # j = E4^3 / Delta, Delta = q prod (1 - q^n)^24
    R, x = _ring()
    e4 = 1 + 240 * sum(int(sympy.divisor_sigma(n, 3)) * x**n for n in range(1, N))
    num = rs_pow(e4, 3, x, N)
    den = rs_pow(_euler(R, x, 1), 24, x, N)
    j = rs_mul(num, rs_series_inversion(den, x, N), x, N)
    want = {e: c for e, c in _coeffs(j, -1).items() if e < N - 1}
    assert _series_coeffs(j_series(N - 1), N - 1) == want


def test_t_against_sympy():
    # t = eta(tau)^8 / eta(4 tau)^8 = q^-1 prod (1 - q^n)^8 / (1 - q^4n)^8
    R, x = _ring()
    num = rs_pow(_euler(R, x, 1), 8, x, N)
    den = rs_pow(_euler(R, x, 4), 8, x, N)
    t = rs_mul(num, rs_series_inversion(den, x, N), x, N)
    want = {e: c for e, c in _coeffs(t, -1).items() if e < N - 1}
    assert _series_coeffs(t_series(N - 1), N - 1) == want


def test_rational_reciprocal_against_sympy():
    # s = 3/2 q^(1/2) - 1/3 q^(3/2) + 5/7 q^(7/2), known below q^15; with
    # y = q^(1/2), 1/s is known below y^28
    s = QSeries({1: F(3, 2), 3: F(-1, 3), 7: F(5, 7)}, 30, 2)
    r = s.reciprocal()
    assert r.truncation_order == 14
    y = sympy.Symbol("y")
    expr = sympy.Rational(3, 2) * y - sympy.Rational(1, 3) * y**3 + sympy.Rational(5, 7) * y**7
    ser = sympy.series(1 / expr, y, 0, 28).removeO()
    want = {}
    for term in sympy.Add.make_args(ser):
        c, e = term.as_coeff_exponent(y)
        want[int(e)] = F(int(c.p), int(c.q))
    assert {int(n): c for n, c in r.terms.items()} == want
