"""Kloosterman sums, quadratic exponential sums, Bessel I (from mpmath with
a one-rounding bound, as beta in `analytic`), and the Rademacher-type
coefficient formula for weight-k Poincare series."""

from __future__ import annotations

import math
from math import cos, fsum, gcd, pi

import mpmath as mp
import numpy as np

from .hp import HP, _ulp

# per-term evaluation noise for a cos(2*pi*rational) in float64
_COS_TERM_ERR = 5e-15


def kloosterman(m: int, n: int, c: int) -> HP:
    """K(m,n,c) = sum over primitive residues d (mod c) of
    e((m*dbar + n*d)/c).  Real by the d -> -d symmetry."""
    if c < 1:
        raise ValueError("c >= 1")
    if c == 1:
        return HP(1, 0.0, 53)
    terms = []
    count = 0
    for d in range(1, c):
        if gcd(d, c) != 1:
            continue
        dbar = pow(d, -1, c)
        r = (m * dbar + n * d) % c  # exact rational phase r/c in [0,1)
        terms.append(cos(2.0 * pi * r / c))
        count += 1
    val = fsum(terms)
    return HP(val, count * _COS_TERM_ERR + _ulp(abs(val) + 1.0, 53), 53)


def exp_sum_S(D: int, c: int) -> HP:
    """S(D,c) = sum over x (mod c) with x^2 = -D (mod c) of e(2x/c)."""
    if c < 1:
        raise ValueError("c >= 1")
    if c * c >= 2 ** 63:
        raise ValueError(f"c = {c} is too large for the int64 root scan")
    # roots in increasing order; x^2 + (D mod c) < c^2 stays inside int64
    x = np.arange(c, dtype=np.int64)
    roots = np.flatnonzero((x * x + D % c) % c == 0).tolist()
    val = fsum([cos(2.0 * pi * ((2 * r) % c) / c) for r in roots])
    return HP(val, len(roots) * _COS_TERM_ERR + _ulp(abs(val) + 1.0, 53), 53)


def bessel_i(nu, x, precision: int = 53) -> HP:
    """Modified Bessel function of the first kind I_nu(x), x >= 0.

    mpmath evaluates I_nu to its working precision, so at 24 guard bits
    the bound is one rounding at `precision`.
    """
    if x < 0:
        raise ValueError("x >= 0")
    if x == 0:
        return HP(0 if nu > 0 else 1, 0.0, precision)
    p = max(precision, 53)
    with mp.workprec(p + 24):
        val = mp.besseli(nu, x)
    return HP(val, _ulp(abs(float(val)), p), precision)


def _poincare_tail_bound(k: int, m: int, n: int, C: int) -> float:
    # |K(m,n,c)| <= phi(c) < c and I_{k-1}(y) <= (y/2)^{k-1} e^{y^2/4}/(k-1)!
    # give  sum_{c>C} (1/c)|K| I_{k-1}(4 pi sqrt(mn)/c)
    #       <= (2 pi sqrt(mn))^{k-1}/(k-1)! * e^{4 pi^2 mn/C^2} / ((k-2) C^{k-2})
    y = 2.0 * pi * math.sqrt(m * n)
    return (
        y ** (k - 1)
        / math.factorial(k - 1)
        * math.exp(4.0 * pi * pi * m * n / (C * C))
        / ((k - 2) * C ** (k - 2))
    )


_POINCARE_C_CAP = 4000


def poincare_coeff(k: int, m: int, n: int, c_max: int) -> HP:
    """Coefficient a(n) of the weight-k Poincare series q^{-m} + O(q):

        a(n) = 2 pi (-1)^{k/2} (n/m)^{(k-1)/2}
               sum_{c>=1} (1/c) K(m,n,c) I_{k-1}(4 pi sqrt(mn)/c).

    The c-sum is evaluated exactly up to min(c_max, 4000); everything past
    that point (including the infinite tail beyond c_max) is absorbed into
    the certified error bound, which decays like C^{-(k-2)}.
    """
    if k % 2 or not (4 <= k <= 14):
        raise ValueError("k must be even, 4 <= k <= 14")
    if m < 1 or n < 1 or c_max < 1:
        raise ValueError("m, n, c_max >= 1")
    C = min(c_max, _POINCARE_C_CAP)
    xmn = 4.0 * pi * math.sqrt(m * n)
    # the c-sum runs in float64: fail before it if the c = 1 term, the
    # largest, or the tail bound past C leaves the float range
    first = bessel_i(k - 1, xmn, 53)
    if math.isinf(float(first.value)):
        raise ValueError(f"I_{k - 1}(4 pi sqrt(m n)) at m n = {m * n} is past the float range")
    try:
        tail = _poincare_tail_bound(k, m, n, C)
    except OverflowError:
        tail = math.inf
    if math.isinf(tail):
        raise ValueError(f"the tail bound past c = {C} at m n = {m * n} is past the float range")
    vals = []
    errs = 0.0
    for c in range(1, C + 1):
        # unfolding q^{-m} against the weight-k slash action produces the
        # phase e((n d - m dbar)/c), i.e. the first Kloosterman index
        # enters with a minus sign
        kl = kloosterman(-m, n, c)
        bi = bessel_i(k - 1, xmn / c, 53) if c > 1 else first
        v = float(kl.value) / c * float(bi.value)
        vals.append(v)
        errs += (
            kl.error_bound / c * (float(bi.value) + bi.error_bound)
            + abs(float(kl.value)) / c * bi.error_bound
            + _ulp(abs(v), 53)
        )
    s = fsum(vals)
    pref = 2.0 * pi * (-1.0) ** (k // 2) * (n / m) ** ((k - 1) / 2.0)
    val = pref * s
    eb = abs(pref) * (errs + tail) + 4 * _ulp(abs(val), 53)
    if math.isinf(eb):
        raise ValueError(f"a({n}) at m n = {m * n} is past the float range")
    return HP(val, eb, 53)
