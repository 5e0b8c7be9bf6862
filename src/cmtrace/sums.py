"""Kloosterman sums (numpy passes over blocks of moduli), quadratic
exponential sums, Bessel I (mpmath's 0F1 with a one-rounding bound, as beta
in `analytic`), and the Rademacher-type coefficient formula for weight-k
Poincare series."""

from __future__ import annotations

import math
from math import cos, fsum, pi

import mpmath as mp
import numpy as np

from .hp import HP, _ulp
from .series import DomainError

# per-term evaluation noise for a cos(2*pi*rational) in float64
_COS_TERM_ERR = 5e-15


# residues per numpy pass of the Kloosterman kernel: enough to amortise the
# numpy calls over many small moduli, few enough to keep the memory flat
_BLOCK_RESIDUES = 4096


def _kloosterman_block(m: int, n: int, lo: int, hi: int) -> list[tuple[float, float]]:
    """(value, error bound) of K(m, n, c) for c = lo, ..., hi - 1 in one
    numpy pass over the residues d of every modulus; every c^2 < 2^63.

    Each term is math.cos(2.0 * pi * r / c) of the exact phase
    r = (m dbar + n d) mod c, the same float a loop over d computes, and
    fsum is correctly rounded in any order; so each value is the loop's.
    """
    cs = np.arange(lo, hi, dtype=np.int64)
    starts = np.cumsum(cs) - cs
    c = np.repeat(cs, cs)
    d = np.arange(c.size) - np.repeat(starts, cs)  # 0 <= d < c
    unit = np.gcd(d, c) == 1
    c, d = c[unit], d[unit]
    phi = np.bincount(c - lo, minlength=cs.size)
    # dbar = d^(phi(c) - 1) mod c, square-and-multiply with a per-residue
    # exponent; every product is below c^2 < 2^63
    e = np.repeat(phi - 1, phi)
    dbar, base = np.ones_like(d), d
    while e.any():
        dbar = np.where(e & 1, dbar * base % c, dbar)
        base = base * base % c
        e >>= 1
    # m and n reduced in Python, so any int index fits int64
    mc = np.repeat([m % k for k in range(lo, hi)], phi)
    nc = np.repeat([n % k for k in range(lo, hi)], phi)
    r = (mc * dbar % c + nc * d % c) % c
    terms = list(map(cos, (2.0 * pi * r / c).tolist()))
    out = []
    a = 0
    for k, count in zip(range(lo, hi), phi.tolist()):
        val = fsum(terms[a:a + count])
        a += count
        # K(m, n, 1) = 1 exactly
        out.append((val, 0.0 if k == 1 else count * _COS_TERM_ERR + _ulp(abs(val) + 1.0, 53)))
    return out


def _kloosterman_run(m: int, n: int, C: int):
    """(value, error bound) of K(m, n, c) for c = 1, ..., C, in blocks of
    consecutive moduli with at most _BLOCK_RESIDUES residues (or one
    modulus) each."""
    lo = 1
    while lo <= C:
        hi, size = lo + 1, lo
        while hi <= C and size + hi <= _BLOCK_RESIDUES:
            size += hi
            hi += 1
        yield from _kloosterman_block(m, n, lo, hi)
        lo = hi


def kloosterman(m: int, n: int, c: int) -> HP:
    """K(m,n,c) = sum over primitive residues d (mod c) of
    e((m*dbar + n*d)/c).  Real by the d -> -d symmetry.  One numpy pass
    holds all c residues, so memory grows linearly in c."""
    if c < 1:
        raise ValueError("c >= 1")
    if c * c >= 2 ** 63:
        raise ValueError(f"c = {c} is too large for the int64 residue pass")
    (val, err), = _kloosterman_block(m, n, c, c + 1)
    return HP(val, err, 53)


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

    I_nu(x) = (x/2)^nu / Gamma(nu+1) * 0F1(; nu+1; x^2/4), evaluated as
    mp.besseli at 24 guard bits evaluates it (the same factors at 10 more
    bits, rounded once to p + 24) without its generic hypercomb checks.
    mpmath evaluates I_nu to its working precision, so the bound is one
    rounding at `precision`.
    """
    if x < 0:
        raise ValueError("x >= 0")
    if x == 0:
        return HP(0 if nu > 0 else 1, 0.0, precision)
    p = max(precision, 53)
    with mp.workprec(p + 34):
        nu, x = mp.convert(nu), mp.convert(x)
        w = mp.fmul(x, 0.5, exact=True)
        r = mp.fmul(w, w, prec=max(0, p + 34 + mp.mag(x)))
        val = mp.fprod([mp.hyp0f1(nu + 1, r), mp.rgamma(nu + 1), mp.power(w, nu)])
    val = mp.mpf(val, prec=p + 24)
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

    The c-sum stops at C = min(c_max, 4000): a c_max above 4000 sums no
    more terms.  Everything past C, to infinity, is in the certified error
    bound, which decays like C^{-(k-2)}.
    """
    if k % 2 or not (4 <= k <= 14):
        raise DomainError("k must be even, 4 <= k <= 14")
    if m < 1 or n < 1 or c_max < 1:
        raise DomainError("m, n, c_max >= 1")
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
    # unfolding q^{-m} against the weight-k slash action produces the phase
    # e((n d - m dbar)/c), i.e. the first Kloosterman index enters with a
    # minus sign
    for c, (kl, kl_err) in enumerate(_kloosterman_run(-m, n, C), 1):
        bi = bessel_i(k - 1, xmn / c, 53) if c > 1 else first
        b = float(bi.value)
        v = kl / c * b
        vals.append(v)
        errs += (
            kl_err / c * (b + bi.error_bound)
            + abs(kl) / c * bi.error_bound
            + _ulp(abs(v), 53)
        )
    s = fsum(vals)
    pref = 2.0 * pi * (-1.0) ** (k // 2) * (n / m) ** ((k - 1) / 2.0)
    val = pref * s
    eb = abs(pref) * (errs + tail) + 4 * _ulp(abs(val), 53)
    if math.isinf(eb):
        raise ValueError(f"a({n}) at m n = {m * n} is past the float range")
    return HP(val, eb, 53)
