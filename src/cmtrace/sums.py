"""Kloosterman sums (numpy passes over blocks of moduli, over half the
residues of each), quadratic exponential sums (square roots of -D mod each
prime power, by Tonelli-Shanks and Hensel lifting, joined by CRT), Bessel I
(mpmath's 0F1 with a one-rounding bound, as beta in `analytic`), and the
Rademacher-type coefficient formula for weight-k Poincare series."""

from __future__ import annotations

import math
from math import cos, fsum, pi

import mpmath as mp
import numpy as np

from .hp import HP, _rounded, _ulp
from .series import DomainError

# per-term evaluation noise for a cos(2*pi*rational) in float64
_COS_TERM_ERR = 5e-15


# residues per numpy pass of the Kloosterman kernel: enough to amortise the
# numpy calls over many small moduli, few enough to keep the memory flat
_BLOCK_RESIDUES = 4096


def _kloosterman_block(m: int, n: int, lo: int, hi: int) -> list[tuple[float, float]]:
    """(value, error bound) of K(m, n, c) for c = lo, ..., hi - 1 in one
    numpy pass over the residues d <= (c - 1)/2 of every modulus; every
    c^2 < 2^63.

    For c >= 3, d -> c - d pairs the units and sends dbar to c - dbar, so
    the phase r = (m dbar + n d) mod c of c - d is (c - r) mod c: the lower
    half's units, inverses and phases give the upper half's.  Each term is
    still math.cos(2.0 * pi * r / c) of its own exact phase, the same float
    a loop over d computes, and fsum is correctly rounded in any order; so
    each value is the loop's.
    """
    out = []
    if lo == 1:
        out.append((1.0, 0.0))  # K(m, n, 1) = 1 exactly
        lo = 2
    if lo == 2 < hi:
        # the one unit d = 1 = dbar of c = 2 has no partner
        val = cos(2.0 * pi * ((m + n) % 2) / 2)
        out.append((val, _COS_TERM_ERR + _ulp(abs(val) + 1.0, 53)))
        lo = 3
    if lo >= hi:
        return out
    cs = np.arange(lo, hi, dtype=np.int64)
    half = (cs - 1) // 2
    starts = np.cumsum(half) - half
    c = np.repeat(cs, half)
    d = np.arange(c.size) - np.repeat(starts, half) + 1  # 1 <= d <= (c - 1)/2
    unit = np.gcd(d, c) == 1
    c, d = c[unit], d[unit]
    units = np.bincount(c - lo, minlength=cs.size)  # phi(c)/2 per modulus
    # dbar = d^(phi(c) - 1) mod c, square-and-multiply with a per-residue
    # exponent; every product is below c^2 < 2^63
    e = np.repeat(2 * units - 1, units)
    dbar, base = np.ones_like(d), d
    while e.any():
        dbar = np.where(e & 1, dbar * base % c, dbar)
        base = base * base % c
        e >>= 1
    # m and n reduced in Python, so any int index fits int64
    mc = np.repeat([m % k for k in range(lo, hi)], units)
    nc = np.repeat([n % k for k in range(lo, hi)], units)
    r = (mc * dbar % c + nc * d % c) % c
    # the phases of d and c - d side by side, so each modulus's terms are
    # one slice
    r = np.stack([r, (c - r) % c], axis=1).ravel()
    terms = list(map(cos, (2.0 * pi * r / np.repeat(c, 2)).tolist()))
    a = 0
    for count in (2 * units).tolist():
        val = fsum(terms[a:a + count])
        a += count
        out.append((val, count * _COS_TERM_ERR + _ulp(abs(val) + 1.0, 53)))
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
    holds the (c - 1)/2 lower residues, so memory grows linearly in c."""
    if c < 1:
        raise ValueError("c >= 1")
    if c * c >= 2 ** 63:
        raise ValueError(f"c = {c} is too large for the int64 residue pass")
    (val, err), = _kloosterman_block(m, n, c, c + 1)
    return HP(val, err, 53)


def _sqrt_mod_prime(a: int, p: int) -> int:
    """A square root of the quadratic residue a (mod the odd prime p), by
    Tonelli-Shanks."""
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _prime_power_roots(D: int, p: int, q: int) -> list[int]:
    """The roots of x^2 = -D (mod q), q a power of the prime p."""
    a = -D % p
    if p > 2 and a:
        # two roots mod p or none, each with one Newton (Hensel) lift to q
        if pow(a, (p - 1) // 2, p) != 1:
            return []
        r, k = _sqrt_mod_prime(a, p), p
        while k < q:
            k = min(k * k, q)
            r = (r - (r * r + D) * pow(2 * r, -1, k)) % k
        return [r, q - r]
    # p = 2 or p | D: the one root mod p is a, and a root x mod p^j lifts
    # to those of x + t p^j, t < p, that are roots mod p^(j+1)
    roots, k = [a], p
    while k < q:
        roots = [y for x in roots for y in range(x, k * p, k) if (y * y + D) % (k * p) == 0]
        k *= p
    return roots


def _roots(D: int, c: int) -> list[int]:
    """The roots of x^2 = -D (mod c), in no particular order, joined by CRT
    from those mod each prime power of c, whose primes trial division
    finds."""
    roots, k, p = [0], 1, 2  # the roots mod k, the part of c done so far
    while c > 1:
        if p * p > c:
            p = c  # what is left is prime
        if c % p == 0:
            q = p
            c //= p
            while c % p == 0:
                q *= p
                c //= p
            more = _prime_power_roots(D, p, q)
            inv = pow(k, -1, q)
            roots = [x + k * ((y - x) * inv % q) for x in roots for y in more]
            if not roots:
                break
            k *= q
        p = 3 if p == 2 else p + 2
    return roots


def exp_sum_S(D: int, c: int) -> HP:
    """S(D,c) = sum over x (mod c) with x^2 = -D (mod c) of e(2x/c), for
    c^2 < 2^63 as in kloosterman."""
    if c < 1:
        raise ValueError("c >= 1")
    if c * c >= 2 ** 63:
        raise ValueError(f"c = {c} is past the domain c^2 < 2^63 (kloosterman's int64 bound)")
    # fsum is correctly rounded in any order, so the roots need no sorting
    roots = _roots(D, c)
    val = fsum([cos(2.0 * pi * ((2 * r) % c) / c) for r in roots])
    return HP(val, len(roots) * _COS_TERM_ERR + _ulp(abs(val) + 1.0, 53), 53)


def _bessel_values(nu, xs, precision: int = 53) -> list:
    """I_nu(x) for each x > 0 of xs, as mpfs rounded once to precision + 24
    bits, all in one working precision with 1/Gamma(nu + 1) found once.

    I_nu(x) = (x/2)^nu / Gamma(nu+1) * 0F1(; nu+1; x^2/4), evaluated as
    mp.besseli at 24 guard bits evaluates it (the same factors at 10 more
    bits) without its generic hypercomb checks.
    """
    p = max(precision, 53)
    out = []
    with mp.workprec(p + 34):
        nu = mp.convert(nu)
        g = mp.rgamma(nu + 1)
        for x in xs:
            x = mp.convert(x)
            w = mp.fmul(x, 0.5, exact=True)
            r = mp.fmul(w, w, prec=max(0, p + 34 + mp.mag(x)))
            val = mp.fprod([mp.hyp0f1(nu + 1, r), g, mp.power(w, nu)])
            out.append(mp.mpf(val, prec=p + 24))
    return out


def bessel_i(nu, x, precision: int = 53) -> HP:
    """Modified Bessel function of the first kind I_nu(x) for real nu >= 0
    and x >= 0.  mpmath evaluates I_nu to its working precision, so the
    bound is one rounding at `precision`.
    """
    if nu < 0:
        # I_nu(0) is infinite for non-integer nu < 0 and 0 for integer ones,
        # and 1/Gamma(nu + 1) is 0 at the negative integers
        raise ValueError("nu >= 0")
    if x < 0:
        raise ValueError("x >= 0")
    if x == 0:
        return HP(0 if nu > 0 else 1, 0.0, precision)
    val, = _bessel_values(nu, [x], precision)
    return HP(val, _ulp(abs(float(val)), max(precision, 53)), precision)


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
    # each I_{k-1}(4 pi sqrt(mn)/c) rounded to 53 bits, with bessel_i's bound
    bessel = []
    for val in _bessel_values(k - 1, [xmn / c for c in range(1, C + 1)]):
        b, err = _rounded(val, _ulp(abs(float(val)), 53), 53)
        bessel.append((float(b), err))
    # the c-sum runs in float64: fail before it if the c = 1 term, the
    # largest, or the tail bound past C leaves the float range
    if math.isinf(bessel[0][0]):
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
    for c, (kl, kl_err), (b, b_err) in zip(range(1, C + 1), _kloosterman_run(-m, n, C), bessel):
        v = kl / c * b
        vals.append(v)
        errs += (
            kl_err / c * (b + b_err)
            + abs(kl) / c * b_err
            + _ulp(abs(v), 53)
        )
    s = fsum(vals)
    pref = 2.0 * pi * (-1.0) ** (k // 2) * (n / m) ** ((k - 1) / 2.0)
    val = pref * s
    eb = abs(pref) * (errs + tail) + 4 * _ulp(abs(val), 53)
    if math.isinf(eb):
        raise ValueError(f"a({n}) at m n = {m * n} is past the float range")
    return HP(val, eb, 53)
