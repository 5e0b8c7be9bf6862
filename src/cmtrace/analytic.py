"""CM values, traces, the exact formula, Duke's statistic, the regularized
average, and beta(s).

Certified results leave this module as HP records.  Inside it, CM values
and trace sums are integer balls, exact up to their radius; traces carry
an explicit rounding residual and are never silently rounded.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from math import isqrt
from operator import itemgetter

import mpmath as mp
import numpy as np
from mpmath.libmp import from_int, from_man_exp, mpf_cos_sin, mpf_div, mpf_mul_int, mpf_pi, to_fixed

from .hp import HP, _ulp
from .qform import (
    QuadForm,
    _has_mirror,
    _reduced_triples,
    _weight,
    enumerate_reduced,
    hurwitz,
    level_p_orbits,
    stabilizer_order,
)
from .series import DomainError, QSeries, _poly_in_j, _step, bigJ_series, faber_poly

_LN2 = math.log(2.0)


def precision_for(D: int, degree: int = 1) -> int:
    """Mantissa bits so that values of size e^{degree*pi*sqrt(D)} round to
    the correct integer with room to spare."""
    return math.ceil(max(degree, 1) * math.pi * math.sqrt(max(D, 1)) / _LN2) + 64


# ---------------------------------------------------------------------------
# certified CM evaluation on fixed-point complex ints.  A ball (x, y, r, W)
# of ints stands for (x + iy) 2^-W with radius r 2^-W; r is rounded up at
# every truncating step, and a product truncated back to W fractional bits
# is off by under sqrt 2 units of 2^-W.  Balls never leave this module.

def _cmul(ax: int, ay: int, bx: int, by: int, W: int):
    return (ax * bx - ay * by) >> W, (ax * by + ay * bx) >> W


def _cdiv(ax: int, ay: int, bx: int, by: int, W: int):
    d = bx * bx + by * by
    return ((ax * bx + ay * by) << W) // d, ((ay * bx - ax * by) << W) // d


def _float_up(r: int, W: int) -> float:
    """r 2^-W rounded up to a float, inf past the float range."""
    try:
        return math.nextafter(r / (1 << W), math.inf)
    except OverflowError:
        return math.inf


def _pentagonal(x: int, y: int, lr: float, W: int):
    """(P, n): P(q) = prod_{n>=1} (1 - q^n) at q = (x, y) by Euler's
    pentagonal theorem, summed until |q|^e1 < 2^-W / e, and the number n
    of powers summed.  lr = ln|q|.

    P = 1 + sum_k (-1)^k (q^e1 + q^e2) with e1 = k(3k-1)/2, e2 = e1 + k and
    e1(k+1) = e2 + 2k+1: the powers are stepped along by q^k and q^(2k+1),
    four products per k.  For |q| <= 0.006, if q is within 3 units of the
    truth then so is each power, since 2 * 0.006 * 3 + sqrt 2 < 3.  So P
    is within 3n units, plus the terms left out: 2|q|^e1 / (1 - |q|) < 1.
    """
    cut = -(W * _LN2 + 1)
    q2 = _cmul(x, y, x, y, W)
    qk, q2k1, qe1 = (x, y), _cmul(*q2, x, y, W), (x, y)
    Px, Py = 1 << W, 0
    k = 1
    while True:
        qe2 = _cmul(*qe1, *qk, W)
        sign = -1 if k % 2 else 1
        Px, Py = Px + sign * (qe1[0] + qe2[0]), Py + sign * (qe1[1] + qe2[1])
        k += 1
        if k * (3 * k - 1) // 2 * lr < cut:
            return Px, Py, 2 * (k - 1)
        qe1, qk, q2k1 = _cmul(*qe2, *q2k1, W), _cmul(*qk, x, y, W), _cmul(*q2k1, *q2, W)


def _modulus(E, W: int):
    """(mE, eE, |q|) for the mpf E = |1/q| = mE 2^eE, with eE <= -W, so
    that scaling by E and truncating to W bits is a right shift, and |q|
    as floor(2^W / E), which is 0 once E > 2^W."""
    _, mE, eE, _ = E._mpf_
    s = max(eE + W, 0)
    mE, eE = mE << s, eE - s
    return mE, eE, (1 << (W - eE)) // mE


@lru_cache(maxsize=64)
def _cm_modulus(D: int, k: int, m: int, W: int):
    """_modulus of e^{pi sqrt(D) k / m}, the |q^(-k/d)| shared by the CM
    points of the forms [a, b, c] of discriminant -D with m = a d, within
    2^-(W+15)."""
    wp = W + 20 + (D * k * k).bit_length()
    with mp.workprec(wp):
        return _modulus(mp.exp(mp.pi * mp.mpf((k * isqrt(D << 2 * wp), -wp)) / m), W)


def _q_power(point, k: int, d: int, W: int):
    """(wx, wy, ln|w|, inv) for w = q^(k/d) at the CM point of a QuadForm,
    1/w = e^{pi sqrt(D) k / ad} e^{i pi b k / ad} with the angle reduced
    exactly, or at an mpc tau, 1/w = e^{-2 pi i tau k / d}.  inv is
    (mE, eE, c, s) with 1/w = E e^{i theta}, E = mE 2^eE as in _modulus
    and c, s = cos, sin theta each within 1 unit.  |w| = floor(2^W / E) is
    off by 1.01 units, so w is off by under 1.5 |w| + 1.01 + sqrt 2: under
    4, and under 3 when |w| <= 0.006."""
    if isinstance(point, QuadForm):
        m = point.a * d
        lr = -math.pi * math.sqrt(point.D) * k / m
        mE, eE, wa = _cm_modulus(point.D, k, m, W)
        n, wp = point.b * k % (2 * m), W + 20
        # theta = pi n / m in (-pi, pi], rounded as mp.pi * n / m would be
        # at wp bits, without an mp context switch per form
        theta = mpf_div(mpf_mul_int(mpf_pi(wp, "n"), n - 2 * m if n > m else n, wp, "n"), from_int(m), wp, "n")
    else:
        lr = -2 * math.pi * float(point.imag) * k / d
        # guard bits for the size of x and theta
        wp = W + 24 + int(max(abs(point.real), point.imag) * abs(k) / d).bit_length()
        with mp.workprec(wp):
            mE, eE, wa = _modulus(mp.exp(2 * mp.pi * point.imag * k / d), W)
            theta = (-2 * mp.pi * point.real * k / d)._mpf_
    c, s = (to_fixed(v, W) for v in mpf_cos_sin(theta, wp, "n"))
    return (wa * c) >> W, -((wa * s) >> W), lr, (mE, eE, c, s)


def _times_inv(x: int, y: int, r: int, inv, W: int):
    """The ball (x, y, r) times 1/w = E e^{i theta}, inv as from _q_power.
    r must already charge 1.5 |x + iy| units for c, s and |x + iy| for E;
    truncating to W bits adds under 2 units."""
    mE, eE, c, s = inv
    return (x * c - y * s) * mE >> (W - eE), (x * s + y * c) * mE >> (W - eE), -(-r * mE >> -eE) + 2


def _j_certified(point, prec: int):
    """The ball (x, y, r, W) of j at the CM point of a reduced QuadForm, or
    at an mpc tau with Im tau >= sqrt(3)/2 - eps, with W = prec + 32.

    j = G / q with G = (1 + 256 q R)^3 / R and R = (P(q^2) / P(q))^24, P
    the Euler product, as f = Delta(2 tau) / Delta(tau) = q R and
    j = (1 + 256 f)^3 / f.  q and 1/q = E e^{i theta} come from the exact
    point by _q_power.  G is computed on fixed-point ints with an
    absolute error bound in units of 2^-W, which holds at rho, where G
    vanishes; j's radius is that times |1/q|, plus the truncation of j to
    W bits.  The radius is an int, so it stays finite however large |j|.
    """
    W = prec + 32
    qx, qy, lr, inv = _q_power(point, 1, 1, W)
    if lr > math.log(0.006):  # e^{-pi sqrt 3} = 0.00433...
        raise ValueError("evaluation point not reduced (Im tau too small)")
    P1x, P1y, n1 = _pentagonal(qx, qy, lr, W)
    P2x, P2y, n2 = _pentagonal(*_cmul(qx, qy, qx, qy, W), 2 * lr, W)
    r = _cdiv(P2x, P2y, P1x, P1y, W)
    Rx, Ry = _cmul(*_cmul(*r, *r, W), *r, W)  # r^3
    for _ in range(3):  # r^6, r^12, r^24
        Rx, Ry = _cmul(Rx, Ry, Rx, Ry, W)
    ux, uy = _cmul(qx, qy, Rx, Ry, W - 8)  # 256 q R
    ux += 1 << W
    Gx, Gy = _cdiv(*_cmul(*_cmul(ux, uy, ux, uy, W), ux, uy, W), Rx, Ry, W)
    # The error budget in units of 2^-W, for |q| <= 0.006.  q is off by
    # under 3, so P(q) and P(q^2) by 3n + 1.
    # |P(q)| > 0.99 and 0.99 < |r| < 1.007, so r = P(q^2) / P(q) is off by
    # (e2 + 1.01 e1) / 0.99 + 1.5, and R = r^24, five products, by
    # 29 e_r + 38, with 0.86 < |R| < 1.19.  256 q R scales q's and R's
    # errors by 256 and truncates once.  u = 1 + 256 q R, measured as
    # |u| <= mu, so that at rho, where u vanishes, so do the errors of
    # u^3, 3 mu^2 e_u + 1.5 (mu + 1), and of G = u^3 / R,
    # (e_u3 + |G| e_R) / 0.86 + 1.5 with |G| <= mu^3 / 0.86.
    mq = min(math.exp(lr), 0.006)
    er = (3 * n2 + 1 + 1.01 * (3 * n1 + 1)) / 0.99 + 1.5
    eR = 29 * er + 38
    eu = 256 * (mq * eR + 1.19 * 3) + 1.5
    mu = _float_up(abs(ux) + abs(uy) + math.ceil(eu), W)
    mG = mu**3 / 0.86
    eG = (3 * mu * mu * eu + 1.5 * (mu + 1) + mG * eR) / 0.86 + 1.5
    return (*_times_inv(Gx, Gy, math.ceil(eG + 2.5 * mG), inv, W), W)


def _parse_fspec(f_spec):
    """Returns (label, poly_coeffs_in_j | None, qexp | None, degree)."""
    if isinstance(f_spec, QSeries):
        # pole order in whole powers of q: terms step by q^(1/denom)
        return ("qexp", None, f_spec, max(1, -(min(f_spec.terms, default=0) // f_spec.denom)))
    if isinstance(f_spec, (list, tuple)):
        coeffs = [Fraction(c) for c in f_spec]
        return ("poly", coeffs, None, max(1, len(coeffs) - 1))
    if f_spec == "1":
        return ("1", [Fraction(1)], None, 0)
    if f_spec == "j":
        return ("j", [Fraction(0), Fraction(1)], None, 1)
    if f_spec == "J":
        return ("J", [Fraction(-744), Fraction(1)], None, 1)
    if isinstance(f_spec, str) and f_spec.startswith("J") and f_spec[1:].isdigit():
        m = int(f_spec[1:])
        if m < 1:
            raise ValueError(f"bad function spec {f_spec!r}")
        return (f_spec, faber_poly(m), None, m)
    raise ValueError(f"unrecognized function spec {f_spec!r}")


def eval_modular(f_spec, point, precision: int = 64) -> HP:
    """Certified value of f at tau or at the CM point of a reduced
    QuadForm: a polynomial in j (or named function) in the standard
    fundamental domain, or an exact q-expansion anywhere in the upper half
    plane.  A q-expansion's error bound covers rounding only; accuracy
    beyond the series' truncation order is the caller's responsibility
    (downstream rounding residuals stay honest either way)."""
    label, coeffs, qexp, _deg = _parse_fspec(f_spec)
    if not isinstance(point, QuadForm):
        with mp.workprec(precision + 32):  # convert without re-rounding the input
            point = mp.mpc(point)
    if qexp is not None:
        if not isinstance(point, QuadForm) and point.imag <= 0:
            raise ValueError("Im tau > 0 required")
        return _ball_hp(*_series_ball(qexp, point, precision), precision)
    im = math.sqrt(point.D) / (2 * point.a) if isinstance(point, QuadForm) else float(point.imag)
    if im < math.sqrt(3) / 2 - 1e-12:
        raise ValueError("tau must lie in the fundamental domain (Im >= sqrt(3)/2)")
    if label == "1":
        return HP(mp.mpc(1), 0.0, precision)
    return _ball_hp(*_poly_ball(coeffs, point, precision), precision)


def _ball_hp(x: int, y: int, r: int, W: int, precision: int) -> HP:
    value = mp.make_mpc(tuple(from_man_exp(v, -W, precision, "n") for v in (x, y)))
    # one rounding to precision, under |x + iy| 2^-precision
    return HP(value, _float_up(r + (abs(x) + abs(y) >> precision) + 1, W), precision)


def _horner(coeffs, zx: int, zy: int, rz: int, W: int):
    """The ball (x, y, r) of sum_k coeffs[k] z^k, for rational coeffs and
    the ball z = (zx, zy, rz), by Horner's rule in units of 2^-W."""
    mz = abs(zx) + abs(zy)
    c = coeffs[-1]
    ax, ay, ra = (c.numerator << W) // c.denominator, 0, int(c.denominator > 1)
    for c in reversed(coeffs[:-1]):
        # (a + da)(z + dz) - a z = a dz + z da + da dz; truncating the
        # product and flooring c add under 3 units
        ra = -(-((abs(ax) + abs(ay)) * rz + mz * ra + ra * rz) >> W) + 3
        ax, ay = _cmul(ax, ay, zx, zy, W)
        ax += (c.numerator << W) // c.denominator
    return ax, ay, ra


def _poly_ball(coeffs, point, prec: int):
    """The ball (x, y, r, W) of sum_k coeffs[k] j^k at a point of the
    fundamental domain, by Horner on j's ball, W = prec + 32."""
    z = _j_certified(point, prec)[:3] if len(coeffs) > 1 else (0, 0, 0)
    return (*_horner(coeffs, *z, prec + 32), prec + 32)


def _series_ball(series: QSeries, point, prec: int):
    """The ball (x, y, r, W) of an exact q-expansion at the CM point of a
    QuadForm or at an mpc tau (Im tau > 0), W = prec + 32.

    The terms lie on the series' own grid, exponents v + step k of
    q^(1/denom), so this is q^(v/denom) times a polynomial in
    z = q^(step/denom), summed by _horner and scaled by _times_inv.
    """
    W = prec + 32
    if not series.terms:
        return 0, 0, 0, W
    v, step = min(series.terms), _step(series.terms) or 1
    coeffs = [series.terms.get(n, 0) for n in range(v, max(series.terms) + 1, step)]
    zx, zy, _, inv = _q_power(point, step, series.denom, W)
    x, y, r = _horner(coeffs, zx, zy, 4, W)
    inv = inv if v == -step else _q_power(point, -v, series.denom, W)[3]
    return (*_times_inv(x, y, r + (5 * (abs(x) + abs(y) + r) >> (W + 1)) + 1, inv, W), W)


# ---------------------------------------------------------------------------
# traces

@dataclass(frozen=True)
class TraceEntry:
    D: int
    p: int
    f_label: str
    value_numeric: HP
    value_rounded: Fraction
    residual: float
    certified: bool
    precision: int
    class_count: int


_RESIDUAL_THRESHOLD = 1e-6


def _form_precision(precision: int, D: int, degree: int, a: int) -> int:
    """Bits for the reduced form with leading coefficient a in a trace run
    at `precision`.  |f(alpha)| is about e^{degree*pi*sqrt(D)/a}, so at these
    bits the form's absolute error stays 32 bits below the rounding step
    of the a = 1 form, which keeps `precision`; never below 64 bits."""
    drop = math.floor(degree * math.pi * math.sqrt(D) * (1 - 1 / a) / _LN2)
    return min(precision, max(64, precision - drop + 32))


def trace(f_spec, D: int, p: int = 1, precision: int | None = None) -> TraceEntry:
    """Sum of f(alpha_Q)/|stab Q| over the level-p orbit representatives of
    discriminant -D, with certified rounding.  For p = 1 these are the
    reduced forms; for p > 1 each is the least form of its Gamma_0(p)*-orbit
    (level_p_orbits), the one nearest the cusp by a.

    `precision` (default precision_for(D, deg)) is that of the a = 1 form
    and is the one reported; for p = 1 each other form [a, b, c] runs at
    the fewer bits of _form_precision, for p > 1 every form runs at it.
    Each term is one integer ball, of _poly_ball or _series_ball; the
    terms are summed exactly and rounded once.
    """
    label, coeffs, qexp, deg = _parse_fspec(f_spec)
    if p > 1 and qexp is None:
        raise ValueError("level p > 1 requires f as an exact q-expansion")
    if D <= 0 or D % 4 in (1, 2):
        z = HP(0, 0.0, precision or 53)
        return TraceEntry(D, p, label, z, Fraction(0), 0.0, True, z.prec, 0)
    if precision is None:
        precision = precision_for(D, deg)

    if p == 1:
        forms = enumerate_reduced(D)
        count = len(forms)
        # a b < 0 form is the conjugate partner of its mirror: the same
        # real part, counted by mult
        terms = [(F, 2 if _has_mirror(F.a, F.b, F.c) else 1, stabilizer_order(F),
                  _form_precision(precision, D, deg, F.a)) for F in forms if F.b >= 0]
    else:
        orbits = level_p_orbits(D, p)
        count = len(orbits)
        terms = [(o.form, 1, o.stabilizer_order, precision) for o in orbits]
    # the sum times 12 2^W, and its radius, as ints: 12/w is an integer
    # for every stabilizer order w in {1, 2, 3, 4, 6}
    W = precision + 32
    S = R = 0
    for F, mult, w, bits in terms:
        x, _, r, WF = _poly_ball(coeffs, F, bits) if qexp is None else _series_ball(qexp, F, bits)
        S += mult * (12 // w) * x << (W - WF)
        R += mult * (12 // w) * r << (W - WF)
    # one rounding to precision, under |S| 2^-precision
    R += (abs(S) >> precision) + 1
    value = mp.make_mpf(mpf_div(from_man_exp(S, -W), from_int(12), precision, "n"))
    num = HP(value, _float_up(-(-R // 12), W), precision)
    # traces land in (1/12)Z (stabilizer orders divide 12's divisor lattice);
    # nearest-twelfth rounding reduces to the integer when the trace is one
    with mp.workprec(precision + 32):
        rounded = Fraction(int(mp.nint(num.value * 12)), 12)
        residual = float(abs(num.value - mp.mpf(rounded.numerator) / rounded.denominator))
    certified = residual + num.error_bound < _RESIDUAL_THRESHOLD
    return TraceEntry(D, p, label, num, rounded, residual, certified, precision, count)


def trace_table(f_spec, Ds, p: int = 1):
    """trace() for each distinct D, ascending, at its own precision_for(D)."""
    return [trace(f_spec, D, p) for D in sorted(set(Ds))]


# ---------------------------------------------------------------------------
# exact formula / Duke statistic

def _require_disc(D: int):
    if D <= 0 or D % 4 in (1, 2):
        raise DomainError(f"D must be positive and 0 or 3 mod 4, got {D}")


def exact_formula_tJ(D: int, c_max: int = 10000) -> HP:
    """-24 H(D) + sum over 0 < c = 0 (mod 4), c <= c_max of
    S(D,c) sinh(4 pi sqrt(D)/c).  Partial sum by contract; the series
    converges too slowly for certified summation."""
    from .sums import exp_sum_S

    _require_disc(D)
    if c_max % 4:
        raise DomainError("c_max must be divisible by 4")
    h = hurwitz(D)
    total = -24.0 * h.numerator / h.denominator
    err = _ulp(abs(total), 53)
    x = 4.0 * math.pi * math.sqrt(D)
    for c in range(4, c_max + 1, 4):
        s = exp_sum_S(D, c)
        if float(s.value) == 0.0 and s.error_bound < 1e-12:
            continue
        # sinh via exp: no cancellation for the large arguments that matter
        arg = x / c
        sh = 0.5 * (math.exp(arg) - math.exp(-arg))
        total += float(s.value) * sh
        err += s.error_bound * sh + _ulp(abs(float(s.value)) * sh + 1.0, 53)
    return HP(total, err, 53)


@lru_cache(maxsize=4)
def _J_coeff_floats(nmax: int):
    J = bigJ_series(nmax + 1)
    return [float(J.coeff(n)) for n in range(1, nmax + 1)]


def _J_tail(q, coeffs):
    """sum_{n>=1} coeffs[n-1] q^n by Horner's rule, at a complex q or at
    an array of them: J(tau) - 1/q through the given coefficients."""
    tail = 0j
    for c in reversed(coeffs):
        tail = (tail + c) * q
    return tail


def duke_statistic(D: int, precision: int = 53) -> HP:
    """(t_J(D) - sum over reduced forms with Im alpha > 1 of e(-alpha_Q))
    divided by H(D).

    Regrouped per form so float64 suffices at default precision: for
    Im alpha > 1 the pair J(alpha) - e(-alpha) is the tail sum
    sum_{n>=1} c(n) q^n, which is free of the e^{pi sqrt D} cancellation.

    The float route evaluates one tail per mirror pair.  alpha of
    [a, -b, c] is minus the conjugate of alpha of [a, b, c], so its q is
    the conjugate q-bar, bit for bit: 2j*pi*alpha, cmath.exp, Horner's rule
    and 1/q all commute with conjugation, and the two real parts are equal
    floats.  The term of each b >= 0 triple is added at both places its
    forms take in lexicographic order, so the float sum is the same
    sequence of additions as one term per form.
    """
    _require_disc(D)
    if precision > 53:
        return _duke_statistic_mp(D, precision)
    coeffs = _J_coeff_floats(24)
    sqrt_D = math.sqrt(D)
    total = 0.0
    h6 = 0  # 6 H(D) = sum of 6/|stab| over the same forms
    for _, row in groupby(_reduced_triples(D), key=itemgetter(0)):
        terms = []  # (term, has a mirror) of each b >= 0 triple of this a
        for a, b, c in row:
            w = _weight(a, b, c)
            mirrored = _has_mirror(a, b, c)
            h6 += (6 // w) * (2 if mirrored else 1)
            alpha = complex(-b, sqrt_D) / (2 * a)
            q = cmath.exp(2j * math.pi * alpha)
            tail = _J_tail(q, coeffs)
            # above Im alpha = 1, w = 1 and 1/q cancels against e(-alpha)
            terms.append((tail.real if alpha.imag > 1.0 else (tail + 1.0 / q).real / w, mirrored))
        for t, mirrored in reversed(terms):  # the b < 0 mirrors, by descending |b|
            if mirrored:
                total += t
        for t, _ in terms:
            total += t
    h = Fraction(h6, 6)
    val = total / (h.numerator / h.denominator)
    return HP(mp.mpf(val), 1e-9 * (abs(val) + 1.0), 53)


def _duke_statistic_mp(D: int, precision: int) -> HP:
    # |c(n) q^n| ~ e^{4 pi sqrt n - pi sqrt 3 n}: linear decay wins fast
    J = bigJ_series(25 + int(0.2 * precision))
    tail = J - QSeries.exact({-1: 1})
    S = h12 = 0  # 12 2^W times the sum, and 12 H(D)
    for F in enumerate_reduced(D):
        w = stabilizer_order(F)
        h12 += 12 // w
        # above Im alpha = 1, where w = 1, 1/q cancels against e(-alpha)
        x, _, _, W = _series_ball(tail if D > 4 * F.a * F.a else J, F, precision)
        S += (12 // w) * x
    val = mp.make_mpf(mpf_div(from_man_exp(S, -W), from_int(h12), precision, "n"))
    return HP(val, 2.0 ** (-precision + 12) * (abs(float(val)) + 1.0), precision)


# ---------------------------------------------------------------------------
# regularized average and beta

def _f_grid_evaluator(f_spec):
    """(f_vals(x, y) -> complex ndarray, pole order n0, |leading|).

    Accepts the constant "1" or polynomials in j with vanishing constant
    term (checked exactly), as in the trace machinery.
    """
    _, coeffs, qexp, deg = _parse_fspec(f_spec)
    if qexp is not None:
        raise ValueError("f must be '1' or a polynomial in j")
    if deg == 0:
        cst = float(coeffs[0])

        def f_const(x, y):
            return np.full_like(np.asarray(x, dtype=float), cst) + 0j

        return f_const, 0, abs(cst)

    if _poly_in_j(coeffs, 1).coeff(0) != 0:
        raise ValueError("f must have vanishing constant term (or be the constant 1)")

    fc = [float(c) for c in coeffs]
    jc = _J_coeff_floats(28)

    def f_vals(x, y):
        # f at x + iy on the grid, via j = 1/q + 744 + sum c(n) q^n
        q = np.exp(2j * np.pi * (np.asarray(x) + 1j * np.asarray(y)))
        jv = 1.0 / q + 744.0 + _J_tail(q, jc)
        out = np.zeros_like(q)
        for c in reversed(fc):
            out = out * jv + c
        return out

    return f_vals, deg, abs(fc[-1])


@lru_cache(maxsize=8)
def _leggauss(n: int):
    """The degree-n Gauss-Legendre rule.  The quadrature panels reuse a few
    degrees, and building one takes 0.4-0.8 ms at degrees 12-27."""
    return np.polynomial.legendre.leggauss(n)


def _fd_columns(n: int, ya: float = None, yb: float = None):
    """Yield (x, wx, ys, wys) for each column of the degree-n tensor
    Gauss-Legendre rule on one panel of the fundamental domain folded onto
    x in [0, 1/2] (the integrands are even in x): the arc panel, y from
    sqrt(1 - x^2) to 1, when ya is None, else the strip ya <= y <= yb."""
    g, w = _leggauss(n)
    for x, wx in zip(0.25 * (g + 1.0), 0.25 * w):
        y0, y1 = (math.sqrt(1.0 - x * x), 1.0) if ya is None else (ya, yb)
        yield x, wx, 0.5 * (y1 - y0) * (g + 1.0) + y0, 0.5 * (y1 - y0) * w


def regularized_average(f_spec) -> HP:
    """(3/pi) * regularized integral of f over the modular curve.

    Only the sliver of the fundamental domain below y = 1 needs
    quadrature: above it the domain is the full unit strip, where each
    horocycle integral equals the constant term -- exactly zero for the
    admissible f, and handled in closed form for the constant function.
    The quadrature runs in float64, so the result is declared at 53 bits.
    """
    f_vals, n0, _ = _f_grid_evaluator(f_spec)
    if n0 == 0:  # the constant 1
        return HP(1, 0.0, 53)

    def quad_once(n):
        total = 0.0
        for x, wx, y, wy in _fd_columns(n):
            vals = f_vals(np.full_like(y, x), y).real / (y * y)
            total += wx * float(np.dot(wy, vals))
        return 2.0 * total  # unfold x-symmetry

    prev = quad_once(24)
    cur = quad_once(48)
    change = abs(cur - prev)
    if change > 1e-10 * (abs(cur) + 1):
        prev, cur = cur, quad_once(96)
        change = abs(cur - prev)
    val = (3.0 / math.pi) * cur
    eb = (3.0 / math.pi) * change + 1e-11 * (abs(val) + 1.0)
    return HP(mp.mpf(val), eb, 53)


def beta_integral(s, precision: int = 53) -> HP:
    """beta(s) = integral over t >= 1 of t^(-3/2) e^(-st) dt, the
    generalized exponential integral E_{3/2}(s).

    mpmath evaluates E_{3/2} to its working precision, so at 24 guard
    bits the bound is one rounding at `precision`.
    """
    s = float(s)
    if s < 0:
        raise ValueError("s >= 0")
    if s == 0:
        return HP(2, 0.0, precision)
    p = max(precision, 53)
    with mp.workprec(p + 24):
        val = mp.expint(1.5, s)
    return HP(val, _ulp(abs(float(val)), p), precision)
