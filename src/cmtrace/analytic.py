"""CM values, traces, the exact formula, Duke's statistic, the regularized
average, and beta(s).

All certified quantities flow through HP records; traces carry an
explicit rounding residual and are never silently rounded.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
import numpy as np

from .hp import HP, _ulp
from .qform import QuadForm, enumerate_reduced, hurwitz, level_p_orbits, stabilizer_order
from .series import QSeries, bigJ_series, faber_poly, j_series

_LN2 = math.log(2.0)


def precision_for(D: int, degree: int = 1) -> int:
    """Mantissa bits so that values of size e^{degree*pi*sqrt(D)} round to
    the correct integer with room to spare."""
    return math.ceil(max(degree, 1) * math.pi * math.sqrt(max(D, 1)) / _LN2) + 64


# ---------------------------------------------------------------------------
# certified CM evaluation

def _pentagonal(q, lr: float, cut: float):
    """(P, k, t): P(q) = prod_{n>=1} (1 - q^n) summed by Euler's
    pentagonal theorem until the next power |q|^e1 is below e^cut, the
    last step k, and t = ln of a bound on the terms left out.  lr = ln|q|.

    P = 1 + sum_k (-1)^k (q^e1 + q^e2) with the pentagonal e1 = k(3k-1)/2,
    e2 = e1 + k and e1(k+1) = e2 + 2k+1: the powers are stepped along by
    q^k and q^(2k+1), four products per k.  Each q^e leaves those chains
    after e - 1 products, so for |q| <= 0.006 its rounding is at most
    (e-1)|q|^e relative to |P| > 0.99, and the sum over e stays below the
    one rounding per product that callers charge.
    """
    P = mp.mpf(1)
    qk, q2 = q, q * q
    q2k1 = q2 * q
    qe1 = q
    k = 1
    while True:
        qe2 = qe1 * qk
        P += -(qe1 + qe2) if k % 2 else qe1 + qe2
        k += 1
        if k * (3 * k - 1) // 2 * lr < cut:
            break
        qe1 = qe2 * q2k1
        qk *= q
        q2k1 *= q2
    # the terms left: at most 2 sum_{i >= e1(k)} |q|^i
    return P, k, math.log(2 / (1 - math.exp(lr))) + k * (3 * k - 1) // 2 * lr


def _j_certified(tau, prec: int):
    """j(tau) = (1 + 256 f)^3 / f with f = Delta(2 tau) / Delta(tau)
    = q (P(q^2) / P(q))^24 and P the Euler product, plus a certified
    absolute error bound.  Requires Im tau >= sqrt(3)/2 - eps.

    It is computed as 256 u^3 / x with x = 256 f and u = 1 + x.
    """
    pw = prec + 32
    ulp = 2.0 ** (prec - pw)  # one rounding at pw bits, in units of 2^-prec
    # Tails and stopping tests work with logarithms, and the errors in
    # units of 2^-prec: |q| and 2^-prec leave the float range at high
    # precision (|q| < 2^-1074 once Im tau > 118).
    lr = -2 * math.pi * float(tau.imag)  # ln|q|
    cut = -(prec + 20) * _LN2  # ln 2^-(prec+20)
    scale = prec * _LN2
    with mp.workprec(pw):
        q = mp.e ** (2j * mp.pi * tau)
        if abs(q) > 0.006:  # e^{-pi sqrt 3} = 0.00433...
            raise ValueError("evaluation point not reduced (Im tau too small)")
        P1, k1, t1 = _pentagonal(q, lr, cut)
        P2, k2, t2 = _pentagonal(q * q, 2 * lr, cut)
        x = 256 * q * (P2 / P1) ** 24
        u = 1 + x
        j = 256 * u**3 / x
        aj, au, ax = float(abs(j)), float(abs(u)), float(abs(x))
        # f's error is relative: 24 parts of each P's tail over |P| > 0.99;
        # q inherits the rounding of its argument 2 pi i tau, at most
        # (6 pi |tau| + 2) ulps, which moves f by under 1.2 times as much;
        # and 64 ulps for each of the other roundings: 4 per pentagonal
        # step, and 40 for q^2, P2/P1, the 24th power, the products, u and
        # u^3 / x.
        rel = (25 * (math.exp(t1 + scale) + math.exp(t2 + scale))
               + (24 * float(abs(tau)) + 64 * (4 * (k1 + k2) + 40)) * ulp)
        # u vanishes at rho (j = 0 there), so its error is absolute,
        # |x| rel.  It reaches u^3 as (|u| + d)^3 - |u|^3.
        du = ax * rel
        # 1/|f| = 256/|x|: from |j| while |u| > 1/2; below that |x| > 1/2,
        # so nothing divides by an underflowed |q|
        inv = aj / au**3 if au > 0.5 else 256 / ax
        d = math.ldexp(du, -prec)
        err = inv * (du * (3 * au * au + 3 * au * d + d * d) + (au + d) ** 3 * rel)
        return HP(j, math.ldexp(err, -prec) + _ulp(aj, prec), prec)


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


def eval_modular(f_spec, tau, precision: int = 64) -> HP:
    """Certified value of a polynomial in j (or named function) at tau in
    the standard fundamental domain."""
    label, coeffs, qexp, _deg = _parse_fspec(f_spec)
    if qexp is not None:
        return eval_qexpansion(qexp, tau, precision)
    with mp.workprec(precision + 32):  # convert without re-rounding the input
        tval = mp.mpc(tau)
    if float(tval.imag) < math.sqrt(3) / 2 - 1e-12:
        raise ValueError("tau must lie in the fundamental domain (Im >= sqrt(3)/2)")
    if label == "1":
        return HP(mp.mpc(1), 0.0, precision)
    jv = _j_certified(tval, precision)
    # exact-coefficient Horner in j with running error bound
    with mp.workprec(precision + 32):
        acc = mp.mpc(0)
        err = 0.0
        aj = float(abs(jv.value))
        for c in reversed(coeffs):
            err = err * aj + float(abs(acc)) * jv.error_bound + _ulp(float(abs(acc)) * aj + 1.0, precision)
            acc = acc * jv.value + mp.mpf(c.numerator) / c.denominator
        # |j| past the float range: say inf outright, since 0 * inf above is nan
        if math.isinf(jv.error_bound):
            err = math.inf
        return HP(acc, err, precision)


def eval_qexpansion(series: QSeries, tau, precision: int = 64) -> HP:
    """Numerical value of an exact q-expansion at tau (Im tau > 0).

    The error bound covers rounding only; accuracy beyond the series'
    truncation order is the caller's responsibility (downstream rounding
    residuals stay honest either way).
    """
    with mp.workprec(precision + 32):
        tval = mp.mpc(tau)
    if float(tval.imag) <= 0:
        raise ValueError("Im tau > 0 required")
    with mp.workprec(precision + 32):
        w = mp.e ** (2j * mp.pi * tval / series.denom)  # q^(1/denom)
        acc = mp.mpc(0)
        for n in sorted(series.terms, reverse=True):
            c = series.terms[n]
            acc += (mp.mpf(c.numerator) / c.denominator) * w**n
        eb = (len(series.terms) + 4) * _ulp(float(abs(acc)) + 1.0, precision)
        return HP(acc, eb, precision)


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


def _alpha_of(form: QuadForm, prec: int):
    with mp.workprec(prec + 32):
        return mp.mpc(-form.b, mp.sqrt(form.D)) / (2 * form.a)


def trace(f_spec, D: int, p: int = 1, precision: int | None = None) -> TraceEntry:
    """Sum of f(alpha_Q)/|stab Q| over the level-p orbit representatives of
    discriminant -D, with certified rounding.  For p = 1 these are the
    reduced forms; for p > 1 each is the least form of its Gamma_0(p)*-orbit
    (level_p_orbits), the one nearest the cusp by a.

    `precision` (default precision_for(D, deg)) is that of the a = 1 form
    and is the one reported; for p = 1 each other form [a, b, c] runs at
    the fewer bits of _form_precision, for p > 1 every form runs at it.
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
        terms = [(F, 1 if (F.b == 0 or F.b == F.a or F.a == F.c) else 2, stabilizer_order(F),
                  _form_precision(precision, D, deg, F.a)) for F in forms if F.b >= 0]
    else:
        orbits = level_p_orbits(D, p)
        count = len(orbits)
        terms = [(o.form, 1, o.stabilizer_order, precision) for o in orbits]
    total = mp.mpf(0)
    err = 0.0
    with mp.workprec(precision + 32):
        for F, mult, w, bits in terms:
            v = eval_modular(f_spec, _alpha_of(F, bits), bits)
            total += mult * v.value.real / w
            err += mult * v.error_bound / w

    num = HP(total, err + 4 * _ulp(abs(float(total)) + 1.0, precision), precision)
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

def exact_formula_tJ(D: int, c_max: int = 10000) -> HP:
    """-24 H(D) + sum over 0 < c = 0 (mod 4), c <= c_max of
    S(D,c) sinh(4 pi sqrt(D)/c).  Partial sum by contract; the series
    converges too slowly for certified summation."""
    from .sums import exp_sum_S

    if D <= 0 or D % 4 in (1, 2):
        raise ValueError("D must be 0 or 3 mod 4")
    if c_max % 4:
        raise ValueError("c_max must be divisible by 4")
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


def duke_statistic(D: int, precision: int = 53) -> HP:
    """(t_J(D) - sum over reduced forms with Im alpha > 1 of e(-alpha_Q))
    divided by H(D).

    Regrouped per form so float64 suffices at default precision: for
    Im alpha > 1 the pair J(alpha) - e(-alpha) is the tail sum
    sum_{n>=1} c(n) q^n, which is free of the e^{pi sqrt D} cancellation.
    """
    if D <= 0 or D % 4 in (1, 2):
        raise ValueError("D must be 0 or 3 mod 4")
    if precision > 53:
        return _duke_statistic_mp(D, precision)
    coeffs = _J_coeff_floats(24)
    total = 0.0
    h6 = 0  # 6 H(D) = sum of 6/|stab| over the same forms
    for F in enumerate_reduced(D):
        w = stabilizer_order(F)
        h6 += 6 // w
        alpha = complex(-F.b, math.sqrt(D)) / (2 * F.a)
        q = cmath.exp(2j * math.pi * alpha)
        tail = 0.0j
        for c in reversed(coeffs):
            tail = (tail + c) * q
        if alpha.imag > 1.0:
            total += tail.real  # w = 1 out here; 1/q cancels against e(-alpha)
        else:
            total += (tail + 1.0 / q).real / w
    h = Fraction(h6, 6)
    val = total / (h.numerator / h.denominator)
    return HP(mp.mpf(val), 1e-9 * (abs(val) + 1.0), 53)


def _duke_statistic_mp(D: int, precision: int) -> HP:
    # |c(n) q^n| ~ e^{4 pi sqrt n - pi sqrt 3 n}: linear decay wins fast
    nmax = 24 + int(0.2 * precision)
    J = bigJ_series(nmax + 1)
    with mp.workprec(precision + 16):
        total = mp.mpf(0)
        h6 = 0
        for F in enumerate_reduced(D):
            w = stabilizer_order(F)
            h6 += 6 // w
            alpha = _alpha_of(F, precision)
            q = mp.e ** (2j * mp.pi * alpha)
            tail = mp.mpc(0)
            for n in range(nmax, 0, -1):
                c = J.coeff(n)
                tail = (tail + mp.mpf(c.numerator) / c.denominator) * q
            if float(alpha.imag) > 1.0:
                total += tail.real
            else:
                total += (tail + 1 / q).real / w
        h = Fraction(h6, 6)
        val = total * h.denominator / h.numerator
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

    js = j_series(deg + 2)
    fs = QSeries({0: coeffs[-1]}, deg + 2)
    for c in reversed(coeffs[:-1]):
        fs = fs * js + QSeries({0: c}, deg + 2)
    if fs.coeff(0) != 0:
        raise ValueError("f must have vanishing constant term (or be the constant 1)")

    fc = [float(c) for c in coeffs]
    jc = _J_coeff_floats(28)

    def f_vals(x, y):
        # f at x + iy on the grid, via j = 1/q + 744 + sum c(n) q^n
        q = np.exp(2j * np.pi * (np.asarray(x) + 1j * np.asarray(y)))
        tail = np.zeros_like(q)
        for c in reversed(jc):
            tail = (tail + c) * q
        jv = 1.0 / q + 744.0 + tail
        out = np.zeros_like(q)
        for c in reversed(fc):
            out = out * jv + c
        return out

    return f_vals, deg, abs(fc[-1])


def _fd_columns(n: int, ya: float = None, yb: float = None):
    """Yield (x, wx, ys, wys) for each column of the degree-n tensor
    Gauss-Legendre rule on one panel of the fundamental domain folded onto
    x in [0, 1/2] (the integrands are even in x): the arc panel, y from
    sqrt(1 - x^2) to 1, when ya is None, else the strip ya <= y <= yb."""
    g, w = np.polynomial.legendre.leggauss(n)
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
