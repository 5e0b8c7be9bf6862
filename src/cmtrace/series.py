"""Exact q-expansions with truncation tracking.

A QSeries is a Laurent series in q^(1/denom) with Fraction coefficients,
known exactly for all exponents below `trunc/denom`.  Reading a coefficient
at or beyond the truncation order raises TruncationError rather than
silently returning 0.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from math import gcd, inf, isqrt, lcm


class TruncationError(Exception):
    pass


class DomainError(ValueError):
    """An argument outside the function's domain: the caller's mistake, not
    a failure to meet a precision or budget contract."""


def _as_frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"expected exact rational, got {type(x).__name__}")


class QSeries:
    """sum_n terms[n] * q^(n/denom), coefficients known for n < trunc."""

    __slots__ = ("denom", "trunc", "terms")

    def __init__(self, terms: dict, trunc, denom: int = 1):
        if denom < 1:
            raise ValueError("denom must be positive")
        self.denom = int(denom)
        self.trunc = inf if trunc is inf else int(trunc)
        self.terms = {}
        for n, c in terms.items():
            c = _as_frac(c)
            if n >= self.trunc:
                raise ValueError(f"term at {n}/{denom} is beyond trunc {self.trunc}")
            if c:
                self.terms[int(n)] = c

    # -- constructors ------------------------------------------------------
    @classmethod
    def exact(cls, coeffs_by_exponent: dict) -> "QSeries":
        """Exact Laurent polynomial; exponents may be Fractions."""
        exps = {e: _as_frac(c) for e, c in coeffs_by_exponent.items()}
        d = 1
        for e in exps:
            d = d * Fraction(e).denominator // gcd(d, Fraction(e).denominator)
        terms = {}
        for e, c in exps.items():
            n = Fraction(e) * d
            assert n.denominator == 1
            terms[int(n)] = c
        return cls(terms, inf, d)

    @classmethod
    def zero(cls, trunc=inf, denom: int = 1) -> "QSeries":
        return cls({}, trunc, denom)

    @classmethod
    def one(cls) -> "QSeries":
        return cls({0: Fraction(1)}, inf, 1)

    # -- bookkeeping -------------------------------------------------------
    @property
    def truncation_order(self):
        """First unknown exponent (Fraction), or inf for exact series."""
        return inf if self.trunc is inf else Fraction(self.trunc, self.denom)

    def coeff(self, exponent) -> Fraction:
        x = _as_frac(exponent)
        if x >= self.truncation_order:
            raise TruncationError(
                f"coefficient at q^{x} requested but series only known below q^{self.truncation_order}"
            )
        n = x * self.denom
        if n.denominator != 1:
            return Fraction(0)  # off-grid exponents carry no term
        return self.terms.get(int(n), Fraction(0))

    def items(self):
        """Sorted (exponent, coefficient) pairs, exponents as Fractions."""
        return [(Fraction(n, self.denom), self.terms[n]) for n in sorted(self.terms)]

    def with_trunc(self, bound) -> "QSeries":
        """Forget knowledge at exponents >= bound."""
        b = _as_frac(bound)
        t = b * self.denom
        tn = int(t) if t.denominator == 1 else int(t) + 1
        if self.trunc is not inf and tn > self.trunc:
            raise ValueError("cannot extend knowledge by fiat")
        return QSeries({n: c for n, c in self.terms.items() if n < tn}, tn, self.denom)

    def normalized(self) -> "QSeries":
        """Reduce denom by the common factor of the exponent grid."""
        g = self.denom
        for n in self.terms:
            g = gcd(g, n)
        if g <= 1:
            return self
        # floor the truncation so we never over-claim; terms stranded in the
        # rounded-off sliver [t*g, trunc) get dropped with it
        t = inf if self.trunc is inf else self.trunc // g
        return QSeries(
            {n // g: c for n, c in self.terms.items() if n // g < t},
            t,
            self.denom // g,
        )

    def _aligned(self, other: "QSeries"):
        L = self.denom * other.denom // gcd(self.denom, other.denom)
        f1, f2 = L // self.denom, L // other.denom
        t1 = inf if self.trunc is inf else self.trunc * f1
        t2 = inf if other.trunc is inf else other.trunc * f2
        a = {n * f1: c for n, c in self.terms.items()}
        b = {n * f2: c for n, c in other.terms.items()}
        return a, b, t1, t2, L

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, QSeries):
            other = QSeries.exact({0: _as_frac(other)})
        a, b, t1, t2, L = self._aligned(other)
        t = min(t1, t2)
        out = {}
        for n, c in a.items():
            if n < t:
                out[n] = out.get(n, Fraction(0)) + c
        for n, c in b.items():
            if n < t:
                out[n] = out.get(n, Fraction(0)) + c
        return QSeries(out, t, L)

    __radd__ = __add__

    def __neg__(self):
        return QSeries({n: -c for n, c in self.terms.items()}, self.trunc, self.denom)

    def __sub__(self, other):
        if not isinstance(other, QSeries):
            other = QSeries.exact({0: _as_frac(other)})
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, QSeries):
            c = _as_frac(other)
            return QSeries({n: c * v for n, v in self.terms.items()}, self.trunc, self.denom)
        a, b, t1, t2, L = self._aligned(other)
        va = min(a) if a else (0 if t1 is inf else t1)
        vb = min(b) if b else (0 if t2 is inf else t2)
        t = min(
            inf if t1 is inf else t1 + vb,
            inf if t2 is inf else t2 + va,
        )
        if not a or not b:
            return QSeries({}, t, L)
        # one grid for both factors: valuation + step * k in units of q^(1/L)
        step = gcd(_step(a), _step(b)) or 1
        n = inf if t is inf else -(-(t - va - vb) // step)  # product slots below t
        da, xa = _dense(a, va, step, n)
        db, xb = _dense(b, vb, step, n)
        prod = _kmul(xa, xb, min(n, len(xa) + len(xb) - 1))
        d = da * db
        return QSeries({va + vb + step * k: Fraction(c, d) for k, c in enumerate(prod) if c}, t, L)

    __rmul__ = __mul__

    def reciprocal(self) -> "QSeries":
        if not self.terms:
            raise ZeroDivisionError("series has no known nonzero coefficient")
        if self.trunc is inf:
            raise TruncationError("reciprocal of an exact series needs with_trunc() first")
        # self = q^v C(x) / d with x = q^(step/denom), C an integer series
        # and c0 = C(0); then 1/C(x) = E(x/c0) / c0 with the integer series
        # E = 1 / (1 + sum_{i>0} c_i c0^(i-1) y^i)
        v = min(self.terms)
        K = self.trunc - v  # number of known slots above the valuation
        step = _step(self.terms) or K
        n = -(-K // step)
        d, c = _dense(self.terms, v, step, n)
        c0 = c[0]
        f = [1] + [ci * c0 ** i for i, ci in enumerate(c[1:])]
        E = _kinv(f, n)
        terms = {-v + step * k: Fraction(d * e, c0 ** (k + 1)) for k, e in enumerate(E) if e}
        return QSeries(terms, self.trunc - 2 * v, self.denom)

    def __truediv__(self, other):
        if not isinstance(other, QSeries):
            c = _as_frac(other)
            return QSeries({n: v / c for n, v in self.terms.items()}, self.trunc, self.denom)
        if other.trunc is inf:
            if self.trunc is inf:
                raise TruncationError("dividing two exact series needs an explicit with_trunc()")
            # truncate the divisor just enough not to limit the quotient
            a, b, t1, _, L = self._aligned(other)
            va = min(a) if a else 0
            vb = min(b) if b else 0
            tb = t1 - va + 2 * vb
            other = other.with_trunc(Fraction(tb, L))
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        return QSeries.exact({0: _as_frac(other)}) / self

    def __pow__(self, e: int):
        if not isinstance(e, int):
            raise TypeError("only integer powers")
        if e < 0:
            return self.reciprocal() ** (-e)
        result = QSeries.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base_needed = e >> 1
            if base_needed:
                base = base * base
            e = base_needed
        return result

    def scale_q(self, k: int) -> "QSeries":
        """Substitute q -> q^k (integer k >= 1)."""
        if k < 1:
            raise ValueError("scale factor must be a positive integer")
        t = inf if self.trunc is inf else self.trunc * k
        return QSeries({n * k: c for n, c in self.terms.items()}, t, self.denom)

    # -- comparison / io ----------------------------------------------------
    def eq_through(self, other: "QSeries", bound) -> bool:
        """Exact coefficient equality for all exponents < bound."""
        b = _as_frac(bound)
        if self.truncation_order < b or other.truncation_order < b:
            raise TruncationError("comparison bound exceeds known range")
        a, o, _, _, L = self._aligned(other)
        nb = b * L
        for n in set(a) | set(o):
            if n < nb and a.get(n, Fraction(0)) != o.get(n, Fraction(0)):
                return False
        return True

    def __eq__(self, other):
        """Same truncation order and the same coefficients, on any grid."""
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.truncation_order == other.truncation_order and self.items() == other.items()

    def __hash__(self):
        return hash((self.truncation_order, tuple(self.items())))

    def __repr__(self):
        parts = []
        for x, c in self.items()[:6]:
            parts.append(f"{c}*q^({x})")
        if len(self.terms) > 6:
            parts.append("...")
        body = " + ".join(parts) if parts else "0"
        tail = "" if self.trunc is inf else f" + O(q^({self.truncation_order}))"
        return f"QSeries({body}{tail})"

    def to_json_dict(self) -> dict:
        terms = []
        for n in sorted(self.terms):
            x = Fraction(n, self.denom)
            c = self.terms[n]
            terms.append([x.numerator, x.denominator, c.numerator, c.denominator])
        t = None if self.trunc is inf else [self.trunc, self.denom]
        return {"denom": self.denom, "trunc": t, "terms": terms}

    @classmethod
    def from_json_dict(cls, d: dict) -> "QSeries":
        denom = int(d["denom"])
        if d["trunc"] is None:
            trunc = inf
        else:
            tn, td = d["trunc"]
            t = Fraction(tn, td) * denom
            if t.denominator != 1:
                raise ValueError("truncation not on the stated grid")
            trunc = int(t)
        terms = {}
        for en, ed, cn, cd in d["terms"]:
            n = Fraction(en, ed) * denom
            if n.denominator != 1:
                raise ValueError("exponent not on the stated grid")
            terms[int(n)] = Fraction(cn, cd)
        return cls(terms, trunc, denom)

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def loads(cls, s: str) -> "QSeries":
        return cls.from_json_dict(json.loads(s))


# ---------------------------------------------------------------------------
# integer kernels: a series is handed to them as a list of integer
# coefficients on an arithmetic grid of exponents, over one denominator

def _step(terms: dict) -> int:
    """gcd of the exponent gaps (0 for a single term)."""
    v = min(terms)
    return gcd(*(n - v for n in terms))


def _dense(terms: dict, v: int, step: int, size) -> tuple:
    """(d, xs) with xs[k] = d * terms[v + step * k] for k < size."""
    d = lcm(*(c.denominator for c in terms.values()))
    xs = [0] * min(size, (max(terms) - v) // step + 1)
    for n, c in terms.items():
        k = (n - v) // step
        if k < len(xs):
            xs[k] = c.numerator * (d // c.denominator)
    return d, xs


def _bias(n: int, w: int) -> int:
    """2^(8w - 1) in each of n slots of w bytes."""
    return int.from_bytes((bytes(w - 1) + b"\x80") * n, "little")


def _kmul(a: list, b: list, n: int) -> list:
    """First n coefficients of the product of two integer polynomials, by
    Kronecker substitution: each signed list is packed into one integer
    with slots wide enough that no product coefficient overflows its slot."""
    a, b = a[:n], b[:n]
    bits = (max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length()
            + min(len(a), len(b)).bit_length() + 1)
    w = -(-bits // 8)
    half = 1 << (8 * w - 1)

    def pack(xs):
        raw = b"".join((x + half).to_bytes(w, "little") for x in xs)
        return int.from_bytes(raw, "little") - _bias(len(xs), w)

    low = (pack(a) * pack(b) + _bias(n, w)) & ((1 << (8 * w * n)) - 1)  # slots 0..n-1
    raw = low.to_bytes(w * n, "little")
    return [int.from_bytes(raw[i:i + w], "little") - half for i in range(0, w * n, w)]


def _kinv(f: list, n: int) -> list:
    """First n coefficients of 1/f for an integer series with f[0] == 1, by
    Newton iteration y <- y - y (f y - 1), doubling the precision each step."""
    y = [1]
    while len(y) < n:
        m, k = len(y), min(2 * len(y), n)
        err = _kmul(f[:k], y, k)[m:]  # f y = 1 + x^m err
        y += [-c for c in _kmul(y, err, k - m)]
    return y


# ---------------------------------------------------------------------------
# builders; `trunc` below is always an integer exponent bound in q

def eta(trunc: int, scale: int = 1) -> QSeries:
    """eta(scale * tau) = q^(scale/24) prod (1 - q^(scale*n)), by the
    pentagonal number expansion."""
    tn = 24 * trunc
    terms = {}
    k = 0
    while True:
        hit = False
        for kk in ([0] if k == 0 else [k, -k]):
            n = scale * (12 * kk * (3 * kk - 1) + 1)  # 24*scale*(kk(3kk-1)/2 + 1/24)
            if n < tn:
                terms[n] = Fraction((-1) ** (kk % 2))
                hit = True
        if not hit and k > 0:
            break
        k += 1
    return QSeries(terms, tn, 24)


_EISEN_COEF = {
    4: Fraction(240),
    6: Fraction(-504),
    8: Fraction(480),
    10: Fraction(-264),
    12: Fraction(65520, 691),
    14: Fraction(-24),
}


@lru_cache(maxsize=None)
def _sigma(n: int, k: int) -> int:
    """sum of d^k over the divisors d of n (memoized: the Eisenstein
    series and sigma1 ask again for the same n)."""
    s = 0
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            s += d**k
            e = n // d
            if e != d:
                s += e**k
    return s


def eisenstein(k: int, trunc: int) -> QSeries:
    if k not in _EISEN_COEF:
        raise ValueError(f"no Eisenstein series of weight {k} here")
    c = _EISEN_COEF[k]
    terms = {0: Fraction(1)}
    for n in range(1, trunc):
        terms[n] = c * _sigma(n, k - 1)
    return QSeries(terms, trunc, 1)


def _cut(s: QSeries, trunc: int) -> QSeries:
    """s on its coarsest grid, known below q^trunc and no further."""
    s = s.normalized()
    assert s.truncation_order >= trunc
    return s.with_trunc(trunc)


def delta_series(trunc: int) -> QSeries:
    return _cut(eta(trunc + 2) ** 24, trunc)


def j_series(trunc: int) -> QSeries:
    e4 = eisenstein(4, trunc + 2)
    return _cut(e4**3 / delta_series(trunc + 2), trunc)


def _poly_in_j(coeffs, trunc: int) -> QSeries:
    """sum_k coeffs[k] j^k below q^trunc, by Horner's rule in j: each
    product with j, of valuation -1, costs one known order."""
    j = j_series(trunc + len(coeffs) - 1)
    out = QSeries.exact({0: coeffs[-1]})
    for c in reversed(coeffs[:-1]):
        out = out * j + c
    return _cut(out, trunc)


def bigJ_series(trunc: int) -> QSeries:
    """j - 744, the normalized hauptmodul."""
    return j_series(trunc) - 744


def theta_series(trunc: int) -> QSeries:
    terms = {0: Fraction(1)}
    n = 1
    while n * n < trunc:
        terms[n * n] = Fraction(2)
        n += 1
    return QSeries(terms, trunc, 1)


def g_series(trunc: int) -> QSeries:
    """-q^-1 + 2 - 248 q^3 + 492 q^4 - ... : the weight-3/2 generating
    series of the traces of j - 744, as an eta quotient."""
    T = trunc + 2
    num = eta(T) ** 2 * eisenstein(4, T).scale_q(4)
    den = eta(T, scale=2) * eta(T, scale=4) ** 6
    return _cut(-(num / den), trunc)


def t_series(trunc: int) -> QSeries:
    """Hauptmodul of the genus-zero group of level 4:
    t = eta(tau)^8 / eta(4 tau)^8 = q^-1 - 8 + 20 q - 62 q^3 + ..."""
    T = trunc + 2
    return _cut(eta(T) ** 8 / eta(T, scale=4) ** 8, trunc)


def faber_poly(m: int) -> list:
    """Coefficients [c_0, ..., c_m] (c_m = 1) of the monic polynomial in j
    with P(j) = q^-m + O(q)."""
    return list(_faber_coeffs(m))


@lru_cache(maxsize=None)
def _faber_coeffs(m: int) -> tuple:
    if m < 1:
        raise DomainError("m >= 1")
    j = j_series(m + 2)
    powers = [QSeries.one().with_trunc(m + 2)]
    for _ in range(m):
        powers.append(powers[-1] * j)
    coeffs = [Fraction(0)] * (m + 1)
    coeffs[m] = Fraction(1)
    P = powers[m]
    for e in range(m - 1, -1, -1):
        gamma = P.coeff(-e)
        if gamma:
            coeffs[e] = -gamma
            P = P - gamma * powers[e]
    for e in range(0, m + 1):
        assert P.coeff(-e) == (1 if e == m else 0)
    return tuple(coeffs)


def faber(m: int, trunc: int) -> QSeries:
    """J_m = q^-m + O(q), the degree-m monic polynomial in j."""
    return _poly_in_j(faber_poly(m), trunc)


# ---------------------------------------------------------------------------
# arithmetic helpers for the trace identities

def sigma1(x) -> Fraction:
    """sigma_1 with the boundary conventions used by the trace identities:
    sigma1(0) = -1/24, sigma1(x) = 0 unless x is a nonnegative integer."""
    f = _as_frac(x)
    if f < 0 or f.denominator != 1:
        return Fraction(0)
    n = int(f)
    if n == 0:
        return Fraction(-1, 24)
    return Fraction(_sigma(n, 1))


def predicted_series(principal_part: dict, p: int = 1) -> dict:
    """Constant term and principal part of the trace generating series
    determined by a weakly holomorphic input with the given principal part
    {-m: a(-m), ...} (m > 0).

    Returns {exponent: coefficient} with exponents <= 0:
      constant  = sum_n (sigma1(n) + p*sigma1(n/p)) a(-n)   [n >= 0, a(0)=0]
      q^(-m^2)  = -sum_{n>0} m * a(-mn)
    For p = 1 the two sigma terms coincide, giving 2*sigma1(n).
    """
    pp = {}
    for e, c in principal_part.items():
        e = int(e)
        c = _as_frac(c)
        if e >= 0:
            raise ValueError("principal part must have negative exponents")
        if c:
            pp[-e] = c  # index by m > 0 with a(-m) = c
    const = Fraction(0)
    for m, a in pp.items():
        const += (sigma1(m) + p * sigma1(Fraction(m, p))) * a
    out = {0: const}
    M = max(pp, default=0)
    for m in range(1, M + 1):
        s = Fraction(0)
        for n in range(1, M // m + 1):
            s += m * pp.get(m * n, Fraction(0))
        if s:
            out[-m * m] = -s
    return out
