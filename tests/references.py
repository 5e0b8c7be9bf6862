"""Reference code that only the tests call: explicit SL2(Z) transporters
between forms, against which qform.gamma0_class is checked, membership
and the Gram determinant of a coordinate lattice, against which its
coset list is checked, the scalar Kudla-Millson term of one lattice
vector, against which thetalift's vectorized kernel sums are checked,
the scan over all of Z/c for the roots of x^2 = -D, against which
sums.exp_sum_S's CRT roots are checked, and the reduced forms collected
with their mirrors and sorted, against which qform.enumerate_reduced's
one ordered pass over integer triples is checked, and the plus-space
form found by one exact solve over a growing ansatz, against which
plusspace.plus_form's recursion on the basis g_D is checked."""

import math
from fractions import Fraction
from math import gcd, isqrt, lcm

import mpmath as mp
import numpy as np

from cmtrace.hp import HP, _ulp
from cmtrace.lattice import LatticeSpec, LatticeVector
from cmtrace.plusspace import PlusSpaceRankError
from cmtrace.qform import (
    _ID,
    QuadForm,
    _mat_mul,
    _stab_generator,
    gamma0_class,
    reduce_with_transform,
)
from cmtrace.series import QSeries, t_series, theta_series
from cmtrace.sums import _COS_TERM_ERR


# ---------------------------------------------------------------------------
# the SL2(Z) action on forms and its transporters

def apply_gl2(g, Q: QuadForm) -> QuadForm:
    """g.Q for g = [[p,q],[r,s]] in SL2(Z), acting by (g.Q)(v) = Q(g^{-1}v)."""
    p, q = g[0]
    r, s = g[1]
    if p * s - q * r != 1:
        raise ValueError("need det 1")
    a, b, c = Q.a, Q.b, Q.c
    # Q(sx - qy, -rx + py)
    a2 = a * s * s - b * s * r + c * r * r
    b2 = -2 * a * s * q + b * (s * p + q * r) - 2 * c * r * p
    c2 = a * q * q - b * q * p + c * p * p
    return QuadForm(a2, b2, c2)


def _mat_inv(g):
    (p, q), (r, s) = g
    return ((s, -q), (-r, p))


def _psl2_canon(g):
    """Sign-canonical representative of +-g."""
    if g[1][0] < 0 or (g[1][0] == 0 and g[1][1] < 0):
        return tuple(tuple(-e for e in row) for row in g)
    return g


def stabilizer_elements(R: QuadForm):
    """All PSL2-stabilizer elements of a reduced form (one matrix per
    projective class, sign-canonical)."""
    sig = _stab_generator(R)
    out = [_ID]
    if sig is None:
        return out
    g = sig
    while _psl2_canon(g) != _ID:
        out.append(_psl2_canon(g))
        g = _mat_mul(sig, g)
    return out


def transporter(Q1: QuadForm, Q2: QuadForm):
    """All g in PSL2(Z) with g.Q1 = Q2 (empty if inequivalent).

    Positive definiteness makes this set finite: it is a coset of the
    stabilizer of the common reduced form, so at most 3 matrices.  The
    library names Gamma_0(p)-classes by gamma0_class; this explicit set is
    the independent reference the tests check it against.
    """
    R1, g1 = reduce_with_transform(Q1)
    R2, g2 = reduce_with_transform(Q2)
    if R1 != R2:
        return []
    g2inv = _mat_inv(g2)
    out = []
    for s in stabilizer_elements(R1):
        g = _psl2_canon(_mat_mul(g2inv, _mat_mul(s, g1)))
        if g not in out:
            out.append(g)
    return out


def is_gamma0_equivalent(Q1: QuadForm, Q2: QuadForm, p: int) -> bool:
    """Exact Gamma_0(p)-equivalence: equal class keys."""
    return gamma0_class(Q1, p) == gamma0_class(Q2, p)


# ---------------------------------------------------------------------------
# coordinate lattices

def lattice_member(spec: LatticeSpec, X: LatticeVector) -> bool:
    for x, s in zip((X.x1, X.x2, X.x3), spec.steps):
        f = Fraction(x)
        if f.denominator != 1 or f.numerator % s:
            return False
    return True


def gram_det(spec: LatticeSpec) -> int:
    s1, s2, s3 = spec.steps
    # Gram of (s1 e1, s2 e2, s3 e3): det = 2 (s2 s3)^2 ... sign dropped
    return 2 * (s2 * s3) ** 2 * s1 * s1


# ---------------------------------------------------------------------------
# the negative line X(z) and the Kudla-Millson scalar

def x_of_z(z) -> LatticeVector:
    """The norm-1 vector spanning the negative line attached to z:
    X(z) = (1/y) [[-x, |z|^2], [-1, x]]."""
    zz = complex(z)
    x, y = zz.real, zz.imag
    if y <= 0:
        raise ValueError("Im z > 0 required")
    return LatticeVector(-x / y, (x * x + y * y) / y, -1.0 / y)


def majorant(X: LatticeVector, z) -> HP:
    """(X, X(z))^2 - (X, X): positive definite, vanishing only at X = 0."""
    s = pair_with_xz(X, z)
    x1 = float(X.x1)
    val = s * s + 2 * x1 * x1 + 2 * float(X.x2) * float(X.x3)
    return HP(mp.mpf(val), 16 * _ulp(abs(val) + 1.0, 53), 53)


def pair_with_xz(X: LatticeVector, z) -> float:
    zz = complex(z)
    x, y = zz.real, zz.imag
    return (2 * x * float(X.x1) + float(X.x2) - (x * x + y * y) * float(X.x3)) / y


def km_value(X: LatticeVector, tau, z, precision: int = 53) -> HP:
    """Scalar multiplying the invariant (1,1)-form in phi(X, tau, z):

        (v s^2 - 1/(2 pi)) e^{-pi v s^2 + pi v (X,X)} e^{2 pi i q(X) u}

    with s = (X, X(z)), tau = u + iv.  Its modulus is
    (|v s^2 - 1/(2 pi)|) e^{-pi v majorant(X, z)}.
    """
    tt = complex(tau)
    u, v = tt.real, tt.imag
    if v <= 0:
        raise ValueError("Im tau > 0 required")
    p = precision + 16
    with mp.workprec(p):
        zz = mp.mpc(z)
        x, y = zz.real, zz.imag
        if y <= 0:
            raise ValueError("Im z > 0 required")
        s = (2 * x * mp.mpf(float(X.x1)) + mp.mpf(float(X.x2)) - (x * x + y * y) * mp.mpf(float(X.x3))) / y
        nrm = 2 * _frac_to_mpf(X.q())
        val = (v * s * s - 1 / (2 * mp.pi)) * mp.e ** (-mp.pi * v * s * s + mp.pi * v * nrm)
        qx = _frac_to_mpf(X.q())
        val = val * mp.e ** (2j * mp.pi * qx * u)
    return HP(val, 64 * _ulp(abs(complex(val)) + 1e-300, precision), precision)


def _frac_to_mpf(x):
    f = Fraction(x)
    return mp.mpf(f.numerator) / f.denominator


# ---------------------------------------------------------------------------
# the quadratic exponential sum S(D, c) by a scan over all of Z/c

def exp_sum_terms(c: int, roots) -> tuple:
    """(value, error bound) of S(D, c) from its roots of x^2 = -D (mod c),
    one math.cos term per root as the scan summed them."""
    val = math.fsum([math.cos(2.0 * math.pi * ((2 * r) % c) / c) for r in roots])
    return val, len(roots) * _COS_TERM_ERR + _ulp(abs(val) + 1.0, 53)


def exp_sum_scan(D: int, c: int) -> tuple:
    """(value, error bound) of S(D, c) with the roots found by testing
    every x < c, in increasing order: the route exp_sum_S took before it
    joined the roots mod each prime power by CRT."""
    x = np.arange(c, dtype=np.int64)
    return exp_sum_terms(c, np.flatnonzero((x * x + D % c) % c == 0).tolist())


# ---------------------------------------------------------------------------
# reduced forms by collecting every form and its mirror, then sorting

def enumerate_reduced_scan(D: int) -> list:
    """All reduced forms of discriminant -D, lexicographic in (a, b, c):
    each b >= 0 form and its reduced mirror [a, -b, c] as found, then one
    sort, the route enumerate_reduced took before it put the mirrors in
    place."""
    if D <= 0 or D % 4 in (1, 2):
        return []
    out = []
    for a in range(1, isqrt(D // 3) + 1):
        for b in range(D & 1, a + 1, 2):
            num = b * b + D
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            out.append(QuadForm(a, b, c))
            if 0 < b < a < c:
                out.append(QuadForm(a, -b, c))
    return sorted(out, key=lambda f: (f.a, f.b, f.c))


# ---------------------------------------------------------------------------
# plus-space forms by one exact solve over a growing ansatz

def _int_row(row) -> list:
    """A row of Fractions scaled to coprime integers (same solutions)."""
    d = lcm(*(x.denominator for x in row))
    ints = [x.numerator * (d // x.denominator) for x in row]
    g = gcd(*ints) or 1
    return [x // g for x in ints]


def _solve_exact(rows, rhs, n_unknowns):
    """Fraction-free Gauss-Jordan elimination (Bareiss): every entry stays
    an integer minor of the scaled system, so each division by the previous
    pivot is exact.

    Returns (solution, None) when the system has a unique solution,
    (None, reason) otherwise.
    """
    aug = [_int_row(list(r) + [v]) for r, v in zip(rows, rhs)]
    pivots = []
    r = 0
    prev = 1
    for c in range(n_unknowns):
        piv = next((i for i in range(r, len(aug)) if aug[i][c]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        row, p = aug[r], aug[r][c]
        for i in range(len(aug)):
            if i != r:
                f = aug[i][c]
                aug[i] = [(p * x - f * y) // prev for x, y in zip(aug[i], row)]
        prev = p
        pivots.append(c)
        r += 1
        if r == len(aug):
            break
    if any(aug[i][n_unknowns] for i in range(r, len(aug))):
        return None, "inconsistent"
    if len(pivots) < n_unknowns:
        return None, f"rank {len(pivots)} < {n_unknowns} unknowns"
    x = [Fraction(0)] * n_unknowns
    for i, c in enumerate(pivots):
        x[c] = Fraction(aug[i][n_unknowns], aug[i][c])
    return x, None


def _seed_family(pole_order: int, depth: int, T: int):
    """theta^3 * {t^a, t^-j, (t+16)^-m} as q-series through exponent T,
    a = 0..pole_order and j, m = 1..depth."""
    margin = T + pole_order + 2
    th3 = theta_series(margin) ** 3
    t = t_series(margin)
    seeds = [th3.with_trunc(T)]
    for base, count in ((t, pole_order), (t.reciprocal(), depth), ((t + 16).reciprocal(), depth)):
        power = th3
        for _ in range(count):
            power = power * base
            seeds.append(power.with_trunc(T))
    return seeds


def plus_form_solve(principal_part: dict, trunc: int) -> QSeries:
    """The plus-space form with the given principal part, known below
    q^trunc, from one exact system: every weakly holomorphic weight-3/2
    form on Gamma_0(4) is theta^3 times a rational function of t with
    poles at the cusps t = infinity, 0, -16, so the ansatz is
    theta^3 * (C[t] + span{t^-j} + span{(t+16)^-m}).  The pole rows and
    the support rows n = 1, 2 (mod 4) through t_solve are imposed, and
    the solution's support is checked past them.  The route plus_form
    took before it built the basis g_D; raises PlusSpaceRankError as it
    does."""
    pp = {int(e): Fraction(c) for e, c in principal_part.items() if c}
    if not pp:
        return QSeries.zero(trunc)
    P = -min(pp)
    depth = P + 4
    n_unknowns = (P + 1) + 2 * depth
    # sized to the unknowns less the allowed pole exponents, the rows at
    # the forbidden exponents are spare, so an unattainable part comes
    # out inconsistent
    allowed = sum(1 for e in range(-P, 0) if e % 4 in (0, 3))
    t_solve = max(40, 2 * (n_unknowns - allowed))
    T = max(trunc, t_solve + 4) + 1
    seeds = _seed_family(P, depth, T)
    exps = list(range(-P, 0)) + [n for n in range(1, t_solve + 1) if n % 4 in (1, 2)]
    rows = [[s.coeff(n) for s in seeds] for n in exps]
    rhs = [pp.get(n, Fraction(0)) for n in exps]
    x, reason = _solve_exact(rows, rhs, n_unknowns)
    if reason == "inconsistent":
        raise PlusSpaceRankError(f"principal part {principal_part} is not attainable in the plus space")
    if x is None:
        raise PlusSpaceRankError(f"principal part {principal_part}: {reason}")
    out = QSeries.zero(T)
    for coef, s in zip(x, seeds):
        if coef:
            out = out + coef * s
    if any(n % 4 in (1, 2) and out.coeff(n) for n in range(1, T)):
        raise PlusSpaceRankError(f"principal part {principal_part}: support violated")
    return out.with_trunc(trunc)
