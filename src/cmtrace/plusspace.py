"""Weakly holomorphic weight-3/2 forms on Gamma_0(4) in the plus space.

Fourier support condition: coefficients vanish unless n = 0, 3 (mod 4).
Every weakly holomorphic weight-3/2 form on Gamma_0(4) is theta^3 times a
rational function of the hauptmodul t = eta(tau)^8/eta(4tau)^8 with poles
supported at the cusps (t = infinity, 0, -16), so the ansatz space is

    theta^3 * ( C[t]  +  span{t^-j}  +  span{(t+16)^-m} )

(partial fractions; the three families are linearly independent).  Within
that space, a prescribed principal part plus the support condition pins
down at most one form; we solve the resulting linear system exactly over Q
and then verify the support condition through the requested order.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .series import QSeries, t_series, theta_series


class PlusSpaceRankError(Exception):
    pass


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
        piv = None
        for i in range(r, len(aug)):
            if aug[i][c]:
                piv = i
                break
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
    for i in range(r, len(aug)):
        if aug[i][n_unknowns]:
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


def plus_form(principal_part: dict, trunc: int) -> QSeries:
    """The unique plus-space form q-expansion with the given principal part
    {-m: a(-m), ...} at infinity, known through exponent `trunc`.

    One exact system is built and solved: the pole rows and the support
    rows n = 1, 2 (mod 4) through t_solve.  The solution's support is then
    checked through T, past the rows imposed, and its principal part
    asserted.  Raises PlusSpaceRankError when no such form exists (e.g. a
    prescribed pole at an exponent outside the support condition), and
    when the system is rank-deficient or its solution breaks the support
    check; no known input reaches those two.
    """
    pp = {}
    for e, c in principal_part.items():
        e = int(e)
        c = Fraction(c)
        if e >= 0:
            raise ValueError("principal part must have negative exponents")
        if c:
            pp[e] = c
    if not pp:
        return QSeries.zero(trunc)
    P = -min(pp)

    depth = P + 4
    n_unknowns = (P + 1) + 2 * depth
    # About t_solve / 2 support rows (n = 1, 2 mod 4).  Sized to the unknowns
    # less the allowed pole exponents (e = 0, 3 mod 4), the system is not
    # rank-deficient by size, and the rows at the forbidden exponents are
    # spare, so an unattainable principal part comes out inconsistent.
    allowed = sum(1 for e in range(-P, 0) if e % 4 in (0, 3))
    t_solve = max(40, 2 * (n_unknowns - allowed))
    # seeds run past t_solve + 4, so the check reads two support rows not imposed
    T = max(trunc, t_solve + 4) + 1
    seeds = _seed_family(P, depth, T)
    assert len(seeds) == n_unknowns
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
    bad = next((n for n in range(1, T) if n % 4 in (1, 2) and out.coeff(n)), None)
    if bad is not None:
        raise PlusSpaceRankError(f"principal part {principal_part}: support violated at q^{bad}")
    for e in range(-P, 0):
        assert out.coeff(e) == pp.get(e, Fraction(0))
    return out.with_trunc(trunc)
