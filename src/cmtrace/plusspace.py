"""Weakly holomorphic weight-3/2 forms on Gamma_0(4) in the plus space.

Fourier support condition: coefficients vanish unless n = 0, 3 (mod 4).
The space has the basis g_D = q^-D + O(1), one form for each D >= 1 with
D = 0, 1 (mod 4) (Zagier, "Traces of singular moduli", 2002): no nonzero
holomorphic form lies in it, so a principal part pins down at most one
form, and a pole at an exponent = 1, 2 (mod 4) pins down none.

Two seeds come in closed form from theta and the level-4 hauptmodul
t = eta(tau)^8/eta(4tau)^8 = q^-1 - 8 + O(q):

    g_1 = theta^3 * (t + 16/(t + 16))                          (= -g_series)
    g_4 = theta^3 * (t^4 + 26t^3 + 184t^2 + 280t - 128/t)

j(4tau) = q^-4 + 744 + O(q^4) keeps the plus space, so the rest follow by
the triangular recursion

    g_D = j(4tau) * g_(D-4) - sum_{E < D} c_E * g_E,

where c_E is the coefficient of q^-E in j(4tau) * g_(D-4).
"""

from __future__ import annotations

from fractions import Fraction

from .series import QSeries, j_series, t_series, theta_series


class PlusSpaceRankError(Exception):
    pass


def _basis(P: int, T: int) -> dict:
    """{D: g_D} for every D <= P with D = 0, 1 (mod 4).  g_1 is known
    below q^(T + pole - 1) and g_D, D >= 4, below q^(T + 4 - D): each
    product with j(4tau) loses 4 orders."""
    pole = 4 if P >= 4 else 1  # the seeds' highest pole in t
    t = t_series(T + pole - 1)  # t^4 loses 3 orders
    th3 = theta_series(T + pole) ** 3  # times a pole of order 4 loses 4
    g = {1: th3 * (t + 16 * (t + 16).reciprocal())}
    if P >= 4:
        g[4] = th3 * (t * (t * (t * (t + 26) + 184) + 280) - 128 * t.reciprocal())
    if P >= 5:
        j4 = j_series(-(-T // 4)).scale_q(4)
        for D in (D for D in range(5, P + 1) if D % 4 in (0, 1)):
            h = j4 * g[D - 4]
            for E, gE in g.items():
                # g_E's one pole is q^-E, so this clears h's and no other
                if c := h.coeff(-E):
                    h = h - c * gE
            g[D] = h
    return g


def plus_form(principal_part: dict, trunc: int) -> QSeries:
    """The unique plus-space form q-expansion with the given principal part
    {-m: a(-m), ...} at infinity, known through exponent `trunc`:
    sum_m a(-m) * g_m.

    Raises PlusSpaceRankError when no such form exists (a prescribed pole
    at an exponent = 1, 2 (mod 4)), before any series is built.  The
    result's support is checked below q^trunc, and a violation also raises
    PlusSpaceRankError; no known input reaches that.
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
    if any(e % 4 in (1, 2) for e in pp):
        raise PlusSpaceRankError(f"principal part {principal_part} is not attainable in the plus space")
    P = -min(pp)
    # g_P, the least known of the basis, is known below q^max(trunc, 1)
    g = _basis(P, max(trunc, 1) + max(P - 4, 0))
    out = QSeries.zero()
    for e, c in pp.items():
        out = out + c * g[-e]
    bad = next((n for n in range(1, trunc) if n % 4 in (1, 2) and out.coeff(n)), None)
    if bad is not None:
        raise PlusSpaceRankError(f"principal part {principal_part}: support violated at q^{bad}")
    for e in range(-P, 0):
        assert out.coeff(e) == pp.get(e, Fraction(0))
    return out.with_trunc(trunc)
