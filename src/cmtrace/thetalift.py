"""Numerical theta lift against the Kudla-Millson kernel.

theta_kernel sums the terms (v s^2 - 1/(2 pi)) e^{-pi v M} e(q(X) u),
built from _s_q_majorant's s, q(X) and majorant M, over a dual coset of
the lattice with a certified Gaussian tail; theta_integral pairs the
kernel with a weakly holomorphic input over the modular curve;
fourier_extract reads trace coefficients off the lift; eisen_prediction
gives the closed-form target for the lift of the constant function.

theta_kernel sums one node under mpmath, at a precision set by its tol;
the quadrature sums the same enumeration in float64/numpy.  Both run in a
fixed summation order (single threaded, deterministic).  theta_integral
and fourier_extract sum the kernel in float64 only, so they refuse tol
below 1e-12.

Each node's threshold T is solved directly, for all nodes at once, from a
tail bound that splits the Gaussian at a fixed theta = 1/8 (_tail_bound
derives it; the earlier theta = 1/2 asks for about 1.75 times the T).

The enumerator works on many quadrature nodes at once: the quadrature lays
a panel's columns end to end and hands it blocks of up to 64 nodes, each
with its own tolerance, and every point carries its node's index through
the row expansion into one node x q table of sums.  Each node's row
equals, bit for bit, the sums of the node enumerated alone.  The
quadrature weights the rows after binning and applies the phases e(q u)
once per block.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np

from .analytic import _f_grid_evaluator, _fd_columns, beta_integral
from .hp import HP
from .lattice import LatticeSpec, LatticeVector
from .qform import hurwitz

_C = 1.0 / (2.0 * math.pi)
_THETA = 0.125  # the Gaussian's share that _tail_bound spends summing over the coset
_BLOCK = 64  # quadrature nodes enumerated in one pass
_FLOAT_TOL = 1e-12  # the least tol the quadrature's float64 kernel sums serve
_LEVEL4 = LatticeSpec.level4()  # the only lattice the kernel and the integration use


# ---------------------------------------------------------------------------
# majorant Gram data and the certified tail

def _majorant_gram(x, y, steps) -> np.ndarray:
    """Gram matrix of majorant(X, z) in the integer coordinates n with
    X = (s1 n1, s2 n2, s3 n3), at z = x + iy; entry [i, j] has the shape
    of x and y, one value per node.  Each entry is (s_i A_ij) s_j, which
    is D @ A @ D, D = diag(s), bit for bit."""
    yy = y * y
    zz = x * x + yy
    A = [[4 * x * x / yy + 2.0, 2 * x / yy, -2 * x * zz / yy],
         [2 * x / yy, 1.0 / yy, 1.0 - zz / yy],
         [-2 * x * zz / yy, 1.0 - zz / yy, zz * zz / yy]]
    s = [float(t) for t in steps]
    return np.array([[s[i] * A[i][j] * s[j] for j in range(3)] for i in range(3)])


# permutation: enumerate x1 outer, x3 middle, x2 inner (x2 has the widest
# range in the fundamental domain, so it gets the innermost axis)
_PERM = (1, 2, 0)  # local coords (m1, m2, m3) = (x2, x3, x1)


def _local_cholesky(x, y, steps):
    """The majorant Gram at the nodes z = x + iy (float64 arrays) in the
    local coordinates _PERM as L^T diag(q) L, L unit upper-triangular;
    returns arrays (q1, q2, q3, a12, a13, a23), one entry per node."""
    B = _majorant_gram(x, y, steps)[np.ix_(_PERM, _PERM)]
    q1 = B[0, 0]
    a12 = B[0, 1] / q1
    a13 = B[0, 2] / q1
    q2 = B[1, 1] - q1 * a12 * a12
    a23 = (B[1, 2] - q1 * a12 * a13) / q2
    q3 = B[2, 2] - q1 * a13 * a13 - q2 * a23 * a23
    return q1, q2, q3, a12, a13, a23


def _tail_factor(v: float, qs):
    """The factor prod (1 + 1/sqrt(theta v q)) over the Cholesky diagonal
    qs = (q1, q2, q3) in _tail_bound, one entry per node; it does not
    depend on T."""
    pref = 1.0
    for q in qs:
        pref = pref * (1.0 + 1.0 / np.sqrt(_THETA * v * q))
    return pref


def _tail_bound(T, v: float, pref):
    """A bound on the sum over M(X) > T of (2vM + 1/2pi) e^{-pi v M},
    which bounds |km| there since |km| <= (v s^2 + 1/2pi) e^{-pi v M} and
    s^2 <= 2M; pref is _tail_factor(v, qs).  It holds for
    T >= (2/(pi (1 - theta)) - 1/2pi) / 2v, the floor _solve_threshold keeps.

    Split e^{-pi v M} = e^{-pi v (1 - theta) M} e^{-pi v theta M}.  Past the
    floor, (2vM + 1/2pi) e^{-pi v (1 - theta) M} decreases in M, so every
    dropped term is at most (2vT + 1/2pi) e^{-pi v (1 - theta) T} times
    e^{-pi v theta M}.  Summing that over the whole coset one Cholesky
    coordinate at a time, each sum over n of e^{-pi a (n + c)^2} is at most
    1 + 1/sqrt(a) (its peak plus the Gaussian integral), with
    a = theta v q_i.  theta = 1/2, the earlier split, asks for about
    1.75 times the T that theta = 1/8 does."""
    return (2 * v * T + _C) * np.exp(-math.pi * v * (1 - _THETA) * T) * pref


def _solve_threshold(v: float, pref, tol):
    """The least T past _tail_bound's floor with _tail_bound(T, v, pref)
    <= tol, and that bound, for every node at once (pref, tol float64
    arrays).

    T is the fixed point T = (ln(2vT + 1/2pi) + ln(pref/tol)) / (pi v (1 - theta)).
    In y = 2vT + 1/2pi it reads k y - ln y = R, with k = pi (1 - theta)/2
    and R = ln(pref/tol) + k/2pi; the floor is y = 1/k, past which the left
    side increases and is convex.  Where it is already >= R at the floor,
    T is the floor.  Elsewhere Newton steps from y = 2/k solve it: each
    bounds ln y by its tangent at the current y, so every step lands at or
    above the root and the steps decrease to it.  A node stops once a
    step moves it by less than 1e-13 relative, so its T does not depend on
    the other nodes; the bound is then checked, and a node that rounding
    left above tol is nudged up."""
    k = math.pi * (1 - _THETA) / 2
    R = np.log(pref / tol) + k * _C
    at_floor = R <= 1.0 + math.log(k)  # the bound already holds at y = 1/k
    y = np.full_like(R, 2.0 / k)
    for _ in range(100):
        step = (R + np.log(y) - 1.0) / (k - 1.0 / y)
        move = ~at_floor & (np.abs(step - y) > 1e-13 * y)
        if not move.any():
            break
        y = np.where(move, step, y)
    y = np.where(at_floor, 1.0 / k, y)
    T = (y - _C) / (2 * v)
    while True:
        tail = _tail_bound(T, v, pref)
        over = tail > tol
        if not over.any():
            return T, tail
        T = np.where(over, T * (1.0 + 2.0 ** -40), T)


def _rows(rem, ctr, q):
    """Row index and n of every integer n with q (n - ctr)^2 <= rem, row
    after row (rows with rem < 0 are empty), as int64 arrays; rem, ctr and
    q hold one entry per row."""
    ok = np.flatnonzero(rem >= 0)
    r = np.sqrt(rem[ok] / q[ok])
    lo = np.ceil(ctr[ok] - r).astype(np.int64)
    counts = np.floor(ctr[ok] + r).astype(np.int64) - lo + 1
    row = np.repeat(np.arange(ok.size), counts)
    # each row's first integer, shifted back by the row's start in the output
    return ok[row], np.arange(row.size) + np.repeat(lo - np.cumsum(counts) + counts, counts)


def _coset_points(spec: LatticeSpec, h: LatticeVector, T, chol):
    """The points X of h + L with M(X) <= T[i] at every node i, M given by
    the nodes' _local_cholesky factors.  Points come node after node, each
    node's ordered x1 outer, x3 middle, x2 inner.  Returns the int64 node
    index of each point, int64 indices (k1, k2, k3) and float64 coordinates
    (x1, x2, x3), x_i = (k_i + h_i/s_i) s_i.  The row bounds are rounded: a
    point on the edge may have M just above T."""
    q1, q2, q3, a12, a13, a23 = chol
    steps = [float(s) for s in spec.steps]
    off = [float(hx) / s for hx, s in zip((h.x1, h.x2, h.x3), steps)]
    c1, c2, c3 = (off[k] for k in _PERM)  # local coordinates m = n + c

    node, n3 = _rows(T, np.full(T.size, -c3), q3)
    m3 = n3 + c3
    rem = T[node] - q3[node] * m3 * m3
    i, n2 = _rows(rem, -(c2 + a23[node] * m3), q2[node])
    node, n3, m3, m2 = node[i], n3[i], m3[i], n2 + c2
    rem = rem[i] - q2[node] * (m2 + a23[node] * m3) ** 2
    i, n1 = _rows(rem, -(a12[node] * m2 + a13[node] * m3) - c1, q1[node])

    k = (n3[i], n1, n2[i])
    return node[i], k, tuple((kk + o) * s for kk, o, s in zip(k, off, steps))


def _s_q_majorant(x, y, x1, x2, x3):
    """s = (X, X(z)), q(X) and the majorant M = s^2 - 2 q(X) at z = x + iy,
    by the same operations on float64 arrays and on mpf scalars."""
    s = (2 * x * x1 + x2 - (x * x + y * y) * x3) / y
    return s, -x1 * x1 - x2 * x3, s * s + 2 * x1 * x1 + 2 * x2 * x3


def _enumerate_qsums(spec: LatticeSpec, h: LatticeVector, v: float, x, y, tol):
    """Coset sums of km over h + L at u = 0, grouped by q(X), at every node
    z = x + iy with its own tolerance (x, y, tol float64 arrays).

    Returns (q, sums, tails): q is one grid of step 1/4 spanning every
    node's q(X), sums[i, j] multiplies e(q[j] u) at node i, and tails[i]
    is a certified bound on node i's dropped terms.  A column without
    points gets q = [0].
    """
    chol = _local_cholesky(x, y, spec.steps)
    pref = _tail_factor(v, chol[:3])
    T, tails = _solve_threshold(v, pref, tol)

    node, _, X = _coset_points(spec, h, T, chol)
    s_, qv, M = _s_q_majorant(x[node], y[node], *X)
    keep = M <= T[node]
    node, s_, qv, M = node[keep], s_[keep], qv[keep], M[keep]
    tv = (v * s_ * s_ - _C) * np.exp(-math.pi * v * M)
    qq = np.rint(4.0 * qv).astype(np.int64)

    lo, w = (int(qq.min()), int(qq.max() - qq.min()) + 1) if qq.size else (0, 1)
    # points come node after node, so each cell adds its terms in the order
    # the node alone would
    sums = np.bincount(node * w + qq - lo, weights=tv, minlength=x.size * w)
    return (lo + np.arange(w)) / 4.0, sums.reshape(x.size, w), tails


def _resolve_h(h) -> LatticeVector:
    cs = _LEVEL4.cosets()
    if not isinstance(h, int) or not 0 <= h < len(cs):
        raise ValueError(f"h must be a level-4 coset index in 0..{len(cs) - 1}")
    return cs[h]


def theta_kernel(h, tau, z, tol: float = 1e-10) -> HP:
    """Sum of the Kudla-Millson terms (v s^2 - 1/(2 pi)) e^{-pi v M} e(q(X) u)
    over the dual coset h + L of the level-4 lattice, under mpmath at
    max(64, -log2(tol) + 48) bits in a fixed order.  The error bound is the
    certified tail (<= tol) plus the rounding charged on the sum of |term|."""
    hv = _resolve_h(h)
    tt = complex(tau)
    zz = complex(z)
    if tt.imag <= 0 or zz.imag <= 0:
        raise ValueError("Im tau and Im z must be positive")
    if tol <= 0:
        raise ValueError("tol > 0 required")

    prec = max(64, int(-math.log2(tol)) + 48)
    with mp.workprec(prec + 16):
        u, v = mp.mpf(tt.real), mp.mpf(tt.imag)
        x, y = mp.mpf(zz.real), mp.mpf(zz.imag)
        chol = _local_cholesky(np.array([zz.real]), np.array([zz.imag]), _LEVEL4.steps)
        # threshold and tail from the float bound, with slack for the float Gram
        vs = tt.imag * 0.99
        pref = _tail_factor(vs, [q * 0.98 for q in chol[:3]])
        T, tail = _solve_threshold(vs, pref, np.array([tol]))

        # coordinates from the integer indices, at the working precision
        steps = [mp.mpf(float(s)) for s in _LEVEL4.steps]
        off = [mp.mpf(float(hx)) / s for hx, s in zip((hv.x1, hv.x2, hv.x3), steps)]
        two_pi_i = 2j * mp.pi
        c_ = 1 / (2 * mp.pi)

        total = mp.mpc(0)
        abssum = mp.mpf(0)
        _, k, _ = _coset_points(_LEVEL4, hv, T, chol)
        for kk in zip(*(a.tolist() for a in k)):
            X = [(n + o) * s for n, o, s in zip(kk, off, steps)]
            s_, qx, M = _s_q_majorant(x, y, *X)
            term = (v * s_ * s_ - c_) * mp.e ** (-mp.pi * v * M)
            if u:
                term = term * mp.e ** (two_pi_i * qx * u)
            total += term
            abssum += abs(mp.mpf(term.real)) + abs(mp.mpf(term.imag))
        rnd = float(abssum) * (k[0].size + 8) * 2.0 ** (-(prec + 16) + 4)
    return HP(total, float(tail[0]) + rnd, prec)


# ---------------------------------------------------------------------------
# the regularized pairing over the modular curve

def _strip_bound(Y: float, v: float, n0: int, alead: float) -> float:
    # x-integrated kernel modes are O(y^3 e^{-pi y^2 / v}); they pair with
    # input modes growing like e^{2 pi n0 y}.  Constant 20 is a margin,
    # validated by the Y vs Y+1 comparison test.
    return 20.0 * (1 + 1 / v) ** 2 * max(alead, 1.0) * (1 + Y ** 3) * math.exp(
        2 * math.pi * n0 * Y - math.pi * Y * Y / v)


def _strip_cutoff(v: float, n0: int, alead: float, tol: float) -> float:
    Y = max(3.0, 2.0 * v * n0 + 2.0)
    while Y < 20.0 and _strip_bound(Y, v, n0, alead) >= tol / 4:
        Y += 0.5
    return Y


def _integral_profile(h, v: float, f_spec, tol: float, us, y_top: float = None):
    """I_h(u_j + i v) for every u_j in us, sharing one quadrature pass.

    Returns (values complex ndarray, certified-ish error bound float).
    The domain is folded onto x >= 0 (theta(tau, -zbar) = theta(tau, z),
    via X -> (x1, -x2, -x3)), so the input enters through 2 Re f.  It is
    cut at y = Y into the arc panel below y = 1 and unit strips above,
    each integrated at degree 12 and 18 (27 when those disagree).  The
    kernel sums are float64, so tol below _FLOAT_TOL raises ValueError,
    and so does an error bound that comes out above tol.
    """
    if not tol >= _FLOAT_TOL:
        raise ValueError(f"tol >= {_FLOAT_TOL:g} required: the kernel sums are float64")
    hv = _resolve_h(h)
    f_vals, n0, alead = _f_grid_evaluator(f_spec)
    Y = y_top if y_top is not None else _strip_cutoff(v, n0, alead, tol)
    us = np.asarray(us, dtype=float)

    panels = [(None, None)]  # the arc panel, then unit strips up to Y
    yk = 1.0
    while yk < Y:
        panels.append((yk, min(yk + 1.0, Y)))
        yk += 1.0

    vals = np.zeros(us.size, dtype=complex)
    err = _strip_bound(Y, v, n0, alead)

    for ya, yb in panels:
        base = _panel_quad(ya, yb, 12, hv, v, f_vals, tol, us)
        fine = _panel_quad(ya, yb, 18, hv, v, f_vals, tol, us)
        change = float(np.abs(fine[0] - base[0]).max())
        if change > tol / 6:
            base = fine
            fine = _panel_quad(ya, yb, 27, hv, v, f_vals, tol, us)
            change = float(np.abs(fine[0] - base[0]).max())
        vals += fine[0]
        err += change + fine[1]
    if not err <= tol:
        raise ValueError(f"the quadrature's error bound {err:.3g} exceeds tol {tol:g}")
    return vals, err


def _panel_quad(ya, yb, n, hv, v, f_vals, tol, us):
    """Degree-n tensor Gauss-Legendre over one panel (_fd_columns: the arc
    panel when ya is None, else the strip ya <= y <= yb); returns
    (I_j contributions, kernel-truncation error pushed through the measure).

    The panel's columns are laid end to end and enumerated in blocks of
    _BLOCK nodes.  Per block, the node rows of the q table are weighted by
    the fold, the measure dx dy / y^2 and Re f after binning (weighting each
    term before binning loses the cancellation inside the q = 0 bin), then
    take one phase product."""
    cols = list(_fd_columns(n, ya, yb))
    xs = np.concatenate([np.full_like(ys, x) for x, _, ys, _ in cols])
    ys = np.concatenate([ys for _, _, ys, _ in cols])
    fv = f_vals(xs, ys).real
    tols = tol * ys * ys / (40.0 * (1.0 + np.abs(fv)))
    wxy = np.concatenate([2.0 * wx * wys for _, wx, _, wys in cols])
    wf = wxy / (ys * ys) * fv  # fold + measure
    out = np.zeros(us.size, dtype=complex)
    kerr = 0.0
    for b in range(0, xs.size, _BLOCK):
        blk = slice(b, b + _BLOCK)
        qq, sums, tails = _enumerate_qsums(_LEVEL4, hv, v, xs[blk], ys[blk], tols[blk])
        out += np.exp(2j * math.pi * (us[:, None] * qq)) @ (wf[blk] @ sums)
        kerr += float(np.abs(wf[blk]) @ tails)
    return out, kerr


def theta_integral(h, tau, f_spec, tol: float = 1e-4) -> HP:
    """Regularized integral of f(z) theta_h(tau, z) over the level-4
    lattice's modular curve (raw normalization: Fourier coefficients are
    twice the CM traces, the +-X pairs of the kernel both contributing)."""
    tt = complex(tau)
    if tt.imag < 0.5:
        raise ValueError("Im tau >= 1/2 required by the truncation design")
    vals, err = _integral_profile(h, tt.imag, f_spec, tol, [tt.real])
    return HP(mp.mpc(complex(vals[0])), err, 53)


def fourier_extract(h, m, v: float, f_spec, grid_size: int = 8,
                    tol: float = 1e-3) -> HP:
    """Coefficient of e(m tau) in the trace-normalized lift component h,
    via a DFT over grid_size equispaced u values at height v.

    m must lie in q(h) + Z; the raw integral carries twice the trace, and
    the 1/2 is applied here.

    tol bounds the error of the integral profile, not of the coefficient:
    the returned bound is (err + |Im raw|) e^{2 pi m v} / 2 plus the alias
    term, err the profile's bound.  At m = 1, v = 1 that is about 268
    times the profile's error (0.0204 at tol 1e-3).
    """
    if grid_size < 8:
        raise ValueError("grid_size >= 8 required")
    if v < 0.5:
        raise ValueError("v >= 1/2 required")
    hv = _resolve_h(h)
    mf = Fraction(m).limit_denominator(64) if not isinstance(m, Fraction) else Fraction(m)
    if (mf - Fraction(hv.q())) % 1 != 0:
        raise ValueError(f"m = {m} is not congruent to q(h) mod 1")

    _, n0, _ = _f_grid_evaluator(f_spec)
    # principal-part aliasing: poles of the lift sit at exponents >= -n0^2/4
    for k in range(1, 4):
        cand = mf - k * grid_size
        if -Fraction(n0 * n0, 4) <= cand < 0:
            warnings.warn("grid_size aliases a principal-part exponent; "
                          "increase grid_size", stacklevel=2)

    us = np.arange(grid_size) / grid_size
    vals, err = _integral_profile(h, v, f_spec, tol, us)
    phases = np.exp(-2j * math.pi * float(mf) * us)
    raw = complex(np.sum(vals * phases)) / grid_size
    amp = math.exp(2 * math.pi * float(mf) * v)
    # alias of the next coefficient in the same coset class
    alias = math.exp(2 * math.pi * math.sqrt(4.0 * (float(mf) + grid_size))
                     - 2 * math.pi * grid_size * v)
    value = 0.5 * raw.real * amp
    bound = 0.5 * (err + abs(raw.imag)) * amp + alias
    return HP(mp.mpf(value), bound, 53)


# ---------------------------------------------------------------------------
# Eisenstein prediction for the lift of the constant

def eisen_prediction(tau, tol: float = 1e-10) -> HP:
    """Closed form the averaged lift of the constant must match:

        P(sigma) = sum_D H(D) e(D sigma / 4)
                 + (1 / (8 pi sqrt(v))) sum_{N in Z} beta(pi N^2 v) e(-N^2 sigma / 4)

    with H the Hurwitz class numbers (H(0) = -1/12) and
    beta(s) = integral_1^infty t^{-3/2} e^{-s t} dt."""
    tt = complex(tau)
    v = tt.imag
    if v < 0.3:
        raise ValueError("Im tau >= 0.3 required")
    if tol <= 0:
        raise ValueError("tol > 0 required")

    err = 0.0
    with mp.workprec(80):
        sig = mp.mpc(tt)
        r = math.exp(-math.pi * v / 2.0)
        Dmax = 8
        while Dmax * r ** Dmax / (1 - r) ** 2 * 2 >= tol / 4:
            Dmax += 4
        total = mp.mpc(0)
        for D in range(0, Dmax + 1):
            if D % 4 in (1, 2):
                continue
            H = hurwitz(D)
            if D and not abs(H) <= D:  # tail bound uses H(D) <= D
                raise AssertionError("class number bound violated")
            total += mp.mpf(H.numerator) / H.denominator * mp.e ** (
                2j * mp.pi * D * sig / 4)
        err += 2 * Dmax * r ** Dmax / (1 - r) ** 2  # geometric tail, H(D) <= D

        Nmax = 1
        while 8 * math.exp(-math.pi * Nmax * Nmax * v / 2.0) >= tol / 4:
            Nmax += 1
        pref = 1 / (8 * mp.pi * mp.sqrt(mp.mpf(v)))
        for N in range(Nmax + 1):
            mult = 2 if N else 1  # N and -N give the same term
            b = beta_integral(math.pi * N * N * v, precision=70)
            total += mult * pref * mp.mpf(b.value) * mp.e ** (-2j * mp.pi * N * N * sig / 4)
            err += mult * float(pref) * b.error_bound
        err += 8 * math.exp(-math.pi * Nmax * Nmax * v / 2.0) * float(pref)
        out = HP(total, err + 1e-16 * (1 + abs(complex(total))), 53)
    return out
