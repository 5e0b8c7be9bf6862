"""Positive definite binary quadratic forms.

Reduction, enumeration, stabilizers, Hurwitz class numbers, and orbit
representatives for the level-p Hecke groups extended by the Fricke
involution.

Conventions.  A form [a,b,c] is Q(x,y) = ax^2 + bxy + cy^2 with
disc = b^2 - 4ac < 0 and a,c > 0.  SL2(Z) acts by
(g.Q)(v) = Q(g^{-1} v), so the root alpha_Q = (-b + i sqrt(D))/(2a)
transforms as alpha_{g.Q} = g(alpha_Q).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt


@dataclass(frozen=True, order=True)
class QuadForm:
    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.a <= 0 or self.c <= 0 or self.disc >= 0:
            raise ValueError(f"not positive definite: [{self.a},{self.b},{self.c}]")

    @property
    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    @property
    def D(self) -> int:
        return -self.disc

    def __call__(self, x: int, y: int) -> int:
        return self.a * x * x + self.b * x * y + self.c * y * y

    def is_reduced(self) -> bool:
        a, b, c = self.a, self.b, self.c
        return abs(b) <= a <= c and (b >= 0 or (abs(b) != a and a != c))

    def __str__(self):
        return f"[{self.a},{self.b},{self.c}]"


@dataclass(frozen=True)
class OrbitRep:
    form: QuadForm
    stabilizer_order: int


# ---------------------------------------------------------------------------
# GL2 action and reduction

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


def _mat_mul(g, h):
    return (
        (g[0][0] * h[0][0] + g[0][1] * h[1][0], g[0][0] * h[0][1] + g[0][1] * h[1][1]),
        (g[1][0] * h[0][0] + g[1][1] * h[1][0], g[1][0] * h[0][1] + g[1][1] * h[1][1]),
    )


def _mat_inv(g):
    (p, q), (r, s) = g
    return ((s, -q), (-r, p))


_ID = ((1, 0), (0, 1))
_S = ((0, -1), (1, 0))


def _T(n):
    return ((1, n), (0, 1))


def _translate_b(a: int, b: int, c: int):
    """(n, b', c') with [a, b', c'] = [a, b + 2na, Q(n, 1)] and b' in (-a, a]."""
    n = -((b + a) // (2 * a))
    return n, b + 2 * n * a, a * n * n + b * n + c


def reduce_with_transform(Q: QuadForm):
    """Gauss reduction.  Returns (R, g) with g.Q = R reduced.

    Boundary normalization: b >= 0 whenever |b| = a or a = c, matching the
    half-open fundamental domain (left arc/edge included).
    """
    g = _ID
    a, b, c = Q.a, Q.b, Q.c
    while True:
        # T(n).[a,b,c] = [a, b-2an, ...], so realizing b -> b+2na takes T(-n)
        if not (-a < b <= a):
            n, b, c = _translate_b(a, b, c)
            g = _mat_mul(_T(-n), g)
        if a > c:
            a, b, c = c, -b, a
            g = _mat_mul(_S, g)
            continue
        break
    # boundary ties: want b >= 0 when |b| = a or a = c
    if b < 0 and -b == a:
        # realize b -> b + 2a = a (c' = a + b + c)
        c = a + b + c
        b = b + 2 * a
        g = _mat_mul(_T(-1), g)
    if b < 0 and a == c:
        a, b, c = c, -b, a
        g = _mat_mul(_S, g)
    R = QuadForm(a, b, c)
    assert R.is_reduced()
    return R, g


def reduce(Q: QuadForm) -> QuadForm:
    return reduce_with_transform(Q)[0]


def stabilizer_order(Q: QuadForm) -> int:
    """Order of the PSL2(Z)-stabilizer: 3 at the order-3 elliptic point,
    2 at i, else 1."""
    R = reduce(Q)
    if R.a == R.b == R.c:
        return 3
    if R.b == 0 and R.a == R.c:
        return 2
    return 1


def _stab_generator(R: QuadForm):
    """A generator of the PSL2-stabilizer of a *reduced* form (or None)."""
    if R.a == R.b == R.c:
        return ((0, -1), (1, 1))  # order 3 in PSL2
    if R.b == 0 and R.a == R.c:
        return _S  # order 2 in PSL2
    return None


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
    stabilizer of the common reduced form, so at most 3 matrices.
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
    """Exact Gamma_0(p)-equivalence via the finite transporter set."""
    return any(g[1][0] % p == 0 for g in transporter(Q1, Q2))


# ---------------------------------------------------------------------------
# Enumeration and class numbers

def enumerate_reduced(D: int):
    """All reduced forms of discriminant -D, lexicographic in (a,b,c)."""
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


def hurwitz(D: int) -> Fraction:
    """Hurwitz class number H(D), with H(0) = -1/12."""
    if D < 0:
        raise ValueError("D must be >= 0")
    if D == 0:
        return Fraction(-1, 12)
    total = Fraction(0)
    for f in enumerate_reduced(D):
        if f.a == f.b == f.c:
            total += Fraction(1, 3)
        elif f.b == 0 and f.a == f.c:
            total += Fraction(1, 2)
        else:
            total += 1
    return total


def hurwitz_table(Dmax: int):
    """H(D) for all 0 <= D <= Dmax by a single sweep over reduced triples.

    Independent of enumerate_reduced's per-D loop shape, which makes it a
    useful cross-check as well as the fast batch path.  Every reduced form
    has D = 4ac - b^2 >= 3a^2, so a <= sqrt(Dmax/3).
    """
    table = {0: Fraction(-1, 12)}
    for D in range(1, Dmax + 1):
        if D % 4 in (0, 3):
            table[D] = Fraction(0)
    for a in range(1, isqrt(Dmax // 3) + 1):
        for b in range(0, a + 1):
            c = a
            while True:
                D = 4 * a * c - b * b
                if D > Dmax:
                    break
                if a == b == c:
                    table[D] += Fraction(1, 3)
                elif b == 0 and a == c:
                    table[D] += Fraction(1, 2)
                elif 0 < b < a < c:
                    table[D] += 2  # the b<0 mirror is also reduced
                else:
                    table[D] += 1
                c += 1
    return table


def is_fundamental(D: int) -> bool:
    """True iff -D is a fundamental discriminant."""
    if D < 1:
        raise ValueError("D must be >= 1")

    def squarefree(n):
        i = 2
        while i * i <= n:
            if n % (i * i) == 0:
                return False
            i += 1
        return True

    if D % 4 == 3:
        return squarefree(D)
    if D % 4 == 0:
        m = D // 4
        return m % 4 in (1, 2) and squarefree(m)
    return False


# ---------------------------------------------------------------------------
# Level-p orbits (Fricke-extended Hecke groups)

def fricke_image(Q: QuadForm, p: int) -> QuadForm:
    """[a,b,c] -> [pc, -b, a/p]; requires p | a.  Involution on p|a forms."""
    if Q.a % p:
        raise ValueError("Fricke map needs p | a")
    return QuadForm(p * Q.c, -Q.b, Q.a // p)


def _proj_labels(p: int):
    # P^1(F_p) as bottom rows (r, s): (k, 1) for k in F_p, plus (1, 0)
    return [(k, 1) for k in range(p)] + [(1, 0)]


def _normalize_label(r: int, s: int, p: int):
    r %= p
    s %= p
    if s % p:
        inv = pow(s, -1, p)
        return ((r * inv) % p, 1)
    return (1, 0)


def _lift_label_to_sl2(label, p: int):
    """Some g in SL2(Z) whose bottom row is `label` mod p."""
    r, s = label
    if s == 0:
        r, s = 1, p  # (1,0) mod p, coprime lift
    elif r == 0:
        r, s = p, 1
    # labels are (k,1) or the two lifts above, so gcd(r,s) = 1 already;
    # complete (r, s) to [[x, y], [r, s]] with xs - yr = 1
    x, y = _bezout(s, -r)
    assert x * s - y * r == 1
    return ((x, y), (r, s))


def _bezout(a, b):
    """(x, y) with x*a + y*b = gcd = 1 (callers guarantee coprimality)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r == -1:
        old_s, old_t = -old_s, -old_t
    return old_s, old_t


def level_p_orbits(D: int, p: int):
    """Representatives of forms with p | a under the Fricke extension of
    Gamma_0(p), with stabilizer orders in that group.

    Structure: within one SL2(Z)-class with reduced representative R, the
    Gamma_0(p)-classes of p|a forms correspond to orbits of the stabilizer
    <sigma_R> acting on the labels {(r,s) in P^1(F_p) : R(s,-r) = 0 mod p}
    (the label of g is its bottom row; a_{g.R} = R(s,-r)).  The Fricke
    involution then pairs or fixes Gamma_0(p)-classes; a fixed class gets
    its stabilizer doubled.
    """
    if p < 2 or any(p % q == 0 for q in range(2, isqrt(p) + 1)):
        raise ValueError("p must be prime")
    if D <= 0 or D % 4 in (1, 2):
        return []

    # Gamma_0(p) classes, grouped by SL2-class
    classes = []  # (rep_form, stab_order_in_gamma0p)
    for R in enumerate_reduced(D):
        labels = [
            lab
            for lab in _proj_labels(p)
            if (R.a * lab[1] * lab[1] - R.b * lab[1] * lab[0] + R.c * lab[0] * lab[0]) % p == 0
        ]
        if not labels:
            continue
        w = stabilizer_order(R)
        sig = _stab_generator(R)
        # orbits of <sigma> on labels via right multiplication of bottom rows
        seen = set()
        for lab in labels:
            if lab in seen:
                continue
            orbit = []
            cur = lab
            while cur not in orbit:
                orbit.append(cur)
                if sig is None:
                    break
                r, s = cur
                cur = _normalize_label(r * sig[0][0] + s * sig[1][0], r * sig[0][1] + s * sig[1][1], p)
            seen.update(orbit)
            g = _lift_label_to_sl2(orbit[0], p)
            Qrep = apply_gl2(g, R)
            assert Qrep.a % p == 0
            # T-normalize b into (-a, a] for a deterministic representative
            _, brep, crep = _translate_b(Qrep.a, Qrep.b, Qrep.c)
            Qrep = QuadForm(Qrep.a, brep, crep)
            stab = w // len(orbit) if sig is not None else 1
            classes.append((Qrep, stab))

    # fold under the Fricke involution
    reps = []
    used = [False] * len(classes)
    for i, (Qi, si) in enumerate(classes):
        if used[i]:
            continue
        used[i] = True
        W = fricke_image(Qi, p)
        if is_gamma0_equivalent(W, Qi, p):
            stab = 2 * si  # Fricke-fixed class: involution joins the stabilizer
        else:
            stab = si
            for j in range(i + 1, len(classes)):
                if not used[j] and is_gamma0_equivalent(W, classes[j][0], p):
                    used[j] = True
                    break
            else:
                raise AssertionError("Fricke image did not land in any class")
        if stab not in (1, 2, 3, 4, 6):
            raise AssertionError(f"stabilizer order {stab} outside {{1,2,3,4,6}}")
        reps.append(OrbitRep(Qi, stab))
    reps.sort(key=lambda r: (r.form.a, r.form.b, r.form.c))
    return reps
