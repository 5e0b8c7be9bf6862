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
from itertools import groupby
from math import isqrt
from operator import itemgetter


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
# Reduction

def _mat_mul(g, h):
    return (
        (g[0][0] * h[0][0] + g[0][1] * h[1][0], g[0][0] * h[0][1] + g[0][1] * h[1][1]),
        (g[1][0] * h[0][0] + g[1][1] * h[1][0], g[1][0] * h[0][1] + g[1][1] * h[1][1]),
    )


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


def _weight(a: int, b: int, c: int) -> int:
    """Order of the PSL2(Z)-stabilizer of the *reduced* form [a, b, c]: 3 at
    the order-3 elliptic point, 2 at i, else 1."""
    if a == b == c:
        return 3
    if b == 0 and a == c:
        return 2
    return 1


def stabilizer_order(Q: QuadForm) -> int:
    """Order of the PSL2(Z)-stabilizer: 3 at the order-3 elliptic point,
    2 at i, else 1."""
    R = Q if Q.is_reduced() else reduce(Q)
    return _weight(R.a, R.b, R.c)


# a generator of each stabilizer order's PSL2-stabilizer of a reduced form
_STAB_GENERATORS = {1: None, 2: _S, 3: ((0, -1), (1, 1))}


def _stab_generator(R: QuadForm):
    """A generator of the PSL2-stabilizer of a *reduced* form (or None)."""
    return _STAB_GENERATORS[_weight(R.a, R.b, R.c)]


# ---------------------------------------------------------------------------
# Enumeration and class numbers

def _reduced_triples(D: int):
    """(a, b, c) of every reduced form of discriminant -D with b >= 0, in
    (a, b) order.

    b has D's parity and b <= a <= sqrt(D/3), as D = 4ac - b^2 >= 3a^2.
    For each such b, 4a | b^2 + D says a divides n = (b^2 + D)/4, and
    c = n/a >= a says a <= sqrt(n): a runs over the divisors of n in
    [b, sqrt(n)].  The triples are found by b and sorted into (a, b)
    order once."""
    if D <= 0 or D % 4 in (1, 2):
        return []
    out = []
    for b in range(D & 1, isqrt(D // 3) + 1, 2):
        n = (b * b + D) >> 2
        out += [(a, b, n // a) for a in range(max(b, 1), isqrt(n) + 1) if n % a == 0]
    out.sort()
    return out


def _has_mirror(a: int, b: int, c: int) -> bool:
    """True iff [a, -b, c] is reduced too, for a reduced [a, b, c], b >= 0."""
    return 0 < b < a < c


def enumerate_reduced(D: int):
    """All reduced forms of discriminant -D, lexicographic in (a,b,c).

    Built in order from the triples of _reduced_triples: for each a the
    b < 0 mirrors come first, by descending |b|, then the b >= 0 forms, so
    no form is sorted."""
    out = []
    for _, row in groupby(_reduced_triples(D), key=itemgetter(0)):
        row = list(row)
        out += [QuadForm(a, -b, c) for a, b, c in reversed(row) if _has_mirror(a, b, c)]
        out += [QuadForm(a, b, c) for a, b, c in row]
    return out


def hurwitz(D: int) -> Fraction:
    """Hurwitz class number H(D), with H(0) = -1/12: the sum of 1/w over
    the reduced forms, w the stabilizer order.  It runs over the triples of
    _reduced_triples, counts each mirror twice and builds no form."""
    if D < 0:
        raise ValueError("D must be >= 0")
    if D == 0:
        return Fraction(-1, 12)
    # each form counts 1/w: 1/3, 1/2 or 1, in sixths
    return Fraction(sum(6 // _weight(a, b, c) * (2 if _has_mirror(a, b, c) else 1)
                        for a, b, c in _reduced_triples(D)), 6)


def hurwitz_table(Dmax: int):
    """H(D) for all 0 <= D <= Dmax by a single sweep over reduced triples.

    Independent of _reduced_triples' per-D divisor scan, which makes it a
    useful cross-check as well as the fast batch path.  Every reduced form
    has D = 4ac - b^2 >= 3a^2, so a <= sqrt(Dmax/3).  The sweep counts
    6 H(D) in integers and makes each Fraction once.
    """
    sixths = {D: 0 for D in range(1, Dmax + 1) if D % 4 in (0, 3)}
    for a in range(1, isqrt(Dmax // 3) + 1):
        for b in range(0, a + 1):
            c = a
            while True:
                D = 4 * a * c - b * b
                if D > Dmax:
                    break
                if a == b == c:
                    sixths[D] += 2
                elif b == 0 and a == c:
                    sixths[D] += 3
                elif 0 < b < a < c:
                    sixths[D] += 12  # the b<0 mirror is also reduced
                else:
                    sixths[D] += 6
                c += 1
    return {0: Fraction(-1, 12)} | {D: Fraction(s, 6) for D, s in sixths.items()}


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
    s %= p
    return (r * pow(s, -1, p) % p, 1) if s else (1, 0)


def _label_orbit(label, sig, p: int):
    """The orbit of a label under right multiplication of bottom rows by
    <sig>, the stabilizer generator of a reduced form (None: trivial)."""
    orbit = [label]
    while sig is not None:
        r, s = orbit[-1]
        nxt = _normalize_label(r * sig[0][0] + s * sig[1][0], r * sig[0][1] + s * sig[1][1], p)
        if nxt == label:
            break
        orbit.append(nxt)
    return orbit


def gamma0_class(Q: QuadForm, p: int):
    """(R, l): the reduced form R of Q and a label l that together name
    Q's Gamma_0(p)-class, for p = 1 or prime.

    Q = h.R for h = g^{-1}, where g.Q = R; the label is the least point of
    the <sigma_R>-orbit of h's bottom row in P^1(F_p).  It is a class
    invariant: Gamma_0(p) on the left keeps that row mod p up to a scalar,
    and Stab(R) on the right moves it along the orbit.
    """
    R, g = reduce_with_transform(Q)
    label = _normalize_label(-g[1][0], g[0][0], p)
    return R, min(_label_orbit(label, _stab_generator(R), p))


def level_p_orbits(D: int, p: int):
    """Representatives of forms with p | a under the Fricke extension
    Gamma_0(p)* of Gamma_0(p), with stabilizer orders in that group.  Each
    representative is the least form [a, b, c] of its Gamma_0(p)*-orbit in
    (a, b) order, b in (-a, a], and the list ascends in that order.

    Structure: within one SL2(Z)-class with reduced representative R, the
    Gamma_0(p)-classes of p|a forms correspond to orbits of the stabilizer
    <sigma_R> acting on the labels {(r,s) in P^1(F_p) : R(s,-r) = 0 mod p}
    (the label of g is its bottom row; a_{g.R} = R(s,-r)), with stabilizer
    order w / (orbit length).  One ascending scan over a = p, 2p, ... gives
    each class its least form.  The Fricke involution then pairs or fixes
    classes: a pair keeps its lesser form, a fixed class doubles its
    stabilizer.
    """
    if p < 2 or any(p % q == 0 for q in range(2, isqrt(p) + 1)):
        raise ValueError("p must be prime")
    if D <= 0 or D % 4 in (1, 2):
        return []

    stab = {}  # gamma0_class key -> stabilizer order in Gamma_0(p)
    for R in enumerate_reduced(D):
        w = stabilizer_order(R)
        sig = _stab_generator(R)
        for lab in _proj_labels(p):
            if R(lab[1], -lab[0]) % p == 0:
                orbit = _label_orbit(lab, sig, p)
                stab[R, min(orbit)] = w // len(orbit)

    least = {}  # the same keys, in ascending order of their least forms
    a = p
    while len(least) < len(stab):
        for b in range(-a + 1, a + 1):
            if (b * b + D) % (4 * a) == 0:
                Q = QuadForm(a, b, (b * b + D) // (4 * a))
                least.setdefault(gamma0_class(Q, p), Q)
        a += p

    reps = []
    folded = set()
    for key, Q in least.items():
        if key in folded:
            continue
        partner = gamma0_class(fricke_image(Q, p), p)
        folded.update((key, partner))
        s = stab[key] * (2 if partner == key else 1)
        if s not in (1, 2, 3, 4, 6):
            raise AssertionError(f"stabilizer order {s} outside {{1,2,3,4,6}}")
        reps.append(OrbitRep(Q, s))
    return reps
