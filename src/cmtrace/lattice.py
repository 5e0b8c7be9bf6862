"""The signature (1,2) quadratic space of trace-zero 2x2 matrices, its
even lattices, the Kudla-Millson kernel scalar, and Weil representation
matrices on the discriminant group.

Vectors are stored as coordinate triples (x1, x2, x3) for
X = [[x1, x2], [x3, -x1]], with q(X) = det X = -x1^2 - x2*x3 and
(X, Y) = -tr(XY).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
import numpy as np

from .hp import HP, _ulp


@dataclass(frozen=True)
class LatticeVector:
    x1: object
    x2: object
    x3: object

    def q(self):
        return -self.x1 * self.x1 - self.x2 * self.x3

    def norm(self):  # (X, X) = 2 q(X)
        return 2 * self.q()

    def __neg__(self):
        return LatticeVector(-self.x1, -self.x2, -self.x3)

    def as_matrix(self):
        return ((self.x1, self.x2), (self.x3, -self.x1))


def pair(X: LatticeVector, Y: LatticeVector):
    """(X, Y) = -tr(XY)."""
    return -2 * X.x1 * Y.x1 - X.x2 * Y.x3 - X.x3 * Y.x2


@dataclass(frozen=True)
class LatticeSpec:
    """An even lattice in V given by coordinate sublattices
    x1 in s1*Z, x2 in s2*Z, x3 in s3*Z, plus its dual-coset data."""

    name: str
    p: int
    steps: tuple  # (s1, s2, s3)

    @classmethod
    def level4(cls) -> "LatticeSpec":
        # integer b, c, a in [[b, c], [a, -b]]
        return cls("level4", 1, (1, 1, 1))

    @classmethod
    def level4p(cls, p: int) -> "LatticeSpec":
        # [[b, 2c], [2ap, -b]]
        if p < 2:
            raise ValueError("p >= 2")
        return cls("level4p", p, (1, 2, 2 * p))

    def member(self, X: LatticeVector) -> bool:
        for x, s in zip((X.x1, X.x2, X.x3), self.steps):
            f = Fraction(x)
            if f.denominator != 1 or f.numerator % s:
                return False
        return True

    def dual_steps(self) -> tuple:
        # (Y, e_i) in Z for the three basis vectors forces: x1 in (1/2)Z,
        # x2 in (1/s3)Z, x3 in (1/s2)Z
        return (Fraction(1, 2), Fraction(1, self.steps[2]), Fraction(1, self.steps[1]))

    def cosets(self) -> list:
        d = self.dual_steps()
        out = []
        n1 = int(self.steps[0] / d[0])
        n2 = int(self.steps[1] / d[1])
        n3 = int(self.steps[2] / d[2])
        for i in range(n1):
            for j in range(n2):
                for k in range(n3):
                    out.append(LatticeVector(i * d[0], j * d[1], k * d[2]))
        return out

    def gram_det(self) -> int:
        s1, s2, s3 = self.steps
        # Gram of (s1 e1, s2 e2, s3 e3): det = 2 (s2 s3)^2 ... sign dropped
        return 2 * (s2 * s3) ** 2 * s1 * s1


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
# discriminant groups and the Weil representation

@dataclass(frozen=True)
class DiscForm:
    elements: tuple          # coset representatives as (x1, x2, x3) Fractions
    qvals: dict              # element -> q mod 1 (Fraction in [0,1))
    pairing: dict            # (element, element) -> pairing mod 1
    signature_mod8: int

    def validate(self):
        for h in self.elements:
            for k in self.elements:
                if self.pairing[(h, k)] != self.pairing[(k, h)]:
                    raise ValueError("pairing not symmetric")
                # q(h+k) - q(h) - q(k) = (h,k) mod 1
                hk = tuple(a + b for a, b in zip(h, k))
                qhk = _qmod1(hk)
                if (qhk - self.qvals[h] - self.qvals[k]) % 1 != self.pairing[(h, k)]:
                    raise ValueError("pairing inconsistent with q")
        return True


def _qmod1(t) -> Fraction:
    return (-Fraction(t[0]) ** 2 - Fraction(t[1]) * Fraction(t[2])) % 1


def _pairmod1(h, k) -> Fraction:
    return (-2 * Fraction(h[0]) * Fraction(k[0]) - Fraction(h[1]) * Fraction(k[2])
            - Fraction(h[2]) * Fraction(k[1])) % 1


def disc_form_of(spec: LatticeSpec) -> DiscForm:
    els = tuple((Fraction(h.x1), Fraction(h.x2), Fraction(h.x3)) for h in spec.cosets())
    qv = {h: _qmod1(h) for h in els}
    pr = {(h, k): _pairmod1(h, k) for h in els for k in els}
    d = DiscForm(els, qv, pr, signature_mod8=(-1) % 8)
    d.validate()
    return d


@dataclass(frozen=True)
class WeilRepMatrices:
    elements: tuple
    T: np.ndarray
    S: np.ndarray


def _e(x: Fraction) -> complex:
    return cmath.exp(2j * math.pi * float(x))


def weil_rep(d: DiscForm) -> WeilRepMatrices:
    """rho(T) e_h = e(q(h)) e_h and
    rho(S) e_h = (e(1/8)/sqrt(n)) sum_h' e(-(h,h')) e_h'."""
    d.validate()
    n = len(d.elements)
    T = np.diag([_e(d.qvals[h]) for h in d.elements]).astype(complex)
    S = np.zeros((n, n), dtype=complex)
    root_i = cmath.exp(1j * math.pi / 4)
    for a, h in enumerate(d.elements):
        for b, hp_ in enumerate(d.elements):
            S[b, a] = root_i / math.sqrt(n) * _e(-d.pairing[(h, hp_)])
    return WeilRepMatrices(d.elements, T, S)


def negation_permutation(d: DiscForm) -> np.ndarray:
    """Matrix of e_h -> e_{-h} on the discriminant group."""
    n = len(d.elements)
    idx = {h: i for i, h in enumerate(d.elements)}
    P = np.zeros((n, n))
    for i, h in enumerate(d.elements):
        neg = tuple((-x) % s for x, s in zip(h, _coset_moduli(d)))
        P[idx[neg], i] = 1.0
    return P


def _coset_moduli(d: DiscForm):
    # modulus per coordinate: smallest lattice step in that coordinate,
    # recovered from the element list (max denominator trick not needed:
    # steps are the per-coordinate ranges spanned by the representatives)
    cols = list(zip(*d.elements))
    return tuple(max(c) + min(x for x in c if x > 0) if any(c) else Fraction(1) for c in cols)
