"""The signature (1,2) quadratic space of trace-zero 2x2 matrices, its
even lattices, and the Weil representation on the discriminant group.

Vectors are stored as coordinate triples (x1, x2, x3) for
X = [[x1, x2], [x3, -x1]], with q(X) = det X = -x1^2 - x2*x3 and
(X, Y) = -tr(XY).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


@dataclass(frozen=True)
class LatticeVector:
    x1: object
    x2: object
    x3: object

    def q(self):
        return -self.x1 * self.x1 - self.x2 * self.x3


def pair(X: LatticeVector, Y: LatticeVector):
    """(X, Y) = -tr(XY)."""
    return -2 * X.x1 * Y.x1 - X.x2 * Y.x3 - X.x3 * Y.x2


@dataclass(frozen=True)
class LatticeSpec:
    """An even lattice in V given by coordinate sublattices
    x1 in s1*Z, x2 in s2*Z, x3 in s3*Z, plus its dual-coset data."""

    steps: tuple  # (s1, s2, s3)

    @classmethod
    def level4(cls) -> "LatticeSpec":
        # integer b, c, a in [[b, c], [a, -b]]
        return cls((1, 1, 1))

    @classmethod
    def level4p(cls, p: int) -> "LatticeSpec":
        # [[b, 2c], [2ap, -b]]
        if p < 2:
            raise ValueError("p >= 2")
        return cls((1, 2, 2 * p))

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


def _e(x) -> complex:
    return cmath.exp(2j * math.pi * float(x))


def weil_rep(spec: LatticeSpec):
    """The Weil representation rho_L on C[L'/L], in the basis spec.cosets():
    (T, S, P) with

        rho(T) e_h = e(q(h)) e_h,
        rho(S) e_h = (e(1/8) / sqrt(n)) sum_h' e(-(h, h')) e_h',

    q and (,) taken mod 1, and P the permutation matrix of e_h -> e_{-h}."""
    cs = spec.cosets()
    n = len(cs)
    T = np.diag([_e(h.q() % 1) for h in cs])
    c = cmath.exp(1j * math.pi / 4) / math.sqrt(n)
    S = np.array([[c * _e(-(pair(h, k) % 1)) for k in cs] for h in cs])
    index = {h: i for i, h in enumerate(cs)}
    P = np.zeros((n, n))
    for i, h in enumerate(cs):
        neg = LatticeVector(*((-x) % s for x, s in zip((h.x1, h.x2, h.x3), spec.steps)))
        P[index[neg], i] = 1.0
    return T, S, P
