"""Lattice model of the trace-zero quadratic space, discriminant forms,
and the Weil representation matrices."""

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from cmtrace.lattice import LatticeSpec, LatticeVector, pair, weil_rep
from cmtrace.qform import QuadForm, enumerate_reduced
from references import gram_det, km_value, lattice_member, majorant, pair_with_xz, x_of_z

TOL40 = 2.0 ** -40


def _vector_of_form(Q: QuadForm) -> LatticeVector:
    # X_Q = [[-b/2, -c], [a, b/2]]: q(X_Q) = D/4, and X_Q spans the
    # negative line of the CM point alpha_Q
    return LatticeVector(Fraction(-Q.b, 2), Fraction(-Q.c), Fraction(Q.a))


def _rand_z(rng):
    return complex(rng.uniform(-1.5, 1.5), rng.uniform(0.4, 3.0))


def _conj_action(g, X: LatticeVector) -> LatticeVector:
    # g X g^{-1} on [[x1, x2], [x3, -x1]] coordinates, det g = 1
    a, b = g[0]
    c, d = g[1]
    x1, x2, x3 = X.x1, X.x2, X.x3
    m = ((a * x1 + b * x3, a * x2 - b * x1), (c * x1 + d * x3, c * x2 - d * x1))
    n = ((m[0][0] * d - m[0][1] * c, -m[0][0] * b + m[0][1] * a),
         (m[1][0] * d - m[1][1] * c, -m[1][0] * b + m[1][1] * a))
    return LatticeVector(n[0][0], n[0][1], n[1][0])


class TestVectors:
    def test_q_and_pairing(self):
        X = LatticeVector(1, -3, 2)
        assert X.q() == -1 + 6
        Y = LatticeVector(0, 1, 1)
        # (X, Y) = -tr(XY), checked against the matrix product
        xm, ym = (((V.x1, V.x2), (V.x3, -V.x1)) for V in (X, Y))
        tr = sum(xm[i][k] * ym[k][i] for i in range(2) for k in range(2))
        assert pair(X, Y) == -tr
        assert pair(X, X) == 2 * X.q()

    def test_x_of_z_has_norm_one(self):
        rng = random.Random(7)
        for _ in range(100):
            z = _rand_z(rng)
            assert abs(x_of_z(z).q() - 1.0) < TOL40

    def test_x_of_z_equivariance(self):
        # g.X(z) = X(gz) for the generators of the modular group
        rng = random.Random(11)
        T = ((1, 1), (0, 1))
        S = ((0, -1), (1, 0))
        for _ in range(20):
            z = _rand_z(rng)
            for g, gz in ((T, z + 1), (S, -1 / z)):
                want = x_of_z(gz)
                got = _conj_action(g, x_of_z(z))
                for a, b in zip((got.x1, got.x2, got.x3), (want.x1, want.x2, want.x3)):
                    assert abs(a - b) < 1e-10

    def test_x_of_z_rejects_lower_half_plane(self):
        with pytest.raises(ValueError):
            x_of_z(1 - 2j)

    def test_vector_of_form(self):
        X = _vector_of_form(QuadForm(1, 0, 1))
        assert (X.x1, X.x2, X.x3) == (0, -1, 1)
        assert X.q() == 1  # D/4 for D = 4

    def test_form_vector_meets_its_cm_point(self):
        # (X_Q, X(alpha_Q)) = -sqrt(D)
        for D in (3, 4, 7, 23):
            for Q in enumerate_reduced(D):
                alpha = complex(-Q.b, math.sqrt(D)) / (2 * Q.a)
                s = pair_with_xz(_vector_of_form(Q), alpha)
                assert abs(s + math.sqrt(D)) < 1e-9

    def test_form_vector_coset_tracks_middle_coefficient(self):
        for D in (3, 4, 8, 11, 12):
            for Q in enumerate_reduced(D):
                got = Fraction(_vector_of_form(Q).q()) % 1
                assert got == (Fraction(3, 4) if D % 4 == 3 else 0)

    def test_majorant_positive(self):
        rng = random.Random(3)
        for _ in range(1000):
            X = LatticeVector(rng.randint(-6, 6), rng.randint(-6, 6), rng.randint(-6, 6))
            z = _rand_z(rng)
            m = float(majorant(X, z).value)
            if (X.x1, X.x2, X.x3) == (0, 0, 0):
                assert abs(m) < 1e-12
            else:
                assert m > 1e-6

    def test_majorant_gram_determinant_is_two(self):
        from cmtrace.thetalift import _majorant_gram

        rng = random.Random(5)
        for _ in range(25):
            z = _rand_z(rng)
            B = _majorant_gram(z.real, z.imag, (1, 1, 1))
            assert abs(np.linalg.det(B) - 2.0) < 1e-9


class TestKernelScalar:
    def test_zero_vector(self):
        v = km_value(LatticeVector(0, 0, 0), 0.7 + 1.3j, 0.2 + 0.9j)
        assert abs(complex(v.value) + 1 / (2 * math.pi)) < TOL40

    def test_on_the_special_line_at_i(self):
        z = 0.37 + 1.21j
        v = km_value(x_of_z(z), 1j, z)
        want = (4 - 1 / (2 * math.pi)) * math.exp(-2 * math.pi)
        assert abs(complex(v.value) - want) < TOL40

    def test_modulus_identity(self):
        rng = random.Random(19)
        for _ in range(30):
            X = LatticeVector(rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3))
            z = _rand_z(rng)
            u, v = rng.uniform(-1, 1), rng.uniform(0.3, 2.0)
            s = pair_with_xz(X, z)
            lhs = abs(complex(km_value(X, u + 1j * v, z).value))
            rhs = abs(v * s * s - 1 / (2 * math.pi)) * math.exp(
                -math.pi * v * float(majorant(X, z).value))
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-300)

    def test_phase_is_e_of_qu(self):
        X = LatticeVector(1, 1, -2)
        z = 0.4 + 1.3j
        a = complex(km_value(X, 0.35 + 0.9j, z).value)
        b = complex(km_value(X, 0.9j, z).value)
        assert abs(a / b - cmath.exp(2j * math.pi * X.q() * 0.35)) < 1e-12

    def test_negation_invariance(self):
        X = LatticeVector(Fraction(1, 2), 2, -1)
        z, tau = 0.2 + 1.1j, 0.3 + 0.8j
        minus_X = LatticeVector(-X.x1, -X.x2, -X.x3)
        assert complex(km_value(X, tau, z).value) == pytest.approx(
            complex(km_value(minus_X, tau, z).value), rel=1e-13)

    def test_domain_checks(self):
        X = LatticeVector(0, 0, 0)
        with pytest.raises(ValueError):
            km_value(X, 1.0 - 1j, 1j)
        with pytest.raises(ValueError):
            km_value(X, 1j, 1.0)


class TestLatticeSpecs:
    def test_level4_membership(self):
        spec = LatticeSpec.level4()
        assert lattice_member(spec, LatticeVector(3, -1, 5))
        assert not lattice_member(spec, LatticeVector(Fraction(1, 2), 0, 0))

    def test_level4p_membership(self):
        spec = LatticeSpec.level4p(2)
        assert lattice_member(spec, LatticeVector(1, 2, 4))
        assert not lattice_member(spec, LatticeVector(1, 1, 0))
        assert not lattice_member(spec, LatticeVector(0, 2, 2))
        with pytest.raises(ValueError):
            LatticeSpec.level4p(1)

    def test_coset_counts_match_gram_determinant(self):
        for spec, p in ((LatticeSpec.level4(), 1), (LatticeSpec.level4p(2), 2),
                        (LatticeSpec.level4p(3), 3)):
            assert len(spec.cosets()) == gram_det(spec)
            assert gram_det(spec) == (2 if p == 1 else 32 * p ** 2)


def _assert_pairing_polarizes_q(spec):
    # weil_rep reads q and (,) mod 1 on the cosets: (h, k) is symmetric and
    # equals q(h + k) - q(h) - q(k)
    cs = spec.cosets()
    for h in cs:
        for k in cs:
            hk = LatticeVector(h.x1 + k.x1, h.x2 + k.x2, h.x3 + k.x3)
            assert pair(h, k) == pair(k, h) == hk.q() - h.q() - k.q()


class TestDiscForms:
    def test_level4_disc_form(self):
        spec = LatticeSpec.level4()
        T, _, _ = weil_rep(spec)
        assert T.shape == (2, 2)
        assert [h.q() % 1 for h in spec.cosets()] == [0, Fraction(3, 4)]
        _assert_pairing_polarizes_q(spec)

    def test_level4p_disc_form(self):
        spec = LatticeSpec.level4p(2)
        T, S, P = weil_rep(spec)
        assert T.shape == S.shape == P.shape == (128, 128)
        _assert_pairing_polarizes_q(spec)

    def test_milgram(self):
        # sum of e(q(h)) = sqrt(|disc|) e(signature / 8), signature -1 = 7 mod 8
        for spec in (LatticeSpec.level4(), LatticeSpec.level4p(2)):
            T, _, _ = weil_rep(spec)
            n = len(T)
            want = math.sqrt(n) * cmath.exp(2j * math.pi * 7 / 8)
            assert abs(np.trace(T) - want) < 1e-9 * n


class TestWeilRep:
    @pytest.mark.parametrize("spec", [LatticeSpec.level4(), LatticeSpec.level4p(2)],
                             ids=["level4", "level8"])
    def test_relations(self, spec):
        T, S, _ = weil_rep(spec)
        eye = np.eye(len(T))
        assert np.abs(T @ T.conj().T - eye).max() < TOL40
        assert np.abs(S @ S.conj().T - eye).max() < TOL40
        st = S @ T
        assert np.abs(st @ st @ st - S @ S).max() < TOL40

    @pytest.mark.parametrize("spec", [LatticeSpec.level4(), LatticeSpec.level4p(2)],
                             ids=["level4", "level8"])
    def test_s_squared_is_signature_phase_times_flip(self, spec):
        _, S, P = weil_rep(spec)
        assert np.abs(P @ P - np.eye(len(P))).max() == 0
        want = cmath.exp(-2j * math.pi * (-1) / 4) * P
        assert np.abs(S @ S - want).max() < TOL40

    def test_level4_matrices_explicit(self):
        T, S, _ = weil_rep(LatticeSpec.level4())
        assert np.abs(T - np.diag([1, -1j])).max() < 1e-15
        root_i = cmath.exp(1j * math.pi / 4)
        want = root_i / math.sqrt(2) * np.array([[1, 1], [1, -1]])
        assert np.abs(S - want).max() < 1e-15
