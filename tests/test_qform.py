"""Forms, reduction, class numbers, level-p orbits.

Oracle for equivalence questions: brute-force BFS over words in S, T
(entries capped), independent of the reduction code under test.
"""

import hashlib
import signal
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmtrace.analytic import duke_statistic, trace
from cmtrace.qform import (
    QuadForm,
    enumerate_reduced,
    fricke_image,
    hurwitz,
    hurwitz_table,
    is_fundamental,
    level_p_orbits,
    reduce,
    reduce_with_transform,
    stabilizer_order,
)
from cmtrace.series import QSeries
from references import apply_gl2, enumerate_reduced_scan, is_gamma0_equivalent, transporter

S = ((0, -1), (1, 0))
T = ((1, 1), (0, 1))
Tinv = ((1, -1), (0, 1))


def _bfs_orbit(Q: QuadForm, cap: int = 12, max_nodes: int = 20000):
    """All forms equivalent to Q with coefficients bounded by cap (BFS)."""
    seen = {(Q.a, Q.b, Q.c)}
    frontier = [Q]
    while frontier and len(seen) < max_nodes:
        nxt = []
        for F in frontier:
            for g in (S, T, Tinv):
                G = apply_gl2(g, F)
                key = (G.a, G.b, G.c)
                if key not in seen and max(abs(G.a), abs(G.b), abs(G.c)) <= cap:
                    seen.add(key)
                    nxt.append(G)
        frontier = nxt
    return seen


# ---------------------------------------------------------------------------
# reduction

def test_reduce_anchors():
    assert reduce(QuadForm(1, 5, 7)) == QuadForm(1, 1, 1)
    assert reduce(QuadForm(6, 1, 1)) == QuadForm(1, 1, 6)
    assert reduce(QuadForm(2, -2, 1)) == QuadForm(1, 0, 1)
    assert reduce(QuadForm(1, 1, 1)) == QuadForm(1, 1, 1)


def test_reduce_boundary_sign():
    # |b| = a and a = c ties resolve to b >= 0
    assert reduce(QuadForm(2, -2, 3)) == QuadForm(2, 2, 3)
    assert reduce(QuadForm(3, -2, 3)) == QuadForm(3, 2, 3)


def test_reduce_matches_bfs_oracle():
    # the reduced form is the unique reduced member of the BFS orbit
    for Q in [QuadForm(1, 5, 7), QuadForm(6, 1, 1), QuadForm(4, 3, 5), QuadForm(3, -1, 5)]:
        orbit = _bfs_orbit(Q)
        reduced_in_orbit = {t for t in orbit if QuadForm(*t).is_reduced()}
        assert reduced_in_orbit == {(reduce(Q).a, reduce(Q).b, reduce(Q).c)}


def test_reduce_with_transform_exact():
    for triple in [(6, 1, 1), (1, 5, 7), (3, -7, 5), (11, 29, 23), (5, 5, 5)]:
        Q = QuadForm(*triple)
        R, g = reduce_with_transform(Q)
        assert R.is_reduced()
        assert apply_gl2(g, Q) == R


@settings(max_examples=300, deadline=None)
@given(
    a=st.integers(1, 40),
    b=st.integers(-80, 80),
    c=st.integers(1, 60),
    n1=st.integers(-4, 4),
    n2=st.integers(-4, 4),
)
def test_reduce_is_class_invariant(a, b, c, n1, n2):
    if b * b - 4 * a * c >= 0:
        return
    Q = QuadForm(a, b, c)
    twisted = apply_gl2(((1, n1), (0, 1)), apply_gl2(((1, 0), (n2, 1)), Q))
    assert reduce(twisted) == reduce(Q)
    assert twisted.disc == Q.disc


def test_apply_gl2_det_check():
    with pytest.raises(ValueError):
        apply_gl2(((1, 1), (1, 1)), QuadForm(1, 0, 1))


def test_not_positive_definite_rejected():
    with pytest.raises(ValueError):
        QuadForm(1, 5, 2)
    with pytest.raises(ValueError):
        QuadForm(-1, 0, -1)


# ---------------------------------------------------------------------------
# enumeration / class numbers

def test_enumerate_reduced_anchors():
    assert enumerate_reduced(3) == [QuadForm(1, 1, 1)]
    assert enumerate_reduced(4) == [QuadForm(1, 0, 1)]
    assert enumerate_reduced(23) == [QuadForm(1, 1, 6), QuadForm(2, -1, 3), QuadForm(2, 1, 3)]
    assert enumerate_reduced(5) == []  # -5 is not a discriminant
    assert enumerate_reduced(1) == []
    assert enumerate_reduced(-4) == []


def test_enumerate_reduced_all_reduced_and_complete():
    for D in range(3, 120):
        if D % 4 in (1, 2):
            continue
        forms = enumerate_reduced(D)
        assert forms == sorted(forms, key=lambda f: (f.a, f.b, f.c))
        for f in forms:
            assert f.is_reduced() and f.D == D
        # completeness vs a dumb scan
        dumb = [
            (a, b, c)
            for a in range(1, D)
            for b in range(-a, a + 1)
            for c in range(a, D)
            if b * b - 4 * a * c == -D and QuadForm(a, b, c).is_reduced()
        ]
        assert sorted(dumb) == [(f.a, f.b, f.c) for f in forms]


def _check_against_scan(D):
    scan = enumerate_reduced_scan(D)
    assert enumerate_reduced(D) == scan, D
    assert hurwitz(D) == sum((Fraction(1, stabilizer_order(f)) for f in scan), Fraction(0)), D


def test_enumeration_and_hurwitz_match_scan():
    for D in range(1, 3001):
        _check_against_scan(D)


@settings(max_examples=100, deadline=None)
@given(D=st.integers(1, 200_000))
def test_enumeration_and_hurwitz_match_scan_large(D):
    _check_against_scan(D)


def test_hurwitz_anchors():
    assert hurwitz(0) == Fraction(-1, 12)
    assert hurwitz(3) == Fraction(1, 3)
    assert hurwitz(4) == Fraction(1, 2)
    assert hurwitz(7) == 1
    assert hurwitz(8) == 1
    assert hurwitz(11) == 1
    assert hurwitz(12) == Fraction(4, 3)
    assert hurwitz(15) == 2
    assert hurwitz(16) == Fraction(3, 2)
    assert hurwitz(19) == 1
    assert hurwitz(20) == 2
    assert hurwitz(23) == 3
    assert hurwitz(5) == 0


def test_hurwitz_table_matches_pointwise():
    t = hurwitz_table(400)
    for D in range(0, 401):
        if D == 0 or D % 4 in (0, 3):
            assert t[D] == hurwitz(D), D
        else:
            assert D not in t


def test_stabilizers():
    assert stabilizer_order(QuadForm(1, 1, 1)) == 3
    assert stabilizer_order(QuadForm(1, 0, 1)) == 2
    assert stabilizer_order(QuadForm(1, 1, 6)) == 1
    assert stabilizer_order(QuadForm(2, 2, 2)) == 3  # non-primitive elliptic
    assert stabilizer_order(QuadForm(1, 5, 7)) == 3  # via reduction


def test_is_fundamental():
    assert is_fundamental(3) and is_fundamental(4) and is_fundamental(7)
    assert is_fundamental(8) and is_fundamental(11) and is_fundamental(20)
    assert not is_fundamental(12) and not is_fundamental(16)
    assert not is_fundamental(27) and not is_fundamental(28)
    assert not is_fundamental(9)


# the forms and H(D) of every D <= 10^4, then the value and bound of the
# float Duke statistic of every discriminant in 3..4000, as recorded
# before forms were enumerated as integer triples
_SWEEP_SHA256 = "32d6704d6f0a2fab5fd553d5baf86229680d019dd945a47eb2a246c135e791a0"


def test_sweep_bytes_pinned():
    h = hashlib.sha256()
    for D in range(0, 10_001):
        h.update(repr([(f.a, f.b, f.c) for f in enumerate_reduced(D)]).encode())
        h.update(str(hurwitz(D)).encode())
    for D in range(3, 4001):
        if D % 4 in (0, 3):
            r = duke_statistic(D)
            h.update(repr((repr(float(r.value)), repr(r.error_bound))).encode())
    assert h.hexdigest() == _SWEEP_SHA256


# ---------------------------------------------------------------------------
# transporter / Gamma_0(p) equivalence

def test_transporter_exactness():
    Q1, Q2 = QuadForm(1, 5, 7), QuadForm(1, 1, 1)
    ts = transporter(Q1, Q2)
    assert len(ts) == 3  # coset of the order-3 stabilizer
    for g in ts:
        assert apply_gl2(g, Q1) == Q2
    assert transporter(QuadForm(1, 0, 1), QuadForm(1, 1, 1)) == []


def test_gamma0_equivalence_vs_bfs():
    # [2,1,3] and [2,-1,3] are SL2-inequivalent already; [6,1,1] ~ [1,1,6]
    # in SL2 but the transporters have lower-left != 0 mod 2
    assert is_gamma0_equivalent(QuadForm(6, 1, 1), QuadForm(6, 1, 1), 2)
    assert not is_gamma0_equivalent(QuadForm(2, 1, 3), QuadForm(2, -1, 3), 2)
    # Gamma_0(1) equivalence is plain SL2 equivalence
    assert is_gamma0_equivalent(QuadForm(1, 5, 7), QuadForm(1, 1, 1), 1)


@settings(max_examples=300, deadline=None)
@given(
    a=st.integers(1, 30),
    b=st.integers(-60, 60),
    c=st.integers(1, 40),
    n=st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)),
    p=st.sampled_from([1, 2, 3, 5, 7]),
)
def test_gamma0_class_matches_transporter(a, b, c, n, p):
    # the class key against the reference: some matrix carrying Q1 to Q2
    # lies in Gamma_0(p)
    if b * b - 4 * a * c >= 0:
        return
    Q1 = QuadForm(a, b, c)
    Q2 = apply_gl2(((1, n[2]), (0, 1)), apply_gl2(((1, 0), (n[1], 1)), apply_gl2(((1, n[0]), (0, 1)), Q1)))
    want = any(g[1][0] % p == 0 for g in transporter(Q1, Q2))
    assert is_gamma0_equivalent(Q1, Q2, p) == want


# ---------------------------------------------------------------------------
# level-p orbits

def _gamma0_star_equivalent(Q1, Q2, p):
    # reference: a transporter into Gamma_0(p), to Q2 or its Fricke image
    return any(g[1][0] % p == 0 for W in (Q2, fricke_image(Q2, p)) for g in transporter(Q1, W))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_level_p_reps_are_least_forms(p):
    # no form [a, b, c] with p | a and b in (-a, a] that comes before a
    # representative in (a, b) order lies in its Gamma_0(p)*-orbit
    for D in range(3, 400):
        for o in level_p_orbits(D, p):
            R = o.form
            assert -R.a < R.b <= R.a
            for a in range(p, R.a + 1, p):
                for b in range(-a + 1, a + 1 if a < R.a else R.b):
                    if (b * b + D) % (4 * a) == 0:
                        F = QuadForm(a, b, (b * b + D) // (4 * a))
                        assert not _gamma0_star_equivalent(F, R, p), (D, F, R)


def test_level_one_orbits_are_reduced_forms():
    # a level-one trace sums over the reduced forms, each weighted by
    # 1/|stabilizer|, so the constant 1 traces to H(D)
    one = QSeries.exact({0: 1})
    for D in (3, 4, 23, 47):
        e = trace(one, D)
        assert e.class_count == len(enumerate_reduced(D))
        assert e.certified and e.value_rounded == hurwitz(D)


def test_level_two_disc_four():
    # single class, Fricke-fixed, stabilizer order 4
    orbs = level_p_orbits(4, 2)
    assert len(orbs) == 1
    o = orbs[0]
    assert o.form.a % 2 == 0 and o.form.D == 4
    assert o.stabilizer_order == 4
    W = fricke_image(o.form, 2)
    assert is_gamma0_equivalent(W, o.form, 2)


def test_level_two_disc_23():
    # 2 splits in Q(sqrt(-23)): six Gamma_0(2)-classes fold to three
    orbs = level_p_orbits(23, 2)
    assert len(orbs) == 3
    assert all(o.stabilizer_order == 1 for o in orbs)
    assert all(o.form.a % 2 == 0 and o.form.D == 23 for o in orbs)
    # reps pairwise inequivalent in the Fricke-extended group
    for i in range(3):
        for j in range(i + 1, 3):
            Qi, Qj = orbs[i].form, orbs[j].form
            assert not is_gamma0_equivalent(Qi, Qj, 2)
            assert not is_gamma0_equivalent(fricke_image(Qi, 2), Qj, 2)


def test_level_p_mass_matches_label_count():
    # sum of 1/stab over Gamma_0(p)-classes (before Fricke) must equal
    # sum over SL2 classes of #labels / w; Fricke folding halves it
    for D, p in [(3, 2), (4, 2), (23, 2), (4, 3), (7, 3), (11, 5), (12, 2)]:
        total_labels = Fraction(0)
        for R in enumerate_reduced(D):
            w = stabilizer_order(R)
            labels = [
                (r, s)
                for (r, s) in [(k, 1) for k in range(p)] + [(1, 0)]
                if (R.a * s * s - R.b * s * r + R.c * r * r) % p == 0
            ]
            total_labels += Fraction(len(labels), w)
        orbs = level_p_orbits(D, p)
        mass = sum(Fraction(1, o.stabilizer_order) for o in orbs)
        assert mass == total_labels / 2, (D, p)


def test_level_p_reps_have_p_dividing_a():
    for D, p in [(3, 2), (4, 2), (23, 2), (3, 3), (8, 2), (20, 2)]:
        for o in level_p_orbits(D, p):
            assert o.form.a % p == 0
            assert o.form.D == D
            assert o.stabilizer_order in (1, 2, 3, 4, 6)


def test_level_p_scan_is_bounded(monkeypatch):
    # a non-reduced form from the enumeration names a class that no least
    # form can fill; the least-form scan must stop at its bound and raise,
    # not run forever (the alarm turns a hang into a failure)
    import cmtrace.qform as qf

    def with_stray_form(D):
        return enumerate_reduced(D) + [QuadForm(1, -1, 4)]

    def hung(signum, frame):
        raise TimeoutError

    monkeypatch.setattr(qf, "enumerate_reduced", with_stray_form)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(20)
    try:
        level_p_orbits(15, 2)
        outcome = "returned"
    except AssertionError as exc:
        outcome = str(exc)
    except TimeoutError:
        outcome = "hung"
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert "no form" in outcome, outcome


def test_fricke_image_involution():
    Q = QuadForm(6, 1, 1)
    W = fricke_image(Q, 2)
    assert W.disc == Q.disc
    assert fricke_image(W, 2) == Q
    with pytest.raises(ValueError):
        fricke_image(QuadForm(1, 1, 6), 2)


def test_level_p_rejects_composite():
    with pytest.raises(ValueError):
        level_p_orbits(23, 6)
    with pytest.raises(ValueError):
        level_p_orbits(23, 1)  # level one is the plain reduced-form sum


# ---------------------------------------------------------------------------
# CM points alpha_Q as mpc numbers carrying prec + 32 bits, the reference
# points at which the evaluation tests compare against mpmath


def _alpha_of(form, prec):
    with mp.workprec(prec + 32):
        return mp.mpc(-form.b, mp.sqrt(form.D)) / (2 * form.a)


def test_cm_point_values():
    z = _alpha_of(QuadForm(1, 1, 1), 80)  # carries 80 + 32 bits
    with mp.workprec(160):
        assert abs(z - mp.mpc(-0.5, mp.sqrt(3) / 2)) < 2.0 ** -100
    assert abs(complex(_alpha_of(QuadForm(1, 0, 1), 64)) - 1j) < 1e-15


@settings(max_examples=150, deadline=None)
@given(a=st.integers(1, 30), b=st.integers(-60, 60), c=st.integers(1, 40))
def test_cm_point_satisfies_form_equation(a, b, c):
    # a*alpha^2 + b*alpha + c = 0
    if b * b - 4 * a * c >= 0:
        return
    z = _alpha_of(QuadForm(a, b, c), 64)
    assert abs(a * z * z + b * z + c) < 1e-12
