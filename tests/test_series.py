"""q-series engine: frozen expansions, exact identities, ring axioms."""

from fractions import Fraction as F
from math import gcd, inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmtrace.series import (
    QSeries,
    TruncationError,
    bigJ_series,
    delta_series,
    eisenstein,
    eta,
    faber,
    faber_poly,
    g_series,
    j_series,
    predicted_series,
    sigma1,
    t_series,
    theta_series,
)

# ---------------------------------------------------------------------------
# frozen expansions


def test_delta_frozen():
    d = delta_series(8)
    want = {1: 1, 2: -24, 3: 252, 4: -1472, 5: 4830, 6: -6048, 7: -16744}
    assert {int(x): int(c) for x, c in d.items()} == want


def test_eisenstein_frozen():
    e4 = eisenstein(4, 4)
    assert [e4.coeff(n) for n in range(4)] == [1, 240, 2160, 6720]
    e6 = eisenstein(6, 3)
    assert [e6.coeff(n) for n in range(3)] == [1, -504, -16632]
    with pytest.raises(ValueError):
        eisenstein(16, 4)


def test_j_frozen():
    j = j_series(4)
    assert j.coeff(-1) == 1
    assert j.coeff(0) == 744
    assert j.coeff(1) == 196884
    assert j.coeff(2) == 21493760
    assert j.coeff(3) == 864299970
    J = bigJ_series(2)
    assert J.coeff(0) == 0 and J.coeff(-1) == 1 and J.coeff(1) == 196884


def test_theta_cube_is_r3():
    th3 = theta_series(11) ** 3
    r3 = [1, 6, 12, 8, 6, 24, 24, 0, 12, 30, 24]
    assert [int(th3.coeff(n)) for n in range(11)] == r3


def test_g_frozen():
    g = g_series(9)
    want = {-1: -1, 0: 2, 3: -248, 4: 492, 7: -4119, 8: 7256}
    assert {int(x): int(c) for x, c in g.items()} == want


def test_g_plus_support():
    g = g_series(60)
    for n in range(1, 60):
        if n % 4 in (1, 2):
            assert g.coeff(n) == 0, n


def test_t_frozen():
    t = t_series(8)
    assert {int(x): int(c) for x, c in t.items()} == {
        -1: 1, 0: -8, 1: 20, 3: -62, 5: 216, 7: -641,
    }


def test_hauptmodul_shift_identity():
    # t + 16 = eta(2tau)^24 / (eta(tau)^8 eta(4tau)^16), exactly
    T = 40
    lhs = t_series(T) + 16
    rhs = eta(T + 2, scale=2) ** 24 / (eta(T + 2) ** 8 * eta(T + 2, scale=4) ** 16)
    assert lhs.eq_through(rhs.normalized(), T)


def test_discriminant_identity():
    # E4^3 - E6^2 = 1728 Delta
    T = 25
    lhs = eisenstein(4, T) ** 3 - eisenstein(6, T) ** 2
    assert lhs.eq_through(1728 * delta_series(T), T)


def test_one_dimensional_weight_identities():
    # products of E4, E6 match the Eisenstein expansion in each
    # one-dimensional weight
    T = 20
    assert (eisenstein(4, T) ** 2).eq_through(eisenstein(8, T), T)
    assert (eisenstein(4, T) * eisenstein(6, T)).eq_through(eisenstein(10, T), T)
    assert (eisenstein(4, T) ** 2 * eisenstein(6, T)).eq_through(eisenstein(14, T), T)


def test_faber_polynomials():
    assert faber_poly(1) == [-744, 1]
    assert faber_poly(2) == [159768, -1488, 1]
    f1 = faber(1, 5)
    assert f1.eq_through(bigJ_series(5), 5)
    for m in (2, 3, 4):
        fm = faber(m, 3)
        assert fm.coeff(-m) == 1
        for e in range(-m + 1, 1):
            assert fm.coeff(e) == 0, (m, e)
    # first positive coefficient of J_2 (classical value)
    assert faber(2, 2).coeff(1) == 42987520


# ---------------------------------------------------------------------------
# engine semantics


def test_truncation_guard():
    j = j_series(4)
    with pytest.raises(TruncationError):
        j.coeff(4)
    assert j.coeff(3) == 864299970
    with pytest.raises(TruncationError):
        j.eq_through(j, 10)


def test_off_grid_coefficient_is_zero():
    e = eta(3)
    assert e.coeff(F(1, 24)) == 1
    assert e.coeff(F(1, 48)) == 0
    assert e.coeff(F(1, 2)) == 0


def test_division_and_reciprocal():
    d = delta_series(12)
    r = d.reciprocal()
    assert (d * r).eq_through(QSeries.one(), 10)
    assert r.coeff(-1) == 1 and r.coeff(0) == 24  # 1/Delta = q^-1 + 24 + 324q...
    assert r.coeff(1) == 324


def test_exact_by_exact_division_needs_trunc():
    a = QSeries.exact({0: 1})
    with pytest.raises(TruncationError):
        a / QSeries.exact({0: 1, 1: 1})
    q = a.with_trunc(6) / QSeries.exact({0: 1, 1: 1})
    # geometric series
    assert [q.coeff(n) for n in range(5)] == [1, -1, 1, -1, 1]


def test_scale_q():
    e4 = eisenstein(4, 5).scale_q(4)
    assert e4.coeff(0) == 1 and e4.coeff(4) == 240 and e4.coeff(8) == 2160
    assert e4.coeff(1) == 0 and e4.coeff(2) == 0
    assert e4.truncation_order == 20


def test_json_roundtrip():
    for s in (eta(6), j_series(4), QSeries.exact({F(-1, 2): F(3, 7), 2: 5})):
        assert QSeries.loads(s.dumps()) == s


def test_eq_compares_every_known_coefficient():
    # both series are known below q^(5/2), so their q^2 coefficients (7 and
    # 9) are known and differ; equality must not round the truncation off
    a = QSeries({0: 1, 4: 7}, 5, 2)
    assert a != QSeries({0: 1, 4: 9}, 5, 2)
    assert QSeries({0: 1}, 5, 2) != QSeries({0: 1}, 4, 2)  # q^2 known in one only
    # the same series written on a finer grid is equal, with equal hash
    b = QSeries({0: 1, 12: 7}, 15, 6)
    assert a == b and hash(a) == hash(b)
    assert QSeries.exact({0: 1}) != QSeries.one().with_trunc(3)


@st.composite
def _rational_series(draw):
    """Rational coefficients on a gapped grid q^(step*k/denom) starting at a
    possibly negative valuation, with a finite or infinite truncation."""
    denom = draw(st.sampled_from([1, 2, 3, 4, 24]))
    step = draw(st.sampled_from([1, 2, 3, 5]))
    lo = draw(st.integers(-2 * denom, denom))
    coeffs = st.builds(F, st.integers(-9, 9), st.sampled_from([1, 1, 2, 3, 7]))
    terms = draw(st.dictionaries(st.integers(0, 6), coeffs, max_size=6))
    trunc = draw(st.one_of(st.none(), st.integers(1, 2 * denom)))
    trunc = inf if trunc is None else lo + 7 * step + trunc
    return QSeries({lo + step * k: c for k, c in terms.items()}, trunc, denom)


small_series = st.one_of(
    st.builds(
        lambda d: QSeries({n: F(c) for n, c in d.items()}, 12, 1),
        st.dictionaries(st.integers(-4, 11), st.integers(-9, 9), max_size=6),
    ),
    _rational_series(),
)


def _agree(x, y):
    """x and y agree wherever both are known."""
    bound = min(x.truncation_order, y.truncation_order)
    return x == y if bound is inf else x.eq_through(y, bound)


@settings(max_examples=200, deadline=None)
@given(a=small_series, b=small_series, c=small_series)
def test_ring_axioms(a, b, c):
    assert _agree((a + b) * c, a * c + b * c)
    assert _agree(a * b, b * a)


@settings(max_examples=100, deadline=None)
@given(a=small_series)
def test_mul_div_roundtrip(a):
    b = QSeries({-1: F(1), 0: F(5), 2: F(-3)}, 12, 1)
    q = (a * b) / b
    bound = min(q.truncation_order, F(12))
    assert q.eq_through(a.with_trunc(bound), bound)


@settings(max_examples=100, deadline=None)
@given(a=small_series, k=st.integers(1, 4))
def test_scale_q_is_multiplicative(a, k):
    b = QSeries({0: F(2), 1: F(1)}, 12, 1)
    lhs = (a * b).scale_q(k)
    rhs = a.scale_q(k) * b.scale_q(k)
    assert lhs.eq_through(rhs, min(lhs.truncation_order, rhs.truncation_order))


# naive dict-convolution reference for the integer kernels


def _naive_mul(x, y):
    L = x.denom * y.denom // gcd(x.denom, y.denom)
    f1, f2 = L // x.denom, L // y.denom
    t1 = inf if x.trunc is inf else x.trunc * f1
    t2 = inf if y.trunc is inf else y.trunc * f2
    a = {n * f1: c for n, c in x.terms.items()}
    b = {n * f2: c for n, c in y.terms.items()}
    va = min(a) if a else (0 if t1 is inf else t1)
    vb = min(b) if b else (0 if t2 is inf else t2)
    t = min(inf if t1 is inf else t1 + vb, inf if t2 is inf else t2 + va)
    out = {}
    for n1, c1 in a.items():
        for n2, c2 in b.items():
            if n1 + n2 < t:
                out[n1 + n2] = out.get(n1 + n2, F(0)) + c1 * c2
    return {n: c for n, c in out.items() if c}, t, L


def _naive_reciprocal(x):
    v = min(x.terms)
    K = x.trunc - v
    r = [F(0)] * K
    r[0] = 1 / x.terms[v]
    for k in range(1, K):
        s = sum((r[i] * x.terms.get(v + k - i, 0) for i in range(k)), F(0))
        r[k] = -s / x.terms[v]
    return {-v + k: r[k] for k in range(K) if r[k]}, x.trunc - 2 * v, x.denom


@settings(max_examples=200, deadline=None)
@given(a=small_series, b=small_series)
def test_kernels_match_naive_reference(a, b):
    p = a * b
    assert (p.terms, p.trunc, p.denom) == _naive_mul(a, b)
    if a.terms and a.trunc is not inf:
        r = a.reciprocal()
        assert (r.terms, r.trunc, r.denom) == _naive_reciprocal(a)


# ---------------------------------------------------------------------------
# trace-identity helpers


def test_sigma1_conventions():
    assert sigma1(0) == F(-1, 24)
    assert sigma1(1) == 1
    assert sigma1(2) == 3
    assert sigma1(3) == 4
    assert sigma1(6) == 12
    assert sigma1(F(3, 2)) == 0
    assert sigma1(-4) == 0


def test_predicted_series_level_one():
    assert predicted_series({-1: 1}) == {0: F(2), -1: F(-1)}
    assert predicted_series({-2: 1}) == {0: F(6), -1: F(-1), -4: F(-2)}
    assert predicted_series({-3: 1}) == {0: F(8), -1: F(-1), -9: F(-3)}
    # linearity
    two = predicted_series({-1: 2, -2: -1})
    assert two == {0: F(2 * 2 - 6), -1: F(-2 + 1), -4: F(2)}


def test_predicted_series_level_p():
    # constant picks up sigma1(m) + p*sigma1(m/p); negative part unchanged
    assert predicted_series({-1: 1}, p=2) == {0: F(1), -1: F(-1)}
    assert predicted_series({-2: 1}, p=2) == {0: F(5), -1: F(-1), -4: F(-2)}
    assert predicted_series({-3: 1}, p=3) == {0: F(7), -1: F(-1), -9: F(-3)}


def test_predicted_series_rejects_bad_input():
    with pytest.raises(ValueError):
        predicted_series({1: 1})
    assert predicted_series({}) == {0: 0}
