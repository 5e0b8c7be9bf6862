"""Plus-space forms: the basis g_D reproduces the trace generating series exactly."""

import hashlib
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmtrace.analytic import trace_table
from cmtrace.plusspace import PlusSpaceRankError, plus_form
from cmtrace.series import g_series, predicted_series, sigma1
from references import _solve_exact, plus_form_solve

_PLUS_FORM_SHA256 = "87136ed05caaa20f6b355e33080a7585a7bd4758b201c56e26159012189cb68b"


def _faber_part(m):
    """The principal part of the plus-space form whose coefficients are
    the traces of J_m."""
    return {n: c for n, c in predicted_series({-m: 1}).items() if n < 0}


def test_unit_pole_reproduces_trace_series():
    f = plus_form({-1: -1}, 80)
    assert f.eq_through(g_series(80), 80)


def test_pole_four_lift():
    # principal part -q^-1 - 2 q^-4, the pole pattern of the degree-2
    # Faber polynomial's lift; the constant term is not prescribed and
    # must come out as 2*sigma1(2) = 6
    f = plus_form({-1: -1, -4: -2}, 30)
    assert f.coeff(0) == 6
    assert f.coeff(-1) == -1 and f.coeff(-4) == -2
    assert f.coeff(-2) == 0 and f.coeff(-3) == 0
    assert f.coeff(3) == 53256       # 159768 / 3
    assert f.coeff(4) == 287244      # 574488 / 2


def test_pole_nine_lift():
    f = plus_form({-1: -1, -9: -3}, 12)
    assert f.coeff(0) == 8           # 2*sigma1(3)
    assert f.coeff(-9) == -3
    for e in (-8, -7, -6, -5, -4, -3, -2):
        assert f.coeff(e) == 0


def _sampled_parts():
    """A fixed sample of principal parts with pole order <= 12 and their
    truncations: each is drawn on the exponents = 0, 3 (mod 4), and every
    second one also gets a pole at an exponent = 1, 2 (mod 4)."""
    rng = random.Random(23)
    allowed = [e for e in range(-12, 0) if e % 4 in (0, 3)]
    forbidden = [e for e in range(-12, 0) if e % 4 in (1, 2)]
    parts = []
    for i in range(20):
        pp = {e: F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 3))
              for e in rng.sample(allowed, rng.randint(1, 3))}
        if i % 2:
            pp[rng.choice(forbidden)] = F(rng.choice([-2, -1, 1, 2]))
        parts.append((pp, rng.randint(5, 40)))
    return parts


def test_matches_reference_solve_over_sampled_parts():
    # the recursion on the basis g_D against one exact solve over the
    # theta^3 * (C[t] + t^-j + (t+16)^-m) ansatz: the same series, or both
    # refuse the part as not attainable
    for pp, trunc in _sampled_parts() + [(_faber_part(4), 60)]:
        if all(e % 4 in (0, 3) for e in pp):
            f = plus_form(pp, trunc)
            assert f == plus_form_solve(pp, trunc), pp
            assert all(f.coeff(e) == pp.get(e, 0) for e in range(min(pp), 0))
            assert all(f.coeff(n) == 0 for n in range(1, trunc) if n % 4 in (1, 2))
        else:
            for solve in (plus_form, plus_form_solve):
                with pytest.raises(PlusSpaceRankError, match="not attainable"):
                    solve(pp, trunc)


def test_bytes_pinned():
    # sha256 over dumps(), recorded before plus_form built the basis g_D
    h = hashlib.sha256()
    for pp, trunc in _sampled_parts():
        try:
            h.update(plus_form(pp, trunc).dumps().encode())
        except PlusSpaceRankError:
            h.update(b"not attainable")
    for m in (2, 3):
        h.update(plus_form(_faber_part(m), 201).dumps().encode())
    h.update(plus_form({-1: -1}, 200).dumps().encode())
    assert h.hexdigest() == _PLUS_FORM_SHA256


def test_unattainable_refused_before_any_series(monkeypatch):
    import cmtrace.plusspace as ps

    def no_series(trunc):
        raise AssertionError("a series was built")

    monkeypatch.setattr(ps, "theta_series", no_series)
    monkeypatch.setattr(ps, "t_series", no_series)
    for pp in ({-30: 1}, {-1: 1, -402: 2}):
        with pytest.raises(PlusSpaceRankError, match="not attainable"):
            plus_form(pp, 10)


@pytest.mark.parametrize("m", [4, 5, 6, 7])
def test_faber_traces_match_coefficients(m):
    # certified CM traces of J_m against the plus-space form with J_m's
    # principal part, whose constant term is 2 sigma1(m)
    lift = plus_form(_faber_part(m), 101)
    assert lift.coeff(0) == 2 * sigma1(m)
    for e in trace_table(f"J{m}", [D for D in range(3, 101) if D % 4 in (0, 3)]):
        assert e.certified, (m, e.D)
        assert e.value_rounded == lift.coeff(e.D), (m, e.D)


def test_support_condition_through_200():
    f = plus_form({-1: -1}, 200)
    for n in range(1, 200):
        if n % 4 in (1, 2):
            assert f.coeff(n) == 0, n


def test_linearity():
    a = plus_form({-1: -1}, 25)
    b = plus_form({-4: 1}, 25)
    c = plus_form({-1: -2, -4: 3}, 25)
    lhs = 2 * a + 3 * b
    assert lhs.eq_through(c, 25)


def test_unattainable_principal_parts():
    # poles at exponents = 1, 2 (mod 4) violate the support condition
    with pytest.raises(PlusSpaceRankError):
        plus_form({-2: 1}, 20)
    with pytest.raises(PlusSpaceRankError):
        plus_form({-1: 1, -7: 2}, 20)


def test_zero_input():
    z = plus_form({}, 15)
    assert z.items() == []
    assert z.truncation_order == 15
    z2 = plus_form({-1: 0}, 15)
    assert z2.items() == []


def test_positive_exponent_rejected():
    with pytest.raises(ValueError):
        plus_form({1: 1}, 10)


def test_rational_principal_part():
    f = plus_form({-1: F(-1, 2)}, 20)
    g = g_series(20)
    assert f.coeff(0) == 1
    assert f.coeff(3) == g.coeff(3) / 2


def _naive_solve(rows, rhs, n):
    """Gauss-Jordan over Q in Fractions: the reference for _solve_exact."""
    aug = [list(r) + [v] for r, v in zip(rows, rhs)]
    pivots, r = [], 0
    for c in range(n):
        piv = next((i for i in range(r, len(aug)) if aug[i][c]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        aug[r] = [x / aug[r][c] for x in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == len(aug):
            break
    if any(aug[i][n] for i in range(r, len(aug))):
        return None, "inconsistent"
    if len(pivots) < n:
        return None, f"rank {len(pivots)} < {n} unknowns"
    x = [F(0)] * n
    for i, c in enumerate(pivots):
        x[c] = aug[i][n]
    return x, None


@st.composite
def _systems(draw):
    """A rational system B C x = rhs of prescribed rank, so unique,
    rank-deficient and inconsistent systems all come up."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    rank = draw(st.integers(0, min(m, n)))
    frac = st.builds(F, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3]))
    B = draw(st.lists(st.lists(frac, min_size=rank, max_size=rank), min_size=m, max_size=m))
    C = draw(st.lists(st.lists(frac, min_size=n, max_size=n), min_size=rank, max_size=rank))
    rows = [[sum((B[i][k] * C[k][j] for k in range(rank)), F(0)) for j in range(n)]
            for i in range(m)]
    rhs = draw(st.lists(frac, min_size=m, max_size=m))
    if draw(st.booleans()):  # a consistent right-hand side
        x = draw(st.lists(frac, min_size=n, max_size=n))
        rhs = [sum((a * b for a, b in zip(row, x)), F(0)) for row in rows]
    return rows, rhs, n


@settings(max_examples=300, deadline=None)
@given(system=_systems())
def test_fraction_free_solve_matches_reference(system):
    rows, rhs, n = system
    assert _solve_exact(rows, rhs, n) == _naive_solve(rows, rhs, n)
