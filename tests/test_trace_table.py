"""trace_table is trace() per distinct D at the per-D precision policy,
its bytes do not depend on mpmath's global state or on the cache, and
Faber polynomials are built once per degree."""

import contextlib

import mpmath as mp
import pytest

from cmtrace import cache, series
from cmtrace.analytic import trace, trace_table
from cmtrace.verify import check_determinism


def _fields(e):
    return (e.D, e.value_rounded, e.residual, e.value_numeric.error_bound,
            e.certified, e.precision)


@pytest.mark.parametrize("f, Ds", [
    ("J", [3, 4, 7, 8, 11, 12, 15, 23, 40, 83, 100, 163]),
    ("J2", [3, 4, 7, 23, 40, 59, 100]),
])
def test_table_equals_per_D_trace(f, Ds):
    table = trace_table(f, list(reversed(Ds)) + Ds[:3])
    assert [_fields(e) for e in table] == [_fields(trace(f, D)) for D in Ds]


def test_determinism_check_catches_missing_workprec(monkeypatch):
    # with every workprec a no-op, traces run at the global precision
    monkeypatch.setattr(mp, "workprec", lambda *a, **k: contextlib.nullcontext())
    r = check_determinism()
    assert not r.passed
    assert "mp.prec 20" in r.detail and "mp.prec 2000" in r.detail


def test_determinism_check_catches_cache_drift(monkeypatch):
    # a cache that stores floats to fewer digits serves other bytes
    canonical = cache._canonical
    monkeypatch.setattr(cache, "_canonical",
                        lambda obj: round(obj, 6) if isinstance(obj, float) else canonical(obj))
    r = check_determinism()
    assert not r.passed and r.detail.endswith("mismatches ['cache']")


def test_faber_polynomial_built_once(monkeypatch):
    calls = []
    real_j_series = series.j_series

    def counting_j_series(trunc):
        calls.append(trunc)
        return real_j_series(trunc)

    monkeypatch.setattr(series, "j_series", counting_j_series)
    first = trace("J7", 3)
    second = trace("J7", 4)
    assert first.certified and second.certified
    assert len(calls) <= 1


def test_faber_poly_returns_fresh_list():
    a = series.faber_poly(2)
    a.append(0)
    assert series.faber_poly(2) == [159768, -1488, 1]
