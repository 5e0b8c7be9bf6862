"""trace_table is trace() per distinct D at the per-D precision policy,
and Faber polynomials are built once per degree."""

import pytest

from cmtrace import series
from cmtrace.analytic import trace, trace_table


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


def test_threads_below_one_rejected():
    with pytest.raises(ValueError):
        trace_table("J", [3, 4], threads=0)


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
