"""The HP record: conversion at the declared precision, ulp charging,
bound validation, and HP records refused where a point is expected."""

import mpmath as mp
import pytest

from cmtrace import thetalift
from cmtrace.analytic import beta_integral, eval_modular
from cmtrace.hp import HP, _ulp
from cmtrace.series import g_series


def test_real_rounded_to_prec_and_charged_one_ulp():
    with mp.workprec(300):
        x = mp.mpf(1) / 3
    r = HP(x, 0.0, 64)
    with mp.workprec(64):
        want = mp.mpf(x)
    assert isinstance(r.value, mp.mpf)
    assert r.value == want and r.value != x
    assert r.prec == 64
    assert r.error_bound == _ulp(abs(float(r.value)), 64)


def test_exact_real_not_charged():
    r = HP(2, 0.0, 53)
    assert r.value == 2 and r.error_bound == 0.0


def test_conversion_ignores_ambient_precision():
    with mp.workprec(300):
        x = mp.mpf(1) / 3
    with mp.workprec(30):
        r = HP(x, 0.0, 300)
    assert r.value == x and r.error_bound == 0.0


def test_complex_at_prec_stored_unchanged():
    z = mp.mpc(1.5, -0.25)
    r = HP(z, 0.25, 64)
    assert isinstance(r.value, mp.mpc)
    assert r.value._mpc_ == z._mpc_ and r.error_bound == 0.25


def test_complex_rounded_to_prec_and_charged_one_ulp():
    with mp.workprec(300):
        z = mp.mpc(1, 2) / 3
    r = HP(z, 0.0, 64)
    with mp.workprec(64):
        want = mp.mpc(z)
    assert isinstance(r.value, mp.mpc)
    assert r.value._mpc_ == want._mpc_ and r.value != z
    assert r.error_bound == _ulp(float(abs(r.value)), 64)


def test_negative_bound_raises():
    with pytest.raises(ValueError):
        HP(mp.mpf(1), -1e-9, 64)
    with pytest.raises(ValueError):
        HP(mp.mpf(1), float("nan"), 64)


def test_ulp_past_1075_bits():
    # 2.0 ** (1 - prec) is 0.0 here; the rounding step must not vanish
    assert _ulp(2.0 ** 1000, 1100) == 2.0 ** -99 + 5e-324
    assert _ulp(float("inf"), 1200) == float("inf")


def test_rounding_below_float_range_charged_absolute_floor():
    # |value| underflows a float; its rounding step is far below 5e-324,
    # not the 2^(1-prec) of a unit-size value
    with mp.workprec(200):
        x = mp.mpf(1) / 3 * mp.mpf(10) ** -400
        ref = mp.expint(1.5, 800)
    r = HP(x, 0.0, 53)
    assert r.value != x and r.error_bound <= 1e-320
    with mp.workprec(200):
        assert abs(r.value - x) <= r.error_bound
    b = beta_integral(800)  # about 4.6e-351
    assert b.error_bound <= 1e-320
    with mp.workprec(200):
        assert abs(b.value - ref) <= b.error_bound


_I = HP(mp.mpc(0, 1), 1e-3, 64)  # an uncertain point: its radius would be dropped


@pytest.mark.parametrize("call", [
    pytest.param(lambda: eval_modular("J", _I), id="eval_modular"),
    pytest.param(lambda: eval_modular(g_series(5), _I), id="eval_qexpansion"),
    pytest.param(lambda: thetalift.theta_kernel(0, _I, 1j), id="theta_kernel-tau"),
    pytest.param(lambda: thetalift.theta_kernel(0, 1j, _I), id="theta_kernel-z"),
    pytest.param(lambda: thetalift.theta_integral(0, _I, "J"), id="theta_integral"),
    pytest.param(lambda: thetalift.eisen_prediction(_I), id="eisen_prediction"),
])
def test_hp_inputs_rejected(call):
    # points are plain complex or mpc numbers; an HP would be taken as exact
    with pytest.raises(TypeError):
        call()
