"""Precision-tracked values.

An ``HP`` records an mpmath number (``mpf`` or ``mpc``), an absolute
error bound and the precision it was computed at.  Code that computes a
value folds its own rounding and truncation bounds into ``error_bound``
before building the record.
"""

from __future__ import annotations

import math

import mpmath as mp


def _ulp(mag: float, prec: int) -> float:
    # one rounding step at magnitude `mag`, plus a sub-denormal floor so
    # bounds never come out exactly 0 for inexact operations; ldexp, since
    # 2.0 ** (1 - prec) underflows to 0 above 1075 bits
    return math.ldexp(mag, 1 - prec) + 5e-324


def _rounded(value, error_bound: float, prec: int):
    """value as an mpf (an mpc if complex) rounded once to prec bits, and
    error_bound plus what that rounding costs: one ulp at prec if it
    changed the value, else nothing."""
    # round at the declared precision, not the ambient context's: otherwise
    # a high-precision value rounded for a low-precision caller would be
    # silently re-rounded, invalidating error bounds
    if isinstance(value, (mp.mpc, complex)):
        with mp.workprec(prec):
            out = mp.mpc(value)
    else:
        out = mp.mpf(value, prec=prec)
    if out != value:
        # a nonzero value never rounds to 0, so a magnitude that underflows
        # the float range is charged _ulp's 5e-324 floor
        mag = float(abs(out)) if isinstance(out, mp.mpc) else abs(float(out))
        error_bound += _ulp(mag, prec)
    return out, error_bound


class HP:
    __slots__ = ("value", "error_bound", "prec")

    def __init__(self, value, error_bound: float, prec: int):
        self.prec = int(prec)
        # bound on |true - value|
        self.value, self.error_bound = _rounded(value, float(error_bound), self.prec)
        if not self.error_bound >= 0:  # also rejects nan
            raise ValueError("error bound must be nonnegative")

    def __repr__(self):
        return f"HP({mp.nstr(self.value, 12)} ± {self.error_bound:.3g} @ {self.prec}b)"
