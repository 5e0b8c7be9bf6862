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


class HP:
    __slots__ = ("value", "error_bound", "prec")

    def __init__(self, value, error_bound: float, prec: int):
        self.prec = int(prec)
        is_complex = isinstance(value, (mp.mpc, complex))
        # convert at the declared precision, not the ambient context's:
        # otherwise a high-precision value constructed from a low-precision
        # caller would be silently re-rounded, invalidating error bounds
        with mp.workprec(self.prec):
            self.value = (mp.mpc if is_complex else mp.mpf)(value)
        self.error_bound = float(error_bound)  # bound on |true - value|
        if self.value != value:  # conversion rounded: charge one ulp
            # a nonzero value never rounds to 0, so a magnitude that
            # underflows the float range is charged _ulp's 5e-324 floor
            mag = float(abs(self.value)) if is_complex else abs(float(self.value))
            self.error_bound += _ulp(mag, self.prec)
        if not self.error_bound >= 0:  # also rejects nan
            raise ValueError("error bound must be nonnegative")

    def __repr__(self):
        return f"HP({mp.nstr(self.value, 12)} ± {self.error_bound:.3g} @ {self.prec}b)"
