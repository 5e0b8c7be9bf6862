"""Outside-in tracer: times cmtrace's public functions by wrapping them.

Nothing under ``src/`` knows about it.  ``install`` replaces each target
function in every loaded ``cmtrace`` module that binds it (so
``cmtrace.analytic.enumerate_reduced`` is caught as well as
``cmtrace.qform.enumerate_reduced``) and each target ``QSeries`` method in
the class dict (so ``__mul__`` and its alias ``__rmul__`` are both caught).
``uninstall`` puts every original object back.

Spans (name, start, end, parent index) and counters stay in memory; the
caller writes them out when the round ends.  Self time of a span is its
duration minus the durations of its direct children.  The program is
single-threaded here (``threads=1``), so spans nest strictly.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import Counter

# (span name, module, attribute); a dotted attribute names a class method
TARGETS = [
    ("analytic.eval_modular", "cmtrace.analytic", "eval_modular"),
    ("analytic.trace", "cmtrace.analytic", "trace"),
    ("analytic.duke_statistic", "cmtrace.analytic", "duke_statistic"),
    ("analytic.exact_formula_tJ", "cmtrace.analytic", "exact_formula_tJ"),
    ("qform.enumerate_reduced", "cmtrace.qform", "enumerate_reduced"),
    ("qform.hurwitz", "cmtrace.qform", "hurwitz"),
    ("series.mul", "cmtrace.series", "QSeries.__mul__"),
    ("series.reciprocal", "cmtrace.series", "QSeries.reciprocal"),
    ("series.builders", "cmtrace.series", "eta"),
    ("series.builders", "cmtrace.series", "eisenstein"),
    ("series.builders", "cmtrace.series", "theta_series"),
    ("plusspace.plus_form", "cmtrace.plusspace", "plus_form"),
    ("sums.kloosterman", "cmtrace.sums", "kloosterman"),
    ("sums.exp_sum_S", "cmtrace.sums", "exp_sum_S"),
    ("sums.bessel_i", "cmtrace.sums", "bessel_i"),
    ("sums.poincare_coeff", "cmtrace.sums", "poincare_coeff"),
    ("thetalift.fourier_extract", "cmtrace.thetalift", "fourier_extract"),
    ("thetalift.theta_integral", "cmtrace.thetalift", "theta_integral"),
    ("thetalift.eisen_prediction", "cmtrace.thetalift", "eisen_prediction"),
]

_THRESHOLD = 1e-6  # the trace certification threshold in cmtrace.analytic


def _observe_trace(counts, args, entry):
    counts["analytic.traces"] += 1
    counts["analytic.precision_bits.sum"] += entry.precision
    counts["analytic.certified"] += bool(entry.certified)
    slack = entry.residual + entry.value_numeric.error_bound
    margin = -math.log2(slack / _THRESHOLD) if slack > 0 else 1074.0
    counts["analytic.margin_bits.min"] = min(counts.get("analytic.margin_bits.min", math.inf), margin)


def _observe_forms(counts, args, forms):
    counts["qform.forms"] += len(forms)


def _observe_mul(counts, args, out):
    counts["series.mul.terms_out"] += len(out.terms)


def _observe_reciprocal(counts, args, out):
    s = args[0]
    counts["series.reciprocal.slots"] += s.trunc - min(s.terms)


OBSERVERS = {
    "analytic.trace": _observe_trace,
    "qform.enumerate_reduced": _observe_forms,
    "series.mul": _observe_mul,
    "series.reciprocal": _observe_reciprocal,
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._patched = []  # (namespace dict or class, attribute, original)

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            counts[name + ".calls"] += 1
            if observe is not None:
                observe(counts, args, out)
            return out

        return wrapper

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sys.modules.items()
                   if (n == "cmtrace" or n.startswith("cmtrace.")) and m is not None]
        for name, modname, attr in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                wrapped = self._wrap(name, orig)
                for key, val in list(cls.__dict__.items()):
                    if val is orig:
                        self._patched.append((cls, key, orig))
                        setattr(cls, key, wrapped)
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, orig)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patched.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        while self._patched:
            owner, key, orig = self._patched.pop()
            setattr(owner, key, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def self_times(self) -> dict:
        """Sum of self time (span minus direct children) per span name."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for (name, t0, t1, _), c in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (t1 - t0 - c)
        return out
