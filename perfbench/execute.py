"""One round of one workload, run in a fresh process by ``run.py``.

Usage: python3 perfbench/execute.py WORKLOAD SEED TRACE(0|1) LAUNCH OUT

LAUNCH is the parent's ``time.monotonic()`` just before it started this
process (the clock is system-wide on Linux), so ``setup_s`` covers
interpreter start, the cmtrace imports, loading the reference data and
building the job list.  ``wall_s`` runs from the start of the first job
to the end of the last, checks included.  Every job is checked against
the committed reference; an exception, a failed check or a job running
past ``JOB_TIMEOUT_S`` counts as a failed job.  The round's summary is
written as JSON to OUT, and with TRACE=1 the spans go to OUT's sibling
``*.spans.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import resource
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path

import cmtrace
from cmtrace import analytic, plusspace, qform, series, sums, thetalift
from cmtrace.series import QSeries

import jobs as J
from tracer import TARGETS, Tracer

JOB_TIMEOUT_S = 60


class CheckFailed(Exception):
    pass


class JobTimeout(Exception):
    pass


def _require(ok: bool, what: str):
    if not ok:
        raise CheckFailed(what)


def _check_trace(e, want: dict, f: str, D: int):
    _require(e.D == D and e.certified, f"{f}({D}) not certified")
    _require(e.value_rounded == Fraction(want["trace"]),
             f"{f}({D}) = {e.value_rounded}, reference {want['trace']}")


def _trace_summary(e):
    return [e.D, str(e.value_rounded), repr(e.residual), repr(e.value_numeric.error_bound), e.precision]


def _within(value: float, eb: float, want: list, what: str):
    ref_value, ref_eb = float(want[0]), float(want[1])
    _require(abs(value - ref_value) <= eb + ref_eb,
             f"{what} = {value!r}, reference {ref_value!r} (bounds {eb:.3g} + {ref_eb:.3g})")


def principal_part(name: str) -> dict:
    """Principal part of the plus-space form named in SERIES_TRUNC."""
    if name == "g":
        return {-1: -1}
    m = int(name.removeprefix("faber"))
    return {n: c for n, c in series.predicted_series({-m: 1}).items() if n < 0}


SERIES_BUILDERS = {"g": series.g_series, "t": series.t_series, "j": series.j_series}


def run_job(job: list, ref: dict):
    """Run one job, check it, and return a JSON-able summary of its result."""
    kind, *args = job
    if kind == "trace_table":
        f, Ds = args
        table = analytic.trace_table(f, Ds)
        _require([e.D for e in table] == sorted(set(Ds)), f"trace_table {f}: wrong D list")
        for e in table:
            _check_trace(e, ref["traces"][f][str(e.D)], f, e.D)
        return [_trace_summary(e) for e in table]
    if kind == "trace":
        f, D = args
        e = analytic.trace(f, D)
        _check_trace(e, ref["traces"][f][str(D)], f, D)
        return _trace_summary(e)
    if kind == "hurwitz":
        (D,) = args
        h = qform.hurwitz(D)
        _require(h == Fraction(ref["hurwitz"][str(D)]), f"H({D}) = {h}, reference {ref['hurwitz'][str(D)]}")
        return str(h)
    if kind == "duke_statistic":
        (D,) = args
        r = analytic.duke_statistic(D)
        _within(float(r.value), r.error_bound, ref["duke"][str(D)], f"duke_statistic({D})")
        return [repr(float(r.value)), repr(r.error_bound)]
    if kind in ("series", "plus_form"):
        (name,) = args
        N = J.SERIES_TRUNC[name]
        s = SERIES_BUILDERS[name](N) if kind == "series" else plusspace.plus_form(principal_part(name), N)
        _require(s == QSeries.from_json_dict(ref["series"][name]), f"{kind} {name} through q^{N} differs from reference")
        return hashlib.sha256(s.dumps().encode()).hexdigest()
    if kind == "exact_formula":
        (D,) = args
        r = analytic.exact_formula_tJ(D, J.EF_CMAX)
        _within(float(r.value), r.error_bound, ref["exact_formula"][str(D)], f"exact_formula_tJ({D})")
        return [repr(float(r.value)), repr(r.error_bound)]
    if kind == "poincare":
        (n,) = args
        r = sums.poincare_coeff(4, 1, n, J.POINCARE_CMAX)
        known = J.POINCARE_KNOWN[n]
        _require(abs(float(r.value) - known) <= r.error_bound,
                 f"poincare a({n}) = {float(r.value)!r} +- {r.error_bound:.3g}, known {known}")
        return [repr(float(r.value)), repr(r.error_bound)]
    if kind == "fourier":
        (label,) = args
        h, m, want = J.FOURIER[label]
        v = float(thetalift.fourier_extract(h, m, 1.0, "J", tol=J.QUAD_TOL).value)
        _require(abs(v - want) < 0.02 * abs(want), f"fourier {label} = {v:.4f}, want {want} within 2%")
        return repr(v)
    if kind == "theta":
        (y,) = args
        tau = 1j * y
        avg = 0.5 * sum(complex(thetalift.theta_integral(h, tau, "1", tol=J.QUAD_TOL).value) for h in (0, 1))
        P = complex(thetalift.eisen_prediction(tau).value)
        rel = abs(avg - P) / abs(P)
        _require(rel < 0.01, f"theta lift of 1 at tau={tau}: relative gap {rel:.3g}, want < 1%")
        return [repr(avg), repr(P)]
    raise ValueError(f"unknown job kind {kind!r}")


def _on_alarm(signum, frame):
    raise JobTimeout(f"job ran past {JOB_TIMEOUT_S} s")


def run_jobs(job_list: list, ref: dict):
    """Run every job; returns (results, failures, wall seconds, cpu seconds)."""
    results, failures = [], []
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        for job in job_list:
            signal.setitimer(signal.ITIMER_REAL, JOB_TIMEOUT_S)
            try:
                results.append(run_job(job, ref))
            except Exception as exc:  # any failure of one job is counted, the round goes on
                results.append(None)
                failures.append(f"{job[:2]}: {type(exc).__name__}: {exc}")
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        signal.signal(signal.SIGALRM, previous)
    return results, failures, wall, cpu


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer counts and self times of one traced round."""
    c = tracer.counts
    self_s = tracer.self_times()
    out = {}
    for name in dict.fromkeys(name for name, _, _ in TARGETS):
        out[name + ".calls"] = c[name + ".calls"]
        out[name + ".self_s"] = self_s.get(name, 0.0)
    for name in ("qform.forms", "series.mul.terms_out", "series.reciprocal.slots"):
        out[name] = c[name]
    n = c["analytic.traces"]
    # a workload that attempts no trace has no uncertified trace and no margin
    out["analytic.precision_bits.mean"] = c["analytic.precision_bits.sum"] / n if n else 0.0
    out["analytic.certified_ratio"] = c["analytic.certified"] / n if n else 1.0
    out["analytic.margin_bits.min"] = c["analytic.margin_bits.min"] if n else 0.0
    return out


def main(argv) -> int:
    workload, seed, trace, launch, out = argv
    src = Path(__file__).resolve().parent.parent / "src"
    if Path(cmtrace.__file__).resolve().parent.parent != src:
        print(f"cmtrace imported from {cmtrace.__file__}, not from {src}", file=sys.stderr)
        return 2
    ref = J.load_reference(workload)
    job_list = J.build_jobs(workload, int(seed), ref)
    tracer = Tracer() if trace == "1" else None
    with tracer or contextlib.nullcontext():
        setup_s = time.monotonic() - float(launch)
        results, failures, wall, cpu = run_jobs(job_list, ref)
    digest = hashlib.sha256(json.dumps([job_list, results]).encode()).hexdigest()
    summary = {
        "setup_s": setup_s,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(job_list),
        "failed": len(failures),
        "failures": failures[:20],
        "digest": digest,
    }
    if tracer:
        summary["layers"] = layer_metrics(tracer)
        Path(out).with_suffix(".spans.json").write_text(json.dumps(tracer.spans))
    Path(out).write_text(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
