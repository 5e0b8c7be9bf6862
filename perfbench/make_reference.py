"""Generate the committed reference data in perfbench/reference/.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_reference.py [WORKLOAD ...]

Each reference value is computed by the library and, where the paper
gives a second route, cross-checked against it before it is written:

- J traces for D <= 500 against the coefficients of ``g_series``;
- J2 traces for D <= 200 against the coefficients of the m = 2 plus-form;
- ``hurwitz`` against ``hurwitz_table``;
- the float ``duke_statistic`` against its 80-bit mpmath route;
- large-D traces against a recomputation with 16 more bits (more would
  cross the precision where the evaluation stops terminating);
- ``plus_form({-1: -1})`` equal to ``g_series`` (two routes, one series);
  the Faber plus-forms against J2/J3 traces and their constant 2*sigma1(m);
- Poincare values containing 141444, 68234240 and 6446476530 inside their
  error bounds, and the theta-lift jobs within the ``verify full`` tolerances.

The script stops with an error, writing nothing for that workload, if a
cross-check fails.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time

from cmtrace import analytic, plusspace, qform, series

import execute
import jobs as J


def _fail(msg: str):
    raise SystemExit(f"cross-check failed: {msg}")


def work(D: int) -> int:
    """Cost proxy of a level-1 trace: the evaluation at the form [a, b, c]
    needs a number of q-terms proportional to a, and forms with b < 0 are
    skipped as conjugates."""
    return sum(F.a for F in qform.enumerate_reduced(D) if F.b >= 0)


def _trace_ref(e) -> dict:
    if not e.certified:
        _fail(f"{e.f_label}({e.D}) not certified")
    return {"trace": str(e.value_rounded), "forms": e.class_count, "work": work(e.D)}


def cm_table() -> dict:
    Js = J.admissible(3, J.J_SMALL_MAX)
    traces_J = {e.D: e for e in analytic.trace_table("J", Js)}
    g = series.g_series(501)
    bad = [D for D in Js if D <= 500 and traces_J[D].value_rounded != g.coeff(D)]
    if bad:
        _fail(f"J traces differ from g_series at D = {bad[:5]}")

    J2s = J.admissible(3, J.J2_SMALL_MAX)
    traces_J2 = {e.D: e for e in analytic.trace_table("J2", J2s)}
    lift = plusspace.plus_form(execute.principal_part("faber2"), 201)
    bad = [D for D in J2s if D <= 200 and traces_J2[D].value_rounded != lift.coeff(D)]
    if bad:
        _fail(f"J2 traces differ from the m = 2 plus-form at D = {bad[:5]}")

    table = qform.hurwitz_table(J.HURWITZ_MAX)
    hur = {D: qform.hurwitz(D) for D in J.admissible(3, J.HURWITZ_MAX)}
    bad = [D for D, h in hur.items() if h != table[D]]
    if bad:
        _fail(f"hurwitz differs from hurwitz_table at D = {bad[:5]}")

    duke = {}
    for D in J.admissible(J.DUKE_LO, J.DUKE_HI):
        if not qform.is_fundamental(D):
            continue
        r = analytic.duke_statistic(D)
        r_mp = analytic.duke_statistic(D, precision=80)
        if abs(float(r.value) - float(r_mp.value)) > r.error_bound + r_mp.error_bound:
            _fail(f"duke_statistic({D}) float and mpmath routes disagree")
        duke[D] = [repr(float(r.value)), repr(r.error_bound)]

    return {
        "traces": {"J": {D: _trace_ref(e) for D, e in traces_J.items()},
                   "J2": {D: _trace_ref(e) for D, e in traces_J2.items()}},
        "hurwitz": {D: str(h) for D, h in hur.items()},
        "duke": duke,
    }


def cm_large_D() -> dict:
    rng = random.Random(0)
    out = {}
    for f, (lo, hi) in (("J", J.J_LARGE_RANGE), ("J2", J.J2_LARGE_RANGE)):
        # the pool: the LARGE_POOL D of 200 random candidates whose cost
        # lies closest to the candidates' median, so that every seed's
        # picks ask for about the same work
        cands = {D: work(D) for D in rng.sample(J.admissible(lo, hi), 200)}
        mid = statistics.median(cands.values())
        refs = {}
        for D in sorted(sorted(cands, key=lambda D: abs(cands[D] - mid))[:J.LARGE_POOL]):
            e = analytic.trace(f, D)
            e_hi = analytic.trace(f, D, precision=e.precision + 16)
            if e_hi.value_rounded != e.value_rounded or not e_hi.certified:
                _fail(f"{f}({D}) changes with 16 more bits")
            refs[D] = _trace_ref(e)
        out[f] = refs
    return {"traces": out}


def exact_series() -> dict:
    built = {name: execute.SERIES_BUILDERS[name](J.SERIES_TRUNC[name]) for name in execute.SERIES_BUILDERS}
    for name in J.PLUS_FORMS:
        s = plusspace.plus_form(execute.principal_part(name), J.SERIES_TRUNC[name])
        if name == "g":
            if s != built["g"]:
                _fail("plus_form({-1: -1}) differs from g_series")
            continue
        m = int(name.removeprefix("faber"))
        if s.coeff(0) != 2 * series.sigma1(m):
            _fail(f"{name}: constant term {s.coeff(0)} != 2*sigma1({m})")
        Ds = J.admissible(3, J.SERIES_TRUNC[name] - 1)
        bad = [e.D for e in analytic.trace_table(f"J{m}", Ds)
               if not e.certified or e.value_rounded != s.coeff(e.D)]
        if bad:
            _fail(f"{name}: coefficients differ from J{m} traces at D = {bad[:5]}")
        built[name] = s
    g = built["g"]
    traces = {e.D: e.value_rounded for e in analytic.trace_table("J", J.admissible(3, J.SERIES_TRUNC["g"] - 1))}
    if g.coeff(-1) != -1 or g.coeff(0) != 2 or any(g.coeff(D) != t for D, t in traces.items()):
        _fail("g_series coefficients differ from the J traces")
    known = {"t": {-1: 1, 0: -8, 1: 20, 2: 0, 3: -62},
             "j": {-1: 1, 0: 744, 1: 196884, 2: 21493760, 3: 864299970}}
    for name, coeffs in known.items():
        if any(built[name].coeff(n) != c for n, c in coeffs.items()):
            _fail(f"{name}_series leading coefficients")
    return {"series": {name: s.to_json_dict() for name, s in built.items()}}


def sums_lift() -> dict:
    values = {}
    for D in J.admissible(3, J.EF_POOL_MAX):
        if qform.is_fundamental(D):
            r = analytic.exact_formula_tJ(D, J.EF_CMAX)
            values[D] = [repr(float(r.value)), repr(r.error_bound)]
    ref = {"exact_formula": values}
    # the remaining jobs are checked against known values; run each once
    for job in ([["poincare", n] for n in J.POINCARE_KNOWN]
                + [["fourier", label] for label in J.FOURIER]
                + [["theta", y] for y in J.THETA_TAUS]):
        try:
            execute.run_job(job, ref)
        except execute.CheckFailed as exc:
            _fail(str(exc))
    return ref


GENERATORS = {"cm_table": cm_table, "cm_large_D": cm_large_D,
              "exact_series": exact_series, "sums_lift": sums_lift}


def main(argv) -> int:
    for workload in argv or J.WORKLOADS:
        t0 = time.perf_counter()
        ref = GENERATORS[workload]()
        path = J.REF_DIR / f"{workload}.json"
        path.write_text(json.dumps(ref, sort_keys=True, separators=(",", ":")) + "\n")
        print(f"{workload}: wrote {path.name} in {time.perf_counter() - t0:.1f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
