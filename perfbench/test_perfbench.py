"""Tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q perfbench
"""

import copy
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest

import execute
import jobs as J
from tracer import TARGETS, Tracer


@pytest.fixture(scope="module")
def refs():
    return {w: J.load_reference(w) for w in J.WORKLOADS}


# small jobs that reach every checked kind of result cheaply
SMALL_JOBS = [
    ("cm_table", ["trace", "J", 23]),
    ("cm_table", ["trace_table", "J2", [3, 4, 7, 8]]),
    ("cm_table", ["hurwitz", 1000]),
    ("cm_table", ["duke_statistic", 503]),
    ("exact_series", ["series", "j"]),
    ("sums_lift", ["exact_formula", 23]),
]


@pytest.mark.parametrize("workload", J.WORKLOADS)
def test_same_seed_same_jobs(refs, workload):
    a = J.build_jobs(workload, 7, refs[workload])
    assert a == J.build_jobs(workload, 7, refs[workload])
    assert len(a) == len(J.build_jobs(workload, 8, refs[workload]))


def test_seed_changes_picks_and_order(refs):
    for w in ("cm_table", "cm_large_D", "sums_lift"):
        assert J.build_jobs(w, 7, refs[w]) != J.build_jobs(w, 8, refs[w])


def _perturbed(ref, job):
    bad = copy.deepcopy(ref)
    kind, *args = job
    if kind in ("trace", "trace_table"):
        D = args[1] if kind == "trace" else args[1][-1]
        entry = bad["traces"][args[0]][str(D)]
        entry["trace"] = str(Fraction(entry["trace"]) + 1)
    elif kind == "hurwitz":
        bad["hurwitz"][str(args[0])] = str(Fraction(bad["hurwitz"][str(args[0])]) + 1)
    elif kind in ("duke_statistic", "exact_formula"):
        table = bad["duke" if kind == "duke_statistic" else "exact_formula"]
        value, eb = table[str(args[0])]
        table[str(args[0])] = [repr(float(value) + 1e-3 * (abs(float(value)) + 1)), eb]
    elif kind == "series":
        terms = bad["series"][args[0]]["terms"]
        terms[-1][2] += 1
    return bad


@pytest.mark.parametrize("workload,job", SMALL_JOBS)
def test_perturbed_reference_fails_its_job(refs, workload, job):
    execute.run_job(job, refs[workload])  # passes against the committed reference
    with pytest.raises(execute.CheckFailed):
        execute.run_job(job, _perturbed(refs[workload], job))
    results, failures, _, _ = execute.run_jobs([job], _perturbed(refs[workload], job))
    assert results == [None] and len(failures) == 1


def test_timeout_counts_as_failure(monkeypatch):
    monkeypatch.setattr(execute, "JOB_TIMEOUT_S", 0.05)
    monkeypatch.setattr(execute, "run_job", lambda job, ref: time.sleep(2))
    t0 = time.perf_counter()
    results, failures, _, _ = execute.run_jobs([["hurwitz", 3]], {})
    assert time.perf_counter() - t0 < 1.5
    assert results == [None] and "JobTimeout" in failures[0]


def test_traced_and_untraced_results_identical(refs):
    plain = [execute.run_job(job, refs[w]) for w, job in SMALL_JOBS]
    tracer = Tracer()
    with tracer:
        traced = [execute.run_job(job, refs[w]) for w, job in SMALL_JOBS]
    assert traced == plain
    layers = execute.layer_metrics(tracer)
    assert layers["analytic.trace.calls"] == 5  # one trace, four from the table
    assert layers["analytic.certified_ratio"] == 1.0
    assert layers["series.mul.calls"] > 0 and layers["sums.exp_sum_S.calls"] == 1000
    assert all(v >= 0 for v in layers.values())


def _bindings():
    """Every attribute of the loaded cmtrace modules and of QSeries."""
    import cmtrace.series

    found = {}
    for mod_name in [n for n in sys.modules if n.startswith("cmtrace")]:
        for key, val in vars(sys.modules[mod_name]).items():
            found[(mod_name, key)] = val
    for key, val in vars(cmtrace.series.QSeries).items():
        found[("QSeries", key)] = val
    return found


def test_wrappers_removed_cleanly():
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        patched = {k for k, v in _bindings().items() if before.get(k) is not v}
        homes = {("QSeries", attr.split(".")[1]) if "." in attr else (mod, attr) for _, mod, attr in TARGETS}
        assert homes <= patched
        # bindings made by `from .qform import ...` and the __rmul__ alias
        assert {("cmtrace.analytic", "enumerate_reduced"), ("QSeries", "__rmul__")} <= patched
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.uninstall()
    after = _bindings()
    assert all(after[k] is v for k, v in before.items())
