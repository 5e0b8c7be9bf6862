"""Workload definitions: sizes, pools and the seeded job lists.

A job is a JSON-able list ``[kind, *args]`` that ``execute.py`` knows how
to run and check.  The seed picks D values from fixed pools, one from each
consecutive stratum of a pool sorted by cost, and shuffles the job order;
pool sizes and job counts never depend on the seed, so every seed asks for
about the same amount of work.  Every pooled value has a committed
reference in ``reference/<workload>.json`` (see ``make_reference.py``).

This module does not import cmtrace: the parent process uses it to count
jobs without paying for the library's imports.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

REF_DIR = Path(__file__).resolve().parent / "reference"

WORKLOADS = ("cm_table", "cm_large_D", "exact_series", "sums_lift")

# cm_table: many small discriminants at modest precision
J_SMALL_MAX, J_SMALL_PICKS = 1200, 150
J2_SMALL_MAX, J2_SMALL_PICKS = 300, 50
HURWITZ_MAX, HURWITZ_PICKS = 10_000, 1000
DUKE_LO, DUKE_HI, DUKE_PICKS = 500, 10_000, 400

# cm_large_D: single traces at ~1000 bits; both ranges stay below the
# D where the certified evaluation stops terminating (about 47,700 for J
# and 11,930 for J2)
J_LARGE_RANGE, J2_LARGE_RANGE = (38_000, 46_000), (9_000, 11_500)
LARGE_POOL, J_LARGE_PICKS, J2_LARGE_PICKS = 40, 6, 8

# exact_series: truncation orders (exponent bound in q) of each series
SERIES_TRUNC = {"g": 101, "t": 101, "j": 101, "faber2": 60, "faber3": 40}
PLUS_FORMS = ("g", "faber2", "faber3")

# sums_lift
EF_POOL_MAX, EF_PICKS, EF_CMAX = 120, 3, 4000
POINCARE_CMAX = 600
POINCARE_KNOWN = {1: 141444, 2: 68234240, 3: 6446476530}  # a(n) of E4*(j - 984)
FOURIER = {"q3/4": (1, 0.75, -248), "q1": (0, 1, 492)}  # label: (h, m, trace)
THETA_TAUS = (1.0, 2.0)  # Im tau of the lift of 1 compared with the Eisenstein series
QUAD_TOL = 1e-3


def admissible(lo: int, hi: int) -> list:
    return [D for D in range(lo, hi + 1) if D % 4 in (0, 3)]


def load_reference(workload: str) -> dict:
    return json.loads((REF_DIR / f"{workload}.json").read_text())


def stratified(rng: random.Random, pool: list, k: int) -> list:
    """One value from each of k consecutive blocks of the (cost-sorted) pool."""
    n = len(pool)
    return [rng.choice(pool[i * n // k:(i + 1) * n // k]) for i in range(k)]


def _by_cost(traces: dict) -> list:
    return [int(D) for D, e in sorted(traces.items(), key=lambda kv: (kv[1]["work"], int(kv[0])))]


def _with_largest(rng: random.Random, traces: dict, k: int) -> list:
    """The pool's largest D plus k - 1 cost-stratified picks from the rest:
    trace_table runs a batch at the precision of its largest D, so every
    seed's batch then runs at the same precision."""
    largest = max(map(int, traces))
    rest = [D for D in _by_cost(traces) if D != largest]
    return sorted([largest] + stratified(rng, rest, k - 1))


def build_jobs(workload: str, seed: int, ref: dict) -> list:
    """The job list for one workload and seed (same seed, same list)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; know {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}/{seed}")
    if workload == "cm_table":
        jobs = [["trace_table", f, _with_largest(rng, ref["traces"][f], k)]
                for f, k in (("J", J_SMALL_PICKS), ("J2", J2_SMALL_PICKS))]
        jobs += [["hurwitz", D] for D in stratified(rng, sorted(map(int, ref["hurwitz"])), HURWITZ_PICKS)]
        jobs += [["duke_statistic", D] for D in stratified(rng, sorted(map(int, ref["duke"])), DUKE_PICKS)]
    elif workload == "cm_large_D":
        jobs = [["trace", "J", D] for D in stratified(rng, _by_cost(ref["traces"]["J"]), J_LARGE_PICKS)]
        jobs += [["trace", "J2", D] for D in stratified(rng, _by_cost(ref["traces"]["J2"]), J2_LARGE_PICKS)]
    elif workload == "exact_series":
        jobs = [["series", name] for name in ("g", "t", "j")]
        jobs += [["plus_form", name] for name in PLUS_FORMS]
    else:
        pool = sorted(map(int, ref["exact_formula"]))
        jobs = [["exact_formula", D] for D in stratified(rng, pool, EF_PICKS)]
        jobs += [["poincare", n] for n in POINCARE_KNOWN]
        jobs += [["fourier", label] for label in FOURIER]
        jobs += [["theta", y] for y in THETA_TAUS]
    rng.shuffle(jobs)
    return jobs
