"""cmtrace benchmark: time to a checked result on four fixed workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cm_table --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

A run repeats rounds of one workload until ``--seconds`` have passed.
Each round is a fresh Python process (``execute.py``) that imports cmtrace
from this checkout's ``src/``, builds the seed's job list, runs every job
once with ``threads=1`` and checks every result against the committed
reference.  Fresh processes keep the library's memo caches cold in every
round, as they are for each command-line user, and ``CMTRACE_CACHE_DIR``
points at a throwaway directory so no disk-cache hit can pose as a
speed-up.  Rounds run one after another, so nothing else of the benchmark's
competes for the two CPUs.

With ``--trace 0`` the end-to-end metrics are the medians over the run's
rounds.  With ``--trace 1`` untraced and traced rounds alternate: the
traced ones give the per-layer metrics (medians of times; counts repeat
exactly) and the ratio of the two medians gives ``trace_overhead_frac``.
Traced and untraced rounds must produce identical job results.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it record the environment and a readable summary.  Round details and
spans of the latest run of each workload are left in ``.perfbench_out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import jobs as J

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".perfbench_out"
EXECUTE = Path(__file__).resolve().parent / "execute.py"

MIN_ROUNDS = 2  # of each kind (untraced, traced), whatever --seconds says
HARD_LIMIT_S = 160  # no round starts after this, and none runs past it


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: a diagnostic of host speed,
    never used to rescale a metric."""
    t0 = time.perf_counter()
    x = 0
    for i in range(400_000):
        x = (x * 31 + i) % 1_000_003
    return time.perf_counter() - t0


def environment() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            rev = None
    import mpmath
    import numpy

    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model, "python": platform.python_version(),
            "mpmath_backend": mpmath.libmp.BACKEND, "numpy": numpy.__version__, "git_revision": rev}


def child_env(cache_dir: str) -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(ROOT / "src"), CMTRACE_CACHE_DIR=cache_dir, PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_round(workload, seed, traced, path, env, expected_jobs, time_left) -> dict:
    """One fresh process; a crash or a timeout fails every job of the round."""
    launch = time.monotonic()
    cmd = [sys.executable, str(EXECUTE), workload, str(seed), "1" if traced else "0", repr(launch), str(path)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=time_left)
        if proc.returncode == 0:
            out = json.loads(path.read_text())
            out["seconds"] = time.monotonic() - launch
            return out
        reason = f"round exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    except subprocess.TimeoutExpired:
        reason = f"round killed after {time_left:.0f} s"
    return {"attempted": expected_jobs, "failed": expected_jobs, "failures": [reason],
            "digest": None, "seconds": time.monotonic() - launch}


def run_workload(workload: str, seed: int, seconds: int, trace: bool, spec: dict) -> dict:
    expected_jobs = len(J.build_jobs(workload, seed, J.load_reference(workload)))
    out_dir = OUT_ROOT / f"{workload}-trace{int(trace)}"  # the latest run only
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=out_dir)
    env = child_env(cache_dir)
    kinds = (False, True) if trace else (False,)
    rounds = {k: [] for k in kinds}
    calib = [calibrate()]
    start = time.monotonic()
    deadline = start + seconds
    try:
        while True:
            now = time.monotonic()
            done = min(len(r) for r in rounds.values())
            typical = sum(statistics.median(r["seconds"] for r in rs) for rs in rounds.values() if rs)
            if done >= MIN_ROUNDS and now + typical > deadline or now - start > HARD_LIMIT_S:
                break
            for traced in kinds:
                time_left = max(1.0, HARD_LIMIT_S + 10 - (time.monotonic() - start))
                path = out_dir / f"round{done:02d}-{'traced' if traced else 'plain'}.json"
                rounds[traced].append(run_round(workload, seed, traced, path, env, expected_jobs, time_left))
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    calib.append(calibrate())
    return summarize(workload, seed, rounds, calib, out_dir, spec)


def _median(rounds, key):
    return statistics.median(r[key] for r in rounds)


def summarize(workload, seed, rounds, calib, out_dir, spec) -> dict:
    every = [r for rs in rounds.values() for r in rs]
    attempted = sum(r["attempted"] for r in every)
    failed = sum(r["failed"] for r in every)
    digests = {r["digest"] for r in every}
    # identical job results in every round, traced or not
    correct = failed == 0 and len(digests) == 1
    plain = [r for r in rounds[False] if r["digest"]]
    values = {}
    if True in rounds:
        traced = [r for r in rounds[True] if r["digest"]]
        if plain and traced:
            values = {name: statistics.median(r["layers"][name] for r in traced) for name in traced[0]["layers"]}
            values["run.cpu_s"] = _median(plain, "cpu_s")
            values["calib_s"] = statistics.median(calib)
            values["trace_overhead_frac"] = _median(traced, "wall_s") / _median(plain, "wall_s") - 1.0
        wanted = spec["per_layer"]
    else:
        if plain:
            values = {m["name"]: _median(plain, m["name"]) for m in spec["end_to_end"]}
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted if values}
    failures = [f for r in every for f in r["failures"]]
    record = {"workload": workload, "seed": seed, "calib_s": calib, "rounds": every, "failures": failures[:50]}
    (out_dir / "run.json").write_text(json.dumps(record, indent=1))
    return {"correct": correct and bool(metrics), "attempted": attempted, "failed": failed,
            "metrics": metrics, "calib_s": calib, "rounds": {("traced" if k else "plain"): len(v)
                                                           for k, v in rounds.items()},
            "failures": failures[:5]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=J.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "cmtrace" / "__init__.py").is_file():
        print(f"no cmtrace sources under {ROOT / 'src'}; run from the root of a cmtrace checkout",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print(json.dumps({"environment": environment()}), flush=True)
    workloads = J.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for w in workloads:
        res = results[w] = run_workload(w, args.seed, args.seconds, bool(args.trace), spec)
        fail_frac = res["failed"] / res["attempted"]
        shown = "  ".join(f"{k} {m['value']:.6g} {m['unit']}" for k, m in res["metrics"].items())
        print(f"{w}: {shown}  fail_frac {fail_frac:.6g} ratio ({res['failed']}/{res['attempted']} jobs)"
              f"  rounds {res['rounds']}  calib_s {res['calib_s'][0]:.4f}/{res['calib_s'][1]:.4f}", flush=True)
        for f in res["failures"]:
            print(f"  failure: {f}", flush=True)
    if len(workloads) == 1:
        res = results[workloads[0]]
        final = {k: res[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
