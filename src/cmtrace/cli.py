"""Command-line surface: table commands, the verification suite, caching.

Table commands emit JSON lines (or CSV via --format csv, same fields in
the same order); `verify` emits a single JSON report.  Exit codes:
0 success, 1 verification failure, 2 usage error, 3 the computation
could not meet its precision/budget contract.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import reports
from .analytic import (
    _parse_fspec,
    duke_statistic,
    exact_formula_tJ,
    regularized_average,
    trace,
)
from .cache import Cache, cache_key
from .lattice import LatticeSpec
from .qform import QuadForm, enumerate_reduced, hurwitz, is_fundamental, reduce, stabilizer_order
from .series import (
    DomainError,
    bigJ_series,
    delta_series,
    eisenstein,
    faber,
    g_series,
    j_series,
    t_series,
    theta_series,
)
from .sums import poincare_coeff
from .thetalift import theta_integral
from .verify import FULL_CHECKS, _admissible, run_suite

# -- argument converters (bad values exit 2 through argparse) ---------------

def _checked(kind, ok, need: str):
    """Converter to kind whose value must satisfy ok ("must be {need}")."""
    def convert(text: str):
        try:
            x = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {kind.__name__}, got {text!r}")
        if not ok(x):
            raise argparse.ArgumentTypeError(f"must be {need}, got {text!r}")
        return x
    return convert


_BITS = _checked(int, lambda n: n >= 64, "at least 64")
_COUNT = _checked(int, lambda n: n >= 1, "at least 1")
_NONNEG = _checked(int, lambda n: n >= 0, "at least 0")
_DMAX = _checked(int, lambda n: n >= 3, "at least 3")  # the least discriminant any check uses
_POSITIVE = _checked(float, lambda x: x > 0, "positive")


def _range_arg(text: str):
    lo, _, hi = text.partition(":")
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LO:HI, got {text!r}")
    if lo > hi or lo < 0:
        raise argparse.ArgumentTypeError(f"bad range {text!r}")
    return (lo, hi)


def _form_arg(text: str):
    try:
        a, b, c = (int(t) for t in text.split(","))
        return QuadForm(a, b, c)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a,b,c positive definite: {exc}")


def _fspec_arg(text: str):
    try:
        _parse_fspec(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return text


def _tau_arg(text: str):
    try:
        tau = complex(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a complex like 0.5+2j, got {text!r}")
    if not tau.imag > 0:
        raise argparse.ArgumentTypeError(f"Im tau must be positive, got {text!r}")
    return tau


def _resolve_Ds(args):
    if args.D is not None:
        return [args.D]
    return _admissible(*args.range)


# -- subcommands ------------------------------------------------------------

def cmd_reduce(args, cache):
    R = reduce(args.form)
    rows = [{"D": R.D, "a": R.a, "b": R.b, "c": R.c,
             "stabilizer": stabilizer_order(R)}]
    return reports.render_table(rows, reports.FORM_FIELDS, args.format), 0


def cmd_forms(args, cache):
    rows = []
    for D in _resolve_Ds(args):
        for F in enumerate_reduced(D):
            rows.append({"D": D, "a": F.a, "b": F.b, "c": F.c,
                         "stabilizer": stabilizer_order(F)})
    return reports.render_table(rows, reports.FORM_FIELDS, args.format), 0


def _cached(cache, operation: str, inputs: dict, precision, compute):
    """The rows cached under (operation, inputs, precision), or compute()'s
    rows, stored there."""
    key = cache_key(operation, inputs, precision)
    rows = cache.get(key)
    if rows is None:
        rows = compute()
        cache.put(key, rows)
    return rows


def cmd_classnum(args, cache):
    if args.D is not None:
        Ds = [args.D]
    else:
        Ds = list(range(args.range[0], args.range[1] + 1))
    rows = _cached(cache, "classnum", {"Ds": Ds}, "exact",
                   lambda: [{"D": D, "H": hurwitz(D)} for D in Ds])
    return reports.render_table(rows, reports.CLASSNUM_FIELDS, args.format), 0


def cmd_trace(args, cache):
    Ds = _resolve_Ds(args)
    # Ds is sorted and distinct: this is trace_table at --precision
    rows = _cached(cache, "trace", {"f": args.f, "Ds": Ds}, args.precision or "policy",
                   lambda: [reports.trace_row(trace(args.f, D, precision=args.precision))
                            for D in Ds])
    code = 0 if all(r["certified"] for r in rows) else 3
    return reports.render_table(rows, reports.TRACE_FIELDS, args.format), code


_SERIES = {
    "g": g_series, "t": t_series, "j": j_series, "J": bigJ_series,
    "delta": delta_series, "theta": theta_series,
    "E4": lambda t: eisenstein(4, t), "E6": lambda t: eisenstein(6, t),
}


def cmd_series(args, cache):
    name = args.name
    if name in _SERIES:
        s = _SERIES[name](args.dmax + 1)
    elif name.startswith("J") and name[1:].isdigit():
        s = faber(int(name[1:]), args.dmax + 1)
    else:
        raise DomainError(f"unknown series {name!r}; know {sorted(_SERIES)} and Jm")
    rows = [{"exponent": int(e) if e.denominator == 1 else e, "coefficient": c}
            for e, c in s.items() if e <= args.dmax]
    return reports.render_table(rows, reports.SERIES_FIELDS, args.format), 0


def _value_fields(r) -> dict:
    """A float64 HP's value and error bound, as table fields."""
    return {"value": float(r.value), "error_bound": r.error_bound}


# exactformula and poincare compute in float64 throughout, so every
# --precision shares one cache entry

def cmd_exactformula(args, cache):
    Ds = _resolve_Ds(args)
    rows = _cached(cache, "exactformula", {"Ds": Ds, "c_max": args.cmax}, 53,
                   lambda: [{"D": D, "c_max": args.cmax,
                             **_value_fields(exact_formula_tJ(D, c_max=args.cmax))} for D in Ds])
    return reports.render_table(rows, reports.EXACTFORMULA_FIELDS, args.format), 0


def cmd_poincare(args, cache):
    inputs = {"k": args.k, "m": args.m, "n": args.n, "c_max": args.cmax}
    rows = _cached(cache, "poincare", inputs, 53,
                   lambda: [{**inputs, **_value_fields(poincare_coeff(args.k, args.m, args.n, args.cmax))}])
    return reports.render_table(rows, reports.POINCARE_FIELDS, args.format), 0


def cmd_duke(args, cache):
    rows = []
    for D in _admissible(*args.range):
        r = duke_statistic(D, args.precision or 53)
        rows.append({"D": D, "statistic": float(r.value),
                     "H": hurwitz(D), "fundamental": is_fundamental(D)})
    return reports.render_table(rows, reports.DUKE_FIELDS, args.format), 0


def cmd_theta(args, cache):
    r = theta_integral(args.h, args.tau, args.f, tol=args.tol)
    rows = [{"h": args.h, "tau": repr(args.tau), "f": args.f, "tol": args.tol,
             "integral_re": float(r.value.real),
             "integral_im": float(r.value.imag),
             "error_bound": r.error_bound}]
    return reports.render_table(rows, reports.THETA_FIELDS, args.format), 0


def cmd_avg(args, cache):
    rows = [{"f": args.f, **_value_fields(regularized_average(args.f))}]
    return reports.render_table(rows, reports.AVG_FIELDS, args.format), 0


def cmd_verify(args, cache):
    what = args.what
    if what in ("fast", "full"):
        level, only = what, None
    else:
        level, only = "fast", what
    t0 = time.time()
    results, passed = run_suite(level, only=only, dmax=args.dmax, cmax=args.cmax, tol=args.tol)
    outputs = [{"check": r.name, "identity": r.identity, "passed": r.passed,
                "detail": r.detail, "seconds": round(r.seconds, 3)}
               for r in results]
    rep = reports.make_report(
        "verify",
        {"what": what, "dmax": args.dmax, "cmax": args.cmax,
         "tol": args.tol, "threads": args.threads},
        outputs,
        "each row names the modular identity it validates",
        passed=passed, seconds=time.time() - t0)
    for r in results:
        if not r.passed:
            print(f"FAIL {r.name}: {r.identity}", file=sys.stderr)
    return reports.render_report(rep), (0 if passed else 1)


# -- parser / driver --------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--precision", type=_BITS, default=None, metavar="BITS")
    # accepted and has no effect: tables are computed sequentially
    common.add_argument("--threads", type=_COUNT, default=1, metavar="N")
    common.add_argument("--cache-dir", default=None, metavar="PATH")
    common.add_argument("--no-cache", action="store_true")
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--out", default=None, metavar="PATH")

    p = argparse.ArgumentParser(prog="cmtrace", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, help):
        sp = sub.add_parser(name, parents=[common], help=help)
        sp.set_defaults(fn=fn)
        return sp

    sp = add("reduce", cmd_reduce, "reduce a positive definite form")
    sp.add_argument("--form", type=_form_arg, required=True, metavar="a,b,c")

    for name, fn, help in (("forms", cmd_forms, "reduced forms of discriminant -D"),
                           ("classnum", cmd_classnum, "Hurwitz class numbers"),
                           ("trace", cmd_trace, "CM-value traces"),
                           ("exactformula", cmd_exactformula,
                            "truncated exponential-sum formula for the J-trace")):
        sp = add(name, fn, help)
        g = sp.add_mutually_exclusive_group(required=True)
        g.add_argument("--D", type=_NONNEG, default=None)
        g.add_argument("--range", type=_range_arg, default=None, metavar="LO:HI")
        if name == "trace":
            sp.add_argument("--f", type=_fspec_arg, default="J")
        if name == "exactformula":
            sp.add_argument("--cmax", type=_COUNT, default=10 ** 4)

    sp = add("series", cmd_series, "q-expansion coefficients of a named series")
    sp.add_argument("--name", required=True)
    sp.add_argument("--dmax", type=_NONNEG, default=25)

    sp = add("poincare", cmd_poincare, "Rademacher-type coefficient of a Poincare series")
    sp.add_argument("--k", type=int, default=4)
    sp.add_argument("--m", type=int, default=1)
    sp.add_argument("--n", type=int, default=1)
    sp.add_argument("--cmax", type=_COUNT, default=10 ** 5,
                    help="sum the moduli c <= min(CMAX, 4000); the rest of the"
                         " series is in the error bound's tail")

    sp = add("duke", cmd_duke, "per-discriminant equidistribution statistic")
    sp.add_argument("--range", type=_range_arg, required=True, metavar="LO:HI")

    sp = add("theta", cmd_theta, "regularized theta-lift component integral")
    sp.add_argument("--h", type=int, default=0, choices=range(len(LatticeSpec.level4().cosets())))
    sp.add_argument("--tau", type=_tau_arg, required=True, metavar="x+yj")
    sp.add_argument("--f", type=_fspec_arg, default="1")
    sp.add_argument("--tol", type=_POSITIVE, default=1e-4)

    sp = add("avg", cmd_avg, "regularized average over the modular curve")
    sp.add_argument("--f", type=_fspec_arg, required=True)

    sp = add("verify", cmd_verify, "run the verification suite or one check")
    sp.add_argument("what", nargs="?", default="fast",
                    choices=["fast", "full"] + sorted(FULL_CHECKS),
                    help="fast, full, or a single check name")
    sp.add_argument("--dmax", type=_DMAX, default=None)
    sp.add_argument("--cmax", type=_COUNT, default=None)
    sp.add_argument("--tol", type=_POSITIVE, default=None)

    return p


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    cache = Cache(directory=args.cache_dir, enabled=not args.no_cache)
    try:
        text, code = args.fn(args, cache)
    except (ValueError, NotImplementedError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, DomainError) else 3

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
