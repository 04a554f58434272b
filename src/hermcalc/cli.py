"""Command-line front end.

Subcommands: apply, deriv, bound, probe, volume, selftest. Inputs are
matrix JSON files and function specs (inline JSON, a bare kind name, or
a path); outputs are schema-versioned JSON or the fixed CSV row format
from the bounds module. Every artifact records the seed it was produced
with, so any run can be replayed exactly.

Exit codes: 0 ok, 1 invariant failure, 2 parse error, 3 numeric error,
4 domain violation.
"""

import argparse
import json
import os
import sys
from functools import cache

import numpy as np

from . import __version__
from .bounds import CSV_HEADER, bound_report, reports_to_csv, sobolev_bound
from .divided import BAND_TAYLOR_SPAN, TAYLOR_SPAN
from .errors import DomainError, HermcalcError, NumericError, OverflowRangeError, ParseError
from .expderiv import (
    check_derivative_args,
    exp_derivative_dd,
    exp_derivative_mc,
    simplex_volume_mc,
)
from .functions import parse_function
from .linalg import HERMITIAN_REJECT_TOL, HermitianMatrix, load_matrix, matrix_to_dict, op_norm
from .selftest import run_selftest
from .spectral import (
    FOURIER_TAIL_TOL,
    apply_function,
    fourier_table,
    function_derivative_dd,
    function_derivative_fourier,
)

DEFAULT_SEED = 1729

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_PARSE = 2
EXIT_NUMERIC = 3
EXIT_DOMAIN = 4

# tolerances recorded in every artifact so a run is replayable/auditable
TOLERANCES = {
    "hermitian_defect": HERMITIAN_REJECT_TOL,
    "eigensolver": "lapack-zheevd",
    "dd_taylor_span": TAYLOR_SPAN,
    "dd_band_taylor_span": BAND_TAYLOR_SPAN,
    "fourier_tail_tol": FOURIER_TAIL_TOL,
    "probe_slack_floor": -1e-9,
}


def _resolve_seed(args):
    if args.seed is not None:
        return int(args.seed)
    env = os.environ.get("HERMCALC_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ParseError(f"HERMCALC_SEED must be an integer, got {env!r}") from None
    return DEFAULT_SEED


def _meta(args, seed):
    return {
        "schema": 1,
        "version": __version__,
        "command": args.command,
        "argv": args._argv,
        "seed": seed,
        "tolerances": TOLERANCES,
    }


def _complex_pairs(m):
    # same flat row-major [re, im] layout the matrix files use
    return matrix_to_dict(m)["entries"]


def _emit(args, payload):
    _emit_text(args, json.dumps(payload, indent=1, sort_keys=True) + "\n")


def _emit_text(args, text):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_finite(name, m):
    """An overflowed result is a numeric failure (exit 3), not a parse error."""
    if not np.all(np.isfinite(m)):
        raise OverflowRangeError(f"{name} is not finite: the result overflows")
    return m


def _load_matrix(args):
    if not args.matrix:
        raise ParseError(f"{args.command}: --matrix is required")
    return HermitianMatrix(load_matrix(args.matrix))


def _load_function(args):
    if not args.function:
        raise ParseError(f"{args.command}: --function is required")
    return parse_function(args.function)


def cmd_apply(args):
    g = _load_function(args)
    x = _load_matrix(args)
    result = _check_finite("apply: g(x)", apply_function(g, x))
    seed = _resolve_seed(args)
    payload = {
        "meta": _meta(args, seed),
        "g": g.label(),
        "dim": x.dim,
        "entries": _complex_pairs(result),
        "norm": op_norm(result),
        "spectrum": [float(v) for v in x.eig().eigenvalues],
    }
    _emit(args, payload)
    if args.out:
        # norm and spectrum also on stdout for quick inspection
        print(f"||g(x)|| = {payload['norm']!r}")
        print("spec x =", " ".join(repr(v) for v in payload["spectrum"]))
    return EXIT_OK


def cmd_deriv(args):
    g = _load_function(args)
    x = _load_matrix(args)
    n = args.order if args.order is not None else len(args.dir)
    if n != len(args.dir):
        raise ParseError(
            f"deriv: order {n} needs {n} --dir files, got {len(args.dir)}"
        )
    dirs = [load_matrix(p) for p in args.dir]
    seed = _resolve_seed(args)
    method = args.method
    extra = {}
    if n == 0:
        result = apply_function(g, x)
        method = "apply"
    elif method == "dd":
        result = function_derivative_dd(g, x, dirs).matrix
    elif method == "mc":
        if g.label() != "exp":
            raise ParseError("deriv: method mc only supports the exp function")
        der = exp_derivative_mc(
            x, dirs, samples=args.samples, seed=seed, threads=args.threads
        )
        result = der.matrix
        extra = {
            "samples": der.samples,
            "std_error": [[float(v) for v in row] for row in der.std_error],
        }
    elif method == "fourier":
        r = args.radius if args.radius is not None else 2.0
        check_derivative_args(x, dirs)  # reject bad input before building the table
        table = fourier_table(g, r, n_max=max(n, 1))
        der = function_derivative_fourier(table, x, dirs)
        result = der.matrix
        extra = {
            "radius": r,
            "s_max": float(table.s[-1]),
            "tail_fraction": table.tail_fraction,
        }
    else:
        raise ParseError(f"deriv: unknown method {method!r}")
    _check_finite(f"deriv: D^{n} g(x)[dirs]", result)
    payload = {
        "meta": _meta(args, seed),
        "g": g.label(),
        "order": n,
        "method": method,
        "dim": x.dim,
        "entries": _complex_pairs(result),
        "norm": op_norm(result),
    }
    payload.update(extra)
    _emit(args, payload)
    return EXIT_OK


def cmd_bound(args):
    g = _load_function(args)
    if args.order is None or args.radius is None:
        raise ParseError("bound: --order and --radius are required")
    value = float(sobolev_bound(g, args.order, args.radius))
    seed = _resolve_seed(args)
    payload = {
        "meta": _meta(args, seed),
        "g": g.label(),
        "order": args.order,
        "radius": args.radius,
        "bound": value,
    }
    if args.out:
        _emit(args, payload)
    print(repr(value))
    return EXIT_OK


def cmd_probe(args):
    g = _load_function(args)
    if args.order is None or args.radius is None:
        raise ParseError("probe: --order and --radius are required")
    seed = _resolve_seed(args)
    d = args.dim
    report = bound_report(
        g, args.order, args.radius, d, budget=args.samples, seed=seed
    )
    if args.format == "csv":
        _emit_text(args, reports_to_csv([report]))
    else:
        payload = {
            "meta": _meta(args, seed),
            "g": report.g_label,
            "order": report.n,
            "radius": report.r,
            "dim": report.d,
            "bound": report.bound,
            "bound_method": report.bound_method,
            "empirical": report.empirical,
            "slack": report.slack,
            "samples": report.samples,
        }
        _emit(args, payload)
    if report.slack < TOLERANCES["probe_slack_floor"]:
        print(
            f"probe: bound violated: slack {report.slack!r} below "
            f"{TOLERANCES['probe_slack_floor']:g}",
            file=sys.stderr,
        )
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_volume(args):
    if args.order is None:
        raise ParseError("volume: --order is required")
    seed = _resolve_seed(args)
    est = simplex_volume_mc(
        args.order, samples=args.samples, seed=seed, threads=args.threads
    )
    payload = {
        "meta": _meta(args, seed),
        "n": est.n,
        "value": est.value,
        "std_error": est.std_error,
        "samples": est.samples,
    }
    _emit(args, payload)
    return EXIT_OK


def cmd_selftest(args):
    seed = _resolve_seed(args)
    report = run_selftest(seed, quick=args.quick, threads=args.threads)
    payload = {"meta": _meta(args, seed)}
    payload.update(report)
    _emit(args, payload)
    if not report["all_pass"]:
        print("selftest failed: " + ", ".join(report["failed"]), file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


COMMANDS = {
    "apply": cmd_apply,
    "deriv": cmd_deriv,
    "bound": cmd_bound,
    "probe": cmd_probe,
    "volume": cmd_volume,
    "selftest": cmd_selftest,
}


@cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="hermcalc",
        description=(
            "Apply scalar functions to Hermitian matrices and compute their "
            "directional derivatives, error bounds, and probes."
        ),
        epilog=(
            "CSV columns for probe: " + CSV_HEADER + ". JSON outputs carry "
            '"schema": 1 in their meta block. Matrix files: '
            '{"dim": d, "entries": [[re, im], ...] row-major}.'
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--matrix", help="path to the matrix JSON file")
        p.add_argument(
            "--dir", action="append", default=[],
            help="direction matrix JSON path (repeat once per direction)",
        )
        p.add_argument(
            "--function",
            help="function spec: inline JSON, bare kind (exp, sin, cos, "
            "gaussian, monomial:K), or a path to a JSON spec",
        )
        p.add_argument("--order", type=int, help="derivative order n")
        p.add_argument("--radius", type=float, help="ball radius r")
        p.add_argument(
            "--method", choices=("dd", "mc", "fourier"), default="dd",
            help="derivative path (default dd)",
        )
        p.add_argument(
            "--samples", type=int, default=10000,
            help="sample budget for mc / probe / volume (default 10000)",
        )
        p.add_argument(
            "--seed", type=int, default=None,
            help=f"RNG seed; falls back to HERMCALC_SEED, then {DEFAULT_SEED}",
        )
        p.add_argument(
            "--threads", type=int, default=1,
            help="accepted and ignored (hermcalc starts no worker threads)",
        )
        p.add_argument("--out", help="write the artifact here instead of stdout")
        p.add_argument(
            "--format", choices=("json", "csv"), default="json",
            help="artifact format (csv only for probe)",
        )
        p.add_argument("--dim", type=int, default=4,
                       help="matrix dimension for probe (default 4)")
        p.add_argument("--quick", action="store_true",
                       help="selftest: reduced budgets, under a minute")
        return p

    add("apply", "apply g to a Hermitian matrix")
    add("deriv", "n-th directional derivative of g")
    add("bound", "seminorm bound for g on a ball")
    add("probe", "randomized lower-bound probe against the bound")
    add("volume", "MC volume of the corner simplex (sanity check)")
    add("selftest", "run the invariant suite")
    return parser


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, 0 on --help
        return int(exc.code) if exc.code is not None else 0
    args._argv = list(argv)
    try:
        return COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except HermcalcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
