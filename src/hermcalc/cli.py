"""Command-line front end.

Subcommands: apply, deriv, bound, probe, volume, selftest. Inputs are
matrix JSON files and function specs (inline JSON, a bare kind name, or
a path); outputs are schema-versioned JSON or the fixed CSV row format
from the bounds module. Every artifact records the seed it was produced
with, so any run can be replayed exactly. Each subcommand takes only the
flags it reads, as its COMMANDS entry names them; any other flag is a
parse error.

One request path: main parses the flags, resolves the seed (--seed, else
HERMCALC_SEED, else DEFAULT_SEED, in [0, 2^32)) into args.seed before any
work, and runs the subcommand, which hands its fields to _emit; _emit adds
the meta block. A HermcalcError becomes the exit code its class carries.

Exit codes: 0 ok, 1 invariant failure, 2 parse error, 3 numeric error,
4 domain violation.
"""

import argparse
import os
import sys
from functools import cache

from . import __version__
from .bounds import CSV_HEADER, PROBE_DEFAULT_BUDGET, bound_report, reports_to_csv, seminorm_bound
from .divided import BAND_TAYLOR_SPAN, TAYLOR_SPAN
from .errors import HermcalcError, ParseError
from .expderiv import check_derivative_args, exp_derivative_mc, simplex_volume_mc
from .functions import parse_function
from .linalg import (
    HERMITIAN_REJECT_TOL,
    HermitianMatrix,
    artifact_json,
    load_matrix,
    matrix_to_dict,
    op_norm,
)
from .rng import check_seed
from .selftest import run_selftest
from .spectral import (
    FOURIER_TAIL_TOL,
    apply_function,
    check_fourier_ball,
    fourier_table,
    function_derivative_dd,
    function_derivative_fourier,
)

DEFAULT_SEED = 1729

EXIT_OK = 0
EXIT_INVARIANT = 1

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
    seed, env = args.seed, os.environ.get("HERMCALC_SEED")
    if seed is None and env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise ParseError(f"HERMCALC_SEED must be an integer, got {env!r}") from None
    return check_seed(DEFAULT_SEED if seed is None else seed)


def _emit(args, fields):
    """Write the artifact: the subcommand's fields and the meta block."""
    meta = {
        "schema": 1,
        "version": __version__,
        "command": args.command,
        "argv": args._argv,
        "seed": args.seed,
        "tolerances": TOLERANCES,
    }
    _emit_text(args, artifact_json({"meta": meta, **fields}))


def _emit_text(args, text):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_apply(args):
    g = parse_function(args.function)
    x = HermitianMatrix(load_matrix(args.matrix))
    result = apply_function(g, x)
    payload = {
        "g": g.label(),
        "dim": x.dim,
        "entries": matrix_to_dict(result)["entries"],
        "norm": op_norm(result),
        "spectrum": x.eig().eigenvalues.tolist(),
    }
    _emit(args, payload)
    if args.out:
        # norm and spectrum also on stdout for quick inspection
        print(f"||g(x)|| = {payload['norm']!r}")
        print("spec x =", " ".join(repr(v) for v in payload["spectrum"]))
    return EXIT_OK


def cmd_deriv(args):
    g = parse_function(args.function)
    x = HermitianMatrix(load_matrix(args.matrix))
    n = args.order if args.order is not None else len(args.dir)
    if n != len(args.dir):
        raise ParseError(
            f"deriv: order {n} needs {n} --dir files, got {len(args.dir)}"
        )
    dirs = [load_matrix(p) for p in args.dir]
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
            x, dirs, samples=args.samples, seed=args.seed, threads=args.threads
        )
        result = der.matrix
        extra = {"samples": der.samples, "std_error": der.std_error.tolist()}
    else:  # fourier: argparse admits no other method
        check_derivative_args(x, dirs)  # reject bad input before building the table
        check_fourier_ball(args.radius, x.eig().eigenvalues)
        table = fourier_table(g, args.radius, n_max=n)
        der = function_derivative_fourier(table, x, dirs)
        result = der.matrix
        extra = {
            "radius": args.radius,
            "s_max": float(table.s[-1]),
            "tail_fraction": table.tail_fraction,
        }
    _emit(args, {
        "g": g.label(),
        "order": n,
        "method": method,
        "dim": x.dim,
        "entries": matrix_to_dict(result)["entries"],
        "norm": op_norm(result),
        **extra,
    })
    return EXIT_OK


def cmd_bound(args):
    g = parse_function(args.function)
    value, method = seminorm_bound(g, args.order, args.radius)
    value = float(value)
    if args.out:
        _emit(args, {
            "g": g.label(),
            "order": args.order,
            "radius": args.radius,
            "bound": value,
            "bound_method": method,
        })
    print(repr(value))
    return EXIT_OK


def cmd_probe(args):
    g = parse_function(args.function)
    report = bound_report(
        g, args.order, args.radius, args.dim, budget=args.samples, seed=args.seed
    )
    if args.format == "csv":
        _emit_text(args, reports_to_csv([report]))
    else:
        _emit(args, {
            "g": report.g_label,
            "order": report.n,
            "radius": report.r,
            "dim": report.d,
            "bound": report.bound,
            "bound_method": report.bound_method,
            "empirical": report.empirical,
            "slack": report.slack,
            "samples": report.samples,
        })
    if report.slack < TOLERANCES["probe_slack_floor"]:
        print(
            f"probe: bound violated: slack {report.slack!r} below "
            f"{TOLERANCES['probe_slack_floor']:g}",
            file=sys.stderr,
        )
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_volume(args):
    est = simplex_volume_mc(
        args.order, samples=args.samples, seed=args.seed, threads=args.threads
    )
    _emit(args, {"n": est.n, "value": est.value, "std_error": est.std_error,
                 "samples": est.samples})
    return EXIT_OK


def cmd_selftest(args):
    report = run_selftest(args.seed, quick=args.quick, threads=args.threads)
    _emit(args, report)
    if not report["all_pass"]:
        print("selftest failed: " + ", ".join(report["failed"]), file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


# argparse keywords of every flag, defined once
FLAGS = {
    "matrix": {"help": "path to the matrix JSON file"},
    "dir": {"action": "append", "default": [], "help": "direction matrix JSON path, once each"},
    "function": {
        "help": "function spec: inline JSON, bare kind (exp, sin, cos, gaussian, monomial:K), "
        "or a path to a JSON spec",
    },
    "order": {"type": int, "help": "derivative order n"},
    "radius": {"type": float, "help": "ball radius r (deriv: of the fourier table)"},
    "method": {"choices": ("dd", "mc", "fourier"), "default": "dd", "help": "(default dd)"},
    "samples": {
        "type": int, "default": 10000,
        "help": "samples of deriv --method mc and volume, random candidates of probe "
        "(default %(default)s)",
    },
    "dim": {"type": int, "default": 4, "help": "matrix dimension (default %(default)s)"},
    "format": {"choices": ("json", "csv"), "default": "json", "help": "(default json)"},
    "quick": {"action": "store_true", "help": "reduced budgets, under a minute"},
    "seed": {"type": int, "help": f"RNG seed; else HERMCALC_SEED, else {DEFAULT_SEED}"},
    "out": {"help": "write the artifact here instead of stdout"},
    "threads": {"type": int, "default": 1, "help": "accepted and ignored (no worker threads)"},
}
COMMON_FLAGS = ("seed", "out", "threads")

# name: (handler, help, required flags, optional flags, defaults that differ
# from FLAGS); a subcommand takes exactly these flags and COMMON_FLAGS
COMMANDS = {
    "apply": (cmd_apply, "apply g to a Hermitian matrix", ("matrix", "function"), (), {}),
    "deriv": (
        cmd_deriv, "n-th directional derivative of g", ("matrix", "function"),
        ("dir", "order", "method", "samples", "radius"), {"radius": 2.0},
    ),
    "bound": (cmd_bound, "seminorm bound for g on a ball", ("function", "order", "radius"), (), {}),
    "probe": (
        cmd_probe, "randomized lower-bound probe against the bound",
        ("function", "order", "radius"), ("dim", "samples", "format"),
        {"samples": PROBE_DEFAULT_BUDGET},
    ),
    "volume": (cmd_volume, "MC volume of the corner simplex", ("order",), ("samples",), {}),
    "selftest": (cmd_selftest, "run the invariant suite", (), ("quick",), {}),
}


@cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="hermcalc",
        allow_abbrev=False,
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
    for name, (_, help_text, required, optional, defaults) in COMMANDS.items():
        # no abbreviated flags: the flag table is the whole argv grammar
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for flag in required:
            p.add_argument(f"--{flag}", required=True, **FLAGS[flag])
        for flag in optional + COMMON_FLAGS:
            p.add_argument(f"--{flag}", **FLAGS[flag])
        p.set_defaults(**defaults)
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
        args.seed = _resolve_seed(args)  # before any work
        return COMMANDS[args.command][0](args)
    except HermcalcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
