"""Seconds and calls per pass of named hermcalc functions on a bench workload.

    PYTHONPATH=src python tools/stage_split.py --workload probe --seed 202 \
        divided._taylor divided._newton_table bounds.derivative_matrix \
        bounds.probe_seminorm

Builds the workload's requests with bench/workloads.py (read only, nothing
under bench/ is written), runs them in process through hermcalc.cli.main
as bench/run.py does, once to warm up and then --passes timed passes, each
named function (module.attribute under hermcalc) wrapped with a timer that
counts its inclusive seconds and calls. A name is wrapped in the module it
names, so a function another module imports by name is named there
(bounds.derivative_matrix for the probe's calls). Prints one line per name: seconds
and calls per pass. Inputs and artifacts go to a temporary directory.
"""

import argparse
import contextlib
import functools
import importlib
import io
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _wrap(totals, module, attr):
    inner = getattr(module, attr)

    @functools.wraps(inner)
    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            totals[0] += time.perf_counter() - t0
            totals[1] += 1

    setattr(module, attr, timed)
    return inner


def split(workload, seed, names, passes=1):
    """{name: (seconds per pass, calls per pass)} over the timed passes."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import hermcalc.cli as cli
    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        requests = workloads.build(workload, seed, Path(tmp))

        def one_pass():
            for req in requests:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    cli.main(list(req.argv))

        one_pass()
        totals, originals = {}, []
        for name in names:
            module_name, attr = name.rsplit(".", 1)
            module = importlib.import_module(f"hermcalc.{module_name}")
            totals[name] = [0.0, 0]
            originals.append((module, attr, _wrap(totals[name], module, attr)))
        try:
            for _ in range(passes):
                one_pass()
        finally:
            for module, attr, inner in originals:
                setattr(module, attr, inner)
    return {name: (s / passes, c / passes) for name, (s, c) in totals.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=("deriv", "probe", "crosscheck"), default="probe")
    ap.add_argument("--seed", type=int, default=202)
    ap.add_argument("--passes", type=int, default=1)
    ap.add_argument("names", nargs="+", help="module.attribute under hermcalc")
    args = ap.parse_args(argv)
    for name, (seconds, calls) in split(args.workload, args.seed, args.names, args.passes).items():
        print(f"{name}\t{seconds:.4f} s\t{calls:g} calls")
    return 0


if __name__ == "__main__":
    sys.exit(main())
