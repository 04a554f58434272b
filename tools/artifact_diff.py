"""Compare the artifacts two hermcalc source trees write for the benchmark's requests.

    python tools/artifact_diff.py A B [--workload W ...] [--seed N] [--limit K]

A and B are source checkouts (or their src/ directories). Each workload's
request sequence comes from bench/workloads.py, built once into a scratch
directory, and is run in this process through hermcalc.cli.main, first
against A, then against B, with hermcalc imported afresh for each tree.
Per workload it prints how many artifacts are byte-identical and the
largest relative entry distance: over the numeric fields of each pair of
artifacts (meta aside), max |a - b| over max |a|. It exits 0 when every
artifact is byte-identical, else 1.
"""

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("deriv", "probe", "crosscheck")


def source_dir(path):
    """The directory holding the hermcalc package: path/src or path itself."""
    path = Path(path).resolve()
    src = path / "src" if (path / "src" / "hermcalc").is_dir() else path
    if not (src / "hermcalc" / "__init__.py").is_file():
        raise SystemExit(f"artifact_diff: no hermcalc package under {path}")
    return src


def run_tree(src, requests):
    """The artifact bytes of each request (None where it exits nonzero or
    raises), with hermcalc imported from src alone."""
    for name in [m for m in sys.modules if m == "hermcalc" or m.startswith("hermcalc.")]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        import hermcalc.cli

        if Path(hermcalc.cli.__file__).resolve().parent != src / "hermcalc":
            raise SystemExit(f"artifact_diff: imported {hermcalc.cli.__file__}, not {src}")
        artifacts = []
        for req in requests:
            out = Path(req.argv[req.argv.index("--out") + 1])
            out.unlink(missing_ok=True)
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                    code = hermcalc.cli.main(list(req.argv))
            except Exception:  # a raising request writes no artifact to compare
                code = None
            artifacts.append(out.read_bytes() if code == 0 and out.is_file() else None)
        return artifacts
    finally:
        sys.path.remove(str(src))


def distance(a, b):
    """Largest relative distance between the numeric fields of two artifact
    documents: per field, max |a - b| over max |a|; inf where a field is
    missing or its shape differs. String fields are not compared."""
    worst = 0.0
    for key in a.keys() - {"meta"}:
        try:
            x, y = np.asarray(a[key], dtype=float), np.asarray(b.get(key), dtype=float)
        except (TypeError, ValueError):
            continue
        if x.shape != y.shape:
            return float("inf")
        diff, scale = float(np.max(np.abs(x - y), initial=0.0)), float(np.max(np.abs(x), initial=0.0))
        worst = max(worst, diff / scale if scale else (0.0 if diff == 0.0 else float("inf")))
    return worst


def compare(workload, seed, limit, sides):
    import workloads

    with tempfile.TemporaryDirectory(prefix="artifact_diff_") as work:
        requests = workloads.build(workload, seed, Path(work))[:limit]
        a, b = (run_tree(src, requests) for src in sides)
    lines, worst, same = [], 0.0, 0
    for i, (req, x, y) in enumerate(zip(requests, a, b)):
        if x is not None and x == y:
            same += 1
            continue
        dist = distance(json.loads(x), json.loads(y)) if x and y else float("inf")
        worst = max(worst, dist)
        what = "no artifact on a side" if dist == float("inf") else f"distance {dist:.3g}"
        lines.append(f"  request {i} ({req.kind}, {req.g}, n = {req.order}): {what}")
    print(f"{workload}: {same} of {len(requests)} identical, "
          f"largest relative entry distance {worst:.3g}")
    for line in lines:
        print(line)
    return same == len(requests)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", help="first source tree")
    ap.add_argument("b", help="second source tree")
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="a workload to run, once each (default all three)")
    ap.add_argument("--seed", type=int, default=202, help="workload seed (default %(default)s)")
    ap.add_argument("--limit", type=int, help="the first LIMIT requests of each workload only")
    args = ap.parse_args(argv)
    sides = source_dir(args.a), source_dir(args.b)
    sys.path.insert(0, str(ROOT / "bench"))
    results = [compare(w, args.seed, args.limit, sides) for w in args.workload or WORKLOADS]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
