"""hermcalc benchmark: one closed-loop caller issuing CLI requests in process.

    python3 bench/run.py --workload {deriv,probe,crosscheck} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; hermcalc is imported from src/.
A pass is the workload's fixed request sequence (see workloads.py), sized
to take about --seconds on a 2-core machine, each request going through
hermcalc.cli.main(argv) with --out set to a file. One untraced pass is
timed; every artifact is then checked against the oracle, and one request
is reissued to check that it reproduces its bytes.

--trace 0 prints the end-to-end metrics: setup_s (median over fresh
processes, before and after the pass, of importing hermcalc, writing the
inputs and one warm-up request), wall_s (sum of the pass's request
latencies), wall_norm (wall_s over the time of reference_kernel(), run
once before each request), latency_p50_ms and latency_tail_ms
(Harrell-Davis estimates over the pass's requests; the tail is the
highest percentile with at least ten requests beyond it), peak_rss_mb
and failed_frac. Only setup_s, wall_norm and peak_rss_mb go into the
result object. On a shared 2-core machine whose speed drifts by tens of
percent within minutes, wall_s spread by up to 0.33 of its median over
a few seeds, more than the largest bound allowed, while wall_norm, which
divides that drift out, stayed steady; the two latency estimates rest on
a few requests each and spread by up to 0.22; failed_frac is zero on
workloads without known defects.

--trace 1 follows the untraced pass with a traced pass and a second,
warm untraced pass, and prints the per-layer metrics from tracer.py,
trace.coverage (share of the traced wall_s that layer spans cover) and
trace.overhead_frac (traced over warm untraced wall_norm, minus one);
the artifacts of both added passes are checked against the oracle too.

The last stdout line is the result object. A request fails when it
raises, exits nonzero, misses its pass rule or changes its bytes on
replay. `correct` is false when any failure falls outside the known
accuracy defect of the dd route at close eigenvalues (workloads.py,
known_dd_defect); misses inside it are still counted in `failed`.
"""

import argparse
import contextlib
import ctypes
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BLAS_THREADS = 1
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# per side of the timed pass, so the median spans two moments of the run
SETUP_REPEATS = 5
MIN_TAIL_BEYOND = 10
PASS_LABELS = ("", "traced pass: ", "warm untraced pass: ")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def check_sources():
    if not (SRC / "hermcalc" / "__init__.py").is_file():
        raise BenchError(f"no hermcalc sources under {SRC}")


def import_hermcalc():
    check_sources()
    sys.path.insert(0, str(SRC))
    import hermcalc.cli

    if Path(hermcalc.__file__).resolve().parent != SRC / "hermcalc":
        raise BenchError(f"imported hermcalc from {hermcalc.__file__}, not {SRC}")
    return hermcalc.cli


def call(cli, argv):
    """Run one request; returns (exit code, captured output)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def setup(workload, seed, workdir):
    """Import hermcalc, write the inputs, run one warm-up request."""
    cli = import_hermcalc()
    import workloads

    requests = workloads.build(workload, seed, workdir)
    code, text = call(cli, workloads.warmup_argv(workload, workdir))
    if code != 0:
        raise BenchError(f"warm-up request exited {code}: {text.strip()}")
    return cli, requests


def setup_child(workload, seed):
    t0 = time.perf_counter()
    workdir = Path(tempfile.mkdtemp(prefix="setup_", dir=WORK)).relative_to(ROOT)
    try:
        setup(workload, seed, workdir)
        print(repr(time.perf_counter() - t0))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(workload, seed):
    """Set-up times of SETUP_REPEATS fresh processes, run one after another."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-child",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise BenchError(f"setup process failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def reference_kernel():
    """Seconds taken by a fixed mix of the kinds of work hermcalc does
    (interpreter loops on Python scalars, small matrix products, sorts of
    integer arrays) that shares no code with hermcalc, so its time follows
    the machine's speed, which on a shared host drifts by tens of percent
    within minutes. It allocates little, so it does not set peak_rss_mb."""
    import numpy as np

    t0 = time.perf_counter()
    z, acc = 0.3 + 0.1j, 0
    for k in range(60000):
        z = z * z * 0.5 + 0.1j
        acc += k * k % 7
    a = np.arange(64.0).reshape(8, 8)
    for _ in range(400):
        a = a @ a.T
        a /= np.abs(a).max()
    for _ in range(4):
        np.unique((np.arange(30000) * 7919) % 15013)
    return time.perf_counter() - t0


def run_pass(cli, requests, tracer=None):
    """Issue every request once, each after one reference_kernel() run;
    returns (wall, reference, latencies, results), wall being the sum of
    the request latencies and reference that of the kernel times."""
    latencies, results, reference = [], [], 0.0
    for i, req in enumerate(requests):
        if tracer is not None:
            tracer.request = i
        out = Path(req.argv[req.argv.index("--out") + 1])
        out.unlink(missing_ok=True)  # so a stale artifact cannot pass the replay check
        reference += reference_kernel()
        t0 = time.perf_counter()
        try:
            code, text = call(cli, req.argv)
            error = None if code == 0 else f"exit code {code}: {text.strip()[-300:]}"
        except Exception as exc:  # a raising request is a failed request
            error = f"raised {type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)
        artifact = out.read_bytes() if error is None and out.is_file() else None
        if error is None and artifact is None:
            error = "no artifact written"
        results.append((error, artifact))
    return sum(latencies), reference, latencies, results


def tail_percentile(k):
    """Highest percentile with at least ten of k requests beyond it."""
    return 100.0 * (k - MIN_TAIL_BEYOND) / k


def verdicts(requests, passes, replay):
    """One (request index, argv, error, excused) tuple per failed request.
    `excused` marks an oracle miss inside the known dd defect region."""
    import workloads

    failed = []
    for p, results in enumerate(passes):
        for i, (error, artifact) in enumerate(results):
            req, excused = requests[i], False
            if error is None:
                try:
                    reason = workloads.check(req, artifact)
                    excused = reason is not None and workloads.known_dd_defect(req)
                except (ValueError, KeyError, TypeError) as exc:
                    reason = f"unreadable artifact: {type(exc).__name__}: {exc}"
                error = None if reason is None else "oracle: " + reason
            if error is not None:
                failed.append((i, req.argv, PASS_LABELS[p] + error, excused))
    index, (error, artifact) = replay
    if error is None and artifact != passes[0][index][1]:
        error = "artifact differs"
    if error is not None:
        failed.append((index, requests[index].argv, "replay: " + error, False))
    return failed


def provenance(workload, seed, seconds):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except OSError:
            pass
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads_reported": blas_threads(numpy),
        "git_commit": commit,
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def blas_threads(numpy):
    """Threads OpenBLAS reports, or None when it cannot be asked."""
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            fn = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.argtypes = []
        fn.restype = ctypes.c_int
        return fn()
    return None


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("deriv", "probe", "crosscheck"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    # before numpy loads; setup processes inherit it
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)

    os.chdir(ROOT)
    check_sources()
    WORK.mkdir(exist_ok=True)
    if args.setup_child:
        setup_child(args.workload, args.seed)
        return 0

    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}_", dir=WORK)).relative_to(ROOT)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir):
    setup_times = [] if args.trace else measure_setup(args.workload, args.seed)
    cli, requests = setup(args.workload, args.seed, workdir)

    wall, reference, latencies, results = run_pass(cli, requests)
    passes = [results]
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        try:
            tracer.install()
            traced_wall, traced_reference, _, traced_results = run_pass(cli, requests, tracer)
        finally:
            tracer.uninstall()
        # the first pass also pays first-touch costs (deriv's ~250 MB of
        # arrays), so the overhead baseline is an untraced pass as warm as
        # the traced one
        warm_wall, warm_reference, _, warm_results = run_pass(cli, requests)
        passes += [traced_results, warm_results]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    replay_index = args.seed % len(requests)
    replay = (replay_index, run_pass(cli, [requests[replay_index]])[3][0])
    failed = verdicts(requests, passes, replay)
    attempted = sum(len(p) for p in passes) + 1
    if not args.trace:
        setup_times += measure_setup(args.workload, args.seed)

    print(f"provenance {json.dumps(provenance(args.workload, args.seed, args.seconds))}")
    if args.trace:
        metrics = {}
        for key, value in tracer.summary(traced_wall).items():
            unit = "s" if key.endswith("self_s") else "frac" if key.startswith("trace.") else "count"
            metrics[key] = metric(value, unit)
        overhead = (traced_wall / traced_reference) / (warm_wall / warm_reference) - 1.0
        metrics["trace.overhead_frac"] = metric(overhead, "frac")
        print("computed from result sizes, not measured: "
              "divided.chain_tensor.chains_*, spectral.fourier_table.dft_macs")
        if tracer.absent:
            print("absent functions (reported as 0): " + ", ".join(tracer.absent))
        if tracer.count_failures:
            print("counts unavailable: " + ", ".join(sorted(tracer.count_failures)))
    else:
        metrics = {
            "setup_s": metric(statistics.median(setup_times), "s"),
            "wall_norm": metric(wall / reference, "ratio"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
    for key, m in metrics.items():
        print(f"{args.workload}.{key} = {m['value']:.6g} {m['unit']}")

    from scipy.stats.mstats import hdquantiles

    print(f"{args.workload}.wall_s = {wall:.6g} s (reference kernel {reference:.6g} s)")
    tail_q = tail_percentile(len(latencies))
    p50_ms, tail_ms = (1e3 * float(v) for v in hdquantiles(latencies, prob=[0.5, tail_q / 100.0]))
    print(f"{args.workload}.latency_p50_ms = {p50_ms:.6g} ms")
    print(f"{args.workload}.latency_tail_ms = {tail_ms:.6g} ms "
          f"(p{tail_q:.1f}, {len(latencies)} requests)")
    print(f"{args.workload}.failed_frac = {len(failed) / attempted:.6g} frac "
          f"({len(failed)} of {attempted} requests)")
    for i, argv, error, excused in failed:
        note = " [known dd defect at close eigenvalues]" if excused else ""
        print(f"FAILED request {i}{note}: {error}\n    argv: {' '.join(argv)}")
    correct = all(excused for *_, excused in failed)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": len(failed), "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
