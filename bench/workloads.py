"""The benchmark's three workloads: seeded inputs, request argv, pass rules.

Each workload is one fixed sequence of CLI requests (a pass). All inputs
come from numpy.random.default_rng(workload_seed); hermcalc receives only
the generated matrix files and argv, with an explicit per-request --seed.

deriv       `deriv --method dd`. Shapes cycle over SHAPES and g over
            exp, gaussian, sin; one request in four has a clustered
            spectrum (four eigenvalues a gap apart, gap log-uniform in
            [1e-8, 1e-2]), which drives the Taylor/Newton branch and the
            known accuracy defect there; random spectra whose eigenvalues
            happen to lie closer than DD_DEFECT_GAP show it too at n=4
            (see known_dd_defect). Chain enumeration and evaluation dominate;
            at d=32 the eigensolver shows.
probe       `probe --format json --samples 32`, g x d x n crossed once
            with r cycling: about 80 small evaluations per request, each
            paying n+2 eigensolves, so the linalg layer dominates.
crosscheck  `deriv --method fourier --radius 2` alternating with
            `deriv --method mc --function exp --samples 100000`: the dense
            Fourier transform, the synthesis over a long z axis and the MC
            block, with few chains and almost no eigensolver time.

Pass rules, checked outside the timed span against oracle.py:
dd within 1e-10 of max|oracle|, fourier within 1e-5 of max|oracle|, mc
every entry within 5 standard errors (plus a 1e-12 max|oracle| rounding
floor), probe empirical >= max|g^(n)(+-r)| (1 - 1e-9).
"""

import json
from dataclasses import dataclass, field

import numpy as np

DERIV_SHAPES = ((8, 2), (8, 3), (8, 4), (16, 2), (16, 3), (16, 4), (32, 2))
DERIV_FUNCTIONS = ("exp", "gaussian", "sin")
DERIV_NORM = 3.0
DERIV_REQUESTS = 28
CLUSTER_EVERY = 4
CLUSTER_SIZE = 4
CLUSTER_GAP_LOG10 = (-8.0, -2.0)

PROBE_FUNCTIONS = ("gaussian", "sin", "exp", "monomial:3")
PROBE_ORDERS = (1, 2)
PROBE_DIMS = (4, 8)
PROBE_RADII = (0.5, 1.0, 2.0)
PROBE_SAMPLES = 32
PROBE_REQUESTS = 16

FOURIER_FUNCTIONS = ("gaussian", "sin")
FOURIER_ORDERS = (1, 2, 3)
FOURIER_RADIUS = 2.0
FOURIER_NORM_FRACTION = (0.3, 0.95)
MC_ORDERS = (2, 3)
MC_SAMPLES = 100000
CROSS_DIMS = (4, 8)
CROSS_REQUESTS = 24

DD_TOL = 1e-10
FOURIER_TOL = 1e-5
MC_SIGMAS = 5.0
MC_FLOOR = 1e-12
PROBE_REL = 1e-9
# Oracle scan of the closest random spectra of each n>=3 shape over 400
# seeds: the misses were all at n=4 with smallest eigenvalue gap at most
# 3.6e-2 (relative error up to 4.4e-10), errors stayed below 2e-11 for
# gaps in [3.8e-2, 5e-2] and below 5e-12 above, and n<=3 stayed below
# 3e-12 down to gap 1e-2. See known_dd_defect.
DD_DEFECT_ORDER = 4
DD_DEFECT_GAP = 5e-2


@dataclass
class Request:
    kind: str  # dd, fourier, mc or probe
    g: str
    argv: list
    x: np.ndarray = None
    dirs: list = field(default_factory=list)
    order: int = 0
    radius: float = 0.0
    clustered: bool = False


def _hermitian(gen, d, norm):
    a = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
    h = 0.5 * (a + a.conj().T)
    return h * (norm / np.linalg.norm(h, 2))


def _unitary(gen, d):
    q, r = np.linalg.qr(gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _clustered(gen, d, norm):
    """Four eigenvalues a log-uniform gap apart, one at +-norm, the rest
    uniform in [-norm, norm], rotated by a random unitary."""
    gap = 10.0 ** gen.uniform(*CLUSTER_GAP_LOG10)
    start = gen.uniform(-norm, norm - (CLUSTER_SIZE - 1) * gap)
    lam = np.concatenate(
        [
            start + gap * np.arange(CLUSTER_SIZE),
            [norm * gen.choice((-1.0, 1.0))],
            gen.uniform(-norm, norm, d - CLUSTER_SIZE - 1),
        ]
    )
    u = _unitary(gen, d)
    x = (u * lam) @ u.conj().T
    return 0.5 * (x + x.conj().T)


def write_matrix(m, path):
    entries = [[float(z.real), float(z.imag)] for z in m.ravel()]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"dim": int(m.shape[0]), "entries": entries}, fh)


def _seed(gen):
    return int(gen.integers(0, 2**31 - 1))


def _deriv_request(workdir, tag, kind, g, x, dirs, gen, extra, clustered=False):
    write_matrix(x, workdir / f"{tag}_x.json")
    argv = ["deriv", "--matrix", str(workdir / f"{tag}_x.json"), "--function", g]
    for j, v in enumerate(dirs):
        write_matrix(v, workdir / f"{tag}_v{j}.json")
        argv += ["--dir", str(workdir / f"{tag}_v{j}.json")]
    argv += ["--method", kind] + extra + ["--seed", str(_seed(gen))]
    argv += ["--out", str(workdir / f"{tag}_out.json")]
    return Request(kind=kind, g=g, argv=argv, x=x, dirs=dirs, order=len(dirs), clustered=clustered)


def _deriv(gen, workdir):
    reqs = []
    for i in range(DERIV_REQUESTS):
        d, n = DERIV_SHAPES[i % len(DERIV_SHAPES)]
        g = DERIV_FUNCTIONS[i % len(DERIV_FUNCTIONS)]
        clustered = i % CLUSTER_EVERY == CLUSTER_EVERY - 1
        x = _clustered(gen, d, DERIV_NORM) if clustered else _hermitian(gen, d, DERIV_NORM)
        dirs = [_hermitian(gen, d, 1.0) for _ in range(n)]
        reqs.append(_deriv_request(workdir, f"r{i}", "dd", g, x, dirs, gen, [], clustered))
    return reqs


def _probe(gen, workdir):
    reqs = []
    for i in range(PROBE_REQUESTS):
        # g x d x n fully crossed, r cycling
        n = PROBE_ORDERS[i % len(PROBE_ORDERS)]
        d = PROBE_DIMS[(i // len(PROBE_ORDERS)) % len(PROBE_DIMS)]
        g = PROBE_FUNCTIONS[i // (len(PROBE_ORDERS) * len(PROBE_DIMS))]
        r = PROBE_RADII[i % len(PROBE_RADII)]
        argv = [
            "probe", "--function", g, "--order", str(n), "--radius", repr(r),
            "--dim", str(d), "--samples", str(PROBE_SAMPLES),
            "--seed", str(_seed(gen)), "--format", "json",
            "--out", str(workdir / f"r{i}_out.json"),
        ]
        reqs.append(Request(kind="probe", g=g, argv=argv, order=n, radius=r))
    return reqs


def _crosscheck(gen, workdir):
    reqs = []
    for i in range(CROSS_REQUESTS):
        j = i // 2
        if i % 2 == 0:
            d = CROSS_DIMS[j % 2]
            n = MC_ORDERS[(j // 2) % len(MC_ORDERS)]
            kind, g, extra = "mc", "exp", ["--samples", str(MC_SAMPLES)]
        else:
            g = FOURIER_FUNCTIONS[j % 2]
            d = CROSS_DIMS[(j // 2) % 2]
            n = FOURIER_ORDERS[(j // 4) % len(FOURIER_ORDERS)]
            kind, extra = "fourier", ["--radius", repr(FOURIER_RADIUS)]
        x = _hermitian(gen, d, FOURIER_RADIUS * gen.uniform(*FOURIER_NORM_FRACTION))
        dirs = [_hermitian(gen, d, 1.0) for _ in range(n)]
        reqs.append(_deriv_request(workdir, f"r{i}", kind, g, x, dirs, gen, extra))
    return reqs


def build(workload, seed, workdir):
    """Write the inputs of one pass under workdir and return its requests."""
    gen = np.random.default_rng(seed)
    return {"deriv": _deriv, "probe": _probe, "crosscheck": _crosscheck}[workload](
        gen, workdir
    )


def warmup_argv(workload, workdir):
    """One small request that loads the code paths the workload uses."""
    out = str(workdir / "warmup_out.json")
    if workload == "probe":
        return [
            "probe", "--function", "gaussian", "--order", "1", "--radius", "1",
            "--dim", "2", "--samples", "1", "--seed", "0", "--out", out,
        ]
    gen = np.random.default_rng(0)
    method = ["mc", "--samples", "1000"] if workload == "crosscheck" else ["dd"]
    write_matrix(_hermitian(gen, 4, 1.0), workdir / "warmup_x.json")
    write_matrix(_hermitian(gen, 4, 1.0), workdir / "warmup_v.json")
    return [
        "deriv", "--matrix", str(workdir / "warmup_x.json"),
        "--dir", str(workdir / "warmup_v.json"), "--function", "exp",
        "--method", *method, "--seed", "0", "--out", out,
    ]


def _matrix(doc):
    d = doc["dim"]
    flat = np.array([complex(re, im) for re, im in doc["entries"]])
    return flat.reshape(d, d)


def smallest_gap(x):
    return float(np.min(np.diff(np.linalg.eigvalsh(x))))


def known_dd_defect(req):
    """Whether a dd request lies where hermcalc's divided differences are
    known to lose accuracy: a clustered spectrum, or order DD_DEFECT_ORDER
    or more with the smallest eigenvalue gap below DD_DEFECT_GAP. An
    oracle miss anywhere else is a plain failure."""
    if req.kind != "dd":
        return False
    close = req.order >= DD_DEFECT_ORDER and smallest_gap(req.x) < DD_DEFECT_GAP
    return req.clustered or close


def check(req, artifact):
    """None when the artifact passes the request's rule, else the reason."""
    import oracle  # scipy.linalg stays out of the measured setup time and RSS

    doc = json.loads(artifact)
    if req.kind == "probe":
        lower = float(
            np.max(np.abs(oracle.scalar_derivative(req.g, req.order, [-req.radius, req.radius])))
        )
        if doc["empirical"] < lower * (1.0 - PROBE_REL):
            return f"empirical {doc['empirical']!r} below closed-form {lower!r}"
        return None
    got = _matrix(doc)
    ref = oracle.derivative(req.g, req.x, req.dirs)
    scale = float(np.max(np.abs(ref)))
    err = np.abs(got - ref)
    if req.kind == "mc":
        se = np.array(doc["std_error"])
        z = float(np.max((err - MC_FLOOR * scale) / np.maximum(se, 1e-300)))
        if z > MC_SIGMAS:
            return f"entry {z:.2f} standard errors from the oracle (limit {MC_SIGMAS:g})"
        return None
    tol = DD_TOL if req.kind == "dd" else FOURIER_TOL
    rel = float(np.max(err)) / scale
    if rel > tol:
        return (f"relative error {rel:.3e} above {tol:g}; "
                f"smallest eigenvalue gap {smallest_gap(req.x):.2e}")
    return None
