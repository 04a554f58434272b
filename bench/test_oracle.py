"""Checks of the benchmark's own oracle, tracer and excused-failure rule:
python3 -m pytest bench"""

import sys
import types

import numpy as np
import pytest

import oracle
import tracer
import workloads


@pytest.mark.parametrize("g", oracle.FUNCTIONS)
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_diagonal_point_identity_directions_give_scalar_derivative(g, n):
    lam = np.array([-2.5, -0.3, 0.0, 1.1, 2.9])
    eye = np.eye(len(lam), dtype=np.complex128)
    got = oracle.derivative(g, np.diag(lam).astype(np.complex128), [eye] * n)
    want = np.diag(oracle.scalar_derivative(g, n, lam))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))


def test_first_derivative_of_exp_at_commuting_direction():
    # D exp(x)[x] = x exp(x) when the direction commutes with x
    gen = np.random.default_rng(3)
    a = gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4))
    x = 0.5 * (a + a.conj().T)
    lam, u = np.linalg.eigh(x)
    want = (u * (lam * np.exp(lam))) @ u.conj().T
    np.testing.assert_allclose(oracle.derivative("exp", x, [x]), want, atol=1e-12)


def test_tracer_reports_missing_functions_as_absent(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    linalg = types.ModuleType("fakepkg.linalg")
    calls = []

    def eig(m):
        calls.append(m)
        return m

    linalg.eig = eig
    user = types.ModuleType("fakepkg.user")
    user.eig = eig  # a `from .linalg import eig` copy
    for name, mod in (("fakepkg", pkg), ("fakepkg.linalg", linalg), ("fakepkg.user", user)):
        monkeypatch.setitem(sys.modules, name, mod)

    t = tracer.Tracer(package="fakepkg")
    t.install()
    try:
        user.eig(1)
        linalg.eig(2)
    finally:
        t.uninstall()
    assert user.eig is eig and linalg.eig is eig
    summary = t.summary(wall=1.0)
    assert summary["linalg.eig.calls"] == 2
    assert summary["linalg.op_norm.calls"] == 0
    assert "linalg.op_norm" in t.absent and "linalg.eig" not in t.absent
    assert "functions.eval_derivative" in t.absent


def test_coverage_counts_layer_spans_not_cli_self_time():
    t = tracer.Tracer(package="fakepkg")
    cli, eig, op = (tracer.FUNCTIONS.index(k) for k in ("cli.main", "linalg.eig", "linalg.op_norm"))
    # cli.main over [0, 10] holds eig [1, 4], which holds op_norm [2, 3];
    # a bare eig call spans [10, 12]
    spans = ((cli, -1, 0.0, 10.0), (eig, 0, 1.0, 4.0), (op, 1, 2.0, 3.0), (eig, -1, 10.0, 12.0))
    for name, parent, start, end in spans:
        t.name.append(name)
        t.parent.append(parent)
        t.req.append(0)
        t.start.append(start)
        t.end.append(end)
    summary = t.summary(wall=20.0)
    assert summary["trace.coverage"] == (3.0 + 2.0) / 20.0
    assert summary["cli.main.self_s"] == 7.0
    assert summary["linalg.eig.self_s"] == 2.0 + 2.0
    assert summary["linalg.op_norm.self_s"] == 1.0


def test_only_clustered_or_close_spectra_excuse_a_dd_miss():
    far = np.diag([-3.0, -1.0, 1.0, 3.0]).astype(np.complex128)
    close = np.diag([-3.0, 0.0, 0.5 * workloads.DD_DEFECT_GAP, 3.0]).astype(np.complex128)

    def req(kind, x, order=workloads.DD_DEFECT_ORDER, clustered=False):
        return workloads.Request(kind=kind, g="exp", argv=[], x=x, order=order, clustered=clustered)

    assert not workloads.known_dd_defect(req("dd", far))
    assert workloads.known_dd_defect(req("dd", close))
    assert not workloads.known_dd_defect(req("dd", close, order=workloads.DD_DEFECT_ORDER - 1))
    assert workloads.known_dd_defect(req("dd", far, order=2, clustered=True))
    assert not workloads.known_dd_defect(req("fourier", close))
