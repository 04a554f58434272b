"""The built-in consistency battery in quick mode."""

import json
from types import SimpleNamespace

import numpy as np
import pytest

import hermcalc.expderiv
import hermcalc.selftest as st
from hermcalc.errors import ParseError
from hermcalc.selftest import CHECKS, run_selftest


def test_check_names_are_unique():
    names = [name for name, _ in CHECKS]
    assert len(names) == len(set(names)) == 13


def test_quick_subset_passes():
    report = run_selftest(
        seed=5,
        quick=True,
        names=[
            "simplex-volume",
            "composition-count",
            "power-derivative-vs-words",
            "exp-time-derivative",
        ],
    )
    assert report["all_pass"] is True
    assert report["failed"] == []
    assert report["mode"] == "quick"
    assert len(report["checks"]) == 4
    for entry in report["checks"]:
        assert entry["status"] == "pass"
        assert isinstance(entry["detail"], str)


def test_report_is_deterministic_and_serializable():
    a = run_selftest(seed=5, quick=True, names=["composition-count", "exp-sum-rule"])
    b = run_selftest(seed=5, quick=True, names=["composition-count", "exp-sum-rule"])
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_broken_reference_is_caught(monkeypatch):
    # negative control: corrupt the volume reference and expect the
    # battery to flag exactly that check
    monkeypatch.setattr(
        hermcalc.expderiv, "reference_simplex_volume", lambda n: 0.123
    )
    report = run_selftest(seed=5, quick=True, names=["simplex-volume"])
    assert report["all_pass"] is False
    assert report["failed"] == ["simplex-volume"]
    assert report["checks"][0]["status"] == "fail"


def test_crashing_check_counts_as_failure(monkeypatch):
    def boom(n, samples, seed, threads=1):
        raise RuntimeError("injected crash")

    monkeypatch.setattr(hermcalc.expderiv, "simplex_volume_mc", boom)
    import hermcalc.selftest as st

    monkeypatch.setattr(st, "simplex_volume_mc", boom, raising=False)
    report = run_selftest(seed=5, quick=True, names=["simplex-volume"])
    assert report["all_pass"] is False
    assert "simplex-volume" in report["failed"]


def test_mc_check_keeps_its_seeds_in_range_at_the_top_seed():
    # instance i draws with seed + i, wrapped into [0, 2^32)
    report = run_selftest(seed=2**32 - 1, quick=True, names=["exp-derivative-dd-vs-mc"])
    assert report["all_pass"] is True, report["checks"]


@pytest.mark.parametrize("names", [["simplex-volum"], ["composition-count", "no-such-check"],
                                   "simplex-volume"])
def test_unknown_check_names_and_a_bare_string_are_refused(names):
    with pytest.raises(ParseError, match="no-such-check|simplex-volum"):
        run_selftest(seed=5, quick=True, names=names)


def _shifted(fn, shift):
    """fn with shift(*its arguments) added to its result."""
    return lambda *args, **kw: fn(*args, **kw) + shift(*args, **kw)


def _offset_matrix(fn, offset):
    """fn whose result's matrix has offset added to every entry."""
    def wrong(*args, **kw):
        out = fn(*args, **kw)
        return SimpleNamespace(matrix=out.matrix + offset, std_error=out.std_error)
    return wrong


# check -> the names of hermcalc.selftest it replaces, by a function of the
# original, so that the check's reference or computed value is wrong
BREAKS = {
    "simplex-volume-sigma": ("simplex-volume", "expderiv.reference_simplex_volume",
                             lambda ref: lambda n: 1.0 if n == 1 else 2.0 * ref(n)),
    "composition-count": ("composition-count", "enum_compositions", lambda f: lambda n, k: []),
    "power-derivative-vs-words": ("power-derivative-vs-words", "symbolic_power_expand",
                                  lambda f: _shifted(f, lambda k, x, dirs: 1.0)),
    "exp-derivative-dd-vs-mc": ("exp-derivative-dd-vs-mc", "exp_derivative_mc",
                                lambda f: _offset_matrix(f, 1.0)),
    "exp-derivative-vs-quadrature": ("exp-derivative-vs-quadrature", "exp_chain_quadrature",
                                     lambda f: _shifted(f, lambda x, v, nodes: 1.0)),
    "imaginary-exp-unitary": ("imaginary-exp-unitary", "mat_exp",
                              lambda f: lambda x, t=1.0: 2.0 * f(x, t)),
    "exp-sum-rule": ("exp-sum-rule", "mat_exp", lambda f: _shifted(f, lambda x, t=1.0: 1.0)),
    "exp-time-derivative": ("exp-time-derivative", "exp_derivative_dd",
                            lambda f: _offset_matrix(f, 1.0)),
    "derivative-scaling-bound": ("derivative-scaling-bound", "exp_derivative_dd",
                                 lambda f: _offset_matrix(f, 10.0)),
    "power-seminorm-bound": ("power-seminorm-bound", "power_bound", lambda f: lambda k, n, r: 0.0),
    "power-seminorm-tight-case": ("power-seminorm-bound", "probe_seminorm",
                                  lambda f: lambda *args, **kw: SimpleNamespace(value=0.0)),
    "sobolev-seminorm-bound": ("sobolev-seminorm-bound", "sobolev_bound",
                               lambda f: lambda g, n, r: 0.0),
    "function-derivative-dd-vs-fourier": ("function-derivative-dd-vs-fourier",
                                          "function_derivative_fourier",
                                          lambda f: _offset_matrix(f, 1.0)),
    # the error grows as h, not as h^2
    "finite-difference-slope": ("finite-difference-convergence", "fd_derivative",
                                lambda f: _shifted(f, lambda fn, x, dirs, c: c.step)),
    # slope 2, but 1e3 h^2 at h = 1e-4 is 1e-5
    "finite-difference-order-1": ("finite-difference-convergence", "fd_derivative",
                                  lambda f: _shifted(f, lambda fn, x, dirs, c: 1e3 * c.step**2)),
    "finite-difference-order-2": ("finite-difference-convergence", "fd_derivative",
                                  lambda f: _shifted(f, lambda fn, x, dirs, c: len(dirs) == 2)),
}


@pytest.mark.parametrize("name, target, wrong", BREAKS.values(), ids=BREAKS.keys())
def test_each_check_reports_its_failure(monkeypatch, name, target, wrong):
    module, _, attr = target.rpartition(".")
    owner = getattr(st, module) if module else st
    monkeypatch.setattr(owner, attr, wrong(getattr(owner, attr)))
    report = run_selftest(seed=5, quick=True, names=[name])
    assert report["failed"] == [name] and report["all_pass"] is False
    (entry,) = report["checks"]
    assert entry["status"] == "fail"
    # the check's own message, formatted, not the crash report of a bad format
    assert isinstance(entry["detail"], str) and not entry["detail"].startswith("raised ")
