"""Command-line interface, run in process through main(), and as a process
once per exit code."""

import json
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import hermcalc.bounds
import hermcalc.errors
from hermcalc.bounds import PROBE_CLIMB_STEPS, PROBE_DEFAULT_BUDGET
from hermcalc.cli import COMMANDS, _build_parser, main
from hermcalc.errors import (
    DomainError,
    HermcalcError,
    NumericError,
    OverflowRangeError,
    ParseError,
)
from hermcalc.functions import ExpFunction
from hermcalc.linalg import HERMITIAN_REJECT_TOL, save_matrix
from hermcalc.spectral import function_derivative_dd


@pytest.fixture
def mats(tmp_path):
    gen = np.random.default_rng(91)
    a = gen.normal(size=(3, 3)) + 1j * gen.normal(size=(3, 3))
    x = 0.5 * (a + a.conj().T)
    x *= 1.5 / np.linalg.norm(x, 2)
    b = gen.normal(size=(3, 3)) + 1j * gen.normal(size=(3, 3))
    v = 0.5 * (b + b.conj().T)
    paths = {}
    for name, m in (
        ("x", x),
        ("v", v),
        ("zero", np.zeros((3, 3), dtype=complex)),
        ("diag01", np.diag([0.0, 1.0, 0.0]).astype(complex)),
    ):
        p = tmp_path / f"{name}.json"
        save_matrix(m, p)
        paths[name] = str(p)
    return paths


def run(argv, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    doc = json.loads(out.read_text()) if out.exists() else None
    return code, doc


def entries_to_matrix(doc):
    d = doc["dim"]
    flat = np.array([complex(re, im) for re, im in doc["entries"]])
    return flat.reshape(d, d)


def test_apply_exp_of_zero(mats, tmp_path):
    code, doc = run(
        ["apply", "--matrix", mats["zero"], "--function", "exp"], tmp_path
    )
    assert code == 0
    m = entries_to_matrix(doc)
    np.testing.assert_array_equal(m, np.eye(3))
    assert doc["norm"] == 1.0
    assert doc["meta"]["schema"] == 1
    assert doc["meta"]["seed"] == 1729  # default seed recorded


def test_apply_gaussian_diagonal(mats, tmp_path):
    code, doc = run(
        ["apply", "--matrix", mats["diag01"], "--function", "gaussian"], tmp_path
    )
    assert code == 0
    m = entries_to_matrix(doc)
    assert m[1, 1].real == pytest.approx(np.exp(-0.5), abs=1e-15)
    assert m[0, 0].real == 1.0


def test_deriv_order_zero_equals_apply(mats, tmp_path):
    code1, d1 = run(
        ["deriv", "--matrix", mats["x"], "--function", "gaussian", "--order", "0"],
        tmp_path,
        "a.json",
    )
    code2, d2 = run(
        ["apply", "--matrix", mats["x"], "--function", "gaussian"], tmp_path, "b.json"
    )
    assert code1 == code2 == 0
    assert d1["entries"] == d2["entries"]
    assert d1["method"] == "apply"


def test_deriv_dd_and_fourier_agree(mats, tmp_path):
    base = ["--matrix", mats["x"], "--function", "gaussian", "--dir", mats["v"]]
    code1, d1 = run(["deriv"] + base + ["--method", "dd"], tmp_path, "dd.json")
    code2, d2 = run(
        ["deriv"] + base + ["--method", "fourier", "--radius", "2.0"],
        tmp_path,
        "fourier.json",
    )
    assert code1 == code2 == 0
    a = entries_to_matrix(d1)
    b = entries_to_matrix(d2)
    scale = max(np.linalg.norm(a, 2), 1e-12)
    assert np.linalg.norm(a - b, 2) / scale < 1e-5
    assert d2["tail_fraction"] < 1e-8


def test_deriv_mc_within_sigma(mats, tmp_path):
    base = ["--matrix", mats["x"], "--function", "exp", "--dir", mats["v"]]
    code1, d1 = run(["deriv"] + base + ["--method", "dd"], tmp_path, "dd.json")
    code2, d2 = run(
        ["deriv"] + base + ["--method", "mc", "--samples", "20000", "--seed", "3"],
        tmp_path,
        "mc.json",
    )
    assert code1 == code2 == 0
    ref = entries_to_matrix(d1)
    est = entries_to_matrix(d2)
    se = np.maximum(np.array(d2["std_error"]), 1e-300)
    assert float((np.abs(est - ref) / se).max()) < 5.0
    assert d2["samples"] == 20000
    assert d2["meta"]["seed"] == 3


def test_deriv_mc_rejects_other_functions(mats, tmp_path):
    code = main(
        ["deriv", "--matrix", mats["x"], "--function", "gaussian",
         "--dir", mats["v"], "--method", "mc"]
    )
    assert code == 2


def test_bound_prints_value(mats, tmp_path, capsys):
    code = main(["bound", "--function", "poly:0,1", "--order", "1", "--radius", "1.0"])
    assert code == 0
    printed = capsys.readouterr().out.strip()
    assert float(printed) == pytest.approx(1.0, abs=1e-6)


def test_probe_csv_row(tmp_path):
    out = tmp_path / "probe.csv"
    code = main(
        ["probe", "--function", "monomial:2", "--order", "1", "--radius", "1",
         "--dim", "4", "--seed", "9", "--samples", "64", "--out", str(out)]
        + ["--format", "csv"]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "g_kind,n,r,d,bound,empirical,slack,samples,seed"
    row = lines[1].split(",")
    assert row[0] == "monomial:2"
    assert float(row[4]) == 2.0  # exact power bound
    assert float(row[6]) >= 0.0  # slack never negative here
    assert row[8] == "9"


def test_probe_flags_violated_bound(tmp_path, monkeypatch, capsys):
    # force an impossible bound so the probe must report a violation
    monkeypatch.setattr(hermcalc.bounds, "sobolev_bound", lambda g, n, r: 0.0)
    code = main(["probe", "--function", "exp", "--order", "0", "--radius", "1",
                 "--samples", "32"])
    assert code == 1
    assert "violated" in capsys.readouterr().err


def test_volume_json(tmp_path):
    code, doc = run(
        ["volume", "--order", "3", "--samples", "20000", "--seed", "2"], tmp_path
    )
    assert code == 0
    assert abs(doc["value"] - 1.0 / 6.0) <= 3.0 * doc["std_error"] + 1e-12
    assert doc["samples"] == 20000
    assert doc["n"] == 3


def test_volume_env_seed(tmp_path, monkeypatch):
    monkeypatch.setenv("HERMCALC_SEED", "777")
    code, doc = run(["volume", "--order", "2", "--samples", "1000"], tmp_path)
    assert code == 0
    assert doc["meta"]["seed"] == 777
    # explicit flag wins over the environment
    code, doc = run(
        ["volume", "--order", "2", "--samples", "1000", "--seed", "5"],
        tmp_path,
        "out2.json",
    )
    assert doc["meta"]["seed"] == 5


def test_selftest_quick_passes(tmp_path):
    code, doc = run(["selftest", "--quick", "--seed", "5"], tmp_path)
    assert code == 0
    assert doc["all_pass"] is True
    assert len(doc["checks"]) == 13
    assert doc["meta"]["tolerances"]["eigensolver"] == "lapack-zheevd"


def test_selftest_detects_broken_reference(tmp_path, monkeypatch, capsys):
    import hermcalc.expderiv

    monkeypatch.setattr(hermcalc.expderiv, "reference_simplex_volume", lambda n: 0.2)
    code = main(["selftest", "--quick", "--seed", "5"])
    assert code == 1
    assert "simplex-volume" in capsys.readouterr().err


def test_parse_failures_exit_2(mats, tmp_path):
    assert main(["apply", "--function", "exp"]) == 2  # no matrix
    assert main(["apply", "--matrix", mats["x"], "--function", "nope:spec"]) == 2
    assert main(["deriv", "--matrix", mats["x"], "--function", "exp",
                 "--order", "2", "--dir", mats["v"]]) == 2
    assert main(["frobnicate"]) == 2  # unknown subcommand via argparse
    assert main(["volume"]) == 2  # missing --order
    assert main(["volume", "--order", "-1"]) == 2
    assert main(["volume", "--order", "0", "--samples", "-5"]) == 2


@pytest.mark.parametrize("command", ["bound", "probe"])
@pytest.mark.parametrize("function", ["gaussian", "monomial:3"])
def test_negative_order_exits_2(capsys, command, function):
    argv = [command, "--function", function, "--order", "-1", "--radius", "1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "order" in err and "Traceback" not in err


def test_artifact_records_the_hermitian_tolerance(mats, tmp_path):
    code, doc = run(["apply", "--matrix", mats["x"], "--function", "exp"], tmp_path)
    assert code == 0
    assert doc["meta"]["tolerances"]["hermitian_defect"] == HERMITIAN_REJECT_TOL


@pytest.mark.parametrize("coeffs, entry", [('["a"]', "coefficient 0"), ("[1, [1]]", "coefficient 1")])
def test_non_numeric_poly_coefficients_exit_2(mats, capsys, coeffs, entry):
    spec = f'{{"kind": "poly", "coeffs": {coeffs}}}'
    assert main(["apply", "--matrix", mats["x"], "--function", spec]) == 2
    err = capsys.readouterr().err
    assert entry in err and "Traceback" not in err


def test_domain_failures_exit_4(mats, tmp_path):
    # matrix norm 1.5 exceeds the fourier radius 1.0
    code = main(
        ["deriv", "--matrix", mats["x"], "--function", "gaussian",
         "--dir", mats["v"], "--method", "fourier", "--radius", "1.0"]
    )
    assert code == 4
    # order above the derivative cap
    code = main(
        ["deriv", "--matrix", mats["x"], "--function", "exp",
         "--order", "5", "--dir", mats["v"], "--dir", mats["v"],
         "--dir", mats["v"], "--dir", mats["v"], "--dir", mats["v"]]
    )
    assert code == 4


def test_fourier_bad_directions_and_dimension_cap(mats, tmp_path):
    small = tmp_path / "small.json"
    save_matrix(np.eye(2, dtype=complex), small)
    base = ["deriv", "--function", "gaussian", "--method", "fourier", "--radius", "2.0"]
    # direction shape differs from x: a parse error, not a traceback
    assert main(base + ["--matrix", mats["x"], "--dir", str(small)]) == 2
    # one above the dimension cap of the derivative routes
    big = tmp_path / "big.json"
    save_matrix(np.zeros((33, 33), dtype=complex), big)
    assert main(base + ["--matrix", str(big), "--dir", str(big)]) == 4
    far = tmp_path / "far.json"
    save_matrix(np.diag([3.0, -1.0]).astype(complex), far)
    assert main(base + ["--matrix", str(far), "--dir", str(small)]) == 4


def test_fourier_rejects_bad_arguments_before_the_table(mats, tmp_path, monkeypatch):
    def no_table(*args, **kwargs):
        raise AssertionError("fourier_table built for a request that must be rejected")

    monkeypatch.setattr("hermcalc.cli.fourier_table", no_table)
    small = tmp_path / "small.json"
    save_matrix(np.eye(2, dtype=complex), small)
    base = ["deriv", "--function", "gaussian", "--method", "fourier", "--radius", "2.0"]
    assert main(base + ["--matrix", mats["x"], "--dir", str(small)]) == 2
    big = tmp_path / "big.json"
    save_matrix(np.zeros((33, 33), dtype=complex), big)
    assert main(base + ["--matrix", str(big), "--dir", str(big)]) == 4
    far = tmp_path / "far.json"
    save_matrix(np.diag([3.0, -1.0]).astype(complex), far)
    assert main(base + ["--matrix", str(far), "--dir", str(small)]) == 4


@pytest.fixture
def no_transform(monkeypatch):
    def fail(*args):
        raise AssertionError("a Fourier transform ran for a request that must be refused")

    monkeypatch.setattr("hermcalc.spectral._transform_on_grid", fail)


def test_fourier_order_four_exits_4_before_the_table(mats, tmp_path, capsys, no_transform):
    argv = ["deriv", "--matrix", mats["x"], "--function", "gaussian", "--method", "fourier"]
    code, doc = run(argv + ["--dir", mats["v"]] * 4, tmp_path)
    assert code == 4 and doc is None
    err = capsys.readouterr().err
    assert "order 4" in err and "Traceback" not in err


@pytest.mark.parametrize("radius, code", [("nan", 2), ("inf", 2), ("1e300", 4)])
def test_fourier_radius_outside_the_caps(mats, tmp_path, capsys, no_transform, radius, code):
    argv = ["deriv", "--matrix", mats["x"], "--function", "sin", "--dir", mats["v"],
            "--method", "fourier", "--radius", radius]
    assert run(argv, tmp_path) == (code, None)
    err = capsys.readouterr().err
    assert "radius" in err and "Traceback" not in err


@pytest.mark.parametrize("radius", ["nan", "inf"])
@pytest.mark.parametrize("command", ["bound", "probe"])
@pytest.mark.parametrize("function", ["gaussian", "monomial:3"])
def test_non_finite_radius_exits_2(capsys, command, function, radius):
    assert main([command, "--function", function, "--order", "1", "--radius", radius]) == 2
    err = capsys.readouterr().err
    assert "radius" in err and "Traceback" not in err


def test_eigensolver_failure_exits_3(mats, monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    assert main(["apply", "--matrix", mats["x"], "--function", "exp"]) == 3


def test_overflowing_results_exit_3_without_artifact(mats, tmp_path):
    big = tmp_path / "big.json"
    save_matrix(np.diag([800.0, 1.0]).astype(complex), big)
    sx = tmp_path / "sx.json"
    save_matrix(np.array([[0, 1], [1, 0]], dtype=complex), sx)
    base = ["--matrix", str(big), "--function", "exp"]
    for argv in (
        ["apply"] + base,
        ["deriv"] + base + ["--dir", str(sx)],
        ["deriv"] + base + ["--dir", str(sx), "--method", "mc", "--samples", "1000"],
    ):
        assert run(argv, tmp_path) == (3, None)


def _no_constant(name):
    raise ValueError(f"artifact holds {name}")


def test_exp_routes_both_answer_inside_the_range_of_exp(tmp_path, capsys):
    # exp(705) and exp(699) are finite: dd and mc both answer, and mc's
    # std_error at diag(699, 0) with identity directions holds no NaN or
    # Infinity, as its exponentials are taken relative to the largest one
    eye = tmp_path / "eye.json"
    save_matrix(np.eye(2, dtype=complex), eye)
    for top in (699.0, 705.0):
        x = tmp_path / f"x{top:g}.json"
        save_matrix(np.diag([top, 0.0]).astype(complex), x)
        base = ["deriv", "--matrix", str(x), "--function", "exp", "--dir", str(eye),
                "--dir", str(eye)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for method in ("dd", "mc"):
                out = tmp_path / f"{method}{top:g}.json"
                assert main(base + ["--method", method, "--samples", "1000", "--out", str(out)]) == 0
                doc = json.loads(out.read_text(), parse_constant=_no_constant)
                assert np.all(np.isfinite(entries_to_matrix(doc)))
        assert np.all(np.isfinite(doc["std_error"]))
    assert capsys.readouterr().err == ""


def test_overflowing_contraction_exits_3_without_artifact_or_warning(tmp_path, capsys):
    # exp(709) is finite at the nodes, but D^2 exp(x)[5I, 5I] is not
    x, v = tmp_path / "x.json", tmp_path / "v.json"
    save_matrix(np.diag([709.0, 0.0]).astype(complex), x)
    save_matrix(5.0 * np.eye(2, dtype=complex), v)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        argv = ["deriv", "--matrix", str(x), "--function", "exp", "--dir", str(v), "--dir", str(v)]
        assert run(argv, tmp_path) == (3, None)
    err = capsys.readouterr().err
    assert "overflows" in err and "Warning" not in err


@pytest.mark.parametrize("method", ["dd", "mc", None], ids=["deriv-dd", "deriv-mc", "volume"])
def test_caps_past_their_row_exit_4_without_artifact(tmp_path, capsys, method):
    # the dimension cap of both deriv routes, and the simplex volume order cap
    if method is None:
        argv = ["volume", "--order", "9"]
    else:
        big = tmp_path / "big.json"
        save_matrix(np.eye(33, dtype=complex), big)
        argv = ["deriv", "--matrix", str(big), "--function", "exp", "--dir", str(big),
                "--method", method, "--samples", "100"]
    assert run(argv, tmp_path) == (4, None)
    err = capsys.readouterr().err
    assert "exceeds cap" in err and "Traceback" not in err


def test_output_is_deterministic(mats, tmp_path):
    argv = ["volume", "--order", "2", "--samples", "5000", "--seed", "11"]
    out1 = tmp_path / "v1.json"
    out2 = tmp_path / "v2.json"
    # identical argv (including --out) must give byte-identical artifacts
    code1 = main(argv + ["--out", str(out1)])
    body1 = out1.read_bytes()
    code2 = main(argv + ["--out", str(out1)])
    body2 = out1.read_bytes()
    assert code1 == code2 == 0
    assert body1 == body2
    # a different --out path may only differ inside meta.argv
    main(argv + ["--out", str(out2)])
    d1 = json.loads(body1)
    d2 = json.loads(out2.read_text())
    d1["meta"].pop("argv")
    d2["meta"].pop("argv")
    assert d1 == d2


# one request per subcommand artifact, matrices m (3 x 3) or one (1 x 1)
ARTIFACT_REQUESTS = {
    "apply": ["apply", "--matrix", "{m}", "--function", "sin"],
    "apply-d1": ["apply", "--matrix", "{one}", "--function", "exp"],
    "deriv-dd": ["deriv", "--matrix", "{m}", "--function", "gaussian", "--dir", "{v}", "--dir", "{v}"],
    "deriv-dd-d1": ["deriv", "--matrix", "{one}", "--function", "exp", "--dir", "{one}"],
    "deriv-mc": ["deriv", "--matrix", "{m}", "--function", "exp", "--dir", "{v}", "--dir", "{v}",
                 "--method", "mc", "--samples", "2000"],
    "deriv-mc-d1": ["deriv", "--matrix", "{one}", "--function", "exp", "--dir", "{one}",
                    "--method", "mc", "--samples", "100"],
    "deriv-fourier": ["deriv", "--matrix", "{m}", "--function", "gaussian", "--dir", "{v}",
                      "--method", "fourier", "--radius", "2"],
    "bound": ["bound", "--function", "gaussian", "--order", "2", "--radius", "1"],
    "probe": ["probe", "--function", "sin", "--order", "1", "--radius", "1", "--dim", "2",
              "--samples", "4", "--format", "json"],
    "volume": ["volume", "--order", "3", "--samples", "1000"],
    "selftest": ["selftest", "--quick"],
}


@pytest.mark.parametrize("name", ARTIFACT_REQUESTS)
def test_artifact_is_the_indented_sorted_json_encoding(mats, tmp_path, name):
    # the matrices go through json's C encoder, laid out as the indented one does
    one = tmp_path / "one.json"
    save_matrix(np.array([[0.7]], dtype=complex), one)
    argv = [a.format(m=mats["x"], v=mats["v"], one=one) for a in ARTIFACT_REQUESTS[name]]
    out = tmp_path / "out.json"
    assert main(argv + ["--out", str(out)]) == 0
    text = out.read_text()
    assert text == json.dumps(json.loads(text), indent=1, sort_keys=True) + "\n"


def test_parser_is_reused_without_leaking_state(mats, tmp_path):
    from hermcalc.cli import _build_parser

    assert _build_parser() is _build_parser()
    code, doc = run(
        ["deriv", "--matrix", mats["x"], "--function", "exp",
         "--dir", mats["v"], "--dir", mats["v"]],
        tmp_path, "d.json",
    )
    assert code == 0 and doc["order"] == 2
    # a later request on the same parser sees none of the earlier --dir
    code, doc = run(["deriv", "--matrix", mats["x"], "--function", "exp"], tmp_path, "a.json")
    assert code == 0 and doc["method"] == "apply" and doc["order"] == 0
    assert _build_parser().parse_args(["deriv", "--matrix", "x", "--function", "exp"]).dir == []
    assert main(["apply", "--bogus-flag"]) == 2


def test_fourier_deriv_of_zero_and_of_a_cubic_spline(mats, tmp_path, capsys):
    base = ["deriv", "--matrix", mats["x"], "--dir", mats["v"], "--method", "fourier",
            "--radius", "2.0"]
    code, doc = run(base + ["--function", "poly:0"], tmp_path)
    assert code == 0 and doc["tail_fraction"] == 0.0
    assert not np.any(entries_to_matrix(doc))
    # |t| sampled on 9 nodes: its spline's transform misses the tail tolerance
    ts = list(range(-4, 5))
    spec = json.dumps({"kind": "tabulated", "ts": ts, "vs": [abs(t) for t in ts]})
    capsys.readouterr()
    assert run(base + ["--function", spec], tmp_path, "spline.json") == (3, None)
    assert capsys.readouterr().err == (
        "error: fourier_table: tail fraction 3.286e-07 above 1e-08 at s_max = 640.9;"
        " grid too small\n"
    )


def test_fourier_artifact_records_both_taylor_spans(mats, tmp_path):
    from hermcalc.divided import BAND_TAYLOR_SPAN, TAYLOR_SPAN

    code, doc = run(
        ["deriv", "--matrix", mats["x"], "--function", "gaussian", "--dir", mats["v"],
         "--method", "fourier", "--radius", "2.0"],
        tmp_path,
    )
    assert code == 0
    assert doc["meta"]["tolerances"]["dd_taylor_span"] == TAYLOR_SPAN
    assert doc["meta"]["tolerances"]["dd_band_taylor_span"] == BAND_TAYLOR_SPAN


def test_overflowing_bounds_and_probes_exit_3_without_artifact(tmp_path, capsys):
    for argv in (
        ["bound", "--function", "exp", "--order", "1", "--radius", "800"],
        ["bound", "--function", "monomial:3", "--order", "1", "--radius", "1e200"],
        ["probe", "--function", "exp", "--order", "1", "--radius", "800",
         "--dim", "2", "--samples", "2"],
        ["probe", "--function", "monomial:3", "--order", "1", "--radius", "1e200",
         "--dim", "2", "--samples", "2"],
    ):
        assert run(argv, tmp_path) == (3, None)
        err = capsys.readouterr().err
        assert "overflows" in err and "Traceback" not in err


# each subcommand's flags besides COMMON: (required, optional)
TAKES = {
    "apply": (("--matrix", "--function"), ()),
    "deriv": (
        ("--matrix", "--function"), ("--dir", "--order", "--method", "--samples", "--radius"),
    ),
    "bound": (("--function", "--order", "--radius"), ()),
    "probe": (("--function", "--order", "--radius"), ("--dim", "--samples", "--format")),
    "volume": (("--order",), ("--samples",)),
    "selftest": ((), ("--quick",)),
}
COMMON = ("--seed", "--out", "--threads")
# a value each flag parses
FLAG_ARGS = {
    "--matrix": ["x.json"], "--dir": ["v.json"], "--function": ["exp"], "--order": ["1"],
    "--radius": ["1"], "--method": ["dd"], "--samples": ["8"], "--dim": ["2"],
    "--format": ["json"], "--quick": [], "--seed": ["1"], "--out": ["o.json"], "--threads": ["1"],
}
FOREIGN = [
    (command, flag)
    for command, (required, optional) in TAKES.items()
    for flag in FLAG_ARGS
    if flag not in required + optional + COMMON
]


def with_args(flags):
    return [arg for flag in flags for arg in (flag, *FLAG_ARGS[flag])]


def test_subcommands_take_39_option_slots():
    assert len(FOREIGN) == 39
    assert sum(len(r + o + COMMON) for r, o in TAKES.values()) == 39


@pytest.mark.parametrize("command", TAKES)
def test_subcommand_parses_each_flag_it_takes(command):
    required, optional = TAKES[command]
    _build_parser().parse_args([command] + with_args(required + optional + COMMON))


@pytest.mark.parametrize("command, flag", FOREIGN, ids=[f"{c}-{f[2:]}" for c, f in FOREIGN])
def test_foreign_flag_exits_2(capsys, command, flag):
    argv = [command] + with_args(TAKES[command][0] + (flag,))
    assert main(argv) == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


REQUIRED = [(command, flag) for command, (required, _) in TAKES.items() for flag in required]


@pytest.mark.parametrize("command, flag", REQUIRED, ids=[f"{c}-{f[2:]}" for c, f in REQUIRED])
def test_missing_required_flag_exits_2(capsys, command, flag):
    argv = [command] + with_args(f for f in TAKES[command][0] if f != flag)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "required" in err and flag in err


def test_probe_default_budget_is_the_library_default(tmp_path):
    code, doc = run(
        ["probe", "--function", "monomial:2", "--order", "1", "--radius", "1", "--dim", "2"],
        tmp_path,
    )
    assert code == 0
    assert doc["samples"] == 2 + PROBE_DEFAULT_BUDGET + PROBE_CLIMB_STEPS == 116


BIG_INT = "1" + "0" * 400


@pytest.mark.parametrize(
    "matrix, spec",
    [
        ('{"dim": 1e999, "entries": [[1.0, 0.0]]}', "exp"),
        (f'{{"dim": 1, "entries": [[{BIG_INT}, 0.0]]}}', "exp"),
        (f'{{"dim": 1, "entries": [[{"1" * 5000}, 0.0]]}}', "exp"),
        (None, f'{{"kind": "poly", "coeffs": [{BIG_INT}]}}'),
        (None, '{"kind": "tabulated", "ts": ["a", 1, 2, 3], "vs": [0, 1, 2, 3]}'),
        (None, '{"kind": "tabulated", "ts": [0, 1, 2, 3], "vs": [1e999, 1, 2, 3]}'),
        (None, '{"kind": ["exp"]}'),
        (None, '{"kind": "monomial", "params": {"k": 3}}'),
        (None, '{"kind": "polynomial", "coeffs": [1]}'),
        ('{"dim": 2.7, "entries": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]}', "exp"),
        ('{"dim": true, "entries": [[1.0, 0.0]]}', "exp"),
        ('{"dim": "2", "entries": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]}', "exp"),
        (None, '{"kind": "exp"'),
    ],
    ids=["dim", "entry", "entry-past-digit-limit", "poly", "ts", "vs", "kind", "params",
         "polynomial", "dim-float", "dim-bool", "dim-string", "spec-json"],
)
def test_malformed_inputs_exit_2_without_artifact(mats, tmp_path, capsys, matrix, spec):
    path = tmp_path / "m.json"
    if matrix is not None:
        path.write_text(matrix)
    argv = ["apply", "--matrix", str(path) if matrix else mats["x"], "--function", spec]
    assert run(argv, tmp_path) == (2, None)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["apply", "--mat", "x.json", "--f", "exp"],
                                  ["bound", "--function", "exp", "--ord", "1", "--radius", "1"],
                                  ["--vers"]])
def test_abbreviated_flags_exit_2(capsys, argv):
    assert main(argv) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("function", ["monomial:2", "exp"])
def test_bound_prints_the_bound_probe_reports(tmp_path, capsys, function):
    flags = ["--function", function, "--order", "1", "--radius", "1"]
    code, bound_doc = run(["bound"] + flags, tmp_path, "bound.json")
    printed = capsys.readouterr().out.strip()
    code2, probe_doc = run(["probe"] + flags + ["--dim", "2", "--samples", "2"], tmp_path)
    assert code == code2 == 0
    assert float(printed) == bound_doc["bound"] == probe_doc["bound"]
    assert bound_doc["bound_method"] == probe_doc["bound_method"]
    assert bound_doc["bound_method"] == ("power" if function == "monomial:2" else "sobolev")


def test_overflows_exit_3_before_the_work_without_warnings(tmp_path):
    big = tmp_path / "big.json"
    save_matrix(np.diag([800.0, 1.0]).astype(complex), big)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    save_matrix(sx, tmp_path / "sx.json")
    base = ["--matrix", str(big), "--function", "exp"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in (
            ["apply"] + base,
            ["deriv"] + base + ["--dir", str(tmp_path / "sx.json")],
            ["deriv"] + base + ["--dir", str(tmp_path / "sx.json"), "--method", "mc",
                                "--samples", "1000"],
        ):
            assert run(argv, tmp_path) == (3, None)
        with pytest.raises(OverflowRangeError, match="overflows"):
            function_derivative_dd(ExpFunction(), np.diag([800.0, 1.0]), [sx])


@pytest.mark.parametrize("spec", ["monomial:171", "poly:" + ",".join(["1"] * 172),
                                  f"monomial:{BIG_INT}"], ids=["monomial", "poly", "big-k"])
@pytest.mark.parametrize("command", ["apply", "deriv", "probe"])
def test_polynomial_degree_past_cap_exits_4_without_artifact(mats, tmp_path, capsys, command,
                                                             spec):
    flags = {
        "apply": ["--matrix", mats["x"]],
        "deriv": ["--matrix", mats["x"], "--dir", mats["v"]],
        "probe": ["--order", "1", "--radius", "1", "--dim", "2", "--samples", "2"],
    }[command]
    assert run([command, "--function", spec] + flags, tmp_path) == (4, None)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("flags, cap", [(["--order", "2000", "--dim", "2"], "order 2000"),
                                        (["--order", "1", "--dim", "1000"], "dimension 1000")])
def test_probe_past_its_caps_exits_4_before_any_work(tmp_path, capsys, flags, cap):
    # the order cap comes before the Sobolev bound, which would overflow and
    # exit 3, and the dimension cap before any d x d matrix is built
    argv = ["probe", "--function", "gaussian", "--radius", "1", "--samples", "2"] + flags
    tracemalloc.start()
    try:
        result = run(argv, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == (4, None)
    err = capsys.readouterr().err
    assert f"derivative: {cap} exceeds cap" in err and "Traceback" not in err
    assert peak < 2**20


@pytest.mark.parametrize("order", [500, 2000, 2_000_000])
def test_bound_past_the_float_range_exits_3_without_warnings(tmp_path, capsys, order):
    # the gaussian's orders overflow near order 300 at t = 0; the recursion
    # keeps two orders, so the refusal holds no array per order, and it stops
    # once an order has no finite value, so its time does not grow with the order
    argv = ["bound", "--function", "gaussian", "--order", str(order), "--radius", "1"]
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t0 = time.perf_counter()
            result = run(argv, tmp_path)
            wall = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == (3, None)
    assert capsys.readouterr().err == "error: sobolev_bound: the bound overflows\n"
    assert peak < 2**20
    assert wall < 1.0


def test_monomial_at_the_degree_cap_differentiates(tmp_path):
    x, v = tmp_path / "x.json", tmp_path / "v.json"
    save_matrix(np.diag([0.5, -0.25]).astype(complex), x)
    save_matrix(np.array([[0, 1], [1, 0]], dtype=complex), v)
    argv = ["deriv", "--matrix", str(x), "--dir", str(v), "--function", "monomial:170"]
    code, doc = run(argv, tmp_path)
    assert code == 0
    assert np.all(np.isfinite(entries_to_matrix(doc)))


# each subcommand's argv (no --seed) and the library route that does its work
ROUTES = {
    "apply": (["--matrix", "X", "--function", "exp"], "apply_function"),
    "deriv": (["--matrix", "X", "--function", "exp", "--dir", "V"], "function_derivative_dd"),
    "bound": (["--function", "exp", "--order", "1", "--radius", "1"], "seminorm_bound"),
    "probe": (["--function", "exp", "--order", "1", "--radius", "1", "--dim", "2"],
              "bound_report"),
    "volume": (["--order", "2", "--samples", "100"], "simplex_volume_mc"),
    "selftest": (["--quick"], "run_selftest"),
}


@pytest.mark.parametrize("env, flag", [("abc", []), ("4294967296", []), (None, ["--seed", "-1"]),
                                       (None, ["--seed", "4294967296"])],
                         ids=["env-not-int", "env-2^32", "flag-negative", "flag-2^32"])
@pytest.mark.parametrize("command", ROUTES)
def test_bad_seed_exits_2_before_any_work(mats, tmp_path, monkeypatch, capsys, command, env,
                                          flag):
    args, route = ROUTES[command]
    args = [{"X": mats["x"], "V": mats["v"]}.get(a, a) for a in args]

    def spy(*a, **k):
        raise AssertionError(f"{route} ran before the seed was checked")

    monkeypatch.setattr(f"hermcalc.cli.{route}", spy)
    if env is None:
        monkeypatch.delenv("HERMCALC_SEED", raising=False)
    else:
        monkeypatch.setenv("HERMCALC_SEED", env)
    assert run([command] + args + flag, tmp_path) == (2, None)
    err = capsys.readouterr().err
    assert ("HERMCALC_SEED" if env == "abc" else "2^32") in err and "Traceback" not in err


@pytest.mark.parametrize("seed", [0, 2**32 - 1])
def test_seeds_at_the_ends_of_the_range_run(tmp_path, seed):
    code, doc = run(["volume", "--order", "2", "--samples", "100", "--seed", str(seed)], tmp_path)
    assert code == 0 and doc["meta"]["seed"] == seed


def documented_exit_code(cls):
    # the mapping the errors module documents; the first base that matches
    for base, code in ((ParseError, 2), (NumericError, 3), (DomainError, 4),
                       (HermcalcError, 1)):
        if issubclass(cls, base):
            return code


ERROR_CLASSES = [
    c for c in vars(hermcalc.errors).values()
    if isinstance(c, type) and issubclass(c, HermcalcError)
]


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_each_error_class_exits_with_its_documented_code(monkeypatch, capsys, cls):
    def stub(args):
        raise cls("stub failure")

    _, *rest = COMMANDS["volume"]
    monkeypatch.setitem(COMMANDS, "volume", (stub, *rest))
    assert main(["volume", "--order", "2"]) == documented_exit_code(cls)
    assert capsys.readouterr().err == "error: stub failure\n"


SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize(
    "argv, code",
    [
        (["bound", "--function", "exp", "--order", "1", "--radius", "1"], 0),
        (["volume", "--order", "-1"], 2),
        (["bound", "--function", "exp", "--order", "1", "--radius", "800"], 3),
        (["probe", "--function", "exp", "--order", "1", "--radius", "1", "--dim", "33"], 4),
    ],
    ids=["ok", "parse", "numeric", "domain"],
)
def test_process_exit_code(argv, code):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("HERMCALC_SEED", None)
    proc = subprocess.run(
        [sys.executable, "-m", "hermcalc.cli", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert (proc.stderr == "") == (code == 0)
