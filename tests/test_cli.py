"""Command-line interface, run in process through main()."""

import json

import numpy as np
import pytest

import hermcalc.bounds
from hermcalc.cli import main
from hermcalc.linalg import save_matrix


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


def test_eigensolver_failure_exits_3(mats, monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    assert main(["apply", "--matrix", mats["x"], "--function", "exp"]) == 3


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
