"""The built-in consistency battery in quick mode."""

import json

import numpy as np

import hermcalc.expderiv
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
