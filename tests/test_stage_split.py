"""tools/stage_split.py on one pass of the probe workload, two names."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_stage_split_times_two_names_over_one_probe_pass():
    names = ["divided._taylor", "bounds.probe_seminorm"]
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "stage_split.py"), "--workload", "probe", *names],
        capture_output=True, text=True, check=True,
    )
    lines = [line.split("\t") for line in run.stdout.strip().splitlines()]
    assert [line[0] for line in lines] == names
    for _, seconds, calls in lines:
        assert float(seconds.split()[0]) > 0.0 and float(calls.split()[0]) >= 1
