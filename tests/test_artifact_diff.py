"""tools/artifact_diff.py, run as a process on one small request: a tree
compared with itself writes byte-identical artifacts."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_a_tree_against_itself_is_identical():
    # the first deriv request of the benchmark's pass: d = 8, n = 2
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "artifact_diff.py"), str(ROOT), str(ROOT / "src"),
         "--workload", "deriv", "--limit", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "deriv: 1 of 1 identical, largest relative entry distance 0\n"
