"""tools/line_trace.py, run as a pytest plugin over one small test module in
a child process: it exits as the module's tests do and prints its summary."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_the_plugin_reports_the_lines_not_run():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "tools")])}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "line_trace", "-p", "no:cacheprovider",
         str(ROOT / "tests" / "test_combinatorics.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "lines of src/hermcalc not run" in proc.stdout
    total = [line for line in proc.stdout.splitlines() if line.startswith("total: ")]
    assert len(total) == 1 and total[0].endswith("executable lines not run"), proc.stdout
