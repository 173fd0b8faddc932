"""The example scripts run end to end against this checkout's qps."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args", [
    ("hypervolume_scan.py", []),
    ("rotation_demo.py", []),
    ("phase_portraits.py", ["--out", "portraits"]),  # inside tmp_path, the cwd
])
def test_script_runs(tmp_path, script, args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                         env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert "Traceback" not in run.stderr
