"""The example scripts run end to end against this checkout's qps."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args", [
    ("hypervolume_scan.py", []),
    ("rotation_demo.py", []),
    ("phase_portraits.py", ["--out", "portraits"]),  # inside tmp_path, the cwd
    ("hypervolume_scan.py", ["--hbar", "16"]),  # grids and displacements scale with hbar
])
def test_script_runs(tmp_path, script, args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                         env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert "Traceback" not in run.stderr


def test_portrait_wigner_bytes_match_cubic_spline(tmp_path, monkeypatch, capsys):
    # the numpy spline writes the portraits' Wigner CSVs byte for byte as
    # the CubicSpline build did
    from qps import phasespace

    cubic_spline = pytest.importorskip("scipy.interpolate").CubicSpline
    for label, spline in (("numpy", phasespace._not_a_knot),
                          ("scipy", lambda x, y: cubic_spline(x, y, extrapolate=False))):
        monkeypatch.setattr(phasespace, "_not_a_knot", spline)
        monkeypatch.setattr(sys, "argv", ["phase_portraits.py", "--out", str(tmp_path / label)])
        runpy.run_path(str(ROOT / "scripts" / "phase_portraits.py"), run_name="__main__")
    capsys.readouterr()
    for name in ("ground", "excited1", "cat"):
        csv = f"{name}_wigner.csv"
        assert (tmp_path / "numpy" / csv).read_bytes() == (tmp_path / "scipy" / csv).read_bytes()
