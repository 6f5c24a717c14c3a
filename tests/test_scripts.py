"""Smoke runs of the example scripts: each one must finish with exit 0."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import beltrami

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("argv", [
    ["evolution_drift_demo.py", "--nodes", "9", "--tmax", "0.01"],
    ["prop_family_sweep.py"],
])
def test_script_runs(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(beltrami.__file__).parents[1]))
    done = subprocess.run([sys.executable, str(SCRIPTS / argv[0]), *argv[1:]], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
