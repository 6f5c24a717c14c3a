"""Smoke runs of the example scripts: each one must finish with exit 0."""

import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
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


def test_cli_snapshot_writes_each_report_and_exit_code(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(Path(beltrami.__file__).parents[1]))
    script = runpy.run_path(str(SCRIPTS / "cli_snapshot.py"))
    commands = dict(script["COMMANDS"])
    picked = [(name, commands[name]) for name in ("readme-coeffs-prop4", "cubic-rational")]
    script["snapshot"](picked, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"{name}.{ext}" for name, _ in picked for ext in ("out", "err", "code"))
    for name, _ in picked:
        assert (tmp_path / f"{name}.code").read_text() == "0\n"
        assert (tmp_path / f"{name}.err").read_bytes() == b""
    assert json.loads((tmp_path / "readme-coeffs-prop4.out").read_text())["pass"] is True
    assert json.loads((tmp_path / "cubic-rational.out").read_text())["mode"] == "rational"


def test_cli_snapshot_runs_every_readme_example():
    from test_cli import _readme_examples

    listed = [argv for _, argv in runpy.run_path(str(SCRIPTS / "cli_snapshot.py"))["COMMANDS"]]
    assert all(argv in listed for argv in _readme_examples())


def test_cli_snapshot_runs_every_subcommand():
    from beltrami.cli import build_parser

    subcommands = build_parser()._subparsers._group_actions[0].choices
    listed = {argv[0] for _, argv in runpy.run_path(str(SCRIPTS / "cli_snapshot.py"))["COMMANDS"]}
    assert len(subcommands) == 8 and set(subcommands) <= listed


def test_result_snapshot_writes_each_operation_and_its_result(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script puts perfbench/ on it
    script = runpy.run_path(str(SCRIPTS / "result_snapshot.py"))
    script["snapshot"]("evolve_grid", 1, tmp_path)
    assert [p.name for p in tmp_path.iterdir()] == ["evolve_grid-1.txt"]
    lines = (tmp_path / "evolve_grid-1.txt").read_text().splitlines()
    assert lines[::2] == ["evolve evolve 41x41 init=field", "evolve evolve 41x41 init=psi"]
    assert all(line.startswith("DriftReport(times=[0.0, 0.005, ") for line in lines[1::2])
    # an array is written as its list, every double in full
    assert script["show"](np.array([0.1, 1 / 3])) == "[0.1, 0.3333333333333333]"
