"""Smoke test: every demo script and demo config runs to exit code 0."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"
SRC = Path(__file__).resolve().parents[1] / "src"


def _run(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("script", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_script(script, tmp_path):
    # demo_screen_scattering.py writes its CSVs into the optional out_dir
    proc = _run([str(DEMOS / script), str(tmp_path)], tmp_path)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("config",
                         sorted(p.name for p in (DEMOS / "configs").glob("*.json")))
def test_demo_config(config, tmp_path):
    path = DEMOS / "configs" / config
    command = json.loads(path.read_text())["command"]
    proc = _run(["-m", "screenwave.cli", command, "--config", str(path),
                 "--out", str(tmp_path)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert list(tmp_path.glob("*.csv"))
