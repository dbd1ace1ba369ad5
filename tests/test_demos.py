"""Smoke test: every script in demos/ runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import subseqlab

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(subseqlab.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
