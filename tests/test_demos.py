"""Smoke test: every demo script runs to completion against the package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import buresgeo as bg

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    # Run from an empty directory so demo output files land in tmp_path,
    # with the package importable from wherever the tests found it.
    src = str(Path(bg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip(), f"{demo.name} printed nothing"
