"""Every demo script runs to completion in a fresh interpreter, with the
warnings that fail a test made errors."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qndlab as q

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(q.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, env.get("PYTHONPATH")) if p
    )
    # the warnings that pyproject.toml's filterwarnings make test failures
    warnings = ["-W", "error::RuntimeWarning", "-W", "error::ResourceWarning"]
    proc = subprocess.run(
        [sys.executable, *warnings, str(demo)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
