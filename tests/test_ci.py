"""The CI workflow runs its checks through ``tools/ci.sh``.

The workflow is read as plain text, one step per ``- `` item, so that the
test needs no YAML parser.
"""

import os
import re
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"
CI_STEPS = ("tests", "smoke", "traced", "outputs")


def _steps(text):
    """(name, run) of each workflow step; None where a step lacks one."""
    steps = []
    for line in text.splitlines():
        item = re.match(r"\s*- (.*)", line)
        if item:
            steps.append({"name": None, "run": None})
            line = item.group(1)
        key = re.match(r"\s*(name|run):\s*(.*)", line)
        if key and steps:
            steps[-1][key.group(1)] = key.group(2).strip()
    return [(s["name"], s["run"]) for s in steps]


def test_every_check_step_calls_ci_script():
    runs = [run for name, run in _steps(WORKFLOW.read_text())
            if run is not None and name != "Install"]
    called = [re.fullmatch(r"tools/ci\.sh (\w+)", run) for run in runs]
    assert all(called), runs
    assert tuple(m.group(1) for m in called) == CI_STEPS


def test_ci_script_is_executable():
    assert os.access(ROOT / "tools" / "ci.sh", os.X_OK)


def test_against_without_revision_prints_usage(tmp_path):
    run = subprocess.run(
        [str(ROOT / "tools" / "ci.sh"), "against"],
        capture_output=True, text=True, env={**os.environ, "RUNNER_TEMP": str(tmp_path)},
    )
    assert run.returncode == 2
    assert run.stderr.startswith("usage: tools/ci.sh")
