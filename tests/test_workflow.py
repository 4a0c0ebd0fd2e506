"""The CI workflow is valid YAML, and the files its steps run exist.

A workflow file that does not parse switches every CI job off without a
failing check, so this is the one local check that it still parses.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_ci_workflow_parses_and_runs_existing_files():
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github/workflows/tests.yml").read_text())
    steps = [step for job in workflow["jobs"].values() for step in job["steps"]]
    assert steps
    for step in steps:
        assert ("run" in step) != ("uses" in step), step
    scripts = "\n".join(step["run"] for step in steps if "run" in step)
    # every python file or glob a step names matches at least one file
    run = set(re.findall(r"[\w./*-]+\.py\b", scripts))
    assert {"perfbench/run.py", "demos/*.py"} <= run, run
    for pattern in run:
        assert list(ROOT.glob(pattern)), pattern
