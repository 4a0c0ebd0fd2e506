"""The CI workflow is valid YAML, the files its steps run exist, and it
checks the output digests of every benchmark workload.

A workflow file that does not parse switches every CI job off without a
failing check, so this is the one local check that it still parses.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _steps():
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github/workflows/tests.yml").read_text())
    return [step for job in workflow["jobs"].values() for step in job["steps"]]


def test_ci_workflow_parses_and_runs_existing_files():
    steps = _steps()
    assert steps
    for step in steps:
        assert ("run" in step) != ("uses" in step), step
    scripts = "\n".join(step["run"] for step in steps if "run" in step)
    # every python file or glob a step names matches at least one file
    run = set(re.findall(r"[\w./*-]+\.py\b", scripts))
    assert {"perfbench/run.py", "demos/*.py"} <= run, run
    for pattern in run:
        assert list(ROOT.glob(pattern)), pattern


def test_ci_digest_loop_names_every_benchmark_workload():
    # a workload added to BENCHMARK.json but not to the loop would have its
    # pinned digests checked by no CI run
    (step,) = [s for s in _steps() if s.get("name") == "Benchmark output digests"]
    loop = re.search(r"^\s*for w in ([^;]+);", step["run"], re.M)
    assert loop, step["run"]
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(loop.group(1).split()) == sorted(
        w["name"] for w in benchmark["workloads"]
    )
