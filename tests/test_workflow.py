"""The CI workflow is valid YAML, the files its steps run exist, and it
checks the output digests of every benchmark workload and every demo; the
package declares exactly the third-party modules it imports, the library
reaches no private attribute but its own, and the benchmark's tracer still
finds every name it patches.

A workflow file that does not parse switches every CI job off without a
failing check, so this is the one local check that it still parses.
"""

import ast
import json
import os
import re
import subprocess
import sys
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


def test_demo_digests_name_every_demo_once():
    # the CI demo step checks each demo's stdout against its line of
    # demos/stdout.sha256; a demo with no line there would go unchecked
    (step,) = [s for s in _steps() if s.get("name") == "Demos"]
    assert "demos/stdout.sha256" in step["run"]
    line = re.compile(r"[0-9a-f]{64}  (\S+)\.stdout")
    digests = (ROOT / "demos/stdout.sha256").read_text().splitlines()
    names = [line.fullmatch(d).group(1) for d in digests]
    assert names == sorted(p.stem for p in (ROOT / "demos").glob("*.py"))


def test_declared_dependencies_are_the_imported_third_party_modules():
    # CI installs the package from its metadata, so a third-party import
    # missing from [project].dependencies fails there; a declared one that
    # nothing imports, such as a test oracle, belongs in the test extra
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[\w.-]+", dep).group(0) for dep in project["dependencies"]}
    imported = set()
    for path in (ROOT / "src/lineperc").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported - set(sys.stdlib_module_names) == declared


# Exported names that only the tests read: they state the paper's 2D theta
# regimes and the binomial lemmas that acceptance criterion 10 checks.
PAPER_STATEMENTS = {"check_binomial_bounds", "predicted_theta2"}


def test_every_exported_name_has_a_reader():
    # a name stays public when a demo, the CLI or the paper's statements need
    # it, so each one the package exports is read somewhere in the library or
    # the demos, other than in its own definition
    init = ast.parse((ROOT / "src/lineperc/__init__.py").read_text())
    exported = {
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    read = set()
    for path in [*(ROOT / "src/lineperc").glob("*.py"), *(ROOT / "demos").glob("*.py")]:
        for top in ast.parse(path.read_text()).body:
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    name = node.attr
                else:
                    continue
                if name != own:
                    read.add(name)
    assert exported - read == PAPER_STATEMENTS


def test_one_export_list():
    # the package's public names are listed once, by the imports of
    # __init__.py; a module's own __all__ would be a second list to keep
    defined = []
    for path in sorted((ROOT / "src/lineperc").glob("*.py")):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and node.id == "__all__" and isinstance(
                    node.ctx, ast.Store
                ):
                    defined.append(f"{path.name}:{node.lineno}")
    assert not defined, defined


def test_private_attributes_are_reached_only_through_self():
    # a kernel's underscore attributes are its internals: a module that reads
    # them on another object ties itself to one kernel's bookkeeping
    reached = []
    for path in sorted((ROOT / "src/lineperc").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Attribute)
                and node.attr.startswith("_")
                and not node.attr.startswith("__")
                and not (isinstance(node.value, ast.Name) and node.value.id == "self")
            ):
                reached.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert not reached, reached


def test_tracer_installs_on_the_library():
    # perfbench/tracer.py patches library names by attribute; a rename in
    # src/ would otherwise break only the traced CI step.  A subprocess, since
    # the patches last for the life of the interpreter
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    code = "import tracer; tracer.Tracer().install()"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
