"""Every painforge name a demo imports exists, and the fast demos run."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# Demo 04 trains three desk-scale models (about 15 s), so only its imports
# are checked.
FAST_DEMOS = [d for d in DEMOS if not d.name.startswith("04_")]


def _painforge_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.module and \
                node.module.split(".")[0] == "painforge":
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "painforge":
                    yield alias.name, None


def test_there_are_demos():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(demo):
    imports = list(_painforge_imports(demo))
    assert imports, f"{demo.name} imports nothing from painforge"
    for module_name, name in imports:
        module = importlib.import_module(module_name)
        if name is not None:
            assert hasattr(module, name), f"{demo.name}: {module_name} has no {name}"


@pytest.mark.parametrize("demo", FAST_DEMOS, ids=lambda p: p.name)
def test_fast_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    # Demos write under demo_out/ in their working directory.
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
