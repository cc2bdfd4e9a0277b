"""Packaging: what the program imports from third-party packages.

``pip install .`` installs only what ``setup.py`` declares, so an
import missing from ``install_requires`` breaks ``import repro`` on a
clean install while every test run with the test extras still passes.
An import of a package's underscore-private module ties the program to
internals the package may change in any release.  And every ``repro``
process (CLI, fleet worker) pays for what importing the package pulls
in, so ``scipy.optimize`` stays out of that import graph.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

needs_stdlib_names = pytest.mark.skipif(
    sys.version_info < (3, 10), reason="sys.stdlib_module_names is 3.10+"
)


def _imports() -> list[tuple[str, str, list[str]]]:
    """(file under src/repro, absolute module, names imported from it)
    for every import statement, including function-local ones."""
    found = []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        where = str(path.relative_to(ROOT))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                found.extend((where, alias.name, []) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.append((where, node.module, [alias.name for alias in node.names]))
    return found


def _third_party(module: str) -> bool:
    top = module.split(".")[0]
    return top not in sys.stdlib_module_names and top != "repro"


def _install_requires() -> set[str]:
    tree = ast.parse((ROOT / "setup.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg == "install_requires":
            return {
                requirement.split(";")[0].split("[")[0].strip()
                for requirement in ast.literal_eval(node.value)
            }
    raise AssertionError("setup.py declares no install_requires")


@needs_stdlib_names
def test_third_party_imports_are_declared():
    third_party = {}
    for where, module, _ in _imports():
        if _third_party(module):
            third_party.setdefault(module.split(".")[0], where)
    assert "numpy" in third_party  # the scan sees real imports
    undeclared = {
        name: where
        for name, where in third_party.items()
        if name not in _install_requires()
    }
    assert not undeclared, f"imported but not in install_requires: {undeclared}"


def _private(dotted: str) -> bool:
    return any(
        part.startswith("_") and not part.startswith("__") for part in dotted.split(".")
    )


@needs_stdlib_names
def test_no_private_third_party_modules():
    imports = [entry for entry in _imports() if _third_party(entry[1])]
    assert any(module == "numpy" for _, module, _ in imports)  # the scan sees real imports
    private = [
        f"{where}: {module} {names}"
        for where, module, names in imports
        if _private(module) or any(_private(name) for name in names)
    ]
    assert not private, f"imports of underscore-private third-party names: {private}"


def test_importing_the_program_leaves_out_scipy_optimize():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    probe = (
        "import sys, repro.cli, repro.sweep.distrib.worker; "
        "print(sorted(name for name in sys.modules if name.startswith('scipy.optimize')))"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout.strip()
    assert loaded == "[]"
