"""Packaging: every third-party package the program imports is declared.

``pip install .`` installs only what ``setup.py`` declares, so an
import missing from ``install_requires`` breaks ``import repro`` on a
clean install while every test run with the test extras still passes.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _imported_top_level_names() -> dict[str, str]:
    """Top-level module name -> first file under src/repro importing it."""
    names: dict[str, str] = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                names.setdefault(module.split(".")[0], str(path.relative_to(ROOT)))
    return names


def _install_requires() -> set[str]:
    tree = ast.parse((ROOT / "setup.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg == "install_requires":
            return {
                requirement.split(";")[0].split("[")[0].strip()
                for requirement in ast.literal_eval(node.value)
            }
    raise AssertionError("setup.py declares no install_requires")


@pytest.mark.skipif(
    sys.version_info < (3, 10), reason="sys.stdlib_module_names is 3.10+"
)
def test_third_party_imports_are_declared():
    third_party = {
        name: where
        for name, where in _imported_top_level_names().items()
        if name not in sys.stdlib_module_names and name != "repro"
    }
    assert "numpy" in third_party  # the scan sees real imports
    undeclared = {
        name: where
        for name, where in third_party.items()
        if name not in _install_requires()
    }
    assert not undeclared, f"imported but not in install_requires: {undeclared}"
