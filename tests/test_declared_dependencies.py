"""Every third-party package imported under ``src/`` is a declared dependency.

CI installs only what ``pyproject.toml`` declares, so an undeclared import
breaks a clean install even where a developer's environment happens to
have the package.  This test reads the imports statically, so it fails on
such an import whether or not the package is installed.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

ROOT = Path(__file__).resolve().parents[1]


def _top_level_imports(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def _declared_dependencies() -> "set[str]":
    with open(ROOT / "pyproject.toml", "rb") as handle:
        requirements = tomllib.load(handle)["project"]["dependencies"]
    return {
        re.match(r"[A-Za-z0-9_.-]+", requirement).group(0).lower().replace("-", "_")
        for requirement in requirements
    }


def test_third_party_imports_are_declared():
    third_party: "dict[str, str]" = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        for name in _top_level_imports(path):
            if name != "repro" and name not in sys.stdlib_module_names:
                third_party.setdefault(name, str(path.relative_to(ROOT)))
    assert {"numpy", "scipy"} <= set(third_party)  # the scan sees imports
    declared = _declared_dependencies()
    undeclared = {
        name: where for name, where in third_party.items() if name not in declared
    }
    assert not undeclared, f"imported but not in pyproject.toml: {undeclared}"
