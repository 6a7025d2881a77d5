"""The package's third-party imports and its declared runtime dependencies
match: every import is declared, and every declared dependency is imported."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _imported_modules() -> set:
    names = set()
    for source in (ROOT / "src" / "ivpaudit").glob("*.py"):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"ivpaudit"}


def _declared_dependencies() -> set:
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    with open(ROOT / "pyproject.toml", "rb") as fh:
        requirements = tomllib.load(fh)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower() for req in requirements}


def test_third_party_imports_are_declared():
    declared = _declared_dependencies()
    imported = _imported_modules()
    assert "numpy" in imported  # the walk sees the package's imports
    assert sorted(imported - declared) == []


def test_declared_dependencies_are_imported():
    declared = _declared_dependencies()
    assert "numpy" in declared  # the table was read
    assert sorted(declared - _imported_modules()) == []
