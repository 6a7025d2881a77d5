"""One rank kernel: of the package's modules only ``obsv`` references the
linear-algebra routines that make a rank decision of their own (an SVD, a
pseudo-inverse, least squares, a matrix rank, or a determinant, which the
full-rank certificate reads), so every rank verdict is read off
``obsv.null_basis``."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

RANK_ROUTINES = {"svd", "pinv", "lstsq", "matrix_rank", "det", "slogdet"}


def _rank_routine_references() -> dict:
    """{module file name: sorted rank routines it names} over src/ivpaudit."""
    found = {}
    for source in sorted((ROOT / "src" / "ivpaudit").glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.alias):
                name = node.name.split(".")[-1]
            else:
                continue
            if name in RANK_ROUTINES:
                found.setdefault(source.name, set()).add(name)
    return {module: sorted(names) for module, names in found.items()}


def test_rank_routines_referenced_only_in_obsv():
    found = _rank_routine_references()
    assert "svd" in found.get("obsv.py", [])  # the walk sees the kernel's own SVD
    assert {module: names for module, names in found.items() if module != "obsv.py"} == {}
