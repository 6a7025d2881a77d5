"""One rank kernel: of the package's modules only ``obsv`` references the
linear-algebra routines that make a rank decision of their own (an SVD, a
pseudo-inverse, least squares, a matrix rank, or a determinant, which the
full-rank certificate reads), so every rank verdict is read off
``obsv.null_basis``.  The CLI derives neither that kernel nor the DP noise
floor itself: it reads no private name of ``intrinsic`` or ``dp`` and imports
neither ``build_bundle`` nor ``null_basis``."""

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



def _cli_names(modules) -> list:
    """Sorted "module.name" for every attribute of ``modules`` that cli.py
    reads (``module.name``) or imports (``from .module import name``)."""
    tree = ast.parse((ROOT / "src" / "ivpaudit" / "cli.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            module, names = node.value.id, [node.attr]
        elif isinstance(node, ast.ImportFrom) and node.module:
            module, names = node.module.split(".")[-1], [alias.name for alias in node.names]
        else:
            continue
        if module in modules:
            found.update(f"{module}.{name}" for name in names)
    return sorted(found)


def test_cli_derives_no_kernel_and_no_noise_floor():
    """``audit`` and ``calibrate`` each make one public call: the kernel and the
    noise floor are derived in ``intrinsic`` and ``dp`` alone."""
    assert "intrinsic.audit" in _cli_names(("intrinsic",))  # the walk sees attributes
    assert [name for name in _cli_names(("intrinsic", "dp")) if "._" in name] == []
    assert {"obsv.build_bundle", "obsv.null_basis"}.isdisjoint(_cli_names(("obsv",)))
