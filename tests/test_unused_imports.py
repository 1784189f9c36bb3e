"""Every name a package module imports is used in that module, so a helper left
behind by a refactor fails here. Names used only inside quoted annotations
count as used."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "modforms"

# scans re-exports hecke_matrix: the benchmark's tests check that binding
EXPECTED_UNUSED = {("scans", "hecke_matrix")}


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for ann in _annotations(tree):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return used


def _imported_names(tree) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.stem
)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    used = _used_names(tree)
    unused = [n for n in _imported_names(tree) if n not in used and (path.stem, n) not in EXPECTED_UNUSED]
    assert unused == []


def test_the_expected_unused_import_is_still_there():
    for module, name in EXPECTED_UNUSED:
        assert name in _imported_names(ast.parse((SRC / f"{module}.py").read_text()))
