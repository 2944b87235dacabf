"""Import hygiene: every name a module of the package imports is used in it.

No linter ships with the project, so this scan stands in for one: a name
imported and never referenced is left over from deleted code."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "locic"


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name the module binds by an import, with the line of that import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                names[name] = node.lineno
    return names


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg | ast.AnnAssign) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef) and node.returns:
            yield node.returns


def _referenced(tree: ast.AST) -> set[str]:
    """Every name the code reads, in annotations too, quoted ones included."""
    found = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                found |= _referenced(ast.parse(node.value, mode="eval"))
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _referenced(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert unused == {}, f"{path.name}: imported and never used: {unused}"


def test_the_scan_finds_an_unused_import():
    tree = ast.parse("from x import a, b\nimport c.d\nimport e as f\n"
                     "def g(v: 'b') -> None:\n    return c.d\n")
    assert set(_imported(tree)) - _referenced(tree) == {"a", "f"}
