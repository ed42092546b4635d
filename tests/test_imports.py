"""Every library module uses each name it imports, and every module-level
private name of the package is used somewhere in the package.

The package's __init__ is exempt from the import check: its imports are the
public re-exports."""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pmplab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SOURCES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(
        f"{name} (line {line})"
        for name, line in imported.items()
        if name not in used
    )


def test_detects_an_unused_import():
    source = "from typing import Optional, Sequence\nx: Sequence[int] = []\n"
    assert unused_imports(source) == ["Optional (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Private names bound at the top level of a module that no module reads,
    imports or takes as an attribute."""
    defined: list[tuple[str, str]] = []
    referenced: set[str] = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined.extend((module, name) for name in names if _is_private(name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    return sorted(f"{module}: {name}" for module, name in defined if name not in referenced)


def test_detects_an_unreferenced_private_name():
    sources = {
        "a.py": "_used = 1\n_dead = 2\ndef _helper():\n    return _used\n",
        "b.py": "from a import _helper\n",
    }
    assert unreferenced_private_names(sources) == ["a.py: _dead"]


def test_every_private_name_is_used_in_the_package():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SOURCES}
    assert unreferenced_private_names(sources) == []
