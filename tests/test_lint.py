"""Static checks on the package source that need no linter installed."""

import ast
import re
from pathlib import Path

import pytest

import tolalloc

PACKAGE = sorted(Path(tolalloc.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each module-level import, with its line number."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _referenced_names(tree: ast.Module) -> set[str]:
    """Names read, not assigned: an assignment is itself a ``Name``."""
    names = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    # Forward references written as strings, e.g. -> "SeparatedModel".
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                names.add(node.value)
    return names


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_has_no_unused_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _referenced_names(tree)
    unused = {name: line for name, line in _imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused import(s) " + ", ".join(
        f"{name} (line {line})" for name, line in sorted(unused.items(), key=lambda kv: kv[1]))


def _package_references() -> set[str]:
    """Every name any package module reads: as a name, an attribute, an
    imported name or a string annotation."""
    names = set()
    for path in PACKAGE:
        tree = ast.parse(path.read_text(), filename=str(path))
        names |= _referenced_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def _definitions(tree: ast.Module):
    """(name, line) of each module-level function, class and UPPER_CASE constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and re.fullmatch(r"_*[A-Z][A-Z0-9_]*", target.id):
                    yield target.id, node.lineno


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_has_no_dead_definition(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _package_references()
    dead = [f"{name} (line {line})" for name, line in _definitions(tree) if name not in used]
    assert not dead, f"{path.name}: nothing in the package refers to " + ", ".join(dead)
