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


def _scipy_imports(tree: ast.Module) -> list[int]:
    """Lines of every ``import scipy...`` and ``from scipy... import``, at any depth."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Import) and any(
                alias.name.split(".")[0] == "scipy" for alias in node.names)
            or isinstance(node, ast.ImportFrom) and node.level == 0
            and node.module.split(".")[0] == "scipy"]


def test_package_does_not_import_scipy():
    # numpy is the only runtime dependency; scipy is a test-only oracle.
    found = {path.name: lines for path in PACKAGE
             if (lines := _scipy_imports(ast.parse(path.read_text(), filename=str(path))))}
    assert not found, f"scipy imported in the package: {found}"


@pytest.mark.parametrize("source, flagged", [
    ("import scipy", True),
    ("import numpy, scipy.optimize as opt", True),
    ("from scipy.interpolate import RegularGridInterpolator", True),
    ("def f():\n    from scipy import stats", True),
    ("import scipyx\nfrom .scipy import x\nfrom numpy import scipy", False),
])
def test_scipy_import_detector(source, flagged):
    assert bool(_scipy_imports(ast.parse(source))) == flagged


# Every artifact goes through these, so that each is written atomically and
# in one format.
WRITERS = {"atomic_write", "write_json", "write_csv"}
OS_WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_APPEND", "O_CREAT", "O_TRUNC"}


def _writes_file(call: ast.Call) -> bool:
    """Whether ``call`` opens a file for writing or writes a whole file:
    ``open``/``Path.open`` with a mode that is not read-only, ``os.open`` with
    a write flag, ``write_text`` or ``write_bytes``."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "os":
        return any(getattr(node, "attr", getattr(node, "id", None)) in OS_WRITE_FLAGS
                   for arg in call.args[1:2] for node in ast.walk(arg))
    position = 1 if isinstance(func, ast.Name) else 0  # open(file, mode) or path.open(mode)
    mode = next((kw.value for kw in call.keywords if kw.arg == "mode"),
                call.args[position] if len(call.args) > position else None)
    return mode is not None and not (isinstance(mode, ast.Constant)
                                     and isinstance(mode.value, str)
                                     and set(mode.value) <= set("rbt"))


def _file_writes_outside_writers(tree: ast.Module) -> list[int]:
    """Lines of the file writes outside the module-level functions named in WRITERS."""
    return [node.lineno for top in tree.body
            if not (isinstance(top, ast.FunctionDef) and top.name in WRITERS)
            for node in ast.walk(top) if isinstance(node, ast.Call) and _writes_file(node)]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_writes_files_only_through_the_artifact_writers(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = _file_writes_outside_writers(tree)
    assert not lines, (f"{path.name}: file written outside {', '.join(sorted(WRITERS))} "
                       f"on line(s) {', '.join(map(str, lines))}")


@pytest.mark.parametrize("source, flagged", [
    ('open(p, "w")', True),
    ('open(p, mode="a", newline="")', True),
    ("open(p, mode)", True),
    ('Path(p).open("wb")', True),
    ("os.open(p, os.O_WRONLY | os.O_CREAT)", True),
    ('p.write_text("x")', True),
    ('p.write_bytes(b"x")', True),
    ('def save(p):\n    with open(p, "w") as fh:\n        pass', True),
    ("open(p)", False),
    ('open(p, "rb")', False),
    ('open(p, newline="")', False),
    ("Path(p).open()", False),
    ("os.open(p, os.O_RDONLY)", False),
    ("tempfile.TemporaryFile()", False),
    ('class Samples:\n    def write_csv(self, p):\n        open(p, "w")', True),
    ('def write_csv(p):\n    def write(tmp):\n        open(tmp, "w")', False),
])
def test_file_write_detector(source, flagged):
    assert bool(_file_writes_outside_writers(ast.parse(source))) == flagged
