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
    """(name, line) of each module-level function, class and UPPER_CASE
    constant, and of each method of a module-level class but its dunders."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, ast.FunctionDef) and not (
                        method.name.startswith("__") and method.name.endswith("__")):
                    yield method.name, method.lineno
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


@pytest.mark.parametrize("source, names", [
    ("def f():\n    def inner():\n        pass", ["f"]),
    ("X = 1\n_Y: int = 2\nz = 3\nA, B = 1, 2", ["X", "_Y"]),
    ("class C:\n    N = 1\n    def m(self):\n        pass", ["C", "m"]),
    ("class C:\n    @property\n    def dim(self):\n        pass", ["C", "dim"]),
    ("class C:\n    def __init__(self):\n        pass\n    def __call__(self):\n        pass",
     ["C"]),
    ("class C:\n    class D:\n        def m(self):\n            pass", ["C"]),
    ("def f():\n    class D:\n        def m(self):\n            pass", ["f"]),
])
def test_definition_detector(source, names):
    assert [name for name, _ in _definitions(ast.parse(source))] == names


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


def _numpy_random_uses(tree: ast.Module) -> list[int]:
    """Lines that name ``numpy.random``: an ``np.random`` or ``numpy.random``
    attribute, or an import of the module or of names from it."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "random"
            and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
            or isinstance(node, ast.Import) and any(
                alias.name.startswith("numpy.random") for alias in node.names)
            or isinstance(node, ast.ImportFrom) and node.level == 0
            and (node.module.startswith("numpy.random")
                 or node.module == "numpy" and any(a.name == "random" for a in node.names))]


def test_no_module_uses_numpy_random():
    # Every seeded draw, the sampler's and the multistart's, comes from the
    # package's own SplitMix64, so that no process loads numpy.random nor,
    # through it, hashlib and OpenSSL.
    found = {path.name: lines for path in PACKAGE
             if (lines := _numpy_random_uses(ast.parse(path.read_text(), filename=str(path))))}
    assert not found, f"numpy.random used: {found}"


@pytest.mark.parametrize("source, flagged", [
    ("rng = np.random.default_rng(0)", True),
    ("numpy.random.Generator(numpy.random.Philox(1))", True),
    ("import numpy.random", True),
    ("def f():\n    from numpy.random import default_rng", True),
    ("from numpy import random", True),
    ("import random\nrandom.random()\nx.random\nfrom . import random", False),
])
def test_numpy_random_detector(source, flagged):
    assert bool(_numpy_random_uses(ast.parse(source))) == flagged


# Every number and integer a program input holds is read by these, so that a
# bool, a string or a non-finite value is rejected the same way everywhere.
NUMBER_RULES = {"_number_array", "_integer"}


def _type_calls_outside_number_rules(tree: ast.Module) -> list[int]:
    """Lines of the ``type(...)`` calls outside the module-level functions
    named in NUMBER_RULES."""
    return [node.lineno for top in tree.body
            if not (isinstance(top, ast.FunctionDef) and top.name in NUMBER_RULES)
            for node in ast.walk(top) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == "type"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_checks_types_only_in_the_number_rules(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = _type_calls_outside_number_rules(tree)
    assert not lines, (f"{path.name}: type() called outside {', '.join(sorted(NUMBER_RULES))} "
                       f"on line(s) {', '.join(map(str, lines))}")


@pytest.mark.parametrize("source, flagged", [
    ("if type(x) is not int:\n    pass", True),
    ("ok = type(x) in (int, float)", True),
    ("class FitConfig:\n    def check(self):\n        return type(self.rank) is int", True),
    ("def _integer(value):\n    return type(value) is int", False),
    ("def _number_array(value):\n    def item_ok(v):\n        return type(v) is float", False),
    ("np.asarray(x, dtype=float)\nisinstance(x, bool)\nx.type(1)", False),
])
def test_type_call_detector(source, flagged):
    assert bool(_type_calls_outside_number_rules(ast.parse(source))) == flagged


# The keys of every input object, its format_version included, are read by
# this rule, so that a version is checked the same way in every file.
KEY_RULE = "_fields"


def _is_format_version(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value == "format_version"


def _format_version_reads_outside_key_rule(tree: ast.Module) -> list[int]:
    """Lines of the ``x["format_version"]`` loads and ``x.get("format_version")``
    calls outside the module-level function KEY_RULE."""
    return [node.lineno for top in tree.body
            if not (isinstance(top, ast.FunctionDef) and top.name == KEY_RULE)
            for node in ast.walk(top)
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load)
            and _is_format_version(node.slice)
            or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get" and node.args and _is_format_version(node.args[0])]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_reads_format_version_only_in_the_key_rule(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = _format_version_reads_outside_key_rule(tree)
    assert not lines, (f"{path.name}: format_version read outside {KEY_RULE} "
                       f"on line(s) {', '.join(map(str, lines))}")


@pytest.mark.parametrize("source, flagged", [
    ('version = data["format_version"]', True),
    ('if data.get("format_version") != 1:\n    pass', True),
    ('version = data.get("format_version", 1)', True),
    ('class Model:\n    def from_dict(data):\n        return data["format_version"] == 1', True),
    ('def _fields(value):\n    return value["format_version"]', False),
    ('write_json(path, {"format_version": 1, "tau": tau})', False),
    ('data["format_version"] = 1\nconfig.get("version")\ndata["tau"]', False),
])
def test_format_version_read_detector(source, flagged):
    assert bool(_format_version_reads_outside_key_rule(ast.parse(source))) == flagged


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


# Only this module opens, reads or writes a file, so that each artifact's
# keys and columns are spelled in one place.
FILES = "files.py"
FILE_CALLS = {"open", "read_text", "read_bytes", "write_text", "write_bytes", "loadtxt"}


def _file_calls(tree: ast.Module) -> list[int]:
    """Lines of the calls that open, read or write a file: ``open`` (builtin,
    ``os.open`` or ``Path.open``), ``read_text``, ``read_bytes``,
    ``write_text``, ``write_bytes`` or ``np.loadtxt``, by name or attribute."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            and (node.func.attr if isinstance(node.func, ast.Attribute)
                 else getattr(node.func, "id", None)) in FILE_CALLS]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != FILES],
                         ids=[p.stem for p in MODULES if p.name != FILES])
def test_only_the_files_module_opens_files(path):
    lines = _file_calls(ast.parse(path.read_text(), filename=str(path)))
    assert not lines, (f"{path.name}: file opened, read or written outside {FILES} "
                       f"on line(s) {', '.join(map(str, lines))}")


@pytest.mark.parametrize("source, flagged", [
    ("open(p)", True),
    ('with open(p, newline="") as fh:\n    pass', True),
    ("os.open(p, os.O_RDONLY)", True),
    ("Path(p).open()", True),
    ("text = Path(p).read_text()", True),
    ("data = p.read_bytes()", True),
    ('p.write_text("x")', True),
    ('p.write_bytes(b"x")', True),
    ('table = np.loadtxt(lines, delimiter=",")', True),
    ("from numpy import loadtxt\nloadtxt(p)", True),
    ("class Samples:\n    def read(self, p):\n        return open(p).read()", True),
    ("tempfile.TemporaryFile()", False),
    ("os.read(fd, 1)\nos.write(fd, b'x')\nfh.read()\nfh.write('x')", False),
    ('opener = open\n"open(p)"\nfile.opened()', False),
])
def test_file_call_detector(source, flagged):
    assert bool(_file_calls(ast.parse(source))) == flagged


def _top_level_functions(path: Path) -> set[str]:
    return {node.name for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.FunctionDef)}


def test_the_input_rules_and_the_writers_live_in_the_files_module():
    # The rules above are exempt by name, so no other module may define one.
    rules = NUMBER_RULES | {KEY_RULE} | WRITERS
    where = {path.name: names for path in MODULES if (names := _top_level_functions(path) & rules)}
    assert where == {FILES: rules}


# The CLI turns an input error into a usage error (exit 2) naming its file in
# this one context manager, so that no input gets round it.
INPUT_RULE = "_input"
CLI = Path(tolalloc.__file__).parent / "cli.py"


def _usage_errors_raised_in_handlers(tree: ast.Module) -> list[int]:
    """Lines of the ``raise UsageError...`` statements inside an ``except``
    handler, outside the module-level function INPUT_RULE."""
    return [node.lineno for top in tree.body
            if not (isinstance(top, ast.FunctionDef) and top.name == INPUT_RULE)
            for handler in ast.walk(top) if isinstance(handler, ast.ExceptHandler)
            for node in ast.walk(handler) if isinstance(node, ast.Raise) and node.exc is not None
            and any(isinstance(name, ast.Name) and name.id == "UsageError"
                    for name in ast.walk(node.exc))]


def test_cli_raises_usage_errors_from_caught_exceptions_only_in_the_input_rule():
    lines = _usage_errors_raised_in_handlers(ast.parse(CLI.read_text(), filename=str(CLI)))
    assert not lines, (f"cli.py: UsageError raised in an except handler outside {INPUT_RULE} "
                       f"on line(s) {', '.join(map(str, lines))}")


@pytest.mark.parametrize("source, flagged", [
    ("try:\n    f()\nexcept ValueError as exc:\n    raise UsageError(f'bad: {exc}')", True),
    ("def g():\n    try:\n        f()\n    except OSError:\n        raise UsageError('x')", True),
    ("try:\n    f()\nexcept KeyError:\n    if x:\n        raise UsageError", True),
    ("class C:\n    def m(self):\n        try:\n            f()\n"
     "        except ValueError:\n            raise UsageError('x') from None", True),
    ("def _input(where):\n    try:\n        yield\n    except ValueError as exc:\n"
     "        raise UsageError(f'{where}: {exc}') from exc", False),
    ("if bad:\n    raise UsageError('x')", False),
    ("try:\n    f()\nexcept ValueError:\n    raise\nfinally:\n    raise UsageError('x')",
     False),
    ("try:\n    f()\nexcept ValueError as exc:\n    raise FitError(str(exc))", False),
])
def test_usage_error_handler_detector(source, flagged):
    assert bool(_usage_errors_raised_in_handlers(ast.parse(source))) == flagged


# The CLI tests the length of every input vector against the parameter count d
# in this one function, so that each mismatch exits 2 with one message.
DIMS_RULE = "_check_dims"
SHAPE_READERS = {"shape", "broadcast_to"}


def _shape_reads_outside_dims_rule(tree: ast.Module) -> list[int]:
    """Lines of the ``.shape`` reads, ``np.shape`` and ``np.broadcast_to``
    calls and imports of those from numpy outside the module-level function
    DIMS_RULE."""
    return [node.lineno for top in tree.body
            if not (isinstance(top, ast.FunctionDef) and top.name == DIMS_RULE)
            for node in ast.walk(top)
            if isinstance(node, ast.Attribute) and node.attr in SHAPE_READERS
            or isinstance(node, ast.ImportFrom) and node.module == "numpy"
            and any(alias.name in SHAPE_READERS for alias in node.names)]


def test_cli_compares_lengths_with_d_only_in_the_dims_rule():
    lines = _shape_reads_outside_dims_rule(ast.parse(CLI.read_text(), filename=str(CLI)))
    assert not lines, (f"cli.py: shape read outside {DIMS_RULE} "
                       f"on line(s) {', '.join(map(str, lines))}")


@pytest.mark.parametrize("source, flagged", [
    ("n = points.shape[1]", True),
    ("if np.shape(value) != (d,):\n    pass", True),
    ("caps = np.broadcast_to(caps, nominal.shape)", True),
    ("def cmd_fit(args):\n    return numpy.broadcast_to(x, (2,))", True),
    ("from numpy import shape", True),
    ("def _check_dims(d, files):\n    return np.shape(value) != (d,)", False),
    ("x.ndim\nx.size\nlen(x)\nnp.reshape(x, (2,))\nshape = (2,)", False),
])
def test_shape_read_detector(source, flagged):
    assert bool(_shape_reads_outside_dims_rule(ast.parse(source))) == flagged


# Each role has one contract, such as the evaluator's base class, so no
# module asks an object which methods it has.
def _hasattr_calls(tree: ast.Module) -> list[int]:
    """Lines of every ``hasattr(...)`` call, by name or as an attribute."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            and (isinstance(node.func, ast.Name) and node.func.id == "hasattr"
                 or isinstance(node.func, ast.Attribute) and node.func.attr == "hasattr")]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_does_not_call_hasattr(path):
    lines = _hasattr_calls(ast.parse(path.read_text(), filename=str(path)))
    assert not lines, f"{path.name}: hasattr called on line(s) {', '.join(map(str, lines))}"


@pytest.mark.parametrize("source, flagged", [
    ('if hasattr(evaluator, "many"):\n    pass', True),
    ('class C:\n    def close(self):\n        return hasattr(self, "_proc")', True),
    ('builtins.hasattr(x, "close")', True),
    ('getattr(x, "close", None)\nx.hasattr\nhasattr = 1\n"hasattr(x, y)"', False),
])
def test_hasattr_detector(source, flagged):
    assert bool(_hasattr_calls(ast.parse(source))) == flagged
