"""Static checks on the source: every imported name is used, in the package
and in its tests, every module-level definition of the package is read, and
only ``algebra`` imports ``fractions``.

No linter ships with the test environment, so an import or a helper left
behind by a refactor is caught here.  ``__init__.py`` is skipped, since its
imports are the public API, and so is ``from __future__``.  A function,
class or constant counts as read when some module of the package, not of
its tests, names it, reads it as an attribute or imports it.  Every exact
number in the package is ints over one denominator; ``algebra`` alone
turns strings into them and them into printed fractions.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "abelint"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list:
    """The names a module imports and never reads, with their line numbers."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_check_sees_an_unused_import():
    source = "from functools import lru_cache, reduce\nimport json\nreduce(max, json.loads('[1]'))\n"
    assert unused_imports(source) == [(1, "lru_cache")]


@pytest.mark.parametrize("path", MODULES + sorted(TESTS.glob("*.py")), ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unread_definitions(sources: dict) -> list:
    """(module, name) of every module-level function, class and constant of
    ``sources`` ({module name: source}, ``__init__`` included) that no
    module reads as a name or an attribute or imports."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    unread = []
    for module, tree in trees.items():
        if module == "__init__":
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [target.id for target in targets if isinstance(target, ast.Name)]
            else:
                continue
            unread += [(module, name) for name in names
                       if name not in read and not name.startswith("__")]
    return sorted(unread)


def test_the_check_sees_an_unread_definition():
    sources = {
        "__init__": "from .a import public\n",
        "a": "LIMIT = 3\nUNREAD = 4\ndef public(): return b.helper(LIMIT)\nclass Ghost: pass\n",
        "b": "from .a import LIMIT\ndef helper(n): return n\n",
    }
    assert unread_definitions(sources) == [("a", "Ghost"), ("a", "UNREAD")]


def test_every_definition_is_read():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert unread_definitions(sources) == []


def imported_modules(source: str) -> set:
    """The top-level names of the modules a source imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_the_module_check_sees_an_import():
    assert imported_modules("from fractions import Fraction\nfrom .algebra import ONE\n") \
        == imported_modules("import fractions.x\n") == {"fractions"}


def test_only_algebra_imports_fractions():
    importers = [path.name for path in sorted(PACKAGE.glob("*.py"))
                 if "fractions" in imported_modules(path.read_text(encoding="utf-8"))]
    assert importers == ["algebra.py"]
