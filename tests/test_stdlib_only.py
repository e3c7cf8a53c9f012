"""The runtime package imports only the standard library and itself."""
import ast
import pathlib
import sys

import traceforms

PACKAGE = pathlib.Path(traceforms.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def _imported_roots(tree):
    """Top-level names of the absolute imports in a module's AST; relative
    imports stay inside the package and are skipped."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_modules_are_found():
    names = {p.stem for p in MODULES}
    assert {"__init__", "clifford", "cli", "quadratic", "groups"} <= names


def test_runtime_imports_only_stdlib_and_itself():
    allowed = set(sys.stdlib_module_names) | {"traceforms"}
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        foreign = sorted(set(_imported_roots(tree)) - allowed)
        assert not foreign, f"{path.name} imports {foreign}"
