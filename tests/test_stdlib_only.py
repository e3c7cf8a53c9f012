"""The runtime package imports only the standard library and itself, and
not the stdlib modules whose import a CLI child would pay for nothing."""
import ast
import pathlib
import sys

import traceforms

PACKAGE = pathlib.Path(traceforms.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def _imports(tree, top_level_only=False):
    """(module, node) of each absolute import in a module's AST, only the
    statements of its top level with top_level_only; relative imports
    stay inside the package and are skipped."""
    nodes = tree.body if top_level_only else ast.walk(tree)
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, node
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module, node


def _imported_roots(tree):
    """Top-level names of the absolute imports in a module's AST."""
    for name, _ in _imports(tree):
        yield name.split(".")[0]


def test_package_modules_are_found():
    names = {p.stem for p in MODULES}
    assert {"__init__", "clifford", "cli", "quadratic", "groups"} <= names


def test_runtime_imports_only_stdlib_and_itself():
    allowed = set(sys.stdlib_module_names) | {"traceforms"}
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        foreign = sorted(set(_imported_roots(tree)) - allowed)
        assert not foreign, f"{path.name} imports {foreign}"


def test_no_module_imports_dataclasses():
    # dataclasses imports inspect, ast, dis and tokenize: 8-10 ms of the
    # start-up of every CLI child, plus about 1 ms per decorated class
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found = [n.lineno for name, n in _imports(tree)
                 if name.split(".")[0] == "dataclasses"]
        assert not found, f"{path.name} imports dataclasses at lines {found}"


def test_cli_imports_fractions_only_where_it_parses_a_rational():
    # fractions imports decimal; the group, cohomology and pin verbs read
    # no rational
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    assert [name for name, _ in _imports(tree, top_level_only=True)
            if name.split(".")[0] == "fractions"] == []
    assert any(name == "fractions" for name, _ in _imports(tree))
