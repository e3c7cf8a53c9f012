"""Factoring happens where a value is held.  `_square_class` factors a
value once, and the object that holds the value keeps its class: a
`QForm` its entries', a `TruncatedSW` its disc's.  These tests read the
package's source and keep it that way: a function of `quadratic` that
names one of the names below must be one of the listed readers, and no
other module names the private square-class and cup helpers.
"""
import ast
import collections
import pathlib

import traceforms

PKG = pathlib.Path(traceforms.__file__).parent

# name -> the only functions of quadratic that may name it
_READERS = {
    "factorint": {"_square_class"},
    "squarefree_part": {"hilbert_symbol"},
    # the public door takes bare values; inside the module they are held
    "cup": set(),
    "_square_class": {"squarefree_part", "cup", "_classes", "_disc_class", "sw_scale"},
}
_PRIVATE = {"_square_class", "_cup_at", "_cup_cached"}


def _tree(mod: str) -> ast.Module:
    return ast.parse((PKG / f"{mod}.py").read_text(encoding="utf-8"))


def _names_by_function(tree: ast.Module) -> dict:
    """name -> the top-level functions and methods (by name) whose
    bodies load it; code outside any function counts as "<module>"."""
    out = collections.defaultdict(set)
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    owners = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            owners += [(m.name, m) for m in node.body if isinstance(m, funcs)]
            owners += [("<module>", s) for s in node.body if not isinstance(s, funcs)]
        else:
            owners.append((node.name if isinstance(node, funcs) else "<module>", node))
    for owner, node in owners:
        for n in ast.walk(node):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                out[n.id].add(owner)
    return out


def test_quadratic_names_each_door_only_from_its_readers():
    names = _names_by_function(_tree("quadratic"))
    assert {k: names.get(k, set()) for k in _READERS} == _READERS


def test_no_other_module_names_the_square_class_helpers():
    found = []
    for path in sorted(PKG.glob("*.py")):
        if path.stem == "quadratic":
            continue
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            named = {getattr(n, "id", None), getattr(n, "attr", None)}
            if isinstance(n, ast.ImportFrom):
                named |= {a.name for a in n.names}
            found += [f"{path.name}:{n.lineno} {x}" for x in named & _PRIVATE]
    assert found == []
