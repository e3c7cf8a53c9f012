"""Every top-level function or class, and every method, in the package is
referenced by name somewhere else in the package or listed in an
`__all__`.  Dunder methods are exempt: Python calls them.

A top-level definition f of module m counts as referenced by the name f
inside m, by `m.f`, or by the name under which another module imports it
with `from .m import f` (`from . import f` for the package root's f).  A name the package serves lazily from m (its
`_EXPORTS` table) counts as exported by m.  A method counts as referenced by any attribute
of its name.  References made only from inside the definition itself, or
from definitions already found dead, do not count, so a helper whose
only caller is dead is dead too.
"""
import ast
import collections
import pathlib

import traceforms

PKG = pathlib.Path(traceforms.__file__).parent
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _references(mod: str, nodes) -> collections.Counter:
    refs = collections.Counter()
    for node in (n for top in nodes for n in ast.walk(top)):
        if isinstance(node, ast.Name):
            refs["name", mod, node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs["attr", node.attr] += 1
            if isinstance(node.value, ast.Name):
                refs["modattr", node.value.id, node.attr] += 1
    return refs


def _own_nodes(node) -> list:
    """A definition's own code: a class without its methods, whose code
    is their own, so that no two definitions share a node."""
    if not isinstance(node, ast.ClassDef):
        return [node]
    return node.decorator_list + node.bases + [
        s for s in node.body if not isinstance(s, _DEFS)]


def _scan():
    """The package's definitions, each as (module, name, node, keys of
    the references that name it); the reference counts; and the
    exported (module, name) pairs."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(PKG.glob("*.py"))}
    imports = collections.defaultdict(list)  # (module, name) -> local names
    exported = set()
    for mod, tree in trees.items():
        local = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                source = node.module or "__init__"  # "from . import f": the root's f
                for a in node.names:
                    imports[source, a.name].append((mod, a.asname or a.name))
                    local[a.asname or a.name] = (source, a.name)
            if not isinstance(node, ast.Assign):
                continue
            targets = {t.id for t in node.targets if isinstance(t, ast.Name)}
            if "__all__" in targets:
                exported |= {local.get(e.value, (mod, e.value)) for e in node.value.elts
                             if isinstance(e, ast.Constant)}
            if "_EXPORTS" in targets:  # the package's lazy table: layer -> names
                exported |= {(layer.value, e.value) for layer, names in
                             zip(node.value.keys, node.value.values) for e in names.elts}
    defs = []  # (module, name, node, keys that reference it)
    for mod, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, _DEFS):
                continue
            keys = [("name", mod, node.name), ("modattr", mod, node.name)]
            keys += [("name", m, n) for m, n in imports[mod, node.name]]
            defs.append((mod, node.name, node, keys))
            if isinstance(node, ast.ClassDef):
                defs += [(mod, m.name, m, [("attr", m.name)])
                         for m in node.body if isinstance(m, _DEFS)]
    refs = sum((_references(m, [t]) for m, t in trees.items()), collections.Counter())
    return defs, refs, exported


def _unreferenced() -> list[str]:
    defs, refs, exported = _scan()
    own = {id(node): _references(mod, _own_nodes(node)) for mod, _, node, _ in defs}
    candidates = [d for d in defs
                  if not (d[1].startswith("__") and d[1].endswith("__"))
                  and (d[0], d[1]) not in exported]
    dead = {}
    while True:
        # references made from dead code do not count
        live_refs = refs - sum((own[k] for k in dead), collections.Counter())
        found = {id(node): (mod, name, node.lineno)
                 for mod, name, node, keys in candidates
                 if id(node) not in dead
                 and sum(live_refs[k] - own[id(node)][k] for k in keys) <= 0}
        if not found:
            return sorted(f"{m}.py:{line} {name}" for m, name, line in dead.values())
        dead.update(found)


def test_every_definition_is_referenced_or_exported():
    assert _unreferenced() == []


def test_scan_sees_definitions_and_exports():
    # guard against a scan that passes by finding nothing
    defs, refs, exported = _scan()
    names = {(mod, name) for mod, name, _, _ in defs}
    assert {("groups", "Group"), ("groups", "mul"), ("verify", "_tally"),
            ("gf2", "nullspace")} <= names
    assert ("clifford", "pin_lift") in exported
    assert refs["modattr", "perms", "compose"] > 0
