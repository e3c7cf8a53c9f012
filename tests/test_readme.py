"""The README's code examples run as written, and its layer table names
only what the package has."""
import importlib
import inspect
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_snippet_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(snippet, "README.md#Library", "exec"), {})


# a backtick span that is a name, dotted or not: `FormClass.scale`, not `h2(G)`
_NAME = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)`", re.ASCII)


def _parameters(module) -> set:
    """The parameter names of the functions and methods module defines."""
    out = set()
    for obj in vars(module).values():
        for f in [obj, *(vars(obj).values() if inspect.isclass(obj) else ())]:
            if inspect.isfunction(f) and f.__module__ == module.__name__:
                out |= set(inspect.signature(f).parameters)
    return out


def _resolves(name: str, layer: str, modules: dict) -> bool:
    """Whether name is a layer (the package root among them), an
    attribute of one, the name of an attribute or slot of one of their
    classes, a dotted path through such attributes, or a parameter of a
    function of the row's own layer."""
    head, *rest = name.split(".")
    objs = [modules[head]] if head in modules else [
        vars(m)[head] for m in modules.values() if head in vars(m)]
    if not rest:
        classes = [c for m in modules.values() for c in vars(m).values() if inspect.isclass(c)]
        return bool(objs) or any(hasattr(c, head) for c in classes) or (
            head in _parameters(modules[layer]))
    for obj in objs:
        for part in rest:
            obj = getattr(obj, part, _MISSING)
        if obj is not _MISSING:
            return True
    return False


_MISSING = object()


def test_layer_table_names_only_real_names():
    # the quadratic row named TruncatedSW and sw_scale after both had gone
    rows = re.findall(r"^\| `(\w+)` +\|(.*)\|$", README.read_text(encoding="utf-8"), re.M)
    modules = {layer: importlib.import_module(f"traceforms.{layer}") for layer, _ in rows}
    modules["traceforms"] = importlib.import_module("traceforms")
    assert len(rows) == 11, sorted(modules)
    stale = [(layer, name) for layer, text in rows for name in _NAME.findall(text)
             if not _resolves(name, layer, modules)]
    assert stale == []
