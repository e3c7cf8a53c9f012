"""The benchmark's tracer (perfbench/tracing.py) wraps program functions
by name.  These tests fail when such a function is renamed or removed,
instead of a traced run breaking later."""
import importlib
import pathlib
import types

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    # exec the source rather than import it, so no bytecode cache is
    # written next to it
    mod = types.ModuleType("perfbench_tracing")
    mod.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), mod.__dict__)
    return mod


def test_every_traced_target_resolves():
    targets = _tracing()._TARGETS
    assert targets
    for mod, attr, _, _ in targets:
        obj = importlib.import_module(f"traceforms.{mod}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            obj = getattr(obj, cls_name)
            assert meth in vars(obj), f"{mod}.{attr}"
            continue
        assert callable(getattr(obj, attr, None)), f"{mod}.{attr}"


def test_traced_caches_keep_cache_info():
    cohomology = importlib.import_module("traceforms.cohomology")
    quadratic = importlib.import_module("traceforms.quadratic")
    assert callable(cohomology.h2.cache_info)
    assert callable(quadratic._cup_cached.cache_info)


def test_program_caches_are_bounded():
    # an unbounded cache keeps every perms: group (and its H2 basis) alive
    cohomology = importlib.import_module("traceforms.cohomology")
    quadratic = importlib.import_module("traceforms.quadratic")
    for lru in (cohomology.h2, quadratic._cup_cached):
        maxsize = lru.cache_info().maxsize
        assert isinstance(maxsize, int) and maxsize > 0, lru
