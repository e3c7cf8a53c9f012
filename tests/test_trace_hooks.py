"""The benchmark's tracer (perfbench/tracing.py) wraps program functions
by name.  These tests fail when such a function is renamed or removed,
instead of a traced run breaking later."""
import importlib
import pathlib
import pkgutil
import types

import traceforms

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


# The caches that may be unbounded, each with what bounds its keys instead.
_UNBOUNDED_CACHES = {
    ("oracles", "_squares_mod"): "its moduli are p^3 for p <= ORACLE_PLACE_CAP, and 64",
}


def test_program_caches_are_bounded():
    # an unbounded cache keeps every group, H2 basis or symbol it was
    # asked for alive: one order-2048 catalog group holds 32.5 MB
    found = set()
    for info in pkgutil.iter_modules(traceforms.__path__):
        if info.name == "__main__":
            continue
        mod = importlib.import_module(f"traceforms.{info.name}")
        for name, obj in vars(mod).items():
            if callable(getattr(obj, "cache_info", None)) and obj.__module__ == mod.__name__:
                found.add((info.name, name))
                if (info.name, name) not in _UNBOUNDED_CACHES:
                    maxsize = obj.cache_info().maxsize
                    assert isinstance(maxsize, int) and maxsize > 0, (info.name, name)
    assert set(_UNBOUNDED_CACHES) <= found
    assert {("cohomology", "h2"), ("quadratic", "_cup_cached"),
            ("groups", "_catalog_cached")} <= found
