"""The package registers every layer unexecuted; a layer runs on its
first attribute access.  A command runs only the layers its verb uses,
and builds only its own verb's parser; the public names are served from
their layers."""
import json
import os
import subprocess
import sys

import pytest

import traceforms
from test_trace_hooks import _tracing

SRC = os.path.dirname(os.path.dirname(traceforms.__file__))

# prints {module: whether it has run} for every traceforms.* module,
# which of the costly stdlib modules are loaded, and the prog of each
# argparse parser built, as the last line of stdout, after the statements
# given
_CHILD = """
import argparse, json, runpy, sys, types
parsers = []
_init = argparse.ArgumentParser.__init__

def _counted(self, *args, **kwargs):
    parsers.append(kwargs.get("prog"))
    _init(self, *args, **kwargs)

argparse.ArgumentParser.__init__ = _counted
{body}
print(json.dumps({{
    "layers": {{k[len("traceforms."):]: type(m) is types.ModuleType
                for k, m in sys.modules.items() if k.startswith("traceforms.")}},
    "stdlib": sorted({{"dataclasses", "inspect", "fractions"}} & set(sys.modules)),
    "parsers": parsers,
}}))
"""
_RUN_VERB = """
sys.argv = ["traceforms", *sys.argv[1:]]
try:
    runpy.run_module("traceforms", run_name="__main__")
except SystemExit as exc:
    assert exc.code == 0, exc.code
"""


def _child(body: str, *argv) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD.format(body=body), *argv],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _module_states(body: str, *argv) -> dict[str, bool]:
    return _child(body, *argv)["layers"]


@pytest.mark.parametrize("argv, ran", [
    (["form", "--entries", "3,-5,7"], {"cli", "quadratic"}),
    (["pin-sign", "--n", "12"], {"cli", "clifford"}),
    (["trace", "--poly", "1,0,-7"], {"cli", "galois", "quadratic"}),
    (["h2", "--group", "catalog:sym:4"],
     {"cli", "cohomology", "gf2", "groups", "perms"}),
    # the four statements the benchmark pins
    (["verify", "--statement", "h2-s4"],
     {"cli", "verify", "cohomology", "gf2", "groups", "perms"}),
    (["verify", "--statement", "prop-lift2"], {"cli", "verify", "clifford"}),
    (["verify", "--statement", "quat-counterexample"],
     {"cli", "verify", "cohomology", "gf2", "groups"}),
    # a fixture names its group; this statement never looks it up
    (["verify", "--statement", "rel-identities"],
     {"cli", "verify", "fixtures", "galois", "quadratic"}),
    # a table group needs no permutation code
    (["kers", "--group", "catalog:z4xz2"], {"cli", "cohomology", "gf2", "groups"}),
])
def test_verb_runs_only_its_layers(argv, ran):
    states = _module_states(_RUN_VERB, *argv)
    assert {m for m, done in states.items() if done} == ran


# One invocation of each verb, the first the benchmark pins for it
# (perfbench/ops.py::PINNED_CLI), and `suite`.  The verbs before `form`
# read no rational, so they import no fractions (nor its decimal).
_RATIONAL_FREE = [
    ["group", "--group", "catalog:quaternion8", "--pretty"],
    ["h2", "--group", "catalog:sym:4"],
    ["kers", "--group", "catalog:z4xz2"],
    ["2reduced", "--group", "catalog:cyclic:8"],
    ["extension", "--group", "catalog:cyclic:4", "--cocycle", "basis:0"],
    ["pin-sign", "--n", "12"],
    ["pin-cocycle", "--group", "catalog:cyclic:4"],
]
_RATIONAL = [
    ["form", "--entries", "1,1", "--isometric-to", "2,2"],
    ["trace", "--poly", "1,0,-3"],
    ["classify", "--poly", "1,0,-8,0,20,0,-16,0,2", "--group", "catalog:cyclic:8"],
    ["verify", "--statement", "h2-s4"],
    ["suite"],
]


@pytest.mark.parametrize("argv, allowed", [
    *((argv, set()) for argv in _RATIONAL_FREE),
    *((argv, {"fractions"}) for argv in _RATIONAL),
], ids=lambda x: x[0] if isinstance(x, list) else None)
def test_verb_imports_no_dataclasses_or_inspect(argv, allowed):
    # dataclasses imports inspect, ast, dis, tokenize and more: 8-10 ms
    # of a child's start-up, on every verb but group
    loaded = _child(_RUN_VERB, *argv)["stdlib"]
    assert set(loaded) <= allowed, loaded


@pytest.mark.parametrize("argv", _RATIONAL_FREE + _RATIONAL, ids=lambda argv: argv[0])
def test_verb_builds_only_its_own_parser(argv):
    # neither the top parser nor another verb's: each verb's options are
    # added only where that verb runs
    assert _child(_RUN_VERB, *argv)["parsers"] == [f"traceforms {argv[0]}"]


def test_import_cli_registers_every_traced_layer_unexecuted():
    # the benchmark's tracer imports traceforms.cli and then looks up
    # each wrapped module in sys.modules
    states = _module_states("import traceforms.cli")
    targets = {mod for mod, _, _, _ in _tracing()._TARGETS}
    assert targets and targets <= set(states)
    assert not any(states.values()), states


# groups' first run is interrupted once its Group class exists, as a signal
# (Ctrl-C, a SIGALRM time limit) could interrupt it
_INTERRUPTED = """
import traceforms
fired = []

def tracer(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_name == "<module>" and code.co_filename.endswith("groups.py"):
        def line(frame, event, arg):
            if event == "line" and not fired and "Group" in frame.f_globals:
                fired.append(frame.f_lineno)
                raise KeyboardInterrupt
            return line
        return line

sys.settrace(tracer)
try:
    traceforms.groups.group_from_spec
except KeyboardInterrupt:
    pass
sys.settrace(None)
assert fired and type(traceforms.groups) is not types.ModuleType
assert traceforms.groups.group_from_spec("perms:(0 1 2)").order == 3
assert traceforms.cohomology.h2(traceforms.groups.catalog("cyclic", 2)).dim == 1
"""


def test_an_interrupted_first_run_leaves_the_layer_to_run_again():
    # the layer is unexecuted again, not half-run: the next access runs it
    # through, as an import retried after a failed one would
    states = _module_states(_INTERRUPTED)
    assert states["groups"] and states["cohomology"], states


def test_public_names_are_the_layers_own_objects():
    seen = set()
    for layer, names in traceforms._EXPORTS.items():
        module = sys.modules[f"traceforms.{layer}"]
        for name in names:
            obj = getattr(traceforms, name)
            assert obj is getattr(module, name), name
            assert getattr(obj, "__module__", module.__name__) in (
                module.__name__, "builtins"), name
            seen.add(name)
    assert seen | {"__version__"} == set(traceforms.__all__)
    assert len(traceforms.__all__) == len(set(traceforms.__all__))


def test_star_import_gives_every_public_name():
    ns = {}
    exec("from traceforms import *", ns)
    assert set(traceforms.__all__) <= set(ns)
    assert ns["h2"] is traceforms.cohomology.h2
    assert ns["DEFAULT_SEED"] == traceforms.verify.DEFAULT_SEED


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        traceforms.no_such_name  # noqa: B018
    assert not hasattr(traceforms, "no_such_name")
