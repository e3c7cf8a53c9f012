"""Exact computation of mod-2 cohomological obstructions of finite
groups and Hasse-Witt invariants of trace forms of étale algebras
over Q.

The layers, bottom to top:

- ``perms``, ``gf2``: permutation words and GF(2) linear algebra.
- ``groups``: finite groups as multiplication tables, a named catalog,
  Sylow 2-subgroups, quotients, the left regular representation.
- ``cohomology``: normalized 2-cocycles with F2 coefficients, H²,
  the involution-diagonal map and its kernel, central extensions and
  the involution-lifting property.
- ``clifford``: pin lifts of permutations as integer folds, and sign
  cocycles of translation actions.  ``pin_lift`` checks a lift by its
  norm and its action; each sign is read off an exact rewrite of the
  word of the factors of the two lifts and of the lift of their
  product, and a full sign table is also checked by the cocycle
  identity.
- ``quadratic``: square classes, Hilbert symbols, ramification sets of
  cup products, diagonalization, Hasse-Witt style invariants, rational
  isometry via the local-global classification.
- ``oracles``: brute-force local solvability checks that shadow the
  closed-form Hilbert symbol.
- ``galois``: trace forms of étale algebras from Newton power sums,
  discriminants, the 2-group classification of trace forms, and
  report-producing theorem checks that take a Galois algebra and its
  group and derive their premises from the pair.
- ``fixtures``: number-field catalog (octic and quartic fixtures with
  their Galois groups).
- ``verify``: statement-by-statement verification reports and the
  seeded property batteries.
- ``cli``: the ``traceforms`` command.

Every layer is registered here unexecuted and runs on its first
attribute access (``importlib.util.LazyLoader``), so a command compiles
only the layers its verb reaches.  ``import traceforms.cli`` still puts
every layer in ``sys.modules``.  The public names below are served from
their layers by the module ``__getattr__`` (PEP 562).
"""

import importlib.util
import sys

__version__ = "1.0.0"

# layer -> the public names it defines, in the order of __all__
_EXPORTS = {
    "cohomology": ("Cocycle2", "CohClass", "h2", "is_2_reduced", "ker_s",
                   "s_map", "two_lift_property"),
    "clifford": ("involution_square_sign", "pin_cocycle", "pin_lift"),
    "galois": ("EtaleAlg", "GaloisError", "MonicPoly", "algebra_disc",
               "classify_2group_trace_form", "trace_form", "trace_gram",
               "two_cyclic_sylow_orders", "verify_main",
               "verify_two_cyclic_sylow", "verify_w1"),
    "groups": ("Group", "catalog", "group_from_spec", "sylow2"),
    "quadratic": ("QForm", "TruncatedSW", "cup", "diagonalize",
                  "hilbert_symbol", "is_isometric_q", "signature",
                  "sw_total", "w1", "w2"),
    "verify": ("DEFAULT_SEED", "VerificationReport", "run_statement",
               "run_suite"),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = [*_LAYER_OF, "__version__"]


def _lazy(layer: str):
    """traceforms.<layer>, in sys.modules but run on first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{layer}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# bottom to top; __main__ is left to ``python -m``
perms = _lazy("perms")
gf2 = _lazy("gf2")
groups = _lazy("groups")
cohomology = _lazy("cohomology")
clifford = _lazy("clifford")
quadratic = _lazy("quadratic")
oracles = _lazy("oracles")
galois = _lazy("galois")
fixtures = _lazy("fixtures")
verify = _lazy("verify")
cli = _lazy("cli")


def __getattr__(name):
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[layer], name)
