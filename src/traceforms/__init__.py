"""Exact computation of mod-2 cohomological obstructions of finite
groups and Hasse-Witt invariants of trace forms of étale algebras
over Q.

The layers, bottom to top:

- ``perms``, ``gf2``: permutation words and GF(2) linear algebra.
- ``groups``: finite groups as multiplication tables, a named catalog,
  Sylow 2-subgroups, quotients, the left regular representation.
- ``cohomology``: normalized 2-cocycles with F2 coefficients, each one
  int, and H², whose classes are coordinate masks in ``h2(G)``'s basis;
  the involution-diagonal map and its kernel, central extensions as
  pairs (total group, central involution) and the involution-lifting
  property, read off the squares of the total group.
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
every layer in ``sys.modules``.  A first run that raises (an error, or a
signal such as Ctrl-C or SIGALRM arriving mid-run) leaves its layer
unexecuted again, as a failed import leaves nothing behind, so the next
access runs it afresh instead of finding it half-run.  The public names
below are served from their layers by the module ``__getattr__`` (PEP
562).

The package's one integer rule lives here, in the module every command
runs: an integer is an ``int`` (never a ``bool``: a bool is no number) or
text that, stripped, is an optional ASCII sign and ASCII digits.  So
"1_0", "٣" and "4.0" are integers on no Python, and `_DigitLimit`
refuses one too long for int() in words that do not change with it.
Its one quoting rule lives here too: a refusal shows a value by
`_quote`, reprlib.repr's shortened text, but the same on every Python
and in every run: an int past that digit limit reads ``<int of N bits>``
and a value whose repr raises ``<Fraction instance>`` (its type).
"""

import importlib.util
import reprlib
import sys

__version__ = "1.0.0"

# layer -> the public names it defines, in the order of __all__
_EXPORTS = {
    "cohomology": ("Cocycle2", "h2", "is_2_reduced", "ker_s", "s_map",
                   "two_lift_property"),
    "clifford": ("involution_square_sign", "pin_cocycle", "pin_lift"),
    "galois": ("EtaleAlg", "GaloisError", "MonicPoly", "algebra_disc",
               "classify_2group_trace_form", "trace_form", "trace_gram",
               "two_cyclic_sylow_orders", "verify_main",
               "verify_two_cyclic_sylow", "verify_w1"),
    "groups": ("Group", "catalog", "group_from_spec", "sylow2"),
    "quadratic": ("FormClass", "QForm", "cup", "diagonalize", "form_class",
                  "hilbert_symbol", "signature", "w1", "w2"),
    "verify": ("DEFAULT_SEED", "VerificationReport", "run_statement",
               "run_suite"),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = [*_LAYER_OF, "__version__"]


def _ints(xs) -> bool:
    """Whether every x in xs is of type int itself, so never a bool; at C
    speed, with no Python call per x."""
    return set(map(type, xs)) <= {int}


class _DigitLimit(ValueError):
    """A number written with more digits than int() and Fraction() read."""

    def __init__(self, digits: int):
        super().__init__(f"a number of {digits} digits exceeds "
                         f"sys.int_info.default_max_str_digits = "
                         f"{sys.int_info.default_max_str_digits}")


def _as_int(x) -> int:
    """x read by the integer rule, else ValueError for the caller to re-raise
    (but _DigitLimit, which it passes on: that text is an integer)."""
    if _ints((x,)):
        return x
    if isinstance(x, str) and x.isascii():
        t = x.strip()
        digits = t[1:] if t[:1] in "+-" else t
        if digits.isdigit():
            if len(digits) > sys.int_info.default_max_str_digits:
                raise _DigitLimit(len(digits))
            return int(t)
    raise ValueError("not an integer")


def _quote_int(n: int, level: int) -> str:
    """n by its size past the digit limit: 3.10-3.12 raise, 3.13 shows its address."""
    if abs(n) >= 10 ** sys.int_info.default_max_str_digits:
        return f"<int of {n.bit_length()} bits>"
    return reprlib.Repr.repr_int(_QUOTER, n, level)


def _quote_instance(x, level: int) -> str:
    """x by its type where its repr raises: reprlib shows id(x), new each run."""
    try:
        repr(x)
    except Exception:
        return f"<{type(x).__name__} instance>"
    return reprlib.Repr.repr_instance(_QUOTER, x, level)


_QUOTER = reprlib.Repr()
_QUOTER.repr_int = _quote_int  # Repr looks up repr_<type name> on itself
_QUOTER.repr_instance = _quote_instance  # and this for any other type
_quote = _QUOTER.repr  # a value in a refusal, by reprlib.repr's rule


class _Rerun:
    """A layer's own loader, whose run of the layer either completes or is
    undone: the module gets back the namespace it had before and is made
    lazy again.  The module object stays the one other layers hold."""

    def __init__(self, loader):
        self._loader = loader

    def __getattr__(self, name):  # get_source, get_filename, ...
        return getattr(self._loader, name)

    def exec_module(self, module):
        before = dict(module.__dict__)
        try:
            self._loader.exec_module(module)
        except BaseException:
            module.__dict__.clear()
            module.__dict__.update(before)
            importlib.util.LazyLoader(self).exec_module(module)
            raise


def _lazy(layer: str):
    """traceforms.<layer>, in sys.modules but run on first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{layer}")
    spec.loader = importlib.util.LazyLoader(_Rerun(spec.loader))
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
