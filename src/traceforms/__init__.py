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
  cocycles of translation actions read off the folds; one Clifford
  product, on integers.  ``pin_lift`` checks a lift by its norm and its
  action; the sign functions fold the factors directly and prove each
  sign by proportionality of the product to the lift of the product,
  and a full sign table also by the cocycle identity.
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
"""

from .cohomology import (
    Cocycle2,
    CohClass,
    h2,
    is_2_reduced,
    ker_s,
    s_map,
    two_lift_property,
)
from .clifford import involution_square_sign, pin_cocycle, pin_lift
from .galois import (
    EtaleAlg,
    GaloisError,
    MonicPoly,
    algebra_disc,
    classify_2group_trace_form,
    trace_form,
    trace_gram,
    two_cyclic_sylow_orders,
    verify_main,
    verify_two_cyclic_sylow,
    verify_w1,
)
from .groups import Group, catalog, group_from_spec, sylow2
from .quadratic import (
    QForm,
    TruncatedSW,
    cup,
    diagonalize,
    hilbert_symbol,
    is_isometric_q,
    signature,
    sw_total,
    w1,
    w2,
)
from .verify import DEFAULT_SEED, VerificationReport, run_statement, run_suite

__version__ = "1.0.0"

__all__ = [
    "Cocycle2", "CohClass", "h2", "is_2_reduced", "ker_s", "s_map",
    "two_lift_property", "involution_square_sign", "pin_cocycle", "pin_lift",
    "EtaleAlg", "GaloisError", "MonicPoly", "algebra_disc",
    "classify_2group_trace_form", "trace_form",
    "trace_gram", "two_cyclic_sylow_orders", "verify_main",
    "verify_two_cyclic_sylow", "verify_w1",
    "Group", "catalog", "group_from_spec", "sylow2",
    "QForm", "TruncatedSW", "cup", "diagonalize", "hilbert_symbol",
    "is_isometric_q", "signature", "sw_total", "w1", "w2",
    "DEFAULT_SEED", "VerificationReport", "run_statement", "run_suite",
    "__version__",
]
