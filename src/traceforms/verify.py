"""Statement-by-statement verification reports.

Each runner computes one mathematical claim on concrete inputs and
returns its inputs, what it computed and what the claim expects.  The
verdict is decided in one place, `run_statement`: "pass" exactly when
the computed values hold the expected ones (every expected key is
present, and at a leaf the two values are equal), "fail" otherwise or
when the runner raises.  The seeded property batteries are counted by
one `_tally`, which also reports the first failing case.  `run_suite`
runs every statement; reports serialize to deterministic JSON (runtimes
are kept out of the payload unless explicitly requested).
"""
from __future__ import annotations

import functools
import random
import time
import zlib
from itertools import islice
from typing import NamedTuple

from . import _ints, _quote, clifford, cohomology, fixtures, galois, groups, oracles, quadratic

DEFAULT_SEED = 20260816


def jsonable(x):
    """Deterministic JSON-safe rendering of the computational objects.
    The builtin types are tried first, so a report of plain values
    reads no layer; anything else, such as a Fraction, is its str."""
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if x is None or isinstance(x, (int, float, str)):
        return x
    if isinstance(x, (frozenset, set)):
        return [jsonable(v) for v in sorted(x, key=quadratic.place_sort_key)]
    if isinstance(x, quadratic.QForm):
        return [str(a) for a in x.entries]
    return str(x)


class VerificationReport:
    __slots__ = ("statement", "inputs", "computed", "expected", "verdict", "notes",
                 "runtime")

    def __init__(self, statement: str, inputs: dict, computed: dict, expected: dict,
                 verdict: str, notes: str = "", runtime: float = 0.0):
        self.statement = statement
        self.inputs = inputs
        self.computed = computed
        self.expected = expected
        self.verdict = verdict  # "pass" | "fail", set by run_statement
        self.notes = notes
        self.runtime = runtime  # set by run_statement

    def __repr__(self):
        return (f"VerificationReport(statement={self.statement!r}, "
                f"inputs={self.inputs!r}, computed={self.computed!r}, "
                f"expected={self.expected!r}, verdict={self.verdict!r}, "
                f"notes={self.notes!r}, runtime={self.runtime!r})")

    def as_dict(self, include_runtime: bool = False) -> dict:
        d = {
            "statement": self.statement,
            "inputs": jsonable(self.inputs),
            "computed": jsonable(self.computed),
            "expected": jsonable(self.expected),
            "verdict": self.verdict,
        }
        if self.notes:
            d["notes"] = self.notes
        if include_runtime:
            d["runtime_seconds"] = round(self.runtime, 3)
        return d


class _Claim(NamedTuple):
    """What a runner returns.  `checked` stands in for `computed` when the
    verdict reads a value that the report does not print."""
    inputs: dict
    computed: dict
    expected: dict
    notes: str = ""
    checked: dict | None = None


def _holds(computed, expected) -> bool:
    """Every expected key is present in computed, and at a leaf the two
    values are equal."""
    if isinstance(expected, dict):
        return isinstance(computed, dict) and all(
            k in computed and _holds(computed[k], v) for k, v in expected.items())
    return computed == expected


# ---------------------------------------------------------------------------
# statement runners


def run_prop_lift2(seed: int) -> _Claim:
    """Sign of the square of the lift of a fixed-point-free involution:
    +1 exactly when the degree is 0 or 2 mod 8.  The Clifford and
    closed-form routes are compared internally at every even n <= 24."""
    degrees = list(range(2, 25, 2))
    # involution_square_sign raises if the two routes disagree
    computed = {n: clifford.involution_square_sign(n) for n in degrees}
    expected = {**{n: 1 for n in (2, 8, 10, 16, 24)},
                **{n: -1 for n in (4, 6, 12, 14, 20)}}
    return _Claim(
        {"degrees": degrees}, computed, expected,
        notes="both computation routes agreed at every even degree <= 24",
    )


_TWO_REDUCED_EXPECTED = (
    ("cyclic:2", True), ("cyclic:4", True), ("cyclic:8", True),
    ("cyclic:16", True),
    ("elem_abelian_2:1", True), ("elem_abelian_2:2", True),
    ("elem_abelian_2:3", True),
    ("dihedral:8", True), ("dihedral:16", True),
    ("sym:3", True), ("sym:4", True), ("alt:4", True),
    ("quaternion8", False), ("z4xz2", False),
)


def run_2reduced_table(seed: int) -> _Claim:
    computed = {key: cohomology.is_2_reduced(groups.group_from_spec("catalog:" + key))
                for key, _ in _TWO_REDUCED_EXPECTED}
    return _Claim({"groups": list(computed)}, computed,
                  dict(_TWO_REDUCED_EXPECTED))


def run_h2_s4(seed: int) -> _Claim:
    b = cohomology.h2(groups.catalog("sym", 4))
    computed = {"dim": b.dim, "cocycle_dim": b.z2_dim, "coboundary_dim": b.b2_dim}
    return _Claim({"group": "sym:4"}, computed, {"dim": 2})


def run_quat_counterexample(seed: int) -> _Claim:
    """The order-16 cover of the quaternion group: the extension has the
    involution-lifting property but its class is not a coboundary."""
    T = groups.catalog("quat_cover")
    t = 10  # (2, 2) is element 4·2 + 2 of quat_cover's a-major list of pairs (a, b)
    base, coords = cohomology.class_of_extension(T, t)
    computed = {
        "base_order": base.order,
        "base_involutions": len(base.involutions()),
        "base_abelian": base.is_abelian(),
        "two_lift_property": cohomology.two_lift_property(T, t),
        "class_is_coboundary": coords == 0,
        "class_diagonal": list(cohomology.s_map(cohomology.h2(base).representative(coords))),
        "base_two_reduced": cohomology.is_2_reduced(base),
    }
    return _Claim(
        {"total": "quat_cover", "kernel": "(2,2)"}, computed,
        {"two_lift_property": True, "class_is_coboundary": False},
        notes="base group fingerprint: order 8, one involution, nonabelian",
    )


def run_pin_splitness(seed: int) -> _Claim:
    """Pin-lift sign cocycles of translation actions: split at order 8
    for the dihedral, cyclic and elementary abelian groups; nonzero
    diagonal for the cyclic group of order 4."""
    computed = {}
    for key in ("dihedral:8", "cyclic:8", "elem_abelian_2:3", "cyclic:4",
                "quaternion8"):
        G = groups.group_from_spec("catalog:" + key)
        c = clifford.pin_cocycle(G)
        computed[key] = {"coboundary": cohomology.h2(G).coords(c) == 0,
                         "diagonal": list(cohomology.s_map(c))}
    expected = {
        "dihedral:8": {"coboundary": True},
        "cyclic:8": {"coboundary": True},
        "elem_abelian_2:3": {"coboundary": True},
        "cyclic:4": {"diagonal_nonzero": True},
    }
    # the report prints the diagonal; the verdict reads whether it is nonzero
    checked = {**computed,
               "cyclic:4": {"diagonal_nonzero": any(computed["cyclic:4"]["diagonal"])}}
    return _Claim(
        {"groups": list(computed)}, computed, expected,
        notes="quaternion8 value is reported without an asserted expectation",
        checked=checked,
    )


_MAIN_FIXTURES = ("multiquadratic_real", "multiquadratic_imaginary",
                  "cyclic8_real", "dihedral8_imaginary")


def run_thm_main(seed: int) -> _Claim:
    """w2 of the trace form equals cup(2, disc) on the octic fields, and
    triviality of the disc class matches the structural predicate."""
    computed = {}
    for name in _MAIN_FIXTURES:
        fx = fixtures.BY_NAME[name]
        rep = galois.verify_main(fx.algebra, fx.group)
        repw = galois.verify_w1(fx.algebra, fx.group)
        computed[name] = {
            "status": rep["status"],
            "w2_places": rep.get("w2_places"),
            "cup_2_disc": rep.get("cup_2_disc"),
            "disc_class": repw["disc_class"],
            "disc_predicate_agrees": repw["status"] == "pass",
        }
    return _Claim(
        {"fixtures": list(_MAIN_FIXTURES)}, computed,
        {name: {"status": "pass", "disc_predicate_agrees": True}
         for name in _MAIN_FIXTURES},
    )


_NUMB2_FIXTURES = ("multiquadratic_real", "dihedral8_imaginary", "cyclic8_real",
                   "cyclic8_imaginary")


def run_cor_numb2(seed: int) -> _Claim:
    computed = {}
    for name in _NUMB2_FIXTURES:
        fx = fixtures.BY_NAME[name]
        r = galois.classify_2group_trace_form(fx.algebra, fx.group)
        computed[name] = {
            "case": r["case"],
            "real": r["real"],
            "cyclic": r["cyclic"],
            "disc": r["disc"],
            "model": r["model"],
            "trace_form": r["computed"],
            "isometric": r["isometric"],
        }
    expected = {name: {"case": fixtures.BY_NAME[name].case, "isometric": True}
                for name in _NUMB2_FIXTURES}
    return _Claim(
        {"fixtures": list(computed)}, computed, expected,
        notes="the imaginary cyclic octic was validated as cyclic degree 8"
              " (fixed field of an index-8 subgroup of the conductor-32"
              " cyclotomic field)",
    )


def run_two_cyclic_sylow(seed: int) -> _Claim:
    fx = fixtures.COMPOSITUM_C2XC4
    rep = galois.verify_two_cyclic_sylow(fx.algebra, fx.group, fixtures.COMPOSITUM_D1,
                                  fixtures.COMPOSITUM_D2)
    bq = fixtures.BIQUADRATIC_REAL
    gate = galois.verify_two_cyclic_sylow(bq.algebra, bq.group, 2, 3)
    computed = {
        "compositum": rep,
        "compositum_expected_places": fixtures.COMPOSITUM_EXPECTED_W2,
        "biquadratic_gate_status": gate["status"],
    }
    expected = {
        "compositum": {"status": "pass",
                       "w2_places": fixtures.COMPOSITUM_EXPECTED_W2},
        "biquadratic_gate_status": "skipped",
    }
    return _Claim(
        {"fixture": fx.name, "d1": fixtures.COMPOSITUM_D1,
         "d2": fixtures.COMPOSITUM_D2,
         "first_factor_order_2": galois.two_cyclic_sylow_orders(fx.group)[0] == 2},
        computed, expected,
    )


_REL_POLYS = ("quad_real_5", "quad_imag_3", "c4_real", "cyclotomic8")


def run_rel_identities(seed: int) -> _Claim:
    """Invariants of the algebra of m copies of a field, from the
    invariants of one copy: disc multiplies m times; the place set picks
    up binom(m,2) copies of cup(d, d)."""
    computed = {}
    for name in _REL_POLYS:
        fx = fixtures.BY_NAME[name]
        base = quadratic.form_class(galois.trace_form(fx.algebra))
        rows = {}
        for m in range(1, 5):
            A = galois.EtaleAlg(((fx.poly, m),))
            direct = quadratic.form_class(galois.trace_form(A))
            derived = base.repeat(m)
            rows[m] = {
                "direct": {"disc": direct.disc, "places": direct.places},
                "derived": {"disc": derived.disc, "places": derived.places},
                "equal": direct == derived,
            }
        computed[name] = rows
    expected = {name: {m: {"equal": True} for m in range(1, 5)}
                for name in _REL_POLYS}
    return _Claim(
        {"fields": list(_REL_POLYS), "copies": [1, 2, 3, 4]}, computed, expected,
    )


# ---------------------------------------------------------------------------
# seeded property batteries: a case generator and a check each


def _tally(cases, check) -> dict:
    """Trials and failures of check(**case) over the cases.  The first
    failing case is kept with its trial number (the first case is trial
    1), as JSON."""
    out = {"trials": 0, "failures": 0}
    for trial, case in enumerate(cases, 1):
        out["trials"] = trial
        if not check(**case):
            out["failures"] += 1
            out.setdefault("first_failure", {"trial": trial, "case": jsonable(case)})
    return out


def _fails_only_with(error, fn):
    """A check that fails exactly when fn raises error."""
    def check(**case):
        try:
            fn(**case)
        except error:
            return False
        return True
    return check


def _class_memo():
    """square_class for one run of a battery: one class per distinct value."""
    return functools.cache(quadratic.square_class)


def _sharing(entries, cls) -> quadratic.QForm:
    """The form of these entries, its classes read from cls, a
    square_class that one run of a battery shares among its values."""
    return quadratic.QForm(entries, tuple(map(cls, entries)))


def _random_form(rng: random.Random, max_rank: int, cls) -> quadratic.QForm:
    """A form of nonzero entries in [-12, 12], its classes read from cls."""
    rank = rng.randint(1, max_rank)
    pool = [x for x in range(-12, 13) if x]
    return _sharing(tuple(rng.choice(pool) for _ in range(rank)), cls)


def _gram_cases(rng: random.Random):
    """Random symmetric 6x6 integer matrices; degenerate draws are skipped."""
    from fractions import Fraction  # a failing case prints its entries as text

    while True:
        m = [[Fraction(rng.randint(-5, 5)) for _ in range(6)] for _ in range(6)]
        for i in range(6):
            for j in range(i):
                m[i][j] = m[j][i]
        try:
            quadratic.diagonalize(m)
        except quadratic.QuadraticError:
            continue
        yield {"gram": m}


def _perm_pairs(rng: random.Random):
    for _ in range(200):
        n = rng.randint(2, 10)
        p, q = list(range(n)), list(range(n))
        rng.shuffle(p)
        rng.shuffle(q)
        yield {"p": tuple(p), "q": tuple(q), "n": n}


# the even-order groups of the 2-reduced table, and the quaternion cover
_EVEN_ORDER_CATALOG = (*(key for key, _ in _TWO_REDUCED_EXPECTED), "quat_cover")


def _regular_parity(group: str) -> None:
    """regular_rep_in_alternating raises AssertionError where the parity
    of the regular representation disagrees with Sylow cyclicity."""
    groups.regular_rep_in_alternating(groups.group_from_spec("catalog:" + group))


_SMAP_GROUPS = ("cyclic:4", "cyclic:8", "elem_abelian_2:2",
                "elem_abelian_2:3", "z4xz2", "quaternion8",
                "dihedral:8", "sym:3")


def _smap_cases(rng: random.Random):
    """A class of H^2 by its coordinates, and the coboundary of a cochain
    with b(e) = 0 to add to its representative."""
    for key in _SMAP_GROUPS:
        G = groups.group_from_spec("catalog:" + key)
        dim = cohomology.h2(G).dim
        for _ in range(100):
            yield {"group": key, "coords": rng.getrandbits(dim),
                   "shift": rng.getrandbits(G.order) & ~1}


def _smap_invariant(group: str, coords: int, shift: int) -> bool:
    G = groups.group_from_spec("catalog:" + group)
    c = cohomology.h2(G).representative(coords)
    return cohomology.s_map(c.add(cohomology.delta1(G, shift))) == cohomology.s_map(c)


def _hilbert_oracle(rng: random.Random) -> dict:
    """The closed form against the oracle at every pair of values in
    [-30, 30] and every place up to 47, exhaustive, not sampled.  While it
    runs it builds each value's class once and keeps one row of symbols,
    one per place, per (symmetric) pair of classes."""
    places = (quadratic.INF, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
    column = {v: i for i, v in enumerate(places)}
    cls = _class_memo()

    @functools.cache
    def row(x, y):
        return tuple(oracles.hilbert_symbol_oracle(x, y, v) for v in places)

    return _tally(
        ({"a": a, "b": b, "v": v} for a in range(-30, 31) if a
         for b in range(a, 31) if b for v in places),
        lambda a, b, v: (quadratic.hilbert_symbol(cls(a), cls(b), v)
                         == row(*sorted((cls(a), cls(b))))[column[v]]))


def _diag_invariance(rng: random.Random) -> dict:
    cls = _class_memo()

    def isometry_class(gram, rng=None):
        q = _sharing(quadratic.diagonalize(gram, rng=rng).entries, cls)
        return quadratic.form_class(q)
    return _tally(
        islice(_gram_cases(rng), 100),
        lambda gram: isometry_class(gram) == isometry_class(gram, rng=rng))


def _reciprocity(rng: random.Random) -> dict:
    cls = _class_memo()
    return _tally(  # cup asserts an even place count
        ({"a": rng.randint(-200, 200) or 1, "b": rng.randint(-200, 200) or 3}
         for _ in range(300)),
        _fails_only_with(quadratic.QuadraticError,
                         lambda a, b: quadratic.cup(cls(a), cls(b))))


def _whitney(rng: random.Random) -> dict:
    cls = _class_memo()
    fc = quadratic.form_class
    return _tally(
        ({"q1": _random_form(rng, 5, cls), "q2": _random_form(rng, 5, cls)}
         for _ in range(100)),
        lambda q1, q2: fc(q1).direct_sum(fc(q2)) == fc(quadratic.direct_sum(q1, q2)))


def _scale_formula(rng: random.Random) -> dict:
    cls = _class_memo()
    fc = quadratic.form_class
    return _tally(
        ({"q": _random_form(rng, 6, cls),
          "a": rng.choice([x for x in range(-10, 11) if x])}
         for _ in range(100)),
        lambda q, a: fc(q).scale(cls(a)) == fc(quadratic.scale(a, q)))


_BATTERIES = (  # (name, fn(rng)): each fn tallies a check over its cases
    ("diag_invariance", _diag_invariance),
    ("hilbert_oracle", _hilbert_oracle),
    ("reciprocity", _reciprocity),
    ("whitney", _whitney),
    ("scale_formula", _scale_formula),
    ("pin_proportionality", lambda rng: _tally(
        _perm_pairs(rng),
        _fails_only_with(clifford.SignMismatchError, clifford.pin_product_sign))),
    ("regular_parity", lambda rng: _tally(
        ({"group": key} for key in _EVEN_ORDER_CATALOG),
        _fails_only_with(AssertionError, _regular_parity))),
    ("smap_coboundary", lambda rng: _tally(_smap_cases(rng), _smap_invariant)),
)


def run_property_suites(seed: int) -> _Claim:
    computed = {name: fn(random.Random(seed ^ zlib.crc32(name.encode())))
                for name, fn in _BATTERIES}
    expected = {name: {"failures": 0} for name, _ in _BATTERIES}
    # a battery that ran no trial proves nothing: the verdict leaves it out
    checked = {name: c for name, c in computed.items() if c["trials"]}
    return _Claim({"seed": seed}, computed, expected, checked=checked)


# ---------------------------------------------------------------------------
# dispatch

_RUNNERS = {  # in statement order
    "prop-lift2": run_prop_lift2,
    "2reduced-table": run_2reduced_table,
    "h2-s4": run_h2_s4,
    "quat-counterexample": run_quat_counterexample,
    "pin-splitness": run_pin_splitness,
    "thm-main": run_thm_main,
    "cor-numb2": run_cor_numb2,
    "two-cyclic-sylow": run_two_cyclic_sylow,
    "property-suites": run_property_suites,
    "rel-identities": run_rel_identities,
}
STATEMENTS = tuple(_RUNNERS)


def run_statement(statement: str, seed: int = DEFAULT_SEED) -> VerificationReport:
    """Run one statement; its verdict is "pass" exactly when the computed
    values hold the expected ones, and "fail" when they do not or when
    the runner raises.  An unknown statement or a non-int seed raises."""
    runner = _RUNNERS.get(statement)
    if runner is None:
        raise ValueError(f"unknown statement {_quote(statement)}; "
                         f"choose from {', '.join(STATEMENTS)}")
    if not _ints((seed,)):
        raise ValueError(f"seed must be an int, got {_quote(seed)}")
    t0 = time.perf_counter()
    try:
        claim = runner(seed)
        holds = _holds(claim.computed if claim.checked is None else claim.checked,
                       claim.expected)
    except Exception as exc:  # surface honest failures, never hide them
        claim = _Claim({}, {"error": f"{type(exc).__name__}: {exc}"}, {})
        holds = False
    report = VerificationReport(statement, claim.inputs, claim.computed,
                                claim.expected, "pass" if holds else "fail",
                                claim.notes)
    report.runtime = time.perf_counter() - t0
    return report


def run_suite(seed: int = DEFAULT_SEED) -> list[VerificationReport]:
    return [run_statement(s, seed) for s in STATEMENTS]
