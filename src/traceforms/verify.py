"""Statement-by-statement verification reports.

Each runner computes both sides of one mathematical claim on concrete
inputs and reports pass/fail/skipped.  `run_suite` executes the whole
battery; reports serialize to deterministic JSON (runtimes are kept out
of the payload unless explicitly requested).
"""
from __future__ import annotations

import random
import time
import zlib
from dataclasses import dataclass
from fractions import Fraction

from . import fixtures
from .clifford import (
    SignMismatchError,
    involution_square_sign,
    pin_cocycle,
    pin_product_sign,
)
from .cohomology import (
    central_extension_from_quotient,
    class_of_extension,
    delta1,
    h2,
    is_2_reduced,
    s_map,
    two_lift_property,
)
from .galois import (
    EtaleAlg,
    classify_2group_trace_form,
    trace_form,
    two_cyclic_sylow_orders,
    verify_main,
    verify_two_cyclic_sylow,
    verify_w1,
)
from .groups import Group, catalog, group_from_spec, regular_rep_in_alternating, sylow2
from .oracles import hilbert_symbol_oracle
from .quadratic import (
    INF,
    QForm,
    QuadraticError,
    cup,
    diagonalize,
    direct_sum,
    hilbert_symbol,
    place_sort_key,
    scale,
    signature,
    sw_direct_sum,
    sw_repeat,
    sw_scale,
    sw_total,
    w1,
    w2,
)

DEFAULT_SEED = 20260816


def jsonable(x):
    """Deterministic JSON-safe rendering of the computational objects."""
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (frozenset, set)):
        return [jsonable(v) for v in sorted(x, key=place_sort_key)]
    if isinstance(x, QForm):
        return [str(a) for a in x.entries]
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, Group):
        return x.name or f"group-of-order-{x.order}"
    if isinstance(x, bool) or x is None or isinstance(x, (int, float, str)):
        return x
    return str(x)


@dataclass
class VerificationReport:
    statement: str
    inputs: dict
    computed: dict
    expected: dict
    verdict: str  # "pass" | "fail" | "skipped"
    notes: str = ""
    runtime: float = 0.0  # set by run_statement

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


def _verdict(ok: bool) -> str:
    return "pass" if ok else "fail"


# ---------------------------------------------------------------------------
# statement runners


def run_prop_lift2() -> VerificationReport:
    """Sign of the square of the lift of a fixed-point-free involution:
    +1 exactly when the degree is 0 or 2 mod 8.  The Clifford and
    closed-form routes are compared internally at every even n <= 24."""
    plus = {2, 8, 10, 16, 24}
    minus = {4, 6, 12, 14, 20}
    computed = {}
    ok = True
    for n in range(2, 25, 2):
        s = involution_square_sign(n)  # raises if the two routes disagree
        computed[n] = s
        if n in plus and s != 1:
            ok = False
        if n in minus and s != -1:
            ok = False
    expected = {**{n: 1 for n in sorted(plus)}, **{n: -1 for n in sorted(minus)}}
    return VerificationReport(
        "prop-lift2", {"degrees": list(range(2, 25, 2))}, computed, expected,
        _verdict(ok),
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


def run_2reduced_table() -> VerificationReport:
    computed = {}
    ok = True
    for key, want in _TWO_REDUCED_EXPECTED:
        got = is_2_reduced(group_from_spec("catalog:" + key))
        computed[key] = got
        ok = ok and got == want
    return VerificationReport(
        "2reduced-table", {"groups": [k for k, _ in _TWO_REDUCED_EXPECTED]},
        computed, dict(_TWO_REDUCED_EXPECTED), _verdict(ok),
    )


def run_h2_s4() -> VerificationReport:
    b = h2(catalog("sym", 4))
    computed = {"dim": b.dim, "cocycle_dim": b.z2_dim, "coboundary_dim": b.b2_dim}
    return VerificationReport(
        "h2-s4", {"group": "sym:4"}, computed, {"dim": 2},
        _verdict(b.dim == 2),
    )


def run_quat_counterexample() -> VerificationReport:
    """The order-16 cover of the quaternion group: the extension has the
    involution-lifting property but its class is not a coboundary."""
    T = catalog("quat_cover")
    t = T.labels.index("(2,2)")
    E = central_extension_from_quotient(T, t)
    base = E.base
    cl = class_of_extension(E)
    computed = {
        "base_order": base.order,
        "base_involutions": len(base.involutions()),
        "base_abelian": base.is_abelian(),
        "two_lift_property": two_lift_property(E),
        "class_is_coboundary": cl.is_zero(),
        "class_diagonal": list(s_map(cl)),
        "base_two_reduced": is_2_reduced(base),
    }
    expected = {"two_lift_property": True, "class_is_coboundary": False}
    ok = (computed["two_lift_property"] is True
          and computed["class_is_coboundary"] is False)
    return VerificationReport(
        "quat-counterexample", {"total": "quat_cover", "kernel": "(2,2)"},
        computed, expected, _verdict(ok),
        notes="base group fingerprint: order 8, one involution, nonabelian",
    )


def run_pin_splitness() -> VerificationReport:
    """Pin-lift sign cocycles of translation actions: split at order 8
    for the dihedral, cyclic and elementary abelian groups; nonzero
    diagonal for the cyclic group of order 4."""
    computed = {}
    ok = True
    for key in ("dihedral:8", "cyclic:8", "elem_abelian_2:3"):
        G = group_from_spec("catalog:" + key)
        res = pin_cocycle(G)
        split = h2(G).is_coboundary(res.cocycle)
        computed[key] = {"coboundary": split, "diagonal": list(res.s_vector)}
        ok = ok and split
    G4 = catalog("cyclic", 4)
    r4 = pin_cocycle(G4)
    computed["cyclic:4"] = {
        "coboundary": h2(G4).is_coboundary(r4.cocycle),
        "diagonal": list(r4.s_vector),
    }
    ok = ok and any(r4.s_vector)
    GQ = catalog("quaternion8")
    rq = pin_cocycle(GQ)
    computed["quaternion8"] = {
        "coboundary": h2(GQ).is_coboundary(rq.cocycle),
        "diagonal": list(rq.s_vector),
    }
    expected = {
        "dihedral:8": {"coboundary": True},
        "cyclic:8": {"coboundary": True},
        "elem_abelian_2:3": {"coboundary": True},
        "cyclic:4": {"diagonal_nonzero": True},
    }
    return VerificationReport(
        "pin-splitness", {"groups": list(computed)}, computed, expected,
        _verdict(ok),
        notes="quaternion8 value is reported without an asserted expectation",
    )


_MAIN_FIXTURES = ("multiquadratic_real", "multiquadratic_imaginary",
                  "cyclic8_real", "dihedral8_imaginary")


def run_thm_main() -> VerificationReport:
    """w2 of the trace form equals cup(2, disc) on the octic fields, and
    triviality of the disc class matches the structural predicate."""
    computed = {}
    ok = True
    for name in _MAIN_FIXTURES:
        fx = fixtures.BY_NAME[name]
        rep = verify_main(fx.algebra, fx.group)
        repw = verify_w1(fx.algebra, fx.group)
        computed[name] = {
            "status": rep["status"],
            "w2_places": rep.get("w2_places"),
            "cup_2_disc": rep.get("cup_2_disc"),
            "disc_class": repw["disc_class"],
            "disc_predicate_agrees": repw["status"] == "pass",
        }
        ok = ok and rep["status"] == "pass" and repw["status"] == "pass"
    return VerificationReport(
        "thm-main", {"fixtures": list(_MAIN_FIXTURES)}, computed,
        {name: {"status": "pass", "disc_predicate_agrees": True}
         for name in _MAIN_FIXTURES},
        _verdict(ok),
    )


_NUMB2_FIXTURES = (
    ("multiquadratic_real", "i"),
    ("dihedral8_imaginary", "ii"),
    ("cyclic8_real", "iii"),
    ("cyclic8_imaginary", "iv"),
)


def run_cor_numb2() -> VerificationReport:
    computed = {}
    ok = True
    for name, want_case in _NUMB2_FIXTURES:
        fx = fixtures.BY_NAME[name]
        r = classify_2group_trace_form(fx.algebra, fx.group)
        computed[name] = {
            "case": r["case"],
            "real": r["real"],
            "cyclic": r["cyclic"],
            "disc": r["disc"],
            "model": r["model"],
            "trace_form": r["computed"],
            "isometric": r["isometric"],
        }
        ok = ok and r["case"] == want_case and r["isometric"]
    expected = {name: {"case": c, "isometric": True}
                for name, c in _NUMB2_FIXTURES}
    return VerificationReport(
        "cor-numb2", {"fixtures": [n for n, _ in _NUMB2_FIXTURES]},
        computed, expected, _verdict(ok),
        notes="the imaginary cyclic octic was validated as cyclic degree 8"
              " (fixed field of an index-8 subgroup of the conductor-32"
              " cyclotomic field)",
    )


def run_two_cyclic_sylow() -> VerificationReport:
    fx = fixtures.COMPOSITUM_C2XC4
    rep = verify_two_cyclic_sylow(fx.algebra, fx.group, fixtures.COMPOSITUM_D1,
                                  fixtures.COMPOSITUM_D2)
    bq = fixtures.BIQUADRATIC_REAL
    gate = verify_two_cyclic_sylow(bq.algebra, bq.group, 2, 3)
    computed = {
        "compositum": rep,
        "compositum_expected_places": fixtures.COMPOSITUM_EXPECTED_W2,
        "biquadratic_gate_status": gate["status"],
    }
    ok = (rep["status"] == "pass"
          and rep["w2_places"] == fixtures.COMPOSITUM_EXPECTED_W2
          and gate["status"] == "skipped")
    expected = {
        "compositum": {"status": "pass",
                       "w2_places": fixtures.COMPOSITUM_EXPECTED_W2},
        "biquadratic_gate_status": "skipped",
    }
    return VerificationReport(
        "two-cyclic-sylow",
        {"fixture": fx.name, "d1": fixtures.COMPOSITUM_D1,
         "d2": fixtures.COMPOSITUM_D2,
         "first_factor_order_2": two_cyclic_sylow_orders(fx.group)[0] == 2},
        computed, expected, _verdict(ok),
    )


_REL_POLYS = ("quad_real_5", "quad_imag_3", "c4_real", "cyclotomic8")


def run_rel_identities() -> VerificationReport:
    """Invariants of the algebra of m copies of a field, from the
    invariants of one copy: disc multiplies m times; the place set picks
    up binom(m,2) copies of cup(d, d)."""
    computed = {}
    ok = True
    for name in _REL_POLYS:
        fx = fixtures.BY_NAME[name]
        base = sw_total(trace_form(fx.algebra))
        rows = {}
        for m in range(1, 5):
            direct = sw_total(trace_form(EtaleAlg(((fx.poly, m),))))
            derived = sw_repeat(base, m)
            rows[m] = {
                "direct": {"disc": direct.disc, "places": direct.places},
                "derived": {"disc": derived.disc, "places": derived.places},
                "equal": direct == derived,
            }
            ok = ok and direct == derived
        computed[name] = rows
    expected = {name: {m: {"equal": True} for m in range(1, 5)}
                for name in _REL_POLYS}
    return VerificationReport(
        "rel-identities", {"fields": list(_REL_POLYS), "copies": [1, 2, 3, 4]},
        computed, expected, _verdict(ok),
    )


# ---------------------------------------------------------------------------
# seeded property batteries


def _random_form(rng: random.Random, max_rank: int) -> QForm:
    rank = rng.randint(1, max_rank)
    pool = [x for x in range(-12, 13) if x]
    return QForm(tuple(Fraction(rng.choice(pool)) for _ in range(rank)))


def _battery_diag_invariance(rng: random.Random) -> tuple[int, int]:
    trials = failures = 0
    while trials < 100:
        n = 6
        m = [[Fraction(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i):
                m[i][j] = m[j][i]
        try:
            q1 = diagonalize(m)
        except QuadraticError:
            continue  # degenerate draw; try again
        trials += 1
        q2 = diagonalize(m, rng=rng)
        same = (q1.rank == q2.rank and signature(q1) == signature(q2)
                and w1(q1) == w1(q2) and w2(q1) == w2(q2))
        if not same:
            failures += 1
    return trials, failures


def _battery_hilbert_oracle(rng) -> tuple[int, int]:
    del rng  # exhaustive, not sampled
    odd_primes = [p for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)]
    places = [INF, 2] + odd_primes
    trials = failures = 0
    for a in range(-30, 31):
        if a == 0:
            continue
        for b in range(a, 31):
            if b == 0:
                continue
            for v in places:
                trials += 1
                if hilbert_symbol(a, b, v) != hilbert_symbol_oracle(a, b, v):
                    failures += 1
    return trials, failures


def _battery_reciprocity(rng: random.Random) -> tuple[int, int]:
    trials = failures = 0
    for _ in range(300):
        a = rng.randint(-200, 200) or 1
        b = rng.randint(-200, 200) or 3
        trials += 1
        try:
            cup(a, b)  # even-cardinality assertion is built in
        except QuadraticError:
            failures += 1
    return trials, failures


def _battery_whitney(rng: random.Random) -> tuple[int, int]:
    trials = failures = 0
    for _ in range(100):
        q1 = _random_form(rng, 5)
        q2 = _random_form(rng, 5)
        trials += 1
        if sw_direct_sum(sw_total(q1), sw_total(q2)) != sw_total(direct_sum(q1, q2)):
            failures += 1
    return trials, failures


def _battery_scale_formula(rng: random.Random) -> tuple[int, int]:
    trials = failures = 0
    for _ in range(100):
        q = _random_form(rng, 6)
        a = rng.choice([x for x in range(-10, 11) if x])
        trials += 1
        if sw_scale(a, sw_total(q)) != sw_total(scale(a, q)):
            failures += 1
    return trials, failures


def _battery_pin_proportionality(rng: random.Random) -> tuple[int, int]:
    trials = failures = 0
    for _ in range(200):
        n = rng.randint(2, 10)
        p = list(range(n))
        q = list(range(n))
        rng.shuffle(p)
        rng.shuffle(q)
        trials += 1
        try:
            pin_product_sign(tuple(p), tuple(q), n)
        except SignMismatchError:
            failures += 1
    return trials, failures


_EVEN_ORDER_CATALOG = (
    "cyclic:2", "cyclic:4", "cyclic:8", "cyclic:16",
    "elem_abelian_2:1", "elem_abelian_2:2", "elem_abelian_2:3",
    "dihedral:8", "dihedral:16", "quaternion8",
    "sym:3", "sym:4", "alt:4", "z4xz2", "quat_cover",
)


def _battery_regular_parity(rng) -> tuple[int, int]:
    del rng
    trials = failures = 0
    for key in _EVEN_ORDER_CATALOG:
        G = group_from_spec("catalog:" + key)
        trials += 1
        even = regular_rep_in_alternating(G)
        if even != (not sylow2(G).is_cyclic()):
            failures += 1
    return trials, failures


_SMAP_GROUPS = ("cyclic:4", "cyclic:8", "elem_abelian_2:2",
                "elem_abelian_2:3", "z4xz2", "quaternion8",
                "dihedral:8", "sym:3")


def _battery_smap_coboundary(rng: random.Random) -> tuple[int, int]:
    trials = failures = 0
    for key in _SMAP_GROUPS:
        G = group_from_spec("catalog:" + key)
        basis = h2(G)
        for _ in range(100):
            cl = basis.class_from_coords(rng.getrandbits(basis.dim))
            b_bits = rng.getrandbits(G.order) & ~1
            shifted = cl.representative.add(delta1(G, b_bits))
            trials += 1
            if s_map(shifted) != s_map(cl):
                failures += 1
    return trials, failures


_BATTERIES = (
    ("diag_invariance", _battery_diag_invariance),
    ("hilbert_oracle", _battery_hilbert_oracle),
    ("reciprocity", _battery_reciprocity),
    ("whitney", _battery_whitney),
    ("scale_formula", _battery_scale_formula),
    ("pin_proportionality", _battery_pin_proportionality),
    ("regular_parity", _battery_regular_parity),
    ("smap_coboundary", _battery_smap_coboundary),
)


def run_property_suites(seed: int = DEFAULT_SEED) -> VerificationReport:
    computed = {}
    ok = True
    for name, fn in _BATTERIES:
        rng = random.Random(seed ^ zlib.crc32(name.encode()))
        trials, failures = fn(rng)
        computed[name] = {"trials": trials, "failures": failures}
        ok = ok and failures == 0 and trials > 0
    expected = {name: {"failures": 0} for name, _ in _BATTERIES}
    return VerificationReport(
        "property-suites", {"seed": seed}, computed, expected,
        _verdict(ok),
    )


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
    runner = _RUNNERS.get(statement)
    if runner is None:
        raise ValueError(f"unknown statement {statement!r}; "
                         f"choose from {', '.join(STATEMENTS)}")
    t0 = time.perf_counter()
    try:
        report = runner(seed) if runner is run_property_suites else runner()
    except Exception as exc:  # surface honest failures, never hide them
        report = VerificationReport(
            statement, {}, {"error": f"{type(exc).__name__}: {exc}"}, {}, "fail")
    report.runtime = time.perf_counter() - t0
    return report


def run_suite(seed: int = DEFAULT_SEED) -> list[VerificationReport]:
    return [run_statement(s, seed) for s in STATEMENTS]
