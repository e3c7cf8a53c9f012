"""Acceptance gate: every advertised correctness criterion, one test per
criterion, each printing a single PASS/FAIL line.  Runtime bounds are
asserted where the contract states them; all equalities are exact
(integer/rational arithmetic throughout - there are no float
tolerances anywhere in the package)."""
import time

import pytest

from traceforms.cohomology import H2Basis
from traceforms.groups import catalog
from traceforms.verify import DEFAULT_SEED, run_statement

_RUNTIME_BOUNDS = {  # seconds, where the contract pins one
    "prop-lift2": 10.0,
    "2reduced-table": 60.0,
    "thm-main": 10.0,
}

_cache: dict[str, tuple] = {}


def _run(statement: str):
    if statement not in _cache:
        t0 = time.time()
        rep = run_statement(statement, DEFAULT_SEED)
        _cache[statement] = (rep, time.time() - t0)
    return _cache[statement]


def _check(number: int, statement: str, detail: str = ""):
    rep, elapsed = _run(statement)
    bound = _RUNTIME_BOUNDS.get(statement)
    status = "PASS" if rep.verdict == "pass" else rep.verdict.upper()
    line = f"ACCEPTANCE {number:2d} [{statement}]: {status} ({elapsed:.2f}s)"
    if detail:
        line += f" - {detail}"
    print(line, flush=True)
    assert rep.verdict == "pass", rep.computed
    if bound is not None:
        assert elapsed < bound, f"{statement} took {elapsed:.2f}s >= {bound}s"
    return rep


def test_criterion_01_involution_square_signs():
    rep = _check(1, "prop-lift2",
                 "+1 exactly at degrees 2,8,10,16,24; both routes agree")
    assert rep.computed == {n: (1 if n % 8 in (0, 2) else -1)
                            for n in range(2, 25, 2)}


def test_criterion_02_two_reduced_table():
    rep = _check(2, "2reduced-table", "14 catalog groups")
    assert rep.computed["quaternion8"] is False
    assert rep.computed["z4xz2"] is False
    assert sum(1 for v in rep.computed.values() if v) == 12


def test_criterion_03_h2_of_sym4():
    rep = _check(3, "h2-s4", "dim H2 = 2")
    assert rep.computed["dim"] == 2


def test_criterion_04_quaternion_cover_counterexample():
    rep = _check(4, "quat-counterexample",
                 "lifting property without splitting")
    assert rep.computed["two_lift_property"] is True
    assert rep.computed["class_is_coboundary"] is False
    assert rep.computed["base_involutions"] == 1


def test_criterion_05_pin_splitness_order_8():
    rep = _check(5, "pin-splitness",
                 "split at order 8; nonzero diagonal for Z/4")
    for key in ("dihedral:8", "cyclic:8", "elem_abelian_2:3"):
        assert rep.computed[key]["coboundary"] is True, key
    assert rep.computed["cyclic:4"]["diagonal"] == [1]


def test_criterion_06_w2_cup_identity_on_octics():
    rep = _check(6, "thm-main", "w2 = cup(2, disc) on the four octics")
    assert set(rep.computed) == {"multiquadratic_real",
                                 "multiquadratic_imaginary",
                                 "cyclic8_real", "dihedral8_imaginary"}
    for name, row in rep.computed.items():
        assert row["status"] == "pass", name
        assert row["w2_places"] == row["cup_2_disc"], name
        assert row["disc_predicate_agrees"], name


def test_criterion_07_four_case_classification():
    rep = _check(7, "cor-numb2", "cases i-iv with isometry verdicts")
    cases = {name: row["case"] for name, row in rep.computed.items()}
    assert cases == {"multiquadratic_real": "i", "dihedral8_imaginary": "ii",
                     "cyclic8_real": "iii", "cyclic8_imaginary": "iv"}
    assert all(row["isometric"] for row in rep.computed.values())


def test_criterion_08_two_cyclic_sylow_formula():
    rep = _check(8, "two-cyclic-sylow", "compositum w2 = cup(d1 d2, d2)")
    assert rep.computed["compositum"]["w2_places"] == frozenset({2, 3})


def test_criterion_09_property_suites():
    rep = _check(9, "property-suites", "8 seeded batteries, zero failures")
    assert set(rep.computed) == {
        "diag_invariance", "hilbert_oracle", "reciprocity", "whitney",
        "scale_formula", "pin_proportionality", "regular_parity",
        "smap_coboundary"}
    for name, row in rep.computed.items():
        assert row["failures"] == 0 and row["trials"] > 0, name


def test_criterion_10_repeat_identities():
    rep = _check(10, "rel-identities",
                 "m copies: disc and place-set identities, m = 1..4")
    for name, rows in rep.computed.items():
        for m, row in rows.items():
            assert row["equal"], (name, m)


def test_criterion_11_h2_of_alt5_within_bound():
    # a fresh solve: h2() would answer from its cache after any earlier test
    t0 = time.perf_counter()
    b = H2Basis(catalog("alt", 5))
    elapsed = time.perf_counter() - t0
    ok = b.dim == 1 and b.z2_dim == 60
    print(f"ACCEPTANCE 11 [h2-alt5]: {'PASS' if ok else 'FAIL'} "
          f"({elapsed:.2f}s) - dim H2 = 1, dim Z2 = 60", flush=True)
    assert ok, (b.dim, b.z2_dim)
    assert elapsed < 5.0, f"h2 of alt:5 took {elapsed:.2f}s >= 5.0s"
