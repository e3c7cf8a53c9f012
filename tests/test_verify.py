import json

import pytest

from traceforms import verify
from traceforms.verify import (
    DEFAULT_SEED,
    STATEMENTS,
    VerificationReport,
    jsonable,
    run_property_suites,
    run_statement,
    run_suite,
)


def test_statement_list_is_stable():
    assert STATEMENTS == (
        "prop-lift2", "2reduced-table", "h2-s4", "quat-counterexample",
        "pin-splitness", "thm-main", "cor-numb2", "two-cyclic-sylow",
        "property-suites", "rel-identities",
    )


def test_every_statement_passes():
    for s in STATEMENTS:
        r = run_statement(s, DEFAULT_SEED)
        assert r.verdict == "pass", (s, r.computed)
        assert r.statement == s
        assert r.runtime >= 0


def test_reports_serialize_to_json():
    for s in ("prop-lift2", "thm-main", "two-cyclic-sylow"):
        r = run_statement(s, DEFAULT_SEED)
        d = r.as_dict()
        json.dumps(d, sort_keys=True)
        assert "runtime_seconds" not in d
        assert "runtime_seconds" in r.as_dict(include_runtime=True)


def test_property_suites_deterministic_across_calls():
    r1 = run_property_suites(DEFAULT_SEED)
    r2 = run_property_suites(DEFAULT_SEED)
    assert r1.computed == r2.computed
    # a different seed still passes but may differ in draws
    r3 = run_property_suites(12345)
    assert r3.verdict == "pass"


def test_property_suites_trial_counts():
    r = run_property_suites(DEFAULT_SEED)
    c = r.computed
    assert c["diag_invariance"]["trials"] == 100
    assert c["hilbert_oracle"]["trials"] == 1830 * 16
    assert c["whitney"]["trials"] == 100
    assert c["scale_formula"]["trials"] == 100
    assert c["pin_proportionality"]["trials"] == 200
    assert c["smap_coboundary"]["trials"] == 800
    assert c["regular_parity"]["trials"] >= 10
    assert all(v["failures"] == 0 for v in c.values())


def test_property_suites_error_becomes_fail(monkeypatch):
    def broken(rng):
        raise ZeroDivisionError("battery blew up")

    monkeypatch.setattr(verify, "_BATTERIES", (("broken", broken),))
    r = run_statement("property-suites", DEFAULT_SEED)
    assert r.verdict == "fail"
    assert r.computed == {"error": "ZeroDivisionError: battery blew up"}


def test_unknown_statement_raises():
    with pytest.raises(ValueError):
        run_statement("nope", DEFAULT_SEED)


def test_run_suite_order_and_verdicts():
    reports = run_suite(DEFAULT_SEED)
    assert [r.statement for r in reports] == list(STATEMENTS)
    assert all(r.verdict == "pass" for r in reports)


def test_jsonable_canonical_forms():
    from fractions import Fraction
    from traceforms.quadratic import INF, QForm
    assert jsonable(Fraction(3, 4)) == "3/4"
    assert jsonable(frozenset({INF, 3, 2})) == [2, 3, INF]
    assert jsonable(QForm((Fraction(1), Fraction(-2, 3)))) == ["1", "-2/3"]
    assert jsonable({"a": (1, 2)}) == {"a": [1, 2]}
