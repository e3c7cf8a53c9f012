import hashlib
import json

import pytest

from traceforms import verify
from traceforms.cli import main
from traceforms.verify import (
    DEFAULT_SEED,
    STATEMENTS,
    VerificationReport,
    jsonable,
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
    r1 = run_statement("property-suites", DEFAULT_SEED)
    r2 = run_statement("property-suites", DEFAULT_SEED)
    assert r1.computed == r2.computed
    # a different seed still passes but may differ in draws
    r3 = run_statement("property-suites", 12345)
    assert r3.verdict == "pass"


def test_property_suites_trial_counts():
    r = run_statement("property-suites", DEFAULT_SEED)
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


def _leaf_paths(expected, path=()):
    if not isinstance(expected, dict):
        yield path
        return
    for k, v in expected.items():
        yield from _leaf_paths(v, path + (k,))


def _flipped(expected, path):
    if not path:
        return not expected if isinstance(expected, bool) else ("not", expected)
    return {**expected, path[0]: _flipped(expected[path[0]], path[1:])}


@pytest.mark.parametrize("statement", STATEMENTS)
def test_one_flipped_expected_leaf_fails(monkeypatch, statement):
    # the verdict is decided by the rule alone: flip any one expected value
    # of a real runner output and the statement fails
    claim = verify._RUNNERS[statement](DEFAULT_SEED)
    paths = list(_leaf_paths(claim.expected))
    assert paths
    for path in paths:
        bad = claim._replace(expected=_flipped(claim.expected, path))
        monkeypatch.setitem(verify._RUNNERS, statement, lambda seed, c=bad: c)
        assert run_statement(statement, DEFAULT_SEED).verdict == "fail", path
    monkeypatch.setitem(verify._RUNNERS, statement, lambda seed: claim)
    assert run_statement(statement, DEFAULT_SEED).verdict == "pass"


def test_holds_is_recursive_and_exact():
    assert verify._holds({"a": {"b": 1, "c": 2}, "d": 3}, {"a": {"b": 1}})
    assert not verify._holds({"a": {"b": 1}}, {"a": {"b": 1, "c": 2}})
    assert not verify._holds({"a": 1}, {"a": {"b": 1}})
    assert not verify._holds({"a": True}, {"a": False})
    assert verify._holds({}, {})


def _only_battery(monkeypatch, name):
    monkeypatch.setattr(verify, "_BATTERIES",
                        tuple(b for b in verify._BATTERIES if b[0] == name))


@pytest.mark.parametrize("k", [1, 7])
def test_failing_check_reports_its_first_case(monkeypatch, k):
    _only_battery(monkeypatch, "reciprocity")
    real_cup, calls = verify.cup, []

    def cup(a, b):  # reciprocity counts QuadraticError as a failure
        calls.append((a, b))
        if len(calls) in (k, k + 2):
            raise verify.QuadraticError("planted")
        return real_cup(a, b)

    monkeypatch.setattr(verify, "cup", cup)
    r1 = run_statement("property-suites", DEFAULT_SEED)
    c = r1.computed["reciprocity"]
    assert r1.verdict == "fail"
    assert c["trials"] == 300 and c["failures"] == 2
    assert c["first_failure"] == {"trial": k, "case": dict(zip("ab", calls[k - 1]))}
    calls.clear()
    r2 = run_statement("property-suites", DEFAULT_SEED)
    assert json.dumps(r1.as_dict()) == json.dumps(r2.as_dict())


def test_failing_case_is_plain_json(monkeypatch):
    _only_battery(monkeypatch, "diag_invariance")
    monkeypatch.setattr(verify, "is_isometric_q", lambda q1, q2: False)
    r = run_statement("property-suites", DEFAULT_SEED)
    c = r.computed["diag_invariance"]
    assert r.verdict == "fail" and c["failures"] == 100
    gram = r.as_dict()["computed"]["diag_invariance"]["first_failure"]["case"]["gram"]
    assert len(gram) == 6 and all(isinstance(x, str) for row in gram for x in row)
    assert all(int(x) in range(-5, 6) for row in gram for x in row)


@pytest.mark.parametrize("battery, target", [
    ("reciprocity", "cup"), ("pin_proportionality", "pin_product_sign")])
def test_battery_counts_only_its_own_error(monkeypatch, battery, target):
    # any other exception is an error of the statement, not a counted failure
    _only_battery(monkeypatch, battery)

    def boom(*args, **kwargs):
        raise ZeroDivisionError("not a counted failure")

    monkeypatch.setattr(verify, target, boom)
    r = run_statement("property-suites", DEFAULT_SEED)
    assert r.verdict == "fail"
    assert r.computed == {"error": "ZeroDivisionError: not a counted failure"}


def test_battery_without_cases_fails(monkeypatch):
    monkeypatch.setattr(verify, "_BATTERIES", (
        ("empty", lambda rng: verify._tally(iter(()), lambda: True)),))
    r = run_statement("property-suites", DEFAULT_SEED)
    assert r.computed == {"empty": {"trials": 0, "failures": 0}}
    assert r.verdict == "fail"


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


@pytest.mark.parametrize("argv, digest", [
    (["suite"],
     "26f45f990a4b93686d460e49479e13fde4b8962b7b90d22165c258ab592c8f54"),
    (["suite", "--seed", "99"],
     "23c00a85ec1e9047fcda8626e71ec6410c93bdc3188d896c5a88ef3ee1c3c2f7"),
])
def test_suite_stdout_is_pinned(capsys, argv, digest):
    # "same behaviour" for a refactor: the suite's bytes do not move
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
