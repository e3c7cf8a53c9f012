import collections
import contextlib
import hashlib
import io
import json
from fractions import Fraction

import pytest

from traceforms import clifford, cohomology, fixtures, groups, quadratic, verify
from traceforms.cli import main
from traceforms.verify import (
    DEFAULT_SEED,
    STATEMENTS,
    VerificationReport,
    jsonable,
    run_statement,
    run_suite,
)

from limited_child import run_limited


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


def _logged_memo(monkeypatch, log):
    """Patch verify._class_memo so that each battery's memo appends every
    value it is handed to log() before it answers."""
    real = verify._class_memo

    def memo():
        cls = real()

        def logging(x):
            log().append(x)
            return cls(x)
        return logging
    monkeypatch.setattr(verify, "_class_memo", memo)


def test_suite_solves_each_h2_basis_once():
    # a suite run asks h2 about 15 groups, 839 times in all, and 14 tables:
    # catalog:cyclic:2 and catalog:elem_abelian_2:1 are one table.  h2's
    # cache is keyed by the table and holds H2_CACHE_SIZE = 32 bases, so
    # each table is solved once.  Run in a fresh child: tables that
    # earlier tests left in the cache would not be solved again
    proc, _ = run_limited(["-c", "import contextlib, io\n"
                           "from traceforms import cli, cohomology\n"
                           "with contextlib.redirect_stdout(io.StringIO()):\n"
                           "    code = cli.main(['suite'])\n"
                           "print(code, cohomology.h2.cache_info().misses)"])
    assert proc.stdout.split() == ["0", "14"], proc.stderr


def test_suite_after_a_catalog_clear_solves_as_a_fresh_process():
    # a fixture keeps its group's catalog name and parameter, not a Group,
    # so once the catalog and h2 caches are cleared no spec has two live
    # groups: suite here makes the fresh child's 14 h2 misses (18 while
    # the fixtures held the groups they built at import, and h2 was keyed
    # by the Group object).  h2 is cleared too, as its keys are tables that
    # earlier tests solved
    assert not any(isinstance(getattr(fx, name), groups.Group)
                   for fx in fixtures.ALL_FIXTURES for name in fx.__slots__)
    groups._catalog_cached.cache_clear()
    cohomology.h2.cache_clear()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["suite"]) == 0
    assert cohomology.h2.cache_info().misses == 14


def test_suite_factoring_counts(monkeypatch):
    # the batteries handed bare ints to hilbert_symbol, the oracle and cup,
    # which factored them on every call: 113,216 factorint calls in
    # hilbert_oracle and 118,528 in the whole suite; then diag_invariance
    # (1,968 calls), reciprocity (600) and scale_formula (110) still
    # factored a value each time they drew it.  Each battery now builds
    # one class per distinct value per run, which factors the value's
    # numerator and denominator where they are not 1.
    calls = collections.defaultdict(list)
    drawn = collections.defaultdict(list)
    battery = [None]
    real = quadratic.factorint

    def counting(n):
        calls[battery[0]].append(n)
        return real(n)

    def tracked(name, fn):
        def run(rng):
            battery[0] = name
            try:
                return fn(rng)
            finally:
                battery[0] = None
        return run

    monkeypatch.setattr(quadratic, "factorint", counting)
    monkeypatch.setattr(verify, "_BATTERIES",
                        tuple((name, tracked(name, fn)) for name, fn in verify._BATTERIES))
    _logged_memo(monkeypatch, lambda: drawn[battery[0]])
    quadratic._cup_cached.cache_clear()
    reports = run_suite(DEFAULT_SEED)
    assert all(r.verdict == "pass" for r in reports)
    counts = {name: len(ns) for name, ns in calls.items() if name is not None}
    assert counts == {"diag_invariance": 1525, "hilbert_oracle": 58, "reciprocity": 329,
                      "whitney": 22, "scale_formula": 110}
    once = {name: sum((abs(Fraction(x).numerator) > 1) + (Fraction(x).denominator > 1)
                      for x in set(xs))
            for name, xs in drawn.items()}
    # scale_formula's scale(a, q) also factors a, on each of its 100 draws
    assert once == {**counts, "scale_formula": once["scale_formula"]}
    assert once["scale_formula"] < counts["scale_formula"]
    assert sum(map(len, calls.values())) <= 2500, counts


def test_property_suites_error_becomes_fail(monkeypatch):
    def broken(rng):
        raise ZeroDivisionError("battery blew up")

    monkeypatch.setattr(verify, "_BATTERIES", (("broken", broken),))
    r = run_statement("property-suites", DEFAULT_SEED)
    assert r.verdict == "fail"
    assert r.computed == {"error": "ZeroDivisionError: battery blew up"}


def test_regular_parity_reports_its_failing_group(monkeypatch):
    # a parity that disagrees with Sylow cyclicity is a counted failure of
    # its group, not an error that drops the other seven tallies
    real, S4 = groups.sylow2, groups.catalog("sym", 4)
    monkeypatch.setattr(groups, "sylow2",
                        lambda G: groups.catalog("cyclic", 8) if G == S4 else real(G))
    r = run_statement("property-suites", DEFAULT_SEED)
    assert r.verdict == "fail"
    assert list(r.computed) == [name for name, _ in verify._BATTERIES]
    c = r.computed["regular_parity"]
    assert c["failures"] == 1 and c["first_failure"] == {
        "trial": verify._EVEN_ORDER_CATALOG.index("sym:4") + 1, "case": {"group": "sym:4"}}
    assert all(t["failures"] == 0 for name, t in r.computed.items() if name != "regular_parity")


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
    real_cup, calls = quadratic.cup, []

    def cup(a, b):  # reciprocity counts QuadraticError as a failure
        calls.append((a, b))
        if len(calls) in (k, k + 2):
            raise quadratic.QuadraticError("planted")
        return real_cup(a, b)

    monkeypatch.setattr(quadratic, "cup", cup)
    drawn = []  # reciprocity classifies a, then b, before each cup
    _logged_memo(monkeypatch, lambda: drawn)
    r1 = run_statement("property-suites", DEFAULT_SEED)
    c = r1.computed["reciprocity"]
    assert r1.verdict == "fail"
    assert c["trials"] == 300 and c["failures"] == 2
    assert c["first_failure"] == {"trial": k, "case": dict(zip("ab", drawn[2 * k - 2:2 * k]))}
    calls.clear()
    r2 = run_statement("property-suites", DEFAULT_SEED)
    assert json.dumps(r1.as_dict()) == json.dumps(r2.as_dict())


def test_failing_case_is_plain_json(monkeypatch):
    _only_battery(monkeypatch, "diag_invariance")
    monkeypatch.setattr(quadratic, "form_class", lambda q: object())  # never equal
    r = run_statement("property-suites", DEFAULT_SEED)
    c = r.computed["diag_invariance"]
    assert r.verdict == "fail" and c["failures"] == 100
    gram = r.as_dict()["computed"]["diag_invariance"]["first_failure"]["case"]["gram"]
    assert len(gram) == 6 and all(isinstance(x, str) for row in gram for x in row)
    assert all(int(x) in range(-5, 6) for row in gram for x in row)


@pytest.mark.parametrize("battery, layer, target", [
    ("reciprocity", quadratic, "cup"),
    ("pin_proportionality", clifford, "pin_product_sign")],
    ids=["reciprocity-cup", "pin_proportionality-pin_product_sign"])
def test_battery_counts_only_its_own_error(monkeypatch, battery, layer, target):
    # any other exception is an error of the statement, not a counted failure
    _only_battery(monkeypatch, battery)

    def boom(*args, **kwargs):
        raise ZeroDivisionError("not a counted failure")

    monkeypatch.setattr(layer, target, boom)
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


@pytest.mark.parametrize("run", [
    lambda: run_statement("property-suites", 1.5),
    lambda: run_statement("h2-s4", True),
    lambda: run_statement("h2-s4", "7"),
    lambda: run_suite("7"),
    lambda: run_suite(None),
], ids=["float", "bool", "text", "suite-text", "suite-none"])
def test_a_seed_that_is_not_an_int_raises_before_a_runner_starts(monkeypatch, run):
    # 1.5 and "7" reported "fail", the verdict of a computed result that
    # came out false, and True ran as seed 1
    def started(seed):
        raise AssertionError("a runner started")
    for name in STATEMENTS:
        monkeypatch.setitem(verify._RUNNERS, name, started)
    with pytest.raises(ValueError, match="seed must be an int, got "):
        run()


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
