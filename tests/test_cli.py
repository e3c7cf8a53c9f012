import argparse
import json
import os
import random
import subprocess
import sys
import time

import pytest

import traceforms
from traceforms import cli, galois, groups
from traceforms.cli import main
from traceforms.cohomology import h2
from traceforms.fixtures import ALL_FIXTURES
from traceforms.quadratic import signature, w2
from traceforms.verify import DEFAULT_SEED, jsonable


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_group_verb(capsys):
    code, out, _ = run_cli(capsys, "group", "--group", "catalog:quaternion8")
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 8 and data["involutions"] == 1
    assert data["sylow2_cyclic"] is False


def test_h2_and_kers_and_2reduced(capsys):
    code, out, _ = run_cli(capsys, "h2", "--group", "catalog:sym:4")
    assert code == 0 and json.loads(out)["h2_dim"] == 2
    code, out, _ = run_cli(capsys, "kers", "--group", "catalog:Z4xZ2")
    data = json.loads(out)
    assert code == 0 and data["kernel_dim"] == 1 and not data["two_reduced"]
    code, out, _ = run_cli(capsys, "2reduced", "--group", "catalog:sym:4")
    assert code == 0 and json.loads(out) == {"verdict": True}


def test_extension_verb_builtin_and_file(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "extension", "--group",
                           "catalog:quaternion8", "--cocycle", "basis:0")
    data = json.loads(out)
    assert code == 0 and data["total_order"] == 16
    assert data["two_lift_property"] is True
    # round-trip a coboundary through the file format
    f = tmp_path / "c.txt"
    f.write_text("0000\n0011\n0101\n0110\n")
    code, out, _ = run_cli(capsys, "extension", "--group", "catalog:cyclic:4",
                           "--cocycle", str(f))
    data = json.loads(out)
    assert code == 0 and data["class_is_coboundary"] is True
    # malformed file is a usage error
    g = tmp_path / "bad.txt"
    g.write_text("0101")
    code, _, err = run_cli(capsys, "extension", "--group", "catalog:cyclic:4",
                           "--cocycle", str(g))
    assert code == 2 and "error" in err


def test_pin_sign_verb(capsys):
    code, out, _ = run_cli(capsys, "pin-sign", "--n", "12")
    assert code == 0 and out.strip() == "-1"
    code, out, _ = run_cli(capsys, "pin-sign", "--n", "16")
    assert code == 0 and out.strip() == "1"
    code, _, err = run_cli(capsys, "pin-sign", "--n", "7")
    assert code == 2 and "even number of coordinates" in err
    code, _, err = run_cli(capsys, "pin-sign", "--n", "26")
    assert code == 2 and "CLIFFORD_RANK_CAP = 24" in err


def test_pin_cocycle_verb(capsys):
    code, out, _ = run_cli(capsys, "pin-cocycle", "--group", "catalog:cyclic:4")
    data = json.loads(out)
    assert code == 0
    assert data["coboundary"] is False and data["s_vector"] == [1]
    code, out, _ = run_cli(capsys, "pin-cocycle", "--group", "catalog:sym:4",
                           "--involutions-only")
    data = json.loads(out)
    assert code == 0 and "cocycle_bits" not in data
    assert set(data["diagonal_signs"].values()) == {1}


def test_form_verb(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "form", "--entries", "1,2,-3,4/5")
    data = json.loads(out)
    assert code == 0
    assert data["rank"] == 4 and data["disc"] == -30
    assert data["signature"] == [3, 1]
    code, out, _ = run_cli(capsys, "form", "--entries", "2,2",
                           "--isometric-to", "1,1")
    assert json.loads(out)["verdicts"]["isometric"] is True
    g = tmp_path / "gram.json"
    g.write_text('[["0","1"],["1","0"]]')
    code, out, _ = run_cli(capsys, "form", "--gram", str(g))
    data = json.loads(out)
    assert code == 0 and data["disc"] == -1 and data["signature"] == [1, 1]
    # zero diagonal entry in --entries is a usage error
    code, _, err = run_cli(capsys, "form", "--entries", "1,0")
    assert code == 2


def test_trace_verb(capsys):
    code, out, _ = run_cli(capsys, "trace", "--poly", "1,0,-4,0,2")
    data = json.loads(out)
    assert code == 0
    assert data["disc"] == 2 and data["totally_real"] is True
    assert data["signature"] == [4, 0]
    code, out, _ = run_cli(
        capsys, "trace", "--algebra",
        '[{"poly": [1, 0, -3], "multiplicity": 2}]')
    data = json.loads(out)
    assert code == 0 and data["degree"] == 4 and data["disc"] == 1


def test_kers_solves_h2_once(capsys):
    # a perms: spec builds a new group, so h2's cache cannot answer
    before = h2.cache_info().misses
    code, _, _ = run_cli(capsys, "kers", "--group", "perms:(0 1 2 3),(0 1)")
    assert code == 0
    assert h2.cache_info().misses == before + 1


def test_trace_verb_diagonalizes_once(capsys, monkeypatch):
    calls = []
    real = galois.trace_form

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(galois, "trace_form", counting)
    monkeypatch.setattr("traceforms.cli.trace_form", counting)
    code, _, _ = run_cli(capsys, "trace", "--poly", "1,0,-4,0,2")
    assert code == 0 and len(calls) == 1


def test_trace_verb_takes_disc_from_the_form(capsys, monkeypatch):
    # disc is w1 of the form trace already diagonalized; a second
    # discriminant (and its factoring) would only repeat it
    real = galois.algebra_disc
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "traceforms":
            for attr, val in list(vars(mod).items()):
                if val is real:
                    monkeypatch.setattr(mod, attr, counting)
    runs = [(["--poly", ",".join(map(str, f.poly.coeffs))], f.algebra)
            for f in ALL_FIXTURES]
    runs += [(["--algebra", json.dumps([{"poly": p, "multiplicity": m}])],
              galois.EtaleAlg(((galois.MonicPoly(tuple(p)), m),)))
             for p in ([1, 0, -3], [1, 0, 0, -2], [1, 0, -4, 0, 2])
             for m in (2, 3, 4)]
    for argv, A in runs:
        code, out, _ = run_cli(capsys, "trace", *argv)
        assert code == 0
        q = galois.trace_form(A)
        assert json.loads(out) == {
            "rank": q.rank, "signature": list(signature(q)),
            "disc": real(A), "w2_places": jsonable(w2(q)),
            "degree": A.degree, "totally_real": signature(q) == (A.degree, 0)}
    assert calls == []


def test_classify_verb(capsys):
    code, out, _ = run_cli(capsys, "classify", "--poly",
                           "1,0,-8,0,20,0,-16,0,2",
                           "--group", "catalog:cyclic:8")
    data = json.loads(out)
    assert code == 0
    assert data["case"] == "iii" and data["verdict"] is True
    assert data["w1"] == 2


def test_verify_verb(capsys):
    code, out, _ = run_cli(capsys, "verify", "--statement", "h2-s4")
    data = json.loads(out)
    assert code == 0 and data["verdict"] == "pass"
    assert "runtime_seconds" not in data


def test_cli_output_is_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "verify", "--statement", "2reduced-table")
    _, out2, _ = run_cli(capsys, "verify", "--statement", "2reduced-table")
    assert out1 == out2


def test_usage_errors(capsys):
    code, _, err = run_cli(capsys, "group", "--group", "catalog:nosuch")
    assert code == 2 and "error" in err
    code, _, err = run_cli(capsys, "trace", "--algebra", "not json")
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        main(["form"])  # neither --entries nor --gram
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["nonsense-verb"])


@pytest.mark.parametrize("argv", [
    ["trace", "--poly", "1,0,-2", "--algebra", '[{"poly": [1,0,-3]}]'],
    ["classify", "--poly", "1,0,-2", "--algebra", '[{"poly": [1,0,-3]}]',
     "--group", "catalog:cyclic:2"],
    ["form", "--entries", "1,2", "--gram", "gram.json"],
    ["trace"],
    ["classify", "--group", "catalog:cyclic:2"],
    ["form"],
    ["classify", "--poly", "1,0,-3", "--group", "catalog:cyclic:2", "--product"],
])
def test_conflicting_or_missing_inputs_exit_2(capsys, argv):
    # both sources given (one used to be ignored silently), or neither
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("verb, payload, match", [
    ("trace", "[[1,0,-3]]", "list of {poly, multiplicity}"),
    ("trace", "[5]", "list of {poly, multiplicity}"),
    ("trace", '[{"poly": 5}]', "list of {poly, multiplicity}"),
    ("trace", '[{"multiplicity": 2}]', "list of {poly, multiplicity}"),
    ("trace", '[{"poly": [1,0,-3], "multiplicity": null}]',
     "multiplicity must be an integer, got null"),
    ("trace", '[{"poly": [1,0,-3], "multiplicity": 1.5}]',
     "multiplicity must be an integer, got 1.5"),
    ("trace", '[{"poly": [1,0,[3]]}]', "coefficient must be an integer"),
    ("form", "5", "Gram JSON must be a list of rows"),
    ("form", "[1,2]", "Gram JSON must be a list of rows"),
    ("form", '{"a": [1]}', "Gram JSON must be a list of rows"),
])
def test_malformed_json_payload_exits_2(capsys, tmp_path, verb, payload, match):
    if verb == "trace":
        argv = ["trace", "--algebra", payload]
    else:
        g = tmp_path / "gram.json"
        g.write_text(payload)
        argv = ["form", "--gram", str(g)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and match in err


def _run_limited(argv, timeout=60):
    """A `python -m traceforms` child under a 1 GiB address-space limit;
    returns the process and its wall time."""
    resource = pytest.importorskip("resource")
    limit = 1 << 30
    src = os.path.dirname(os.path.dirname(traceforms.__file__))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "traceforms", *argv],
        capture_output=True, text=True, timeout=timeout,
        env=dict(os.environ, PYTHONPATH=src),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    return proc, time.perf_counter() - t0


@pytest.mark.parametrize("spec", ["cyclic:1000000000", "cyclic:4096",
                                  "elem_abelian_2:64",
                                  "dihedral:1000000000000",
                                  "elem_abelian_2:-1", "sym:-1"])
def test_oversized_catalog_parameters_exit_2(spec):
    # The child runs under a 1 GiB address-space limit, so a missing bound
    # fails with MemoryError instead of building the table.
    proc, elapsed = _run_limited(["group", "--group", f"catalog:{spec}"],
                                 timeout=30)
    assert proc.returncode == 2 and proc.stdout == "", proc.stderr
    assert elapsed < 2, elapsed
    bound = "between 0 and 5" if spec.startswith("sym") else "CLOSURE_CAP = 2048"
    assert bound in proc.stderr


def test_oversized_permutation_degree_exits_2():
    # a permutation is sized by its largest point: without the bound this
    # child allocates 10^8 images and dies with MemoryError (exit 1)
    proc, elapsed = _run_limited(["group", "--group", "perms:(0 100000000)"],
                                 timeout=30)
    assert proc.returncode == 2 and proc.stdout == "", proc.stderr
    assert elapsed < 10, elapsed
    assert "DEGREE_CAP = 2048" in proc.stderr


def test_group_verb_grows_sylow2_once(capsys, monkeypatch):
    calls = []
    real = groups._grow_sylow2

    def counting(G):
        calls.append(G)
        return real(G)

    monkeypatch.setattr(groups, "_grow_sylow2", counting)
    code, out, _ = run_cli(capsys, "group", "--group", "perms:(0 1 2 3 4 5),(1 5)(2 4)")
    data = json.loads(out)
    assert code == 0 and data["order"] == 12 and data["sylow2_order"] == 4
    assert len(calls) == 1


def test_unsplittable_entry_exits_2_within_rho_budget():
    # a product of two 16-digit primes is out of reach of Pollard rho
    # within RHO_BUDGET; without the budget this ran until killed
    proc, elapsed = _run_limited(
        ["form", "--entries", "3000000000000148000000000001369"])
    assert proc.returncode == 2 and proc.stdout == "", proc.stderr
    assert elapsed < 10, elapsed
    assert "RHO_BUDGET = 8388608" in proc.stderr


def test_extension_trips_h2_cap_before_other_work():
    # the order-1024 extension group used to be built (37 s) before the cap
    proc, elapsed = _run_limited(
        ["extension", "--group", "catalog:dihedral:512", "--cocycle", "zero"])
    assert proc.returncode == 2 and proc.stdout == "", proc.stderr
    assert elapsed < 2, elapsed
    assert proc.stderr == "error: group order 512 exceeds H2_CAP = 64\n"


@pytest.mark.parametrize("argv, cap", [
    (["h2", "--group", "catalog:cyclic:2048"], "H2_CAP = 64"),
    (["kers", "--group", "catalog:elem_abelian_2:11"], "H2_CAP = 64"),
    (["2reduced", "--group", "catalog:sym:5"], "H2_CAP = 64"),
    (["extension", "--group", "catalog:cyclic:2048", "--cocycle", "zero"],
     "H2_CAP = 64"),
    (["classify", "--poly", "1,0,-3", "--group", "catalog:dihedral:128"],
     "H2_CAP = 64"),
    (["pin-cocycle", "--group", "catalog:cyclic:2048"], "FULL_PIN_CAP = 12"),
    (["pin-cocycle", "--involutions-only", "--group", "catalog:dihedral:2048"],
     "CLIFFORD_RANK_CAP = 24"),
    (["h2", "--group", "perms:" + ",".join(f"({2 * i} {2 * i + 1})"
                                           for i in range(11))],
     "H2_CAP = 64"),
    (["pin-cocycle", "--group", "perms:(0 1 2 3 4 5 6 7 8 9 10 11 12)"],
     "FULL_PIN_CAP = 12"),
])
def test_verb_caps_are_checked_before_a_table_is_built(capsys, monkeypatch,
                                                       argv, cap):
    # a catalog spec is sized from its name and a perms: closure stops at
    # the verb's cap, so no table above the cap is ever built
    built = []
    real_init = groups.Group.__init__

    def recording(self, table, *args, **kwargs):
        built.append(len(table))
        real_init(self, table, *args, **kwargs)

    monkeypatch.setattr(groups.Group, "__init__", recording)
    groups._catalog_cached.cache_clear()
    code, out, err = run_cli(capsys, *argv)
    limit = int(cap.rsplit(" ", 1)[1])
    assert code == 2 and out == "" and cap in err, err
    assert all(n <= limit for n in built), built


def test_wide_unsplittable_entry_exits_2_within_rho_budget():
    # two 50-digit primes: each rho step on 328 bits counts 3 times, so the
    # budget runs out in about the time it takes below 2^128
    n = ("300000000000000000000000000000000000000000000380300000"
         "000000000000000000000000000000000000011416587")
    proc, elapsed = _run_limited(["form", "--entries", n])
    assert proc.returncode == 2 and proc.stdout == "", proc.stderr
    assert elapsed < 10, elapsed
    assert "RHO_BUDGET = 8388608" in proc.stderr


def test_algebra_degree_cap_exits_2():
    # without the cap, repeat() allocated 10^13 entries: MemoryError, exit 1
    proc, elapsed = _run_limited(
        ["trace", "--algebra", '[{"poly":[1,0,-3],"multiplicity":10000000000000}]'])
    assert proc.returncode == 2 and proc.stdout == "", proc.stderr
    assert elapsed < 10, elapsed
    assert proc.stderr == ("error: algebra degree 20000000000000 exceeds "
                           "ALGEBRA_DEGREE_CAP = 128\n")
    proc, elapsed = _run_limited(["trace", "--poly", ",".join(["1"] + ["0"] * 128 + ["-2"])])
    assert proc.returncode == 2 and elapsed < 10, proc.stderr
    assert "polynomial degree 129 exceeds ALGEBRA_DEGREE_CAP = 128" in proc.stderr


def test_largest_admitted_algebra_finishes():
    proc, elapsed = _run_limited(
        ["trace", "--algebra", '[{"poly":[1,0,-3],"multiplicity":64}]'])
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 10, elapsed
    assert json.loads(proc.stdout)["degree"] == galois.ALGEBRA_DEGREE_CAP


def test_seeded_degree_128_trace_exits_2_within_10s():
    # the Fraction-based separability check alone took 65 s here; the
    # integer one leaves the time to the factoring, which cannot certify
    # one of the square classes and exits 2
    rng = random.Random(128)
    cs = [1] + [rng.randint(-9, 9) for _ in range(128)]
    proc, elapsed = _run_limited(["trace", "--poly", ",".join(map(str, cs))])
    assert proc.returncode == 2 and proc.stdout == "", proc.stderr
    assert elapsed < 10, elapsed
    assert proc.stderr.startswith("error: ")


def test_import_builds_no_parser():
    src = os.path.dirname(os.path.dirname(traceforms.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", "import traceforms.cli as c; "
         "print(c._build_parser.cache_info().currsize)"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0 and proc.stdout == "0\n", proc.stderr


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    builds = []
    real = argparse.ArgumentParser.add_subparsers

    def counting(self, *args, **kwargs):
        builds.append(self.prog)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counting)
    cli._build_parser.cache_clear()
    for argv in (["trace", "--poly", "1,0,-3"], ["pin-sign", "--n", "4"],
                 ["form", "--entries", "1,2"], ["trace", "--poly", "1,0,-3"]):
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
    assert builds == ["traceforms"]


def test_reused_parser_keeps_no_state(capsys, monkeypatch):
    _, compact, _ = run_cli(capsys, "trace", "--poly", "1,0,-3")
    _, pretty, _ = run_cli(capsys, "trace", "--poly", "1,0,-3", "--pretty")
    _, again, _ = run_cli(capsys, "trace", "--poly", "1,0,-3")
    assert pretty != compact and again == compact and compact.count("\n") == 1
    seeds = []
    real = cli.run_statement

    def recording(statement, seed):
        seeds.append(seed)
        return real(statement, seed)

    monkeypatch.setattr(cli, "run_statement", recording)
    run_cli(capsys, "verify", "--statement", "h2-s4", "--seed", "99")
    run_cli(capsys, "verify", "--statement", "h2-s4")
    assert seeds == [99, DEFAULT_SEED]


@pytest.mark.parametrize("argv", [["form"], ["nonsense-verb"]])
def test_usage_errors_repeat_on_a_reused_parser(capsys, argv):
    cli._build_parser.cache_clear()
    errs = []
    for _ in range(3):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        errs.append(capsys.readouterr().err)
    assert errs[0].startswith("usage: traceforms") and len(set(errs)) == 1
