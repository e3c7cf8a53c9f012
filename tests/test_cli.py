import json
import os
import subprocess
import sys
import time

import pytest

import traceforms
from traceforms import galois
from traceforms.cli import main
from traceforms.cohomology import h2
from traceforms.fixtures import ALL_FIXTURES
from traceforms.quadratic import signature, w2
from traceforms.verify import jsonable


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
    assert code == 2


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


@pytest.mark.parametrize("spec", ["cyclic:1000000000", "elem_abelian_2:64",
                                  "dihedral:1000000000000",
                                  "elem_abelian_2:-1", "sym:-1"])
def test_oversized_catalog_parameters_exit_2(spec):
    # The child runs under a 1 GiB address-space limit, so a missing bound
    # fails with MemoryError instead of building the table.
    resource = pytest.importorskip("resource")
    limit = 1 << 30
    src = os.path.dirname(os.path.dirname(traceforms.__file__))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "traceforms", "group", "--group", f"catalog:{spec}"],
        capture_output=True, text=True, timeout=30,
        env=dict(os.environ, PYTHONPATH=src),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 2 and proc.stdout == "", proc.stderr
    assert elapsed < 2, elapsed
    bound = "between 0 and 5" if spec.startswith("sym") else "CLOSURE_CAP = 10000"
    assert bound in proc.stderr
