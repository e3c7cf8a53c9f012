import argparse
import functools
import hashlib
import json
import os
import random
import re
import subprocess
import sys
import time

import pytest
import sympy

import traceforms
from traceforms import cli, clifford, cohomology, galois, groups, perms, quadratic, verify
from traceforms.cli import main
from traceforms.cohomology import h2
from traceforms.fixtures import ALL_FIXTURES
from traceforms.quadratic import form_class, signature
from traceforms.verify import DEFAULT_SEED, STATEMENTS, jsonable

from limited_child import run_limited, verb_peak_mb


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
    only = json.loads(out)
    assert code == 0 and "cocycle_bits" not in only
    assert set(only["diagonal_signs"].values()) == {1}
    # the full table of order 24, the rank cap, answers too
    code, out, _ = run_cli(capsys, "pin-cocycle", "--group", "catalog:sym:4")
    full = json.loads(out)
    assert code == 0 and len(full["cocycle_bits"]) == 24
    assert full["diagonal_signs"] == only["diagonal_signs"]
    assert full["s_vector"] == only["s_vector"]


def test_full_pin_table_at_the_rank_cap_within_bound():
    # a fresh process: the order-24 table and its coboundary verdict
    proc, elapsed = run_limited(
        ["-m", "traceforms", "pin-cocycle", "--group", "catalog:sym:4"])
    assert proc.returncode == 0, proc.stderr
    assert "cocycle_bits" in json.loads(proc.stdout)
    assert elapsed < 2, elapsed


def test_every_full_pin_table_fits_under_h2_cap():
    # pin-cocycle reports "coboundary" for every full sign table without
    # checking the order against H2_CAP: a full table needs order <=
    # CLIFFORD_RANK_CAP
    assert clifford.CLIFFORD_RANK_CAP <= cohomology.H2_CAP


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


def test_form_factors_a_strong_pseudoprime_to_twelve_bases(capsys):
    # 318665857834031151167461 = 399165290221 * 798330580441 passes
    # Miller-Rabin at the twelve bases 2..37, with which form read it as
    # a prime place: w2_places was [2, 318665857834031151167461]
    code, out, _ = run_cli(capsys, "form", "--entries", "318665857834031151167461,2")
    assert code == 0 and json.loads(out)["w2_places"] == [2, 399165290221]


def test_order_2048_group_child_peaks_under_55_mb():
    # Group copied the list rows its builder had just made, so the child
    # peaked at 83 MB for a table that keeps 32.5 MB
    assert verb_peak_mb("group", "--group", "catalog:cyclic:2048") <= 55


def test_suite_child_peaks_under_18_mb():
    # 19.2 MB while the hilbert_oracle battery kept one memo entry per
    # symbol (11,856) and the cup cache held up to 1024 pairs
    assert verb_peak_mb("suite") <= 18


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
    # kers reads dim H^2 and the kernel from one basis; a perms: spec builds
    # a new Group on every verb, and h2's cache, keyed by the table,
    # answers the second run
    h2.cache_clear()
    for _ in range(2):
        code, _, _ = run_cli(capsys, "kers", "--group", "perms:(0 1 2 3),(0 1)")
        assert code == 0
        assert h2.cache_info().misses == 1


def test_trace_verb_diagonalizes_once(capsys, monkeypatch):
    calls = []
    real = galois.trace_form

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(galois, "trace_form", counting)
    code, _, _ = run_cli(capsys, "trace", "--poly", "1,0,-4,0,2")
    assert code == 0 and len(calls) == 1


@pytest.mark.parametrize("coeffs", ["1,0,-3", "1,2,-1,2,-2,0", "1,0,-8,0,20,0,-16,0,2"],
                         ids=["degree-2", "degree-5", "degree-8"])
def test_trace_verb_reads_each_value_once(capsys, monkeypatch, coeffs):
    # each coefficient and the multiplicity once, each diagonal entry once
    # as QForm takes it and once as square_class reads it, and the class of
    # 1 that starts the disc's product: 3d + 3.  The Gram matrix was read
    # as an outside one and the lone form copied by direct_sum: 15, 48 and
    # 99 calls at degrees 2, 5 and 8
    real = quadratic._rational
    calls = []

    def counting(x):
        calls.append(x)
        return real(x)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "traceforms" and vars(mod).get("_rational") is real:
            monkeypatch.setattr(mod, "_rational", counting)
    code, _, _ = run_cli(capsys, "trace", "--poly", coeffs)
    d = coeffs.count(",")
    assert code == 0 and 0 < len(calls) <= 3 * d + 3, len(calls)


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
            "disc": real(A), "w2_places": jsonable(form_class(q).places),
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


@pytest.mark.parametrize("spec", ["cyclic:8", "elem_abelian_2:3", "dihedral:8"])
def test_classify_takes_thm_mains_verdict(capsys, spec):
    # the five octics under each label of order 8.  Three mislabels with a
    # square disc, which no C8 field has, passed (exit 0) when classify
    # compared with the model form and did not check w1: multiquadratic_real,
    # multiquadratic_imaginary and dihedral8_imaginary under cyclic:8
    from traceforms import fixtures
    G = groups.group_from_spec("catalog:" + spec)
    for fx in fixtures.OCTIC_FIXTURES:
        row = galois.verify_main(fx.algebra, G)
        verdict = row["status"] == "pass" and row["disc_predicate_agrees"]
        code, out, err = run_cli(capsys, "classify", "--poly",
                                 ",".join(map(str, fx.poly.coeffs)), "--group", "catalog:" + spec)
        assert (code, err, json.loads(out)["verdict"]) == (0 if verdict else 1, "", verdict)
        # w2 = cup(2, disc) holds on all five, so w1 decides: a square
        # disc exactly under a non-cyclic label
        assert verdict == ((fx.disc_class == 1) != (spec == "cyclic:8")), fx.name


@pytest.mark.parametrize("argv, message", [
    (["--poly", "1,0,0,0,0,0,0,0,0,0,-3", "--group", "catalog:dihedral:10"],
     "group order must be a power of two"),
    (["--algebra", '[{"poly":[1,0,-3],"multiplicity":4}]',
      "--group", "catalog:elem_abelian_2:3"],
     "classification needs a field, not a product"),
    (["--poly", "1,0,0,0,0,0,0,0,-2", "--group", "catalog:cyclic:8"],
     "signature (5, 3) is neither definite nor balanced"),
], ids=["order", "product", "signature"])
def test_classify_refusals_exit_2(capsys, argv, message):
    code, out, err = run_cli(capsys, "classify", *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def _entry_parts(*forms):
    """Numerators and denominators > 1 among the forms' entries."""
    return sum(n > 1 for q in forms for a in q.entries
               for n in (abs(a.numerator), a.denominator))


_MULTIQUADRATIC = (1, 0, -40, 0, 352, 0, -960, 0, 576)


@pytest.mark.parametrize("argv, poly, spec", [
    (["form", "--entries", "3,5/7,-11,13/2"], None, None),
    (["trace", "--poly", ",".join(map(str, _MULTIQUADRATIC))], _MULTIQUADRATIC, None),
    (["classify", "--poly", ",".join(map(str, _MULTIQUADRATIC)),
      "--group", "catalog:elem_abelian_2:3"], _MULTIQUADRATIC, "catalog:elem_abelian_2:3"),
    (["classify", "--poly", "1,0,-8,0,20,0,-16,0,2", "--group", "catalog:cyclic:8"],
     (1, 0, -8, 0, 20, 0, -16, 0, 2), "catalog:cyclic:8"),
], ids=["form", "trace", "classify-multiquadratic", "classify-cyclic8"])
def test_form_verbs_factor_each_entry_once(capsys, monkeypatch, argv, poly, spec):
    # w1 and w2 of one form each factored its entries, and classify's
    # isometry check factored them again: 12, 24, 60 and 44 factorint
    # calls where the entries have 6, 12, 12 and 10 parts.  classify then
    # factored its model form's entries too; it now factors the trace
    # form's parts and the 2 of cup(2, disc), each once, as verify_main does
    parts = None
    if poly is None:
        bound = _entry_parts(quadratic.QForm(("3", "5/7", "-11", "13/2")))
    else:
        q = galois.trace_form(galois.EtaleAlg(((galois.MonicPoly(poly), 1),)))
        bound = _entry_parts(q)
        if spec is not None:
            parts = [n for a in q.entries for n in (abs(a.numerator), a.denominator) if n > 1]
    calls = []
    real = quadratic.factorint

    def counting(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(quadratic, "factorint", counting)
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    if parts is None:
        assert len(calls) <= bound, (len(calls), bound)
    else:
        assert sorted(calls) == sorted(parts + [2])


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
     "multiplicity must be an integer, got None"),
    ("trace", '[{"poly": [1,0,-3], "multiplicity": 1.5}]',
     "multiplicity must be an integer, got 1.5"),
    ("trace", '[{"poly": [1,0,[3]]}]', "coefficient must be an integer"),
    ("form", "5", "Gram matrix must be a list of rows"),
    ("form", "[1,2]", "Gram matrix must be a list of rows"),
    ("form", '{"a": [1]}', "Gram matrix must be a list of rows"),
    ("form", '[["1/0"]]', "zero denominator in '1/0'"),
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


def test_gram_numbers_are_read_exactly(capsys, tmp_path):
    """A Gram entry written as a JSON number gives the same bytes as the
    same entry written as a string: no float in between."""
    g = tmp_path / "gram.json"
    outputs = {}
    for form, payload in [
            ("number", '[[12345678901234567891.5, 0.25], [0.25, -3e-2]]'),
            ("string", '[["12345678901234567891.5", "0.25"], ["0.25", "-3e-2"]]')]:
        g.write_text(payload)
        code, outputs[form], _ = run_cli(capsys, "form", "--gram", str(g))
        assert code == 0
    assert outputs["number"] == outputs["string"]
    g.write_text("[[12345678901234567891.5]]")  # 24691357802469135783/2
    code, out, _ = run_cli(capsys, "form", "--gram", str(g))
    # read as a float it was 12345678901234567168, disc 123456789012345670
    assert code == 0 and json.loads(out)["disc"] == 2 * 24691357802469135783
    g.write_text("[[1e400]]")  # 10^400 is a square: an exact read gives 1
    code, out, _ = run_cli(capsys, "form", "--gram", str(g))
    assert code == 0 and json.loads(out)["disc"] == 1
    g.write_text("[[1e5000]]")  # the exponent bound of --entries applies
    code, _, err = run_cli(capsys, "form", "--gram", str(g))
    assert code == 2 and "default_max_str_digits" in err


@pytest.mark.parametrize("argv", [
    ["form", "--entries", "1/0"],
    ["form", "--entries", "2,-3/0"],
    ["form", "--entries", "1", "--isometric-to", "1/0"],
])
def test_zero_denominator_entry_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "zero denominator" in err


@pytest.mark.parametrize("argv", [
    ["trace", "--poly", "1,,-3"],
    ["form", "--entries", "3,,5"],
    ["form", "--entries", "1", "--isometric-to", "1,"],
    ["form", "--entries", "1", "--isometric-to", ""],
], ids=["poly", "entries", "isometric-to", "isometric-to-empty"])
def test_empty_field_exits_2(capsys, argv):
    # "1,,-3" used to be read as x - 3, and "3,,5" as <3, 5>; an empty
    # --isometric-to was skipped, its verdict dropped with exit 0
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: empty field in {argv[-1]!r}\n"


def test_refused_integer_is_not_echoed_whole(capsys):
    # the message counts the digits of a long refused value, not all 100,000
    code, out, err = run_cli(capsys, "trace", "--poly", "1," + "9" * 100_000)
    assert code == 2 and out == ""
    limit = sys.int_info.default_max_str_digits
    assert err == ("error: a number of 100000 digits exceeds "
                   f"sys.int_info.default_max_str_digits = {limit}\n")


_LONG = "7" * 200_000


@pytest.mark.parametrize("door, value, message", [
    (quadratic._rational, "x" + _LONG, "Invalid literal for Fraction"),
    (quadratic._rational, _LONG + "e5000", "decimal exponent"),
    (quadratic._rational, _LONG[:4000] + "/0", "zero denominator"),
    (groups.group_from_spec, "x" + _LONG, "unknown group spec"),
    (groups.group_from_spec, "catalog:a:b:" + _LONG, "malformed catalog spec"),
    (groups.group_from_spec, "catalog:x" + _LONG, "unknown catalog group"),
    (groups.group_from_spec, "catalog:cyclic:x" + _LONG, "malformed catalog parameter"),
    (groups.group_from_spec, "perms:(0 1)," + _LONG + ",", "empty generator"),
    (perms.parse_cycle_string, "x" + _LONG, "malformed cycle string"),
    (perms.parse_cycle_string, "(0 x" + _LONG + ")", "malformed cycle string"),
    (perms.parse_cycle_string, "(0 1)(" + " " * 200_000 + ")", "empty cycle"),
    (cli._fields, _LONG + ",", "empty field"),
    # an index within the digit limit was echoed whole
    (functools.partial(cli._load_cocycle, groups.group_from_spec("catalog:cyclic:2")),
     "basis:" + _LONG[:4300], "basis index"),
], ids=["fraction", "exponent", "zero-denominator", "group-spec", "catalog-spec",
        "catalog-name", "catalog-parameter", "empty-generator", "cycle-string",
        "cycle-point", "empty-cycle", "empty-field", "basis-index"])
def test_refused_value_is_echoed_shortened(door, value, message):
    with pytest.raises(ValueError, match=message) as exc:
        door(value)
    assert len(str(exc.value)) < 200, len(str(exc.value))


def test_unknown_statement_is_echoed_shortened():
    with pytest.raises(ValueError) as exc:
        verify.run_statement(_LONG)
    assert str(exc.value).startswith("unknown statement '777777777777...7777777777777'; ")


def test_gram_entry_with_a_long_exponent_is_echoed_shortened(capsys, tmp_path):
    # the exponent message quoted the entry whole: 900,086 bytes of stderr
    # for an entry of 900,000 ones
    g = tmp_path / "gram.json"
    g.write_text(json.dumps([[_LONG + "e5000"]]))
    code, out, err = run_cli(capsys, "form", "--gram", str(g))
    assert code == 2 and out == ""
    assert "decimal exponent" in err and len(err.encode()) < 200, len(err)


def _exit_code(argv):
    """main's exit code, also where argparse refuses the arguments."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv", [
    ["pin-sign", "--n", "LONG"],
    ["verify", "--statement", "h2-s4", "--seed", "LONG"],
    ["suite", "--seed", "LONG"],
    ["form", "--gram", "LONG"],
    ["extension", "--group", "catalog:cyclic:4", "--cocycle", "LONG"],
    ["trace", "--algebra", "@LONG"],
], ids=["pin-sign-n", "verify-seed", "suite-seed", "gram", "cocycle", "algebra"])
def test_refused_option_or_path_is_echoed_shortened(capsys, argv):
    # argparse's type=int and open() quoted the value whole: 100,113 bytes
    # of stderr for --n, 100,130 for --seed and 100,041 for a path.  The
    # usage synopsis argparse prints first is fixed by the parser, and is
    # two lines for verify
    argv = [a.replace("LONG", "x" * 100_000) for a in argv]
    assert _exit_code(argv) == 2
    out = capsys.readouterr()
    message = out.err[out.err.index("error: "):]
    assert out.out == "" and len(message.encode()) < 200, len(out.err)
    assert len(out.err.encode()) < 250, len(out.err)


def test_short_refused_option_or_path_is_echoed_whole(capsys, tmp_path, monkeypatch):
    assert _exit_code(["pin-sign", "--n", "12.0"]) == 2
    assert capsys.readouterr().err.endswith(
        "error: argument --n: invalid int value: '12.0'\n")
    seed = "9" * 27 + "x"  # a repr of 30 characters is the longest kept whole
    assert _exit_code(["suite", "--seed", seed]) == 2
    assert capsys.readouterr().err.endswith(f"invalid int value: '{seed}'\n")
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "extension", "--group", "catalog:cyclic:4",
                             "--cocycle", "no-such-cocycle.txt")
    assert code == 2 and out == ""
    assert err == "error: [Errno 2] No such file or directory: 'no-such-cocycle.txt'\n"


@pytest.mark.parametrize("argv", [
    ["LONG"],
    ["group", "--group", "catalog:cyclic:2", "LONG"],
    ["trace", "--p=LONG"],
    ["trace", "--poly", "1,0,1", "--pretty=LONG"],
    ["trace", "-hhLONG"],
], ids=["verb", "extra-argument", "ambiguous-option", "explicit-argument", "help-flags"])
def test_refused_verb_or_argument_is_echoed_shortened(capsys, argv):
    # argparse quoted them whole: 100,344 bytes of stderr for the verb and
    # 100,196 for the extra argument
    argv = [a.replace("LONG", "y" * 100_000) for a in argv]
    assert _exit_code(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and len(out.err.encode()) < 400, len(out.err)
    assert "y" * 13 + "'" in out.err and "..." in out.err


@pytest.mark.parametrize("argv, message", [
    (["badverb"], "argument command: invalid choice: 'badverb' (choose from 'group', "),
    (["it's\\x"], """argument command: invalid choice: "it's\\\\x" (choose from """),
    (["group", "--group", "catalog:cyclic:2", "yy", "z" * 25],  # 28 characters
     "unrecognized arguments: yy " + "z" * 25 + "\n"),
    (["trace", "--p=xx"], "ambiguous option: --p=xx could match --pretty, --poly\n"),
    (["trace", "--poly", "1,0,1", "--pretty=xx"],
     "argument --pretty: ignored explicit argument 'xx'\n"),
    (["trace", "-hhello"], "argument -h/--help: ignored explicit argument 'ello'\n"),
    # a value that reads like argparse's own wording is quoted as it is
    (["pin-sign", "--n", "invalid choice: x"],
     "argument --n: invalid int value: 'invalid choice: x'\n"),
    (["group", "--group", "catalog:cyclic:2", "invalid choice: x"],
     "unrecognized arguments: invalid choice: x\n"),
    (["trace", "--poly", "1,0,1", "--pretty=invalid choice: x"],
     "argument --pretty: ignored explicit argument 'invalid choice: x'\n"),
    (["trace", "--poly", "1,0,1", "--pretty=explicit argument 'x'"],
     "argument --pretty: ignored explicit argument \"explicit argument 'x'\"\n"),
], ids=["verb", "verb-repr", "extra-arguments", "ambiguous-option", "explicit-argument",
        "help-flags", "int-value-wording", "extra-argument-wording", "explicit-argument-wording",
        "explicit-argument-quoting-wording"])
def test_short_refused_verb_or_argument_is_echoed_whole(capsys, argv, message):
    assert _exit_code(argv) == 2
    assert "error: " + message in capsys.readouterr().err


_EMPTY_GENERATORS = ["perms:(0 1),,(2 3)", "perms:(0 1),", "perms:,(0 1)", "perms: ",
                     "perms:(0 1), ,(2 3)"]


@pytest.mark.parametrize("spec, message", [
    *((spec, f"empty generator in {spec.strip()!r}") for spec in _EMPTY_GENERATORS),
    # asked for an explicit degree, which no spec can give
    ("perms:()", "empty permutation: write the identity as a fixed point, such as (0)"),
], ids=[*_EMPTY_GENERATORS, "perms:()"])
def test_empty_generator_exits_2(capsys, spec, message):
    # "(0 1),,(2 3)" and "(0 1)," were read with the empty ones dropped
    code, out, err = run_cli(capsys, "group", "--group", spec)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("spec, point", [("perms:(0 1)(1 2)", 1), ("perms:(0 1)(0 1)", 0),
                                         ("perms:(0 1)(1 0)", 1)])
def test_a_point_in_two_cycles_exits_2(capsys, spec, point):
    # a later cycle overwrote the images of an earlier one, so (0 1)(0 1)
    # was read as (0 1), a group of order 2, and only (0 1)(1 2) was refused
    code, out, err = run_cli(capsys, "group", "--group", spec)
    assert code == 2 and out == ""
    assert err == f"error: point {point} appears in two cycles\n"


def test_perms_spec_is_bounded_before_its_generators_are_built():
    # 14,000 copies of (0 2047) were each padded to degree 2048: 1 GB
    # peak, 9-11 s, and a MemoryError (exit 1) under an address-space limit
    spec = "perms:" + ",".join(["(0 2047)"] * 14_000)
    proc, elapsed = run_limited(["-m", "traceforms", "group", "--group", spec], timeout=30)
    assert proc.returncode == 2 and proc.stdout == "", proc.stderr
    assert proc.stderr == "error: perms spec has more than CLOSURE_CAP = 2048 generators\n"
    assert elapsed < 2, elapsed


@pytest.mark.parametrize("given, exact", [
    (["trace", "--poly", " 1, +0 ,-3"], ["trace", "--poly", "1,0,-3"]),
    (["trace", "--algebra", '[{"poly": [1,"0","-3"], "multiplicity": " 2 "}]'],
     ["trace", "--algebra", '[{"poly": [1,0,-3], "multiplicity": 2}]']),
], ids=["poly-signed", "algebra-text"])
def test_integers_are_read_exactly(capsys, given, exact):
    # --poly used int(), and --algebra int() on a multiplicity; both read
    # integer text now as EtaleAlg itself does, by the package's rule
    assert run_cli(capsys, *given) == run_cli(capsys, *exact)
    assert run_cli(capsys, *exact)[0] == 0


@pytest.mark.parametrize("argv, quoted", [
    (["trace", "--poly", "1,0,-3.0"], "'-3.0'"),
    (["trace", "--poly", "1,0,-6/2"], "'-6/2'"),
    (["trace", "--poly", "1,0,-1e3"], "'-1e3'"),
    (["trace", "--poly", "1,0,-1_0"], "'-1_0'"),
    (["trace", "--poly", "1,0,٣"], "'٣'"),
    (["trace", "--algebra", '[{"poly": [1,0,-3], "multiplicity": "2.0"}]'], "'2.0'"),
    (["trace", "--algebra", '[{"poly": [1,0,-3], "multiplicity": "4/2"}]'], "'4/2'"),
    (["trace", "--algebra", '[{"poly": [1,0,-3], "multiplicity": true}]'], "True"),
    (["h2", "--group", "catalog:cyclic:1_0"], "'1_0'"),
    (["h2", "--group", "catalog:cyclic:٣"], "'٣'"),
    (["h2", "--group", "catalog:cyclic:4.0"], "'4.0'"),
    (["group", "--group", "perms:(0 1_0)"], "'(0 1_0)'"),
    (["extension", "--group", "catalog:cyclic:4", "--cocycle", "basis:0_0"], "'basis:0_0'"),
    (["form", "--entries", "1_0,3"], "'1_0'"),
    (["form", "--entries", "1 / 2,3"], "'1 / 2'"),
    (["form", "--entries", "٣,3"], "'٣'"),
    (["pin-sign", "--n", "1_2"], "'1_2'"),
    (["pin-sign", "--n", "١٢"], "'١٢'"),
    (["suite", "--seed", "9_9"], "'9_9'"),
], ids=["poly-decimal", "poly-fraction", "poly-exponent", "poly-underscore",
        "poly-arabic-indic", "multiplicity-decimal", "multiplicity-fraction",
        "multiplicity-bool", "catalog-underscore", "catalog-arabic-indic",
        "catalog-decimal", "cycle-point", "basis-index", "entry-underscore",
        "entry-spaced-slash", "entry-arabic-indic", "n-underscore", "n-arabic-indic",
        "seed-underscore"])
def test_integer_text_outside_the_rule_exits_2(capsys, argv, quoted):
    # an integer is ASCII digits with an optional sign, and rational text
    # is ASCII with no "_" or inner space, on every supported Python:
    # "1_0" answered on 3.11 and "1 / 2" on 3.12 but exited 2 on 3.10,
    # "٣" read as 3 everywhere, and a coefficient took "-3.0" as -3
    assert _exit_code(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    message = err.splitlines()[-1]
    assert "error: " in message and quoted in message, err


@pytest.mark.parametrize("argv", [
    ["form", "--gram", "FILE"],
    ["extension", "--group", "catalog:cyclic:2", "--cocycle", "FILE"],
    ["trace", "--algebra", "@FILE"],
], ids=["gram", "cocycle", "algebra"])
@pytest.mark.parametrize("source", ["/dev/zero", "spaces"])
def test_input_file_is_bounded_before_it_is_read(tmp_path, argv, source):
    # /dev/zero was read until MemoryError (exit 1, 0.7-1.3 s under the
    # child's address-space limit; without it, without end)
    if source == "spaces":
        source = tmp_path / "spaces"
        source.write_text(" " * (cli.INPUT_BYTES_CAP + 1))
    elif not os.path.exists(source):
        pytest.skip(f"no {source}")
    argv = [a.replace("FILE", str(source)) for a in argv]
    proc, elapsed = run_limited(["-m", "traceforms", *argv], timeout=30)
    assert proc.returncode == 2 and proc.stdout == "", proc.stderr
    assert proc.stderr == (f"error: {source} exceeds INPUT_BYTES_CAP = "
                           f"{cli.INPUT_BYTES_CAP} bytes\n")
    assert elapsed < 1, elapsed


def test_input_file_at_the_cap_is_read(capsys, tmp_path):
    # one byte less than the refused file: its content decides
    spaces = tmp_path / "spaces"
    spaces.write_text(" " * cli.INPUT_BYTES_CAP)
    code, _, err = run_cli(capsys, "extension", "--group", "catalog:cyclic:2",
                           "--cocycle", str(spaces))
    assert code == 2 and err == "error: cocycle file must hold exactly 2x2 ASCII bits\n"


@pytest.mark.parametrize("spec", ["cyclic:1000000000", "cyclic:4096",
                                  "elem_abelian_2:64",
                                  "dihedral:1000000000000",
                                  "elem_abelian_2:-1", "sym:-1"])
def test_oversized_catalog_parameters_exit_2(spec):
    # The child runs under a 1 GiB address-space limit, so a missing bound
    # fails with MemoryError instead of building the table.
    proc, elapsed = run_limited(
        ["-m", "traceforms", "group", "--group", f"catalog:{spec}"], timeout=30)
    assert proc.returncode == 2 and proc.stdout == "", proc.stderr
    assert elapsed < 2, elapsed
    bound = "between 0 and 5" if spec.startswith("sym") else "CLOSURE_CAP = 2048"
    assert bound in proc.stderr


def test_oversized_permutation_degree_exits_2():
    # a permutation is sized by its largest point: without the bound this
    # child allocates 10^8 images and dies with MemoryError (exit 1)
    proc, elapsed = run_limited(
        ["-m", "traceforms", "group", "--group", "perms:(0 100000000)"],
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
    proc, elapsed = run_limited(
        ["-m", "traceforms", "form", "--entries", "3000000000000148000000000001369"])
    assert proc.returncode == 2 and proc.stdout == "", proc.stderr
    assert elapsed < 10, elapsed
    assert "RHO_BUDGET = 8388608" in proc.stderr


@pytest.mark.parametrize("digits", [300, 4300])
def test_long_entry_exits_2_within_the_factoring_budget(digits):
    # one RHO_BUDGET bounds a whole factorint call, its Miller-Rabin rounds
    # included: a round on the 4,300-digit entry took 7 s, one was run for
    # every small factor rho split off, and the entry ran until killed
    proc, elapsed = run_limited(
        ["-m", "traceforms", "form", "--entries", "3," + "1" * digits])
    assert proc.returncode == 2 and proc.stdout == "", proc.stderr
    assert elapsed < 10, elapsed
    assert "RHO_BUDGET = 8388608" in proc.stderr and len(proc.stderr) < 200


def test_oversized_algebra_exits_2_before_a_polynomial_is_built(tmp_path):
    # a file at INPUT_BYTES_CAP of one squarefree degree-128 factor: its
    # separability test takes about 50 ms, and one ran for every factor
    # before the algebra's degree was checked, over 3 minutes in all
    rng = random.Random(128)
    poly = [1] + [rng.randint(0, 1) for _ in range(127)] + [1]
    assert galois.MonicPoly(poly).degree == 128
    factor = json.dumps({"poly": poly}, separators=(",", ":"))
    count = (cli.INPUT_BYTES_CAP - 1) // (len(factor) + 1)
    algebra = tmp_path / "algebra.json"
    algebra.write_text("[" + ",".join([factor] * count) + "]")
    assert count > 3000 and algebra.stat().st_size <= cli.INPUT_BYTES_CAP
    proc, elapsed = run_limited(["-m", "traceforms", "trace", "--algebra", f"@{algebra}"],
                                timeout=30)
    assert proc.returncode == 2 and proc.stdout == "", proc.stderr
    assert elapsed < 2, elapsed
    assert proc.stderr == (f"error: algebra degree {128 * count} exceeds "
                           "ALGEBRA_DEGREE_CAP = 128\n")


def test_extension_trips_h2_cap_before_other_work():
    # the order-1024 extension group used to be built (37 s) before the cap
    proc, elapsed = run_limited(
        ["-m", "traceforms", "extension", "--group", "catalog:dihedral:512",
         "--cocycle", "zero"])
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
    (["pin-cocycle", "--group", "catalog:cyclic:2048"], "CLIFFORD_RANK_CAP = 24"),
    (["pin-cocycle", "--involutions-only", "--group", "catalog:dihedral:2048"],
     "CLIFFORD_RANK_CAP = 24"),
    (["h2", "--group", "perms:" + ",".join(f"({2 * i} {2 * i + 1})"
                                           for i in range(11))],
     "H2_CAP = 64"),
    (["pin-cocycle", "--group", "perms:(" + " ".join(map(str, range(25))) + ")"],
     "CLIFFORD_RANK_CAP = 24"),
    (["pin-cocycle", "--involutions-only",
      "--group", "perms:(" + " ".join(map(str, range(25))) + ")"],
     "CLIFFORD_RANK_CAP = 24"),
    (["pin-cocycle", "--group", "catalog:cyclic:25"], "CLIFFORD_RANK_CAP = 24"),
    (["pin-cocycle", "--involutions-only", "--group", "catalog:cyclic:25"],
     "CLIFFORD_RANK_CAP = 24"),
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
    proc, elapsed = run_limited(["-m", "traceforms", "form", "--entries", n])
    assert proc.returncode == 2 and proc.stdout == "", proc.stderr
    assert elapsed < 10, elapsed
    assert "RHO_BUDGET = 8388608" in proc.stderr


def test_algebra_degree_cap_exits_2():
    # without the cap, repeat() allocated 10^13 entries: MemoryError, exit 1
    proc, elapsed = run_limited(
        ["-m", "traceforms", "trace", "--algebra",
         '[{"poly":[1,0,-3],"multiplicity":10000000000000}]'])
    assert proc.returncode == 2 and proc.stdout == "", proc.stderr
    assert elapsed < 10, elapsed
    assert proc.stderr == ("error: algebra degree 20000000000000 exceeds "
                           "ALGEBRA_DEGREE_CAP = 128\n")
    proc, elapsed = run_limited(["-m", "traceforms", "trace", "--poly",
                                 ",".join(["1"] + ["0"] * 128 + ["-2"])])
    assert proc.returncode == 2 and elapsed < 10, proc.stderr
    assert "polynomial degree 129 exceeds ALGEBRA_DEGREE_CAP = 128" in proc.stderr


def test_largest_admitted_algebra_finishes():
    proc, elapsed = run_limited(
        ["-m", "traceforms", "trace", "--algebra",
         '[{"poly":[1,0,-3],"multiplicity":64}]'])
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 10, elapsed
    assert json.loads(proc.stdout)["degree"] == galois.ALGEBRA_DEGREE_CAP


def test_seeded_degree_128_trace_exits_2_within_10s():
    # the Fraction-based separability check alone took 65 s here; the
    # integer one leaves the time to the factoring, which cannot certify
    # one of the square classes and exits 2
    rng = random.Random(128)
    cs = [1] + [rng.randint(-9, 9) for _ in range(128)]
    proc, elapsed = run_limited(
        ["-m", "traceforms", "trace", "--poly", ",".join(map(str, cs))])
    assert proc.returncode == 2 and proc.stdout == "", proc.stderr
    assert elapsed < 10, elapsed
    assert proc.stderr.startswith("error: ")


@pytest.mark.parametrize("argv", [["trace", "--algebra", "@DEEP"],
                                  ["form", "--gram", "DEEP"]],
                         ids=["trace-algebra", "form-gram"])
def test_deeply_nested_json_exits_2(tmp_path, argv):
    # the decoder's RecursionError used to escape as a traceback, exit 1
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    argv = [a.replace("DEEP", str(deep)) for a in argv]
    proc, elapsed = run_limited(["-m", "traceforms", *argv], timeout=30)
    assert proc.returncode == 2 and proc.stdout == "", proc.stderr
    assert proc.stderr.startswith("error: ") and "nested too deeply" in proc.stderr
    assert elapsed < 10, elapsed


def _gram(n, bits, seed=0):
    """A symmetric n x n integer matrix whose largest entry has `bits` bits."""
    rng = random.Random(seed)
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = rng.randrange(-(1 << bits) + 1, 1 << bits)
    g[0][0] = (1 << bits) - 1
    return g


@pytest.mark.parametrize("gram, cap", [
    (_gram(256, 3), "GRAM_RANK_CAP = 128"),  # diagonalize: 12 s
    (_gram(128, 133), "GRAM_BITS_CAP = 2048"),  # 40-digit entries: 97 s
    ([["1/%d" % (2 * i + 3) if i == j else "0" for j in range(128)]
      for i in range(128)], "GRAM_BITS_CAP = 2048"),  # den = lcm(3, 5, ..., 257)
    (_gram(128, 16), None),  # at the cap: 3 s, then factoring exits 2
], ids=["rank-256", "40-digit", "denominators", "at-the-cap"])
def test_gram_is_bounded_before_it_is_diagonalized(tmp_path, gram, cap):
    g = tmp_path / "gram.json"
    g.write_text(json.dumps(gram))
    proc, elapsed = run_limited(["-m", "traceforms", "form", "--gram", str(g)])
    assert elapsed < 10, elapsed
    if cap is None:
        assert "GRAM_" not in proc.stderr, proc.stderr
    else:
        assert proc.returncode == 2 and proc.stdout == "", proc.stderr
        assert proc.stderr.startswith("error: Gram rank ") and cap in proc.stderr


def test_form_gram_reads_the_matrix_once(capsys, tmp_path, monkeypatch):
    # the command line read and checked it, and then diagonalize again
    calls = []
    real = quadratic.validate_gram

    def counting(gram):
        calls.append(gram)
        return real(gram)

    monkeypatch.setattr(quadratic, "validate_gram", counting)
    g = tmp_path / "gram.json"
    g.write_text(json.dumps(_gram(4, 3)))
    code, _, err = run_cli(capsys, "form", "--gram", str(g))
    assert code == 0, err
    assert len(calls) == 1


_PRIMES = list(map(str, sympy.primerange(2, 800)))[:129]


def test_form_entries_are_bounded_by_the_gram_rank_cap(capsys):
    # 2,000 primes ran 18 s and then exited 2 on a 7,483-digit disc
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "form", "--entries", ",".join(_PRIMES))
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == "error: form rank 129 exceeds GRAM_RANK_CAP = 128\n"
    code, out, err = run_cli(capsys, "form", "--entries", ",".join(_PRIMES[:128]))
    assert code == 0 and json.loads(out)["rank"] == 128, err


@pytest.mark.parametrize("entries", ["3,5/7,-11", "1,2,-3,4/5", "-1,-1,-1", _PRIMES[-1]])
def test_form_entries_and_diagonal_gram_print_the_same_bytes(capsys, tmp_path, entries):
    fields = entries.split(",")
    g = tmp_path / "gram.json"
    g.write_text(json.dumps([[x if i == j else "0" for j in range(len(fields))]
                             for i, x in enumerate(fields)]))
    code, by_entries, _ = run_cli(capsys, "form", f"--entries={entries}")
    assert code == 0
    assert run_cli(capsys, "form", "--gram", str(g)) == (0, by_entries, "")


def test_tall_degree_128_trace_exits_2_at_the_bits_cap():
    # 10-digit coefficients: without the cap this took 38-53 s to exit 2
    rng = random.Random(7)
    cs = [1] + [rng.randint(-10**10 + 1, 10**10 - 1) for _ in range(128)]
    proc, elapsed = run_limited(
        ["-m", "traceforms", "trace", "--poly", ",".join(map(str, cs))])
    assert proc.returncode == 2 and proc.stdout == "", proc.stderr
    assert elapsed < 10, elapsed
    assert proc.stderr == ("error: polynomial degree 128 times coefficient bits "
                           "34 exceeds DEGREE_BITS_CAP = 1536\n")


def test_a_closed_stdout_exits_141_with_no_error_line():
    # `suite --pretty | head -1` printed "error: [Errno 32] Broken pipe"
    # and exited 2, the exit of a bad input.  The pipe holds one page, so
    # the child is still writing its 15 kB when the reader closes it
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("the pipe's size cannot be set")
    src = os.path.dirname(os.path.dirname(traceforms.__file__))
    read, write = os.pipe()
    fcntl.fcntl(read, fcntl.F_SETPIPE_SZ, 4096)
    with subprocess.Popen([sys.executable, "-m", "traceforms", "suite", "--pretty"],
                          stdout=write, stderr=subprocess.PIPE,
                          env=dict(os.environ, PYTHONPATH=src)) as proc:
        os.close(write)
        with os.fdopen(read, "rb") as out:
            first = out.readline()
        _, err = proc.communicate(timeout=60)
    assert first == b"prop-lift2             pass\n"
    assert (proc.returncode, err) == (141, b"")


def test_import_builds_no_parser():
    src = os.path.dirname(os.path.dirname(traceforms.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", "import traceforms.cli as c; "
         "print(c._parser.cache_info().currsize)"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0 and proc.stdout == "0\n", proc.stderr


def test_parser_is_built_once_per_verb_per_process(capsys, monkeypatch):
    # a verb builds its own parser alone, and only the first time it runs
    builds = []
    real = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        builds.append(kwargs.get("prog"))
        real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli._parser.cache_clear()
    for argv in (["trace", "--poly", "1,0,-3"], ["pin-sign", "--n", "4"],
                 ["form", "--entries", "1,2"], ["trace", "--poly", "1,0,-3"]):
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
    assert builds == ["traceforms trace", "traceforms pin-sign", "traceforms form"]


def _parsed(capsys, parse):
    try:
        ns, extras = parse()
        return vars(ns), extras
    except SystemExit as exc:
        return exc.code, capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["trace", "--poly", "1,0,-3"], ["trace", "--poly=1,0,-3", "--pretty", "--pretty"],
    ["trace", "--", "--poly", "1,0,1"], ["trace", "--po", "1,0,1"], ["trace", "--p", "1,0,1"],
    ["trace", "-h"], ["trace"], ["trace", "--poly", "1,0,1", "--algebra", "[]"],
    ["pin-sign", "--n", "2", "extra", "-x"], ["pin-sign", "--n", "x"],
    ["verify", "--statement", "h2-s4", "--seed", "3"], ["verify", "-h"],
    ["group", "--gr", "catalog:cyclic:4"], ["form", "--entries", "1", "--gram", "x"],
    ["suite", "--timings"], ["classify", "--group", "catalog:cyclic:2", "--algebra", "@f"],
])
def test_verb_parser_parses_as_the_top_parser_does(capsys, argv):
    # main hands the arguments after a verb to that verb's own parser, as
    # the top parser's subcommand action does, without building the top one
    assert _parsed(capsys, lambda: cli._parser(None).parse_known_args(argv)) == _parsed(
        capsys, lambda: cli._parser(argv[0]).parse_known_args(
            argv[1:], argparse.Namespace(command=argv[0])))


def test_reused_parser_keeps_no_state(capsys, monkeypatch):
    _, compact, _ = run_cli(capsys, "trace", "--poly", "1,0,-3")
    _, pretty, _ = run_cli(capsys, "trace", "--poly", "1,0,-3", "--pretty")
    _, again, _ = run_cli(capsys, "trace", "--poly", "1,0,-3")
    assert pretty != compact and again == compact and compact.count("\n") == 1
    seeds = []
    real = verify.run_statement

    def recording(statement, seed):
        seeds.append(seed)
        return real(statement, seed)

    monkeypatch.setattr(verify, "run_statement", recording)
    run_cli(capsys, "verify", "--statement", "h2-s4", "--seed", "99")
    run_cli(capsys, "verify", "--statement", "h2-s4")
    assert seeds == [99, DEFAULT_SEED]


def test_unknown_statement_exits_2_naming_every_statement(capsys):
    code, out, err = run_cli(capsys, "verify", "--statement", "bogus")
    assert code == 2 and out == ""
    assert err.startswith("error: unknown statement 'bogus'")
    assert set(STATEMENTS) <= set(re.split(r"[\s,]+", err))


def test_verify_help_lists_every_statement(capsys):
    def usage_error():
        with pytest.raises(SystemExit):
            main(["verify"])
        return capsys.readouterr().err

    before = usage_error()
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0 and out.startswith("usage: traceforms verify")
    assert set(STATEMENTS) <= set(re.split(r"[\s,{}]+", out))
    assert usage_error() == before  # the reused parser kept no help state


@pytest.mark.parametrize("argv", [["form"], ["nonsense-verb"]])
def test_usage_errors_repeat_on_a_reused_parser(capsys, argv):
    cli._parser.cache_clear()
    errs = []
    for _ in range(3):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        errs.append(capsys.readouterr().err)
    assert errs[0].startswith("usage: traceforms") and len(set(errs)) == 1


@pytest.mark.parametrize("argv", [
    ["form", "--entries", "1e100000"],
    ["form", "--entries", "2", "--isometric-to", "1E-4301"],
    ["form", "--gram", "GRAM"],
])
def test_decimal_exponent_beyond_int_digit_limit_exits_2(tmp_path, argv):
    # 1e100000 used to reach factorint as a 100,001-digit integer (> 30 s)
    g = tmp_path / "gram.json"
    g.write_text('[["1e1_0000", "0"], ["0", "1"]]')
    argv = [str(g) if a == "GRAM" else a for a in argv]
    proc, elapsed = run_limited(["-m", "traceforms", *argv], timeout=30)
    assert proc.returncode == 2 and proc.stdout == "", proc.stderr
    assert elapsed < 2, elapsed
    limit = sys.int_info.default_max_str_digits
    assert f"sys.int_info.default_max_str_digits = {limit}" in proc.stderr


def test_decimal_exponent_at_int_digit_limit_finishes():
    limit = sys.int_info.default_max_str_digits
    proc, elapsed = run_limited(
        ["-m", "traceforms", "form", "--entries", f"1e{limit},1e-{limit}"])
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 10, elapsed
    assert json.loads(proc.stdout)["disc"] == 1


_SMALL_GROUPS = (
    [f"catalog:cyclic:{k}" for k in range(1, 13)]
    + [f"catalog:dihedral:{k}" for k in range(2, 13, 2)]
    + [f"catalog:elem_abelian_2:{k}" for k in range(4)]
    + [f"catalog:sym:{k}" for k in range(4)]
    + [f"catalog:alt:{k}" for k in range(5)]
    + ["catalog:quaternion8", "catalog:Z4xZ2"]
    + ["perms:(0 1 2 3),(0 2)",  # D8
       "perms:(0 1 2 3)(4 5 6 7),(0 4 2 6)(1 7 3 5)",  # Q8
       "perms:(0 1),(2 3),(4 5)",  # C2^3
       "perms:(0 1 2 3 4),(1 4)(2 3)",  # D10
       "perms:(0 1 2 3 4 5),(1 5)(2 4)",  # D12
       "perms:(0 1 2),(0 1)(2 3)",  # A4
       "perms:(0 1 2 3)(4 5 6)",  # C12
       "perms:(0 1 2),(0 1)"])  # S3


def _breaks_identity(G, rows):
    """Whether the table c(g, h) = rows[g][h] fails the cocycle identity
    on some triple."""
    n, t = G.order, G.table
    c = [[int(b) for b in r] for r in rows]
    return any(c[g][h] ^ c[t[g][h]][k] ^ c[h][k] ^ c[g][t[h][k]]
               for g in range(n) for h in range(n) for k in range(n))


@pytest.mark.parametrize("spec", _SMALL_GROUPS)
def test_pin_cocycle_bits_round_trip_through_a_cocycle_file(capsys, tmp_path, spec):
    # the README says the cocycle_bits rows concatenate into a --cocycle file
    code, out, err = run_cli(capsys, "pin-cocycle", "--group", spec)
    assert code == 0, err
    pin = json.loads(out)
    rows = pin["cocycle_bits"]
    n = len(rows)

    def extension(table):
        f = tmp_path / "c.txt"
        f.write_text("\n".join(table) + "\n")
        return run_cli(capsys, "extension", "--group", spec, "--cocycle", str(f))

    def flipped(g, h):
        return [r[:h] + "10"[int(r[h])] + r[h + 1:] if i == g else r
                for i, r in enumerate(rows)]

    code, out, err = extension(rows)
    assert code == 0, err
    ext = json.loads(out)
    assert ext["class_is_coboundary"] == pin["coboundary"]
    assert ext["s_diagonal"] == pin["s_vector"]
    code, out, err = extension(flipped(0, n - 1))
    assert code == 2 and out == "" and "not normalized" in err
    # in C1 and C2 every inner flip is still a cocycle
    G = groups.group_from_spec(spec)
    broken = next((f for f in (flipped(g, h) for g in range(1, n) for h in range(1, n))
                   if _breaks_identity(G, f)), None)
    assert (broken is None) == (n <= 2), spec
    if broken is not None:
        code, out, err = extension(broken)
        assert code == 2 and out == "" and err.startswith("error: cocycle identity fails: ")


# (spec, pin-cocycle options): the full sign table up to order 12, the
# involution diagonal up to 24, neither above
_GOLDEN_GROUPS = [
    ("catalog:cyclic:2", []), ("catalog:cyclic:4", []),
    ("catalog:elem_abelian_2:2", []), ("catalog:quaternion8", []),
    ("catalog:Z4xZ2", []), ("catalog:elem_abelian_2:3", []),
    ("catalog:dihedral:12", []), ("catalog:alt:4", []),
    ("perms:(0 1 2 3 4 5),(1 5)(2 4)", []), ("perms:(0 1 2 3),(0 2)", []),
    ("catalog:quat_cover", ["--involutions-only"]),
    ("catalog:sym:4", ["--involutions-only"]),
    ("perms:(0 1 2 3),(0 1),(4 5)", None),
]
# sha256 of the outputs below as the row-tuple encoding of 2-cochains
# printed them; it pins every basis, coordinate and sign table
_GOLDEN_DIGEST = "14866bfc340f4188feca10e87c31ce67e4c3ef81041892f3748e47cfb84315ff"


def test_cohomology_outputs_match_golden_digest(capsys):
    digest = hashlib.sha256()
    for spec, pin in _GOLDEN_GROUPS:
        runs = [["h2"], ["kers"], ["extension", "--cocycle", "basis:0"]]
        if pin is not None:
            runs.append(["pin-cocycle", *pin])
        for verb, *rest in runs:
            code, out, err = run_cli(capsys, verb, "--group", spec, *rest)
            assert code == 0, (verb, spec, err)
            digest.update(out.encode())
    assert digest.hexdigest() == _GOLDEN_DIGEST


# every verb but the cohomology ones above, each run with and without
# --pretty; the second classify fails its verdict (exit 1)
_VERB_RUNS = [
    ["group", "--group", "catalog:quaternion8"],
    ["group", "--group", "perms:(0 1 2 3),(0 2)"],
    ["2reduced", "--group", "catalog:Z4xZ2"],
    ["2reduced", "--group", "catalog:sym:4"],
    ["pin-sign", "--n", "12"],
    ["form", "--entries", "1,2,-3,4/5"],
    ["form", "--gram", "GRAM"],
    ["form", "--entries", "2,2", "--isometric-to", "1,1"],
    ["trace", "--poly", "1,0,-4,0,2"],
    ["trace", "--algebra", '[{"poly": [1,0,-3], "multiplicity": 2}]'],
    ["classify", "--poly", "1,0,-8,0,20,0,-16,0,2", "--group", "catalog:cyclic:8"],
    ["classify", "--poly", "1,-3,2,-1,2,2,1,0,1", "--group", "catalog:cyclic:8"],
    *(["verify", "--statement", s] for s in STATEMENTS),
    ["suite"],
    ["suite", "--seed", "99"],
]
# sha256 over the runs of "<exit code>\n<stdout>", recorded before main()
# took over loading, printing and exit codes from the verb handlers
_VERB_DIGEST = "47731c375a8c977631a870f08dc574124e51b74ed44de736cf3aef9150a023de"


def test_verb_outputs_and_exit_codes_match_golden_digest(capsys, tmp_path):
    gram = tmp_path / "gram.json"
    gram.write_text('[["0","1"],["1","0"]]')
    digest = hashlib.sha256()
    codes = []
    for argv in _VERB_RUNS:
        argv = [str(gram) if a == "GRAM" else a for a in argv]
        for extra in ([], ["--pretty"]):
            code, out, err = run_cli(capsys, *argv, *extra)
            assert err == "", (argv, err)
            codes.append(code)
            digest.update(f"{code}\n{out}".encode())
    assert codes.count(1) == 2 and set(codes) == {0, 1}
    assert digest.hexdigest() == _VERB_DIGEST


# the group verb on groups that are not 2-groups, whose Sylow 2-subgroup
# is grown inside successive normalizers
_SYLOW_SPECS = ["catalog:sym:3", "catalog:sym:4", "catalog:alt:4", "catalog:sym:5",
                "catalog:cyclic:12", "catalog:dihedral:24", "perms:(0 1 2 3 4 5),(0 1)"]
# sha256 over the runs of "<exit code>\n<stdout>", recorded while sylow2
# returned a member list inside its parent
_SYLOW_DIGEST = "e9490e5019cee144b44b81a4c2c1014c4c90617168d37c6d5820a7d548d1b6e0"


def test_group_verb_on_non_2_groups_matches_golden_digest(capsys):
    digest = hashlib.sha256()
    for spec in _SYLOW_SPECS:
        for extra in ([], ["--pretty"]):
            code, out, err = run_cli(capsys, "group", "--group", spec, *extra)
            assert code == 0 and err == "", (spec, err)
            digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == _SYLOW_DIGEST


# extension on every basis class and on zero, for each golden group (all
# are within H2_CAP), with and without --pretty
# sha256 over the runs of "<exit code>\n<stdout>", recorded while
# Cocycle2.validate checked the identity by its own loop
_EXTENSION_DIGEST = "106a60f580d7566d3b28cf8848678a9e048d70bf6a33f54063b12827777ebc7b"


def test_extension_verb_matches_golden_digest(capsys):
    digest = hashlib.sha256()
    for spec, _ in _GOLDEN_GROUPS:
        dim = h2(groups.group_from_spec(spec)).dim
        for cocycle in [*(f"basis:{i}" for i in range(dim)), "zero"]:
            for extra in ([], ["--pretty"]):
                code, out, err = run_cli(capsys, "extension", "--group", spec,
                                         "--cocycle", cocycle, *extra)
                assert code == 0 and err == "", (spec, cocycle, err)
                digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == _EXTENSION_DIGEST


def _trace_digest_polys():
    """60 seeded monic polynomials of degree 2-12 with coefficients in
    [-9, 9], but every fifth is instead the product of two such factors:
    reducible, with larger coefficients, and sometimes a repeated root."""
    rng = random.Random("trace-digest")
    polys = []
    for i in range(60):
        d = 2 + i % 11
        if i % 5 == 4:
            k = rng.randint(1, d - 1)
            a = [1] + [rng.randint(-9, 9) for _ in range(k)]
            b = [1] + [rng.randint(-9, 9) for _ in range(d - k)]
            cs = [0] * (d + 1)
            for i1, x in enumerate(a):
                for j1, y in enumerate(b):
                    cs[i1 + j1] += x * y
        else:
            cs = [1] + [rng.randint(-9, 9) for _ in range(d)]
        polys.append(cs)
    return polys


_OCTIC_SPECS = {"multiquadratic_real": "catalog:elem_abelian_2:3",
                "multiquadratic_imaginary": "catalog:elem_abelian_2:3",
                "cyclic8_real": "catalog:cyclic:8",
                "cyclic8_imaginary": "catalog:cyclic:8",
                "dihedral8_imaginary": "catalog:dihedral:8"}


def _trace_digest_runs():
    runs = []
    for cs in _trace_digest_polys():
        for flip in (False, True):  # f(x) and f(-x)
            c = [-x if flip and i % 2 else x for i, x in enumerate(cs)]
            runs.append(["trace", "--poly=" + ",".join(map(str, c))])
    for poly in ([1, 0, -3], [1, 0, 0, -2], [1, 0, -4, 0, 2]):
        for m in (1, 2, 3, 4):
            runs.append(["trace", "--algebra", json.dumps([{"poly": poly, "multiplicity": m}])])
    runs.append(["trace", "--algebra", json.dumps([{"poly": [1, 0, -3], "multiplicity": 2},
                                                   {"poly": [1, 0, 1], "multiplicity": 3}])])
    runs += [["form", "--entries", "1/10,2.0,-3"],
             ["form", "--entries", "1/10,2.0,-3", "--isometric-to", "10,2,-3"],
             ["form", "--entries", "1/10,2.0", "--isometric-to", "1,-1"],
             ["form", "--gram", "INT_GRAM"], ["form", "--gram", "RATIONAL_GRAM"]]
    from traceforms.fixtures import OCTIC_FIXTURES
    for f in OCTIC_FIXTURES:
        runs.append(["classify", "--poly", ",".join(map(str, f.poly.coeffs)),
                     "--group", _OCTIC_SPECS[f.name]])
    runs += [["trace", "--poly", "1,-2,1"], ["trace", "--poly", "1,2.5,1"],
             ["trace", "--poly", "1," + "7" * 100_000]]
    return runs


# sha256 over the runs above of "<exit>\n<stdout>\n<stderr>", each with
# and without --pretty, recorded while every value was read as a Fraction
# and the trace Gram was checked as an outside matrix; re-pinned when the
# 100,000-digit coefficient's refusal became the digit-limit message, the
# old digest's records with only that stderr replaced
_TRACE_DIGEST = "ad39a5d0b57789ad257e1011f577f307f0849bde60daae6bc39c3618336c5d5a"


def test_trace_and_form_outputs_match_golden_digest(capsys, tmp_path):
    grams = {"INT_GRAM": [[2, 1, 0], [1, 2, 1], [0, 1, 2]],
             "RATIONAL_GRAM": [["1/2", 0.25], [0.25, "-3/7"]]}
    for name, rows in grams.items():
        (tmp_path / name).write_text(json.dumps(rows))
    digest = hashlib.sha256()
    for argv in _trace_digest_runs():
        argv = [str(tmp_path / a) if a in grams else a for a in argv]
        for extra in ([], ["--pretty"]):
            code, out, err = run_cli(capsys, *argv, *extra)
            digest.update(f"{code}\n{out}\n{err}".encode())
    assert digest.hexdigest() == _TRACE_DIGEST
