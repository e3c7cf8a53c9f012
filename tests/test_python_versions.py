"""The same command line gets the same answer on every supported Python.
Each other python3.10-python3.13 on PATH that starts runs the package
from this source tree, and its stdout bytes and exit code (with stderr,
for a number past int()'s digit limit) must equal the running
interpreter's.  So must the stderr and exit code of two library calls
that refuse an int past that limit, run by `python -c`: no command line
reaches such an int, which `_as_int` refuses first.  Those tests skip
when no other one starts (two library refusals that quote a value whose
repr raises are compared between two runs here as well); the digit-limit messages are also pinned in
process, where every layer's refusal of such an int is, and the quoting
rule (`traceforms._quote`) is checked against reprlib.repr."""
import functools
import os
import reprlib
import shutil
import subprocess
import sys

import pytest

import traceforms
from traceforms import _quote, cli, clifford, cohomology, groups, perms, quadratic

SRC = os.path.dirname(os.path.dirname(traceforms.__file__))

# integer and rational text that one Python read and another refused:
# int() and Fraction() take "1_0" from 3.11 on (and int() on 3.10 too),
# Fraction() takes "1 / 2" from 3.12 on, and both read "٣" as 3
_REFUSED = [
    ["h2", "--group", "catalog:cyclic:1_0"],
    ["h2", "--group", "catalog:cyclic:٣"],
    ["trace", "--poly", "1,0,-1_0"],
    ["trace", "--poly", "1,0,٣"],
    ["form", "--entries", "1_0,3"],
    ["form", "--entries", "1 / 2,3"],
    ["pin-sign", "--n", "1_2"],
]
_ANSWERED = [
    ["suite"],
    ["trace", "--poly", " 1, +0 ,-10"],
    ["form", "--entries", " 1/2 ,3e-2"],
]


@functools.cache
def _others() -> tuple[str, ...]:
    """The other python3.10-python3.13 on PATH that start."""
    found = []
    for minor in range(10, 14):
        exe = shutil.which(f"python3.{minor}")
        if exe is None or sys.version_info[:2] == (3, minor):
            continue
        try:
            proc = subprocess.run([exe, "-c", "import sys; print(sys.version_info[1])"],
                                  capture_output=True, text=True, timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            continue
        if proc.returncode == 0 and proc.stdout.strip() == str(minor):
            found.append(exe)
    return tuple(found)


def _run(exe: str, argv: list[str], stderr: bool = False) -> tuple[bytes, ...]:
    proc = subprocess.run([exe, "-m", "traceforms", *argv], capture_output=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=SRC))
    return (proc.stdout, proc.returncode) + ((proc.stderr,) if stderr else ())


@pytest.mark.parametrize("argv", _REFUSED + _ANSWERED, ids=" ".join)
def test_every_python_answers_alike(argv):
    others = _others()
    if not others:
        pytest.skip("no other python3.10-python3.13 on PATH starts")
    here = _run(sys.executable, argv)
    assert here[1] == (2 if argv in _REFUSED else 0), here
    for exe in others:
        assert _run(exe, argv) == here, exe


# a digit run one digit past int()'s limit: Python's own refusal reads
# "Exceeds the limit (4300) ..." on 3.10 and "... (4300 digits) ..." on
# 3.11-3.13.  A form entry, in a numerator, a denominator, a decimal
# part or an exponent, and a coefficient are refused in the package's words
_LIMIT = sys.int_info.default_max_str_digits
_LONG = "1" * (_LIMIT + 1)
_PAST_LIMIT = {
    "form-entries": ["form", "--entries", _LONG],
    "form-denominator": ["form", "--entries", "1/" + _LONG],
    "form-decimals": ["form", "--entries", "1." + _LONG],
    "form-exponent": ["form", "--entries", "1e" + _LONG],
    "trace-poly": ["trace", "--poly", "1,0," + _LONG],
}
_LIMIT_MESSAGE = (f"a number of {_LIMIT + 1} digits exceeds "
                  f"sys.int_info.default_max_str_digits = {_LIMIT}")


@pytest.mark.parametrize("argv", _PAST_LIMIT.values(), ids=_PAST_LIMIT)
def test_every_python_refuses_a_number_past_the_digit_limit_alike(argv):
    others = _others()
    if not others:
        pytest.skip("no other python3.10-python3.13 on PATH starts")
    here = _run(sys.executable, argv, stderr=True)
    assert here[:2] == (b"", 2), here
    for exe in others:
        assert _run(exe, argv, stderr=True) == here, exe


def test_a_number_past_the_digit_limit_is_refused_in_the_packages_words(capsys, tmp_path):
    gram = tmp_path / "gram.json"
    gram.write_text(f"[[{_LONG}]]")
    algebra = f'[{{"poly": [1, 0, {_LONG}]}}]'
    for argv in [*_PAST_LIMIT.values(), ["form", "--gram", str(gram)],
                 ["trace", "--algebra", algebra]]:
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: {_LIMIT_MESSAGE}\n"
    for x in (_LONG, "-" + _LONG, " +" + _LONG + " "):
        with pytest.raises(quadratic.QuadraticError) as exc:
            quadratic.QForm((x,))
        assert str(exc.value) == _LIMIT_MESSAGE


# an int past the digit limit in a library call: 3.10-3.12 raised
# Python's "Exceeds the limit (4300 ...)" ValueError from the refusal's
# f-string or reprlib.repr instead of the layer's error, and 3.13 quoted
# "<int instance with roughly 5000 digits ... at 0x...>", whose address
# changes from run to run
_C2 = "catalog:cyclic:2"
_PAST_LIMIT_CALLS = {
    "hilbert_symbol": (quadratic.QuadraticError, 20000,
                       lambda: quadratic.hilbert_symbol(3, 5, 2 ** 20000 - 1)),
    "check_place": (quadratic.QuadraticError, 16610, lambda: quadratic.check_place(10 ** 5000)),
    "w1": (quadratic.QuadraticError, 20002,
           lambda: quadratic.w1(quadratic.QForm((3 * 2 ** 20000 + 1,)))),
    "cocycle-value": (cohomology.CohomologyError, 16610,
                      lambda: cohomology.Cocycle2(groups.group_from_spec(_C2), 0)
                      .value(0, 10 ** 5000)),
    "representative": (cohomology.CohomologyError, 100001,
                       lambda: cohomology.h2(groups.group_from_spec(_C2))
                       .representative(1 << 100000)),
    "involution_square_sign": (clifford.CliffordError, 16610,
                               lambda: clifford.involution_square_sign(10 ** 5000)),
    "pin_product_sign": (clifford.CliffordError, 16610,
                         lambda: clifford.pin_product_sign((1, 0), (0, 1), 10 ** 5000)),
    "from_cycles-degree": (ValueError, 16610, lambda: perms.from_cycles(10 ** 5000, [])),
    "from_cycles-point": (ValueError, 16610, lambda: perms.from_cycles(3, [(0, 10 ** 5000)])),
}


@pytest.mark.parametrize("error, bits, call", _PAST_LIMIT_CALLS.values(),
                         ids=_PAST_LIMIT_CALLS)
def test_a_refusal_quotes_an_int_past_the_digit_limit_by_its_size(error, bits, call):
    # representative quoted its mask in hex: 25,032 characters for 1 << 100000
    with pytest.raises(error) as exc:
        call()
    message = str(exc.value)
    assert f"<int of {bits} bits>" in message and len(message) < 200, message[:300]
    assert "Exceeds the limit" not in message and "0x" not in message


_ORDINARY = [
    0, -1, 7, True, False, None, 10 ** 39, 10 ** 40, -(10 ** 40), 10 ** 44 + 12345,
    10 ** _LIMIT - 1, -(10 ** _LIMIT - 1), 2.5, -0.0, 1e300, "", "x" * 29, "x" * 31,
    "x" * 10 ** 5, b"\x00" * 50, (1, 2), (1, (2, (3, (4, (5, (6, (7,))))))),
    [[1, 2], [3, [4, [5, [6, [7]]]]]], tuple(range(10)), list(range(100)),
    {"a": 1, "b": [2, 3]}, dict.fromkeys(range(20)), frozenset(range(8)), set(range(3)),
    ("(0 1)", 10 ** 45), [(0, 1), (1, 2)],
]


@pytest.mark.parametrize("value", _ORDINARY, ids=range(len(_ORDINARY)))
def test_the_quoting_rule_is_reprlibs_on_every_printable_value(value):
    assert _quote(value) == reprlib.repr(value)


def test_the_quoting_rule_shows_an_int_past_the_digit_limit_by_its_size():
    big = 10 ** _LIMIT  # one digit past the limit
    assert _quote(big) == f"<int of {big.bit_length()} bits>"
    assert _quote(-big) == _quote(big)
    assert _quote((0, 10 ** 5000)) == "(0, <int of 16610 bits>)"
    assert _quote([1, "x", 1 << 100000]) == "[1, 'x', <int of 100001 bits>]"


# each line runs under every python; a refusal's text is printed without
# the traceback, whose layout differs from one Python to the next
_RUNNER = """import sys
try:
    exec(sys.argv[1])
except ValueError as exc:
    sys.exit(f"{type(exc).__name__}: {exc}")
"""
_LIBRARY_REFUSALS = {
    "check_place": ("from traceforms import quadratic; quadratic.check_place(10 ** 5000)",
                    b"QuadraticError: not a place: <int of 16610 bits>"),
    "cocycle-value": ("from traceforms import cohomology, groups; "
                      f"cohomology.Cocycle2(groups.group_from_spec({_C2!r}), 0)"
                      ".value(0, 10 ** 5000)",
                      b"CohomologyError: cell (0, <int of 16610 bits>) is not a pair "
                      b"of element indices 0..1"),
}


def _run_code(exe: str, code: str) -> tuple[bytes, int]:
    proc = subprocess.run([exe, "-c", _RUNNER, code], capture_output=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=SRC))
    return proc.stderr, proc.returncode


@pytest.mark.parametrize("code, message", _LIBRARY_REFUSALS.values(), ids=_LIBRARY_REFUSALS)
def test_every_python_refuses_an_int_past_the_digit_limit_alike(code, message):
    others = _others()
    if not others:
        pytest.skip("no other python3.10-python3.13 on PATH starts")
    here = _run_code(sys.executable, code)
    assert here == (message + b"\n", 1), here
    for exe in others:
        assert _run_code(exe, code) == here, exe


# a Fraction past the digit limit has no repr; reprlib showed its address
# instead, <Fraction instance at 0x7f...>, which changes from run to run
_UNPRINTABLE = {
    "catalog-parameter": ("from fractions import Fraction; from traceforms import groups; "
                          "groups.catalog('cyclic', Fraction(10 ** 5000, 3))",
                          b"GroupError: malformed catalog parameter <Fraction instance>"),
    "coefficient": ("from fractions import Fraction; from traceforms import galois; "
                    "galois.EtaleAlg([([1, 0, Fraction(10 ** 5000, 3)], 1)])",
                    b"GaloisError: coefficient must be an integer, got <Fraction instance>"),
}


@pytest.mark.parametrize("code, message", _UNPRINTABLE.values(), ids=_UNPRINTABLE)
def test_a_refusal_quotes_a_value_without_a_repr_alike_in_every_run(code, message):
    runs = [_run_code(exe, code) for exe in (sys.executable, sys.executable, *_others())]
    assert runs == [(message + b"\n", 1)] * len(runs), runs
    assert b"0x" not in runs[0][0]
