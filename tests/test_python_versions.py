"""The same command line gets the same answer on every supported Python.
Each other python3.10-python3.13 on PATH that starts runs the package
from this source tree, and its stdout bytes and exit code (with stderr,
for a number past int()'s digit limit) must equal the running
interpreter's.  Those tests skip when no other one starts; the
digit-limit message is also pinned in process."""
import functools
import os
import shutil
import subprocess
import sys

import pytest

import traceforms
from traceforms import cli, quadratic

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
