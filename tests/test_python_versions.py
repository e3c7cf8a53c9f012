"""The same command line gets the same answer on every supported Python.
Each other python3.10-python3.13 on PATH that starts runs the package
from this source tree, and its stdout bytes and exit code must equal the
running interpreter's.  The tests skip when no other one starts."""
import functools
import os
import shutil
import subprocess
import sys

import pytest

import traceforms

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


def _run(exe: str, argv: list[str]) -> tuple[bytes, int]:
    proc = subprocess.run([exe, "-m", "traceforms", *argv], capture_output=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=SRC))
    return proc.stdout, proc.returncode


@pytest.mark.parametrize("argv", _REFUSED + _ANSWERED, ids=" ".join)
def test_every_python_answers_alike(argv):
    others = _others()
    if not others:
        pytest.skip("no other python3.10-python3.13 on PATH starts")
    here = _run(sys.executable, argv)
    assert here[1] == (2 if argv in _REFUSED else 0), here
    for exe in others:
        assert _run(exe, argv) == here, exe
