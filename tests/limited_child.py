"""A Python child under an address-space limit, for tests that feed the
package an oversized input: a missing bound then fails in the child with
MemoryError instead of taking the memory of the whole machine.  Also the
child's own peak memory, for tests that bound what a verb takes."""
import os
import subprocess
import sys
import time

import pytest

import traceforms

# Address-space limit of the child: enough for the interpreter and any
# bounded computation, far below an unbounded table.
LIMIT_AS = 1 << 30


def run_limited(args, timeout=60):
    """`python *args` with the package's source on its path, under a
    LIMIT_AS address-space limit; returns the process and its wall time."""
    resource = pytest.importorskip("resource")
    src = os.path.dirname(os.path.dirname(traceforms.__file__))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, timeout=timeout,
        env=dict(os.environ, PYTHONPATH=src),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                              (LIMIT_AS, LIMIT_AS)))
    return proc, time.perf_counter() - t0


# Runs one verb with its stdout discarded, then prints the child's own
# peak resident set (VmHWM, in kB) to stderr and exits with the verb's code.
_PEAK_CHILD = """\
import os, sys
from traceforms import cli
sys.stdout = open(os.devnull, "w")
code = cli.main(sys.argv[1:])
with open("/proc/self/status") as status:
    print(next(line for line in status if line.startswith("VmHWM:")), file=sys.stderr)
sys.exit(code)
"""


def verb_peak_mb(*argv):
    """Peak resident set, in MB, of a child that runs the verb argv and
    exits 0.  Skips where /proc/self/status is missing."""
    if not os.path.exists("/proc/self/status"):
        pytest.skip("no /proc/self/status to read VmHWM from")
    proc, _ = run_limited(["-c", _PEAK_CHILD, *argv])
    assert proc.returncode == 0, proc.stderr
    return int(proc.stderr.split()[-2]) / 1024
