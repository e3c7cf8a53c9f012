"""A Python child under an address-space limit, for tests that feed the
package an oversized input: a missing bound then fails in the child with
MemoryError instead of taking the memory of the whole machine."""
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
