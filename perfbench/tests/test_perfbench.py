"""Tests of the benchmark itself: python -m pytest perfbench/tests"""
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

import traceforms  # noqa: E402
import traceforms.cli  # noqa: E402,F401


def _small_ops(workload, count=6):
    """Cheap ops of a workload's round, for tests that run ops."""
    slow = ("C2xS4", "S3xS3", "D32", "C4wrC2", "C2xD16", "C12")
    out = []
    for op in ops.build_round(workload, 5):
        c = op["check"]
        if c.get("class", c.get("cls")) in slow or len(c.get("coeffs", ())) > 7:
            continue
        if c["type"] in ("classify", "suite"):
            continue
        out.append(op)
    return out[:count]


@pytest.mark.parametrize("workload", ops.WORKLOADS + ops.FAMILIES + ("known-defects",))
def test_same_seed_same_op_list(workload):
    a = json.dumps(ops.build_round(workload, 7), sort_keys=True)
    b = json.dumps(ops.build_round(workload, 7), sort_keys=True)
    assert a == b
    if workload != "known-defects":
        assert a != json.dumps(ops.build_round(workload, 8), sort_keys=True)


@pytest.mark.parametrize("workload", ["cohomology", "trace-forms", "pin-signs"])
def test_corrupted_output_counts_as_failed(workload):
    for op in _small_ops(workload):
        rc, out, err, _, reason = run.run_in_process(traceforms, op, 60)
        assert reason is None
        assert checks.Checker().check(op, rc, out, err) is None
        golden = {op["key"]: [rc, checks.digest(out)]}
        corrupted = out.replace(b"1", b"0", 1) if b"1" in out else out + b" "
        assert checks.Checker(golden).check(op, rc, corrupted, err) is not None
        assert checks.Checker(golden).check(op, 1, out, err) is not None


def test_independent_check_catches_wrong_value():
    op = next(o for o in ops.build_round("cohomology", 3)
              if o["check"]["verb"] == "h2" and o["check"]["class"] == "D8")
    good = b'{"coboundary_dim":5,"cocycle_dim":8,"h2_dim":3}\n'
    bad = b'{"coboundary_dim":5,"cocycle_dim":9,"h2_dim":4}\n'
    assert checks.Checker().check(op, 0, good) is None
    assert checks.Checker().check(op, 0, bad) is not None


@pytest.mark.parametrize("workload", ["cohomology", "trace-forms", "pin-signs"])
def test_traced_and_untraced_stdout_identical(workload):
    small = _small_ops(workload)
    plain = [run.run_in_process(traceforms, op, 60)[1] for op in small]
    t = tracing.Tracer()
    uninstall = tracing.install(t)
    try:
        traced = [run.run_in_process(traceforms, op, 60, t)[1] for op in small]
    finally:
        uninstall()
    assert plain == traced
    assert t.spans and all(s is not None for s in t.spans)


def test_traced_cli_child_stdout_identical(tmp_path):
    argv = ["kers", "--group", "catalog:z4xz2"]
    env = run.child_env()
    rc, plain, _, _, _ = run.run_child([sys.executable, "-m", "traceforms", *argv], 60, env)
    raw = tmp_path / "raw.json"
    rc2, traced, _, _, _ = run.run_child(
        [sys.executable, str(BENCH / "launcher.py"), str(raw), *argv], 60, env)
    assert (rc, plain) == (rc2, traced) and rc == 0
    counts = json.loads(raw.read_text())["counts"]
    assert counts["solves"] == counts["h2_misses"] == 2


def test_time_limit_stops_an_ordinary_op():
    op = {"index": 0, "kind": "cli", "argv": ["h2", "--group", "perms:(0 1 2 3),(0 1)"]}
    t0 = time.perf_counter()
    rc, _, _, seconds, reason = run.run_in_process(traceforms, op, 0.001)
    assert rc is None and "time limit" in reason
    assert time.perf_counter() - t0 < 5
    # the op itself still works with room to run
    assert run.run_in_process(traceforms, op, 60)[0] == 0

    child = [sys.executable, "-m", "traceforms", *op["argv"]]
    rc, _, _, seconds, _ = run.run_child(child, 0.001, run.child_env())
    assert rc is None and seconds < 5


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [tuple(m) for m in tracing.PER_LAYER]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        [tuple(m) for m in run.END_TO_END]
    assert [w["name"] for w in spec["workloads"]] == list(ops.WORKLOADS)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
