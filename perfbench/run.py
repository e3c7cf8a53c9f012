#!/usr/bin/env python3
"""The traceforms benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, in turn

Every workload is a closed loop with one client: one op at a time, each
started when the previous one has returned, from one process with no
extra threads.  `library` (and each of its families `cohomology`,
`trace-forms` and `pin-signs` alone) calls ``traceforms.cli.main(argv)``
in this process with stdout captured; `cli` starts each op as a fresh
``python -m traceforms`` child.  A run measures round(--seconds / R)
whole rounds of the workload's op list (`ops.py`), at least one, where R
is the seconds one round stands for (`ops.ROUND_SECONDS`).  The op count is fixed, not the time: a run that
stopped at a deadline would cut a round at a seed- and speed-dependent
point, and the mix it measured would move.  Each op's output is checked
(`checks.py`); an op that fails its check, raises, is refused by the
program or passes the time limit counts as failed and is printed as a
FAILED record.

With --trace 0 the last line reports the end-to-end metrics; with
--trace 1 the ops run under the wrappers of `tracing.py` and the last
line reports the per-layer metrics.  The last line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import selectors
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import ops
import tracing
from mathref import compose

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"
START = time.perf_counter()

# Well clear of the slowest op that finishes today (the pinned degree-12
# trace, about 10 s here); RUN_BUDGET_S keeps a run inside 180 s even if
# ops hang.
OP_TIME_LIMIT_S = 90.0
RUN_BUDGET_S = 160.0
# set-up probes per timed run, spread evenly among its ops
SETUP_PROBES = 15
TAIL_BEYOND = 10

# (name, unit, better).  op_tail_s is measured and printed on the "#"
# line but is not one of them: on a shared 2-vCPU machine its spread from
# run to run (0.13-0.40 over five sets of ten) can pass the largest
# regression bound allowed, 0.25.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("op_p50_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("ok_frac", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]


# ---------------------------------------------------------------------------
# running one op


class OpTimeout(BaseException):
    """Raised from SIGALRM inside an op.  A BaseException, so that the
    program's own `except Exception` handlers cannot swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout


def _call(tf, op):
    if op["kind"] == "lib":
        p, q, r = (tuple(x) for x in json.loads(op["argv"][1]))
        sign = tf.clifford.pin_product_sign  # looked up now: may be wrapped
        print(json.dumps([sign(p, q), sign(compose(p, q), r),
                          sign(q, r), sign(p, compose(q, r))]))
        return 0
    return tf.cli.main(op["argv"])


def run_in_process(tf, op, limit, tracer=None):
    """Run one op here under a SIGALRM time limit.  Returns (exit code or
    None, stdout, stderr, seconds, failure reason or None)."""
    out, err = io.StringIO(), io.StringIO()
    rc, reason = None, None
    if tracer:
        tracer.begin_op(op["index"], op["argv"][0])
    signal.signal(signal.SIGALRM, _on_alarm)
    t0 = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, limit)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = _call(tf, op)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        reason = f"exceeded the per-op time limit of {limit:g} s"
    except SystemExit as exc:  # argparse refuses the argv
        rc = exc.code
    except Exception as exc:  # noqa: BLE001 - recorded as a failed op
        reason = f"raised {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    if tracer:
        tracer.end_op(seconds)
    return rc, out.getvalue().encode(), err.getvalue().encode(), seconds, reason


def run_child(argv, limit, env=None):
    """Run a child process to completion or the time limit.  Returns
    (exit code or None on timeout, stdout, stderr, wall seconds, peak RSS
    in KiB of that child)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            cwd=ROOT, env=env)
    bufs = {proc.stdout.fileno(): [], proc.stderr.fileno(): []}
    timed_out = False
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        sel.register(proc.stderr, selectors.EVENT_READ)
        while sel.get_map():
            left = t0 + limit - time.perf_counter()
            if left <= 0:
                timed_out = True
                proc.kill()
                break
            for key, _ in sel.select(left):
                data = os.read(key.fd, 1 << 16)
                if data:
                    bufs[key.fd].append(data)
                else:
                    sel.unregister(key.fileobj)
    # wait4 rather than wait: it gives this child's own peak RSS
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = b"".join(bufs[proc.stdout.fileno()])
    stderr = b"".join(bufs[proc.stderr.fileno()])
    proc.stdout.close()
    proc.stderr.close()
    return (None if timed_out else proc.returncode), stdout, stderr, seconds, usage.ru_maxrss


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}


def setup_probe(workload: str, limit: float) -> float:
    """One fresh interpreter: start, import traceforms, run the workload's
    warm-up op, exit.  Returns its wall seconds."""
    rc, _, err, seconds, _ = run_child(
        [sys.executable, "-m", "traceforms", *ops.WARMUP[workload]], limit, child_env())
    if rc != 0:
        sys.exit(f"set-up probe failed (exit {rc}): {err.decode(errors='replace')}")
    return seconds


# ---------------------------------------------------------------------------
# one run


def run(workload, seed, seconds, trace, limit=OP_TIME_LIMIT_S, golden=None):
    """Run round(seconds / R) whole rounds of the workload, at least one.
    An untraced run also starts SETUP_PROBES set-up probes, spread evenly
    among the ops, so that set-up time is sampled over the same minutes as
    the ops.  Returns (results, checker, tracer, peak RSS in KiB, set-up
    samples, wall seconds of the timed loop without the probes)."""
    round_ops = ops.build_round(workload, seed)
    checker = checks.Checker(golden)
    tracer = tracing.Tracer() if trace else None
    in_process = workload != "cli"
    tf, uninstall, child_rss = None, None, 0
    if in_process:
        import traceforms.cli
        tf = traceforms
        run_in_process(tf, {"index": -1, "kind": "cli",
                            "argv": ops.WARMUP[workload]}, limit)
        if tracer:
            uninstall = tracing.install(tracer)
    results, setup_samples, probe_s = [], [], 0.0
    rounds = max(1, round(seconds / ops.ROUND_SECONDS.get(workload, 15)))
    total = rounds * len(round_ops)
    probe_at = set() if trace else {i * total // SETUP_PROBES for i in range(SETUP_PROBES)}
    loop_t0 = time.perf_counter()
    try:
        for _ in range(rounds):
            for op in round_ops:
                left = RUN_BUDGET_S - (time.perf_counter() - START)
                if len(results) in probe_at and left > 0:
                    t0 = time.perf_counter()
                    setup_samples.append(setup_probe(workload, min(limit, left)))
                    probe_s += time.perf_counter() - t0
                    left = RUN_BUDGET_S - (time.perf_counter() - START)
                if left <= 0:
                    rc, out, err, sec, reason = None, b"", b"", 0.0, "run budget exhausted"
                elif in_process:
                    rc, out, err, sec, reason = run_in_process(tf, op, min(limit, left), tracer)
                else:
                    rc, out, err, sec, reason, rss = _run_cli_op(op, min(limit, left), tracer)
                    child_rss = max(child_rss, rss)
                if reason is None:
                    reason = checker.check(op, rc, out, err)
                results.append({"op": op, "seconds": sec, "reason": reason})
            bad = {id(op): why for op, why in checker.finish()}
            for r in results[-len(round_ops):]:
                r["reason"] = r["reason"] or bad.get(id(r["op"]))
            if time.perf_counter() - START > RUN_BUDGET_S:
                break
    finally:
        if uninstall:
            uninstall()
    wall = time.perf_counter() - loop_t0 - probe_s
    rss = child_rss if not in_process else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return results, checker, tracer, rss, setup_samples, wall


def _run_cli_op(op, limit, tracer):
    raw_path = None
    argv = [sys.executable, "-m", "traceforms", *op["argv"]]
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        raw_path = OUT / f"child-{os.getpid()}-{op['index']}.json"
        argv = [sys.executable, str(HERE / "launcher.py"), str(raw_path), *op["argv"]]
    rc, out, err, sec, rss = run_child(argv, limit, child_env())
    reason = None if rc is not None else f"exceeded the per-op time limit of {limit:g} s"
    if raw_path is not None and raw_path.exists():
        raw = json.loads(raw_path.read_text())
        raw_path.unlink()
        tracer.counts["spawn_s"] += sec - raw["main_s"]
        tracer.merge(raw, op["index"])
    return rc, out, err, sec, reason, rss


# ---------------------------------------------------------------------------
# metrics and report


def end_to_end(results, round_size, setup_s, rss_kib, limit, wall):
    ok = [r for r in results if r["reason"] is None]
    # a failed op counts as missing any latency limit
    lat = sorted(r["seconds"] if r["reason"] is None else max(r["seconds"], limit)
                 for r in results)
    # the tail percentile is fixed by the round size, so that runs with
    # more rounds report the same percentile
    pct = max(0.5, (round_size - TAIL_BEYOND) / round_size)
    tail = lat[max(0, math.ceil(pct * len(lat)) - 1)]
    values = {
        "setup_s": setup_s,
        "op_p50_s": statistics.median(lat),
        # timed wall time: the ops and the output checks between them
        "ops_per_s": len(ok) / wall,
        "ok_frac": len(ok) / len(results),
        "peak_rss_mb": rss_kib / 1024,
    }
    info = {"op_tail_s": tail, "tail_percentile": round(100 * pct, 1),
            "samples": len(lat), "fail_frac": 1 - values["ok_frac"]}
    return values, info


def report(workload, seed, results, metrics, units, extra, problems):
    failed = [{"workload": workload, "seed": seed, "op": r["op"]["index"],
               "argv": r["op"]["argv"], "reason": r["reason"]}
              for r in results if r["reason"] is not None]
    if failed:
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"failures-{workload}-{seed}.jsonl", "a", encoding="utf-8") as fh:
            for record in failed:
                print("FAILED " + json.dumps(record))
                fh.write(json.dumps(record) + "\n")
    for p in problems:
        print("PROBLEM " + p)
    print(f"# {workload} seed={seed} ops={len(results)} failed={len(failed)} "
          + " ".join(f"{k}={v}" for k, v in extra.items()))
    for name, value in metrics.items():
        print(f"{name:<44} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not failed and not problems,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def main_one(args) -> int:
    # one flat map of op key -> [exit code, stdout digest]: an op of any
    # workload is checked against it when its key recurs
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    results, checker, tracer, rss, setup_samples, wall = run(
        args.workload, args.seed, args.seconds, args.trace, golden=golden)
    round_size = len(ops.build_round(args.workload, args.seed))
    problems = []
    if args.trace:
        tracer.collect()
        metrics = tracing.layer_metrics(tracer, tracing.calibrate())
        units = {n: u for n, u, _ in tracing.PER_LAYER}
        problem = tracing.self_check(tracer)
        if problem:
            problems.append(problem)
        OUT.mkdir(exist_ok=True)
        tracing.write_spans(tracer, OUT / f"spans-{args.workload}-{args.seed}.jsonl")
        extra = {"busy_s": round(sum(r["seconds"] for r in results), 3)}
    else:
        metrics, extra = end_to_end(results, round_size, statistics.median(setup_samples),
                                    rss, OP_TIME_LIMIT_S, wall)
        extra["busy_s"] = round(sum(r["seconds"] for r in results), 3)
        extra["setup_probes"] = len(setup_samples)
        units = {n: u for n, u, _ in END_TO_END}
    if args.write_golden:
        if any(r["reason"] for r in results):
            sys.exit("not writing golden records: some ops failed")
        data = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        data.update(checker.recorded)
        GOLDEN.write_text(json.dumps(data, indent=0, sort_keys=True) + "\n")
    report(args.workload, args.seed, results, metrics, units, extra, problems)
    return 0


def main_all(args) -> int:
    """Each workload in its own process, so no cache carries over."""
    combined, correct, attempted, failed = {}, True, 0, 0
    for w in ops.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--write-golden"] if args.write_golden else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"workload {w} exited {proc.returncode}")
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        correct &= last["correct"]
        attempted += last["attempted"]
        failed += last["failed"]
        combined.update({f"{w}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": combined}))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   help="library or cli (the workloads of BENCHMARK.json), "
                        "all (both), one family of library: cohomology, "
                        "trace-forms or pin-signs, or known-defects (the "
                        "pinned degree-16 op alone)")
    p.add_argument("--seed", type=int, default=1,
                   help="golden.json is recorded at seed 1")
    p.add_argument("--seconds", type=float, default=60)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-golden", action="store_true",
                   help="record every op's exit code and stdout digest "
                        "into golden.json (run at the default seed)")
    args = p.parse_args(argv)
    if not (SRC / "traceforms" / "__init__.py").is_file():
        print(f"error: no traceforms sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return main_all(args)
    return main_one(args)


if __name__ == "__main__":
    sys.exit(main())
