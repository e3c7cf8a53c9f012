"""Run one traceforms CLI op in this process under the tracing wrappers.

    python3 perfbench/launcher.py RAW_OUT VERB [ARGS...]

stdout and the exit code are the op's own.  The spans and counts, and
the time spent in ``traceforms.cli.main``, go to the JSON file RAW_OUT.
"""
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracing  # noqa: E402


def main() -> int:
    raw_out, argv = sys.argv[1], sys.argv[2:]
    t = tracing.Tracer()
    tracing.install(t)
    from traceforms.cli import main as cli_main

    t.begin_op(0, argv[0])
    t0 = time.perf_counter()
    try:
        code = cli_main(argv)
    except SystemExit as exc:  # argparse refuses the argv
        code = exc.code
    main_s = time.perf_counter() - t0
    t.end_op(main_s)
    sys.stdout.flush()
    Path(raw_out).write_text(json.dumps({**t.raw(), "main_s": main_s}))
    return code


if __name__ == "__main__":
    sys.exit(main())
