"""One benchmark pass: a fresh interpreter that runs a list of CLI ops.

Reads the ops as JSON on stdin, imports spinfill from the checkout's
``src`` directory, then runs ``spinfill.cli.main(argv)`` in-process for
each op, back to back, with the op's document as stdin and its stdout
captured.  Only the call to ``main`` is timed; outputs are checked after
it.  The last line on stdout is a JSON summary for the parent.

    python3 bench/passrun.py [--trace] [--setup-only] [--stop-by T]
                             [--spans FILE] < ops.json
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from checks import check

ROOT = Path(__file__).resolve().parent.parent
CALIBRATION_LOOPS = 4000
SETUP_CALIBRATIONS = 3


def import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import spinfill.cli
    if Path(spinfill.__file__).resolve().parent != src / "spinfill":
        raise ImportError("spinfill imported from %s, not from %s"
                          % (spinfill.__file__, src))
    return spinfill.cli


def calibrate():
    """Seconds that a fixed piece of pure-Python work takes right now.

    The machine's speed drifts by tens of percent over seconds; the op
    times are scaled by this measurement taken between ops.  The
    collector is off so that garbage left by an op cannot be collected
    here, which would credit the op with a slower machine.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        acc, table = 0, {}
        for i in range(CALIBRATION_LOOPS):
            acc = (acc + i * i) % 1000003
            table[i & 255] = acc
        return time.perf_counter() - start
    finally:
        gc.enable()


def run_op(cli, op, real_stdin):
    argv = op["argv"]
    sys.stdin = io.StringIO(op["doc"] or "")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # the op fails; the pass goes on
            code = None
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
    sys.stdin = real_stdin
    return code, elapsed, out.getvalue(), err.getvalue()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--stop-by", type=float, default=float("inf"),
                    help="time.monotonic() after which no op starts")
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    cli = import_program()
    ops = json.load(sys.stdin)
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    first_op = time.monotonic()
    calibration = [calibrate()
                   for _ in range(SETUP_CALIBRATIONS if args.setup_only else 1)]
    rows = []
    if not args.setup_only:
        real_stdin = sys.stdin
        for i, op in enumerate(ops):
            if time.monotonic() > args.stop_by:
                break
            if tracer is not None:
                tracer.op = i
            code, elapsed, out, err = run_op(cli, op, real_stdin)
            problems, digest = check(op, code, out)
            if code != 0:
                problems.append(err.strip().splitlines()[-1] if err.strip()
                                else "no message")
            calibration.append(calibrate())
            rows.append({"op": i, "latency_s": elapsed, "problems": problems,
                         "digest": digest})
    summary = {
        "first_op": first_op,
        "rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "calibration": calibration,
        "rows": rows,
    }
    if tracer is not None:
        tracer.uninstall()
        summary["trace"] = tracer.summary()
        if args.spans:
            tracer.write(args.spans)
    sys.stdout.write(json.dumps(summary) + "\n")


if __name__ == "__main__":
    main()
