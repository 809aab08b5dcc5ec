"""Benchmark of the spinfill command line, end to end and per layer.

    python3 bench/run.py --workload analyze-det --seed 1 --seconds 25 --trace 0

Builds the workload's ops from the seed (bench/corpus.py), then runs them
through ``spinfill.cli.main`` in fresh interpreters (bench/passrun.py),
one pass at a time: a closed loop with one client and no threads.  A pass
runs one whole cycle of the workload's ops, each op once; passes repeat
while the run has fewer than MIN_OPS ops or another cycle fits in
--seconds.  Every metric is therefore taken over whole cycles.

Times are scaled to a reference machine speed.  Between ops a pass times
a fixed pure-Python loop (passrun.calibrate); each op's wall time, and
each set-up time, is multiplied by CALIBRATION_REF_S over the median loop
time around it.  Where the loop takes CALIBRATION_REF_S the scaled times
are wall times.  On a shared 2-core VM, where the speed of the machine
drifts by up to a quarter over a few seconds, this removes most of the
drift from run-to-run comparisons.  Raw wall times stay in the rows.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1 runs
the first half of a cycle once untraced and once with every public
spinfill function wrapped (bench/tracing.py) and prints the per-layer
metrics.  The last stdout line is the JSON result; per-op rows and the
spans go to bench/out/.

``--record`` rewrites bench/reference.json: the default-seed input digests
and one output digest per op, which later default-seed runs must match.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import corpus

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"

DEFAULT_SEED = 0
MIN_OPS = 100      # op_p90_ms then has at least ten samples beyond it
MIN_SETUPS = 5     # set-up samples behind the setup_s median
HARD_STOP_S = 140  # no op starts later, so a run ends within 180 s
PASS_TIMEOUT_S = 170
CALIBRATION_REF_S = 0.00075  # calibration loop time at the reference speed


class BenchError(Exception):
    pass


def spawn_pass(ops, trace=False, setup_only=False, stop_by=None, spans=None):
    cmd = [sys.executable, str(BENCH / "passrun.py")]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    if stop_by is not None:
        cmd += ["--stop-by", repr(stop_by)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    # Fixed string hashing, so the traced counts repeat exactly.
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, input=json.dumps(ops), capture_output=True,
                              text=True, env=env, cwd=ROOT,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("pass did not finish in %d s" % PASS_TIMEOUT_S) from exc
    if proc.returncode != 0:
        raise BenchError("pass exited with %d:\n%s"
                         % (proc.returncode, proc.stderr[-3000:]))
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    summary["setup_s"] = summary["first_op"] - spawned
    summary["setup_scale"] = CALIBRATION_REF_S / statistics.median(
        summary["calibration"][:3])
    return summary


def load_reference(workload, ops):
    """Output digests to hold the ops to, or None off the default seed."""
    ref = json.loads(REFERENCE.read_text())
    if ref["inputs"][workload] != corpus.digest(ops):
        raise BenchError("default-seed inputs of %s do not match %s"
                         % (workload, REFERENCE.name))
    return ref["outputs"][workload]


def judge(ops, passes, reference):
    """Per-op rows with their verdicts, over every pass of the run."""
    rows = []
    for number, summary in enumerate(passes):
        calibration = summary["calibration"]
        for k, row in enumerate(summary["rows"]):
            op = ops[row["op"]]
            # op k ran between calibrations k and k+1
            scale = CALIBRATION_REF_S / statistics.median(
                calibration[max(0, k - 2):k + 4])
            problems = list(row["problems"])
            if (reference is not None and not problems
                    and reference.get(op["id"]) != row["digest"]):
                problems.append("output differs from the default-seed "
                                "reference")
            rows.append({
                "id": op["id"], "pass": number, "seed": op["seed"],
                "params": op["params"], "m": op["expect"].get("m"),
                "det": op["expect"].get("det"),
                "crossings": op["expect"].get("crossings"),
                "latency_ms": 1000 * row["latency_s"],
                "ref_ms": 1000 * row["latency_s"] * scale,
                "problems": problems,
                "classes": op["expect"].get("classes", 0),
                "kind": op["expect"]["kind"],
            })
    return rows


def timed_run(ops, seconds):
    start = time.monotonic()
    stop_by = start + HARD_STOP_S
    passes = []
    busy = 0.0
    while True:
        passes.append(spawn_pass(ops, stop_by=stop_by))
        done = sum(len(p["rows"]) for p in passes)
        # judged on calibrated op time, so that a fast or slow spell of the
        # machine does not change how many cycles a run makes
        busy += sum(r["ref_ms"] for r in judge(ops, passes[-1:], None)) / 1000
        if time.monotonic() > stop_by or not passes[-1]["rows"]:
            break
        if done >= MIN_OPS and busy * (len(passes) + 1) / len(passes) > seconds:
            break
    setups = [p["setup_s"] * p["setup_scale"] for p in passes]
    while len(setups) < MIN_SETUPS:
        p = spawn_pass(ops, setup_only=True)
        setups.append(p["setup_s"] * p["setup_scale"])
    return passes, setups


def end_to_end(rows, passes, setups):
    latencies = [r["ref_ms"] / 1000 for r in rows]
    busy = sum(latencies)
    ok = [r for r in rows if not r["problems"]]
    p90 = statistics.quantiles(latencies, n=10)[-1]
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(ok) / busy,
        "classes_per_s": sum(r["classes"] for r in ok) / busy,
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_p90_ms": 1000 * p90,
        "peak_rss_mb": statistics.median(p["rss_mib"] for p in passes),
        "ok_ratio": len(ok) / len(rows),
    }, {"ops": len(rows), "beyond_p90": sum(x > p90 for x in latencies),
        "passes": len(passes), "setups": setups}


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(names, trace, rows, base_rows):
    """Per-layer metrics of one traced pass.  A ratio whose base is empty
    on a workload (no spin-c classes, no sublinks) reads 0."""
    def calls(key):
        return trace.get(key, {}).get("calls", 0)

    def self_s(key):
        return trace.get(key, {}).get("self_s", 0.0)

    def work(key):
        return trace.get(key, {}).get("work", 0)

    values = {"cli.main_self_s": sum(v["self_s"] for k, v in trace.items()
                                     if k.startswith("cli."))}
    for name in names:
        layer, _, metric = name.partition(".")
        for suffix, get in (("_calls", calls), ("_s", self_s)):
            if metric.endswith(suffix) and name not in values:
                values[name] = get("%s.%s" % (layer, metric[:-len(suffix)]))
    values["diagram.states"] = work("diagram.kauffman_states")
    values["chainmail.slides"] = work("chainmail.mk1_run")
    values["plumbing.reduce_moves"] = work("plumbing.reduce_normal_form")
    classes = sum(r["det"] for r in rows if r["kind"] in ("graph", "diagram"))
    sublinks = sum(r["classes"] for r in rows if r["kind"] == "mk1")
    values["spinc.d_per_class"] = _ratio(calls("spinc.d_invariant"), classes)
    values["exactalg.goeritz_per_op"] = _ratio(calls("exactalg.goeritz"),
                                               len(rows))
    values["exactalg.det_exact_per_op"] = _ratio(calls("exactalg.det_exact"),
                                                 len(rows))
    values["spinc.char_subgraphs_per_op"] = _ratio(
        calls("spinc.characteristic_subgraphs"), len(rows))
    values["chainmail.mk1_per_subset"] = _ratio(calls("chainmail.mk1_run"),
                                                sublinks)
    values["trace.overhead_ratio"] = (
        statistics.mean(r["ref_ms"] for r in rows)
        / statistics.mean(r["ref_ms"] for r in base_rows))
    return values


def record():
    ref = {"seed": DEFAULT_SEED, "inputs": {}, "outputs": {}}
    for workload in corpus.WORKLOADS:
        ops = corpus.build(workload, DEFAULT_SEED)
        summary = spawn_pass(ops)
        bad = [(ops[r["op"]]["id"], r["problems"]) for r in summary["rows"]
               if r["problems"]]
        if bad or len(summary["rows"]) != len(ops):
            raise BenchError("cannot record %s: %r" % (workload, bad[:3]))
        ref["inputs"][workload] = corpus.digest(ops)
        ref["outputs"][workload] = {ops[r["op"]]["id"]: r["digest"]
                                    for r in summary["rows"]}
        print("%s: %d ops, inputs %s" % (workload, len(ops),
                                         ref["inputs"][workload]))
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="rewrite the default-seed reference digests")
    args = ap.parse_args()
    if not (ROOT / "src" / "spinfill" / "__init__.py").is_file():
        raise BenchError("no spinfill sources under %s" % (ROOT / "src"))
    if args.record:
        record()
        return
    if args.workload is None:
        ap.error("--workload is required")

    ops = corpus.build(args.workload, args.seed)
    reference = (load_reference(args.workload, ops)
                 if args.seed == DEFAULT_SEED else None)
    OUT.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        half = ops[:len(ops) // 2]
        start = time.monotonic()
        base = judge(half, [spawn_pass(half, stop_by=start + HARD_STOP_S / 2)],
                     reference)
        traced_pass = spawn_pass(half, trace=True,
                                 stop_by=start + HARD_STOP_S,
                                 spans=OUT / (stem + "-spans.jsonl"))
        rows = judge(half, [traced_pass], reference)
        values = per_layer([m["name"] for m in spec["per_layer"]],
                           traced_pass["trace"], rows, base)
        detail = {"functions": traced_pass["trace"]}
        attempted = base + rows
        wanted = spec["per_layer"]
    else:
        passes, setups = timed_run(ops, args.seconds)
        rows = judge(ops, passes, reference)
        values, detail = end_to_end(rows, passes, setups)
        attempted = rows
        wanted = spec["end_to_end"]
    failed = sum(1 for r in attempted if r["problems"])
    result = {
        "correct": failed == 0,
        "attempted": len(attempted),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    (OUT / (stem + ".json")).write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "result": result,
         "detail": detail, "rows": attempted}, indent=1) + "\n")
    for r in attempted:
        if r["problems"]:
            print("FAILED %s: %s" % (r["id"], "; ".join(r["problems"])),
                  file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    try:
        main()
    except BenchError as exc:
        print("bench: %s" % exc, file=sys.stderr)
        sys.exit(1)
