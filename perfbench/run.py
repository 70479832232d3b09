"""substoe benchmark: seeded language, algebra and builders workloads.

    python3 perfbench/run.py --workload language --seed 1 --seconds 30 --trace 0

--workload all runs the three in turn.  Every pass runs in a fresh worker
process (worker.py), one caller, closed loop.  With --trace 0 the
end-to-end metrics of BENCHMARK.json are measured untraced, with times
scaled to a reference speed sampled while they ran (see worker.py; raw
times are printed beside them): setup_s is
the median of SETUP_SAMPLES separate set-ups plus the measuring
process's own, wall_s the mean round time, op_p50_ms / op_p90_ms the
per-operation latencies of all rounds, ok_share the share of operations
that did not fail, and peak_rss_mb the measuring process's getrusage
peak.  With --trace 1 round 0 runs once untraced and once traced, each
in its own process, and the per-layer metrics come from the traced
spans, which are saved under .bench_out/.

Every output is checked against oracle.py; a wrong answer prints
"correct": false and exits 1.  The last stdout line is the JSON result.
"""

import argparse
import compileall
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("language", "algebra", "builders")
SETUP_SAMPLES = 4
RUN_LIMIT_S = 170.0
ONE_ROUND_S = 10  # --seconds that gives one round (worker.rounds_for)
WRONG_ANSWER = 3


class WorkerError(Exception):
    pass


def worker(workload, seed, mode, seconds, limit):
    """Run worker.py in a fresh process; returns its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", workload, "--seed", str(seed), "--mode", mode,
           "--seconds", str(seconds), "--deadline", str(max(limit - 5, 1))]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=limit)
    except subprocess.TimeoutExpired:
        raise WorkerError("%s %s worker passed %.0f s" % (workload, mode, limit))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, WRONG_ANSWER) or not lines:
        raise WorkerError("%s %s worker exited %d:\n%s"
                          % (workload, mode, proc.returncode, proc.stderr[-3000:]))
    return json.loads(lines[-1])


def percentile(values, share):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(share * len(ordered)) - 1, 0)]


def kind_at(values, share, kinds):
    """Kind of the operation at the nearest-rank percentile."""
    order = sorted(range(len(values)), key=values.__getitem__)
    return kinds[order[max(math.ceil(share * len(values)) - 1, 0)]]


def measure(workload, seed, seconds, deadline):
    runs = [worker(workload, seed, "setup", seconds, 30)
            for _ in range(SETUP_SAMPLES - 1)]
    res = worker(workload, seed, "run", seconds, deadline - time.monotonic())
    runs.append(res)
    for run in runs:
        if "check_failed" in run:
            return run, {}, {}, ""
    setups = [run["setup_s"] for run in runs]
    raw_setups = [run["setup_raw_s"] for run in runs]
    lat = res["latencies"]
    failed = sum(res["failures"].values())
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.fmean(res["round_walls"]),
        "op_p50_ms": statistics.median(lat) * 1000,
        "op_p90_ms": percentile(lat, 0.9) * 1000,
        "ok_share": 1 - failed / len(lat),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    raw = res["latencies_raw"]
    notes = {
        "setup_s": "median of %d set-ups; raw %.4f s" % (
            len(setups), statistics.median(raw_setups)),
        "wall_s": "mean of %d rounds; raw %.4f s" % (
            len(res["round_walls"]), statistics.fmean(res["round_walls_raw"])),
        "op_p50_ms": "%d operations; raw %.4f ms; at a %s call" % (
            len(lat), statistics.median(raw) * 1000,
            kind_at(lat, 0.5, res["kinds"])),
        "op_p90_ms": "%d operations, %d beyond p90; raw %.4f ms; at a %s call" % (
            len(lat), sum(1 for t in lat if t * 1000 > metrics["op_p90_ms"]),
            percentile(raw, 0.9) * 1000, kind_at(lat, 0.9, res["kinds"])),
        "ok_share": "%d operations; failed: %s" % (len(lat), ", ".join(
            "%s %d" % kv for kv in res["failures"].items())),
        "peak_rss_mb": "1 process",
    }
    header = "%d rounds, %d operations, %d skipped after a failed input" % (
        len(res["round_walls"]), len(lat), res["skipped"])
    return res, metrics, notes, header


def trace(workload, seed, seconds, deadline):
    """Round 0 once untraced and once traced; --seconds is not used."""
    plain = worker(workload, seed, "run", ONE_ROUND_S, (deadline - time.monotonic()) / 2)
    if "check_failed" in plain:
        return plain, {}, {}, ""
    res = worker(workload, seed, "trace", ONE_ROUND_S, deadline - time.monotonic())
    if "check_failed" in res:
        return res, {}, {}, ""
    metrics = dict(res["layers"])
    metrics["trace.overhead_share"] = (
        sum(res["round_walls"]) / sum(plain["round_walls"]) - 1)
    header = "round 0: %d operations, %d spans saved as %s.{json,bin}" % (
        len(res["latencies"]), res["spans"], res["spans_stem"])
    return res, metrics, {}, header


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # Workers import from bytecode, as from an installed package, whether
    # or not the environment lets Python write its own caches: compiling
    # in a worker would add to its setup_s and peak_rss_mb.
    for path in (ROOT / "src", HERE):
        compileall.compile_dir(path, quiet=2)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    names = ([args.workload] if args.workload != "all" else list(WORKLOADS))
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            deadline = time.monotonic() + RUN_LIMIT_S
            step = trace if args.trace else measure
            res, metrics, notes, header = step(name, args.seed, args.seconds, deadline)
            print("workload %s  seed %d  trace %d  %s" % (name, args.seed, args.trace, header))
            if "check_failed" in res:
                print("  WRONG ANSWER: %s" % res["check_failed"])
                summary["correct"] = False
                continue
            summary["attempted"] += len(res["latencies"])
            summary["failed"] += sum(res["failures"].values())
            for metric, unit in units.items():
                value = metrics[metric]
                print("  %-42s %16.6f %-6s %s" % (metric, value, unit, notes.get(metric, "")))
                key = metric if len(names) == 1 else "%s.%s" % (name, metric)
                summary["metrics"][key] = {"value": value, "unit": unit}
    except WorkerError as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 2
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
