"""Benchmark of cubetact: the generate, analyze and verify workloads.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the package is imported unchanged from
its `src` directory.  Every measurement runs in a fresh worker process
(worker.py), so peak RSS belongs to one workload alone.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json:
  wall_s       duration of one pass over the workload's items, each item
               at the median of its repeats in the run (see item_latencies)
  setup_s      spawn of a worker to its first timed call, median of
               SETUP_SAMPLES worker processes
  peak_rss_mb  ru_maxrss of the measuring worker
  item_p50_ms, item_p90_ms  percentiles of those item latencies
Every time is scaled to the reference speed (speed.py): the worker samples
the machine's speed with a fixed calibration kernel every 50 ms, and each
latency and set-up is scaled by the speed measured while it ran.  The
unscaled figures are printed too.
--trace 1 reports the per-layer metrics instead.  It runs one worker
untraced and one traced, each for half of --seconds, and adds the tracing
overhead: the traced wall_s minus the untraced one.  The per-layer times
are not scaled.

Lines before the last describe the run for a reader (sample counts,
failed_ratio, thread settings).  The last line is one JSON object with the
keys correct, attempted, failed and metrics.  An item fails if it raises,
reports a violation, exits non-zero or fails its output check.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("generate", "analyze", "verify")
SETUP_SAMPLES = 5
RUN_DEADLINE_S = 170  # every worker is stopped by then


class BenchError(Exception):
    pass


def spawn(workload, seed, seconds, deadline, trace=False, probe=False):
    """Run one worker process to completion and return its record."""
    cmd = [
        sys.executable, WORKER, "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds),
    ]
    cmd += ["--trace"] * trace + ["--probe"] * probe
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 2 ** 32))
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired as ex:
        raise BenchError(f"worker exceeded the {RUN_DEADLINE_S} s run limit") from ex
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise BenchError(f"worker exited with {proc.returncode}:\n{tail}")
    record = json.loads(lines[-1])
    record["setup_s"] = record["t_first"] - t_spawn
    return record


def percentile(values, p):
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def item_latencies(record, scaled=True):
    """One pass's item latencies, each the median of its repeats in the run.

    Items of the same name are repeated measurements of the same work (the
    same suite on the same instance, the same document relabelled, the same
    draw).  With ``scaled`` every repeat is first scaled to the reference
    speed, which takes out the machine's own changes of speed.
    """
    scale = speed.scaler(record["speed"]) if scaled else (lambda start, end: 1.0)
    repeats = {}
    for latencies in record["passes"]:
        for name, dt, start, end in latencies:
            repeats.setdefault(name, []).append(dt * scale(start, end))
    return [statistics.median(repeats[name]) for name, *_ in record["passes"][0]]


def scaled_setup(record):
    """Set-up time at the reference speed, scaled by the samples taken during it."""
    start = record["speed"][0][0]
    return record["setup_s"] * speed.scaler(record["speed"])(start, record["t_first"])


def end_to_end(args, deadline):
    probes = [
        spawn(args.workload, args.seed, args.seconds, deadline, probe=True)
        for _ in range(SETUP_SAMPLES - 1)
    ]
    run = spawn(args.workload, args.seed, args.seconds, deadline)
    setups = [scaled_setup(r) for r in probes + [run]]
    items = item_latencies(run)
    values = {
        "wall_s": sum(items),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": run["rss_kb"] / 1024,
        "item_p50_ms": percentile(items, 50) * 1e3,
        "item_p90_ms": percentile(items, 90) * 1e3,
    }
    kernel = statistics.median(s for _, s in run["speed"])
    print(f"samples: {len(run['passes'])} passes of {len(items)} items, "
          f"{len(setups)} set-ups, {len(run['speed'])} speed samples")
    print(f"speed: calibration kernel median {kernel * 1e3:.3f} ms "
          f"(reference {speed.CAL_REFERENCE_S * 1e3:g} ms); unscaled wall_s "
          f"{sum(item_latencies(run, scaled=False)):.4f} s, unscaled setup_s "
          f"{statistics.median(r['setup_s'] for r in probes + [run]):.4f} s")
    return values, [run]


def traced(args, deadline):
    half = args.seconds / 2
    plain = spawn(args.workload, args.seed, half, deadline)
    run = spawn(args.workload, args.seed, half, deadline, trace=True)
    untraced_wall = sum(item_latencies(plain))
    traced_wall = sum(item_latencies(run))
    values = dict(run["layers"])
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["trace.overhead_ratio"] = (traced_wall - untraced_wall) / untraced_wall
    print(f"samples: {len(plain['passes'])} untraced and {len(run['passes'])} "
          f"traced passes; spans in {run['trace_file']}")
    for item, layers in run["heavy_items"].items():
        top = ", ".join(f"{name} {sec:.3f}" for name, sec in list(layers.items())[:6])
        print(f"item {item}: {top}")
    return values, [plain, run]


def declared_metrics(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "cubetact", "__init__.py")):
        print("error: src/cubetact not found next to perfbench/", file=sys.stderr)
        return 2
    try:
        units = declared_metrics("per_layer" if args.trace else "end_to_end")
        print(f"workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        measure = traced if args.trace else end_to_end
        values, runs = measure(args, deadline)
        missing = sorted(set(units) - set(values))
        if missing:
            raise BenchError(f"metrics not measured: {missing}")
    except (BenchError, OSError, KeyError, json.JSONDecodeError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    threads = runs[-1]["threads"]
    print("threads: " + ", ".join(f"{k}={v}" for k, v in threads.items())
          + " (unset OpenBLAS variables mean one thread per core)")
    for name, unit in units.items():
        print(f"{name} = {values[name]:.6g} {unit}")
    print(f"failed_ratio = {failed / attempted:.6g} ({failed} of {attempted} items)")
    for r in runs:
        for message in r["failures"]:
            print(f"failure: {message}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
