"""Traced run of the ROADMAP item-1 baseline instances.

    python3 perfbench/baseline.py

C5/artin/3 and random_median_complex(9, 10, 2) take 10-14 s each at the
commit the benchmark was defined on: too long to repeat inside a 30 s
workload run, so the timed workloads leave them out.  This script builds
both once with every public function traced (tracer.py), runs `cubetact
analyze` on the C5/artin/3 ball, and prints each run's time per layer and
its sizes next to the figures the ROADMAP records.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

import worker as w
from tracer import Tracer

ROADMAP = {
    "build C5/artin/3": "13.1 s; 531 vertices, 710 edges, 350 hyperplanes",
    "random_median_complex(9, 10, 2)": "13.1 s; 240 vertices",
    "analyze C5/artin/3": "contact family 1.4-2.2 s",
}


def main():
    tracer = Tracer()
    tracer.install()
    work_dir = os.path.join(w.WORK_DIR, f"baseline-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    src = os.path.join(work_dir, "C5-artin-3.json")
    dst = os.path.join(work_dir, "report.json")

    def analyze():
        return w.cli.main(["analyze", "--in", src, "--out", dst])

    def sizes_ball(ball):
        with open(src, "w", encoding="utf-8") as fh:
            json.dump(w.md.complex_to_json(ball.complex), fh)
        X = ball.complex
        return f"{len(X)} vertices, {len(X.edges)} edges, {len(ball.labels)} hyperplanes"

    def sizes_analyze(code):
        with open(dst, encoding="utf-8") as fh:
            counts = w.analyze_counts(json.load(fh))
        return f"exit code {code}, {counts}"

    cases = [
        ("build C5/artin/3", lambda: w.make_ball(("C5", w.rg.ARTIN, 3)), sizes_ball),
        ("random_median_complex(9, 10, 2)",
         lambda: w.md.random_median_complex(9, 10, 2), lambda X: f"{len(X)} vertices"),
        ("analyze C5/artin/3", analyze, sizes_analyze),
    ]
    try:
        for label, call, describe in cases:
            tracer.begin_item(label)
            t0 = time.perf_counter()
            out = call()
            seconds = time.perf_counter() - t0
            tracer.end_item()
            print(f"{label}: {seconds:.2f} s; {describe(out)}")
            print(f"  ROADMAP: {ROADMAP[label]}")
        for label, layers in tracer.heavy_items().items():
            top = ", ".join(f"{name} {sec:.2f}" for name, sec in list(layers.items())[:6])
            print(f"  {label} layers (s): {top}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
