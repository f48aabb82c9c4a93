"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs one short pass of each workload on a few small items, first against
the stored reference (no item may fail), then against a corrupted copy of
it (every corrupted item must fail).  Also checks that an item which
raises or reports a violation is counted as failed.  Exits 1 if any of
this does not hold; takes a few seconds.
"""

from __future__ import annotations

import copy
import os
import shutil
import sys

import worker as w

SEED = 1


def one_pass(workload):
    record = w.run_passes(workload, SEED, seconds=0, max_passes=1)
    return record["attempted"], record["failed"]


def small_generate(reference):
    gen = w.Generate(SEED, reference)
    gen.balls = gen.balls[:2]
    gen.randoms = []
    gen.draws = gen.draws[:5]
    return gen


def small_analyze(reference, work_dir):
    ana = w.Analyze(SEED, reference, work_dir)
    ana.docs = [d for d in ana.docs if d[0] in ("C5-artin-2", "random-8-10-2")]
    return ana


class Fixed:
    """A workload made of given items."""

    def __init__(self, items):
        self._items = items

    def items(self, pass_index):
        return self._items


def main():
    problems = []

    def expect(label, got, want):
        status = "ok" if got == want else "MISSED"
        print(f"{status}: {label}: (attempted, failed) = {got}, expected {want}")
        if got != want:
            problems.append(label)

    reference = w.load_reference()
    bad = copy.deepcopy(reference)
    gen = small_generate(reference)
    first_ball = w.ball_name(*gen.balls[0][0])
    bad["generate"]["balls"][first_ball]["digest"] = "0" * 16
    bad["generate"]["balls"][w.ball_name(*gen.balls[1][0])]["vertices"] += 1
    bad["generate"]["draws"][str(gen.draw_seeds[0])] = "0" * 16
    bad["analyze"]["C5-artin-2"]["cliques"] += 1

    expect("generate, true reference", one_pass(gen), (7, 0))
    expect("generate, corrupted reference", one_pass(small_generate(bad)), (7, 3))

    work_dir = os.path.join(w.WORK_DIR, f"selftest-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        expect("analyze, true reference",
               one_pass(small_analyze(reference, work_dir)), (4, 0))
        expect("analyze, corrupted reference",
               one_pass(small_analyze(bad, work_dir)), (4, 2))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    square = w.md.builtin_complex("SQUARE")
    violation = {"violations": [{"instance": "x"}], "instancesChecked": 1}

    def boom():
        raise RuntimeError("injected")

    items = [
        w.Item("passes", lambda: w.vf.suite_helly([("SQUARE", square)]), w.check_entry),
        w.Item("violation", lambda: violation, w.check_entry),
        w.Item("raises", boom, w.check_entry),
    ]
    expect("verify, injected violation and exception", one_pass(Fixed(items)), (3, 2))

    if problems:
        print(f"self-test failed: {problems}", file=sys.stderr)
        return 1
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
