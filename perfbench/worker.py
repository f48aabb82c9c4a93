"""One workload run in a fresh process: set up inputs, run timed passes, check outputs.

run.py starts this script once per measurement, so that the peak RSS it
reports belongs to one workload alone:

    python3 perfbench/worker.py --workload verify --seed 7 --seconds 30 [--trace] [--probe]

A run is a closed loop: one caller issues the next call only when the
previous one has returned.  Work is grouped into passes; a pass is the
workload's full item list for the seed.  Another pass starts while at
least half of it is expected to fit in ``--seconds`` (at least one pass
always runs).  Each item is timed on its own; its output is checked right
after the clock stops and then dropped.

The last line of standard output is one JSON object: the monotonic time
of the first timed call, the name, latency, start and end of every item of
every pass, the machine-speed samples (see speed.py), the item and failure
counts and ``ru_maxrss`` at the end of the first pass.  With ``--probe``
the script stops just before the first timed call and reports only that
time and the samples taken during set-up, which is how run.py samples
set-up time.  With ``--trace`` every public function of the cubetact
modules is wrapped (see tracer.py) and the per-layer metrics are added.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, replace
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import speed  # noqa: E402

SAMPLER = speed.SpeedSampler()
if __name__ == "__main__":
    # sample from before the package is imported, so that set-up time can
    # be scaled by the speed it ran at
    SAMPLER.start()

from cubetact import cli  # noqa: E402
from cubetact import median as md  # noqa: E402
from cubetact import ragroups as rg  # noqa: E402
from cubetact import verify as vf  # noqa: E402

CORPUS_DIR = os.path.join(HERE, "corpus")
REFERENCE_PATH = os.path.join(HERE, "reference.json")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")

# generate: the ROADMAP ladder of balls and random complexes, plus many small
# draws whose rng seeds come from the workload seed.  C5/artin/3 and
# random(9, 10, 2) take 10-14 s each, too long to repeat within a run, so
# baseline.py traces them on their own.
GENERATE_BALLS = (
    ("C5", rg.COXETER, 3),
    ("P4", rg.COXETER, 4),
    ("STAR_EQ5", rg.COXETER, 4),
    ("C5", rg.ARTIN, 2),
    ("C5", rg.COXETER, 4),
    ("P4", rg.COXETER, 6),
)
GENERATE_RANDOM = ((8, 10, 5), (8, 10, 2))
DRAW_SHAPE = (6, 5)  # (ambient_dim, seed_count) of the seeded draws
DRAW_POOL = 4096  # draw rng seeds are sampled from 1..DRAW_POOL
GENERATE_DRAWS = 800

# analyze: stored documents, relabelled per request.
ANALYZE_BALLS = (
    ("P4", rg.COXETER, 6),
    ("C5", rg.COXETER, 4),
    ("STAR_EQ5", rg.COXETER, 4),
    ("C5", rg.ARTIN, 2),
)
ANALYZE_RANDOM = ((9, 10, 2), (8, 10, 5), (8, 10, 2), (8, 10, 3))
# requests per pass for each document; the rest get ANALYZE_SMALL_REPEATS
ANALYZE_REPEATS = {"P4-coxeter-6": 1, "C5-coxeter-4": 1, "random-9-10-2": 1}
ANALYZE_SMALL_REPEATS = 2
VALIDATE_LIMIT = 2048  # never send a document this large to the n^3 certificate

# verify: one suite on one instance per call.
VERIFY_RANDOM = 200
INSTANCE_SUITES = ("helly", "cliques", "cone-links", "iw", "criterion", "kernel")
BALL_SUITES = ("helly", "cliques", "iw", "kernel")
VERIFY_BALLS = (("C5", rg.COXETER, 3), ("STAR_EQ5", rg.COXETER, 3))
HELLY_BUDGET_BYTES = 1 << 30


def ball_name(graph, kind, radius):
    return f"{graph}-{kind}-{radius}"


def random_name(dim, seeds, rng_seed):
    return f"random-{dim}-{seeds}-{rng_seed}"


def make_ball(spec):
    graph, kind, radius = spec
    return rg.build_ball(rg.builtin_defining_graph(graph), kind, radius)


def digest(doc):
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_reference():
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def analyze_counts(report):
    """Isomorphism invariants of a `cubetact analyze` report."""
    family = report["contact_family"]
    return {
        "vertices": len(report["complex"]["vertices"]),
        "hyperplanes": len(report["hyperplanes"]),
        "contact_edges": len(family["contact"]["edges"]),
        "crossing_edges": len(family["crossing"]["edges"]),
        "cliques": len(report["reconstruction"]["vertices"]),
        "dimension": report["dimension"],
    }


def helly_bytes_bound(hyperplanes):
    """Upper bound on helly_check's pair-by-pair float32 matrix.

    The family has three sets per hyperplane; the matrix is square in the
    number of intersecting pairs, which is at most m(m-1)/2.
    """
    m = 3 * hyperplanes
    pairs = m * (m - 1) // 2
    return 4 * pairs * pairs


def fresh_complex(X):
    """A copy of a validated complex without any of its lazily cached data."""
    return md.CubeComplex(X.vertices, X.edges, X._dist, X.squares)


def fresh_ball(ball):
    return replace(ball, complex=fresh_complex(ball.complex))


# ---------------------------------------------------------------------------
# Output checks: each returns None when the output is right, else a message.

def ball_summary(ball):
    return {
        "digest": digest(rg.ball_to_json(ball)),
        "vertices": len(ball.complex),
        "edges": len(ball.complex.edges),
        "hyperplanes": len(ball.labels),
    }


def complex_summary(X):
    return {
        "digest": digest(md.complex_to_json(X)),
        "vertices": len(X),
        "edges": len(X.edges),
    }


def draw_summary(X):
    return digest(md.complex_to_json(X))


def check_equal(summary):
    """A check that compares `summary(output)` with the expected value."""
    def check(output, expected):
        got = summary(output)
        return None if got == expected else f"got {got}, expected {expected}"
    return check


check_ball = check_equal(ball_summary)
check_complex = check_equal(complex_summary)
check_draw = check_equal(draw_summary)


def check_analyze(code, out_path, expected):
    if code != 0:
        return f"exit code {code}"
    with open(out_path, encoding="utf-8") as fh:
        got = analyze_counts(json.load(fh))
    return None if got == expected else f"got {got}, expected {expected}"


def check_entry(entry):
    if entry["violations"]:
        return f"{len(entry['violations'])} violations: {entry['violations'][:2]}"
    if entry["instancesChecked"] < 1:
        return "no instance checked"
    return None


def check_star_inclusion(report):
    if report["mismatches"]:
        return f"mismatched hyperplanes {report['mismatches']}"
    if not report["hyperplanes"]:
        return "no interior hyperplane checked"
    return None


# ---------------------------------------------------------------------------
# Workloads

@dataclass
class Item:
    name: str
    call: Callable
    check: Callable  # output -> None or a failure message
    complex: object = None  # the input complex, counted by the tracer


class Generate:
    """Instance sources: group balls, the large random complex, seeded draws."""

    def __init__(self, seed, reference):
        ref = reference["generate"]
        rng = random.Random(seed)
        self.draw_seeds = rng.sample(range(1, DRAW_POOL + 1), GENERATE_DRAWS)
        self.balls = [(spec, ref["balls"][ball_name(*spec)]) for spec in GENERATE_BALLS]
        self.randoms = [
            (args, ref["random"][random_name(*args)]) for args in GENERATE_RANDOM
        ]
        self.draws = [(s, ref["draws"][str(s)]) for s in self.draw_seeds]

    def items(self, pass_index):
        out = []
        for spec, expected in self.balls:
            out.append(Item(
                ball_name(*spec),
                lambda spec=spec: make_ball(spec),
                lambda ball, expected=expected: check_ball(ball, expected),
            ))
        for args, expected in self.randoms:
            out.append(Item(
                random_name(*args),
                lambda args=args: md.random_median_complex(*args),
                lambda X, expected=expected: check_complex(X, expected),
            ))
        for s, expected in self.draws:
            out.append(Item(
                random_name(*DRAW_SHAPE, s),
                lambda s=s: md.random_median_complex(*DRAW_SHAPE, s),
                lambda X, expected=expected: check_draw(X, expected),
            ))
        return out


def relabel(doc, rng):
    """The same graph under fresh vertex names, vertex order and edge order."""
    names = rng.sample(range(10 ** 7), len(doc["vertices"]))
    mapping = {v: f"v{k}" for v, k in zip(doc["vertices"], names)}
    vertices = list(mapping.values())
    rng.shuffle(vertices)
    edges = [[mapping[u], mapping[v]] for u, v in doc["edges"]]
    for e in edges:
        rng.shuffle(e)
    rng.shuffle(edges)
    return {"vertices": vertices, "edges": edges}


class Analyze:
    """`cubetact analyze` through cli.main on relabelled corpus documents."""

    def __init__(self, seed, reference, work_dir):
        self.seed = seed
        self.work_dir = work_dir
        self.docs = []
        for name, expected in reference["analyze"].items():
            with open(os.path.join(CORPUS_DIR, name + ".json"), encoding="utf-8") as fh:
                doc = json.load(fh)
            if len(doc["vertices"]) >= VALIDATE_LIMIT:
                raise ValueError(
                    f"{name}: {len(doc['vertices'])} vertices; the median "
                    f"certificate is not run on n >= {VALIDATE_LIMIT}"
                )
            self.docs.append((name, doc, expected))

    def items(self, pass_index):
        rng = random.Random(f"analyze:{self.seed}:{pass_index}")
        out = []
        for name, doc, expected in self.docs:
            for _ in range(ANALYZE_REPEATS.get(name, ANALYZE_SMALL_REPEATS)):
                src = os.path.join(self.work_dir, f"in-{len(out)}.json")
                dst = os.path.join(self.work_dir, f"out-{len(out)}.json")
                with open(src, "w", encoding="utf-8") as fh:
                    json.dump(relabel(doc, rng), fh)
                out.append(Item(
                    name,
                    lambda src=src, dst=dst: cli.main(["analyze", "--in", src, "--out", dst]),
                    lambda code, dst=dst, expected=expected: check_analyze(code, dst, expected),
                ))
        return out


def _suite(name):
    return getattr(vf, "suite_" + name.replace("-", "_"))


class Verify:
    """Verification suites, one instance per call, on fresh copies each pass."""

    def __init__(self, seed):
        rng = random.Random(seed)
        seeds = rng.sample(range(1, DRAW_POOL + 1), VERIFY_RANDOM)
        self.instances = [
            (random_name(*DRAW_SHAPE, s), md.random_median_complex(*DRAW_SHAPE, s))
            for s in seeds
        ]
        self.instances += [(n, md.builtin_complex(n)) for n in md.BUILTIN_COMPLEXES]
        self.balls = {
            ball_name(*spec): make_ball(spec)
            for spec in VERIFY_BALLS + (("P4", rg.COXETER, 4), ("C5", rg.ARTIN, 2))
        }
        self.gammas = {g: rg.builtin_defining_graph(g) for g in ("C5", "P4", "STAR_EQ5")}
        # memory guard: helly_check's matrix is quartic in the hyperplanes
        for name in ("C5-coxeter-3", "STAR_EQ5-coxeter-3", "P4-coxeter-4"):
            need = helly_bytes_bound(len(self.balls[name].labels))
            if need > HELLY_BUDGET_BYTES:
                raise ValueError(f"helly on {name} may need {need} bytes")

    def items(self, pass_index):
        out = []

        def suite_item(suite, name, X):
            out.append(Item(
                f"{suite}:{name}",
                lambda: _suite(suite)([(name, X)]),
                check_entry,
                X,
            ))

        for name, X in self.instances:
            for suite in INSTANCE_SUITES:
                suite_item(suite, name, fresh_complex(X))
        for spec in VERIFY_BALLS:
            name = ball_name(*spec)
            for suite in BALL_SUITES:
                suite_item(suite, name, fresh_complex(self.balls[name].complex))
        suite_item("helly", "P4-coxeter-4", fresh_complex(self.balls["P4-coxeter-4"].complex))
        for name in ("C5-coxeter-3", "C5-artin-2"):
            ball = fresh_ball(self.balls[name])
            out.append(Item(
                f"roundtrip:{name}",
                lambda ball=ball, name=name: vf.suite_roundtrip([(name, ball)]),
                check_entry,
                ball.complex,
            ))
        ball = fresh_ball(self.balls["P4-coxeter-4"])
        out.append(Item(
            "star-inclusion:P4-coxeter-4",
            lambda ball=ball: rg.star_inclusion_I_check(ball),
            check_star_inclusion,
            ball.complex,
        ))
        for suite, graph, radius in (
            ("davis", "P4", 4),
            ("davis", "STAR_EQ5", 4),
            ("twist", "C5", 2),
            ("extension-graph", "C5", 2),
            ("extension-graph", "P4", 3),
        ):
            out.append(Item(
                f"{suite}:{graph}-{radius}",
                lambda suite=suite, gamma=self.gammas[graph], radius=radius:
                    _suite(suite)(gamma, radius),
                check_entry,
            ))
        return out


def make_workload(name, seed, work_dir):
    if name == "generate":
        return Generate(seed, load_reference())
    if name == "analyze":
        return Analyze(seed, load_reference(), work_dir)
    if name == "verify":
        return Verify(seed)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# Timed loop

def run_passes(workload, seed, seconds, tracer=None, probe=False, max_passes=None,
               sampler=None):
    """Closed-loop passes over the workload's items; returns the raw record.

    Each pass runs its items in a seeded random order, so that short items
    are spread over the whole pass rather than bunched into one stretch of it.
    Every item is recorded as [name, seconds, monotonic start, end]; the
    seconds leave out the speed sampler's handler.  The record keeps the
    sampler's samples, those taken during set-up too when ``sampler`` was
    started before it.  A run with ``probe`` stops at the first timed call.
    """
    record = {"passes": [], "attempted": 0, "failed": 0, "failures": []}
    sampler = sampler or speed.SpeedSampler()
    sampler.start()
    record["speed"] = sampler.samples
    order = random.Random(f"order:{seed}")
    cycles = []
    pass_index = 0
    try:
        while True:
            c0 = time.monotonic()
            items = workload.items(pass_index)
            order.shuffle(items)
            if pass_index == 0:
                record["t_first"] = time.monotonic()
                if probe:
                    return record
            latencies = []
            for k, item in enumerate(items):
                if tracer is not None:
                    tracer.begin_item(f"{pass_index}:{k}:{item.name}", item.complex)
                spent = sampler.spent
                t0 = time.monotonic()
                try:
                    output, error = item.call(), None
                except Exception as ex:  # a failing call is a counted failure
                    output, error = None, f"{type(ex).__name__}: {ex}"
                t1 = time.monotonic()
                dt = t1 - t0 - (sampler.spent - spent)
                if tracer is not None:
                    tracer.end_item()
                latencies.append([item.name, dt, t0, t1])
                record["attempted"] += 1
                message = error or item.check(output)
                if message:
                    record["failed"] += 1
                    if len(record["failures"]) < 20:
                        record["failures"].append(f"{item.name}: {message}")
                del output
            record["passes"].append(latencies)
            if pass_index == 0:
                # later passes repeat the same work; their high-water mark only
                # adds allocator growth, and their number depends on speed
                record["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            cycles.append(time.monotonic() - c0)
            pass_index += 1
            if max_passes is not None and pass_index >= max_passes:
                break
            # start another pass only if at least half of it fits in the time left
            if time.monotonic() - record["t_first"] + statistics.median(cycles) / 2 > seconds:
                break
    finally:
        sampler.stop()
    return record


def thread_settings():
    """What decides how many threads numpy's OpenBLAS may use in this process."""
    keys = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        **{k: os.environ.get(k) for k in keys},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    work_dir = os.path.join(WORK_DIR, f"run-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        workload = make_workload(args.workload, args.seed, work_dir)
        record = run_passes(
            workload, args.seed, args.seconds, tracer, probe=args.probe, sampler=SAMPLER
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    record["threads"] = thread_settings()
    if tracer is not None:
        passes = len(record["passes"])
        record["layers"] = tracer.layer_metrics(passes)
        record["heavy_items"] = tracer.heavy_items()
        path = os.path.join(
            WORK_DIR, "traces", f"{args.workload}-seed{args.seed}.json"
        )
        tracer.write(path)
        record["trace_file"] = os.path.relpath(path, ROOT)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
