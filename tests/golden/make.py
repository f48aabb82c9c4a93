"""Golden outputs of the command line, and the script that writes them.

outputs.json holds one row per argv: the exit code of
``cubetact.cli.main(argv)`` and the first 16 hex digits of the sha256 of
its stdout and of its stderr.  The runs go in process, in a working
directory that holds the documents the argv name: a token "@name" stands
for the file "name.json" there.  verify's "seconds" fields, the only
output that depends on the clock, are zeroed before hashing.

The documents are the benchmark corpus (perfbench/corpus), the output of
the generate rows for the builtin complexes, every fourth random draw and
the balls, and a few documents written here: repeated and reversed edges,
numeric names, names written as escapes, non-median and malformed input.

Regenerate, from the root of a checkout, with

    PYTHONPATH=src python tests/golden/make.py

Rewriting outputs.json is a declared output change: name every argv whose
row moved, and why.  tests/test_golden.py compares the rows with the file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUTPUTS = HERE / "outputs.json"
CORPUS = ROOT / "perfbench" / "corpus"

BUILTIN_COMPLEXES = ("EDGE", "SQUARE", "Q3", "PATH3", "TRIPOD", "DOMINO")
BUILTIN_GRAPHS = ("P4", "C5", "STAR_EQ5", "F2", "EDGE2", "SINGLE")
BALLS = [(graph, kind, radius) for graph in ("C5", "P4", "STAR_EQ5", "EDGE2")
         for kind, radius in (("artin", "2"), ("coxeter", "3"))]
# balls that are generated but not analyzed: the trivial group (one vertex,
# no wall), free products, and STAR_EQ5 balls that the closure repairs
MORE_BALLS = [("@empty-graph", "artin", "1"), ("@empty-graph", "coxeter", "1"),
              ("F2", "artin", "2"), ("SINGLE", "coxeter", "2"),
              ("STAR_EQ5", "coxeter", "4"), ("STAR_EQ5", "artin", "3")]
RANDOM_SEEDS = range(200)

# documents written here: name -> JSON value
LITERAL = {
    # a path with repeated and reversed edges, which collapse
    "repeated-reversed": {"vertices": ["a", "b", "c", "d"],
                          "edges": [["a", "b"], ["b", "a"], ["b", "c"], ["a", "b"],
                                    ["d", "c"], ["c", "d"]]},
    # a square whose names sort differently by value, by str and by position
    "numeric-square": {"vertices": [10, 9, 2, 1],
                       "edges": [[10, 9], [2, 9], [2, 1], [1, 10]]},
    "float-edge": {"vertices": [1, 2], "edges": [[1.0, 2]]},
    # names that DOT and dual_edge_id escape
    "escaped-names": {"vertices": ['a"b', "c\\d", "e|f"],
                      "edges": [['a"b', "c\\d"], ["e|f", "c\\d"]]},
    "point": {"vertices": ["a"], "edges": []},
    # a 2 x 3 grid whose names JSON writes as escapes: a Latin-1 letter, CJK,
    # an astral character (a surrogate pair) and quotes mixed with backslashes
    "unicode-names": {"vertices": ["\u00e9", "\u4e2d\u6587", "\U0001d538", 'q"\\',
                                   '\\"\u00e9', "plain"],
                      "edges": [["\u00e9", "\u4e2d\u6587"], ["\u4e2d\u6587", "\U0001d538"],
                                ['q"\\', '\\"\u00e9'], ['\\"\u00e9', "plain"],
                                ["\u00e9", 'q"\\'], ["\u4e2d\u6587", '\\"\u00e9'],
                                ["\U0001d538", "plain"]]},
    "triangle": {"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"], ["a", "c"]]},
    "k23": {"vertices": ["a", "b", "x", "y", "z"],
            "edges": [[s, t] for s in "ab" for t in "xyz"]},
    "c6": {"vertices": list("abcdef"),
           "edges": [["a", "b"], ["b", "c"], ["c", "d"], ["d", "e"], ["e", "f"], ["f", "a"]]},
    "disconnected": {"vertices": ["a", "b", "c"], "edges": [["a", "b"]]},
    "self-loop": {"vertices": ["a", "b", "c"], "edges": [["a", "a"]]},
    "three-ends": {"vertices": ["a", "b", "c"], "edges": [["a", "b", "c"]]},
    "string-edge": {"vertices": ["a", "b", "c"], "edges": ["ab"]},
    "unknown-end": {"vertices": ["a", "b"], "edges": [["a", "z"]]},
    "mixed-names": {"vertices": [1, "a"], "edges": [[1, "a"]]},
    "list-name": {"vertices": [[1], "a"], "edges": []},
    "bool-names": {"vertices": [True, 2], "edges": [[True, 2]]},
    "not-an-object": [1, 2],
    "string-vertices": {"vertices": "ab", "edges": []},
    "no-edges": {"vertices": ["a", "b"]},
    "number-generators": {"vertices": [1, 2], "edges": [[1, 2]]},
    "dotted-generator": {"vertices": ["a", "b", "a.b"], "edges": []},
    "empty-generator": {"vertices": [""], "edges": []},
    "unknown-generator": {"vertices": ["a", "b"], "edges": [["a", "z"]]},
    "empty-graph": {"vertices": [], "edges": []},
}

# rows that also run as subprocesses, once per PYTHONHASHSEED
SUBPROCESS = (
    "generate --ball C5 artin 2",
    "analyze --in @C5-artin-2 --dot --reduced-mode strict",
    "verify --builtin SQUARE --builtin TRIPOD --suite helly --suite cliques",
    "generate --ball STAR_EQ5 artin 3",
)
HASH_SEEDS = ("0", "1")


def generated_documents():
    """name -> the generate argv whose stdout is that document."""
    docs = {name.lower(): ["generate", "--builtin", name] for name in BUILTIN_COMPLEXES}
    for seed in RANDOM_SEEDS[::4]:
        docs[f"random-6-5-{seed}"] = ["generate", "--random", "6", "5", str(seed)]
    for graph, kind, radius in BALLS:
        docs[f"ball-{graph}-{kind}-{radius}"] = ["generate", "--ball", graph, kind, radius]
    return docs


def rows():
    """The argv of every row, in file order."""
    out = [["generate", "--builtin", name] for name in BUILTIN_COMPLEXES + BUILTIN_GRAPHS]
    out += [["generate", "--random", "6", "5", str(s)] for s in RANDOM_SEEDS]
    out += [["generate", "--ball", *ball] for ball in BALLS + MORE_BALLS]
    out += [
        ["generate", "--builtin", "NOPE"],
        ["generate"],
        ["generate", "--builtin", "EDGE", "--random", "3", "2", "1"],
        ["generate", "--random", "3", "2", "1", "--ball", "P4", "coxeter", "2"],
        ["generate", "--ball", "P4", "coxeter", "0"],
        ["generate", "--ball", "P4", "euclid", "2"],
        ["generate", "--random", "13", "5", "1"],
    ]
    analyzed = sorted(p.stem for p in CORPUS.glob("*.json"))
    analyzed += list(generated_documents())
    analyzed += ["repeated-reversed", "numeric-square", "float-edge", "escaped-names", "point",
                 "unicode-names"]
    for name in analyzed:
        for mode in ("self-exclusive", "strict"):
            out.append(["analyze", "--in", f"@{name}", "--dot", "--reduced-mode", mode])
    out += [["analyze", "--in", f"@{name}"] for name in (
        "triangle", "k23", "c6", "disconnected", "self-loop", "three-ends",
        "string-edge", "unknown-end", "mixed-names", "list-name", "bool-names",
        "not-an-object", "string-vertices", "no-edges", "missing")]
    out += [["verify", "--in", f"@{name}"] for name in ("mixed-names", "point", "repeated-reversed")]
    for name in ("not-an-object", "string-vertices", "number-generators", "bool-names",
                 "dotted-generator", "empty-generator", "three-ends", "string-edge",
                 "unknown-generator"):
        out.append(["generate", "--ball", f"@{name}", "coxeter", "2"])
    out.append(["verify", "--suite", "davis", "--graph", "@list-name"])
    out += [
        ["verify", *(a for name in BUILTIN_COMPLEXES for a in ("--builtin", name))],
        ["verify", "--random-count", "30"],
        *(["verify", "--graph", graph, "--kind", kind]
          for graph in ("P4", "C5", "STAR_EQ5") for kind in ("coxeter", "artin")),
        ["verify", "--in", "@P4-coxeter-6", "--suite", "helly"],
        ["verify", "--suite", "davis", "--graph", "P4", "--radius", "1"],
        ["verify", "--suite", "davis", "--graph", "P4", "--radius", "2"],
        ["verify", "--suite", "twist", "--graph", "C5", "--radius", "1"],
        ["verify", "--suite", "twist", "--graph", "F2", "--radius", "1"],
        ["verify", "--suite", "davis"],
        ["verify"],
        SUBPROCESS[2].split(),
    ]
    return out


def key(argv):
    return " ".join(argv)


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def row_of(argv, code, out, err):
    if argv[0] == "verify":
        out = re.sub(r'"seconds": [-+0-9.eE]+', '"seconds": 0', out)
    return [code, _digest(out), _digest(err)]


def run(argv):
    """(exit code, stdout, stderr) of cli.main(argv), in process."""
    from cubetact import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _argv(argv):
    return [a[1:] + ".json" if a.startswith("@") else a for a in argv]


def write_documents(where):
    """Write every document into the directory where."""
    where = Path(where)
    for path in CORPUS.glob("*.json"):
        (where / path.name).write_bytes(path.read_bytes())
    for name, doc in LITERAL.items():
        (where / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
    for name, argv in generated_documents().items():
        code, out, err = run(argv)
        if code != 0:
            raise RuntimeError(f"{key(argv)} exits {code}: {err}")
        (where / f"{name}.json").write_text(out, encoding="utf-8")


def compute(where):
    """key -> row for every argv of rows(), run in the directory where,
    which write_documents has filled."""
    cwd = os.getcwd()
    os.chdir(where)
    try:
        return {key(argv): row_of(argv, *run(_argv(argv))) for argv in rows()}
    finally:
        os.chdir(cwd)


def run_subprocess(line, where, hash_seed):
    """The row of the argv line, run as `python -m cubetact` in where."""
    argv = line.split()
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": hash_seed}
    done = subprocess.run([sys.executable, "-m", "cubetact", *_argv(argv)], cwd=where,
                          env=env, capture_output=True, text=True, timeout=300)
    return row_of(argv, done.returncode, done.stdout, done.stderr)


def dumps(table):
    """The file text: one row per line, in rows() order."""
    lines = [f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in table.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def main():
    with tempfile.TemporaryDirectory() as where:
        write_documents(where)
        table = compute(where)
        for line in SUBPROCESS:
            for seed in HASH_SEEDS:
                got = run_subprocess(line, where, seed)
                if got != table[line]:
                    raise SystemExit(f"{line}: PYTHONHASHSEED={seed} gives {got}, "
                                     f"in process {table[line]}")
    OUTPUTS.write_text(dumps(table), encoding="utf-8")
    print(f"wrote {len(table)} rows to {OUTPUTS}")


if __name__ == "__main__":
    main()
