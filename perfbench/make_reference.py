"""Regenerate the stored analyze corpus and the reference outputs.

    python3 perfbench/make_reference.py

Writes perfbench/corpus/<name>.json (the analyze documents) and
perfbench/reference.json (output digests for generate, invariant counts
for analyze).  The stored files describe the program at the commit they
were made from; a change that alters outputs on purpose regenerates them
and says so.  Takes about a minute on a 2-core machine.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import worker as w

def main():
    reference = {"generate": {"balls": {}, "random": {}, "draws": {}}, "analyze": {}}
    gen = reference["generate"]
    for spec in w.GENERATE_BALLS:
        name = w.ball_name(*spec)
        gen["balls"][name] = w.ball_summary(w.make_ball(spec))
    for args in w.GENERATE_RANDOM:
        name = w.random_name(*args)
        gen["random"][name] = w.complex_summary(w.md.random_median_complex(*args))
    for s in range(1, w.DRAW_POOL + 1):
        X = w.md.random_median_complex(*w.DRAW_SHAPE, s)
        gen["draws"][str(s)] = w.draw_summary(X)

    shutil.rmtree(w.CORPUS_DIR, ignore_errors=True)
    os.makedirs(w.CORPUS_DIR)
    docs = {w.ball_name(*spec): w.make_ball(spec).complex for spec in w.ANALYZE_BALLS}
    for args in w.ANALYZE_RANDOM:
        docs[w.random_name(*args)] = w.md.random_median_complex(*args)
    os.makedirs(w.WORK_DIR, exist_ok=True)
    out_path = os.path.join(w.WORK_DIR, "reference-analyze.json")
    for name, X in docs.items():
        path = os.path.join(w.CORPUS_DIR, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(w.md.complex_to_json(X), fh, separators=(",", ":"))
            fh.write("\n")
        code = w.cli.main(["analyze", "--in", path, "--out", out_path])
        if code != 0:
            raise SystemExit(f"analyze {name}: exit code {code}")
        with open(out_path, encoding="utf-8") as fh:
            reference["analyze"][name] = w.analyze_counts(json.load(fh))
    os.remove(out_path)

    with open(w.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
