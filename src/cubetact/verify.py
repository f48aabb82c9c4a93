"""Verification suites shared by the CLI and the acceptance tests.

Each suite runs a machine check of one structural statement on one or more
instances and returns a report entry: a stable id, a human-readable anchor
describing the statement, the number of instances checked and a list of
violation witnesses.  An empty violation list means the suite passed.
"""

from __future__ import annotations

import time
from itertools import combinations

from . import contact as _contact
from . import median as _median
from . import ragroups as _rg
from . import reconstruction as _rec
from .errors import CubetactError, LemmaViolation

SUITES = (
    "helly",
    "cliques",
    "cone-links",
    "iw",
    "criterion",
    "roundtrip",
    "kernel",
    "davis",
    "twist",
    "extension-graph",
)


def _entry(suite, anchor, checked, violations, t0):
    return {
        "lemmaId": suite,
        "anchor": anchor,
        "instancesChecked": checked,
        "violations": violations,
        "seconds": round(time.perf_counter() - t0, 3),
    }


def suite_helly(instances):
    t0 = time.perf_counter()
    violations = []
    for name, X in instances:
        for v in _median.convexity_check(X):
            violations.append({"instance": name, "nonconvex": v})
        for quad in _median.helly_check(X):
            violations.append({"instance": name, "quadruple": list(quad)})
    return _entry(
        "helly",
        "halfspaces and carriers are convex; four pairwise-intersecting "
        "convex sets share a vertex",
        len(instances),
        violations,
        t0,
    )


def suite_cliques(instances):
    t0 = time.perf_counter()
    violations = []
    for name, X in instances:
        try:
            _rec.clique_atlas(X)
        except LemmaViolation as ex:
            violations.append({"instance": name, "witness": str(ex)})
    return _entry(
        "cliques",
        "cliques of the contact graph are vertex hyperplane sets; maximal "
        "cliques are exactly the maximal W_v",
        len(instances),
        violations,
        t0,
    )


def suite_cone_links(instances):
    t0 = time.perf_counter()
    violations = []
    for name, X in instances:
        clique_of = {
            v: frozenset(_median.hyperplanes_at(X, v)) for v in X.vertices
        }
        for v in X.vertices:
            contained = any(
                clique_of[v] <= clique_of[w] for w in X.vertices if w != v
            )
            if contained != _median.is_extremal(X, v):
                violations.append({"instance": name, "vertex": str(v)})
    return _entry(
        "cone-links",
        "W_v is contained in W_w for some other vertex w exactly when the "
        "link of v is a cone",
        len(instances),
        violations,
        t0,
    )


def suite_iw(instances):
    t0 = time.perf_counter()
    violations = []
    for name, X in instances:
        try:
            isets = _contact.all_interaction_sets(X)
        except LemmaViolation as ex:
            violations.append({"instance": name, "witness": str(ex)})
            continue
        dim = X.dimension
        classes = {}
        for w, s in isets.items():
            if len(s.I) > dim:
                violations.append(
                    {"instance": name, "hyperplane": w, "I_size": len(s.I)}
                )
            classes.setdefault(s.I0, set()).add(w)
        # I0 classes partition the hyperplanes
        seen = set()
        for cls in classes.values():
            if cls & seen:
                violations.append(
                    {"instance": name, "overlap": sorted(cls & seen)}
                )
            seen |= cls
        for cls, members in classes.items():
            if set(cls) != members:
                violations.append(
                    {"instance": name, "class": sorted(cls),
                     "members": sorted(members)}
                )
    return _entry(
        "iw",
        "I(w) matches its transversality characterization, I0 classes "
        "partition the hyperplanes, and |I(w)| is at most the dimension",
        len(instances),
        violations,
        t0,
    )


def suite_criterion(instances):
    t0 = time.perf_counter()
    violations = []
    for name, X in instances:
        for v, w in combinations(X.vertices, 2):
            if w in X.adj[v]:
                continue
            if _rec.adjacency_criterion(X, v, w):
                violations.append(
                    {"instance": name, "pair": [str(v), str(w)]}
                )
    return _entry(
        "criterion",
        "non-adjacent vertices always admit a third vertex x with "
        "W_v ^ W_w contained in W_v ^ W_x",
        len(instances),
        violations,
        t0,
    )


def interior_roundtrip(ball, margin=2):
    """Reconstruct the skeleton from the contact graph, compare interiors.

    Returns a violation list; empty when the reconstruction restricted to
    interior vertices is isomorphic (via hyperplane-set identity) to the
    interior 1-skeleton and left multiplications survive iota then rho.
    """
    X = ball.complex
    violations = []
    F = _contact.build_contact_family(X)
    atlas = _rec.clique_atlas(X, F)
    rec = _rec.reconstruct(F.contact)
    interior = ball.interior_vertices(margin)

    clique_to_vertex = {}
    for cl in rec["vertices"]:
        v = atlas.vertex_of.get(cl)
        if v is not None and v in interior:
            clique_to_vertex[cl] = v
    mapped = set(clique_to_vertex.values())
    for v in interior:
        if v not in mapped:
            violations.append({"missing_interior_vertex": str(v)})

    for cl, v in clique_to_vertex.items():
        for cl2, w in clique_to_vertex.items():
            if cl >= cl2:
                continue
            rec_adj = cl2 in rec["adjacency"][cl]
            true_adj = w in X.adj[v]
            if rec_adj != true_adj:
                violations.append(
                    {"pair": [str(v), str(w)], "reconstructed": rec_adj,
                     "actual": true_adj}
                )

    # rho(iota(g)) must restrict to g on the interior for left multiplications
    gamma, kind = ball.gamma, ball.kind
    for g in gamma.vertices:
        vmap = {}
        for vid, word in ball.words.items():
            img = _rg.format_word(
                _rg.nf_mult(gamma, kind, ((g, 1),), word)
            )
            if img in ball.words:
                vmap[vid] = img
        phi = _rec.induce_iota(X, vmap)
        rho, _issues = _rec.induce_rho(X, phi, atlas)
        for vid in interior:
            if vid in vmap and vmap[vid] in interior:
                if rho.get(vid) != vmap[vid]:
                    violations.append(
                        {"generator": g, "vertex": vid,
                         "rho": rho.get(vid), "expected": vmap[vid]}
                    )
    return violations


def suite_roundtrip(balls, margin=2):
    t0 = time.perf_counter()
    violations = []
    for name, ball in balls:
        for v in interior_roundtrip(ball, margin):
            v["instance"] = name
            violations.append(v)
    return _entry(
        "roundtrip",
        "the contact graph determines the interior 1-skeleton through "
        "maximal cliques, and rho inverts iota on interior vertices",
        len(balls),
        violations,
        t0,
    )


def suite_kernel(instances):
    t0 = time.perf_counter()
    violations = []
    for name, X in instances:
        try:
            gens = _rec.kernel_subgroup(X)
        except CubetactError as ex:
            violations.append({"instance": name, "witness": str(ex)})
            continue
        for perm in gens:
            square = {h: perm[perm[h]] for h in perm}
            if any(square[h] != h for h in square):
                violations.append(
                    {"instance": name, "witness": "generator of order > 2"}
                )
    return _entry(
        "kernel",
        "transpositions within I0 classes generate contact automorphisms "
        "of order two fixing every maximal clique",
        len(instances),
        violations,
        t0,
    )


def suite_davis(gamma, radius, a=None, b=None):
    t0 = time.perf_counter()
    violations = []
    if a is None or b is None:
        pairs = [
            (x, y)
            for x in gamma.vertices
            for y in gamma.vertices
            if x != y and gamma.st(x) <= gamma.st(y)
        ]
        if not pairs:
            return _entry(
                "davis",
                "reflection automorphism of the contact graph with a "
                "square-breaking vertex image",
                0,
                [{"witness": "no star containment in the defining graph"}],
                t0,
            )
        a, b = pairs[0]
    ball = _rg.build_ball(gamma, _rg.COXETER, radius)
    try:
        d = _rg.davis_phi(ball, a, b)
    except CubetactError as ex:
        violations.append({"witness": str(ex)})
        return _entry("davis", "reflection automorphism", 1, violations, t0)
    report = {
        "square": list(d.witness_square),
        "broken_edge": list(d.broken_edge),
        "a_hyperplane": d.a_hyperplane,
        "b_hyperplane": d.b_hyperplane,
    }
    entry = _entry(
        "davis",
        "reflection automorphism of the contact graph with a "
        "square-breaking vertex image",
        1,
        violations,
        t0,
    )
    entry["witness"] = report
    return entry


def suite_twist(gamma, radius, x=None, y=None):
    t0 = time.perf_counter()
    violations = []
    if x is None or y is None:
        pairs = [
            (u, v)
            for u, v in combinations(gamma.vertices, 2)
            if not gamma.commute(u, v)
        ]
        if not pairs:
            return _entry(
                "twist",
                "piecewise halfspace automorphism fixing a carrier pointwise",
                0,
                [{"witness": "the defining graph is complete"}],
                t0,
            )
        x, y = pairs[0]
    ball = _rg.build_ball(gamma, _rg.ARTIN, radius)
    try:
        tw = _rg.halfspace_twist(ball, x, y)
    except CubetactError as ex:
        violations.append({"witness": str(ex)})
        return _entry("twist", "piecewise halfspace automorphism", 1,
                      violations, t0)
    entry = _entry(
        "twist",
        "piecewise halfspace automorphism fixing a carrier pointwise",
        1,
        violations,
        t0,
    )
    entry["witness"] = {
        "hyperplane": tw.hyperplane,
        "moved": len(tw.moved),
    }
    return entry


def suite_extension_graph(gamma, radius):
    t0 = time.perf_counter()
    out = _rg.extension_graph_ball(gamma, radius)
    cmp_ = out["comparison"]
    violations = []
    if cmp_ is None or cmp_.get("skipped"):
        violations = []
    elif not cmp_["isomorphic"]:
        violations.append(
            {"witness": "truncated extension graph differs from the "
             "interior reduced crossing graph"}
        )
    entry = _entry(
        "extension-graph",
        "the truncated extension graph matches the interior reduced "
        "crossing graph when all defining-graph links are distinct",
        1,
        violations,
        t0,
    )
    if cmp_ is not None and cmp_.get("skipped"):
        entry["skipped"] = cmp_["skipped"]
    return entry


def run_suites(names, instances=None, balls=None, gamma=None, radius=None):
    """Dispatch suites by name; returns the list of report entries."""
    instances, balls = instances or [], balls or []
    # the suites are looked up when called, so wrappers set on the module apply
    runners = {
        "helly": lambda: suite_helly(instances),
        "cliques": lambda: suite_cliques(instances),
        "cone-links": lambda: suite_cone_links(instances),
        "iw": lambda: suite_iw(instances),
        "criterion": lambda: suite_criterion(instances),
        "roundtrip": lambda: suite_roundtrip(balls),
        "kernel": lambda: suite_kernel(instances),
        "davis": lambda: suite_davis(gamma, radius or 4),
        "twist": lambda: suite_twist(gamma, radius or 3),
        "extension-graph": lambda: suite_extension_graph(gamma, radius or 3),
    }
    report = []
    for name in names:
        if name not in runners:
            raise ValueError(f"unknown suite {name!r}")
        report.append(runners[name]())
    return report
