"""Verification suites shared by the CLI and the acceptance tests.

Each suite runs a machine check of one structural statement on one or more
instances and returns a report entry: a stable id, a human-readable anchor
describing the statement, the number of instances checked and a list of
violation witnesses.  An empty violation list means the suite passed.

The statements are checked here and nowhere else: the contact relation, the
reduced classes, the clique atlas, the kernel generators and the exotic
automorphisms (the Davis reflection phi and the halfspace twist) only
compute.  Each suite is a table row (anchor, check); one runner times the
check over the instances and builds the entry.
"""

from __future__ import annotations

import time
from itertools import combinations

import numpy as np

from . import contact as _contact
from . import median as _median
from . import ragroups as _rg
from . import reconstruction as _rec
from .errors import (
    BallTooSmall,
    CliqueLimitExceeded,
    CubetactError,
    LemmaViolation,
    NotInterior,
    SizeLimitExceeded,
)

# an instance that raises one of these was not checked: the runner lists it
# under "refused" instead of as a violation
_REFUSED = (SizeLimitExceeded, CliqueLimitExceeded, BallTooSmall, NotInterior)


def _witness(f, *args):
    """f(*args), with any CubetactError it raises, other than a refusal,
    raised as a LemmaViolation with the same message."""
    try:
        return f(*args)
    except _REFUSED:
        raise
    except CubetactError as ex:
        raise LemmaViolation(str(ex)) from ex


def _helly(X):
    for v in _median.convexity_check(X):
        yield {"nonconvex": v}
    for quad in _median.helly_check(X):
        yield {"quadruple": list(quad)}


def _cliques(X):
    """Transverse is sharing a square, disjoint carriers are separated by a
    third hyperplane, and the clique atlas: every maximal clique of the
    contact graph is some W_v, and W_v is maximal and attained by v alone
    iff the link of v is not a cone.  (Every clique lies in some W_v holds
    by definition: contact = K K^T > 0.)
    """
    rel = _contact._relation(X)
    H = len(rel.contact)
    shares_square = np.zeros((H, H), dtype=bool)
    if len(X.squares):
        # the hyperplane of edge uv is the one row of sides parting u and v
        S = X.sides.T[X.squares[:, :3]]
        h1 = np.argmax(S[:, 0] != S[:, 1], axis=1)
        h2 = np.argmax(S[:, 1] != S[:, 2], axis=1)
        shares_square[h1, h2] = shares_square[h2, h1] = True
    for u, w in np.argwhere(rel.transverse != shares_square)[:1].tolist():
        raise LemmaViolation(
            f"hyperplanes {u} and {w}: transverse={bool(rel.transverse[u, w])} "
            f"but share a square={bool(shares_square[u, w])}"
        )

    # inside_a[u, h]: u's carrier lies in side_a of h; inside_b: in side_b
    K = X.carriers.astype(np.float32)
    KA, nk = K @ X.sides.T.astype(np.float32), K.sum(axis=1)
    inside_a = (KA == nk[:, None]).astype(np.float32)
    inside_b = (KA == 0).astype(np.float32)
    separated = inside_a @ inside_b.T
    bad = ~rel.contact & ~np.eye(H, dtype=bool) & (separated + separated.T == 0)
    for u, w in np.argwhere(bad)[:1].tolist():
        raise LemmaViolation(
            f"hyperplanes {u} and {w} have disjoint carriers but no separator"
        )

    atlas = _rec.clique_atlas(X)
    wv_sets = set(atlas.clique_of.values())
    for cl in atlas.cliques:
        if frozenset(cl) not in wv_sets:
            raise LemmaViolation(f"maximal clique {cl} equals no W_v")
    for v in X.vertices:
        unique_max = atlas.vertex_of.get(tuple(sorted(atlas.clique_of[v]))) == v
        if unique_max == atlas.extremal[v]:
            raise LemmaViolation(
                f"vertex {v}: maximal-and-unique={unique_max} but "
                f"extremal={atlas.extremal[v]}"
            )
    return ()


def _cone_links(X):
    W, extremal = X.ids_at, _median.extremality(X)
    for i, v in enumerate(X.vertices):
        contained = any(W[i] <= W[k] for k in range(len(W)) if k != i)
        if contained != extremal[v]:
            yield {"vertex": str(v)}


def _iw(X):
    """u is in I(w) iff u = w, or u is transverse to w and to every other
    hyperplane transverse to w.

    The anchor's other two claims follow, so they are not checked.  |I(w)|
    is at most the dimension: by the characterization, each u != w in I(w)
    is transverse to w, and N(w) - {u} lies in N(u) in the crossing graph,
    so any two members of I(w) are transverse.  I(w) is a crossing clique,
    and X.dimension is the clique number of the crossing graph.  The I0
    classes partition the hyperplanes: I[u, w] says that u's carrier
    contains w's (contact._relation), and containment is a preorder, so
    I & I.T, equality of carriers, is an equivalence relation.
    """
    rel = _contact._relation(X)
    T = rel.transverse
    Tf = T.astype(np.float32)
    covered = Tf @ Tf + T == T.sum(axis=0)[None, :]
    characterized = np.eye(len(T), dtype=bool) | (T & covered)
    for w in np.flatnonzero((rel.I != characterized).any(axis=0))[:1].tolist():
        raise LemmaViolation(
            f"I({w}) definitional {np.flatnonzero(rel.I[:, w]).tolist()} != "
            f"characterization {np.flatnonzero(characterized[:, w]).tolist()}"
        )
    return ()


def _criterion(X):
    V, members = X.vertices, _rec._members(X.ids_at)
    for i, v in enumerate(V):
        for j in _rec._joined(X.ids_at, i, members):
            if j > i and not X.adjacency[i, j]:
                yield {"pair": [str(v), str(V[j])]}


def interior_roundtrip(ball, margin=2):
    """Reconstruct the skeleton from the contact graph, compare interiors.

    Returns a violation list; empty when the reconstruction restricted to
    interior vertices is isomorphic (via hyperplane-set identity) to the
    interior 1-skeleton and left multiplications survive iota then rho.
    """
    X, V = ball.complex, ball.complex.vertices
    atlas = _rec.clique_atlas(X)
    interior = ball.interior_vertices(margin)

    # the cliques matched with interior vertices, in canonical order, and
    # those vertices' indices
    cs = [k for k, cl in enumerate(atlas.cliques) if atlas.vertex_of.get(cl) in interior]
    vs = [X.index[atlas.vertex_of[atlas.cliques[k]]] for k in cs]
    mapped = {V[i] for i in vs}
    violations = [{"missing_interior_vertex": str(v)} for v in V
                  if v in interior and v not in mapped]

    rec = _rec.reconstruct(atlas.cliques)[np.ix_(cs, cs)]
    actual = X.adjacency[np.ix_(vs, vs)]
    for a, b in np.argwhere(np.triu(rec != actual, 1)).tolist():
        violations.append({"pair": [str(V[vs[a]]), str(V[vs[b]])],
                           "reconstructed": bool(rec[a, b]), "actual": bool(actual[a, b])})

    # rho(iota(g)) must restrict to g on the interior for left multiplications
    for g in ball.gamma.vertices:
        vmap = _rg._translation(ball, ((g, 1),))
        phi = _rec.induce_iota(X, vmap)
        rho, _issues = _rec.induce_rho(X, phi, atlas)
        for vid in V:
            if vid in interior and vid in vmap and vmap[vid] in interior:
                if rho.get(vid) != vmap[vid]:
                    violations.append(
                        {"generator": g, "vertex": vid,
                         "rho": rho.get(vid), "expected": vmap[vid]}
                    )
    return violations


def _star_containments(gamma):
    """The pairs (a, b) of distinct generators with St a <= St b."""
    return [(a, b) for a in gamma.vertices for b in gamma.vertices
            if a != b and gamma.st(a) <= gamma.st(b)]


def _roundtrip(ball, margin):
    """interior_roundtrip, skipped on a coxeter ball whose defining graph
    is a cone or has a != b with St a <= St b.  The statement needs that
    hypothesis: on such graphs the davis suite builds a contact automorphism
    that breaks a square, so the contact graph cannot name every edge (on
    P4 the reconstruction misses (1, a) and (1, d)).  Among the coxeter
    balls of the 52 graphs with 1-5 vertices, interior_roundtrip fails on
    exactly these (tests/test_verify.py)."""
    if ball.kind == _rg.COXETER:
        if ball.gamma.is_cone():
            return {"skipped": "coxeter ball over a cone"}
        pairs = _star_containments(ball.gamma)
        if pairs:
            return {"skipped": f"coxeter ball with St a <= St b for (a, b) in {pairs}"}
    return interior_roundtrip(ball, margin)


def _kernel(X):
    """Each kernel generator is a contact automorphism fixing every maximal
    clique setwise.  It has order two by construction: kernel_subgroup
    builds each generator as a transposition."""
    contact = _contact._relation(X).contact
    cliques = _rec.maximal_cliques(contact)
    for perm in _rec.kernel_subgroup(X):
        _witness(_rec.verify_automorphism, contact, perm)
        moved = " ".join(str(h) for h in perm if perm[h] != h)
        for cl in cliques:
            if {perm[h] for h in cl} != set(cl):
                raise LemmaViolation(
                    f"I0 transposition ({moved}) moves maximal clique {cl}"
                )
    return ()


def _davis(pair, gamma, radius):
    """The reflection fixes every hyperplane transverse or equal to the
    a-hyperplane (so the piecewise phi is consistent), no contact edge joins
    the two halves, phi preserves contact, and rho(phi) breaks the square."""
    ball = _rg.build_ball(gamma, _rg.COXETER, radius)
    d = _witness(_rg.davis_phi, ball, *pair)
    C = _contact._relation(ball.complex).contact
    for hid, part in d.partition.items():
        if part == "T" and d.reflected.get(hid, hid) != hid:
            raise LemmaViolation(f"reflection moves transverse hyperplane {hid}")

    plus = [h for h, p in d.partition.items() if p == "A+"]
    minus = [h for h, p in d.partition.items() if p == "A-"]
    for i, j in np.argwhere(C[np.ix_(plus, minus)])[:1].tolist():
        raise LemmaViolation(
            f"contact edge between halves: {plus[i]} (A+), {minus[j]} (A-)")
    ids = sorted(d.phi)
    img = [d.phi[h] for h in ids]
    broken = np.triu(C[np.ix_(ids, ids)] != C[np.ix_(img, img)], 1)
    for i, j in np.argwhere(broken)[:1].tolist():
        raise LemmaViolation(f"phi breaks contact adjacency on ({ids[i]}, {ids[j]})")
    if d.broken_edge is None:
        raise LemmaViolation(
            f"rho(phi) preserves the square at {d.witness_square[0]!r}; "
            "no witness found")
    return {"witness": {
        "square": list(d.witness_square),
        "broken_edge": list(d.broken_edge),
        "a_hyperplane": d.a_hyperplane,
        "b_hyperplane": d.b_hyperplane,
    }}


def _twist(pair, gamma, radius):
    """The twist fixes the carrier of its hyperplane pointwise (carrier words
    avoid y, so the two pieces agree there) and is a ball automorphism."""
    ball = _rg.build_ball(gamma, _rg.ARTIN, radius)
    tw = _witness(_rg.halfspace_twist, ball, *pair)
    X = ball.complex
    carrier = np.flatnonzero(X.carriers[tw.hyperplane]).tolist()
    for v in sorted(X.vertices[i] for i in carrier):
        image = tw.perm.get(v)
        if image != v:
            raise LemmaViolation(
                f"inverting {pair[1]} moves carrier vertex {v} to {image}")
    index = X.index  # an image outside the ball is no bijection
    perm = {index.get(v, -1): index.get(w, -1) for v, w in tw.perm.items()}
    _witness(_rec.verify_automorphism, X.adjacency, perm)
    return {"witness": {"hyperplane": tw.hyperplane, "moved": len(tw.moved)}}


def _extension_graph(gamma, radius):
    ball = _rg.build_ball(gamma, _rg.ARTIN, radius)
    cmp_ = _rg.extension_graph_ball(ball)["comparison"]
    if cmp_ is None:
        return {}
    if cmp_.get("skipped"):
        return {"skipped": cmp_["skipped"]}
    if not cmp_["isomorphic"]:
        raise LemmaViolation(
            "truncated extension graph differs from the interior reduced "
            "crossing graph"
        )
    return {}


# suite -> (anchor, check).  A check takes one instance and returns its
# violations, or (the group suites) a dict of extra entry fields; it raises
# LemmaViolation to report one witness for the instance.
_TABLE = {
    "helly": (
        "halfspaces and carriers are convex; four pairwise-intersecting "
        "convex sets share a vertex", _helly),
    "cliques": (
        "cliques of the contact graph are vertex hyperplane sets; maximal "
        "cliques are exactly the maximal W_v", _cliques),
    "cone-links": (
        "W_v is contained in W_w for some other vertex w exactly when the "
        "link of v is a cone", _cone_links),
    "iw": (
        "I(w) matches its transversality characterization, I0 classes "
        "partition the hyperplanes, and |I(w)| is at most the dimension", _iw),
    "criterion": (
        "non-adjacent vertices always admit a third vertex x with "
        "W_v ^ W_w contained in W_v ^ W_x", _criterion),
    "roundtrip": (
        "the contact graph determines the interior 1-skeleton through "
        "maximal cliques, and rho inverts iota on interior vertices; for a "
        "coxeter ball, when the defining graph is no cone and has no "
        "St a <= St b with a != b", _roundtrip),
    "kernel": (
        "transpositions within I0 classes generate contact automorphisms "
        "of order two fixing every maximal clique", _kernel),
    "davis": (
        "reflection automorphism of the contact graph with a "
        "square-breaking vertex image", _davis),
    "twist": (
        "piecewise halfspace automorphism fixing a carrier pointwise", _twist),
    "extension-graph": (
        "the truncated extension graph matches the interior reduced "
        "crossing graph when all defining-graph links are distinct",
        _extension_graph),
}
SUITES = tuple(_TABLE)
GROUP_SUITES = frozenset({"roundtrip", "davis", "twist", "extension-graph"})  # need a graph


def _run(suite, instances, *args):
    """The report entry of one suite's check over (name, instance) pairs.

    Violations get their instance's name, unless it is None (the group
    suites, which check one generator pair or graph).  With several
    instances, each skipped reason is prefixed by its instance's name and
    the reasons are joined.  An instance over a size or clique limit, or a
    ball too small for its construction, is listed under "refused" with the
    error's message, and the other instances still run; so is one given as
    a function of no arguments that builds it, when the build is refused.
    args follow the instance in each call.
    """
    anchor, check = _TABLE[suite]
    t0 = time.perf_counter()
    violations, extra, skipped, refused = [], {}, [], []
    for name, instance in instances:
        label = {} if name is None else {"instance": name}
        try:
            found = check(instance() if callable(instance) else instance, *args)
            if isinstance(found, dict):
                if len(instances) > 1 and "skipped" in found:
                    skipped.append(f"{name}: {found.pop('skipped')}")
                extra.update(found)
                continue
            for v in found:
                violations.append({**label, **v})
        except LemmaViolation as ex:
            violations.append({**label, "witness": str(ex)})
        except _REFUSED as ex:
            refused.append({**label, "reason": str(ex)})
    if skipped:
        extra["skipped"] = "; ".join(skipped)
    if refused:
        extra["refused"] = refused
    return {
        "lemmaId": suite,
        "anchor": anchor,
        "instancesChecked": len(instances),
        "violations": violations,
        "seconds": round(time.perf_counter() - t0, 3),
        **extra,
    }


def skipped_entry(suite, reason):
    """The report entry of a suite that was not run, with the reason."""
    return {**_run(suite, []), "skipped": reason}


def suite_helly(instances):
    return _run("helly", instances)


def suite_cliques(instances):
    return _run("cliques", instances)


def suite_cone_links(instances):
    return _run("cone-links", instances)


def suite_iw(instances):
    return _run("iw", instances)


def suite_criterion(instances):
    return _run("criterion", instances)


def suite_roundtrip(balls, margin=2):
    return _run("roundtrip", balls, margin)


def suite_kernel(instances):
    return _run("kernel", instances)


def suite_davis(gamma, radius, a=None, b=None):
    if a is None or b is None:
        pairs = _star_containments(gamma)
        if not pairs:
            return skipped_entry("davis", "no star containment in the defining graph")
        a, b = pairs[0]
    return _run("davis", [(None, (a, b))], gamma, radius)


def suite_twist(gamma, radius, x=None, y=None):
    if x is None or y is None:
        pairs = [
            (u, v)
            for u, v in combinations(gamma.vertices, 2)
            if not gamma.commute(u, v)
        ]
        if not pairs:
            return skipped_entry("twist", "the defining graph is complete")
        x, y = pairs[0]
    return _run("twist", [(None, (x, y))], gamma, radius)


def suite_extension_graph(gamma, radius):
    return _run("extension-graph", [(None, gamma)], radius)


def run_suites(names, instances=None, balls=None, gamma=None, radius=None):
    """Dispatch suites by name; returns the list of report entries.  Without
    gamma, each group suite is reported skipped (its balls are built from
    the graph)."""
    args = {
        "roundtrip": (balls or [],),
        "davis": (gamma, 4 if radius is None else radius),
        "twist": (gamma, 3 if radius is None else radius),
        "extension-graph": (gamma, 3 if radius is None else radius),
    }
    report = []
    for name in names:
        if name not in _TABLE:
            raise ValueError(f"unknown suite {name!r}")
        if gamma is None and name in GROUP_SUITES:
            report.append(skipped_entry(name, "needs --graph"))
            continue
        # looked up when called, so wrappers set on the module apply
        suite = globals()["suite_" + name.replace("-", "_")]
        report.append(suite(*args.get(name, (instances or [],))))
    return report
