"""The suites own the theorem checks: each check is live through its suite,
and the runner labels, converts and times uniformly."""

import dataclasses

import numpy as np
import pytest
from conftest import adjacency_of

from cubetact import contact as ct
from cubetact import median as md
from cubetact import ragroups as rg
from cubetact import reconstruction as rc
from cubetact import verify as vf
from cubetact.errors import CliqueLimitExceeded, LemmaViolation


def witnesses(entry):
    return [v["witness"] for v in entry["violations"]]


def patch_relation(monkeypatch, **fields):
    real = ct._relation
    monkeypatch.setattr(
        ct, "_relation",
        lambda X: dataclasses.replace(real(X), **{
            k: f(real(X)) for k, f in fields.items()}),
    )


def test_cliques_checks_separators(monkeypatch):
    # with no contact at all, the touching carriers of PATH3 have no separator
    patch_relation(monkeypatch, contact=lambda rel: np.zeros_like(rel.contact))
    (w,) = witnesses(vf.suite_cliques([("p", md.builtin_complex("PATH3"))]))
    assert w == "hyperplanes 0 and 1 have disjoint carriers but no separator"


def test_iw_checks_the_characterization(monkeypatch):
    patch_relation(monkeypatch, I=lambda rel: np.eye(len(rel.I), dtype=bool))
    entry = vf.suite_iw([("sq", md.builtin_complex("SQUARE"))])
    assert entry["violations"] == [
        {"instance": "sq", "witness": "I(0) definitional [0] != characterization [0, 1]"}
    ]


def test_cliques_checks_every_maximal_clique_is_a_vertex_set(monkeypatch):
    real = rc.maximal_cliques
    monkeypatch.setattr(rc, "maximal_cliques",
                        lambda adj, cap=None: real(adj) + [(0,)])
    (w,) = witnesses(vf.suite_cliques([("sq", md.builtin_complex("SQUARE"))]))
    assert w == "maximal clique (0,) equals no W_v"


def test_cliques_checks_extremal_vertices(monkeypatch):
    real = rc.extremality
    monkeypatch.setattr(rc, "extremality",
                        lambda X: {v: not e for v, e in real(X).items()})
    (w,) = witnesses(vf.suite_cliques([("sq", md.builtin_complex("SQUARE"))]))
    assert w == "vertex 00: maximal-and-unique=False but extremal=False"


def test_cone_links_checks_extremality(monkeypatch):
    # PATH3 is the path 0 - 1 - 2 - 3; its inner vertex 1 is not extremal
    real = md.extremality
    monkeypatch.setattr(md, "extremality",
                        lambda X: {**real(X), "1": not real(X)["1"]})
    entry = vf.suite_cone_links([("p", md.builtin_complex("PATH3"))])
    assert entry["violations"] == [{"instance": "p", "vertex": "1"}]


def test_criterion_checks_each_row(monkeypatch):
    # row 0 of PATH3 joins vertex 1 only; flipped, it joins the non-neighbours
    real = rc._joined
    monkeypatch.setattr(rc, "_joined", lambda sets, i, members: real(sets, i, members) if i
                        else [j for j in range(1, len(sets)) if j not in real(sets, 0, members)])
    entry = vf.suite_criterion([("p", md.builtin_complex("PATH3"))])
    assert entry["violations"] == [
        {"instance": "p", "pair": ["0", "2"]}, {"instance": "p", "pair": ["0", "3"]}]


@pytest.mark.parametrize("u, w, witness", [
    (0, 1, "adjacency broken at 0"),
    (0, 2, "I0 transposition (0 2) moves maximal clique (0, 1)"),
])
def test_kernel_checks_each_transposition(monkeypatch, u, w, witness):
    X = md.builtin_complex("PATH3")  # contact graph: the path 0 - 1 - 2
    perm = {0: 0, 1: 1, 2: 2, u: w, w: u}
    monkeypatch.setattr(rc, "kernel_subgroup", lambda X: [perm])
    assert witnesses(vf.suite_kernel([("p", X)])) == [witness]


def replace(**fields):
    """A corruption of a construction's result: its fields, recomputed."""
    return lambda out: dataclasses.replace(
        out, **{k: f(out) for k, f in fields.items()})


@pytest.mark.parametrize("corrupt, witness", [
    (replace(phi=lambda d: {**d.phi, 0: 2, 2: 0}),
     "phi breaks contact adjacency on (0, 4)"),
    (replace(partition=lambda d: {**d.partition, 0: "A+"}),
     "contact edge between halves: 0 (A+), 2 (A-)"),
    (replace(reflected=lambda d: {**d.reflected, 0: 1}),
     "reflection moves transverse hyperplane 0"),
    (replace(broken_edge=lambda d: None),
     "rho(phi) preserves the square at '1'; no witness found"),
], ids=["contact", "halves", "transverse", "square"])
def test_davis_checks_the_reflection(monkeypatch, corrupt, witness):
    # on the P4 ball, phi moves the A+ hyperplane 5 and fixes the rest
    real = rg.davis_phi
    monkeypatch.setattr(rg, "davis_phi", lambda *a: corrupt(real(*a)))
    P4 = rg.builtin_defining_graph("P4")
    assert witnesses(vf.suite_davis(P4, 4, "a", "b")) == [witness]


@pytest.mark.parametrize("corrupt, witness", [
    (replace(perm=lambda t: {**t.perm, "1": "c", "c": "1"}),
     "inverting c moves carrier vertex 1 to c"),
    (replace(perm=lambda t: {**t.perm, "c": "d"}),
     "not a bijection of the vertex set"),
    (replace(perm=lambda t: {**t.perm, "c": "c^3"}),
     "not a bijection of the vertex set"),
    (replace(perm=lambda t: {**t.perm, "c": t.perm["d"], "d": t.perm["c"]}),
     "adjacency broken at 5"),
], ids=["carrier", "bijection", "outside", "adjacency"])
def test_twist_checks_the_automorphism(monkeypatch, corrupt, witness):
    # "1" is on the carrier of the a-hyperplane at the identity, "c" is not;
    # "c" is vertex 5 of the ball, and "c^3" lies outside it
    real = rg.halfspace_twist
    monkeypatch.setattr(rg, "halfspace_twist", lambda *a: corrupt(real(*a)))
    C5 = rg.builtin_defining_graph("C5")
    assert witnesses(vf.suite_twist(C5, 2, "a", "c")) == [witness]


def test_core_does_not_check(monkeypatch):
    """A broken square set no longer stops the contact family or the atlas."""
    X = md.builtin_complex("DOMINO")
    broken = md.CubeComplex(X.vertices, X.edges, X._dist, X.squares[1:])
    assert adjacency_of(ct.build_contact_family(broken).contact) == adjacency_of(
        ct.build_contact_family(X).contact)
    assert rc.clique_atlas(broken).cliques == rc.clique_atlas(X).cliques


def test_runner_labels_instances_and_converts_lemma_violations(monkeypatch):
    def check(X):
        yield {"found": len(X)}
        raise LemmaViolation("the witness")

    monkeypatch.setitem(vf._TABLE, "cone-links", ("the anchor", check))
    X = md.builtin_complex("SQUARE")
    entry = vf.suite_cone_links([("a", X), ("b", X)])
    assert entry["violations"] == [
        {"instance": "a", "found": 4}, {"instance": "a", "witness": "the witness"},
        {"instance": "b", "found": 4}, {"instance": "b", "witness": "the witness"},
    ]
    assert entry["anchor"] == "the anchor" and entry["instancesChecked"] == 2
    assert set(entry) == {"lemmaId", "anchor", "instancesChecked",
                          "violations", "seconds"}


def without_seconds(entries):
    return [{k: v for k, v in e.items() if k != "seconds"} for e in entries]


def test_a_refused_instance_is_reported_and_the_run_goes_on(monkeypatch):
    """An instance over a size limit (here the Helly check's, 1 MiB) or the
    clique cap is listed under "refused" with the limit's message, beside
    its suite's violations; the other instances and suites run as before."""
    X, Y = md.builtin_complex("SQUARE"), md.builtin_complex("PATH3")
    instances = [("sq", X), ("p", Y)]
    before = vf.run_suites(vf.SUITES, instances=instances)  # caches the pair tables
    monkeypatch.setattr(md, "_ALLOC_LIMIT", 1 << 20)
    real = rc.clique_atlas

    def atlas(Z):
        if Z is Y:
            raise CliqueLimitExceeded("more than 7 maximal cliques")
        return real(Z)

    monkeypatch.setattr(rc, "clique_atlas", atlas)
    after = vf.run_suites(vf.SUITES, instances=instances)
    helly, cliques = after[0], after[1]
    assert [r["instance"] for r in helly["refused"]] == ["sq", "p"]
    assert helly["refused"][0]["reason"].startswith("the Helly check of ")
    assert helly["refused"][0]["reason"].endswith(" over the limit of 1048576")
    assert cliques["refused"] == [{"instance": "p", "reason": "more than 7 maximal cliques"}]
    assert helly["violations"] == cliques["violations"] == []
    assert helly["instancesChecked"] == cliques["instancesChecked"] == 2
    assert without_seconds(after[2:]) == without_seconds(before[2:])
    assert all("refused" not in e for e in before)


def test_roundtrip_hypothesis_is_exact_on_small_graphs():
    """On the coxeter ball (radius 3, margin 2) of each of the 52 graphs
    with 1-5 vertices, interior_roundtrip finds a violation exactly when
    the suite skips the ball: the graph is a cone or has St a <= St b."""
    nx = pytest.importorskip("networkx")
    skipped = 0
    for G in nx.graph_atlas_g()[1:53]:
        names = "abcde"[:G.number_of_nodes()]
        gamma = rg.DefiningGraph(names, [(names[u], names[v]) for u, v in G.edges])
        ball = rg.build_ball(gamma, rg.COXETER, 3)
        skip = vf._roundtrip(ball, 2)
        violations = vf.interior_roundtrip(ball, 2)
        assert bool(violations) == isinstance(skip, dict), sorted(G.edges)
        skipped += isinstance(skip, dict)
    assert skipped == 44


def test_roundtrip_lists_its_violations_in_vertex_order():
    """At margin 0 the P4 coxeter ball of radius 3 misses 18 interior
    vertices; they are listed in X.vertices order, and the rho mismatches
    by generator, then vertex, so the report does not follow set order."""
    ball = rg.build_ball(rg.builtin_defining_graph("P4"), rg.COXETER, 3)
    V = ball.complex.vertices
    violations = vf.interior_roundtrip(ball, 0)
    missing = [v["missing_interior_vertex"] for v in violations
               if "missing_interior_vertex" in v]
    assert len(missing) == 18
    assert missing == [v for v in V if v in set(missing)]
    assert missing[:4] == ["a.b.c", "a.b.d", "a.c.a", "a.c.d"]
    rho = [(v["generator"], V.index(v["vertex"])) for v in violations if "rho" in v]
    assert rho == sorted(rho, key=lambda gv: (ball.gamma.order[gv[0]], gv[1]))


@pytest.mark.parametrize("graph, reason", [
    ("P4", "coxeter ball with St a <= St b for (a, b) in [('a', 'b'), ('d', 'c')]"),
    ("SINGLE", "coxeter ball over a cone"),
], ids=["P4", "SINGLE"])
def test_roundtrip_skips_outside_its_hypothesis(graph, reason):
    ball = rg.build_ball(rg.builtin_defining_graph(graph), rg.COXETER, 3)
    entry = vf.suite_roundtrip([(graph, ball)])
    assert entry["skipped"] == reason and entry["violations"] == []
    assert "St a <= St b" in entry["anchor"]


@pytest.mark.parametrize("order", [("P4", "C5"), ("C5", "P4")], ids=["P4-C5", "C5-P4"])
def test_several_balls_name_each_skipped_reason(order, y_c5_r3):
    """With several balls, the entry names the ball its skipped reason is
    from, in either order; C5 is checked and adds no reason."""
    balls = {"P4": rg.build_ball(rg.builtin_defining_graph("P4"), rg.COXETER, 3),
             "C5": y_c5_r3}
    entry = vf.suite_roundtrip([(name, balls[name]) for name in order])
    assert entry["skipped"] == (
        "P4: coxeter ball with St a <= St b for (a, b) in [('a', 'b'), ('d', 'c')]")
    assert entry["violations"] == [] and entry["instancesChecked"] == 2
