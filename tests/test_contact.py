"""Contact, crossing and reduced crossing graphs; interaction sets."""

from itertools import combinations

import pytest
from conftest import adjacency_of

from cubetact import contact as ct
from cubetact import median as md
from cubetact import reconstruction as rc
from cubetact import verify as vf
from cubetact.errors import NotAnAutomorphism


def test_square_transverse():
    X = md.builtin_complex("SQUARE")
    h1, h2 = range(len(X.sides))
    assert ct.interaction(X, h1, h2) == "transverse"
    assert ct.interaction(X, h1, h1) == "equal"


def test_tripod_osculating_triangle():
    X = md.builtin_complex("TRIPOD")
    ids = list(range(len(X.sides)))
    assert len(ids) == 3
    for u, w in combinations(ids, 2):
        assert ct.interaction(X, u, w) == "contact_osculating"
    F = ct.build_contact_family(X)
    contact, crossing = adjacency_of(F.contact), adjacency_of(F.crossing)
    assert all(len(contact[h]) == 2 for h in ids)  # contact triangle
    assert all(not crossing[h] for h in ids)  # no squares anywhere


def test_path3_separated():
    X = md.builtin_complex("PATH3")
    h0 = X.hyperplane_of_edge("0", "1")
    h2 = X.hyperplane_of_edge("2", "3")
    assert ct.interaction(X, h0, h2) == "separated"
    h1 = X.hyperplane_of_edge("1", "2")
    assert ct.interaction(X, h0, h1) == "contact_osculating"


def test_domino_graphs():
    X = md.builtin_complex("DOMINO")
    F = ct.build_contact_family(X)
    long = X.hyperplane_of_edge("00", "01")  # dual to the three y-edges
    v1, v2 = sorted(set(range(len(X.sides))) - {long})
    contact, crossing = adjacency_of(F.contact), adjacency_of(F.crossing)
    # contact graph is a triangle
    assert contact[long] == {v1, v2}
    assert contact[v1] == {long, v2}
    # crossing graph is the path v1 - long - v2
    assert crossing[long] == {v1, v2}
    assert crossing[v1] == {long}
    assert crossing[v2] == {long}
    # verticals osculate, they do not cross
    assert ct.interaction(X, v1, v2) == "contact_osculating"


def test_reduced_modes_domino():
    X = md.builtin_complex("DOMINO")
    for mode in ct.REDUCED_MODES:
        F = ct.build_contact_family(X, mode=mode)
        sizes = sorted(len(c) for c in F.classes)
        assert sizes == [1, 2], mode


def test_reduced_modes_q3():
    X = md.builtin_complex("Q3")
    # the three hyperplanes are pairwise transverse: excluding the compared
    # pair makes all neighborhoods equal, keeping it makes them all distinct
    F1 = ct.build_contact_family(X, mode="self-exclusive")
    assert len(F1.classes) == 1
    F2 = ct.build_contact_family(X, mode="strict")
    assert len(F2.classes) == 3


def test_reduced_mode_validation():
    X = md.builtin_complex("SQUARE")
    with pytest.raises(ValueError):
        ct.build_contact_family(X, mode="bogus")


def test_interaction_sets_square():
    X = md.builtin_complex("SQUARE")
    s = ct.interaction_sets(X, 0)
    assert s.I == frozenset({0, 1})
    assert s.I0 == frozenset({0, 1})  # both carriers are the whole square


def test_interaction_sets_tripod():
    X = md.builtin_complex("TRIPOD")
    for h in range(len(X.sides)):
        s = ct.interaction_sets(X, h)
        assert s.I == frozenset({h})
        assert s.I0 == frozenset({h})


def test_interaction_sets_domino():
    X = md.builtin_complex("DOMINO")
    long = X.hyperplane_of_edge("00", "01")  # dual to the three y-edges
    for h in range(len(X.sides)):
        s = ct.interaction_sets(X, h)
        if h == long:
            assert s.I == frozenset({long})
        else:
            # each vertical sees the long hyperplane in its I
            assert s.I == frozenset({h, long})
        assert s.I0 == frozenset({h})


def test_interaction_sets_random():
    for seed in (3, 7, 11):
        X = md.random_median_complex(6, 5, seed)
        isets = ct.all_interaction_sets(X)
        for s in isets.values():
            assert s.base in s.I
            assert s.I0 <= s.I
            assert len(s.I) <= X.dimension


def test_crossing_automorphism_checks():
    X = md.builtin_complex("Q3")
    F = ct.build_contact_family(X)
    ids = sorted(adjacency_of(F.contact))
    ok = {h: h for h in ids}
    rc.verify_automorphism(F.crossing, ok)
    rotate = dict(zip(ids, ids[1:] + ids[:1]))
    rc.verify_automorphism(F.crossing, rotate)  # K3 is symmetric
    with pytest.raises(NotAnAutomorphism):
        rc.verify_automorphism(F.crossing, {h: ids[0] for h in ids})


def test_pushforward_reduced():
    X = md.builtin_complex("DOMINO")
    F = ct.build_contact_family(X)
    ids = sorted(adjacency_of(F.contact))
    long = X.hyperplane_of_edge("00", "01")  # dual to the three y-edges
    v1, v2 = sorted(h for h in ids if h != long)
    swap = {long: long, v1: v2, v2: v1}
    induced = ct.pushforward_reduced(F, swap)
    assert sorted(induced) == sorted(induced.values())
    bad = {long: v1, v1: long, v2: v2}
    with pytest.raises(NotAnAutomorphism):
        ct.pushforward_reduced(F, bad)


def test_family_to_json_shape():
    X = md.builtin_complex("DOMINO")
    F = ct.build_contact_family(X)
    doc = ct.family_to_json(F)
    assert doc["mode"] == "self-exclusive"
    assert len(doc["contact"]["edges"]) == 3
    assert len(doc["crossing"]["edges"]) == 2
    assert sorted(map(len, doc["reduced"]["classes"])) == [1, 2]


def test_graph_to_dot():
    X = md.builtin_complex("SQUARE")
    F = ct.build_contact_family(X)
    dot = ct.graph_to_dot(F.contact, "contact")
    assert "graph contact {" in dot and "--" in dot


def test_shared_graphs_are_read_only():
    """The contact and crossing matrices are the relation cached on the
    complex, so a write into them, or into the other shared arrays, raises
    instead of corrupting every later result on the complex."""
    X = md.builtin_complex("DOMINO")
    F = ct.build_contact_family(X)
    rel = ct._relation(X)
    assert F.contact is rel.contact and F.crossing is rel.transverse
    for M in (rel.contact, rel.transverse, rel.I, F.reduced):
        with pytest.raises(ValueError):
            M[0, 1] = True
    with pytest.raises(ValueError):
        F.class_of[0] = 1


def test_missing_square_is_a_lemma_violation():
    X = md.builtin_complex("DOMINO")
    broken = md.CubeComplex(X.vertices, X.edges, X._dist, X.squares[1:])
    (violation,) = vf.suite_cliques([("broken", broken)])["violations"]
    assert violation["instance"] == "broken"
    assert "share a square=False" in violation["witness"]

