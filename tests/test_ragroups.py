"""Normal forms, group balls, star analysis and the exotic automorphisms."""

import random
from collections import deque
from itertools import combinations

import pytest

from cubetact import median as md
from cubetact import ragroups as rg
from cubetact.errors import (
    BallTooSmall,
    GeneratorsAdjacent,
    LemmaViolation,
    NotACone,
    SizeLimitExceeded,
    StarNotContained,
    UnknownGenerator,
    UnknownVertex,
)


# ---------------------------------------------------------------------------
# Normal forms

def test_normal_form_examples():
    p4 = rg.builtin_defining_graph("P4")
    # a and b commute, so abab collapses to the identity in the coxeter group
    w = rg.normal_form(p4, rg.COXETER, [("a", 1), ("b", 1), ("a", 1), ("b", 1)])
    assert w == ()
    c5 = rg.builtin_defining_graph("C5")
    # a and c do not commute: aca is already reduced
    w = rg.normal_form(c5, rg.COXETER, [("a", 1), ("c", 1), ("a", 1)])
    assert rg.word_length(rg.COXETER, w) == 3
    f2 = rg.builtin_defining_graph("F2")
    assert rg.normal_form(f2, rg.ARTIN, [("x", 1), ("x", -1)]) == ()
    assert rg.normal_form(f2, rg.ARTIN, [("x", 2), ("x", -1)]) == (("x", 1),)


def test_normal_form_kind_validation():
    f2 = rg.builtin_defining_graph("F2")
    with pytest.raises(ValueError):
        rg.normal_form(f2, "bogus", [])
    with pytest.raises(UnknownGenerator):
        rg.normal_form(f2, rg.ARTIN, [("z", 1)])


def test_reserved_identity_name():
    with pytest.raises(ValueError):
        rg.DefiningGraph(["1", "a"], [])


def test_format_parse_roundtrip():
    words = [(), (("a", 1),), (("a", 1), ("b", -2)), (("x", 3),)]
    for w in words:
        assert rg.parse_word(rg.format_word(w)) == w
    assert rg.format_word(()) == "1"


def test_inverse_and_length():
    f2 = rg.builtin_defining_graph("F2")
    w = rg.normal_form(f2, rg.ARTIN, [("x", 2), ("y", -1)])
    assert rg.word_length(rg.ARTIN, w) == 3
    inv = rg.nf_inverse(rg.ARTIN, w)
    assert rg.nf_mult(f2, rg.ARTIN, w, inv) == ()
    c5 = rg.builtin_defining_graph("C5")
    u = rg.normal_form(c5, rg.COXETER, [("a", 1), ("c", 1)])
    assert rg.nf_mult(c5, rg.COXETER, u, rg.nf_inverse(rg.COXETER, u)) == ()


def _letters(gamma, kind):
    if kind == rg.COXETER:
        return [(g, 1) for g in gamma.vertices]
    return [(g, s) for g in gamma.vertices for s in (1, -1)]


def _oracle_minimal_words(gamma, kind, word):
    """All minimal-length words of an element by closing under elementary
    moves: cancel an adjacent inverse pair, swap adjacent commuting letters.
    Independent of the normal form code.
    """
    def cancels(a, b):
        if a[0] != b[0]:
            return False
        if kind == rg.COXETER:
            return True
        return a[1] == -b[1]

    start = tuple(word)
    seen = {start}
    queue = deque([start])
    while queue:
        w = queue.popleft()
        for i in range(len(w) - 1):
            if cancels(w[i], w[i + 1]):
                nxt = w[:i] + w[i + 2:]
            elif w[i][0] != w[i + 1][0] and gamma.commute(w[i][0], w[i + 1][0]):
                nxt = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
            else:
                continue
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    m = min(map(len, seen))
    return frozenset(w for w in seen if len(w) == m)


@pytest.mark.parametrize(
    "name,kind",
    [("P4", rg.COXETER), ("C5", rg.COXETER), ("F2", rg.ARTIN),
     ("STAR_EQ5", rg.COXETER), ("EDGE2", rg.ARTIN)],
)
def test_word_problem_oracle(name, kind):
    gamma = rg.builtin_defining_graph(name)
    letters = _letters(gamma, kind)
    rnd = random.Random(hash((name, kind)) & 0xFFFF)
    for _ in range(60):
        w1 = [rnd.choice(letters) for _ in range(rnd.randint(0, 5))]
        w2 = [rnd.choice(letters) for _ in range(rnd.randint(0, 5))]
        same_nf = rg.normal_form(gamma, kind, w1) == rg.normal_form(gamma, kind, w2)
        same_oracle = (
            _oracle_minimal_words(gamma, kind, w1)
            == _oracle_minimal_words(gamma, kind, w2)
        )
        assert same_nf == same_oracle, (w1, w2)


def test_initial_letters():
    p4 = rg.builtin_defining_graph("P4")
    # in a.b the letters commute, so both can start the word
    u = rg.normal_form(p4, rg.COXETER, [("a", 1), ("b", 1)])
    assert rg.initial_letters(p4, rg.COXETER, u) == {("a", 1), ("b", 1)}
    # a and c do not commute: only a can start a.c
    w = rg.normal_form(p4, rg.COXETER, [("a", 1), ("c", 1)])
    assert rg.initial_letters(p4, rg.COXETER, w) == {("a", 1)}


def test_ambient_median_prefix():
    c5 = rg.builtin_defining_graph("C5")
    x = ()
    y = rg.parse_word("a.b")
    z = rg.parse_word("a.c")
    m = rg.ambient_median(c5, rg.COXETER, x, y, z)
    assert m == (("a", 1),)


# ---------------------------------------------------------------------------
# Balls

def test_single_balls():
    single = rg.builtin_defining_graph("SINGLE")
    B = rg.build_ball(single, rg.COXETER, 1)
    assert len(B.complex) == 2 and len(B.complex.edges) == 1
    B2 = rg.build_ball(single, rg.ARTIN, 2)
    # the segment x^-2 .. x^2
    assert len(B2.complex) == 5 and len(B2.complex.edges) == 4


def test_z2_ball_size(z2_r3):
    B = rg.build_ball(rg.builtin_defining_graph("EDGE2"), rg.ARTIN, 2)
    # the l1 disc of radius 2 in the grid
    assert len(B.complex) == 13
    assert len(z2_r3.complex) == 25
    assert z2_r3.complex.dimension == 2


def test_ball_depth_and_words(z2_r3):
    B = z2_r3
    assert B.depth[B.basepoint] == B.radius
    assert B.word("x^2") == (("x", 2),)
    assert B.vertex_of_word((("x", 1), ("y", 1))) in B.words
    with pytest.raises(UnknownVertex):
        B.word("nope")


def test_ball_closure_can_exceed_radius(y_st5_r3):
    # the median closure adds vertices past the radius; their depth is
    # negative and they are never interior
    deep = [v for v, d in y_st5_r3.depth.items() if d < 0]
    assert deep
    assert not set(deep) & y_st5_r3.interior_vertices(0)


def test_ball_closure_checks_named_medians(monkeypatch):
    st5 = rg.builtin_defining_graph("STAR_EQ5")
    assert len(rg.build_ball(st5, rg.COXETER, 2).complex) == 21  # 19 + 2 medians
    with pytest.raises(SizeLimitExceeded):
        rg.build_ball(st5, rg.COXETER, 2, cap=20)
    monkeypatch.setattr(rg, "ambient_median", lambda gamma, kind, x, y, z: x)
    with pytest.raises(LemmaViolation, match="majority of their walls"):
        rg.build_ball(st5, rg.COXETER, 2)


def test_ball_of_the_trivial_group():
    X = rg.build_ball(rg.DefiningGraph([], []), rg.ARTIN, 1).complex
    assert X.vertices == ("1",) and not X.edges and X._dist.tolist() == [[0]]


def test_hyperplane_labels(z2_r3):
    labels = set(z2_r3.labels.values())
    assert labels == {"x", "y"}
    for e, g in z2_r3.edge_label.items():
        h = z2_r3.complex.hyperplane_of_edge(*tuple(e))
        assert z2_r3.labels[h.id] == g


def test_expected_link_counts():
    c5 = rg.builtin_defining_graph("C5")
    nodes, adj = rg.expected_link(c5, rg.COXETER)
    assert len(nodes) == 5 and len(adj) == 5
    e2 = rg.builtin_defining_graph("EDGE2")
    nodes, adj = rg.expected_link(e2, rg.ARTIN)
    assert len(nodes) == 4 and len(adj) == 4  # x-germs joined to y-germs


def test_check_ball_links(y_c5_r3, z2_r3):
    rg.check_ball_links(y_c5_r3)
    rg.check_ball_links(z2_r3)


def test_ball_to_json(z2_r3):
    doc = rg.ball_to_json(z2_r3)
    assert doc["kind"] == rg.ARTIN and doc["radius"] == 3
    assert set(doc["labels"].values()) == {"x", "y"}
    assert doc["depth"]["1"] == 3


# ---------------------------------------------------------------------------
# Star analysis and interaction sets

def test_graph_star_analysis_p4():
    report = rg.graph_star_analysis(rg.builtin_defining_graph("P4"))
    assert ("a", "b") in report["star_containments"]
    assert ("d", "c") in report["star_containments"]
    assert report["equal_stars"] == []
    assert not report["is_cone"]


def test_graph_star_analysis_c5():
    report = rg.graph_star_analysis(rg.builtin_defining_graph("C5"))
    assert report["star_containments"] == []
    assert report["equal_stars"] == []
    assert report["equal_links"] == []


def test_graph_star_analysis_star_eq5():
    report = rg.graph_star_analysis(rg.builtin_defining_graph("STAR_EQ5"))
    assert ("a", "b") in report["equal_stars"]


def test_graph_star_analysis_cone():
    report = rg.graph_star_analysis(rg.builtin_defining_graph("EDGE2"))
    assert report["is_cone"]
    assert report["join_rest"] == []


def test_star_inclusion_c5(y_c5_r3):
    report = rg.star_inclusion_I_check(y_c5_r3)
    assert report["mismatches"] == []
    assert report["hyperplanes"]
    # C5 has no star containments, so every I is a singleton
    for hid, entry in report["hyperplanes"].items():
        assert entry["I"] == [hid]
        assert entry["I0"] == [hid]


def test_star_inclusion_p4(y_p4_r4):
    report = rg.star_inclusion_I_check(y_p4_r4)
    assert report["mismatches"] == []
    # St a <= St b: some a-labelled hyperplane has a b-hyperplane in its I
    labels = y_p4_r4.labels
    found = False
    for hid, entry in report["hyperplanes"].items():
        if entry["label"] == "a" and len(entry["I"]) > 1:
            assert {labels[u] for u in entry["I"]} == {"a", "b"}
            assert entry["I0"] == [hid]
            found = True
    assert found


def test_star_inclusion_star_eq5(y_st5_r3):
    report = rg.star_inclusion_I_check(y_st5_r3)
    assert report["mismatches"] == []
    labels = y_st5_r3.labels
    # equal stars of a and b produce two-element I0 classes
    assert any(
        len(entry["I0"]) == 2
        and {labels[u] for u in entry["I0"]} == {"a", "b"}
        for entry in report["hyperplanes"].values()
    )


def test_star_inclusion_formula_counts_osculating_hyperplanes():
    """Near the boundary the formula ranges over carrier contact, not only
    transversality: on the whole P4/coxeter/2 ball, hyperplane 5 (label d)
    osculates 4 (label c) and 6 (d) osculates 2 (c), St d <= St c, and I
    stays a singleton, so the formula and I differ there."""
    ball = rg.build_ball(rg.builtin_defining_graph("P4"), rg.COXETER, 2)
    assert (len(ball.complex), len(ball.complex.hyperplanes)) == (14, 10)
    report = rg.star_inclusion_I_check(ball, margin=0)
    entries = report["hyperplanes"]
    assert entries[5]["formula_I"] == [4, 5] and entries[5]["I"] == [5]
    assert entries[6]["formula_I"] == [2, 6] and entries[6]["I"] == [6]
    assert report["mismatches"] == [5, 6, 7, 8]


def test_star_inclusion_rejects_artin(z2_r3):
    with pytest.raises(ValueError):
        rg.star_inclusion_I_check(z2_r3)


# ---------------------------------------------------------------------------
# Syllable metric and shuffle

def test_syllable_distance_grid(z2_r3):
    assert rg.syllable_distance(z2_r3, "1", "x^2") == 1
    assert rg.syllable_distance(z2_r3, "x", "y^2") == 2
    assert rg.syllable_distance(z2_r3, "1", "1") == 0
    with pytest.raises(UnknownVertex):
        rg.syllable_distance(z2_r3, "1", "x^9")


def test_syllable_distance_f2(x_f2_r3):
    # no commutations: syllable distance counts syllable blocks
    assert rg.syllable_distance(x_f2_r3, "1", "x.y") == 2
    assert rg.syllable_distance(x_f2_r3, "1", "x^2.y") == 2


def test_syllable_shuffle_identity(z2_r3):
    out = rg.syllable_shuffle(z2_r3, {})
    assert out["moved"] == []
    assert len(out["perm"]) == len(z2_r3.words)


def test_syllable_shuffle_swap(z2_r3):
    out = rg.syllable_shuffle(z2_r3, {1: 2, 2: 1}, apex="y")
    assert out["apex"] == "y"
    assert out["perm"]["y"] == "y^2" and out["perm"]["y^2"] == "y"
    assert out["moved"]
    # the map is injective where defined
    assert len(set(out["perm"].values())) == len(out["perm"])
    # syllable distances between mapped vertices are preserved
    pairs = [("1", "y"), ("x", "y^2"), ("y", "y^2")]
    for u, v in pairs:
        d1 = rg.syllable_distance(z2_r3, u, v)
        d2 = rg.syllable_distance(z2_r3, out["perm"][u], out["perm"][v])
        assert d1 == d2


def test_syllable_shuffle_not_a_cone(x_f2_r3):
    with pytest.raises(NotACone):
        rg.syllable_shuffle(x_f2_r3, {})
    with pytest.raises(ValueError):
        rg.syllable_shuffle(
            rg.build_ball(rg.builtin_defining_graph("EDGE2"), rg.ARTIN, 1),
            {1: 5},
        )


# ---------------------------------------------------------------------------
# Extension graph

def test_extension_graph_single():
    out = rg.extension_graph_ball(rg.builtin_defining_graph("SINGLE"), 1)
    assert len(out["vertices"]) == 1 and out["edges"] == set()


def test_extension_graph_edge2():
    out = rg.extension_graph_ball(rg.builtin_defining_graph("EDGE2"), 2)
    # one x-class and one y-class, joined
    assert len(out["vertices"]) == 2 and len(out["edges"]) == 1
    assert sorted(out["labels"].values()) == ["x", "y"]


def test_extension_graph_c5(x_c5_r3):
    out = rg.extension_graph_ball(x_c5_r3.gamma, 3, ball=x_c5_r3)
    cmp = out["comparison"]
    assert "skipped" not in cmp
    assert cmp["isomorphic"]


def test_extension_graph_f2(x_f2_r3):
    out = rg.extension_graph_ball(x_f2_r3.gamma, 3, ball=x_f2_r3)
    # free group: no crossings at all, and the comparison is skipped because
    # the two generators have equal (empty) links
    assert out["edges"] == set()
    assert "skipped" in out["comparison"]


# ---------------------------------------------------------------------------
# Halfspace twist and the reflection construction

def test_halfspace_twist_c5(x_c5_r3):
    tw = rg.halfspace_twist(x_c5_r3, "a", "c")
    assert tw.moved
    h = x_c5_r3.complex.hyperplane(tw.hyperplane)
    for v in h.carrier:
        assert tw.perm[v] == v
    # the twist is an involution where it moves things
    for v in tw.moved:
        assert tw.perm[tw.perm[v]] == v


def test_halfspace_twist_errors(x_c5_r3):
    with pytest.raises(GeneratorsAdjacent):
        rg.halfspace_twist(x_c5_r3, "a", "b")
    with pytest.raises(GeneratorsAdjacent):
        rg.halfspace_twist(x_c5_r3, "a", "a")
    small = rg.build_ball(rg.builtin_defining_graph("C5"), rg.ARTIN, 1)
    with pytest.raises(BallTooSmall):
        rg.halfspace_twist(small, "a", "c")


def test_davis_phi_p4(y_p4_r4):
    out = rg.davis_phi(y_p4_r4, "a", "b")
    assert out.witness_square[0] == "1"
    assert out.broken_edge is not None
    u, v = out.broken_edge
    X = y_p4_r4.complex
    assert frozenset((u, v)) in X.edges
    assert frozenset((out.rho_map[u], out.rho_map[v])) not in X.edges
    # phi fixes the transverse part and is injective; images of reflected
    # hyperplanes may leave the interior domain on a finite ball
    for hid, part in out.partition.items():
        if part == "T":
            assert out.phi[hid] == hid
    assert len(set(out.phi.values())) == len(out.phi)


def test_davis_phi_composite_bases(y_p4_r4):
    out1 = rg.davis_phi(y_p4_r4, "a", "b", base="1")
    out2 = rg.davis_phi(y_p4_r4, "a", "b", base="c")
    assert out1.a_hyperplane != out2.a_hyperplane
    fixed1 = {v for v, i in out1.rho_map.items() if i == v}
    fixed2 = {v for v, i in out2.rho_map.items() if i == v}
    assert fixed1 != fixed2


def test_davis_phi_errors(y_c5_r3):
    with pytest.raises(StarNotContained):
        rg.davis_phi(y_c5_r3, "a", "b")
    with pytest.raises(StarNotContained):
        rg.davis_phi(y_c5_r3, "a", "a")


# ---------------------------------------------------------------------------
# Graph serialization

def test_graph_json_roundtrip():
    for name in rg.BUILTIN_GRAPHS:
        gamma = rg.builtin_defining_graph(name)
        back = rg.graph_from_json(rg.graph_to_json(gamma))
        assert back.vertices == gamma.vertices
        assert back.edges == gamma.edges


def test_unknown_builtin_graph():
    with pytest.raises(KeyError):
        rg.builtin_defining_graph("NOPE")
