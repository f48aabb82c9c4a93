"""Normal forms, group balls, star analysis and the exotic automorphisms."""

import random
from collections import Counter, deque
from itertools import combinations, permutations

import pytest
from conftest import edge_names, has_edge, wall_row_mismatches

from cubetact import contact as ct
from cubetact import median as md
from cubetact import ragroups as rg
from cubetact import verify as vf
from cubetact.errors import (
    BallTooSmall,
    GeneratorsAdjacent,
    NotACone,
    NotInterior,
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


def test_push_inserts_past_the_first_larger_generator():
    """With a < b < c < d and only a, c not commuting, c.a.d . b is b.c.a.d:
    b goes in before c, the first syllable with a larger generator, and not
    just left of d, where moving it left from the end would stop."""
    gamma = rg.DefiningGraph("abcd", [("a", "b"), ("a", "d"), ("b", "c"),
                                      ("b", "d"), ("c", "d")])
    w = rg.parse_word("c.a.d")
    assert rg.normal_form(gamma, rg.COXETER, w) == w
    product = rg.nf_mult(gamma, rg.COXETER, w, (("b", 1),))
    assert rg.format_word(product) == "b.c.a.d"


def test_normal_form_kind_validation():
    f2 = rg.builtin_defining_graph("F2")
    with pytest.raises(ValueError):
        rg.normal_form(f2, "bogus", [])
    with pytest.raises(UnknownGenerator):
        rg.normal_form(f2, rg.ARTIN, [("z", 1)])


@pytest.mark.parametrize("kind", ["bogus", "Coxeter"])
def test_products_and_medians_check_the_kind(kind):
    """nf_mult, nf_inverse, word_length and initial_letters refuse a kind
    that is neither artin nor coxeter, with normal_form's text, through one
    shared check; ambient_median and build_ball, which multiply, inherit
    it."""
    p4 = rg.builtin_defining_graph("P4")
    with pytest.raises(ValueError, match="kind must be"):
        rg.nf_mult(p4, kind, (), (("a", 1),))
    with pytest.raises(ValueError, match="kind must be"):
        rg.nf_inverse(kind, (("a", 1),))
    with pytest.raises(ValueError, match="kind must be"):
        rg.word_length(kind, (("a", 2),))
    with pytest.raises(ValueError, match="kind must be"):
        rg.initial_letters(p4, kind, (("a", 1),))
    with pytest.raises(ValueError, match="kind must be"):
        rg.ambient_median(p4, kind, (), (("a", 1),), (("b", 1),))
    with pytest.raises(ValueError, match="kind must be"):
        rg.build_ball(p4, kind, 2)


def test_unknown_generator_raises_whatever_its_exponent():
    """A syllable that reduces away is still checked: an even coxeter or a
    zero artin exponent of an unknown generator raises."""
    p4 = rg.builtin_defining_graph("P4")
    with pytest.raises(UnknownGenerator):
        rg.normal_form(p4, rg.COXETER, [("zz", 2)])
    with pytest.raises(UnknownGenerator):
        rg.normal_form(p4, rg.ARTIN, [("zz", 0)])


def test_reserved_identity_name():
    with pytest.raises(ValueError):
        rg.DefiningGraph(["1", "a"], [])


@pytest.mark.parametrize("names", [[""], ["a", "b", "a.b"], ["a^2"], [1, 2], [True], [None]])
def test_generator_names_are_checked(names):
    """A generator name is a non-empty string without "." or "^", the
    characters of format_word and parse_word: "a.b" would be both the word
    a.b and a generator, and the empty name an empty word."""
    with pytest.raises(ValueError, match="^generator name "):
        rg.DefiningGraph(names, [])


def test_a_dotted_generator_cannot_reach_the_ball():
    """The ball's vertex ids are formatted words, so a generator "a.b" met
    the word a.b at one id (an IndexError in build_ball before the check)."""
    with pytest.raises(ValueError, match="^generator name 'a.b' "):
        rg.build_ball(rg.DefiningGraph(["a", "b", "a.b"], []), rg.COXETER, 2)


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


def ball_words(gamma, kind, radius):
    """The words of length at most radius, which build_ball closes."""
    ball = rg.build_ball(gamma, kind, radius)
    return {w for w in ball.words.values() if rg.word_length(kind, w) <= radius}


def test_ball_closure_checks_named_medians(monkeypatch):
    """The cap stops the closure.  median_closure trusts ambient_median to
    name each new row; a median named with the wrong walls is caught by
    the wall-row check, which the tests run and the closure does not."""
    st5 = rg.builtin_defining_graph("STAR_EQ5")
    assert len(rg.build_ball(st5, rg.COXETER, 2).complex) == 21  # 19 + 2 medians
    with monkeypatch.context() as patch:
        patch.setenv("CUBETACT_CAP_VERTICES", "20")
        with pytest.raises(SizeLimitExceeded, match="majority closure exceeds 20"):
            rg.build_ball(st5, rg.COXETER, 2)
    words = ball_words(st5, rg.COXETER, 2)
    elems, _, rows, walls = rg.median_closure(st5, rg.COXETER, words, md.vertex_cap())
    assert not wall_row_mismatches(st5, rg.COXETER, elems, rows, walls)
    with monkeypatch.context() as patch:
        patch.setattr(rg, "ambient_median", lambda gamma, kind, x, y, z: x)
        elems, _, rows, walls = rg.median_closure(st5, rg.COXETER, words, md.vertex_cap())
    assert len(elems) == 21 and len(set(elems)) == 19
    assert len(wall_row_mismatches(st5, rg.COXETER, elems, rows, walls)) == 2


def test_named_medians_have_their_walls_on_a_large_closure():
    """STAR_EQ5/artin/3 adds 112 medians, where the session fixtures add at
    most 8; the wall-row check, without the n^3 reference closure of
    tests/test_oracle.py, covers each of them."""
    st5 = rg.builtin_defining_graph("STAR_EQ5")
    words = ball_words(st5, rg.ARTIN, 3)
    elems, _, rows, walls = rg.median_closure(st5, rg.ARTIN, words, md.vertex_cap())
    assert len(elems) - len(words) == 112
    assert not wall_row_mismatches(st5, rg.ARTIN, elems, rows, walls)


def repair_scans(monkeypatch, name, kind, radius):
    """The ball, and the number of quadrangle failures found by each scan of
    its closure: one scan per repair round and a last one that finds none."""
    scans, scan = [], md._quadrangle_failures

    def counted(G):
        found = list(scan(G))
        scans.append(len(found))
        return iter(found)

    with monkeypatch.context() as patch:
        patch.setattr(md, "_quadrangle_failures", counted)
        ball = rg.build_ball(rg.builtin_defining_graph(name), kind, radius)
    return ball.complex, scans


@pytest.mark.parametrize("kind, radius", [(rg.COXETER, 2), (rg.COXETER, 4), (rg.ARTIN, 3)])
def test_star_eq5_balls_need_one_repair_round(monkeypatch, kind, radius):
    """The first round adds the majority of every failure; the second scan
    finds none."""
    _, scans = repair_scans(monkeypatch, "STAR_EQ5", kind, radius)
    assert len(scans) == 2 and scans[0] > 0 and scans[1] == 0


def test_closed_balls_need_no_repair_round(monkeypatch):
    """Balls that miss no median pass the first scan."""
    X, scans = repair_scans(monkeypatch, "P4", rg.COXETER, 4)
    assert scans == [0] and len(X) == 68
    X, scans = repair_scans(monkeypatch, "C5", rg.ARTIN, 3)
    assert scans == [0] and (len(X), len(X.edges), len(X.sides)) == (531, 710, 350)


def test_ball_of_the_trivial_group():
    X = rg.build_ball(rg.DefiningGraph([], []), rg.ARTIN, 1).complex
    assert X.vertices == ("1",) and X.edges.shape == (0, 2) and X._dist.tolist() == [[0]]


def one_syllable(ball, u, v):
    """The normal form of words[u]^-1 words[v], for the vertices u, v."""
    return rg.nf_mult(ball.gamma, ball.kind, rg.nf_inverse(ball.kind, ball.words[u]),
                      ball.words[v])


def test_hyperplane_labels(z2_r3):
    """Each edge u v joins words that differ by one syllable, whose
    generator is the label of the edge's hyperplane."""
    labels = set(z2_r3.labels.values())
    assert labels == {"x", "y"}
    for u, v in edge_names(z2_r3.complex):
        h = z2_r3.complex.hyperplane_of_edge(u, v)
        diff = one_syllable(z2_r3, u, v)
        assert type(h) is int and len(diff) == 1 and diff[0][0] == z2_r3.labels[h]


def expected_link(gamma, kind):
    """The link every deep ball vertex must have: nodes are labelled edge
    germs, joined when the labels commute (never a germ with its opposite).
    """
    if kind == rg.COXETER:
        nodes = {(g, 1) for g in gamma.vertices}
    else:
        nodes = {(g, s) for g in gamma.vertices for s in (1, -1)}
    adjacency = {
        frozenset((a, b))
        for a, b in combinations(sorted(nodes), 2)
        if a[0] != b[0] and gamma.commute(a[0], b[0])
    }
    return nodes, adjacency


def check_ball_links(ball, margin=2):
    """Deep vertices must realize the expected link over the defining graph.

    Squares witnessing transversality need two extra letters, hence margin 2.
    """
    exp_nodes, exp_adj = expected_link(ball.gamma, ball.kind)
    X = ball.complex
    dual = md._dual_edges(X)
    for v in sorted(ball.interior_vertices(margin)):
        lk = md.link_graph(X, v)
        germ = {}
        for h in lk.nodes:
            (e,) = [frozenset(e) for e in dual[h] if v in e]
            (nbr,) = e - {v}
            g, diff = ball.labels[h], one_syllable(ball, v, nbr)
            assert len(diff) == 1 and diff[0][0] == g, (
                f"edge {v}-{nbr} labelled {g} joins words differing "
                f"by {rg.format_word(diff)}"
            )
            germ[h] = (g, 1 if ball.kind == rg.COXETER or diff[0][1] > 0 else -1)
        assert set(germ.values()) == exp_nodes, (
            f"vertex {v}: germs {sorted(germ.values())} != expected"
        )
        got_adj = {
            frozenset((germ[a], germ[b])) for e in lk.adjacency
            for a, b in [tuple(e)]
        }
        assert got_adj == exp_adj, f"vertex {v}: link adjacency mismatch"


def test_expected_link_counts():
    c5 = rg.builtin_defining_graph("C5")
    nodes, adj = expected_link(c5, rg.COXETER)
    assert len(nodes) == 5 and len(adj) == 5
    e2 = rg.builtin_defining_graph("EDGE2")
    nodes, adj = expected_link(e2, rg.ARTIN)
    assert len(nodes) == 4 and len(adj) == 4  # x-germs joined to y-germs


def test_check_ball_links(y_c5_r3, z2_r3):
    check_ball_links(y_c5_r3)
    check_ball_links(z2_r3)


def test_ball_to_json(z2_r3):
    doc = rg.ball_to_json(z2_r3)
    assert doc["kind"] == rg.ARTIN and doc["radius"] == 3
    assert set(doc["labels"].values()) == {"x", "y"}
    assert doc["depth"]["1"] == 3


# ---------------------------------------------------------------------------
# Star analysis and interaction sets

def star_facts(name):
    """Star containments, equal stars and equal links of a builtin graph,
    from verify._star_containments and DefiningGraph.lk."""
    gamma = rg.builtin_defining_graph(name)
    contained = vf._star_containments(gamma)
    equal_stars = [(a, b) for a, b in contained
                   if gamma.order[a] < gamma.order[b] and (b, a) in contained]
    equal_links = [(a, b) for a, b in combinations(gamma.vertices, 2)
                   if gamma.lk(a) == gamma.lk(b)]
    return gamma, contained, equal_stars, equal_links


def test_graph_star_analysis_p4():
    gamma, contained, equal_stars, _ = star_facts("P4")
    assert ("a", "b") in contained
    assert ("d", "c") in contained
    assert equal_stars == []
    assert not gamma.is_cone()


def test_graph_star_analysis_c5():
    _, contained, equal_stars, equal_links = star_facts("C5")
    assert contained == []
    assert equal_stars == []
    assert equal_links == []


def test_graph_star_analysis_star_eq5():
    _, _, equal_stars, _ = star_facts("STAR_EQ5")
    assert ("a", "b") in equal_stars


def test_graph_star_analysis_cone():
    gamma, _, _, _ = star_facts("EDGE2")
    assert gamma.is_cone()
    assert gamma.join_decomposition()[1] == ()


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
    assert (len(ball.complex), len(ball.complex.sides)) == (14, 10)
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


@pytest.mark.parametrize("kind", [rg.ARTIN, rg.COXETER])
@pytest.mark.parametrize("name", rg.BUILTIN_GRAPHS)
def test_syllable_graph_is_connected(name, kind):
    """syllable_distance reads no unreachable vertex: the syllable graph of
    every builtin ball of radius 1-3 reaches each vertex from the first."""
    for radius in (1, 2, 3):
        ball = rg.build_ball(rg.builtin_defining_graph(name), kind, radius)
        assert (md._distances(rg._syllable_graph(ball), 0) >= 0).all()


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
    out = rg.extension_graph_ball(rg.build_ball(rg.builtin_defining_graph("SINGLE"), rg.ARTIN, 1))
    assert len(out["vertices"]) == 1 and out["edges"] == set()


def test_extension_graph_edge2():
    out = rg.extension_graph_ball(rg.build_ball(rg.builtin_defining_graph("EDGE2"), rg.ARTIN, 2))
    # one x-class and one y-class, joined
    assert len(out["vertices"]) == 2 and len(out["edges"]) == 1
    assert sorted(out["labels"].values()) == ["x", "y"]


def test_extension_graph_c5(x_c5_r3):
    out = rg.extension_graph_ball(x_c5_r3)
    cmp = out["comparison"]
    assert "skipped" not in cmp
    assert cmp["isomorphic"]


@pytest.mark.parametrize("ball", ["x_c5_r3", "x_f2_r3", "z2_r3"])
def test_extension_graph_comparison_against_networkx(ball, request):
    """comparison["isomorphic"] is networkx's is_isomorphic of the truncated
    extension graph and the interior reduced crossing graph.  On F2 the
    comparison is skipped (equal links), and the graphs are not isomorphic."""
    nx = pytest.importorskip("networkx")
    ball = request.getfixturevalue(ball)
    out = rg.extension_graph_ball(ball)
    interior = ball.interior_hyperplanes(out["margin"])
    cores = {cls: cls & interior for cls in out["vertices"]}
    extension = nx.Graph()
    extension.add_nodes_from(core for core in cores.values() if core)
    extension.add_edges_from(tuple(cores[cls] for cls in e) for e in out["edges"])
    classes = rg.interior_reduced_classes(ball, out["margin"])
    T = ct._relation(ball.complex).transverse
    reduced = nx.Graph()
    reduced.add_nodes_from(classes)
    reduced.add_edges_from(
        (a, b) for a, b in combinations(classes, 2)
        if all(T[u, w] for u in a for w in b))
    isomorphic = nx.is_isomorphic(extension, reduced)
    if "skipped" in out["comparison"]:
        assert ball.gamma.lk("x") == ball.gamma.lk("y") and not isomorphic
    else:
        assert out["comparison"]["isomorphic"] == isomorphic


@pytest.mark.parametrize("ball", ["x_c5_r3", "x_f2_r3", "z2_r3"])
def test_segment_classes_are_disjoint_and_labelled(ball, request):
    """The merge keeps classes disjoint and each class carries its label."""
    ball = request.getfixturevalue(ball)
    classes = rg._segment_classes(ball)
    members = [h for _, cls in classes for h in cls]
    assert len(members) == len(set(members))
    assert all(ball.labels[h] == g for g, cls in classes for h in cls)


def test_extension_graph_refuses_coxeter_balls():
    """Standard segments are runs along the lines g<x> of an artin group; a
    coxeter ball is refused as halfspace_twist refuses it."""
    c5 = rg.builtin_defining_graph("C5")
    ball = rg.build_ball(c5, rg.COXETER, 2)
    with pytest.raises(ValueError, match="the extension graph lives on artin balls"):
        rg.extension_graph_ball(ball)


def test_extension_graph_f2(x_f2_r3):
    out = rg.extension_graph_ball(x_f2_r3)
    # free group: no crossings at all, and the comparison is skipped because
    # the two generators have equal (empty) links
    assert out["edges"] == set()
    assert "skipped" in out["comparison"]


# ---------------------------------------------------------------------------
# Halfspace twist and the reflection construction

def test_halfspace_twist_c5(x_c5_r3):
    tw = rg.halfspace_twist(x_c5_r3, "a", "c")
    assert tw.moved
    X = x_c5_r3.complex
    for v in [v for v, k in zip(X.vertices, X.carriers[tw.hyperplane]) if k]:
        assert tw.perm[v] == v
    # the twist is an involution where it moves things
    for v in tw.moved:
        assert tw.perm[tw.perm[v]] == v


def test_halfspace_twist_keeps_word_length():
    """Every image of every twist is a ball vertex of the same word length,
    on the F2, C5, P4 and STAR_EQ5 artin balls of radius 2-3, for each
    ordered non-adjacent pair and each side."""
    images = 0
    for name in ("F2", "C5", "P4", "STAR_EQ5"):
        gamma = rg.builtin_defining_graph(name)
        for radius in (2, 3):
            ball = rg.build_ball(gamma, rg.ARTIN, radius)
            for x, y in permutations(gamma.vertices, 2):
                if gamma.commute(x, y):
                    continue
                for side in "AB":
                    perm = rg.halfspace_twist(ball, x, y, side).perm
                    for v, image in perm.items():
                        assert (rg.word_length(rg.ARTIN, ball.words[image])
                                == rg.word_length(rg.ARTIN, ball.words[v])), (v, image)
                    images += len(perm)
    assert images > 10_000


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
    assert has_edge(X, u, v)
    assert not has_edge(X, out.rho_map[u], out.rho_map[v])
    # phi fixes the transverse part and is injective; images of reflected
    # hyperplanes may leave the interior domain on a finite ball
    for hid, part in out.partition.items():
        if part == "T":
            assert out.phi[hid] == hid
    assert len(set(out.phi.values())) == len(out.phi)


def test_davis_carriers_do_not_straddle_the_a_hyperplane():
    """The carrier of an interior hyperplane that is neither ha nor
    transverse to it lies on the side of ha its part names, for every base
    and star containment where davis_phi returns, on the P4 and STAR_EQ5
    coxeter balls of radius 3-4; read from X.carriers and X.sides.  A ball
    too small for the construction refuses: BallTooSmall (also when an A+
    hyperplane has no reflection image in the ball) or NotInterior."""
    outcomes = Counter()
    for name in ("P4", "STAR_EQ5"):
        gamma = rg.builtin_defining_graph(name)
        for radius in (3, 4):
            ball = rg.build_ball(gamma, rg.COXETER, radius)
            X = ball.complex
            T = ct._relation(X).transverse
            for a, b in vf._star_containments(gamma):
                for base in sorted(ball.words):
                    try:
                        d = rg.davis_phi(ball, a, b, base)
                    except (BallTooSmall, NotInterior) as ex:
                        outcomes["reflection image" if "reflection image" in str(ex)
                                 else type(ex).__name__] += 1
                        continue
                    ha, va = d.a_hyperplane, X.index[d.witness_square[1]]
                    for h, part in d.partition.items():
                        if h == ha or T[ha, h]:
                            assert part == "T"
                            continue
                        on_va_side = X.sides[ha, X.carriers[h]] == X.sides[ha, va]
                        assert on_va_side.all() if part == "A+" else not on_va_side.any()
                    outcomes["built"] += 1
    assert outcomes == {"built": 144, "reflection image": 24,
                        "BallTooSmall": 210, "NotInterior": 120}


def test_davis_phi_composite_bases(y_p4_r4):
    out1 = rg.davis_phi(y_p4_r4, "a", "b", base="1")
    out2 = rg.davis_phi(y_p4_r4, "a", "b", base="c")
    assert out1.a_hyperplane != out2.a_hyperplane
    fixed1 = {v for v, i in out1.rho_map.items() if i == v}
    fixed2 = {v for v, i in out2.rho_map.items() if i == v}
    assert fixed1 != fixed2


def test_davis_phi_errors(y_c5_r3, y_p4_r4):
    with pytest.raises(StarNotContained):
        rg.davis_phi(y_c5_r3, "a", "b")
    with pytest.raises(StarNotContained):
        rg.davis_phi(y_c5_r3, "a", "a")
    # at base d.a the reflection maps no dual edge of hyperplane 4 into the
    # ball: a limit of the finite ball, not a failed statement
    with pytest.raises(BallTooSmall) as info:
        rg.davis_phi(y_p4_r4, "a", "b", base="d.a")
    assert str(info.value) == (
        "reflection image of hyperplane 4 ill-defined: no dual edge maps into the ball")


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
