"""Median graph validation, hyperplanes and convexity."""

import hashlib
import json
import re
import tracemalloc
from collections import deque
from itertools import combinations

import numpy as np
import pytest
from conftest import edge_set, skeleton_of

from cubetact import median as md
from cubetact.errors import (
    NotConnected,
    NotMedian,
    SizeLimitExceeded,
    UnknownHyperplane,
    UnknownVertex,
)


def brute_medians(vertices, adj, triple):
    """Independent O(n^2) oracle: all vertices on pairwise geodesics."""
    def bfs(s):
        dist = {s: 0}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return dist

    a, b, c = triple
    da, db, dc = bfs(a), bfs(b), bfs(c)
    return {
        v
        for v in vertices
        if da[v] + db[v] == da[b]
        and db[v] + dc[v] == db[c]
        and da[v] + dc[v] == da[c]
    }


def test_builtins_validate():
    for name in md.BUILTIN_COMPLEXES:
        X = md.builtin_complex(name)
        assert len(X) > 0


def test_builtin_sizes():
    assert len(md.builtin_complex("EDGE")) == 2
    assert len(md.builtin_complex("SQUARE")) == 4
    assert len(md.builtin_complex("Q3")) == 8
    assert len(md.builtin_complex("TRIPOD")) == 4
    assert len(md.builtin_complex("DOMINO")) == 6


def test_triangle_rejected():
    with pytest.raises(NotMedian) as exc:
        md.validate_complex("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    assert exc.value.medians == []


def test_hexagon_rejected():
    # C6: the triple of alternating vertices has no median at all
    verts = list("abcdef")
    edges = [(verts[i], verts[(i + 1) % 6]) for i in range(6)]
    with pytest.raises(NotMedian):
        md.validate_complex(verts, edges)


def test_two_median_graph_rejected():
    # K_{2,3}: the bottom triple sees both top vertices as medians
    verts = ["u1", "u2", "v1", "v2", "v3"]
    edges = [(u, v) for u in ("u1", "u2") for v in ("v1", "v2", "v3")]
    with pytest.raises(NotMedian) as exc:
        md.validate_complex(verts, edges)
    assert len(exc.value.medians) == 2


def test_disconnected_rejected():
    with pytest.raises(NotConnected):
        md.validate_complex("abcd", [("a", "b"), ("c", "d")])


def test_vertex_cap(monkeypatch):
    monkeypatch.setenv("CUBETACT_CAP_VERTICES", "3")
    assert md.vertex_cap() == 3
    with pytest.raises(SizeLimitExceeded):
        md.validate_complex("abcd", [("a", "b"), ("b", "c"), ("c", "d")])


@pytest.mark.parametrize("value", ["abc", "-5", "0", "1.5", " "])
def test_vertex_cap_must_be_a_positive_integer(monkeypatch, value):
    """A cap that is not an integer >= 1 is refused with a message naming
    the variable, before any instance is built; an empty one keeps the
    default."""
    monkeypatch.setenv("CUBETACT_CAP_VERTICES", value)
    message = f"CUBETACT_CAP_VERTICES must be an integer >= 1, not {value!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        md.vertex_cap()
    with pytest.raises(ValueError, match="CUBETACT_CAP_VERTICES"):
        md.random_median_complex(3, 2, 1)
    monkeypatch.setenv("CUBETACT_CAP_VERTICES", "")
    assert md.vertex_cap() == md.DEFAULT_VERTEX_CAP


def test_median_matches_oracle():
    for name in ("Q3", "DOMINO", "TRIPOD"):
        X = md.builtin_complex(name)
        for triple in combinations(X.vertices, 3):
            oracle = brute_medians(X.vertices, skeleton_of(X), triple)
            assert len(oracle) == 1


def test_q3_hyperplanes():
    X = md.builtin_complex("Q3")
    # one hyperplane per coordinate, four dual edges each
    assert len(X.sides) == 3
    assert [len(es) for es in md._dual_edges(X)] == [4, 4, 4]
    assert X.sides.sum(axis=1).tolist() == [4, 4, 4]
    assert X.dimension == 3


def test_domino_hyperplanes():
    X = md.builtin_complex("DOMINO")
    assert len(X.sides) == 3
    sizes = sorted(len(es) for es in md._dual_edges(X))
    # one long horizontal hyperplane, two vertical ones
    assert sizes == [2, 2, 3]
    assert X.dimension == 2


def test_hyperplane_ids_are_ints_or_numpy_integers_not_bools():
    """check_hyperplane takes an int or a numpy integer in range(H) as its
    int, and refuses a bool, which is an int in Python; so do the functions
    that take an id."""
    from cubetact import contact as ct

    X = md.builtin_complex("SQUARE")
    for bad in (True, False, np.bool_(True), -1, 2, 1.0, "0", None):
        with pytest.raises(UnknownHyperplane):
            X.check_hyperplane(bad)
        with pytest.raises(UnknownHyperplane):
            md.hyperplane_complex(X, bad)
        with pytest.raises(UnknownHyperplane):
            ct.interaction(X, bad, 0)
        with pytest.raises(UnknownHyperplane):
            ct.interaction_sets(X, bad)
    with pytest.raises(UnknownHyperplane):
        ct.interaction(X, False, True)
    for hid in (np.int64(1), np.int32(1), np.uint8(1), np.intp(1)):
        assert X.check_hyperplane(hid) == 1 and type(X.check_hyperplane(hid)) is int
        assert edge_set(md.hyperplane_complex(X, hid)) == edge_set(md.hyperplane_complex(X, 1))
        assert ct.interaction(X, hid, 0) == "transverse"
        assert ct.interaction_sets(X, hid) == ct.interaction_sets(X, 1)
        assert type(ct.interaction_sets(X, hid).base) is int


def test_sides_partition():
    for name in md.BUILTIN_COMPLEXES:
        X = md.builtin_complex(name)
        A = X.sides
        assert A.any(axis=1).all() and (~A).any(axis=1).all()
        for h, dual in enumerate(md._dual_edges(X)):
            for u, v in dual:
                assert A[h, X.index[u]] != A[h, X.index[v]]


def test_hyperplane_of_edge_refuses_non_edges():
    X = md.builtin_complex("SQUARE")
    assert X.hyperplane_of_edge("00", "01") == X.hyperplane_of_edge("11", "10") == 0
    for u, v in (("00", "11"), ("00", "00"), ("00", "zz")):
        with pytest.raises(UnknownHyperplane):
            X.hyperplane_of_edge(u, v)


def test_separating():
    X = md.builtin_complex("PATH3")
    # vertices 0-1-2-3 in a path: two hyperplanes separate 0 from 3
    assert len(md.separating(X, {"0"}, {"3"})) == 3
    assert md.separating(X, {"0"}, {"0"}) == set()


def test_geodesic_interval():
    X = md.builtin_complex("Q3")
    inner = X.geodesic_vertices("000", "110")
    assert inner == {"000", "100", "010", "110"}


def test_link_and_extremal():
    X = md.builtin_complex("SQUARE")
    lk = md.link_graph(X, "00")
    assert len(lk.nodes) == 2 and len(lk.adjacency) == 1
    # all square vertices are corners, hence extremal
    assert all(md.is_extremal(X, v) for v in X.vertices)

    P = md.builtin_complex("PATH3")
    assert md.is_extremal(P, "0")  # endpoint, empty-ish link
    assert not md.is_extremal(P, "1")  # two non-transverse hyperplanes


def test_is_cone_convention():
    assert md.is_cone(set(), set()) == (True, None)
    assert md.is_cone({1}, set()) == (True, 1)
    assert md.is_cone({1, 2}, set()) == (False, None)
    assert md.is_cone({1, 2}, {frozenset((1, 2))})[0]


def test_hyperplane_complex():
    X = md.builtin_complex("DOMINO")
    sizes = [len(es) for es in md._dual_edges(X)]
    H = md.hyperplane_complex(X, sizes.index(3))
    assert len(H) == 3 and len(H.edges) == 2  # a path of three midcubes
    H2 = md.hyperplane_complex(X, sizes.index(2))
    assert len(H2) == 2 and len(H2.edges) == 1


def test_dual_edge_ids_are_distinct_for_names_with_bars():
    """In the square a|b - c - a - b|c the opposite edges (a|b, c) and
    (a, b|c) would both join to "a|b|c"; escaped, each hyperplane complex
    is one edge between two distinct ids."""
    X = md.validate_complex(["a|b", "c", "a", "b|c"],
                            [("a|b", "c"), ("c", "a"), ("a", "b|c"), ("b|c", "a|b")])
    assert md.dual_edge_id(("c", "a|b")) == "a\\|b|c"
    assert md.dual_edge_id(("a", "b|c")) == "a|b\\|c"
    assert md.dual_edge_id(("b", "a\\")) == "a\\\\|b"
    assert md.dual_edge_id(("0", "1")) == "0|1"
    for h in range(len(X.sides)):
        H = md.hyperplane_complex(X, h)
        assert len(H) == 2 and len(H.edges) == 1


def test_convexity_check_builtin():
    for name in md.BUILTIN_COMPLEXES:
        assert md.convexity_check(md.builtin_complex(name)) == []


def test_is_convex_set_negative():
    X = md.builtin_complex("PATH3")
    assert not md.is_convex_set(X, {"0", "2"})
    assert md.is_convex_set(X, {"0", "1", "2"})


def test_helly_builtin():
    for name in md.BUILTIN_COMPLEXES:
        assert md.helly_check(md.builtin_complex(name)) == []


# four pairwise-intersecting 3-sets of SQUARE with empty total intersection
PLANTED = [{"00", "01", "11"}, {"01", "11", "10"}, {"11", "10", "00"}, {"10", "00", "01"}]


def test_helly_detects_planted_violation():
    found = md.helly_check(md.builtin_complex("SQUARE"), family=PLANTED)
    assert found == [(0, 1, 2, 3)]
    assert all(type(i) is int for quad in found for i in quad)
    assert json.loads(json.dumps(found)) == [[0, 1, 2, 3]]


def test_random_median_complex_deterministic():
    X1 = md.random_median_complex(6, 5, 42)
    X2 = md.random_median_complex(6, 5, 42)
    assert X1.vertices == X2.vertices
    assert edge_set(X1) == edge_set(X2)
    X3 = md.random_median_complex(6, 5, 43)
    assert (X1.vertices, edge_set(X1)) != (X3.vertices, edge_set(X3))


def test_random_median_complex_bad_args():
    with pytest.raises(ValueError):
        md.random_median_complex(0, 5, 1)
    with pytest.raises(ValueError):
        md.random_median_complex(6, 0, 1)
    with pytest.raises(ValueError, match="1..12"):  # also bounds the 2^dim closure table
        md.random_median_complex(13, 5, 1)


def packed(*strings):
    return np.packbits(np.array([[c == "1" for c in s] for s in strings]), axis=1)


def test_certified_complex_needs_the_hamming_1_edges():
    """The edges are the pairs at Hamming distance 1, read off the distances."""
    verts = ["00", "01", "10", "11"]
    X = md.certified_complex(verts, md.hamming_distances(packed(*verts)))
    assert X.squares.tolist() == [[0, 1, 3, 2]]  # 00, 01, 11, 10


def test_certified_complex_needs_connected_rows():
    for verts in (["00", "11"], ["110", "101", "011"]):
        with pytest.raises(NotConnected) as ex:
            md.certified_complex(verts, md.hamming_distances(packed(*verts)))
        assert str(ex.value) == "the Hamming-1 graph of the rows is not connected"


def test_certified_complex_refuses_connected_rows_that_are_not_closed():
    """The path 000-001-011-111-110 is connected, but 110 has no neighbour
    nearer to 000: the rows miss their majorities (010, 100), so the
    descent test refuses them, as its precondition does."""
    verts = ["000", "001", "011", "111", "110"]
    with pytest.raises(NotConnected, match="not connected"):
        md.certified_complex(verts, md.hamming_distances(packed(*verts)))


def test_the_draw_pool_is_pinned():
    """random_median_complex's JSON on random(6, 5) seeds 1-4096 and four
    larger shapes, hashed in that order: the digest of the generator as it
    drew these before its tables were cached and its descent test."""
    shapes = [(6, 5, s) for s in range(1, 4097)]
    shapes += [(8, 10, 2), (8, 10, 3), (8, 10, 5), (9, 10, 2), (12, 3, 1)]
    h = hashlib.sha256()
    for shape in shapes:
        h.update(json.dumps(md.complex_to_json(md.random_median_complex(*shape))).encode())
    assert h.hexdigest() == "b9cfbede54f6d40a1923b52e845502a2bc4d88d92e46f81dd960cb4b7613d92c"


def test_closure_tables_are_built_once_per_dim():
    """_projection_closure reads one read-only key table per dim: the second
    call reads the object that the first built."""
    codes = np.array([3, 17, 40])
    md._projection_closure(codes, 7)
    before = md._pair_keys.cache_info()
    keys = md._pair_keys(7)
    md._projection_closure(codes, 7)
    after = md._pair_keys.cache_info()
    assert after.misses == before.misses and after.hits == before.hits + 2
    assert md._pair_keys(7) is keys and keys.shape == (2 ** 7, 7 * 8 // 2)
    assert keys.dtype == np.uint16 and not keys.flags.writeable
    with pytest.raises(ValueError):
        keys[0, 0] = 0


def test_random_median_complex_cap(monkeypatch):
    monkeypatch.setenv("CUBETACT_CAP_VERTICES", "3")
    with pytest.raises(SizeLimitExceeded, match="majority closure exceeds 3"):
        md.random_median_complex(6, 5, 1)


def test_json_roundtrip():
    for name in md.BUILTIN_COMPLEXES:
        X = md.builtin_complex(name)
        Y = md.complex_from_json(md.complex_to_json(X))
        assert set(Y.vertices) == set(X.vertices)
        assert edge_set(Y) == edge_set(X)


def test_dot_output():
    X = md.builtin_complex("SQUARE")
    dot = md.complex_to_dot(X)
    assert dot.startswith("graph skeleton {")
    assert dot.count("--") == 4


def test_dot_escapes_quotes_and_backslashes():
    X = md.validate_complex(['a"b', "c\\d"], [('a"b', "c\\d")])
    assert md.complex_to_dot(X).splitlines()[1:4] == [
        '  "a\\"b";', '  "c\\\\d";', '  "a\\"b" -- "c\\\\d" [label="0"];']


def test_unknown_vertex():
    X = md.builtin_complex("EDGE")
    with pytest.raises(UnknownVertex):
        X.d("0", "zzz")


@pytest.mark.parametrize("call", [
    lambda X: md.is_convex_set(X, {"zz"}),
    lambda X: md.helly_check(X, [{"00"}, {"zz"}]),
    lambda X: X.geodesic_vertices("zz", "00"),
    lambda X: X.geodesic_vertices("00", "zz"),
], ids=["is_convex_set", "helly_check", "geodesic_from", "geodesic_to"])
def test_unknown_vertex_in_a_vertex_set(call):
    """A vertex not in X raises UnknownVertex, which the CLI reports, not a
    bare KeyError."""
    with pytest.raises(UnknownVertex) as exc:
        call(md.builtin_complex("SQUARE"))
    assert exc.value.args == ("zz",)


def test_edge_errors_are_raised_in_edge_order():
    """The first bad edge decides: an unknown end or a self-loop."""
    with pytest.raises(UnknownVertex) as exc:
        md.validate_complex("abc", [("a", "b"), ("a", "zz"), ("c", "c")])
    assert exc.value.args == (("a", "zz"),)
    with pytest.raises(ValueError, match="^self-loop at 'c'; the graph must be simple$"):
        md.validate_complex("abc", [("a", "b"), ("c", "c"), ("a", "zz")])


def test_distance_matches_bfs():
    X = md.builtin_complex("Q3")
    assert X.d("000", "111") == 3
    assert X.d("000", "000") == 0
    assert X.d("010", "001") == 2


@pytest.mark.parametrize("family, what", [
    (None, "the Helly check of 13 pairs compares 169 cells"),
    (PLANTED, "the Helly check of 6 pairs needs about [0-9]+ bytes"),
], ids=["comparison", "allocation"])
def test_large_allocations_are_estimated_first(monkeypatch, family, what):
    """The p x p comparison is refused by its cell count, then the
    intersection rows and one block by their bytes, both before any is built."""
    X = md.builtin_complex("SQUARE")
    md.helly_check(X, family)  # both fit the default limit
    monkeypatch.setattr(md, "_ALLOC_LIMIT", 100)
    with pytest.raises(SizeLimitExceeded, match=f"^{what}, over the limit of 100$"):
        md.helly_check(X, family)


def test_c5_artin_3_convexity_runs_and_helly_is_refused_up_front(x_c5_r3):
    """Local convexity holds no n^3 tensor (748 MB here); the Helly check
    refuses the 309,280 pairs by their p x p comparison, before it builds
    any row (their bool intersection rows alone take 164 MB)."""
    X = x_c5_r3.complex
    assert md.convexity_check(X) == []
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitExceeded, match="^the Helly check of 309280 pairs "):
            md.helly_check(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2 ** 20


@pytest.mark.parametrize("cells", [md._CELLS, 1 << 14])
@pytest.mark.parametrize("fixture", ["y_p4_r4", "x_c5_r2"])
def test_helly_estimate_bounds_the_traced_peak(monkeypatch, request, fixture, cells):
    """What helly_check reserves bounds what it holds at once: 5,451 and
    9,425 pairs, no quadruple found.  With small blocks the block's share
    of the estimate no longer covers for the other arrays."""
    monkeypatch.setattr(md, "_CELLS", cells)
    X = request.getfixturevalue(fixture).complex
    X.sides  # the hyperplanes are built outside the trace
    asked, reserve = [], md._reserve
    monkeypatch.setattr(md, "_reserve", lambda nbytes, what: (
        asked.append(nbytes), reserve(nbytes, what)))
    tracemalloc.start()
    try:
        assert md.helly_check(X) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(asked) == 1 and peak <= asked[0]


def test_validation_witnesses_build_no_second_adjacency_matrix():
    """K_{2,3} and K_{3,3} are refused at the pair table, C5 on the BFS
    layers and C6 by the quadrangle condition; each witness reads X.adjacency,
    the one matrix, or the distances."""
    K23 = [(u, v) for u in ("u1", "u2") for v in ("v1", "v2", "v3")]
    K33 = [(a, b) for a in ("a1", "a2", "a3") for b in ("b1", "b2", "b3")]
    for vertices, edges, message in [
        (["u1", "u2", "v1", "v2", "v3"], K23,
         "triple ('v1', 'v2', 'v3') has 2 medians: ['u1', 'u2']"),
        (["a1", "a2", "a3", "b1", "b2", "b3"], K33,
         "triple ('a1', 'a2', 'a3') has 3 medians: ['b1', 'b2', 'b3']"),
        (list("abcde"), list(zip("abcde", "bcdea")),
         "triple ('a', 'c', 'd') has 0 medians: []"),
        (list("abcdef"), list(zip("abcdef", "bcdefa")),
         "triple ('d', 'b', 'f') has 0 medians: []"),
    ]:
        with pytest.raises(NotMedian) as exc:
            md.validate_complex(vertices, edges)
        assert str(exc.value) == message


def test_all_pairs_distances_keep_no_level():
    """A 400-vertex path has diameter 399: the all-sources BFS holds one
    block's columns, not one set per level (about 8 MB more here)."""
    V = [f"p{i:03}" for i in range(400)]
    tracemalloc.start()
    try:
        X = md.validate_complex(V, list(zip(V, V[1:])))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert X.d("p000", "p399") == 399
    assert peak < 6 * 2 ** 20
