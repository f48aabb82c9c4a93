"""Median graph validation, hyperplanes and convexity."""

from collections import deque
from itertools import combinations

import numpy as np
import pytest

from cubetact import median as md
from cubetact.errors import (
    LemmaViolation,
    NotConnected,
    NotMedian,
    SizeLimitExceeded,
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


def test_median_matches_oracle():
    for name in ("Q3", "DOMINO", "TRIPOD"):
        X = md.builtin_complex(name)
        for triple in combinations(X.vertices, 3):
            oracle = brute_medians(X.vertices, X.adj, triple)
            assert len(oracle) == 1


def test_q3_hyperplanes():
    X = md.builtin_complex("Q3")
    # one hyperplane per coordinate, four dual edges each
    assert len(X.hyperplanes) == 3
    assert all(len(h.dual_edges) == 4 for h in X.hyperplanes)
    assert all(len(h.side_a) == 4 and len(h.side_b) == 4 for h in X.hyperplanes)
    assert X.dimension == 3


def test_domino_hyperplanes():
    X = md.builtin_complex("DOMINO")
    assert len(X.hyperplanes) == 3
    sizes = sorted(len(h.dual_edges) for h in X.hyperplanes)
    # one long horizontal hyperplane, two vertical ones
    assert sizes == [2, 2, 3]
    assert X.dimension == 2


def test_sides_partition():
    for name in md.BUILTIN_COMPLEXES:
        X = md.builtin_complex(name)
        for h in X.hyperplanes:
            assert h.side_a | h.side_b == set(X.vertices)
            assert not (h.side_a & h.side_b)
            for e in h.dual_edges:
                u, v = tuple(e)
                assert (u in h.side_a) != (v in h.side_a)


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
    long = next(h for h in X.hyperplanes if len(h.dual_edges) == 3)
    H = md.hyperplane_complex(X, long.id)
    assert len(H) == 3 and len(H.edges) == 2  # a path of three midcubes
    short = next(h for h in X.hyperplanes if len(h.dual_edges) == 2)
    H2 = md.hyperplane_complex(X, short.id)
    assert len(H2) == 2 and len(H2.edges) == 1


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


def test_helly_detects_planted_violation():
    # plant four pairwise-intersecting 3-sets with empty total intersection
    X = md.builtin_complex("SQUARE")
    family = [
        {"00", "01", "11"},
        {"01", "11", "10"},
        {"11", "10", "00"},
        {"10", "00", "01"},
    ]
    assert md.helly_check(X, family=family) == [(0, 1, 2, 3)]


def test_random_median_complex_deterministic():
    X1 = md.random_median_complex(6, 5, 42)
    X2 = md.random_median_complex(6, 5, 42)
    assert X1.vertices == X2.vertices
    assert X1.edges == X2.edges
    X3 = md.random_median_complex(6, 5, 43)
    assert (X1.vertices, X1.edges) != (X3.vertices, X3.edges)


def test_random_median_complex_bad_args():
    with pytest.raises(ValueError):
        md.random_median_complex(0, 5, 1)
    with pytest.raises(ValueError):
        md.random_median_complex(6, 0, 1)


def packed(*strings):
    return np.packbits(np.array([[c == "1" for c in s] for s in strings]), axis=1)


def test_certified_complex_needs_the_hamming_1_edges():
    verts = ["00", "01", "10", "11"]
    D = md.hamming_distances(packed(*verts))
    cycle = [("00", "01"), ("01", "11"), ("11", "10"), ("10", "00")]
    X = md.certified_complex(verts, cycle, D)
    assert X.squares == (("00", "01", "11", "10"),)
    with pytest.raises(LemmaViolation, match="Hamming-1 pairs differ"):
        md.certified_complex(verts, cycle[:3], D)
    with pytest.raises(LemmaViolation, match="Hamming-1 pairs differ"):
        md.certified_complex(verts, cycle + [("00", "11")], D)


def test_certified_complex_needs_connected_rows():
    with pytest.raises(NotConnected):
        md.certified_complex(["00", "11"], [], md.hamming_distances(packed("00", "11")))


def test_majority_closure_cap():
    rows = packed("110", "101", "011")  # their majority 111 is new
    closed, witnesses = md.majority_closure(rows, 4)
    assert closed.tolist() == packed("110", "101", "011", "111").tolist()
    assert witnesses == [(0, 1, 2)]
    with pytest.raises(SizeLimitExceeded):
        md.majority_closure(rows, 3)
    with pytest.raises(SizeLimitExceeded):
        md.random_median_complex(6, 5, 1, cap=3)
    with pytest.raises(ValueError, match="distinct"):
        md.majority_closure(packed("110", "101", "110"), 4)


def test_majority_keys_separate_rows_differing_in_top_bits():
    """Columns 56 and 120 are the top bits of the two 64-bit words (packbits
    order, little-endian).  A key that multiplies whole words by odd
    multipliers gives rows differing only there equal keys on every draw."""
    bits = np.zeros((3, 128), dtype=bool)
    bits[1, [56, 120]] = True
    bits[2, 0] = True  # the majority of the three rows is row 0
    rows = np.packbits(bits, axis=1)
    closed, witnesses = md.majority_closure(rows, 3)
    assert closed.tolist() == rows.tolist() and witnesses == []


def test_json_roundtrip():
    for name in md.BUILTIN_COMPLEXES:
        X = md.builtin_complex(name)
        Y = md.complex_from_json(md.complex_to_json(X))
        assert set(Y.vertices) == set(X.vertices)
        assert Y.edges == X.edges


def test_dot_output():
    X = md.builtin_complex("SQUARE")
    dot = md.complex_to_dot(X)
    assert dot.startswith("graph skeleton {")
    assert dot.count("--") == 4


def test_unknown_vertex():
    X = md.builtin_complex("EDGE")
    with pytest.raises(UnknownVertex):
        X.d("0", "zzz")


def test_distance_matches_bfs():
    X = md.builtin_complex("Q3")
    assert X.d("000", "111") == 3
    assert X.d("000", "000") == 0
    assert X.d("010", "001") == 2
