"""The fast paths against the original ones, kept here as oracles.

Hyperplanes: the reference is the original path, where hyperplanes are
union-find classes of square-opposite edges with one BFS per side,
hyperplane pairs are classified one at a time from frozensets, reduced
classes come from a union-find over the neighbourhood relation, I(w)
intersects the W_v over w's carrier, and the dimension is the largest clique
of a link graph.  The fast path must agree with it, in both reduced modes,
on the builtins, random complexes and the session balls.

Instances: the references are the tuple-majority random generator and the
ball closure that rebuilds the word-metric distance matrix with nf_mult and
adds the ambient median of every defect triple of the n^3 median scan.  The
wall-row majority kernel and the certified constructor must give the same
complexes.

Squares and links: the reference squares come from a triple loop over each
vertex and two of its neighbours, and the reference link of v from the
squares through v.  The pair table must give the same squares, in the same
order, and the same links.

Certificate: the references are the n^3 median scan, md.median_triple_defects,
and the earlier certificate: the Djokovic-Winkler sides embed the graph
isometrically in a cube and one majority round adds no row.  validate_complex
(bipartite layers, then the pair table's K_{2,3} and quadrangle checks) must
accept exactly the connected graphs that they accept, and name a triple whose
median count, found by brute force, is not one.
"""

import random
from collections import deque
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubetact import contact as ct
from cubetact import median as md
from cubetact import ragroups as rg
from cubetact.errors import NotConnected, NotMedian


def reference_hyperplanes(X):
    """(dual_edges, side_a, side_b, carrier) per hyperplane, in id order."""
    edges = sorted(X.edges, key=lambda e: tuple(sorted(e)))
    parent = {e: e for e in edges}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b, c, d in X.squares:
        for e1, e2 in (((a, b), (c, d)), ((b, c), (d, a))):
            r1, r2 = find(frozenset(e1)), find(frozenset(e2))
            if r1 != r2:
                parent[r1] = r2
    classes = {}
    for e in edges:
        classes.setdefault(find(e), []).append(e)
    ordered = sorted(classes.values(), key=lambda es: tuple(sorted(es[0])))

    out = []
    for dual in ordered:
        dual = frozenset(dual)
        comp = {}
        for s in X.vertices:
            if s in comp:
                continue
            comp[s] = s
            queue = deque([s])
            while queue:
                u = queue.popleft()
                for w in X.adj[u]:
                    if frozenset((u, w)) not in dual and w not in comp:
                        comp[w] = s
                        queue.append(w)
        roots = sorted(set(comp.values()), key=str)
        assert len(roots) == 2
        side_a = frozenset(v for v in X.vertices if comp[v] == roots[0])
        side_b = frozenset(v for v in X.vertices if comp[v] == roots[1])
        carrier = frozenset(v for e in dual for v in e)
        out.append((dual, side_a, side_b, carrier))
    return out


def reference_kind(hyps, u, w):
    if u == w:
        return "equal"
    _, au, bu, ku = hyps[u]
    _, aw, bw, kw = hyps[w]
    if all((au & aw, au & bw, bu & aw, bu & bw)):
        return "transverse"
    if ku & kw:
        return "contact_osculating"
    assert any(
        (ku <= a and kw <= b) or (ku <= b and kw <= a)
        for i, (_, a, b, _) in enumerate(hyps)
        if i not in (u, w)
    )
    return "separated"


def reference_family(hyps, mode):
    hids = range(len(hyps))
    labels = {(u, w): reference_kind(hyps, u, w) for u, w in combinations(hids, 2)}
    contact = {h: set() for h in hids}
    crossing = {h: set() for h in hids}
    for (u, w), kind in labels.items():
        if kind != "separated":
            contact[u].add(w)
            contact[w].add(u)
        if kind == "transverse":
            crossing[u].add(w)
            crossing[w].add(u)

    def related(u, w):
        drop = set() if mode == "strict" else {u, w}
        return crossing[u] - drop == crossing[w] - drop

    parent = {h: h for h in hids}

    def find(h):
        while parent[h] != h:
            h = parent[h]
        return h

    for u, w in combinations(hids, 2):
        if related(u, w):
            parent[find(u)] = find(w)
    groups = {}
    for h in hids:
        groups.setdefault(find(h), []).append(h)
    classes = tuple(sorted(tuple(sorted(g)) for g in groups.values()))
    class_of = {h: i for i, cls in enumerate(classes) for h in cls}
    reduced = {i: set() for i in range(len(classes))}
    for (u, w), kind in labels.items():
        cu, cw = class_of[u], class_of[w]
        if kind == "transverse" and cu != cw:
            reduced[cu].add(cw)
            reduced[cw].add(cu)
    return labels, contact, crossing, classes, class_of, reduced


def reference_I(X, hyps):
    at = {v: {h for h, (_, _, _, k) in enumerate(hyps) if v in k} for v in X.vertices}
    I = {
        w: frozenset(set.intersection(*(at[v] for v in k)))
        for w, (_, _, _, k) in enumerate(hyps)
    }
    I0 = {w: frozenset(u for u in I[w] if w in I[u]) for w in I}
    return I, I0


def reference_dimension(X):
    """Largest clique of a link graph, over all vertices."""
    best = 1 if X.edges else 0

    def grow(size, cands, adj):
        nonlocal best
        best = max(best, size)
        for v in list(cands):
            grow(size + 1, cands & adj[v], adj)
            cands = cands - {v}

    for v in X.vertices:
        lk = md.link_graph(X, v)
        adj = {h: set() for h in lk.nodes}
        for e in lk.adjacency:
            a, b = tuple(e)
            adj[a].add(b)
            adj[b].add(a)
        grow(0, set(lk.nodes), adj)
    return best


def reference_squares(X):
    """Each 4-cycle once, from its first vertex a and two neighbours b < d."""
    found = {}
    for a in X.vertices:
        for b, d in combinations(sorted(X.adj[a]), 2):
            for c in (X.adj[b] & X.adj[d]) - {a}:
                found.setdefault(frozenset((a, b, c, d)), (a, b, c, d))
    return tuple(sorted(found.values()))


def reference_link_graph(X, v):
    """The hyperplanes at v, joined through each square at v."""
    adjacency = set()
    for sq in reference_squares(X):
        if v in sq:
            i = sq.index(v)
            h1 = X.hyperplane_of_edge(v, sq[i - 1]).id
            h2 = X.hyperplane_of_edge(v, sq[(i + 1) % 4]).id
            if h1 != h2:
                adjacency.add(frozenset((h1, h2)))
    return md.LinkGraph(v, frozenset(md.hyperplanes_at(X, v)), frozenset(adjacency))


def check_against_oracle(X):
    assert X.squares == reference_squares(X)
    for v in X.vertices:
        assert md.link_graph(X, v) == reference_link_graph(X, v)
    hyps = reference_hyperplanes(X)
    got = [(h.dual_edges, h.side_a, h.side_b, h.carrier) for h in X.hyperplanes]
    assert got == hyps
    assert [h.id for h in X.hyperplanes] == list(range(len(hyps)))
    for v in X.vertices:
        assert md.hyperplanes_at(X, v) == {
            h for h, (_, _, _, k) in enumerate(hyps) if v in k
        }

    for mode in ct.REDUCED_MODES:
        labels, contact, crossing, classes, class_of, reduced = reference_family(
            hyps, mode
        )
        F = ct.build_contact_family(X, mode=mode)
        assert F.contact == contact
        assert F.crossing == crossing
        assert F.classes == classes
        assert F.class_of == class_of
        assert F.reduced == reduced
    for (u, w), kind in labels.items():
        assert ct.interaction(X, u, w) == kind
        assert ct.interaction(X, w, u) == kind

    assert X.dimension == reference_dimension(X)

    I, I0 = reference_I(X, hyps)
    isets = ct.all_interaction_sets(X)
    assert {w: s.I for w, s in isets.items()} == I
    assert {w: s.I0 for w, s in isets.items()} == I0


@pytest.mark.parametrize("name", md.BUILTIN_COMPLEXES)
def test_oracle_builtins(name):
    check_against_oracle(md.builtin_complex(name))


def test_oracle_random():
    for seed in range(1, 101):
        check_against_oracle(md.random_median_complex(6, 5, seed))


@pytest.mark.parametrize(
    "fixture",
    ["y_c5_r3", "y_p4_r4", "y_st5_r3", "y_st5_r4", "x_c5_r2", "x_f2_r3", "z2_r3"],
)
def test_oracle_balls(fixture, request):
    check_against_oracle(request.getfixturevalue(fixture).complex)


def reference_random_median_complex(ambient_dim, seed_count, rng_seed):
    """Tuple-majority closure, bit-flip bridges, string edges, validation."""
    rng = random.Random(rng_seed)
    points = set()
    while len(points) < min(seed_count, 2 ** ambient_dim):
        points.add(tuple(rng.randint(0, 1) for _ in range(ambient_dim)))

    def close_majority(pts):
        frontier = set(pts)
        while frontier:
            new = set()
            all_pts = sorted(pts)
            for p in sorted(frontier):
                for q, r in combinations(all_pts, 2):
                    m = tuple(
                        (a & b) | (c & (a | b)) for a, b, c in zip(p, q, r)
                    )
                    if m not in pts and m not in new:
                        new.add(m)
            pts |= new
            frontier = new
        return pts

    def components(pts):
        comps = []
        seen = set()
        for s in sorted(pts):
            if s in seen:
                continue
            comp = {s}
            queue = deque([s])
            while queue:
                u = queue.popleft()
                for i in range(ambient_dim):
                    w = u[:i] + (1 - u[i],) + u[i + 1:]
                    if w in pts and w not in comp:
                        comp.add(w)
                        queue.append(w)
            seen |= comp
            comps.append(comp)
        return comps

    points = close_majority(points)
    while True:
        comps = components(points)
        if len(comps) == 1:
            break
        c0, c1 = comps[0], comps[1]
        p, q = min(
            ((p, q) for p in sorted(c0) for q in sorted(c1)),
            key=lambda pq: (sum(a != b for a, b in zip(*pq)), pq),
        )
        cur = p
        for i in range(ambient_dim):
            if cur[i] != q[i]:
                cur = cur[:i] + (q[i],) + cur[i + 1:]
                points.add(cur)
        points = close_majority(points)

    verts = sorted("".join(map(str, p)) for p in points)
    edges = {
        frozenset((u, v))
        for u, v in combinations(verts, 2)
        if sum(a != b for a, b in zip(u, v)) == 1
    }
    return md.validate_complex(verts, edges)


def reference_median_closure(gamma, kind, elements):
    """Add the ambient median of every triple without one, rebuilding the
    word-metric distance matrix with nf_mult each round."""
    S = set(elements)
    while True:
        elems = sorted(S, key=lambda w: (rg.word_length(kind, w), rg.format_word(w)))
        n = len(elems)
        inv = [rg.nf_inverse(kind, w) for w in elems]
        D = np.zeros((n, n), dtype=np.int32)
        for i in range(n):
            for j in range(i + 1, n):
                d = rg.word_length(kind, rg.nf_mult(gamma, kind, inv[i], elems[j]))
                D[i, j] = D[j, i] = d
        defects = md.median_triple_defects(D, first_only=False)
        if not defects:
            return elems, D
        for a, b, c, medians in defects:
            assert not medians  # ambient medians are unique
            S.add(rg.ambient_median(gamma, kind, elems[a], elems[b], elems[c]))
        assert len(S) > n


def assert_same_complex(X, Y):
    assert X.vertices == Y.vertices
    assert X.edges == Y.edges
    assert X._dist.dtype == Y._dist.dtype
    np.testing.assert_array_equal(X._dist, Y._dist)
    assert X.squares == Y.squares


def check_ball_against_oracle(ball):
    """Same closure and distances as the reference; same complex as validation."""
    gamma, kind = ball.gamma, ball.kind
    words = {w for w in ball.words.values() if rg.word_length(kind, w) <= ball.radius}
    ref_elems, ref_D = reference_median_closure(gamma, kind, words)
    elems, D = rg.median_closure(gamma, kind, words, md.vertex_cap())
    assert elems == ref_elems
    assert D.dtype == ref_D.dtype
    np.testing.assert_array_equal(D, ref_D)
    X = ball.complex
    assert list(X.vertices) == [rg.format_word(w) for w in ref_elems]
    assert_same_complex(X, md.validate_complex(X.vertices, X.edges))


@pytest.mark.parametrize(
    "shape",
    [(6, 5, s) for s in range(1, 101)] + [(8, 10, 2), (8, 10, 5)],
    ids=lambda shape: "-".join(map(str, shape)),
)
def test_random_generator_against_oracle(shape):
    assert_same_complex(md.random_median_complex(*shape), reference_random_median_complex(*shape))


@pytest.mark.parametrize("radius", [1, 2])
@pytest.mark.parametrize("kind", [rg.ARTIN, rg.COXETER])
@pytest.mark.parametrize("name", rg.BUILTIN_GRAPHS)
def test_ball_closure_against_oracle(name, kind, radius):
    check_ball_against_oracle(rg.build_ball(rg.builtin_defining_graph(name), kind, radius))


@pytest.mark.parametrize(
    "fixture",
    ["y_c5_r3", "y_p4_r4", "y_st5_r3", "y_st5_r4", "x_c5_r2", "x_f2_r3", "z2_r3"],
)
def test_session_ball_closure_against_oracle(fixture, request):
    check_ball_against_oracle(request.getfixturevalue(fixture))


@pytest.mark.parametrize("seed", range(1, 11))
def test_majority_kernel_against_tuple_closure(seed):
    """Same closed set as the tuple closure, over two 64-bit words, with each
    new row the majority of earlier rows, its witnesses."""
    rng = np.random.default_rng(seed)
    bits = np.unique(rng.integers(0, 2, (4, 70)).astype(bool), axis=0)
    closed, witnesses = md.majority_closure(np.packbits(bits, axis=1), md.vertex_cap())
    got = np.unpackbits(closed, axis=1, count=70).astype(bool)
    assert np.array_equal(got[:len(bits)], bits)
    for t, (i, j, k) in enumerate(witnesses):
        assert i < j < k < len(bits) + t
        maj = (got[i] & got[j]) | (got[k] & (got[i] | got[j]))
        np.testing.assert_array_equal(got[len(bits) + t], maj)
    pts = {tuple(map(int, b)) for b in bits}
    frontier = set(pts)
    while frontier:  # the tuple closure
        new = {
            tuple((a & b) | (c & (a | b)) for a, b, c in zip(p, q, r))
            for p in frontier for q, r in combinations(sorted(pts), 2)
        } - pts
        pts |= new
        frontier = new
    assert {tuple(map(int, b)) for b in got} == pts
    assert len(got) == len(pts)


def random_graphs(count, seed):
    """Random graphs, random bipartite graphs, and random median complexes
    with up to two vertex pairs toggled (edge added or removed), in turn."""
    rng = random.Random(seed)
    for t in range(count):
        if t % 3 == 2:
            X = md.random_median_complex(
                rng.randint(2, 5), rng.randint(2, 6), rng.randrange(10 ** 6)
            )
            vertices, edges = list(X.vertices), {tuple(sorted(e)) for e in X.edges}
            for _ in range(rng.randint(0, 2)):
                edges ^= {tuple(sorted(rng.sample(vertices, 2)))}
        else:
            vertices = [f"v{i}" for i in range(rng.randint(3, 10))]
            side = [rng.randint(0, t % 3) for _ in vertices]  # all 0 for t % 3 == 0
            p = rng.uniform(0.1, 0.6)
            edges = {
                (vertices[i], vertices[j])
                for i, j in combinations(range(len(vertices)), 2)
                if (t % 3 == 0 or side[i] != side[j]) and rng.random() < p
            }
        yield vertices, edges


def bfs_distances(vertices, edges):
    adj = {v: set() for v in vertices}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    D = np.full((len(vertices), len(vertices)), -1, dtype=np.int32)
    for s, source in enumerate(vertices):
        seen, queue = {source: 0}, deque([source])
        while queue:
            u = queue.popleft()
            for w in adj[u] - seen.keys():
                seen[w] = seen[u] + 1
                queue.append(w)
        for v, d in seen.items():
            D[s, vertices.index(v)] = d
    return D


def check_validation(vertices, edges):
    """validate_complex against the triple scan.  Returns "disconnected",
    "accepted", or the median count of the witness, which is not one."""
    D = bfs_distances(vertices, edges)
    if (D < 0).any():
        with pytest.raises(NotConnected):
            md.validate_complex(vertices, edges)
        return "disconnected"
    defects = md.median_triple_defects(D)
    try:
        md.validate_complex(vertices, edges)
    except NotMedian as ex:
        i, j, k = map(vertices.index, ex.triple)
        medians = [
            vertices[m] for m in range(len(D))
            if D[i, m] + D[m, j] == D[i, j] and D[j, m] + D[m, k] == D[j, k]
            and D[i, m] + D[m, k] == D[i, k]
        ]
        assert len(medians) != 1 and sorted(medians) == ex.medians
        assert defects, (vertices, edges)
        return len(medians)
    assert not defects, (vertices, edges)
    return "accepted"


def test_validate_complex_against_the_triple_scan():
    """Same accept/reject as the n^3 scan; every witness has 0 or >= 2
    medians, and both kinds occur."""
    outcomes = [check_validation(*graph) for graph in random_graphs(1500, seed=4)]
    counts = [o for o in outcomes if isinstance(o, int)]
    assert outcomes.count("accepted") > 100 and len(counts) > 100
    assert 0 in counts and max(counts) >= 2


def reference_accepts(vertices, edges):
    """The earlier certificate: the Djokovic-Winkler sides W_uv of the edges
    embed the connected graph isometrically in a cube, and one round of the
    majority kernel on the rows adds no row (see md.certified_complex)."""
    D = bfs_distances(vertices, edges)
    idx = {v: i for i, v in enumerate(vertices)}
    sides = {tuple(W == W[0]) for W in (D[idx[u]] < D[idx[v]] for u, v in edges)}
    rows = np.packbits(np.array(sorted(sides), dtype=bool).reshape(-1, len(D)).T, axis=1)
    if not np.array_equal(md.hamming_distances(rows), D):
        return False
    return next(md._majority_round(rows, 0, random.Random(0)), None) is None


def test_validate_complex_against_the_majority_round():
    for vertices, edges in random_graphs(600, seed=5):
        if (bfs_distances(vertices, edges) >= 0).all():
            try:
                md.validate_complex(vertices, edges)
                accepted = True
            except NotMedian:
                accepted = False
            assert accepted == reference_accepts(vertices, edges), (vertices, edges)


GRID = [(x, y) for x in range(3) for y in range(3)]
CUBE = [(x, y, z) for x in range(2) for y in range(2) for z in range(2)]


@st.composite
def small_graphs(draw):
    """Graphs of at most 9 vertices: arbitrary ones, or vertex subsets of
    the 3x3 grid or the 3-cube at L1 distance 1 with up to two vertex pairs
    toggled, which are often median or fail only the quadrangle condition."""
    if draw(st.booleans()):
        vertices = [f"v{i}" for i in range(draw(st.integers(1, 9)))]
        pairs = list(combinations(vertices, 2))
        bits = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        return vertices, [e for e, bit in zip(pairs, bits) if bit]
    points = draw(st.lists(st.sampled_from(draw(st.sampled_from([GRID, CUBE]))),
                           min_size=1, unique=True))
    vertices = ["".join(map(str, p)) for p in points]
    pairs = list(combinations(vertices, 2))
    edges = {(u, v) for (u, v), (p, q) in zip(pairs, combinations(points, 2))
             if sum(abs(a - b) for a, b in zip(p, q)) == 1}
    if pairs:
        edges ^= set(draw(st.lists(st.sampled_from(pairs), max_size=2)))
    return vertices, sorted(edges)


@settings(max_examples=300, deadline=None)
@given(small_graphs())
def test_local_certificate_property(graph):
    """On graphs of at most 9 vertices, validate_complex accepts exactly what
    the triple scan accepts, and every witness has 0 or >= 2 medians."""
    check_validation(*graph)


def test_dense_non_median_input_stops_at_a_third_common_neighbour():
    """K_{40,40}: the pair table stops at the first K_{2,3}, whose three
    vertices on one side have all 40 of the other side as medians."""
    left, right = [f"a{i:02}" for i in range(40)], [f"b{i:02}" for i in range(40)]
    with pytest.raises(NotMedian) as exc:
        md.validate_complex(left + right, [(a, b) for a in left for b in right])
    assert exc.value.triple == ("a00", "a01", "a02")
    assert exc.value.medians == right
