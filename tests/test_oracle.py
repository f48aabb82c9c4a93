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
adds the ambient median of every defect triple, both validated by the n^3
certificate of validate_complex.  The wall-row majority kernel and the
certified constructor must give the same complexes.
"""

import random
from collections import deque
from itertools import combinations

import numpy as np
import pytest

from cubetact import contact as ct
from cubetact import median as md
from cubetact import ragroups as rg


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


def check_against_oracle(X):
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
