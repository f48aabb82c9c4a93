"""The incidence-matrix hyperplane core against the square-parallelism oracle.

The reference below is the original path: hyperplanes are union-find classes
of square-opposite edges with one BFS per side, hyperplane pairs are
classified one at a time from frozensets, reduced classes come from a
union-find over the neighbourhood relation, I(w) intersects the W_v over
w's carrier, and the dimension is the largest clique of a link graph.  The
fast path must agree with it, in both reduced modes, on the builtins, random
complexes and the session balls.
"""

from collections import deque
from itertools import combinations

import pytest

from cubetact import contact as ct
from cubetact import median as md


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
