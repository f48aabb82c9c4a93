"""The fast paths against the original ones, kept here as oracles.

Hyperplanes: the reference is the original path, where hyperplanes are
union-find classes of square-opposite edges with one BFS per side,
hyperplane pairs are classified one at a time from frozensets, reduced
classes come from a union-find over the neighbourhood relation, I(w)
intersects the W_v over w's carrier, and the dimension is the largest clique
of a link graph.  The fast path must agree with it, in both reduced modes,
on the builtins, random complexes and the session balls.  analyze reads I
and I0 off the columns of the relation's I, and its interaction section
must be the sorted all_interaction_sets records on the same instances.

Hyperplane rows: the reference is the original compute_hyperplanes, which
built a record per hyperplane (dual edges, sides and carrier as frozensets)
and an edge map with the matrices (eager_hyperplanes, with a record type of
its own).  The rows of sides and carriers, md._dual_edges, hyperplane_of_edge
on every edge in both orientations and ids_at, built on first access, must
agree with it on the builtins, 200 random complexes and three balls.  The
frozenset separating (A inside one side of a record, B inside the other)
is the reference of the row version on seeded random vertex sets, the
empty set among them.

Instances: the references are the tuple-majority random generator and the
ball closure that rebuilds the word-metric distance matrix with nf_mult and
adds the ambient median of every defect triple of the n^3 median scan.  The
projection closure of the generator, the quadrangle repair of the balls and
the certified constructor must give the same complexes.  The generator's
earlier draw loop, which certified each closure with certified_complex and
found its bridges with two md._distances runs and an np.ix_ argmin, is the
reference of its BFS on the integer codes: the same JSON and distances on
every random(6, 5) draw of the pinned pool, on any shape with dim 1-9, and
on antipodal seeds, which must be bridged.

Ball skeletons: the reference is build_ball's original product path, which
multiplied every element of the closure by every letter, took the products
inside the ball as its edges, and checked that each edge and each
hyperplane carries one generator.  build_ball, which reads its edges and
labels off the closed wall rows, must give the same vertices, name-pair
edges and hyperplane labels on the builtin and session balls and on random
defining graphs, the empty one included, in both kinds at radii 1-3.

Normal forms: the reference is the original pair, an append-only push
that merges each syllable with the last same-generator syllable reachable
across commuting ones, followed by a greedy re-sort of the whole word that
takes the available syllable with the least generator at each step.  The
insertion push (rg._push), which builds each product canonical, must give
its nf_mult, normal_form, ambient_median and wall keys on random defining
graphs with 1-6 generators in any vertex order, in both kinds, on words
with cancellations.

Closures: the reference is the wall-row majority kernel (majority_closure,
below), which closes packed 0/1 rows round by round over every triple.  The
projection closure (md._projection_closure) must give its closure on every
row set; the quadrangle repair (md._repair_quadrangles) must give it on
every row set whose Hamming-1 graph is connected, and {110, 101, 011}, with
no edge, shows that it needs that.  The descent test of certified_complex
(md._descends) must decide the BFS reachability of all rows on both
closures, connected or not, and imply it on any rows.

Squares and links: the reference squares come from a triple loop over each
vertex and two of its neighbours, and the reference link of v from the
squares through v.  The pair table must give the same squares, as index
rows in the order of their pairs in the table, and the same links.

Pair table: the reference is the dict that the table used to be, built
by a loop over each vertex and the pairs of its neighbours.  md._pair_table
must give its keys, in its order, and the first and last entry of each
value, or raise NotMedian with the same message, on the distance inputs,
balls and random graphs below, and on connected bipartite graphs (grids
with chords, stars, K_{2,3}-rich graphs) in any vertex order.  Its size
estimate must refuse it before it allocates, and bound its traced peak.

Certificate: the references are the n^3 median scan, md.median_triple_defects,
and the earlier certificate: the Djokovic-Winkler sides embed the graph
isometrically in a cube and one round of the majority kernel adds no row.
validate_complex (bipartite layers, then the pair table's K_{2,3} and
quadrangle checks) must accept exactly the connected graphs that they
accept, and name a triple whose median count, found by brute force, is not
one.

Edges: the reference is the original path from named edges, a name pass
into a set of index pairs followed by compute_hyperplanes' sort of the name
tuples.  validate_complex's one name pass and the constructor's sort must
give its X.edges and hyperplane ids on random median complexes under str,
int and mixed numeric names, in any vertex order, with edges repeated and
reversed; the generators must hand the constructor index arrays.

Adjacency: the reference is the matrix of the named rows of X.edges.
X.adjacency, built from X.edges whether or not the complex has its metric,
must equal it on the builtins, random complexes, the session balls and
every graph that validate_complex accepts.

Distances: the reference is a Python BFS from each source.  The bit-parallel
all-sources BFS (md._all_distances) must give the same matrix, in one source
block or several, and an accepted graph must carry it as X._dist.

Cliques: the references are networkx's find_cliques, where networkx is
installed (it is no runtime dependency), and the original recursive
Bron-Kerbosch on Python sets.  The bitset enumeration maximal_cliques must
give the same cliques, isolated vertices as singletons: as networkx on the
contact and crossing graphs of the builtins, random complexes and the
session balls and on seeded random graphs, and as the set enumeration on
random graphs with at most 14 vertices, the empty, edgeless and complete
ones included.

Convexity and Helly: the references are the interval tensor T[u, v, w] (w on
a geodesic from u to v, 5 n^3 bytes), read through one np.ix_ slice per set,
and the unblocked Gram Helly check, which holds about 10 bytes per pair of
intersecting pairs.  Local convexity (descent and the pair table) and the
row-blocked Helly check must give the same answers and the same lists.

Blocking and extremality: the references are the original reconstruct,
which tests every clique pair against every third clique, the original
adjacency criterion, which tests one vertex pair against every third
vertex, and extremality as is_cone of the link graph of each vertex.  The
row kernel rc._joined (read by reconstruct, adjacency_criterion and the
criterion suite) and md.extremality (a count over the pair table) must give
the same edges, pairs and flags on the builtins, random complexes, balls
and corpus documents, and _joined must match its literal definition on
random small set families.

Runs: the references are the normal-form walks that multiplied by one
letter with nf_mult until the product left the ball.  Segment classes came
from walking each vertex's segment and merging overlapping crossed sets,
syllable neighbours from walking by each letter.  The union-find over the
ball's edge labels (rg._segment_classes, rg._syllable_graph) must give the
same classes, in the same order, and the same syllable graph, on the artin
and coxeter balls of the builtin graphs at radius 1-3 and of the 52 graphs
with 1-5 vertices at radius 2 (segments on artin balls only).  There the
extension graph's edges must be the class edges over the contact family's
crossing sets, and "isomorphic" must be "same_partition" and the equality
of the class edges and the reduced edges, so the comparison's proof holds
on each ball.  syllable_distance must give the BFS distance of the walked
graph on every vertex pair of three artin balls.

Output: the reference is the CLI's original encoding, json.dumps with
indent=2, sort_keys=True and a fallback that writes sets as lists sorted
by str, and the original hyperplane report, which sorted each side and
carrier by str.  cli._encode must give the same text, or raise TypeError
where json.dumps does, on nested values of every kind, and write a 1-d or
2-d int or str array as the reference writes its tolist(); what cli.main
writes must be the reference encoding of its document, arrays as lists,
for generate, analyze and verify; hyperplane_report, its arrays as lists,
must give the same report on the builtins, random complexes, a ball and a
complex with int vertices.

Hyperplane maps: the references are the original per-edge loops.
induce_iota took hyperplane_of_edge of the image of each edge inside the
map's domain and collected the images per hyperplane; davis_phi did the
same over the dual edges of each A+ hyperplane, reflecting each end with
nf_mult, and reflected the a-plus vertices one by one for rho_map.
md._hyperplane_map and induce_iota must give the loop's maps, or raise its
errors with its texts, on translations by random words of the session
balls, random restrictions of them and maps that send an edge to a
non-edge or scatter a hyperplane; davis_phi must give the loops' phi and
rho_map on the P4 and STAR_EQ5 coxeter balls of radius 4 at bases 1 and c;
and one vertex must give the empty map.

Graphs: the references are the original writers of the contact family's
graphs, which read dicts of sets.  family_to_json and graph_to_dot read the
bool matrices, and must give the same bytes on random symmetric matrices
with at most 12 vertices, the empty and complete graphs among them, and on
the families of the oracle instances above.

Reduced maps: the reference is the original pushforward_reduced, which
checked, after the automorphism check, that each class goes onto one class
of its size and that the class map is a bijection.  pushforward_reduced,
which reads the image of each class off its first member, must give the
same map on the crossing-graph automorphisms that networkx's GraphMatcher
finds (a capped number per graph), in both modes, on the builtins, random
complexes and small balls, and raise the same error on random shuffles.
"""

import json
import random
import sys
import tracemalloc
from collections import deque, namedtuple
from itertools import combinations, islice
from operator import xor
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    adjacency_of,
    edge_names,
    edge_set,
    has_edge,
    index_pairs,
    matrix_of,
    skeleton_of,
    wall_row_mismatches,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cubetact import cli
from cubetact import contact as ct
from cubetact import median as md
from cubetact import ragroups as rg
from cubetact import reconstruction as rc
from cubetact import verify as vf
from cubetact.errors import (
    CubetactError,
    HyperplaneNotPreserved,
    NotAnAutomorphism,
    NotConnected,
    NotMedian,
    SizeLimitExceeded,
)

CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "corpus"


def reference_hyperplanes(X):
    """(dual_edges, side_a, side_b, carrier) per hyperplane, in id order."""
    edges = sorted(edge_set(X), key=lambda e: tuple(sorted(e)))
    parent = {e: e for e in edges}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b, c, d in ([X.vertices[i] for i in sq] for sq in X.squares.tolist()):
        for e1, e2 in (((a, b), (c, d)), ((b, c), (d, a))):
            r1, r2 = find(frozenset(e1)), find(frozenset(e2))
            if r1 != r2:
                parent[r1] = r2
    classes = {}
    for e in edges:
        classes.setdefault(find(e), []).append(e)
    ordered = sorted(classes.values(), key=lambda es: tuple(sorted(es[0])))

    out, adj = [], skeleton_of(X)
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
                for w in adj[u]:
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
    best = 1 if len(X.edges) else 0

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
    found, adj = {}, skeleton_of(X)
    for a in X.vertices:
        for b, d in combinations(sorted(adj[a]), 2):
            for c in (adj[b] & adj[d]) - {a}:
                found.setdefault(frozenset((a, b, c, d)), (a, b, c, d))
    return tuple(sorted(found.values()))


def reference_link_graph(X, v):
    """The hyperplanes at v, joined through each square at v."""
    adjacency = set()
    for sq in reference_squares(X):
        if v in sq:
            i = sq.index(v)
            h1 = X.hyperplane_of_edge(v, sq[i - 1])
            h2 = X.hyperplane_of_edge(v, sq[(i + 1) % 4])
            if h1 != h2:
                adjacency.add(frozenset((h1, h2)))
    return md.LinkGraph(v, frozenset(md.hyperplanes_at(X, v)), frozenset(adjacency))


def hyperplane_sets(X):
    """(dual_edges, side_a, side_b, carrier) per hyperplane, in id order, read
    off md._dual_edges and X's rows of sides and carriers."""
    def named(row):
        return frozenset(v for v, t in zip(X.vertices, row) if t)

    return [(frozenset(map(frozenset, dual)), named(a), named(~a), named(k))
            for dual, a, k in zip(md._dual_edges(X), X.sides, X.carriers)]


def check_adjacency(X):
    """X.adjacency is the matrix of X.edges, read-only, on a copy of X
    without its metric, on one with it, and on X."""
    want = adjacency_matrix(list(X.vertices), edge_names(X))
    for dist in (None, X._dist):
        M = md.CubeComplex(X.vertices, X.edges, dist).adjacency
        assert M.dtype == bool and not M.flags.writeable and np.array_equal(M, want)
    assert np.array_equal(X.adjacency, want) and not X.adjacency.flags.writeable


def check_squares(X):
    """X.squares against the triple loop: each square once, from its first
    vertex a, with b < d by name, and the rows in the order of their pairs
    b, d in X.pair_table."""
    V, rows = X.vertices, X.squares.tolist()
    named = [(V[a], min(V[b], V[d]), V[c], max(V[b], V[d])) for a, b, c, d in rows]
    assert tuple(sorted(named)) == reference_squares(X)
    at = {pair: r for r, pair in enumerate(map(tuple, X.pair_table[0].tolist()))}
    order = [at[b, d] for a, b, c, d in rows]
    assert order == sorted(order) and all(a < c and b < d for a, b, c, d in rows)


def check_against_oracle(X):
    check_adjacency(X)
    check_squares(X)
    for v in X.vertices:
        assert md.link_graph(X, v) == reference_link_graph(X, v)
    hyps = reference_hyperplanes(X)
    assert hyperplane_sets(X) == hyps
    for v in X.vertices:
        assert md.hyperplanes_at(X, v) == {
            h for h, (_, _, _, k) in enumerate(hyps) if v in k
        }

    for mode in ct.REDUCED_MODES:
        labels, contact, crossing, classes, class_of, reduced = reference_family(
            hyps, mode
        )
        F = ct.build_contact_family(X, mode=mode)
        assert adjacency_of(F.contact) == contact
        assert adjacency_of(F.crossing) == crossing
        assert F.classes == classes
        assert dict(enumerate(F.class_of.tolist())) == class_of
        assert adjacency_of(F.reduced) == reduced
        assert cli._encode(ct.family_to_json(F)) == cli._encode(reference_family_json(F))
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


def check_interaction_section(X, tmp_path):
    """analyze's interaction section, read off the columns of the relation's
    I, is the sorted all_interaction_sets records of the complex it reads."""
    doc, src, dst = md.complex_to_json(X), tmp_path / "in.json", tmp_path / "out.json"
    src.write_text(json.dumps(doc))
    assert cli.main(["analyze", "--in", str(src), "--out", str(dst)]) == 0
    isets = ct.all_interaction_sets(md.complex_from_json(doc))
    assert json.loads(dst.read_text())["interaction"] == {
        str(w): {"I": sorted(s.I), "I0": sorted(s.I0)} for w, s in isets.items()}


@pytest.mark.parametrize("name", md.BUILTIN_COMPLEXES)
def test_interaction_section_builtins(name, tmp_path):
    check_interaction_section(md.builtin_complex(name), tmp_path)


def test_interaction_section_random(tmp_path):
    for seed in range(1, 51):
        check_interaction_section(md.random_median_complex(6, 5, seed), tmp_path)


@pytest.mark.parametrize(
    "fixture",
    ["y_c5_r3", "y_p4_r4", "y_st5_r3", "y_st5_r4", "x_c5_r2", "x_f2_r3", "z2_r3"],
)
def test_interaction_section_balls(fixture, request, tmp_path):
    check_interaction_section(request.getfixturevalue(fixture).complex, tmp_path)


Record = namedtuple("Record", "id dual_edges side_a side_b carrier")


def eager_hyperplanes(X):
    """The original compute_hyperplanes, which built the records with the
    matrices: (records, edge map, ids_at, sides, carriers), X unchanged."""
    n, D = len(X.vertices), X._dist
    edges = sorted(tuple(sorted(e)) for e in edge_set(X))
    eu = np.array([X.index[u] for u, _ in edges], dtype=np.intp)
    ev = np.array([X.index[v] for _, v in edges], dtype=np.intp)
    label = np.full(len(edges), -1, dtype=np.intp)
    rows, classes = [], []  # each class's side (holding vertex 0) and edges
    for e in range(len(edges)):
        if label[e] >= 0:
            continue
        W = D[eu[e]] < D[ev[e]]
        row = W == W[0]
        members = (row[eu] != row[ev]).nonzero()[0]
        label[members] = len(rows)
        rows.append(row)
        classes.append(members)
    H, A = len(rows), np.array(rows, dtype=bool).reshape(-1, n)
    # swap to the other side where its first vertex has the smaller str
    first_off = np.argmin(A, axis=1).tolist()
    flip = [str(X.vertices[i]) < str(X.vertices[0]) for i in first_off]
    A ^= np.array(flip, dtype=bool).reshape(H, 1)
    K = np.zeros((H, n), dtype=bool)
    K[label, eu] = True
    K[label, ev] = True

    hyperplanes = []
    sides_a, sides_b = md._true_columns(A), md._true_columns(~A)
    for h, (es, side_a, side_b) in enumerate(zip(classes, sides_a, sides_b)):
        dual = frozenset(frozenset(edges[e]) for e in es.tolist())
        hyperplanes.append(Record(
            h,
            dual,
            frozenset(X.vertices[i] for i in side_a),
            frozenset(X.vertices[i] for i in side_b),
            frozenset(v for e in dual for v in e),
        ))
    edge_to_h = {
        frozenset(edges[e]): hyperplanes[h] for e, h in enumerate(label.tolist())
    }
    ids_at = tuple(map(frozenset, md._true_columns(K.T)))
    return tuple(hyperplanes), edge_to_h, ids_at, A, K


def check_records_against_eager(X):
    """On a fresh copy of X: the rows of sides and carriers, the dual edges,
    the id of every edge and, built on first access, ids_at against
    eager_hyperplanes."""
    hyps, edge_to_h, ids_at, A, K = eager_hyperplanes(X)
    X = md.CubeComplex(X.vertices, X.edges, X._dist, X.squares)
    assert np.array_equal(X.sides, A) and np.array_equal(X.carriers, K)
    dual = md._dual_edges(X)
    assert [frozenset(map(frozenset, es)) for es in dual] == [h.dual_edges for h in hyps]
    assert all(es == sorted(es) and all(u < v for u, v in es) for es in dual)
    assert len(edge_to_h) == len(X.edges)
    for e, h in edge_to_h.items():
        u, v = tuple(e)
        assert X.hyperplane_of_edge(u, v) == X.hyperplane_of_edge(v, u) == h.id
        assert type(X.hyperplane_of_edge(u, v)) is int
    assert "ids_at" not in vars(X)
    assert X.ids_at == ids_at


@pytest.mark.parametrize("name", md.BUILTIN_COMPLEXES)
def test_records_builtins(name):
    check_records_against_eager(md.builtin_complex(name))


def test_records_random():
    for seed in range(200):
        check_records_against_eager(md.random_median_complex(6, 5, seed))


@pytest.mark.parametrize("fixture", ["x_c5_r2", "y_p4_r4", "y_st5_r4"])
def test_records_balls(fixture, request):
    check_records_against_eager(request.getfixturevalue(fixture).complex)


def reference_separating(hyps, A, B):
    """The original separating: the ids of the records with A inside one
    side and B inside the other."""
    return {h.id for h in hyps
            if (A <= h.side_a and B <= h.side_b) or (A <= h.side_b and B <= h.side_a)}


def test_separating_against_the_records():
    """separating's rows against the records, on vertex sets of up to three
    vertices, the empty set included, of the builtins and random complexes."""
    rng = random.Random(3)
    grounds = [md.builtin_complex(name) for name in md.BUILTIN_COMPLEXES]
    grounds += [md.random_median_complex(6, 5, seed) for seed in range(30)]
    found = []
    for X in grounds:
        hyps = eager_hyperplanes(X)[0]
        for _ in range(40):
            A, B = (set(rng.sample(X.vertices, rng.randint(0, min(3, len(X)))))
                    for _ in "AB")
            got = md.separating(X, A, B)
            assert got == reference_separating(hyps, A, B), (A, B)
            found.append(len(got))
        assert md.separating(X, set(), set()) == set(range(len(hyps)))
    assert found.count(0) > 100 and sum(n > 1 for n in found) > 100


# ---------------------------------------------------------------------------
# Edges

def reference_edges(vertices, edges):
    """The original path from named edges to X.edges: the constructor's
    name pass into a set of index pairs (i, j), i < j, then
    compute_hyperplanes' sort of the (u, v, i, j) name tuples, the smaller
    name first.  Returns the (m, 2) intp ends in that order."""
    V = list(dict.fromkeys(vertices))
    index, pairs = {v: i for i, v in enumerate(V)}, set()
    for e in edges:
        i, j = (index[v] for v in e)
        pairs.add((i, j) if i < j else (j, i))
    named = sorted((V[i], V[j], i, j) if V[i] < V[j] else (V[j], V[i], j, i) for i, j in pairs)
    return np.array([e[2:] for e in named], dtype=np.intp).reshape(-1, 2)


def reference_labels(ends, D):
    """compute_hyperplanes' class loop on the ends: an edge in no class yet
    takes every edge crossing its side."""
    eu, ev = ends.T
    label, H = np.full(len(ends), -1, dtype=np.intp), 0
    for e in range(len(ends)):
        if label[e] < 0:
            W = D[eu[e]] < D[ev[e]]
            label[W[eu] != W[ev]] = H
            H += 1
    return label


@st.composite
def named_median_graphs(draw):
    """(vertices, edges) of a random median complex under new names (str,
    int, or ints and floats mixed), its vertices in a drawn order, its edges
    shuffled, each reversed or not, some given twice."""
    X = md.random_median_complex(draw(st.integers(1, 5)), draw(st.integers(1, 6)),
                                 draw(st.integers(0, 10 ** 6)))
    n, kind = len(X), draw(st.sampled_from(["str", "int", "mixed"]))
    keys = draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n, unique=True))
    names = {"str": [str(k) for k in keys], "int": keys,
             "mixed": [k if k % 2 == 0 else k + 0.5 for k in keys]}[kind]
    vertices = [names[i] for i in draw(st.permutations(range(n)))]
    edges = [(names[i], names[j]) for i, j in X.edges.tolist()]
    edges += draw(st.lists(st.sampled_from(edges), max_size=4)) if edges else []
    edges = [e[::-1] if draw(st.booleans()) else e for e in draw(st.permutations(edges))]
    return vertices, edges


@settings(max_examples=200, deadline=None)
@given(named_median_graphs())
def test_edges_against_the_name_pass(graph):
    """validate_complex's one name pass and the constructor's sort give the
    ends and the hyperplane ids of the original path."""
    vertices, edges = graph
    X = md.validate_complex(vertices, edges)
    want = reference_edges(vertices, edges)
    ends, label = X.edge_labels
    assert ends is X.edges and X.edges.dtype == np.intp
    assert np.array_equal(X.edges, want), graph
    assert np.array_equal(label, reference_labels(want, X._dist)), graph


def test_generators_hand_the_constructor_index_arrays(monkeypatch):
    """The constructor gets index pairs as ndarrays, not names, from the
    quadrangle repair, from random_median_complex, which reads them off its
    codes' bit flips, and from certified_complex, which reads them off the
    distances for build_ball."""
    calls = []

    class Spy(md.CubeComplex):
        def __init__(self, vertices, edges, dist, squares=None):
            frame = sys._getframe(1)
            calls.append((frame.f_code.co_name, frame.f_back.f_code.co_name, type(edges)))
            super().__init__(vertices, edges, dist, squares)

    monkeypatch.setattr(md, "CubeComplex", Spy)
    md.random_median_complex(5, 6, 3)
    rg.build_ball(rg.builtin_defining_graph("STAR_EQ5"), rg.ARTIN, 3)  # one repair round
    assert set(calls) == {("random_median_complex", sys._getframe().f_code.co_name, np.ndarray),
                          ("_repair_quadrangles", "median_closure", np.ndarray),
                          ("certified_complex", "build_ball", np.ndarray)}


def test_maximal_cliques_against_networkx(request):
    nx = pytest.importorskip("networkx")

    def check(adjacency):
        G = nx.Graph()
        G.add_nodes_from(adjacency)
        G.add_edges_from((u, w) for u in adjacency for w in adjacency[u])
        expected = sorted(tuple(sorted(cl)) for cl in nx.find_cliques(G))
        assert named_cliques(adjacency) == expected

    complexes = [md.builtin_complex(name) for name in md.BUILTIN_COMPLEXES]
    complexes += [md.random_median_complex(6, 5, seed) for seed in range(1, 51)]
    complexes += [request.getfixturevalue(f).complex for f in (
        "y_c5_r3", "y_p4_r4", "y_st5_r3", "y_st5_r4", "x_c5_r2", "x_f2_r3", "z2_r3")]
    for X in complexes:
        F = ct.build_contact_family(X)
        check(adjacency_of(F.contact))
        check(adjacency_of(F.crossing))

    rng = random.Random(0)
    for _ in range(300):
        n, p = rng.randint(1, 14), rng.random()
        adjacency = {v: set() for v in range(n)}
        for u, w in combinations(range(n), 2):
            if rng.random() < p:
                adjacency[u].add(w)
                adjacency[w].add(u)
        check(adjacency)


def named_cliques(adjacency):
    """maximal_cliques of a dict-of-sets graph, each clique as its nodes:
    the nodes are sorted, so the order of the cliques is kept."""
    nodes, M = matrix_of(adjacency)
    return [tuple(nodes[k] for k in cl) for cl in rc.maximal_cliques(M)]


def reference_maximal_cliques(adjacency):
    """The original enumeration: recursive Bron-Kerbosch on Python sets, the
    pivot being the vertex of P | X with the most neighbours in P."""
    out = []

    def expand(clique, cands, excluded):
        if not cands and not excluded:
            out.append(tuple(sorted(clique)))
            return
        pivot = max(cands | excluded, key=lambda v: len(adjacency[v] & cands))
        for v in sorted(cands - adjacency[pivot]):
            expand(clique | {v}, cands & adjacency[v], excluded & adjacency[v])
            cands = cands - {v}
            excluded = excluded | {v}

    adjacency = {v: set(nb) for v, nb in adjacency.items()}
    expand(set(), set(adjacency), set())
    return sorted(out)


def graph_on(labels, pairs):
    """The adjacency dict of sets of the graph on labels with edges pairs."""
    adjacency = {v: set() for v in labels}
    for u, w in pairs:
        adjacency[u].add(w)
        adjacency[w].add(u)
    return adjacency


@st.composite
def labelled_graphs(draw):
    """Graphs on 0-14 distinct int labels, drawn in no particular order."""
    labels = draw(st.lists(st.integers(-50, 50), max_size=14, unique=True))
    pairs = list(combinations(labels, 2))
    bits = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return graph_on(labels, [e for e, bit in zip(pairs, bits) if bit])


@settings(max_examples=300, deadline=None)
@given(labelled_graphs())
@example(graph_on([], []))
@example(graph_on(range(14), []))
@example(graph_on(range(14), combinations(range(14), 2)))
@example(graph_on([3, -1, 7], [(3, 7)]))
def test_bitset_cliques_are_the_set_enumeration(adjacency):
    """The bitset enumeration gives the set enumeration's cliques, in the
    same canonical order, on the empty, edgeless and complete graphs and
    on random graphs with at most 14 vertices."""
    assert named_cliques(adjacency) == reference_maximal_cliques(adjacency)


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
    np.testing.assert_array_equal(X.edges, Y.edges)
    assert X._dist.dtype == Y._dist.dtype
    np.testing.assert_array_equal(X._dist, Y._dist)
    np.testing.assert_array_equal(X.squares, Y.squares)


def reference_ball_skeleton(gamma, kind, radius):
    """build_ball's original product path: a BFS that keeps each word's
    products with every letter, median_closure, the products of the medians
    it adds, and the table of the products inside the closure, which must
    give each edge one generator.  Returns (names, on): the vertex names of
    the closure in order, and each edge as a sorted name pair -> its
    generator."""
    letters = rg._letters(gamma, kind)

    def step(w):
        return [rg.nf_mult(gamma, kind, w, (letter,)) for letter in letters]

    words, queue = {(): None}, deque([()])  # word -> its products
    while queue:
        w = queue.popleft()
        words[w] = step(w)
        for w2 in words[w]:
            if rg.word_length(kind, w2) <= radius and w2 not in words:
                words[w2] = None
                queue.append(w2)
    ids = rg.median_closure(gamma, kind, words, md.vertex_cap())[0]
    inside, on = set(ids), {}
    for w in ids:
        for (g, _), w2 in zip(letters, words.get(w) or step(w)):
            if w2 in inside:
                e = tuple(sorted((rg.format_word(w), rg.format_word(w2))))
                assert on.setdefault(e, g) == g, f"edge {list(e)} carries {on[e]} and {g}"
    return [rg.format_word(w) for w in ids], on


def check_ball_skeleton(ball):
    """The ball's vertices and edges are those of the product path, and the
    generators of each hyperplane's dual edges there are one, its label."""
    X = ball.complex
    names, on = reference_ball_skeleton(ball.gamma, ball.kind, ball.radius)
    assert list(X.vertices) == names
    assert set(edge_names(X)) == set(on)
    labs = [set() for _ in X.sides]
    for e, h in zip(edge_names(X), X.edge_labels[1].tolist()):
        labs[h].add(on[e])
    assert all(len(gs) == 1 for gs in labs), labs
    assert ball.labels == {h: gs.pop() for h, gs in enumerate(labs)}


def check_ball_against_oracle(ball):
    """Same closure and distances as the reference, and rows that mark each
    element's walls; same complex as validation; same edges and labels as
    the product path."""
    gamma, kind = ball.gamma, ball.kind
    words = {w for w in ball.words.values() if rg.word_length(kind, w) <= ball.radius}
    ref_elems, ref_D = reference_median_closure(gamma, kind, words)
    elems, D, rows, walls = rg.median_closure(gamma, kind, words, md.vertex_cap())
    assert elems == ref_elems
    assert D.dtype == ref_D.dtype
    np.testing.assert_array_equal(D, ref_D)
    assert not wall_row_mismatches(gamma, kind, elems, rows, walls)
    X = ball.complex
    assert list(X.vertices) == [rg.format_word(w) for w in ref_elems]
    assert_same_complex(X, md.validate_complex(X.vertices, edge_names(X)))
    check_ball_skeleton(ball)


@pytest.mark.parametrize(
    "shape",
    [(6, 5, s) for s in range(1, 101)] + [(8, 10, 2), (8, 10, 5)],
    ids=lambda shape: "-".join(map(str, shape)),
)
def test_random_generator_against_oracle(shape):
    assert_same_complex(md.random_median_complex(*shape), reference_random_median_complex(*shape))


def drawn_codes(ambient_dim, seed_count, rng_seed):
    """The seed codes of random_median_complex's draw, as a set of ints."""
    rng = random.Random(rng_seed)
    points = set()
    while len(points) < min(seed_count, 2 ** ambient_dim):
        code = 0
        for _ in range(ambient_dim):
            code = 2 * code + rng.randint(0, 1)
        points.add(code)
    return points


def descent_random_median_complex(ambient_dim, seed_count, rng_seed):
    """The draw loop that random_median_complex ran before it held its codes
    as ints: each closure goes to certified_complex, and when its descent
    test raises NotConnected, two md._distances BFS runs give the first two
    components, and the first argmin of their np.ix_ block of distances
    the pair that a bit-flip path bridges.  Returns (X, bridges), the
    number of paths added."""
    weights = 1 << np.arange(ambient_dim)[::-1]  # codes sort like the strings
    codes, bridges = np.unique(list(drawn_codes(ambient_dim, seed_count, rng_seed))), 0
    while True:
        codes = md._projection_closure(codes, ambient_dim)
        D = md.hamming_distances(codes[:, None])
        names = [format(c, f"0{ambient_dim}b") for c in codes.tolist()]
        try:
            return md.certified_complex(names, D), bridges
        except NotConnected:
            pass
        A = D == 1
        c0 = md._distances(A, 0) >= 0
        a, b = np.flatnonzero(c0), np.flatnonzero(md._distances(A, np.argmin(c0)) >= 0)
        i, j = np.unravel_index(np.argmin(D[np.ix_(a, b)]), (len(a), len(b)))
        p, q = codes[a[i]], codes[b[j]]
        # flip the differing coordinates in ascending order, keeping each step
        codes = np.unique(np.append(codes, p ^ np.cumsum(weights[((p ^ q) & weights) > 0])))
        bridges += 1


def check_draw_against_descent(shape):
    """random_median_complex(*shape) writes the descent path's JSON and
    carries its distances; returns the descent path's bridge count."""
    X, bridges = descent_random_median_complex(*shape)
    Y = md.random_median_complex(*shape)
    assert md.complex_to_json(Y) == md.complex_to_json(X), shape
    assert Y._dist.dtype == X._dist.dtype and np.array_equal(Y._dist, X._dist), shape
    return bridges


def test_integer_draws_against_the_descent_path():
    """Every random(6, 5) draw of the pinned pool; most of them bridge."""
    bridged = sum(check_draw_against_descent((6, 5, s)) > 0 for s in range(1, 4097))
    assert bridged == 2386  # of 4096


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 9), st.integers(1, 12), st.integers(0, 2 ** 32))
def test_integer_draws_against_the_descent_path_on_any_shape(dim, seed_count, rng_seed):
    check_draw_against_descent((dim, seed_count, rng_seed))


def test_antipodal_seeds_are_bridged_by_a_path():
    """Two antipodal seeds are closed, two points with no edge.  Both draw
    paths bridge them once, by the path from the smaller code that flips
    the coordinates in ascending order, and that path is closed."""
    for dim in range(2, 10):
        full = 2 ** dim - 1
        antipodal = (s for s in range(1 << 20) if xor(*drawn_codes(dim, 2, s)) == full)
        seeds = list(islice(antipodal, 3))
        assert len(seeds) == 3, dim
        for seed in seeds:
            p = min(drawn_codes(dim, 2, seed))
            assert md._projection_closure([p, p ^ full], dim).tolist() == [p, p ^ full]
            assert check_draw_against_descent((dim, 2, seed)) == 1
            X = md.random_median_complex(dim, 2, seed)
            path = [p ^ full ^ ((1 << k) - 1) for k in range(dim, -1, -1)]
            assert X.vertices == tuple(sorted(format(c, f"0{dim}b") for c in path))
            assert sorted(map(sorted, edge_names(X))) == sorted(
                sorted(format(c, f"0{dim}b") for c in pair) for pair in zip(path, path[1:]))


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


def reference_push(gamma, kind, sylls, g, e):
    """Merge with the last same-generator syllable reachable across
    commuting syllables, or append."""
    if kind == rg.COXETER:
        e = e % 2
    if e == 0:
        return
    i = len(sylls) - 1
    while i >= 0:
        h, f = sylls[i]
        if h == g:
            merged = (f + e) % 2 if kind == rg.COXETER else f + e
            if merged == 0:
                del sylls[i]
            else:
                sylls[i] = (g, merged)
            return
        if not gamma.commute(h, g):
            break
        i -= 1
    sylls.append((g, e))


def reference_canonicalize(gamma, sylls):
    """The greedy linearization: at each step, the available syllable with
    the least generator."""
    remaining = list(sylls)
    out = []
    while remaining:
        best = None
        for i, (g, e) in enumerate(remaining):
            if any(h == g or not gamma.commute(h, g) for h, _ in remaining[:i]):
                continue
            if best is None or gamma.order[g] < gamma.order[remaining[best][0]]:
                best = i
        out.append(remaining.pop(best))
    return tuple(out)


def reference_nf_mult(gamma, kind, w1, w2):
    sylls = list(w1)
    for g, e in w2:
        if kind == rg.COXETER:
            reference_push(gamma, kind, sylls, g, e)
        else:
            for _ in range(abs(e)):
                reference_push(gamma, kind, sylls, g, 1 if e > 0 else -1)
    return reference_canonicalize(gamma, sylls)


def reference_ambient_median(gamma, kind, x, y, z):
    u = reference_nf_mult(gamma, kind, rg.nf_inverse(kind, x), y)
    v = reference_nf_mult(gamma, kind, rg.nf_inverse(kind, x), z)
    m = x
    while True:
        common = rg.initial_letters(gamma, kind, u) & rg.initial_letters(gamma, kind, v)
        if not common:
            return m
        g, s = min(common, key=lambda le: (gamma.order[le[0]], le[1]))
        step = ((g, s),)
        inv_step = ((g, -s),) if kind == rg.ARTIN else step
        m = reference_nf_mult(gamma, kind, m, step)
        u = reference_nf_mult(gamma, kind, inv_step, u)
        v = reference_nf_mult(gamma, kind, inv_step, v)


def reference_walls(gamma, w):
    prefix = ()
    for g, e in w:
        lk = gamma.lk(g)
        for k in range(min(e, 0), max(e, 0)):
            kept = []
            for h, f in reversed(prefix + ((g, k),) if k else prefix):
                if h not in lk or not all(gamma.commute(h, x) for x, _ in kept):
                    kept.append((h, f))
            yield g, reference_canonicalize(gamma, kept[::-1])
        prefix += ((g, e),)


@st.composite
def defining_graphs(draw):
    """Graphs on 1-6 generators, named in a random order."""
    names = draw(st.permutations("abcdef"))[:draw(st.integers(1, 6))]
    pairs = list(combinations(names, 2))
    bits = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return rg.DefiningGraph(names, [e for e, bit in zip(pairs, bits) if bit])


@settings(max_examples=60, deadline=None)
@given(defining_graphs(), st.sampled_from([rg.ARTIN, rg.COXETER]), st.integers(1, 3))
@example(rg.DefiningGraph([], []), rg.ARTIN, 1)
@example(rg.DefiningGraph([], []), rg.COXETER, 1)
def test_ball_edges_and_labels_against_the_products(gamma, kind, radius):
    """build_ball reads its edges and labels off the wall rows; the product
    path gives the same name-pair edges and the same label on every
    hyperplane, on random defining graphs and the empty one."""
    check_ball_skeleton(rg.build_ball(gamma, kind, radius))


def cancelling_words(draw, gamma, kind):
    """A word, then the inverse of one of its tails: the product cancels."""
    exponents = [1] if kind == rg.COXETER else [-2, -1, 1, 2]
    syllable = st.tuples(st.sampled_from(gamma.vertices), st.sampled_from(exponents))
    w = tuple(draw(st.lists(syllable, max_size=7)))
    tail = draw(st.integers(0, len(w)))
    return w + rg.nf_inverse(kind, w[tail:]) + tuple(draw(st.lists(syllable, max_size=3)))


@settings(max_examples=300, deadline=None)
@given(defining_graphs(), st.sampled_from([rg.ARTIN, rg.COXETER]), st.data())
def test_normal_forms_against_the_greedy_resort(gamma, kind, data):
    """nf_mult, normal_form, ambient_median and the wall keys of the
    insertion push are those of the append-only push and the re-sort."""
    words = [cancelling_words(data.draw, gamma, kind) for _ in range(4)]
    forms = [rg.normal_form(gamma, kind, w) for w in words]
    assert forms == [reference_nf_mult(gamma, kind, (), w) for w in words]
    for a, b in combinations(range(4), 2):
        assert rg.nf_mult(gamma, kind, forms[a], words[b]) == \
            reference_nf_mult(gamma, kind, forms[a], words[b])
    x, y, z = forms[:3]
    assert rg.ambient_median(gamma, kind, x, y, z) == \
        reference_ambient_median(gamma, kind, x, y, z)
    for w in forms:
        assert list(rg._walls(gamma, kind, w)) == list(reference_walls(gamma, w))


@pytest.mark.parametrize("seed", range(1, 11))
def test_majority_kernel_against_tuple_closure(seed):
    """Same closed set as the tuple closure, over two 64-bit words, with each
    new row the majority of earlier rows, its witnesses."""
    rng = np.random.default_rng(seed)
    bits = np.unique(rng.integers(0, 2, (4, 70)).astype(bool), axis=0)
    closed, witnesses = majority_closure(np.packbits(bits, axis=1), md.vertex_cap())
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
            vertices, edges = list(X.vertices), {tuple(sorted(e)) for e in edge_names(X)}
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
        X = md.validate_complex(vertices, edges)
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
    assert np.array_equal(X._dist, D), (vertices, edges)
    check_adjacency(X)
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
    return next(_majority_round(rows, 0, random.Random(0)), None) is None


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


def test_dense_non_median_input_stops_at_a_third_common_neighbour(monkeypatch):
    """K_{40,40}: the pair table stops at the first K_{2,3}, whose three
    vertices on one side have all 40 of the other side as medians, before
    any all-pairs distance is computed."""
    left, right = [f"a{i:02}" for i in range(40)], [f"b{i:02}" for i in range(40)]

    def unreachable(adjacent):
        raise AssertionError("all-pairs distances computed on dense input")

    monkeypatch.setattr(md, "_all_distances", unreachable)
    with pytest.raises(NotMedian) as exc:
        md.validate_complex(left + right, [(a, b) for a in left for b in right])
    assert exc.value.triple == ("a00", "a01", "a02")
    assert exc.value.medians == right


def test_connectivity_is_checked_before_the_pair_table():
    """A K_{2,3} next to a lone vertex is refused as disconnected."""
    edges = [(a, b) for a in "ab" for b in "cde"]
    with pytest.raises(NotConnected):
        md.validate_complex("abcdef", edges)
    with pytest.raises(NotMedian):
        md.validate_complex("abcde", edges)


def adjacency_matrix(vertices, edges):
    A = np.zeros((len(vertices), len(vertices)), dtype=bool)
    for u, v in edges:
        i, j = vertices.index(u), vertices.index(v)
        A[i, j] = A[j, i] = True
    return A


def distance_inputs():
    """(vertices, edges) of the builtins, random(6, 5, 1..100), the
    benchmark corpus, two disconnected graphs and the one-vertex graph."""
    for name in md.BUILTIN_COMPLEXES:
        X = md.builtin_complex(name)
        yield list(X.vertices), edge_names(X)
    for seed in range(1, 101):
        X = md.random_median_complex(6, 5, seed)
        yield list(X.vertices), edge_names(X)
    for path in sorted(CORPUS.glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        yield doc["vertices"], [tuple(e) for e in doc["edges"]]
    yield list("abcdefghij"), [("a", "b"), ("b", "c"), ("e", "f"), ("g", "h"), ("h", "e")]
    path = [f"v{i}" for i in range(70)]
    yield path, [e for e in zip(path, path[1:]) if e != ("v40", "v41")]
    yield ["x"], []


@pytest.mark.parametrize("cells", [1, md._CELLS])
def test_all_distances_against_bfs(monkeypatch, cells):
    """At _CELLS = 1 a block holds one word of 64 sources, so the 68-284
    vertex inputs take several blocks, the last one partial."""
    monkeypatch.setattr(md, "_CELLS", cells)
    for vertices, edges in distance_inputs():
        D = md._all_distances(adjacency_matrix(vertices, edges))
        assert np.array_equal(D, bfs_distances(vertices, edges)), vertices[:3]


def reference_pair_table(X):
    """The dict pair table, (v, w) -> the common neighbours of v < w in
    increasing order, built by a loop over each vertex c and the pairs of
    its neighbours from the adjacency sets; raises NotMedian at the first
    third common neighbour, with the vertices adjacent to all three as
    medians.  Returned as md._pair_table's arrays: the keys in insertion
    order, and the first and last entry of each value."""
    table, adj = {}, skeleton_of(X)
    for c, v in enumerate(X.vertices):
        for pair in combinations(sorted(X.index[w] for w in adj[v]), 2):
            common = table.setdefault(pair, [])
            common.append(c)
            if len(common) == 3:
                V = X.vertices
                medians = set.intersection(*(adj[V[t]] for t in common))
                raise NotMedian([V[t] for t in common], medians)
    vw = np.array(list(table), dtype=np.intp).reshape(-1, 2)
    common = np.array([(c[0], c[-1]) for c in table.values()], dtype=np.intp).reshape(-1, 2)
    return vw, common


def check_pair_table(vertices, edges):
    """md._pair_table against the dict: the same arrays, or NotMedian with
    the same message.  Returns that message, or None."""
    X = md.CubeComplex(vertices, index_pairs(vertices, edges), None)
    assert np.array_equal(X.adjacency, adjacency_matrix(vertices, edges))
    try:
        want = reference_pair_table(X)
    except NotMedian as ex:
        with pytest.raises(NotMedian) as got:
            md._pair_table(X)
        assert str(got.value) == str(ex), (vertices, edges)
        return str(ex)
    vw, common = md._pair_table(X)
    assert vw.dtype == common.dtype == np.intp
    assert np.array_equal(vw, want[0]) and np.array_equal(common, want[1]), (vertices, edges)
    return None


def test_pair_table_against_the_dict(y_p4_r4, x_c5_r2):
    """The distance inputs, two balls and random graphs, median or not:
    both kinds of outcome occur."""
    graphs = list(distance_inputs()) + list(random_graphs(600, seed=6))
    graphs += [(list(b.complex.vertices), edge_names(b.complex))
               for b in (y_p4_r4, x_c5_r2)]
    outcomes = [check_pair_table(*graph) for graph in graphs]
    assert outcomes.count(None) > 600 and len(set(outcomes)) > 50


@st.composite
def bipartite_graphs(draw):
    """Connected bipartite graphs, their vertices in a drawn order: a grid
    of at most 4 x 4 with up to four chords between its colour classes, a
    star K_{1,k} with up to three more vertices each joined to some leaves,
    or a random bipartite graph on a spanning path, which often holds a
    K_{2,3}."""
    shape = draw(st.sampled_from(["grid", "star", "random"]))
    if shape == "grid":
        w, h = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        points = [f"g{x}{y}" for x in range(w) for y in range(h)]
        pairs = [(p, q) for p, q in combinations(points, 2)
                 if sum(map(int, p[1:] + q[1:])) % 2]
        edges = {(p, q) for p, q in pairs
                 if abs(int(p[1]) - int(q[1])) + abs(int(p[2]) - int(q[2])) == 1}
        if pairs:
            edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=4)))
    elif shape == "star":
        leaves = [f"l{i}" for i in range(draw(st.integers(1, 10)))]
        points, edges = ["c", *leaves], {("c", leaf) for leaf in leaves}
        for j in range(draw(st.integers(0, 3))):
            points.append(f"x{j}")
            joined = draw(st.lists(st.sampled_from(leaves), min_size=1, unique=True))
            edges |= {(f"x{j}", leaf) for leaf in joined}
    else:
        a, b = draw(st.integers(1, 5)), draw(st.integers(1, 5))
        left, right = [f"a{i}" for i in range(a)], [f"b{j}" for j in range(b)]
        points = left + right
        edges = {(left[i], right[min(i, b - 1)]) for i in range(a)}  # the path
        edges |= {(left[min(j + 1, a - 1)], right[j]) for j in range(b)}  # a0 b0 a1 b1 ...
        pairs = [(u, v) for u in left for v in right]
        edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=10)))
    return draw(st.permutations(points)), sorted(edges)


@settings(max_examples=300, deadline=None)
@given(bipartite_graphs())
def test_pair_table_property(graph):
    """Same arrays as the dict, or the same NotMedian message."""
    check_pair_table(*graph)


def test_the_first_completed_k23_is_the_witness():
    """(r0, r1) is the first pair of the table, at c0, and has the smaller
    key, but gets its third centre only at c5; (r2, r3) is completed at c4,
    so its first three centres are the witness."""
    vertices = ["c0", "c1", "c2", "c3", "c4", "c5", "r0", "r1", "r2", "r3"]
    edges = [(c, r) for c in ("c0", "c1", "c5") for r in ("r0", "r1")]
    edges += [(c, r) for c in ("c2", "c3", "c4") for r in ("r2", "r3")] + [("c5", "r2")]
    message = "triple ('c2', 'c3', 'c4') has 2 medians: ['r2', 'r3']"
    assert check_pair_table(vertices, edges) == message
    with pytest.raises(NotMedian) as exc:
        md.validate_complex(vertices, edges)
    assert str(exc.value) == message


def test_pair_table_is_refused_before_it_is_built(monkeypatch):
    """Q3 has 24 arcs and 24 2-paths, and its table reserves 8 (14 * 24 +
    8 * 24) = 4,224 bytes: under a lower limit it is refused before any
    array of 2-paths exists, in validate_complex too; at that limit it is
    built."""
    X = md.builtin_complex("Q3")
    monkeypatch.setattr(md, "_ALLOC_LIMIT", 4223)
    with monkeypatch.context() as patch:
        patch.setattr(np, "repeat", lambda *args: pytest.fail("a 2-path array was built"))
        with pytest.raises(SizeLimitExceeded, match=r"^the pair table of 24 2-paths needs about 4224 "):
            md._pair_table(X)
    with pytest.raises(SizeLimitExceeded, match=r"^the pair table of 24 2-paths "):
        md.validate_complex(X.vertices, edge_names(X))
    monkeypatch.setattr(md, "_ALLOC_LIMIT", 4224)
    assert len(md.validate_complex(X.vertices, edge_names(X)).squares) == 6


@pytest.mark.parametrize("shape", ["star", "ball"])
def test_pair_table_estimate_bounds_the_traced_peak(monkeypatch, y_p4_r4, shape):
    """What the build reserves bounds what it holds at once: on K_{1,300}
    (44,850 2-paths, each its own pair, so the returned arrays are largest)
    and on P4/coxeter/4."""
    if shape == "star":
        V = ["c"] + [f"l{i:03}" for i in range(300)]
        X = md.CubeComplex(V, [(0, leaf) for leaf in range(1, len(V))], None)
    else:
        X = y_p4_r4.complex
    # X.adjacency is built before the trace, as validate_complex builds it
    assert np.array_equal(X.adjacency, adjacency_matrix(list(X.vertices), edge_names(X)))
    asked, reserve = [], md._reserve
    monkeypatch.setattr(md, "_reserve", lambda nbytes, what: (
        asked.append(nbytes), reserve(nbytes, what)))
    tracemalloc.start()
    try:
        vw, _ = md._pair_table(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(asked) == 1 and peak <= asked[0]
    assert shape == "ball" or len(vw) == 300 * 299 // 2


_PAIRS = 1024  # the majority kernel works in blocks of _PAIRS pairs by _KS rows
_KS = 16


def _majority_round(rows, lo, rng):
    """One round of majority_closure on distinct packed 0/1 rows.

    Checks each triple i < j < k with k >= lo, in blocks of _PAIRS pairs
    (i, j) by _KS rows k, on the rows as whole uint64 words.  A majority is
    looked up by a 64-bit key and compared with the row found, so membership
    is exact.  The key multiplies the row's 32-bit chunks by multipliers drawn
    from rng until the keys are distinct on the rows; two rows then share a
    key with probability at most 2**-33 per draw.  Yields
    (row bytes, (i, j, k)) for each majority that is not a row, once per
    block, in the order found.
    """
    n, width = len(rows), max(8, -(-rows.shape[1] // 8) * 8)  # bytes in whole words
    R = np.zeros((n, width), dtype=np.uint8)
    R[:, :rows.shape[1]] = rows
    R, whole = R.view(np.uint64), np.dtype((np.void, width))  # a row as one item
    while True:
        mult = np.array([rng.getrandbits(64) for _ in range(width // 4)], np.uint64)
        keys = R.view(np.uint32) @ mult  # wraps modulo 2**64
        order = np.argsort(keys)
        keys = keys[order]
        if not (np.diff(keys) == 0).any():
            break
        if len(np.unique(R.view(whole))) < n:  # else two rows share a key: draw again
            raise ValueError("majority_closure needs distinct rows")
    starts = np.arange(n + 1) * np.arange(-1, n) // 2  # first pair (., j)
    for p0 in range(0, int(starts[n - 1]), _PAIRS):
        P = np.arange(p0, min(p0 + _PAIRS, int(starts[n - 1])))
        J = np.searchsorted(starts, P, side="right") - 1
        I = P - starts[J]
        both, either = R[I] & R[J], R[I] | R[J]
        for k0 in range(max(lo, int(J[0]) + 1), n, _KS):
            K = np.arange(k0, min(k0 + _KS, n))
            m = both | (R[K][:, None] & either)  # (k, pair, word)
            found = R[order[np.searchsorted(keys, m.view(np.uint32) @ mult) % n]]
            missing = np.logical_or.reduce(  # word by word: faster than any(axis=-1)
                [found[..., w] != m[..., w] for w in range(width // 8)])
            kk, pp = np.nonzero(missing & (J < K[:, None]))
            _, first = np.unique(m[kk, pp].view(whole), return_index=True)
            for t in np.sort(first).tolist():
                yield (m[kk[t], pp[t]].view(np.uint8)[:rows.shape[1]].tobytes(),
                       (int(I[pp[t]]), int(J[pp[t]]), int(K[kk[t]])))


def majority_closure(rows, cap):
    """Close distinct packed 0/1 rows (as np.packbits gives) under bitwise majority.

    Each round (_majority_round) takes the k added in the round before, every
    k at first.  Returns (closed, witnesses): closed starts with rows, and its
    row len(rows) + t is the majority of rows witnesses[t] = (i, j, k).
    Raises SizeLimitExceeded past cap rows.
    """
    witnesses, lo, rng = [], 0, random.Random(0)
    while lo < len(rows):
        n = len(rows)
        if n > cap:
            raise SizeLimitExceeded(f"majority closure exceeds {cap} vertices")
        new = {}  # row bytes -> witness
        for row, triple in _majority_round(rows, lo, rng):
            new.setdefault(row, triple)
            if n + len(new) > cap:
                raise SizeLimitExceeded(f"majority closure exceeds {cap} vertices")
        added = np.frombuffer(b"".join(new), np.uint8).reshape(len(new), rows.shape[1])
        rows, lo = np.vstack([rows, added]), n
        witnesses += new.values()
    return rows, witnesses


def packed(*strings):
    return np.packbits(np.array([[c == "1" for c in s] for s in strings]), axis=1)


def test_majority_closure_cap():
    rows = packed("110", "101", "011")  # their majority 111 is new
    closed, witnesses = majority_closure(rows, 4)
    assert closed.tolist() == packed("110", "101", "011", "111").tolist()
    assert witnesses == [(0, 1, 2)]
    with pytest.raises(SizeLimitExceeded):
        majority_closure(rows, 3)
    with pytest.raises(ValueError, match="distinct"):
        majority_closure(packed("110", "101", "110"), 4)


def test_majority_keys_separate_rows_differing_in_top_bits():
    """Columns 56 and 120 are the top bits of the two 64-bit words (packbits
    order, little-endian).  A key that multiplies whole words by odd
    multipliers gives rows differing only there equal keys on every draw."""
    bits = np.zeros((3, 128), dtype=bool)
    bits[1, [56, 120]] = True
    bits[2, 0] = True  # the majority of the three rows is row 0
    rows = np.packbits(bits, axis=1)
    closed, witnesses = majority_closure(rows, 3)
    assert closed.tolist() == rows.tolist() and witnesses == []


def connected_rows(rows):
    """Whether the Hamming-1 graph of the packed rows is connected."""
    A = md.hamming_distances(rows) == 1
    seen = np.arange(len(A)) == 0
    while (grown := seen | A[seen].any(axis=0)).sum() > seen.sum():
        seen = grown
    return bool(seen.all())


def kernel_closed(rows):
    """Whether the kernel adds no row: capped at len(rows), it raises at its
    first new row."""
    try:
        majority_closure(rows, len(rows))
    except SizeLimitExceeded:
        return False
    return True


def check_repair(bits):
    """md._repair_quadrangles against the kernel.  Each added row is the
    majority of its witnesses, so the rows returned lie in the kernel's
    closure; they are that closure when they are connected (always so on
    connected input): the kernel adds nothing to them, or they are the
    whole cube, where the kernel is slow.  Rows left disconnected are
    refused by certified_complex.  Returns (connected, closed) for the
    input rows."""
    rows = np.packbits(bits, axis=1)
    repaired, D, witnesses = md._repair_quadrangles(rows, 2 ** bits.shape[1])
    assert np.array_equal(repaired[:len(rows)], rows)
    for t, (u, v, w) in enumerate(witnesses):
        assert max(u, v, w) < len(rows) + t
        maj = (repaired[u] & repaired[v]) | (repaired[w] & (repaired[u] | repaired[v]))
        assert np.array_equal(repaired[len(rows) + t], maj)
    assert np.array_equal(D, md.hamming_distances(repaired))
    connected = connected_rows(rows)
    if connected_rows(repaired):
        assert len(repaired) == 2 ** bits.shape[1] or kernel_closed(repaired), bits.astype(int)
    else:
        assert not connected
        with pytest.raises(NotConnected):
            md.certified_complex(range(len(repaired)), D)
    return connected, kernel_closed(rows)


def random_row_sets(count, seed):
    """Distinct 0/1 row sets of 2-8 columns and at most 40 rows, in turn:
    random subsets of the cube, sets grown one Hamming neighbour at a time
    (connected), and majority closures of a few random rows with up to two
    rows removed or added."""
    rng = np.random.default_rng(seed)
    for t in range(count):
        cols = int(rng.integers(2, 9))
        size = int(rng.integers(1, min(40, 2 ** cols) + 1))
        if t % 3 == 0:
            codes = rng.choice(2 ** cols, size, replace=False)
        elif t % 3 == 1:
            codes = {int(rng.integers(2 ** cols))}
            while len(codes) < size:
                codes.add(int(rng.choice(sorted(codes))) ^ 1 << int(rng.integers(cols)))
        else:
            cols = min(cols, 5)
            seeds = np.unique(rng.integers(0, 2, (int(rng.integers(1, 5)), cols)), axis=0)
            bits = np.unpackbits(majority_closure(np.packbits(seeds, axis=1), 32)[0],
                                 axis=1, count=cols)
            codes = set((bits @ (1 << np.arange(cols))).tolist())
            for _ in range(int(rng.integers(0, 3))):
                codes ^= {int(rng.integers(2 ** cols))}
            codes = codes or {0}
        codes = np.array(sorted(codes))
        yield (codes[:, None] >> np.arange(cols) & 1).astype(bool)


def test_local_closure_against_the_kernel():
    """The quadrangle repair on 1,500 row sets; each (connected, closed)
    outcome occurs more than 50 times, closed disconnected sets included."""
    outcomes = [check_repair(bits) for bits in random_row_sets(1500, seed=6)]
    assert all(outcomes.count(kind) > 50
               for kind in [(True, True), (True, False), (False, True), (False, False)])


def test_repair_needs_connected_rows():
    """{110, 101, 011} has no Hamming-1 edge, so no quadrangle fails and the
    repair adds nothing, though their majority 111 is missing;
    certified_complex refuses the rows as not connected."""
    rows = packed("110", "101", "011")
    repaired, D, witnesses = md._repair_quadrangles(rows, 8)
    assert repaired.tolist() == rows.tolist() and witnesses == []
    assert len(majority_closure(rows, 8)[0]) == 4
    with pytest.raises(NotConnected):
        md.certified_complex(["110", "101", "011"], D)


@st.composite
def row_sets(draw):
    """Distinct 0/1 rows of 1-8 columns, at most 20 of them."""
    cols = draw(st.integers(1, 8))
    codes = draw(st.lists(st.integers(0, 2 ** cols - 1), min_size=1, max_size=20, unique=True))
    return (np.array(codes)[:, None] >> np.arange(cols) & 1).astype(bool)


@settings(max_examples=200, deadline=None)
@given(row_sets())
def test_projection_closure_is_the_kernel_closure(bits):
    """The codes whose pairwise projections are those of the rows are the
    kernel's closure, on any rows, connected or not."""
    cols = bits.shape[1]
    weights = 1 << np.arange(cols)[::-1]  # column 0 is the top bit
    closure = majority_closure(np.packbits(bits, axis=1), 2 ** cols)[0]
    expected = np.sort(np.unpackbits(closure, axis=1, count=cols) @ weights)
    np.testing.assert_array_equal(md._projection_closure(bits @ weights, cols), expected)


@settings(max_examples=200, deadline=None)
@given(row_sets())
def test_local_closure_test_is_sound_and_complete_on_connected_rows(bits):
    """The repair stops, with no quadrangle failure left, at the kernel's
    closure whenever its rows are connected (see check_repair)."""
    check_repair(bits)


@settings(max_examples=200, deadline=None)
@given(row_sets(), st.data())
def test_descent_is_connectivity_on_closed_rows(bits, data):
    """md._descends against BFS reachability (connected_rows), with any row
    first: equal on majority-closed rows (the projection closure of the
    rows) and on the quadrangle repair of the rows, connected or not; on
    the rows themselves, descent implies connected."""
    cols = bits.shape[1]
    weights = 1 << np.arange(cols)[::-1]  # column 0 is the top bit
    closed = md._projection_closure(bits @ weights, cols)[:, None] >> np.arange(cols)[::-1] & 1
    repaired = md._repair_quadrangles(np.packbits(bits, axis=1), 2 ** cols)[0]
    for rows, exact in ((np.packbits(closed, axis=1), True), (repaired, True),
                        (np.packbits(bits, axis=1), False)):
        rows = np.roll(rows, -data.draw(st.integers(0, len(rows) - 1)), axis=0)
        D = md.hamming_distances(rows)
        descends, connected = md._descends(D == 1, D), connected_rows(rows)
        assert descends == connected if exact else connected or not descends


def interval_tensor(X):
    """T[u, v, w] == True iff w lies on a geodesic from u to v."""
    d = X._dist.astype(np.int32)
    return (d[:, None, :] + d.T[None, :, :]) == d[:, :, None]


def reference_is_convex(X, vertices, T):
    """Interval-closed: no w outside the set between two of its vertices."""
    idx = np.array(sorted(X.index[v] for v in vertices), dtype=np.intp)
    outside = np.setdiff1d(np.arange(len(X.vertices)), idx)
    if idx.size <= 1 or outside.size == 0:
        return True
    return not T[np.ix_(idx, idx, outside)].any()


def reference_convexity_check(X):
    T = interval_tensor(X)
    return [
        {"hyperplane": h, "set": name}
        for h, (_, side_a, side_b, carrier) in enumerate(hyperplane_sets(X))
        for name, s in (("sideA", side_a), ("sideB", side_b), ("carrier", carrier))
        if not reference_is_convex(X, s, T)
    ]


def reference_helly(X, family=None):
    """All pairs of intersecting pairs at once, in one Gram matrix."""
    n = len(X.vertices)
    if family is None:
        M = np.stack([X.sides, ~X.sides, X.carriers], axis=1).reshape(-1, n)
    else:
        M = np.zeros((len(family), n), dtype=bool)
        for i, s in enumerate(family):
            M[i, [X.index[v] for v in s]] = True
    P = M.astype(np.float32) @ M.astype(np.float32).T > 0
    I, J = np.argwhere(np.triu(P, k=1)).T.copy()
    R = (M[I] & M[J]).astype(np.float32)
    empty = R @ R.T == 0
    ok_pairs = P[np.ix_(I, I)] & P[np.ix_(I, J)] & P[np.ix_(J, I)] & P[np.ix_(J, J)]
    distinct = (
        (I[:, None] != I[None, :]) & (I[:, None] != J[None, :])
        & (J[:, None] != I[None, :]) & (J[:, None] != J[None, :])
    )
    bad = np.argwhere(np.triu(empty & ok_pairs & distinct, k=1))
    return sorted({tuple(sorted({I[a], J[a], I[b], J[b]})) for a, b in bad})


def family_sets(X):
    return [s for _, side_a, side_b, carrier in hyperplane_sets(X)
            for s in (side_a, side_b, carrier)]


def check_convexity_and_helly(X, helly_sets=None):
    """Same violation lists as the tensor and the Gram check; the Helly
    reference runs on the first helly_sets sets of the family, if given."""
    assert md.convexity_check(X) == reference_convexity_check(X)
    T = interval_tensor(X)
    for s in family_sets(X):
        assert md.is_convex_set(X, s) == reference_is_convex(X, s, T)
    if helly_sets is None:
        assert md.helly_check(X) == reference_helly(X)
    else:
        family = family_sets(X)[:helly_sets]
        assert md.helly_check(X, family) == reference_helly(X, family)
        assert md.helly_check(X) == []


@pytest.mark.parametrize("name", md.BUILTIN_COMPLEXES)
def test_convexity_and_helly_builtins(name):
    check_convexity_and_helly(md.builtin_complex(name))


def test_convexity_and_helly_random():
    for seed in range(1, 101):
        check_convexity_and_helly(md.random_median_complex(6, 5, seed))


@pytest.mark.parametrize(
    "fixture",
    ["y_c5_r3", "y_p4_r4", "y_st5_r3", "y_st5_r4", "x_c5_r2", "x_f2_r3", "z2_r3"],
)
def test_convexity_and_helly_balls(fixture, request):
    """The Gram reference holds 10 p^2 bytes, 0.5-0.9 GB on the full
    families of x_c5_r2 and x_f2_r3, so it sees the first 80 sets of each
    ball (at most 3,160 pairs); the blocked check runs on the whole family."""
    check_convexity_and_helly(request.getfixturevalue(fixture).complex, helly_sets=80)


def random_subsets(X, count, rng):
    """Vertex sets of X: grown along edges from a random vertex (connected),
    or drawn with a random density (mostly not), in turn."""
    V, adj = X.vertices, skeleton_of(X)
    for t in range(count):
        if t % 2:
            q = rng.random()
            yield {v for v in V if rng.random() < q}
            continue
        grown = {rng.choice(V)}
        for _ in range(rng.randrange(len(V))):
            frontier = sorted({w for v in grown for w in adj[v]} - grown)
            if not frontier:
                break
            grown.add(rng.choice(frontier))
        yield grown


def replace_hyperplane_sets(X, rng):
    """Give each hyperplane of X random vertex sets, kept or drawn afresh:
    its row of sides (side_a, with side_b its complement) and its row of
    carriers, so that convexity_check has violations to list."""
    A, K = X.sides.copy(), X.carriers.copy()
    for h in range(len(A)):
        if rng.random() < 0.3:
            A[h] = [rng.random() < 0.5 for _ in X.vertices]
        if rng.random() < 0.3:
            K[h] = [rng.random() < 0.5 for _ in X.vertices]
    X._sides, X._carriers = A, K


def test_local_convexity_against_the_tensor():
    """is_convex_set on 5,000 connected and unconnected subsets of random
    complexes, and convexity_check once their hyperplanes get random sets."""
    rng = random.Random(7)
    outcomes, listed = [], 0
    for seed in range(50):
        X = md.random_median_complex(rng.randint(2, 6), rng.randint(2, 7), seed)
        T = interval_tensor(X)
        for S in random_subsets(X, 100, rng):
            got = md.is_convex_set(X, S)
            assert got == reference_is_convex(X, S, T), (seed, sorted(S))
            outcomes.append(got)
        replace_hyperplane_sets(X, rng)
        violations = md.convexity_check(X)
        assert violations == reference_convexity_check(X)
        listed += len(violations)
    assert len(outcomes) == 5000 and listed > 50
    assert 1000 < sum(outcomes) < 4000


@pytest.mark.parametrize("cells", [1, 64, md._CELLS])
def test_blocked_helly_against_the_gram_matrix(monkeypatch, cells):
    """1,500 random families on random complexes and balls, blocks of one
    row, of a few rows that end inside a word, and of the default size:
    the same quadruples as the Gram check."""
    monkeypatch.setattr(md, "_CELLS", cells)
    rng = random.Random(11)
    grounds = [md.random_median_complex(rng.randint(2, 6), rng.randint(2, 7), s)
               for s in range(30)]
    grounds += [md.builtin_complex(name) for name in md.BUILTIN_COMPLEXES]
    violated = 0
    for t in range(1500):
        X = grounds[t % len(grounds)]
        sets = list(random_subsets(X, rng.randint(2, 12), rng))
        if len(X.sides) and t % 3:  # mix in halfspaces and carriers
            sets += rng.sample(family_sets(X), min(4, 3 * len(X.sides)))
        rng.shuffle(sets)
        got = md.helly_check(X, sets)
        assert got == reference_helly(X, sets), (t, sets)
        violated += bool(got)
    assert 300 < violated < 1200


@pytest.mark.parametrize("cells", [1, 64, md._CELLS])
def test_planted_helly_violations_across_words(monkeypatch, cells):
    """Two copies of each of four pairwise-meeting 3-sets of the square with
    no common vertex, among twelve copies of the whole square: 20 sets,
    all 190 pairs intersecting, in three words of 64.  The 16 violating
    quadruples split into pairs of pairs that lie in different words."""
    monkeypatch.setattr(md, "_CELLS", cells)
    X = md.builtin_complex("SQUARE")
    planted = [{"00", "01", "11"}, {"01", "11", "10"}, {"11", "10", "00"}, {"10", "00", "01"}]
    family = [set(X.vertices)] * 20
    for t, s in enumerate(planted):
        family[3 * t] = family[3 * t + 10] = s
    found = md.helly_check(X, family)
    assert found == reference_helly(X, family) and len(found) == 16
    pair = {ij: a for a, ij in enumerate(combinations(range(20), 2))}
    words = {(pair[i, j] // 64, pair[k, l] // 64) for i, j, k, l in found}
    assert {0, 1, 2} <= {w for ab in words for w in ab}
    assert any(a != b for a, b in words)


@st.composite
def median_graphs_and_subsets(draw):
    X = md.random_median_complex(draw(st.integers(1, 4)), draw(st.integers(1, 6)),
                                 draw(st.integers(0, 10 ** 6)))
    bits = draw(st.lists(st.booleans(), min_size=len(X), max_size=len(X)))
    return X, {v for v, bit in zip(X.vertices, bits) if bit}


@settings(max_examples=300, deadline=None)
@given(median_graphs_and_subsets())
def test_local_convexity_property(graph_and_subset):
    """On median graphs of at most 16 vertices, local convexity agrees with
    the interval tensor on every vertex subset drawn."""
    X, S = graph_and_subset
    assert md.is_convex_set(X, S) == reference_is_convex(X, S, interval_tensor(X))


def reference_reconstruct(contact):
    """Every pair of maximal cliques against every third maximal clique."""
    cliques = rc.maximal_cliques(contact)
    sets = [frozenset(cl) for cl in cliques]
    edges = set()
    for i, j in combinations(range(len(cliques)), 2):
        inter = sets[i] & sets[j]
        blocked = any(
            k not in (i, j) and inter <= (sets[i] & sets[k])
            for k in range(len(cliques))
        )
        if not blocked:
            edges.add(frozenset((cliques[i], cliques[j])))
    return {
        "vertices": cliques,
        "edges": edges,
        "adjacency": {
            cl: {next(iter(e - {cl})) for e in edges if cl in e}
            for cl in cliques
        },
    }


def reference_criterion(X, v, w):
    """No third vertex x has W_v ∩ W_w contained in W_v ∩ W_x."""
    wv, ww = md.hyperplanes_at(X, v), md.hyperplanes_at(X, w)
    inter = wv & ww
    return not any(inter <= (wv & md.hyperplanes_at(X, x))
                   for x in X.vertices if x not in (v, w))


def reference_extremal(X, v):
    lk = md.link_graph(X, v)
    return md.is_cone(lk.nodes, lk.adjacency)[1] is not None


def check_blocking_and_extremality(X):
    contact = ct.build_contact_family(X).contact
    R, want = rc.reconstruct(rc.maximal_cliques(contact)), reference_reconstruct(contact)
    cliques = want["vertices"]
    assert len(R) == len(cliques) and not R.flags.writeable
    assert {cliques[i]: {cliques[j] for j in nb} for i, nb in adjacency_of(R).items()} == (
        want["adjacency"])
    V, adj = X.vertices, skeleton_of(X)
    pairs = [(v, w) for v, w in combinations(V, 2) if reference_criterion(X, v, w)]
    rows = [(v, V[j]) for i, v in enumerate(V)
            for j in rc._joined(X.ids_at, i) if j > i]
    assert rows == pairs
    assert [tuple(p["pair"]) for p in vf._criterion(X)] == [
        (str(v), str(w)) for v, w in pairs if w not in adj[v]]
    assert [w for w in V[1:] if rc.adjacency_criterion(X, V[0], w)] == [
        w for v, w in pairs if v == V[0]]
    assert md.extremality(X) == {v: reference_extremal(X, v) for v in V}
    assert md.is_extremal(X, V[-1]) == reference_extremal(X, V[-1])


@pytest.mark.parametrize("name", md.BUILTIN_COMPLEXES)
def test_blocking_and_extremality_builtins(name):
    check_blocking_and_extremality(md.builtin_complex(name))


@pytest.mark.parametrize("shape, seeds", [
    ((6, 5), range(1, 201)), ((8, 10), range(1, 40))], ids=["6-5", "8-10"])
def test_blocking_and_extremality_random(shape, seeds):
    for seed in seeds:
        check_blocking_and_extremality(md.random_median_complex(*shape, seed))


@pytest.mark.parametrize("kind, radius", [
    (rg.COXETER, 3), (rg.COXETER, 4), (rg.ARTIN, 2)])
@pytest.mark.parametrize("name", ["C5", "P4", "STAR_EQ5", "EDGE2", "SINGLE"])
def test_blocking_and_extremality_balls(name, kind, radius):
    ball = rg.build_ball(rg.builtin_defining_graph(name), kind, radius)
    check_blocking_and_extremality(ball.complex)


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.json")), ids=lambda p: p.stem)
def test_blocking_and_extremality_corpus(path):
    check_blocking_and_extremality(md.complex_from_json(json.loads(path.read_text())))


def test_blocking_and_extremality_small_coxeter_balls():
    """The coxeter balls of radius 3 of the 52 graphs with 1-5 vertices."""
    nx = pytest.importorskip("networkx")
    for G in nx.graph_atlas_g()[1:53]:
        names = "abcde"[:G.number_of_nodes()]
        gamma = rg.DefiningGraph(names, [(names[u], names[v]) for u, v in G.edges])
        check_blocking_and_extremality(rg.build_ball(gamma, rg.COXETER, 3).complex)


def literal_joined(sets, i):
    return [j for j in range(len(sets)) if j != i and not any(
        sets[i] & sets[j] <= sets[k] for k in range(len(sets)) if k not in (i, j))]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.frozensets(st.integers(0, 4), max_size=4), min_size=1, max_size=7))
@example([frozenset()])
@example([frozenset(), frozenset()])
@example([frozenset({1}), frozenset()])
@example([frozenset({1}), frozenset({1}), frozenset({1, 2})])
@example([frozenset({1, 2}), frozenset(), frozenset({1, 2}), frozenset({3})])
def test_joined_is_its_definition(sets):
    """Small families, with repeated and empty sets and one or two members,
    checked in every row; the rows are symmetric."""
    rows = [rc._joined(sets, i) for i in range(len(sets))]
    assert rows == [literal_joined(sets, i) for i in range(len(sets))]
    assert all(i in rows[j] for i, row in enumerate(rows) for j in row)


def reference_segment_classes(ball):
    """The normal-form walk: from each vertex, walk by g to the end of its
    segment, sweep back collecting the crossed hyperplanes, then merge the
    crossed sets of one label that overlap."""
    X = ball.complex
    crossed_sets = {}
    for v, w in ball.words.items():
        for g in ball.gamma.vertices:
            # walk to the segment's end in one direction, then sweep back
            cur = w
            step = ((g, 1),)
            back = ((g, -1),) if ball.kind == rg.ARTIN else step
            while True:
                nxt = rg.nf_mult(ball.gamma, ball.kind, cur, step)
                if rg.format_word(nxt) not in ball.words or nxt == w:
                    break
                cur = nxt
            crossed = set()
            vid = rg.format_word(cur)
            while True:
                nxt = rg.nf_mult(ball.gamma, ball.kind, cur, back)
                nid = rg.format_word(nxt)
                if nid not in ball.words or nid == vid:
                    break
                crossed.add(X.hyperplane_of_edge(vid, nid))
                cur, vid = nxt, nid
            if crossed:
                crossed_sets.setdefault(g, []).append(crossed)

    classes = []
    for g in ball.gamma.vertices:
        pool = crossed_sets.get(g, [])
        merged = []
        for s in pool:
            keep = []
            acc = set(s)
            for m in merged:
                if m & acc:
                    acc |= m
                else:
                    keep.append(m)
            keep.append(acc)
            merged = keep
        classes.extend((g, frozenset(m)) for m in merged)
    return sorted(classes, key=lambda it: (it[0], sorted(it[1])))


def reference_syllable_adjacency(ball):
    """The normal-form walk: from each vertex, multiply by one letter until
    the product leaves the ball (one step in a coxeter ball)."""
    adj = {v: set() for v in ball.words}
    letters = rg._letters(ball.gamma, ball.kind)
    for v, w in ball.words.items():
        for g, e in letters:
            cur = w
            while True:
                cur = rg.nf_mult(ball.gamma, ball.kind, cur, ((g, e),))
                vid = rg.format_word(cur)
                if vid not in ball.words:
                    break
                if vid != v:
                    adj[v].add(vid)
                    adj[vid].add(v)
                if ball.kind == rg.COXETER:
                    break
    return adj


def reference_extension_edges(ball, out):
    """The class edges over the contact family's crossing sets, and the
    comparison's own reduced edges and their equality with the class edges
    on interior cores."""
    crossing = adjacency_of(ct.build_contact_family(ball.complex).crossing)
    interior = ball.interior_hyperplanes(out["margin"])
    cores = {cls: cls & interior for cls in out["vertices"]}
    edges = {
        frozenset((c1, c2)) for c1, c2 in combinations(out["vertices"], 2)
        if cores[c1] and cores[c2]
        and all(u in crossing[w] for u in cores[c1] for w in cores[c2])
    }
    same_edges = None
    if out["comparison"] and "classes" in out["comparison"]:
        classes = out["comparison"]["classes"]
        crossing = {h: crossing[h] & interior for h in interior}
        reduced_edges = {
            frozenset((c1, c2)) for c1, c2 in combinations(classes, 2)
            if all(u in crossing[w] for u in c1 for w in c2)
        }
        same_edges = reduced_edges == {
            frozenset(frozenset(cores[c]) for c in e) for e in edges}
    return edges, same_edges


def check_runs(ball):
    assert skeleton_of(ball.complex, rg._syllable_graph(ball)) == reference_syllable_adjacency(ball)
    if ball.kind != rg.ARTIN:
        return
    assert rg._segment_classes(ball) == reference_segment_classes(ball)
    out = rg.extension_graph_ball(ball)
    edges, same_edges = reference_extension_edges(ball, out)
    assert out["edges"] == edges
    if same_edges is not None:
        cmp_ = out["comparison"]
        assert cmp_["isomorphic"] == (cmp_["same_partition"] and same_edges)


@pytest.mark.parametrize("radius", [1, 2, 3])
@pytest.mark.parametrize("kind", [rg.ARTIN, rg.COXETER])
@pytest.mark.parametrize("name", rg.BUILTIN_GRAPHS)
def test_runs_against_the_walks(name, kind, radius):
    check_runs(rg.build_ball(rg.builtin_defining_graph(name), kind, radius))


def test_runs_against_the_walks_small_graphs():
    """The artin and coxeter balls of radius 2 of the 52 graphs with 1-5
    vertices."""
    nx = pytest.importorskip("networkx")
    for G in nx.graph_atlas_g()[1:53]:
        names = "abcde"[:G.number_of_nodes()]
        gamma = rg.DefiningGraph(names, [(names[u], names[v]) for u, v in G.edges])
        for kind in (rg.ARTIN, rg.COXETER):
            check_runs(rg.build_ball(gamma, kind, 2))


@pytest.mark.parametrize("fixture", ["z2_r3", "x_f2_r3", "x_c5_r2"])
def test_syllable_distance_against_the_walk(fixture, request):
    """Every pair of vertices, against a BFS of the walk's adjacency."""
    ball = request.getfixturevalue(fixture)
    adj = reference_syllable_adjacency(ball)
    vertices = sorted(ball.words)
    for i, x in enumerate(vertices):
        dist = {x: 0}
        queue = deque([x])
        while queue:
            u = queue.popleft()
            for w in adj[u] - dist.keys():
                dist[w] = dist[u] + 1
                queue.append(w)
        for y in vertices[i:]:
            assert rg.syllable_distance(ball, x, y) == dist[y], (x, y)


def reference_jsonable(obj):
    """The fallback the CLI passed to json.dumps, verbatim, plus a numpy
    array as its tolist(), the list the CLI wrote before reports held
    arrays.  Its tuple branch is never reached: json writes tuples as
    lists itself."""
    if isinstance(obj, (set, frozenset)):
        return sorted(obj, key=str)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, tuple):
        return list(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def reference_dumps(obj, default=reference_jsonable):
    """The CLI's original encoding: the standard library's indented encoder."""
    return json.dumps(obj, indent=2, sort_keys=True, default=default)


def same_encoding(obj):
    """cli._encode(obj) is the oracle's text, or both raise TypeError."""
    seen = []

    def default(o):
        seen.append(type(o))
        return reference_jsonable(o)

    try:
        expected = reference_dumps(obj, default)
    except TypeError:
        with pytest.raises(TypeError):
            cli._encode(obj)
        return
    assert cli._encode(obj) == expected
    assert tuple not in seen


NAMED_CHARACTERS = '"\\/\x00\x08\t\n\x1f\x7f\x80\xe9\u2028\uffff\U0001f600'
json_strings = st.text(st.one_of(st.sampled_from(NAMED_CHARACTERS), st.characters()),
                       max_size=6)
json_ints = st.one_of(st.integers(-3, 3), st.integers(), st.sampled_from([-(2 ** 70), 2 ** 64]))
json_floats = st.one_of(
    st.floats(), st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e16]))
json_leaves = st.one_of(json_strings, json_ints, json_floats, st.booleans(), st.none())
KEY_STRATEGIES = [  # one key type, or numbers, sort; mixed keys mostly do not
    json_strings,
    st.one_of(json_ints, st.booleans()),
    st.one_of(json_ints, json_floats, st.booleans()),
    st.none(),
    st.one_of(json_strings, json_ints, json_floats, st.booleans(), st.none()),
]


def json_containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.lists(json_strings, min_size=1, max_size=5),
        st.lists(st.integers(), min_size=1, max_size=5),
        st.sets(st.one_of(json_strings, st.integers(-20, 20)), max_size=5),
        st.frozensets(st.one_of(json_strings, st.integers(-20, 20)), max_size=5),
        st.sampled_from(KEY_STRATEGIES).flatmap(
            lambda keys: st.dictionaries(keys, children, max_size=4)),
    )


json_values = st.recursive(json_leaves, json_containers, max_leaves=30)


@settings(max_examples=500, deadline=None)
@given(json_values)
@example({"a": [], "b": {}, "c": [[], [{}]], "d": ()})
@example({1: "x", "1": "y"})
@example({None: 0, True: 1})
@example([True, False, 1, 0, None, 1.0, -0.0, 1e16, float("nan"), float("-inf")])
@example({"s": {"10", 2, "2", 10, "b", "A"}, "f": frozenset({3, "3x", "-1"})})
@example({0.5: 1, 2: 2, True: 3, float("inf"): 4, -0.0: 5})
@example(["\"\\\x00\x1f\x7f\xe9\U0001f600"])
def test_encoder_against_json_dumps(value):
    """cli._encode against the indented json.dumps of the original CLI, on
    nested values of every kind the encoder distinguishes."""
    same_encoding(value)


def test_encoder_refuses_what_json_dumps_refuses():
    for value in ([object()], {"a": {1j}}, {(1, 2): 0}, {1: 0, "1": 0}, {None: 0, 0: 0}):
        same_encoding(value)
    with pytest.raises(TypeError, match="cannot serialize complex"):
        cli._encode([1j])
    with pytest.raises(TypeError, match="keys must be str, int, float, bool or None, not tuple"):
        cli._encode({(1, 2): 0})


@st.composite
def json_arrays(draw):
    """The arrays the encoder writes, 1-d or 2-d, the empty and (k, 0)
    shapes among them: intp, int32 or uint8 ints over each dtype's range,
    or an object array of strs drawn from a small pool, so strings recur."""
    shape = draw(st.one_of(st.tuples(st.integers(0, 6)),
                           st.tuples(st.integers(0, 4), st.integers(0, 3))))
    size = int(np.prod(shape))
    dtype = draw(st.sampled_from([np.intp, np.int32, np.uint8, object]))
    if dtype is object:
        pool = draw(st.lists(json_strings, min_size=1, max_size=4))
        a = np.empty(size, dtype=object)
        a[:] = draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))
        return a.reshape(shape)
    info = np.iinfo(dtype)
    ints = st.one_of(st.integers(-3, 3).filter(lambda i: i >= info.min),
                     st.integers(int(info.min), int(info.max)))
    items = draw(st.lists(ints, min_size=size, max_size=size))
    return np.array(items, dtype=dtype).reshape(shape)


def object_array(items, shape=None):
    """items in an object array of the given shape (1-d by default), even
    where np.array would make a str or a 2-d array of them."""
    a = np.empty(len(items), dtype=object)
    a[:] = items
    return a.reshape(shape or (len(items),))


@settings(max_examples=300, deadline=None)
@given(st.lists(json_arrays(), min_size=1, max_size=3), json_strings)
@example([np.zeros(0, np.intp), np.zeros((3, 0), np.int32), np.zeros((0, 2), np.uint8)], "")
@example([np.array([-1, -(2 ** 31)], np.int32),
          np.array([[np.iinfo(np.intp).min, -2], [np.iinfo(np.intp).max, 0]]),
          np.array([0, 255], np.uint8)], "k")
@example([object_array(list(NAMED_CHARACTERS)),
          object_array(list(NAMED_CHARACTERS[::-1]) + ["%s", "%d"], (4, 4))], "%")
@example([np.arange(-3, 2 * cli._BLOCK).reshape(-1, 1), np.arange(2 * cli._BLOCK + 1),
          object_array(list(NAMED_CHARACTERS) * cli._BLOCK, (-1, 2))], "blocks")
def test_encoder_writes_arrays_as_their_tolist(arrays, key):
    """cli._encode of an array, alone and in nested containers beside other
    arrays whose strings it shares, is the oracle's text of its tolist();
    also for arrays of several blocks of rows."""
    for doc in (arrays[0], arrays, {key: arrays, "x": [[arrays[-1]], arrays[0]]}):
        same_encoding(doc)


def test_encoder_refuses_other_arrays():
    """Arrays of floats, bools or fixed-width strs, of another shape, or an
    object array that holds a non-str raise TypeError, as json.dumps does
    for any array."""
    for a in (np.zeros(2), np.zeros(2, dtype=bool), np.array(["a"]), np.zeros(0),
              np.array(5), np.zeros((1, 1, 1), dtype=np.intp), object_array(["a", 1]),
              object_array([None])):
        with pytest.raises(TypeError):
            json.dumps(a)
        with pytest.raises(TypeError):
            cli._encode({"a": [a]})


def test_encoder_emit_writes_the_report_an_entry_at_a_time(tmp_path, capsys):
    """_emit writes _encode's text and a newline, to a file or to stdout,
    the empty dict and texts longer than one write slice included.  It
    encodes and writes a report one entry at a time, so its traced peak
    stays under the size of the report, which encoding it whole doubles."""
    path = tmp_path / "out.json"
    sections = {f"s{k}": np.arange(k, k + 120_000).reshape(-1, 2) for k in range(6)}
    for doc in ({}, {"x": [1, {"y": "z" * (cli._SLICE + 5)}], "": None}, sections):
        cli._emit(doc, str(path))
        assert path.read_text(encoding="utf-8") == cli._encode(doc) + "\n"
        cli._emit(doc, None)
        assert capsys.readouterr().out == cli._encode(doc) + "\n"
    size = len(cli._encode(sections))
    tracemalloc.start()
    try:
        cli._emit(sections, str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < size


CLI_RUNS = [
    *(["generate", "--builtin", name] for name in md.BUILTIN_COMPLEXES + rg.BUILTIN_GRAPHS),
    ["generate", "--random", "6", "5", "42"],
    ["generate", "--ball", "C5", "artin", "2"],
    ["analyze", "--in", "{random}"],
    ["analyze", "--in", "{random}", "--dot"],
    ["analyze", "--in", "{ball}"],
    ["analyze", "--in", "{ball}", "--dot"],
    ["verify", "--builtin", "SQUARE", "--graph", "P4"],
]


@pytest.mark.parametrize("argv", CLI_RUNS, ids=" ".join)
def test_cli_writes_the_oracle_encoding(argv, x_c5_r2, tmp_path, monkeypatch, capsys):
    """What cli.main writes is the original encoding of the same document,
    plus a newline."""
    sources = {
        "random": md.complex_to_json(md.random_median_complex(6, 5, 42)),
        "ball": md.complex_to_json(x_c5_r2.complex),
    }
    for name, doc in sources.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    argv = [a.format(**{n: tmp_path / f"{n}.json" for n in sources}) for a in argv]
    docs = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda doc, out: (docs.append(doc), emit(doc, out)))
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == reference_dumps(docs[0]) + "\n"


def reference_hyperplane_report(X):
    """The original report: each side and carrier sorted by str on its own."""
    out = []
    for h in eager_hyperplanes(X)[0]:
        out.append(
            {
                "id": h.id,
                "edges": sorted(sorted(map(str, e)) for e in h.dual_edges),
                "sideA": sorted(map(str, h.side_a)),
                "sideB": sorted(map(str, h.side_b)),
                "carrier": sorted(map(str, h.carrier)),
            }
        )
    return out


def reference_graph_json(adjacency):
    """The original graph encoding, from a dict of sets: sorted vertices and
    sorted edges [u, w], u < w."""
    return {
        "vertices": sorted(adjacency),
        "edges": sorted(
            sorted((u, w)) for u in adjacency for w in adjacency[u] if u < w
        ),
    }


def reference_family_json(F):
    """The original family_to_json, on the dicts of sets of F's graphs."""
    return {
        "mode": F.mode,
        "contact": reference_graph_json(adjacency_of(F.contact)),
        "crossing": reference_graph_json(adjacency_of(F.crossing)),
        "reduced": {
            "classes": [list(cls) for cls in F.classes],
            "edges": reference_graph_json(adjacency_of(F.reduced))["edges"],
        },
    }


def reference_graph_to_dot(adjacency, name="graph"):
    """The original graph_to_dot, from a dict of sets."""
    lines = [f"graph {name} {{"]
    for v in sorted(adjacency):
        lines.append(f'  "{v}";')
    for u in sorted(adjacency):
        for w in sorted(adjacency[u]):
            if u < w:
                lines.append(f'  "{u}" -- "{w}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


@st.composite
def symmetric_matrices(draw):
    """Symmetric bool matrices with a false diagonal, on 0-12 vertices."""
    n = draw(st.integers(0, 12))
    pairs = list(combinations(range(n), 2))
    bits = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    M = np.zeros((n, n), dtype=bool)
    for (u, w), bit in zip(pairs, bits):
        M[u, w] = M[w, u] = bit
    return M


@settings(max_examples=300, deadline=None)
@given(symmetric_matrices(), symmetric_matrices(), symmetric_matrices())
@example(np.zeros((0, 0), dtype=bool), np.zeros((0, 0), dtype=bool),
         np.zeros((0, 0), dtype=bool))
@example(np.zeros((12, 12), dtype=bool), np.zeros((12, 12), dtype=bool),
         np.zeros((1, 1), dtype=bool))
@example(~np.eye(12, dtype=bool), ~np.eye(12, dtype=bool), ~np.eye(5, dtype=bool))
def test_graph_writers_against_the_dict_writers(contact, crossing, reduced):
    """family_to_json's graphs, as cli._encode writes them, and graph_to_dot
    give the bytes of the dict-of-sets writers, on the empty, edgeless and
    complete graphs and on random graphs with at most 12 vertices."""
    classes = tuple((c,) for c in range(len(reduced)))
    F = ct.ContactFamily(None, contact, crossing, classes,
                         np.arange(len(reduced)), reduced, "strict")
    assert cli._encode(ct.family_to_json(F)) == cli._encode(reference_family_json(F))
    for name, M in (("contact", contact), ("crossing", crossing)):
        assert ct.graph_to_dot(M, name) == reference_graph_to_dot(adjacency_of(M), name)


def int_grid():
    """The 3 x 4 grid on the ints 0..11, where str order ("10" < "2") is not
    int order."""
    edges = [(v, v + 1) for v in range(12) if v % 4 != 3] + [(v, v + 4) for v in range(8)]
    return md.validate_complex(list(range(12)), edges)


def report_lists(report):
    """A hyperplane report with its name arrays as lists, once each is
    checked to be an object array of the documented shape."""
    for h in report:
        assert [(h[k].dtype, h[k].ndim) for k in ("edges", "sideA", "sideB", "carrier")] == [
            (object, 2), (object, 1), (object, 1), (object, 1)]
    return [{k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in h.items()}
            for h in report]


def test_hyperplane_report_against_the_oracle(x_c5_r2):
    complexes = [md.builtin_complex(name) for name in md.BUILTIN_COMPLEXES]
    complexes += [md.random_median_complex(6, 5, seed) for seed in range(1, 51)]
    complexes += [x_c5_r2.complex, int_grid()]
    for X in complexes:
        assert report_lists(md.hyperplane_report(X)) == reference_hyperplane_report(X)
    report = report_lists(md.hyperplane_report(int_grid()))
    assert any(h["sideA"] != sorted(h["sideA"], key=int) for h in report)


# ---------------------------------------------------------------------------
# Hyperplane maps

def reference_hyperplane_map(X, g):
    """The original loop of induce_iota: the hyperplane of each edge's image,
    by hyperplane_of_edge, collected per hyperplane over the edges inside
    g's domain."""
    images = {}
    ends, label = X.edge_labels
    V = X.vertices
    for (u, v), h in zip([(V[i], V[j]) for i, j in ends.tolist()], label.tolist()):
        if u in g and v in g:
            if not has_edge(X, g[u], g[v]):
                raise NotAnAutomorphism(f"edge {[u, v]} maps to a non-edge")
            images.setdefault(h, set()).add(X.hyperplane_of_edge(g[u], g[v]))
    phi = {}
    for h in sorted(images):
        if len(images[h]) > 1:
            raise HyperplaneNotPreserved(
                f"hyperplane {h} maps to several hyperplanes {sorted(images[h])}")
        phi[h] = images[h].pop()
    return phi


def reference_induce_iota(X, g):
    """The original induce_iota: the vertex checks, the loop, and the contact
    check of a total map."""
    for u in g:
        X.check_vertex(u)
        X.check_vertex(g[u])
    phi = reference_hyperplane_map(X, g)
    if len(g) == len(X.vertices):
        rc.verify_automorphism(ct.build_contact_family(X).contact, phi)
    return phi


def outcome(f, *args):
    """The items of the dict f returns, in order, or the type and the text
    of the CubetactError it raises."""
    try:
        return list(f(*args).items())
    except CubetactError as ex:
        return type(ex), str(ex)


MAP_BALLS = ("y_c5_r3", "y_p4_r4", "y_st5_r4", "x_c5_r2", "x_f2_r3", "z2_r3")


@pytest.fixture(scope="session")
def map_balls(request):
    return {name: request.getfixturevalue(name) for name in MAP_BALLS}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(MAP_BALLS),
       st.sampled_from(["translation", "restriction", "moved", "scatter"]), st.data())
def test_hyperplane_map_against_the_edge_loop(map_balls, name, mode, data):
    """_hyperplane_map and induce_iota give the maps of the loop, or raise
    its errors with its texts, on translations by random words (the empty
    word gives a total map), their random restrictions, translations with
    one image moved to any vertex, and maps sending two dual edges of one
    hyperplane to themselves and to a random edge."""
    ball = map_balls[name]
    X, gamma = ball.complex, ball.gamma
    exponents = [1] if ball.kind == rg.COXETER else [-1, 1]
    syllable = st.tuples(st.sampled_from(gamma.vertices), st.sampled_from(exponents))
    word = rg.normal_form(gamma, ball.kind, data.draw(st.lists(syllable, max_size=4)))
    g = rg._translation(ball, word)
    rnd = data.draw(st.randoms(use_true_random=False))
    dual = [e for e in md._dual_edges(X) if len(e) > 1]
    if mode == "restriction":
        g = {u: w for u, w in g.items() if rnd.random() < 0.5}
    elif mode == "moved" and g:
        g[rnd.choice(sorted(g))] = rnd.choice(X.vertices)
    elif mode == "scatter" and dual:
        (u1, v1), (u2, v2) = rnd.sample(rnd.choice(dual), 2)
        x, y = (X.vertices[i] for i in rnd.choice(X.edge_labels[0].tolist()))
        g = {u1: u1, v1: v1, u2: x, v2: y}
    assert outcome(md._hyperplane_map, X, g) == outcome(reference_hyperplane_map, X, g)
    assert outcome(rc.induce_iota, X, g) == outcome(reference_induce_iota, X, g)


@pytest.mark.parametrize("g, found", [
    ({"00": "00", "01": "01", "20": "20", "21": "10"},
     (HyperplaneNotPreserved, "hyperplane 0 maps to several hyperplanes [0, 2]")),
    ({"00": "00", "10": "10", "11": "11", "01": "01", "20": "10", "21": "11"},
     (NotAnAutomorphism, "edge ['10', '20'] maps to a non-edge")),
], ids=["scatter", "non-edge"])
def test_hyperplane_map_errors_are_the_loop_errors(g, found):
    X = md.builtin_complex("DOMINO")
    assert outcome(md._hyperplane_map, X, g) == outcome(reference_hyperplane_map, X, g) == found
    assert outcome(rc.induce_iota, X, g) == found


def test_hyperplane_map_of_one_vertex():
    """One vertex has no edge, so its maps are empty (and no argmax runs over
    an empty axis)."""
    X = md.validate_complex(["v"], [])
    assert rc.induce_iota(X, {"v": "v"}) == md._hyperplane_map(X, {"v": "v"}) == {}
    assert md._hyperplane_map(X, {}) == {}


def reference_davis_maps(ball, a, base, d):
    """The original phi and rho_map loops of davis_phi: each A+ hyperplane
    maps to the one hyperplane that its reflected dual edges in the ball
    cross, and rho_map reflects the vertices on the a-plus side."""
    X, gamma, kind = ball.complex, ball.gamma, ball.kind

    def reflect(vid):
        image = rg.format_word(rg.nf_mult(gamma, kind, d.reflection, ball.words[vid]))
        return image if image in ball.words else None

    va = rg.format_word(rg.nf_mult(gamma, kind, ball.words[base], ((a, 1),)))
    a_plus = X.sides[d.a_hyperplane] == X.sides[d.a_hyperplane, X.index[va]]
    phi, dual = {}, md._dual_edges(X)
    for hid, part in d.partition.items():
        if part != "A+":
            phi[hid] = hid
            continue
        images = set()
        for u, v in dual[hid]:
            iu, iv = reflect(u), reflect(v)
            if iu is not None and iv is not None:
                images.add(X.hyperplane_of_edge(iu, iv))
        assert len(images) == 1, (hid, images)
        phi[hid] = images.pop()
    rho_map = {}
    for vid in ball.words:
        if not a_plus[X.index[vid]]:
            rho_map[vid] = vid
        elif reflect(vid) is not None:
            rho_map[vid] = reflect(vid)
    return phi, rho_map


@pytest.mark.parametrize("base", ["1", "c"])
@pytest.mark.parametrize("fixture", ["y_p4_r4", "y_st5_r4"])
def test_davis_phi_against_the_dual_edge_loop(request, fixture, base):
    """davis_phi's phi and rho_map, read off the translation by the
    reflection, are those of the loops, in the same order, on the P4 and
    STAR_EQ5 coxeter balls of radius 4 at two bases."""
    ball = request.getfixturevalue(fixture)
    d = rg.davis_phi(ball, "a", "b", base=base)
    phi, rho_map = reference_davis_maps(ball, "a", base, d)
    assert list(d.phi.items()) == list(phi.items())
    assert list(d.rho_map.items()) == list(rho_map.items())
    assert any(rho_map[v] != v for v in rho_map)


def reference_pushforward_reduced(F, phi):
    """The original pushforward_reduced, which checked that each class goes
    onto one class of its size and that the class map is a bijection."""
    rc.verify_automorphism(F.crossing, phi)
    class_of, induced = F.class_of.tolist(), {}
    for cid, cls in enumerate(F.classes):
        images = {class_of[phi[h]] for h in cls}
        if len(images) != 1:
            raise NotAnAutomorphism(
                f"class {cls} is scattered across classes {sorted(images)}"
            )
        target = images.pop()
        if len(F.classes[target]) != len(cls):
            raise NotAnAutomorphism(
                f"class {cls} maps to a class of different size"
            )
        induced[cid] = target
    if set(induced.values()) != set(induced):
        raise NotAnAutomorphism("induced class map is not a bijection")
    return induced


PUSHFORWARD_CAP = 100  # crossing automorphisms per graph and mode


def test_pushforward_reduced_against_the_checked_map():
    """pushforward_reduced, with no checks of its own after the automorphism
    check, gives the checked map on up to PUSHFORWARD_CAP crossing-graph
    automorphisms per graph (networkx's GraphMatcher) in both modes, on the
    builtins, 100 random(6, 5) draws and the builtin balls of radius 1-2;
    and a shuffle that is no automorphism is refused by both with the same
    message."""
    nx = pytest.importorskip("networkx")
    instances = [md.builtin_complex(name) for name in md.BUILTIN_COMPLEXES]
    instances += [md.random_median_complex(6, 5, seed) for seed in range(1, 101)]
    instances += [rg.build_ball(rg.builtin_defining_graph(name), kind, radius).complex
                  for name in rg.BUILTIN_GRAPHS for kind in (rg.ARTIN, rg.COXETER)
                  for radius in (1, 2)]
    rnd, checked = random.Random(5), 0
    for X in instances:
        for mode in ct.REDUCED_MODES:
            F = ct.build_contact_family(X, mode)
            G = nx.from_numpy_array(F.crossing)
            matcher = nx.algorithms.isomorphism.GraphMatcher(G, G)
            for iso in islice(matcher.isomorphisms_iter(), PUSHFORWARD_CAP):
                assert ct.pushforward_reduced(F, iso) == reference_pushforward_reduced(F, iso)
                checked += 1
            shuffled = rnd.sample(range(len(F.crossing)), len(F.crossing))
            phi = dict(enumerate(shuffled))
            assert (outcome(ct.pushforward_reduced, F, phi)
                    == outcome(reference_pushforward_reduced, F, phi))
    assert checked > 5000
