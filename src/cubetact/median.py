"""Median-graph representation of finite CAT(0) cube complexes.

A finite CAT(0) cube complex is stored through its 1-skeleton, which is a
median graph: every vertex triple has a unique vertex lying on geodesics
between each pair.  All hyperplane-level geometry (sides, carriers, links,
extremal vertices, the cubical structure induced on a hyperplane) is derived
from that graph.  Hyperplanes are the Djokovic-Winkler classes of its edges,
held as side and carrier incidence matrices.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import (
    LemmaViolation,
    NotConnected,
    NotMedian,
    SizeLimitExceeded,
    UnknownHyperplane,
    UnknownVertex,
)

DEFAULT_VERTEX_CAP = 4096
_PAIRS = 1024  # the majority kernel works in blocks of _PAIRS pairs by _KS rows
_KS = 16


def vertex_cap() -> int:
    env = os.environ.get("CUBETACT_CAP_VERTICES")
    return int(env) if env else DEFAULT_VERTEX_CAP


@dataclass(frozen=True)
class Hyperplane:
    """A Djokovic-Winkler edge class, with its two sides and its carrier."""

    id: int
    dual_edges: frozenset  # frozensets {u, v}
    side_a: frozenset
    side_b: frozenset
    carrier: frozenset  # endpoints of the dual edges

    def side_of(self, v):
        if v in self.side_a:
            return self.side_a
        if v in self.side_b:
            return self.side_b
        raise UnknownVertex(v)

    def other_side(self, v):
        return self.side_b if v in self.side_a else self.side_a


@dataclass(frozen=True)
class LinkGraph:
    """Hyperplanes adjacent to a vertex, joined when they span a square there."""

    base_vertex: object
    nodes: frozenset  # hyperplane ids
    adjacency: frozenset  # frozensets {h1, h2}


class CubeComplex:
    """Immutable container for a validated median graph and its derived data.

    Use :func:`validate_complex` or :func:`certified_complex` to construct one;
    the constructor itself does not re-check the median property.
    """

    def __init__(self, vertices, edges, dist, squares):
        self.vertices = tuple(vertices)
        self.index = {v: i for i, v in enumerate(self.vertices)}
        self.edges = frozenset(frozenset(e) for e in edges)
        self.adj = {v: set() for v in self.vertices}
        for e in self.edges:
            u, v = tuple(e)
            self.adj[u].add(v)
            self.adj[v].add(u)
        self._dist = dist  # numpy (n, n) int matrix, indexed like self.vertices
        # squares are stored in cycle order (a, b, c, d): edges ab, bc, cd, da
        self.squares = tuple(squares)
        # hyperplane data, filled together by compute_hyperplanes
        self._hyperplanes = None
        self._sides = None
        self._carriers = None
        self._edge_to_h = None
        self._ids_at = None
        self._relation = None  # contact.py's hyperplane-pair relation
        self._dimension = None
        self._squares_at = None  # vertex -> squares through it, for link_graph

    def __len__(self):
        return len(self.vertices)

    def __repr__(self):
        return (
            f"CubeComplex({len(self.vertices)} vertices, {len(self.edges)} edges, "
            f"{len(self.squares)} squares)"
        )

    def check_vertex(self, v):
        if v not in self.index:
            raise UnknownVertex(v)

    def d(self, u, v):
        self.check_vertex(u)
        self.check_vertex(v)
        return int(self._dist[self.index[u], self.index[v]])

    def _theta(self):
        if self._hyperplanes is None:
            self._hyperplanes = compute_hyperplanes(self)

    @property
    def hyperplanes(self):
        self._theta()
        return self._hyperplanes

    @property
    def sides(self):
        """A: (H, n) bool, A[h, i] iff vertices[i] lies in side_a of h."""
        self._theta()
        return self._sides

    @property
    def carriers(self):
        """K: (H, n) bool, K[h, i] iff vertices[i] lies in the carrier of h."""
        self._theta()
        return self._carriers

    def hyperplane(self, hid) -> Hyperplane:
        hs = self.hyperplanes
        if not isinstance(hid, int) or not 0 <= hid < len(hs):
            raise UnknownHyperplane(hid)
        return hs[hid]

    def hyperplane_of_edge(self, u, v):
        self._theta()
        e = frozenset((u, v))
        if e not in self._edge_to_h:
            raise UnknownHyperplane((u, v))
        return self._edge_to_h[e]

    @property
    def dimension(self):
        """Largest family of pairwise-transverse hyperplanes.

        Pairwise-transverse hyperplanes all cross one cube, so this is also
        the largest such family at one vertex.
        """
        if self._dimension is None:
            from .contact import _adjacency, _relation
            from .reconstruction import maximal_cliques

            crossing = _adjacency(_relation(self).transverse)
            self._dimension = max(map(len, maximal_cliques(crossing)), default=0)
        return self._dimension

    def geodesic_vertices(self, u, v):
        """All vertices on some geodesic between u and v (the interval)."""
        i, j = self.index[u], self.index[v]
        dv = self._dist
        return {
            w
            for w, k in self.index.items()
            if dv[i, k] + dv[k, j] == dv[i, j]
        }


def _distances(adjacent, start):
    """BFS distances from index start in a bool adjacency matrix, -1 if unreachable."""
    dist = np.full(len(adjacent), -1, dtype=np.int32)
    front, d = np.arange(len(adjacent)) == start, 0
    while front.any():
        dist[front] = d
        front = adjacent[front].any(axis=0) & (dist < 0)
        d += 1
    return dist


def _find_squares(vertices, adj):
    """Chordless 4-cycles, each as a cycle-ordered tuple (a, b, c, d)."""
    squares = {}
    for a in vertices:
        for b, d in combinations(sorted(adj[a]), 2):
            if b in adj[d]:
                continue  # chord bd
            for c in adj[b] & adj[d]:
                if c == a or c in adj[a]:
                    continue  # not a 4-cycle / chord ac
                key = frozenset((a, b, c, d))
                if key not in squares:
                    squares[key] = (a, b, c, d)
    return sorted(squares.values())


def median_triple_defects(dist, first_only=True):
    """Triples (a, b, c) of indices whose median count differs from one.

    ``dist`` must be a symmetric integer distance matrix.  Yields
    (a, b, c, median_indices) tuples; with first_only, stops at the first.
    """
    n = dist.shape[0]
    d = dist.astype(np.int32)
    packed = np.empty((n, n, (n + 7) // 8), dtype=np.uint8)
    for a in range(n):  # packbits zero-pads each row to whole bytes
        packed[a] = np.packbits(d[a][:, None] == d[a][None, :] + d, axis=1)  # (b, v)
    defects = []
    for a in range(n):
        pa = packed[a]
        for b in range(a + 1, n):
            rows = pa[b][None, :] & pa & packed[b]  # (c, width)
            counts = np.bitwise_count(rows).sum(axis=1, dtype=np.int64)
            bad = np.nonzero(counts != 1)[0]
            for c in bad.tolist():
                medians = np.flatnonzero(np.unpackbits(rows[c], count=n)).tolist()
                defects.append((a, b, c, medians))
                if first_only:
                    return defects
    return defects


def validate_complex(vertices, edges, cap=None) -> CubeComplex:
    """Check that the given graph is a finite connected median graph.

    Raises NotConnected or NotMedian (with a witness triple) otherwise.
    """
    vertices = list(dict.fromkeys(vertices))
    if not vertices:
        raise NotConnected("empty graph")
    if cap is None:
        cap = vertex_cap()
    if len(vertices) > cap:
        raise SizeLimitExceeded(f"{len(vertices)} vertices exceeds cap {cap}")
    index = {v: i for i, v in enumerate(vertices)}
    edge_set = set()
    A = np.zeros((len(vertices), len(vertices)), dtype=bool)
    for e in edges:
        u, v = tuple(e)
        if u not in index or v not in index:
            raise UnknownVertex(e)
        if u == v:
            raise ValueError(f"self-loop at {u!r}; the graph must be simple")
        edge_set.add(frozenset((u, v)))
        A[index[u], index[v]] = A[index[v], index[u]] = True

    dist = np.array([_distances(A, i) for i in range(len(vertices))])
    if (dist < 0).any():
        raise NotConnected("graph is not connected")
    for a, b, c, medians in median_triple_defects(dist, first_only=True):
        raise NotMedian(
            (vertices[a], vertices[b], vertices[c]), [vertices[v] for v in medians]
        )

    X = CubeComplex(vertices, edge_set, dist, ())
    X.squares = tuple(_find_squares(X.vertices, X.adj))
    # In a median graph every 4-cycle is chordless; check that no chordful
    # 4-cycle slipped through (would indicate a bug above).
    for a, b, c, d in X.squares:
        if b in X.adj[d] or a in X.adj[c]:
            raise LemmaViolation(f"square {(a, b, c, d)} has a chord")
    return X


def hamming_distances(rows):
    """int32 popcount-XOR distances of packed 0/1 rows, one byte column at a time."""
    D = np.zeros((len(rows), len(rows)), dtype=np.int32)
    for col in rows.T:
        D += np.bitwise_count(col[:, None] ^ col)
    return D


def majority_closure(rows, cap):
    """Close distinct packed 0/1 rows (as np.packbits gives) under bitwise majority.

    Round by round, each triple i < j < k once: a round takes the k added in
    the round before (every k at first), in blocks of _PAIRS pairs (i, j) by
    _KS rows k.  A majority is looked up by a 64-bit key, distinct on the
    rows, and compared with the row found, so membership is exact.  Returns
    (closed, witnesses): closed starts with rows, and its row len(rows) + t
    is the majority of rows witnesses[t] = (i, j, k).  Raises
    SizeLimitExceeded past cap rows.
    """
    width = max(8, -(-rows.shape[1] // 8) * 8)  # bytes in whole uint64 words
    pad = np.zeros((len(rows), width - rows.shape[1]), dtype=np.uint8)
    R = np.hstack([rows, pad]).view(np.uint64)
    whole = np.dtype((np.void, width))  # a row as one item
    witnesses, lo, rng = [], 0, random.Random(0)
    while lo < len(R):
        n = len(R)
        if n > cap:
            raise SizeLimitExceeded(f"majority closure exceeds {cap} vertices")
        mult = np.array([rng.getrandbits(64) | 1 for _ in R[0]], dtype=np.uint64)
        keys = R @ mult  # wraps modulo 2**64
        order = np.argsort(keys)
        keys = keys[order]
        if (np.diff(keys) == 0).any():  # two rows share a key: draw again
            if len(np.unique(R.view(whole))) < n:
                raise ValueError("majority_closure needs distinct rows")
            continue
        starts = np.arange(n + 1) * np.arange(-1, n) // 2  # first pair (., j)
        new = {}  # row bytes -> witness
        for p0 in range(0, int(starts[n - 1]), _PAIRS):
            P = np.arange(p0, min(p0 + _PAIRS, int(starts[n - 1])))
            J = np.searchsorted(starts, P, side="right") - 1
            I = P - starts[J]
            both, either = R[I] & R[J], R[I] | R[J]
            for k0 in range(max(lo, int(J[0]) + 1), n, _KS):
                K = np.arange(k0, min(k0 + _KS, n))
                m = both | (R[K][:, None] & either)  # (k, pair, word)
                pos = order[np.minimum(np.searchsorted(keys, m @ mult), n - 1)]
                missing = R.view(whole)[pos, 0] != m.view(whole)[..., 0]
                kk, pp = np.nonzero(missing & (J < K[:, None]))
                _, first = np.unique(m[kk, pp].view(whole), return_index=True)
                for t in np.sort(first).tolist():
                    new.setdefault(m[kk[t], pp[t]].tobytes(),
                                   (int(I[pp[t]]), int(J[pp[t]]), int(K[kk[t]])))
                if n + len(new) > cap:
                    raise SizeLimitExceeded(f"majority closure exceeds {cap} vertices")
        R = np.vstack([R, np.frombuffer(b"".join(new), np.uint64).reshape(-1, R.shape[1])])
        witnesses += new.values()
        lo = n
    return R.view(np.uint8)[:, :rows.shape[1]], witnesses


def certified_complex(vertices, edges, dist) -> CubeComplex:
    """The complex on distinct majority-closed 0/1 rows, without the n^3 scan.

    dist is the hamming_distances of such rows, vertices name them in order.
    Raises LemmaViolation unless the edges are exactly the pairs at Hamming
    distance 1, NotConnected unless they connect the rows.  Then the graph
    is median with metric dist.  Proof: for rows u != v take a path
    u = x_0, ..., x_L = v.  Each y_i = maj(u, v, x_i) is a row (the rows are
    closed) in the cube interval [u, v], and y_i, y_i+1 differ at most where
    x_i, x_i+1 do, so the first y_i != u is a neighbour of u one step nearer
    to v.  Induction on the Hamming distance d(u, v) gives a path of length
    d(u, v), and none is shorter.  So maj(a, b, c) lies on geodesics between
    each pair of a, b, c, and any vertex that does agrees with it in every
    coordinate: medians exist and are unique.
    """
    edges = {frozenset(e) for e in edges}
    ones = {
        frozenset((vertices[i], vertices[j]))
        for i, j in np.argwhere(np.triu(dist == 1)).tolist()
    }
    for e in sorted(map(sorted, edges ^ ones))[:1]:
        raise LemmaViolation(f"the edges and the Hamming-1 pairs differ at {e}")
    if (_distances(dist == 1, 0) < 0).any():
        raise NotConnected("the Hamming-1 graph of the rows is not connected")
    X = CubeComplex(vertices, edges, dist, ())
    X.squares = tuple(_find_squares(X.vertices, X.adj))
    return X


def compute_hyperplanes(X: CubeComplex):
    """Hyperplanes as the Djokovic-Winkler classes of the edges.

    The side of edge uv is W_uv = {w : d(w, u) < d(w, v)}; edges lie in one
    class when their sides agree up to complement.  Ids follow the classes'
    smallest sorted edges, and side_a is the side whose first vertex in
    X.vertices order has the smaller str.  Also fills X's side and carrier
    matrices (see CubeComplex.sides and .carriers), its edge map and its
    per-vertex id sets.  Raises LemmaViolation with a witness edge unless the
    edges crossing each side are exactly the class's edges; since a class is
    never empty, this also makes both sides non-empty.
    """
    n = len(X.vertices)
    edges = sorted(tuple(sorted(e)) for e in X.edges)
    eu = np.array([X.index[u] for u, _ in edges], dtype=np.intp)
    ev = np.array([X.index[v] for _, v in edges], dtype=np.intp)
    W = X._dist[eu] < X._dist[ev]  # (m, n): row e is the side of eu
    W = W == W[:, :1]  # the complement where needed, so every row holds vertex 0
    classes = {}
    for e, row in enumerate(np.packbits(W, axis=1)):
        classes.setdefault(row.tobytes(), []).append(e)
    # edges are sorted, so the classes arrive ordered by their smallest edge
    classes = list(classes.values())
    H = len(classes)
    label = np.empty(len(edges), dtype=np.intp)
    for h, es in enumerate(classes):
        label[es] = h
    A = W[[es[0] for es in classes]]
    # swap to the other side where its first vertex has the smaller str
    first_off = np.argmin(A, axis=1).tolist()
    flip = [str(X.vertices[i]) < str(X.vertices[0]) for i in first_off]
    A ^= np.array(flip, dtype=bool).reshape(H, 1)

    crosses = A[:, eu] != A[:, ev]
    bad = np.argwhere(crosses != (label[None, :] == np.arange(H)[:, None]))
    if bad.size:
        h, e = bad[0].tolist()
        raise LemmaViolation(
            f"edge {edges[e]} {'crosses' if crosses[h, e] else 'misses'} "
            f"the sides of hyperplane {h} but belongs to hyperplane "
            f"{int(label[e])}: the graph is not median"
        )
    K = np.zeros((H, n), dtype=bool)
    K[label, eu] = True
    K[label, ev] = True

    hyperplanes = []
    for h, es in enumerate(classes):
        dual = frozenset(frozenset(edges[e]) for e in es)
        hyperplanes.append(Hyperplane(
            h,
            dual,
            frozenset(X.vertices[i] for i in np.flatnonzero(A[h]).tolist()),
            frozenset(X.vertices[i] for i in np.flatnonzero(~A[h]).tolist()),
            frozenset(v for e in dual for v in e),
        ))
    X._sides, X._carriers = A, K
    X._edge_to_h = {
        frozenset(edges[e]): hyperplanes[h] for e, h in enumerate(label.tolist())
    }
    X._ids_at = tuple(frozenset(np.flatnonzero(col).tolist()) for col in K.T)
    return tuple(hyperplanes)


def _interval_tensor(X: CubeComplex):
    """T[u, v, w] == True iff w lies on a geodesic from u to v."""
    t = getattr(X, "_itensor", None)
    if t is None:
        d = X._dist.astype(np.int32)
        t = (d[:, None, :] + d.T[None, :, :]) == d[:, :, None]
        X._itensor = t
    return t


def is_convex_set(X: CubeComplex, vertices):
    """Whether a vertex set is geodesically convex (interval-closed)."""
    idx = np.array(sorted(X.index[v] for v in vertices), dtype=np.intp)
    if idx.size <= 1:
        return True
    outside = np.setdiff1d(np.arange(len(X.vertices)), idx)
    if outside.size == 0:
        return True
    t = _interval_tensor(X)
    return not t[np.ix_(idx, idx, outside)].any()


def convexity_check(X: CubeComplex):
    """Halfspaces and carriers must all be convex; returns violation list."""
    violations = []
    for h in X.hyperplanes:
        for name, s in (("sideA", h.side_a), ("sideB", h.side_b),
                        ("carrier", h.carrier)):
            if not is_convex_set(X, s):
                violations.append({"hyperplane": h.id, "set": name})
    return violations


def helly_check(X: CubeComplex, family=None):
    """4-wise Helly property over halfspaces and carriers.

    Any four pairwise-intersecting sets of the family must share a vertex.
    A violating quadruple splits into two pairs whose intersections are
    disjoint, so it is enough to compare all pairs of pairwise intersections.
    """
    n = len(X.vertices)
    if family is None:  # side_a, side_b and carrier of each hyperplane
        M = np.stack([X.sides, ~X.sides, X.carriers], axis=1).reshape(-1, n)
    else:
        M = np.zeros((len(family), n), dtype=bool)
        for i, s in enumerate(family):
            M[i, [X.index[v] for v in s]] = True
    m = len(M)
    counts = M.astype(np.float32) @ M.astype(np.float32).T
    P = counts > 0  # pairwise intersection

    pairs = [(i, j) for i in range(m) for j in range(i + 1, m) if P[i, j]]
    if not pairs:
        return []
    I = np.array([p[0] for p in pairs], dtype=np.intp)
    J = np.array([p[1] for p in pairs], dtype=np.intp)
    R = np.array([M[i] & M[j] for i, j in pairs], dtype=np.float32)
    G = R @ R.T  # common vertices of (i ^ j) and (k ^ l)
    empty = G == 0
    ok_pairs = (
        P[np.ix_(I, I)] & P[np.ix_(I, J)] & P[np.ix_(J, I)] & P[np.ix_(J, J)]
    )
    distinct = (
        (I[:, None] != I[None, :])
        & (I[:, None] != J[None, :])
        & (J[:, None] != I[None, :])
        & (J[:, None] != J[None, :])
    )
    bad = np.argwhere(np.triu(empty & ok_pairs & distinct, k=1))
    violations = []
    for a, b in bad:
        violations.append(tuple(sorted({I[a], J[a], I[b], J[b]})))
    return sorted(set(violations))


def hyperplanes_at(X: CubeComplex, v):
    """The set W_v of ids of hyperplanes whose carrier contains v: column v of K."""
    X.check_vertex(v)
    X._theta()
    return set(X._ids_at[X.index[v]])


def separating(X: CubeComplex, A, B):
    """Hyperplanes with A entirely on one side and B entirely on the other."""
    A, B = set(A), set(B)
    for v in A | B:
        X.check_vertex(v)
    out = set()
    for h in X.hyperplanes:
        if (A <= h.side_a and B <= h.side_b) or (A <= h.side_b and B <= h.side_a):
            out.add(h.id)
    return out


def link_graph(X: CubeComplex, v) -> LinkGraph:
    X.check_vertex(v)
    nodes = hyperplanes_at(X, v)
    if X._squares_at is None:
        X._squares_at = {u: [] for u in X.vertices}
        for sq in X.squares:
            for u in sq:
                X._squares_at[u].append(sq)
    adjacency = set()
    for sq in X._squares_at[v]:
        i = sq.index(v)  # the square's edges at v go to its cycle neighbours
        h1 = X.hyperplane_of_edge(v, sq[i - 1]).id
        h2 = X.hyperplane_of_edge(v, sq[(i + 1) % 4]).id
        if h1 != h2:
            adjacency.add(frozenset((h1, h2)))
    return LinkGraph(v, frozenset(nodes), frozenset(adjacency))


def is_cone(nodes, adjacency):
    """Whether some node is adjacent to all others; returns (bool, apex).

    The empty graph counts as a (vacuous) cone with no apex, so that a vertex
    of a single edge comes out extremal.
    """
    nodes = set(nodes)
    if not nodes:
        return True, None
    neigh = {v: set() for v in nodes}
    for e in adjacency:
        u, v = tuple(e)
        neigh[u].add(v)
        neigh[v].add(u)
    for v in sorted(nodes, key=str):
        if neigh[v] == nodes - {v}:
            return True, v
    return False, None


def is_extremal(X: CubeComplex, v):
    lk = link_graph(X, v)
    cone, _ = is_cone(lk.nodes, lk.adjacency)
    return cone


def dual_edge_id(e):
    """Stable vertex id for a dual edge, used in hyperplane subcomplexes."""
    u, v = sorted(e, key=str)
    return f"{u}|{v}"


def hyperplane_complex(X: CubeComplex, hid) -> CubeComplex:
    """The cubical structure induced on a hyperplane.

    Vertices are the dual edges; two are joined when they lie in a common
    square of X.
    """
    h = X.hyperplane(hid)
    verts = sorted(dual_edge_id(e) for e in h.dual_edges)
    edges = set()
    for a, b, c, d in X.squares:
        pairs = [
            (frozenset((a, b)), frozenset((c, d))),
            (frozenset((b, c)), frozenset((d, a))),
        ]
        for e1, e2 in pairs:
            if e1 in h.dual_edges and e2 in h.dual_edges:
                edges.add(frozenset((dual_edge_id(e1), dual_edge_id(e2))))
    return validate_complex(verts, edges)


def random_median_complex(ambient_dim, seed_count, rng_seed, cap=None) -> CubeComplex:
    """Majority closure of random 0/1-vectors inside the hypercube.

    A closed set can still be disconnected (two antipodal seeds, say): then
    the closest pair between the first two components, in string order, is
    bridged by a bit-flip path and closed again.  Deterministic per rng_seed.
    """
    if not 1 <= ambient_dim <= 12:
        raise ValueError(f"ambient_dim must be in 1..12, got {ambient_dim}")
    if seed_count < 1:
        raise ValueError("seed_count must be >= 1")
    if cap is None:
        cap = vertex_cap()
    rng = random.Random(rng_seed)
    points = set()
    while len(points) < min(seed_count, 2 ** ambient_dim):
        points.add(tuple(rng.randint(0, 1) for _ in range(ambient_dim)))

    weights = 1 << np.arange(ambient_dim)[::-1]  # codes sort like the strings
    codes = np.unique([int("".join(map(str, p)), 2) for p in points])
    while True:
        rows = np.packbits((codes[:, None] & weights) > 0, axis=1)
        rows = majority_closure(rows, cap)[0]
        codes = np.unique(np.unpackbits(rows, axis=1, count=ambient_dim) @ weights)
        D = np.bitwise_count(codes[:, None] ^ codes).astype(np.int32)
        c0 = _distances(D == 1, 0) >= 0
        if c0.all():
            break
        a, b = np.flatnonzero(c0), np.flatnonzero(_distances(D == 1, np.argmin(c0)) >= 0)
        i, j = np.unravel_index(np.argmin(D[np.ix_(a, b)]), (len(a), len(b)))
        p, q = codes[a[i]], codes[b[j]]
        # flip the differing coordinates in ascending order, keeping each step
        codes = np.append(codes, p ^ np.cumsum(weights[((p ^ q) & weights) > 0]))
        codes = np.unique(codes)

    verts = [format(c, f"0{ambient_dim}b") for c in codes.tolist()]
    edges = [(verts[i], verts[j]) for i, j in np.argwhere(np.triu(D == 1)).tolist()]
    return certified_complex(verts, edges, D)


# ---------------------------------------------------------------------------
# Built-in instances

def _complex(vertices, edges):
    return validate_complex(vertices, [frozenset(e) for e in edges])


def builtin_complex(name) -> CubeComplex:
    name = name.upper()
    if name == "EDGE":
        return _complex(["0", "1"], [("0", "1")])
    if name == "SQUARE":
        return _complex(
            ["00", "01", "10", "11"],
            [("00", "01"), ("01", "11"), ("11", "10"), ("10", "00")],
        )
    if name == "Q3":
        verts = ["".join(bits) for bits in
                 ("000", "001", "010", "011", "100", "101", "110", "111")]
        edges = [
            (u, v)
            for u, v in combinations(verts, 2)
            if sum(a != b for a, b in zip(u, v)) == 1
        ]
        return _complex(verts, edges)
    if name == "PATH3":
        return _complex(["0", "1", "2", "3"], [("0", "1"), ("1", "2"), ("2", "3")])
    if name == "TRIPOD":
        return _complex(
            ["c", "l1", "l2", "l3"], [("c", "l1"), ("c", "l2"), ("c", "l3")]
        )
    if name == "DOMINO":
        # 2x1 grid of squares: vertices (x, y), x in 0..2, y in 0..1
        verts = [f"{x}{y}" for x in range(3) for y in range(2)]
        edges = []
        for x in range(3):
            edges.append((f"{x}0", f"{x}1"))
        for x in range(2):
            for y in range(2):
                edges.append((f"{x}{y}", f"{x + 1}{y}"))
        return _complex(verts, edges)
    raise KeyError(f"unknown builtin complex {name!r}")


BUILTIN_COMPLEXES = ("EDGE", "SQUARE", "Q3", "PATH3", "TRIPOD", "DOMINO")


# ---------------------------------------------------------------------------
# Serialization

def complex_to_json(X: CubeComplex) -> dict:
    return {
        "vertices": [str(v) for v in X.vertices],
        "edges": sorted(sorted(map(str, e)) for e in X.edges),
    }


def complex_from_json(doc) -> CubeComplex:
    return validate_complex(doc["vertices"], [frozenset(e) for e in doc["edges"]])


def hyperplane_report(X: CubeComplex) -> list:
    out = []
    for h in X.hyperplanes:
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


def complex_to_dot(X: CubeComplex) -> str:
    lines = ["graph skeleton {"]
    for v in X.vertices:
        lines.append(f'  "{v}";')
    for e in sorted(X.edges, key=lambda e: tuple(sorted(e))):
        u, v = sorted(e)
        hid = X.hyperplane_of_edge(u, v).id
        lines.append(f'  "{u}" -- "{v}" [label="{hid}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"

