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
_CELLS = 1 << 18  # compute_hyperplanes checks sides in blocks of about this many bools
_ALLOC_LIMIT = 1 << 30  # bytes: a larger single allocation raises SizeLimitExceeded


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

    def __init__(self, vertices, edges, dist, squares=None):
        self.vertices = tuple(vertices)
        self.index = {v: i for i, v in enumerate(self.vertices)}
        self.edges = frozenset(frozenset(e) for e in edges)
        self.adj = {v: set() for v in self.vertices}
        for e in self.edges:
            u, v = tuple(e)
            self.adj[u].add(v)
            self.adj[v].add(u)
        self._dist = dist  # numpy (n, n) int matrix, indexed like self.vertices
        self._squares = None if squares is None else tuple(squares)
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

    @property
    def squares(self):
        """The 4-cycles in cycle order (a, b, c, d): edges ab, bc, cd, da.

        The graph is bipartite, so none of them has a chord.
        """
        if self._squares is None:
            found = {}
            for a in self.vertices:
                for b, d in combinations(sorted(self.adj[a]), 2):
                    for c in (self.adj[b] & self.adj[d]) - {a}:
                        found.setdefault(frozenset((a, b, c, d)), (a, b, c, d))
            self._squares = tuple(sorted(found.values()))
        return self._squares

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
        du, dv = self._dist[self.index[u]], self._dist[self.index[v]]
        on = np.flatnonzero(du + dv == du[self.index[v]]).tolist()
        return {self.vertices[w] for w in on}


def _distances(adjacent, start):
    """BFS distances from index start in a bool adjacency matrix, -1 if unreachable."""
    dist = np.full(len(adjacent), -1, dtype=np.int32)
    front, d = np.arange(len(adjacent)) == start, 0
    while front.any():
        dist[front] = d
        front = adjacent[front].any(axis=0) & (dist < 0)
        d += 1
    return dist


def _medians(d, i, j, k):
    """Indices of the vertices on geodesics between each pair of i, j, k."""
    on = (d[i] + d[j] == d[i, j]) & (d[j] + d[k] == d[j, k]) & (d[i] + d[k] == d[i, k])
    return np.flatnonzero(on).tolist()


def _not_median(X, *triple):
    """NotMedian for a triple of vertex indices of X, naming all its medians."""
    medians = _medians(X._dist, *triple)
    return NotMedian([X.vertices[t] for t in triple], [X.vertices[m] for m in medians])


def median_triple_defects(dist, first_only=True):
    """Triples (a, b, c) of indices whose median count differs from one.

    The n^3 scan, kept as the reference that the tests compare
    validate_complex and the ball closure with; no code of the package
    calls it, and it stays here because perfbench reports it as a layer.
    ``dist`` must be a symmetric integer distance matrix.
    Returns (a, b, c, median_indices) tuples; with first_only, stops at
    the first.
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

    A connected graph is median exactly when it is bipartite, its
    Djokovic-Winkler classes embed it isometrically in a cube (checked by
    compute_hyperplanes, whose classes stay on X), and the image is closed
    under majority (one round of the majority kernel on the rows of sides):
    then the proof of certified_complex applies.  Raises NotConnected, or
    NotMedian with a triple that has 0 or at least 2 medians.
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
    X = CubeComplex(vertices, edge_set, dist)
    # an edge ij inside one BFS layer: no vertex of ij is a median of (0, i, j)
    for i, j in np.argwhere(np.triu(A) & (dist[0][:, None] == dist[0]))[:1].tolist():
        raise _not_median(X, 0, i, j)
    # with an isometric embedding, a median must have the majority row
    rows = np.packbits(X.sides.T, axis=1)
    for _, triple in _majority_round(rows, 0, random.Random(0)):
        raise _not_median(X, *triple)
    return X


def hamming_distances(rows):
    """int32 popcount-XOR distances of packed 0/1 rows, one byte column at a time."""
    D = np.zeros((len(rows), len(rows)), dtype=np.int32)
    for col in rows.T:
        D += np.bitwise_count(col[:, None] ^ col)
    return D


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
    return CubeComplex(vertices, edges, dist)


def _ladder(d, a, b, u, v):
    """A triple with 0 or at least 2 medians in a connected bipartite graph.

    d is its distance matrix; the edge ab crosses the sides of the class of
    the edge uv, with a on u's side (W_xy = {w : d(w, x) < d(w, y)}), but
    W_ab != W_uv.  Proof: by parity d(a, v) = d(a, u) + 1 and d(b, u) =
    d(b, v) + 1, so the edge ab forces t = d(a, u) = d(b, v), and t > 0 as
    ab != uv.  A neighbour a' of a with d(a', u) = t - 1 has d(a', v) = t and
    d(a', b) = 2.  If (a', b, v) has one median m, adding its three geodesic
    equations gives d(a', m) = d(b, m) = 1 and d(m, v) = t - 1: a, b, m, a'
    is a 4-cycle, and a'm crosses with a' on u's side at t - 1.  If
    W_a'm = W_ab the walk goes on from a'm; it stops by t = 1, where
    a'm = uv.  Else some w lies in one of W_ab, W_a'm only.  If
    d(w, a) < d(w, b), parity gives d(w, m) = d(w, a) and d(w, a') =
    d(w, b) = d(w, a) + 1, so a and m are medians of (w, b, a'); if not,
    d(w, a') = d(w, b) = d(w, a) - 1 = d(w, m) - 1, so a' and b are medians
    of (w, a, m).
    """
    while True:
        a2 = int(np.flatnonzero((d[a] == 1) & (d[u] == d[a, u] - 1))[0])
        med = _medians(d, a2, b, v)
        if len(med) != 1:
            return a2, b, v
        m = med[0]
        for w in np.flatnonzero((d[a] < d[b]) != (d[a2] < d[m]))[:1].tolist():
            return (w, b, a2) if d[w, a] < d[w, b] else (w, a, m)
        a, b = a2, m


def compute_hyperplanes(X: CubeComplex):
    """Hyperplanes as the Djokovic-Winkler classes of the edges.

    The side of edge uv is W_uv = {w : d(w, u) < d(w, v)}; edges lie in one
    class when their sides agree up to complement.  Ids follow the classes'
    smallest sorted edges, and side_a is the side whose first vertex in
    X.vertices order has the smaller str.  Also fills X's side and carrier
    matrices (see CubeComplex.sides and .carriers), its edge map and its
    per-vertex id sets.  X must be connected and bipartite.

    Classes are found one at a time: the smallest edge uv in no class yet
    takes every edge crossing W_uv (in a bipartite graph every edge of its
    class does).  Unless all of them have the side W_uv, which makes the
    classes embed X isometrically in a cube, raises NotMedian at the first
    that does not, with a witness triple from _ladder; since a class is
    never empty, this also makes both sides non-empty.
    """
    n, D = len(X.vertices), X._dist
    edges = sorted(tuple(sorted(e)) for e in X.edges)
    eu = np.array([X.index[u] for u, _ in edges], dtype=np.intp)
    ev = np.array([X.index[v] for _, v in edges], dtype=np.intp)

    def sides(es):  # W_uv of the edges es, complemented to hold vertex 0
        W = D[eu[es]] < D[ev[es]]
        return W == W[:, :1]

    step = max(1, _CELLS // n)  # sides compared at once
    label = np.full(len(edges), -1, dtype=np.intp)
    starts, rows, classes = [], [], []  # each class's first edge, side and edges

    def check(h0, h1):  # in class order, every edge of h0..h1-1 has its class's side
        R = np.array(rows[h0:h1])
        hs = np.repeat(np.arange(h1 - h0), [len(es) for es in classes[h0:h1]])
        fs = np.concatenate(classes[h0:h1])
        for p0 in range(0, len(fs), step):
            bad = (sides(fs[p0:p0 + step]) != R[hs[p0:p0 + step]]).any(axis=1)
            for p in (p0 + np.flatnonzero(bad))[:1].tolist():
                a, b, e = eu[fs[p]], ev[fs[p]], starts[h0 + hs[p]]
                u, v = eu[e], ev[e]
                if D[a, u] > D[a, v]:
                    u, v = v, u
                raise _not_median(X, *_ladder(D, a, b, u, v))

    h0 = unchecked = 0
    for e in range(len(edges)):
        if label[e] >= 0:
            continue
        W = D[eu[e]] < D[ev[e]]
        row = W == W[0]
        members = (row[eu] != row[ev]).nonzero()[0]
        label[members] = len(rows)
        starts.append(e)
        rows.append(row)
        classes.append(members)
        unchecked += len(members)
        if unchecked >= step:
            check(h0, len(rows))
            h0, unchecked = len(rows), 0
    if unchecked:
        check(h0, len(rows))
    H, A = len(rows), np.array(rows, dtype=bool).reshape(-1, n)
    # swap to the other side where its first vertex has the smaller str
    first_off = np.argmin(A, axis=1).tolist()
    flip = [str(X.vertices[i]) < str(X.vertices[0]) for i in first_off]
    A ^= np.array(flip, dtype=bool).reshape(H, 1)
    K = np.zeros((H, n), dtype=bool)
    K[label, eu] = True
    K[label, ev] = True

    hyperplanes = []
    sides_a, sides_b = _true_columns(A), _true_columns(~A)
    for h, (es, side_a, side_b) in enumerate(zip(classes, sides_a, sides_b)):
        dual = frozenset(frozenset(edges[e]) for e in es.tolist())
        hyperplanes.append(Hyperplane(
            h,
            dual,
            frozenset(X.vertices[i] for i in side_a),
            frozenset(X.vertices[i] for i in side_b),
            frozenset(v for e in dual for v in e),
        ))
    X._sides, X._carriers = A, K
    X._edge_to_h = {
        frozenset(edges[e]): hyperplanes[h] for e, h in enumerate(label.tolist())
    }
    X._ids_at = tuple(map(frozenset, _true_columns(K.T)))
    return tuple(hyperplanes)


def _true_columns(M):
    """The column indices of the True entries of each row of M, as lists."""
    cols, ends = M.nonzero()[1].tolist(), np.cumsum(M.sum(axis=1)).tolist()
    return [cols[i:j] for i, j in zip([0] + ends, ends)]


def _reserve(nbytes, what):
    """Raise SizeLimitExceeded, before allocating, if nbytes is over _ALLOC_LIMIT."""
    if nbytes > _ALLOC_LIMIT:
        raise SizeLimitExceeded(
            f"{what} needs about {nbytes} bytes, over the limit of {_ALLOC_LIMIT}"
        )


def _interval_tensor(X: CubeComplex):
    """T[u, v, w] == True iff w lies on a geodesic from u to v."""
    t = getattr(X, "_itensor", None)
    if t is None:
        n = len(X.vertices)
        # an int32 sum, then the bools
        _reserve(5 * n ** 3, f"the interval tensor of {n} vertices")
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
    counts = M.astype(np.float32) @ M.astype(np.float32).T
    P = counts > 0  # pairwise intersection

    I, J = np.argwhere(np.triu(P, k=1)).T.copy()  # the intersecting pairs i < j
    # float32 R and G, and about six bool matrices of pairs x pairs at once
    _reserve(len(I) * (4 * n + 10 * len(I)), f"the Helly check of {len(I)} pairs")
    R = (M[I] & M[J]).astype(np.float32)
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
    return sorted({tuple(sorted({I[a], J[a], I[b], J[b]})) for a, b in bad})


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


def _apexes(nodes, neighbours):
    """The nodes adjacent to every other node, in the given order.

    neighbours maps each node to the set of its neighbours among nodes.
    """
    others = len(nodes) - 1
    return [v for v in nodes if len(neighbours[v]) == others]


def is_cone(nodes, adjacency):
    """Whether some node is adjacent to all others; returns (bool, apex).

    The empty graph counts as a (vacuous) cone with no apex.
    """
    if not nodes:
        return True, None
    neigh = {v: set() for v in nodes}
    for e in adjacency:
        u, v = tuple(e)
        neigh[u].add(v)
        neigh[v].add(u)
    apex = _apexes(sorted(neigh, key=str), neigh)[:1]
    return (True, apex[0]) if apex else (False, None)


def is_extremal(X: CubeComplex, v):
    """Whether the link of v is a cone with an apex (so not the empty link)."""
    lk = link_graph(X, v)
    return is_cone(lk.nodes, lk.adjacency)[1] is not None


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
    edges = {
        (dual_edge_id(e1), dual_edge_id(e2))
        for a, b, c, d in X.squares
        for e1, e2 in (((a, b), (c, d)), ((b, c), (d, a)))
        if {frozenset(e1), frozenset(e2)} <= h.dual_edges
    }
    return validate_complex(sorted(dual_edge_id(e) for e in h.dual_edges), edges)


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

_GRIDS = {  # vertices are digit strings, joined at L1 distance 1
    "EDGE": ["0", "1"],
    "SQUARE": ["00", "01", "10", "11"],
    "Q3": [f"{i:03b}" for i in range(8)],
    "PATH3": ["0", "1", "2", "3"],
    "DOMINO": [f"{x}{y}" for x in range(3) for y in range(2)],  # 2x1 squares
}


def builtin_complex(name) -> CubeComplex:
    name = name.upper()
    if name == "TRIPOD":
        leaves = ["l1", "l2", "l3"]
        return validate_complex(["c", *leaves], [("c", leaf) for leaf in leaves])
    if name not in _GRIDS:
        raise KeyError(f"unknown builtin complex {name!r}")
    verts = _GRIDS[name]
    return validate_complex(verts, [
        (u, v) for u, v in combinations(verts, 2)
        if sum(abs(int(a) - int(b)) for a, b in zip(u, v)) == 1
    ])


BUILTIN_COMPLEXES = ("EDGE", "SQUARE", "Q3", "PATH3", "TRIPOD", "DOMINO")


# ---------------------------------------------------------------------------
# Serialization

def complex_to_json(X: CubeComplex) -> dict:
    return {
        "vertices": [str(v) for v in X.vertices],
        "edges": sorted(sorted(map(str, e)) for e in X.edges),
    }


def complex_from_json(doc) -> CubeComplex:
    for e in doc["edges"]:
        if not (isinstance(e, list) and len(e) == 2
                and all(isinstance(v, (str, int, float)) for v in e)):
            raise ValueError(f"edge {e!r} is not a list of two vertex names")
    return validate_complex(doc["vertices"], doc["edges"])


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

