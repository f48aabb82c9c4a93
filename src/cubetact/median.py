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
from functools import cache, cached_property
from itertools import chain, combinations

import numpy as np

from .errors import (
    HyperplaneNotPreserved,
    NotAnAutomorphism,
    NotConnected,
    NotMedian,
    SizeLimitExceeded,
    UnknownHyperplane,
    UnknownVertex,
)

DEFAULT_VERTEX_CAP = 4096
_CELLS = 1 << 18  # cells per block: quadrangle, convexity, Helly checks, BFS
_ALLOC_LIMIT = 1 << 30  # bytes: a larger single allocation raises SizeLimitExceeded


def vertex_cap() -> int:
    """CUBETACT_CAP_VERTICES if it is set and not empty, else
    DEFAULT_VERTEX_CAP.  Raises ValueError, naming the variable, unless it
    is a decimal integer >= 1 (surrounding blanks are ignored)."""
    env = os.environ.get("CUBETACT_CAP_VERTICES") or str(DEFAULT_VERTEX_CAP)
    if not env.strip().isdecimal() or int(env) < 1:
        raise ValueError(f"CUBETACT_CAP_VERTICES must be an integer >= 1, not {env!r}")
    return int(env)


@dataclass(frozen=True)
class LinkGraph:
    """Hyperplanes adjacent to a vertex, joined when they span a square there."""

    base_vertex: object
    nodes: frozenset  # hyperplane ids
    adjacency: frozenset  # frozensets {h1, h2}


class CubeComplex:
    """Immutable container for a validated median graph and its derived data.

    Use :func:`validate_complex` or :func:`certified_complex` to construct one;
    the constructor itself takes index pairs into X.vertices and only checks
    that each joins two distinct indices in range(n) (ValueError), not the
    median property.  The skeleton is stored once, as X.edges: the
    read-only (m, 2) intp array of the index pairs, each with the smaller
    name first, rows in sorted-name order.  The constructor orients,
    dedupes and sorts the given pairs in one pass, and takes X.edges itself.
    X.adjacency, the squares and the hyperplanes are read from it.

    Derived data are cached properties, computed on first access.  Two
    caches are instead attributes filled by a module-level function, which
    tests replace and a traced run wraps by its module name:
    compute_hyperplanes fills the three hyperplane slots together, and
    contact._relation fills _relation.
    """

    def __init__(self, vertices, edges, dist, squares=None):
        self.vertices = V = tuple(vertices)
        self.index = {v: i for i, v in enumerate(V)}
        named = set()
        for i, j in edges.tolist() if isinstance(edges, np.ndarray) else edges:
            if not (0 <= i < len(V) and 0 <= j < len(V)):
                raise ValueError(f"edge {[i, j]} has an index outside range({len(V)})")
            if i == j:
                raise ValueError(f"self-loop at {V[i]!r}; the graph must be simple")
            named.add((V[i], V[j], i, j) if V[i] < V[j] else (V[j], V[i], j, i))
        # sorted, the names decide, as distinct edges have distinct name pairs
        flat = chain.from_iterable(e[2:] for e in sorted(named))
        self.edges = _frozen(np.fromiter(flat, np.intp, 2 * len(named)).reshape(-1, 2))
        self._dist = dist  # numpy (n, n) int matrix, indexed like self.vertices
        if squares is not None:
            self.squares = _frozen(np.array(squares, dtype=np.intp).reshape(-1, 4))
        # hyperplane matrices and edge labels, filled by compute_hyperplanes
        self._sides = None
        self._carriers = None
        self._edge_label = None
        self._relation = None  # contact.py's hyperplane-pair relation

    def __len__(self):
        return len(self.vertices)

    def __repr__(self):
        return (
            f"CubeComplex({len(self.vertices)} vertices, {len(self.edges)} edges, "
            f"{len(self.squares)} squares)"
        )

    @cached_property
    def adjacency(self):
        """The read-only (n, n) bool adjacency matrix of the skeleton, indexed
        like X.vertices, built from X.edges."""
        A = np.zeros((len(self.vertices),) * 2, dtype=bool)
        i, j = self.edges.T
        A[i, j] = A[j, i] = True
        return _frozen(A)

    @cached_property
    def pair_table(self):
        """The distance-2 pair table (vw, common): two (p, 2) index arrays.

        Row r of vw is a pair v < w with a common neighbour, row r of common
        its first and last common neighbour (equal if it has one), in the
        order of the pairs' first 2-paths.  Built once by _pair_table, from
        X.adjacency."""
        return _pair_table(self)

    @cached_property
    def squares(self):
        """The read-only (s, 4) intp array of the 4-cycles, each row the
        indices (a, b, c, d) in cycle order: edges ab, bc, cd, da.

        Each is a pair b < d of the pair table with two common neighbours
        a < c.  It is read from the one of its two pairs whose common
        neighbours hold its first vertex, in table order; the graph is
        bipartite, so no square has a chord.
        """
        vw, common = self.pair_table
        at = (common[:, 0] != common[:, 1]) & (common[:, 0] < vw[:, 0])
        return _frozen(np.hstack((common, vw))[at][:, [0, 2, 1, 3]])

    def check_vertex(self, v):
        """The index of v; raises UnknownVertex if v is not a vertex."""
        if v not in self.index:
            raise UnknownVertex(v)
        return self.index[v]

    def d(self, u, v):
        return int(self._dist[self.check_vertex(u), self.check_vertex(v)])

    def _theta(self):
        if self._sides is None:
            compute_hyperplanes(self)

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

    @cached_property
    def ids_at(self):
        """W: W[i] is the frozenset of ids of the hyperplanes at vertices[i],
        read off the columns of the carriers."""
        return tuple(map(frozenset, _true_columns(self.carriers.T)))

    @property
    def edge_labels(self):
        """(X.edges, label): label is the intp array whose entry e is the id
        of the hyperplane dual to edge e."""
        self._theta()
        return self.edges, self._edge_label

    def check_hyperplane(self, hid):
        """hid as an int; raises UnknownHyperplane unless hid is an int or a
        numpy integer, not a bool, in range(H)."""
        if (isinstance(hid, bool) or not isinstance(hid, (int, np.integer))
                or not 0 <= hid < len(self.sides)):
            raise UnknownHyperplane(hid)
        return int(hid)

    def hyperplane_of_edge(self, u, v):
        """The id of the hyperplane dual to the edge uv, as an int: the one
        row of sides parting u and v.  Raises UnknownHyperplane unless uv is
        an edge."""
        i, j = self.index.get(u), self.index.get(v)
        if i is None or j is None or not self.adjacency[i, j]:
            raise UnknownHyperplane((u, v))
        A = self.sides
        return int(np.argmax(A[:, i] != A[:, j]))

    @cached_property
    def dimension(self):
        """Largest family of pairwise-transverse hyperplanes.

        Pairwise-transverse hyperplanes all cross one cube, so this is also
        the largest such family at one vertex.
        """
        from .contact import _relation
        from .reconstruction import maximal_cliques

        return max(map(len, maximal_cliques(_relation(self).transverse)), default=0)

    def geodesic_vertices(self, u, v):
        """All vertices on some geodesic between u and v (the interval)."""
        iu, iv = self.check_vertex(u), self.check_vertex(v)
        du, dv = self._dist[iu], self._dist[iv]
        on = np.flatnonzero(du + dv == du[iv]).tolist()
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


def _all_distances(adjacent):
    """All-pairs BFS distances in a bool adjacency matrix, -1 if unreachable.

    Bit-parallel multi-source BFS (Then et al., The more the merrier:
    efficient multi-source graph traversal, PVLDB 8(4), 2014): the sources
    go in blocks of whole uint64 words, and bit t of a vertex's packed
    column says that source t of the block has reached it.  One level step
    ORs each vertex's column with its neighbours' (np.bitwise_or.reduceat
    over the directed edges and a self-loop per vertex); the bits it adds
    are the vertices at the next distance, written into the int32 result,
    column t for source t, as distances are symmetric.  A block's gathered
    columns take about _CELLS bytes, and no level's columns are kept.
    """
    n = len(adjacent)
    x, y = np.nonzero(adjacent | np.eye(n, dtype=bool))  # x -> y, sorted by x
    starts = np.searchsorted(x, np.arange(n))  # each vertex's first edge
    dist = np.full((n, n), -1, dtype=np.int32)
    words = min(-(-n // 64), max(1, _CELLS // (8 * len(y))))  # per column
    for s0 in range(0, n, 64 * words):
        b = min(64 * words, n - s0)
        eye = np.eye(n, 64 * words, -s0, dtype=bool)  # source s0 + t at bit t
        seen = front = np.packbits(eye, axis=1).view(np.uint64)
        cols, d = dist[:, s0:s0 + b], 0
        while front.any():
            cols[np.unpackbits(front.view(np.uint8), axis=1, count=b).view(bool)] = d
            front = np.bitwise_or.reduceat(seen[y], starts, axis=0)
            seen, front = front, front ^ seen
            d += 1
    return dist


def _not_median(X, triple, rows):
    """NotMedian for a triple (i, j, k) of vertex indices of X, naming all
    its medians: the vertices on geodesics between each pair.  rows are the
    BFS distance rows of i, j and k."""
    (i, j, k), (di, dj, dk) = triple, rows
    on = (di + dj == di[j]) & (dj + dk == dj[k]) & (di + dk == di[k])
    return NotMedian([X.vertices[t] for t in triple],
                     [X.vertices[m] for m in np.flatnonzero(on).tolist()])


def _pair_table(X):
    """X.pair_table, from the adjacency matrix A of X.

    Each sorted arc c -> v of A is repeated once per later neighbour w of
    c, listing the 2-paths v - c - w (v < w) by c, v, w.  A stable argsort
    of the key v n + w groups them by pair, centres increasing; the pairs
    then follow their first 2-paths.  A third centre is a K_{2,3} (see
    validate_complex): NotMedian names the first three centres of the pair
    whose third 2-path comes first, with the vertices adjacent to all three
    as medians."""
    A = X.adjacency
    (x, y), n, V = np.nonzero(A), len(A), X.vertices
    later = np.searchsorted(x, x, "right") - np.arange(len(x)) - 1
    P = int(later.sum())  # the sum of C(deg c, 2)
    # 8-byte words: 3 a 2-path (arc, key, order); 11 a pair, at most one a 2-path
    # (4 returned, 3 index arrays, 4 temporaries); 8 an arc (x, y, later, temporaries)
    _reserve(8 * (14 * P + 8 * len(x)), f"the pair table of {P} 2-paths")
    arc = np.repeat(np.arange(len(x)), later)  # the arc c -> v of each 2-path
    key = y[arc] * n  # plus w, whose arc follows c -> v by the 2-path's rank
    key += y[np.arange(1, P + 1) + np.repeat(np.arange(len(x)) + later - np.cumsum(later), later)]
    order = np.argsort(key, kind="stable")
    key = key[order]
    third = np.flatnonzero(key[2:] == key[:-2]) + 2  # each pair's 2-paths from its third on
    for t in third[np.argsort(order[third])][:1].tolist():
        triple = x[arc[order[t - 2:t + 1]]]
        raise NotMedian([V[i] for i in triple.tolist()],
                        [V[i] for i in np.flatnonzero(A[triple].all(axis=0)).tolist()])
    # each pair's first 2-path (none if P = 0), then P
    cut = np.flatnonzero(np.concatenate(([P > 0], key[1:] != key[:-1], [True])))
    span = np.array((cut[:-1], cut[1:] - 1)).T[np.argsort(order[cut[:-1]])]
    return key[span[:, 0], None] // [n, 1] % n, x[arc[order[span]]]  # v, w = divmod(key, n)


def median_triple_defects(dist, first_only=True):
    """Triples (a, b, c) of indices whose median count differs from one.

    The n^3 scan, kept as the reference that the tests compare
    validate_complex's local certificate and the ball closure with; no
    code of the package calls it, and it stays here because perfbench
    reports it as a layer.
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


def validate_complex(vertices, edges) -> CubeComplex:
    """Check that the given graph is a finite connected median graph.

    Theorem (Mulder, The interval function of a graph, 1980; Bandelt and
    Chepoi, Metric graph theory and geometry: a survey, 2008): a connected
    graph is median exactly when
      (1) it is bipartite,
      (2) no two vertices have three common neighbours (no K_{2,3}: in a
          bipartite graph every K_{2,3} is induced), and
      (3) it satisfies the quadrangle condition: if d(u, v) = d(u, w) = k
          and v, w have a common neighbour at distance k + 1 from u, they
          also have one at distance k - 1.
    (1) and (3) give every triple (u, v, w) a median.  Let x in I(v, w) be
    nearest to u, k = d(u, x).  Induction on d(x, z) shows d(u, z) = k +
    d(x, z) for z in I(x, v), which lies in I(v, w): at d(x, z) = 1 by the
    choice of x and parity; if d(x, z) = j + 1 and d(u, z) = k + j - 1, a
    geodesic z, z1, z0, ... to x and (3) for (u, z0, z) give y ~ z0, z with
    d(u, y) = k + j - 2, yet y in I(x, v) is at j from x.  So x is in
    I(u, v), likewise in I(u, w).  (2) makes the median unique (modular
    graphs without K_{2,3}, in the sources above).

    The edges are pairs of names, mapped to indices here and nowhere else,
    in input order: the first unknown name or self-loop raises.

    Checks the three in that order: (1) on the BFS layers from vertex 0,
    which also show that the graph is connected; (2) while building
    X.pair_table; (3) on its pairs (the first of _quadrangle_failures),
    against the all-pairs distances of the bit-parallel BFS _all_distances,
    which become X._dist.  The all-pairs distances come last because their
    level step reads every edge once per level and source block: a bipartite
    graph without K_{2,3} has O(n^{3/2}) edges (Kovari-Sos-Turan), so dense
    non-median input is refused by (1) or (2) before it gets there.
    Raises NotConnected, or NotMedian with a triple that has 0 or at least
    2 medians:
      (1) an edge ij inside one BFS layer from vertex 0: a median of
          (0, i, j) is i or j, and neither lies between 0 and the other;
      (2) three common neighbours c1, c2, c3 of a pair a, b: they are
          pairwise at distance 2 through a, so their medians are their
          common neighbours, a and b among them (a median lies in each
          I(ci, cj), which is ci, cj and their common neighbours, and is
          no ci, as d(cj, ci) + d(ci, ck) = 4);
      (3) u, v, w breaking the quadrangle condition: a median lies in
          I(v, w), which is v, w and their common neighbours; v is not in
          I(u, w), as d(u, w) = k, nor w in I(u, v), and a common neighbour
          m is in I(u, v) only if d(u, m) = k - 1, which none is.
    """
    vertices = list(dict.fromkeys(vertices))
    if not vertices:
        raise NotConnected("empty graph")
    cap = vertex_cap()
    if len(vertices) > cap:
        raise SizeLimitExceeded(f"{len(vertices)} vertices exceeds cap {cap}")
    index, pairs = {v: i for i, v in enumerate(vertices)}, []
    for e in edges:  # names to indices, in input order
        u, v = tuple(e)
        if u not in index or v not in index:
            raise UnknownVertex(e)
        if index[u] == index[v]:
            raise ValueError(f"self-loop at {u!r}; the graph must be simple")
        pairs.append((index[u], index[v]))
    X = CubeComplex(vertices, pairs, None)  # X._dist is set by step (3)
    A = X.adjacency
    d0 = _distances(A, 0)
    if (d0 < 0).any():
        raise NotConnected("graph is not connected")
    for i, j in np.argwhere(np.triu(A) & (d0[:, None] == d0))[:1].tolist():
        raise _not_median(X, (0, i, j), (d0, _distances(A, i), _distances(A, j)))
    X.pair_table  # raises at a K_{2,3}
    X._dist = _all_distances(A)
    bad = next(_quadrangle_failures(X), None)
    if bad:
        raise _not_median(X, bad, X._dist[list(bad)])
    return X


def _quadrangle_failures(X: CubeComplex):
    """Yield the index triples (u, v, w) of X breaking the quadrangle
    condition: for each pair (v, w) of X.pair_table that breaks it, in
    table order, the first u.

    (v, w) breaks it for u when d(u, v) = d(u, w) and every common neighbour
    is farther from u (in a bipartite graph they are at d(u, v) + 1, none at
    d(u, v) - 1).  Pairs are checked against the distance rows in blocks of
    about _CELLS cells.
    """
    dist, (vw, common) = X._dist, X.pair_table
    step = max(1, _CELLS // len(dist))
    for p0 in range(0, len(vw), step):  # rows: pairs vw; columns: vertices u
        dv, dw = dist[vw[p0:p0 + step, 0]], dist[vw[p0:p0 + step, 1]]
        c = common[p0:p0 + step]
        bad = (dv == dw) & (dist[c[:, 0]] > dv) & (dist[c[:, 1]] > dv)
        first = bad.argmax(axis=1).tolist()
        for p in np.flatnonzero(bad.any(axis=1)).tolist():
            yield (first[p], *vw[p0 + p].tolist())


def hamming_distances(rows):
    """int32 popcount-XOR distances of packed 0/1 rows, one byte column at a time."""
    D = np.zeros((len(rows), len(rows)), dtype=np.int32)
    for col in rows.T:
        D += np.bitwise_count(col[:, None] ^ col)
    return D


def _repair_quadrangles(rows, cap):
    """Close distinct packed 0/1 rows (as np.packbits gives) under bitwise
    majority by repairing quadrangles; the result is the closure when its
    Hamming-1 graph G is connected, which certified_complex checks.

    Each round adds maj(u, v, w) for every failure (u, v, w) of the
    quadrangle condition in G with the Hamming metric D
    (_quadrangle_failures).  As d(u, v) = d(u, w), u agrees with v in one of
    the two coordinates where v and w differ and with w in the other, so
    maj(u, v, w) is the common neighbour of v and w in the cube nearer to u:
    a new row, adjacent to two rows, and the same for every u failing with
    v, w.  So a round adds a row and keeps connected rows connected.

    Lemma: if G is connected without a failure, each v != u has a neighbour
    nearer to u.  Along a shortest path v = x_0, ..., x_L = u of G, d(u, .)
    moves by one a step.  If it rises at x_1, then at its first local
    maximum x_i the quadrangle condition for x_i-1, x_i+1 gives a common
    neighbour y two steps nearer to u; swapping y in for x_i keeps a
    shortest path and lowers the sum of the distances, so the swaps end
    with a fall at x_1.  By induction G has metric D, so G is median
    (validate_complex: it is bipartite, and rows at distance 2 share at
    most the two rows between them), and the median of rows a, b, c, on
    cube geodesics between each pair, is maj(a, b, c).  So the rows are
    closed, and as every added row is a majority, they are the closure.
    The lemma needs G connected: {110, 101, 011} has no edge, hence no
    failure, and misses 111.

    Returns (closed, D, witnesses): closed starts with rows, D is its
    hamming_distances, and its row len(rows) + t is the majority of rows
    witnesses[t] = (u, v, w).  Raises SizeLimitExceeded past cap rows.
    """
    witnesses = []
    while True:
        D = hamming_distances(rows)
        G = CubeComplex(range(len(rows)), np.argwhere(np.triu(D == 1)), D)
        new = {}  # row bytes -> witness
        for u, v, w in _quadrangle_failures(G):
            maj = (rows[u] & rows[v]) | (rows[w] & (rows[u] | rows[v]))
            new.setdefault(maj.tobytes(), (u, v, w))
        if not new:
            return rows, D, witnesses
        if len(rows) + len(new) > cap:
            raise SizeLimitExceeded(f"majority closure exceeds {cap} vertices")
        added = np.frombuffer(b"".join(new), np.uint8).reshape(len(new), rows.shape[1])
        rows = np.vstack([rows, added])
        witnesses += new.values()


def _descends(A, dist):
    """Whether every row but row 0 has an A-neighbour one step nearer to row
    0 in dist, for distinct rows with metric dist and Hamming-1 graph A.

    Then A is connected: from any row, the steps down dist[0] end at
    distance 0, at row 0.  The converse holds for majority-closed rows
    (certified_complex's proof, with v = row 0) and for
    _repair_quadrangles output with no quadrangle failure (its lemma), so
    for both it is exactly the test of connectivity, in one O(n^2) step.
    certified_complex runs it on the balls' repaired rows only.
    """
    r = dist[:1]  # distances from row 0, as a row; none on no rows
    return bool((A & (r == r.T - 1)).any(axis=1)[1:].all())


def certified_complex(vertices, dist) -> CubeComplex:
    """The complex on distinct majority-closed 0/1 rows, without the n^3 scan.

    dist is the hamming_distances of such rows, vertices name them in order.
    The edges are the pairs at Hamming distance 1, read off dist; raises
    NotConnected unless they connect the rows.  Then the graph is median
    with metric dist.  Proof: for rows u != v take a path
    u = x_0, ..., x_L = v.  Each y_i = maj(u, v, x_i) is a row (the rows are
    closed) in the cube interval [u, v], and y_i, y_i+1 differ at most where
    x_i, x_i+1 do, so the first y_i != u is a neighbour of u one step nearer
    to v.  Induction on the Hamming distance d(u, v) gives a path of length
    d(u, v), and none is shorter.  So maj(a, b, c) lies on geodesics between
    each pair of a, b, c, and any vertex that does agrees with it in every
    coordinate: medians exist and are unique.

    The rows come from build_ball's _repair_quadrangles, closed if
    connected.  Connectivity is checked by _descends, which decides it
    there; connected rows that are not closed may be refused as not
    connected.  random_median_complex rests on the same proof, but checks
    the connectivity of its closed codes by a BFS of its own.
    """
    A = dist == 1
    if not _descends(A, dist):
        raise NotConnected("the Hamming-1 graph of the rows is not connected")
    return CubeComplex(vertices, np.argwhere(np.triu(A)), dist)


def compute_hyperplanes(X: CubeComplex):
    """Hyperplanes as the Djokovic-Winkler classes of the edges.

    The side of edge uv is W_uv = {w : d(w, u) < d(w, v)}; edges lie in one
    class when their sides agree up to complement.  Ids follow the classes'
    smallest edges in X.edges order, and side_a is the side whose first
    vertex in X.vertices order has the smaller str.  Fills X's side and
    carrier matrices (see CubeComplex.sides and .carriers) and its edge
    labels, and returns the side matrix, one row per hyperplane.

    X must be median, as validate_complex and certified_complex make sure.
    Classes are found one at a time: the smallest edge uv in no class yet
    takes every edge crossing W_uv.  In a median graph these are exactly
    the edges of its class, each with the side W_uv, and the classes embed
    X isometrically in a cube.
    """
    n, D = len(X.vertices), X._dist
    eu, ev = X.edges.T  # in the order of the sorted name pairs
    label = np.full(len(eu), -1, dtype=np.intp)
    rows = []  # each class's side, the one holding vertex 0
    for e in range(len(eu)):
        if label[e] >= 0:
            continue
        W = D[eu[e]] < D[ev[e]]
        row = W == W[0]
        label[row[eu] != row[ev]] = len(rows)
        rows.append(row)
    H, A = len(rows), np.array(rows, dtype=bool).reshape(-1, n)
    # swap to the other side where its first vertex has the smaller str
    first_off = np.argmin(A, axis=1).tolist()
    flip = [str(X.vertices[i]) < str(X.vertices[0]) for i in first_off]
    A ^= np.array(flip, dtype=bool).reshape(H, 1)
    K = np.zeros((H, n), dtype=bool)
    K[label, eu] = True
    K[label, ev] = True
    X._sides, X._carriers, X._edge_label = A, K, label
    return A


def _dual_edges(X: CubeComplex):
    """The edges dual to each hyperplane, in id order: lists of the (u, v)
    name tuples of the rows of X.edge_labels, in their order (one stable
    argsort of the labels)."""
    (ends, label), V = X.edge_labels, X.vertices
    named = [(V[u], V[v]) for u, v in ends[np.argsort(label, kind="stable")].tolist()]
    cuts = np.cumsum(np.bincount(label, minlength=len(X.sides))).tolist()
    return [named[i:j] for i, j in zip([0] + cuts, cuts)]


def _hyperplane_map(X: CubeComplex, g):
    """The hyperplane map of a partial vertex map g (a dict of vertices of X):
    h -> the hyperplane that the images of h's dual edges cross, for each h
    with a dual edge whose two ends lie in g's domain.  The image
    hyperplanes of all those edges are read at once, each the one row of
    sides parting its image's ends, as in hyperplane_of_edge.

    Raises NotAnAutomorphism at the first such edge, in X.edge_labels
    order, that g sends to a non-edge, then HyperplaneNotPreserved at the
    least h whose edges cross several hyperplanes.
    """
    (ends, label), V, index = X.edge_labels, X.vertices, X.index
    image = np.full(len(V), -1, dtype=np.intp)
    image[[index[u] for u in g]] = [index[w] for w in g.values()]
    to = image[ends]
    inside = np.flatnonzero((to >= 0).all(axis=1))
    if not len(inside):  # no argmax over an empty axis, as on one vertex
        return {}
    a, b = to[inside].T
    for e in inside[~X.adjacency[a, b]][:1].tolist():
        raise NotAnAutomorphism(f"edge {[V[i] for i in ends[e].tolist()]} maps to a non-edge")
    A = X.sides
    crossed = np.argmax(A[:, a] != A[:, b], axis=0)
    # the distinct (h, image) pairs, sorted, as the keys h * H + image
    h, crossed = np.divmod(np.unique(label[inside] * len(A) + crossed), len(A))
    for k in np.flatnonzero(h[1:] == h[:-1])[:1].tolist():
        raise HyperplaneNotPreserved(
            f"hyperplane {h[k]} maps to several hyperplanes {crossed[h == h[k]].tolist()}")
    return dict(zip(h.tolist(), crossed.tolist()))


def _true_columns(M):
    """The column indices of the True entries of each row of M, as lists."""
    return _runs(M.nonzero()[1].tolist(), M.sum(axis=1))


def _true_slices(M, labels=None):
    """The column indices of the True entries of each row of M, or the
    entries of the 1-d array labels at them, as slices of one array."""
    cols = M.nonzero()[1]
    return _runs(cols if labels is None else labels[cols], M.sum(axis=1))


def _runs(a, lengths):
    """a (a list or an array) cut into consecutive slices of the given lengths."""
    cuts = np.cumsum(lengths).tolist()
    return [a[i:j] for i, j in zip([0] + cuts, cuts)]


def _bit_columns(B):
    """The columns of the bool matrix B, whose rows come in whole words of
    64, as rows of uint64 words: row t of B at bit t in np.packbits order."""
    return np.packbits(np.ascontiguousarray(B.T), axis=1).view(np.uint64)


def _frozen(a):
    """a, made read-only."""
    a.flags.writeable = False
    return a


def _reserve(nbytes, what):
    """Raise SizeLimitExceeded, before allocating, if nbytes is over _ALLOC_LIMIT."""
    if nbytes > _ALLOC_LIMIT:
        raise SizeLimitExceeded(
            f"{what} needs about {nbytes} bytes, over the limit of {_ALLOC_LIMIT}"
        )


def _family_rows(X: CubeComplex):
    """side_a, side_b and carrier of each hyperplane in turn, as (3H, n) bool rows."""
    return np.stack([X.sides, ~X.sides, X.carriers], axis=1).reshape(-1, len(X.vertices))


def _nonconvex(X: CubeComplex, M):
    """Which rows of the (m, n) bool matrix M are not convex vertex sets of X.

    Local-to-global convexity (Mulder, The interval function of a graph,
    1980; Bandelt and Chepoi, Metric graph theory and geometry: a survey,
    2008): in a median graph, a connected set is convex iff it contains
    I(v, w), that is v, w and their common neighbours, for each of its pairs
    v, w at distance 2.  A set S with first vertex r is connected when each
    other s in S has a neighbour in S nearer to r, and a convex S has one, on
    a geodesic from s to r.  So S is convex iff it passes both checks: the
    descent on the edges and the pairs of X.pair_table.  Rows are checked
    in blocks of about _CELLS (row, edge or pair) cells.
    """
    D, (vw, common) = X._dist, X.pair_table
    x, y = np.nonzero(X.adjacency)  # directed edges x -> y, sorted by x
    starts = np.flatnonzero(np.diff(x, prepend=-1))  # each vertex's first edge
    bad = np.zeros(len(M), dtype=bool)
    step = max(1, _CELLS // max(1, len(x) + len(vw)))
    for s0 in range(0, len(M), step):
        S = M[s0:s0 + step]
        if len(x):
            Dr = D[S.argmax(axis=1)]  # distances from each set's first vertex
            down = np.logical_or.reduceat(S[:, y] & (Dr[:, y] < Dr[:, x]), starts, axis=1)
            bad[s0:s0 + step] = (S & ~down & (Dr > 0)).any(axis=1)
        inside = S[:, common[:, 0]] & S[:, common[:, 1]]
        bad[s0:s0 + step] |= (S[:, vw[:, 0]] & S[:, vw[:, 1]] & ~inside).any(axis=1)
    return bad


def is_convex_set(X: CubeComplex, vertices):
    """Whether a vertex set is geodesically convex (interval-closed)."""
    row = np.zeros((1, len(X.vertices)), dtype=bool)
    row[0, [X.check_vertex(v) for v in vertices]] = True
    return not _nonconvex(X, row)[0]


def convexity_check(X: CubeComplex):
    """Halfspaces and carriers must all be convex; returns violation list."""
    bad = _nonconvex(X, _family_rows(X)).reshape(-1, 3)
    names = ("sideA", "sideB", "carrier")
    return [{"hyperplane": h, "set": names[k]} for h, k in np.argwhere(bad).tolist()]


def helly_check(X: CubeComplex, family=None):
    """4-wise Helly property over halfspaces and carriers.

    Any four pairwise-intersecting sets of the family must share a vertex.
    A violating quadruple splits into two pairs whose intersections are
    disjoint, so it is enough to compare the p intersecting pairs i < j of
    sets: pairs a = (I_a, J_a) and b are bad when R_a = M_{I_a} & M_{J_a}
    and R_b share no vertex, the four cross pairs of sets intersect and the
    four indices are distinct.

    The comparison runs on bits: pair b is bit b of a row of W = ceil(p /
    64) uint64 words, and the bits from p on are zero.  Q[v] has bit a when
    vertex v lies in R_a, and PM[x] has bit b when set x meets both sets of
    pair b and is neither of them.  For a pair a,
      - covered_a, the OR of Q[v] over v in R_a, has bit b exactly when
        some v lies in R_a and in R_b, and
      - PM[I_a] & PM[J_a] has bit b exactly when I_a and J_a each meet
        I_b and J_b and neither is I_b or J_b: the four cross pairs
        intersect, and the indices are distinct as I_a < J_a, I_b < J_b,
    so the bits of PM[I_a] & PM[J_a] & ~covered_a are the pairs bad with a.
    Pairs a0 <= a < a1 go in one block, whose gathered words Q[v] (one
    np.bitwise_or.reduceat over the vertices of R) take about _CELLS bytes.
    A block reads the words from a0 // 64 on only, since (b, a) repeats
    (a, b), and unpacks only its rows with a set bit.  Returns the sorted
    quadruples (i, j, k, l) of family indices, as ints, i < j < k < l.

    Raises SizeLimitExceeded before R is built: when the p x p comparison
    exceeds _ALLOC_LIMIT cells, or the arrays exceed _ALLOC_LIMIT bytes,
    the quadruples found aside.
    """
    n = len(X.vertices)
    if family is None:
        M = _family_rows(X)
    else:
        M = np.zeros((len(family), n), dtype=bool)
        for i, s in enumerate(family):
            M[i, [X.check_vertex(v) for v in s]] = True
    Mf = M.astype(np.float32)
    P = Mf @ Mf.T > 0  # pairwise intersection
    I, J = np.nonzero(np.triu(P, k=1))  # the intersecting pairs i < j
    p, m, W = len(I), len(M), -(-len(I) // 64)
    if p * p > _ALLOC_LIMIT:
        raise SizeLimitExceeded(
            f"the Helly check of {p} pairs compares {p * p} cells, "
            f"over the limit of {_ALLOC_LIMIT}"
        )
    # M, its float32 copy and P; R and PM as bool rows, each with a copy and
    # its packed words; I, J and the row starts; one block with its temporaries
    _reserve(5 * m * (n + m) + 144 * W * (n + m) + 64 * p + 16 * max(_CELLS, 8 * W * n),
             f"the Helly check of {p} pairs")
    R = np.zeros((64 * W, n), dtype=bool)  # rows p and on stay empty
    R[:p] = M[I]
    R[:p] &= M[J]
    PM = np.zeros((64 * W, m), dtype=bool)  # PM.T, before packing
    PM[:p] = P[I]
    PM[:p] &= P[J]
    PM[np.arange(p), I] = PM[np.arange(p), J] = False
    Q, PM = _bit_columns(R), _bit_columns(PM)
    starts = np.concatenate(([0], np.cumsum(R[:p].sum(axis=1))))  # R's nonzeros before row a
    found, a0 = set(), 0
    while a0 < p:
        w0, s0 = a0 // 64, starts[a0]
        a1 = int(np.searchsorted(starts, s0 + _CELLS // (8 * (W - w0)), "right")) - 1
        a1 = max(a0 + 1, a1)
        v = np.nonzero(R[a0:a1])[1]
        covered = np.bitwise_or.reduceat(Q[v, w0:], starts[a0:a1] - s0, axis=0)
        bad = PM[I[a0:a1], w0:] & PM[J[a0:a1], w0:] & ~covered
        rows = np.flatnonzero(bad.any(axis=1))
        if len(rows):
            a, t = np.nonzero(np.unpackbits(bad[rows].view(np.uint8), axis=1))
            a, b = a0 + rows[a], 64 * w0 + t
            quads = np.sort([I[a], J[a], I[b], J[b]], axis=0)
            found.update(map(tuple, quads.T.tolist()))
        a0 = a1
    return sorted(found)


def hyperplanes_at(X: CubeComplex, v):
    """The set W_v of ids of hyperplanes whose carrier contains v: column v of K."""
    return set(X.ids_at[X.check_vertex(v)])


def separating(X: CubeComplex, A, B):
    """Hyperplanes with A entirely on one side and B entirely on the other:
    the rows of sides true on all of A's columns and none of B's, or the
    reverse."""
    a, b = (X.sides[:, [X.check_vertex(v) for v in set(S)]] for S in (A, B))
    apart = (a.all(axis=1) & ~b.any(axis=1)) | (~a.any(axis=1) & b.all(axis=1))
    return set(np.flatnonzero(apart).tolist())


def link_graph(X: CubeComplex, v) -> LinkGraph:
    """Hyperplanes at v, joined when their edges at v span a square.

    Two neighbours of v span a square there when they are a pair of
    X.pair_table with v and a second common neighbour.
    """
    nodes, i = hyperplanes_at(X, v), X.index[v]
    vw, common = X.pair_table
    at = (common[:, 0] != common[:, 1]) & (common == i).any(axis=1)
    # the pairs b, d of neighbours spanning a square at v; edge v b crosses
    # the row of sides parting v and b
    spans, A = vw[at], X.sides
    crossed = np.argmax(A[:, spans.ravel()] != A[:, [i]], axis=0) if len(spans) else spans
    adjacency = frozenset(map(frozenset, crossed.reshape(-1, 2).tolist()))
    return LinkGraph(v, frozenset(nodes), adjacency)


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


def extremality(X: CubeComplex):
    """Whether the link of each vertex v is a cone with an apex: its nodes
    are the edges at v (one per hyperplane at v) and its edges the squares
    at v, at most one per pair (no K_{2,3}), so an edge is an apex iff it
    lies in deg(v) - 1 squares at v.  Degree 1 qualifies, degree 0 does not.

    A row of X.pair_table with two distinct common neighbours c0, c1 of its
    pair v, w is the square v c0 w c1, and puts it on the arcs c -> v and
    c -> w for c = c0, c1; its other pair c0, c1 puts it on the other four,
    so the squares at each arc are counted by one bincount over the arcs'
    sorted keys.
    """
    n, (vw, common) = len(X.vertices), X.pair_table
    tail, head = np.nonzero(X.adjacency)  # the arcs, sorted by tail n + head
    sq = common[:, 0] != common[:, 1]
    keys = common[sq][:, [0, 0, 1, 1]] * n + vw[sq][:, [0, 1, 0, 1]]
    count = np.bincount(np.searchsorted(tail * n + head, keys.ravel()), minlength=len(tail))
    apex = count == np.bincount(tail, minlength=n)[tail] - 1
    extremal = np.zeros(n, dtype=bool)
    extremal[tail[apex]] = True
    return dict(zip(X.vertices, extremal.tolist()))


def is_extremal(X: CubeComplex, v):
    """Whether the link of v is a cone with an apex (so not the empty link)."""
    X.check_vertex(v)
    return extremality(X)[v]


def dual_edge_id(e):
    """Stable vertex id for a dual edge, used in hyperplane subcomplexes: its
    two names in str order, each with "\\" and "|" escaped by a "\\",
    joined by "|"; so distinct edges get distinct ids."""
    return "|".join(str(v).replace("\\", "\\\\").replace("|", "\\|") for v in sorted(e, key=str))


def hyperplane_complex(X: CubeComplex, hid) -> CubeComplex:
    """The cubical structure induced on a hyperplane.

    Vertices are the dual edges, named by dual_edge_id; two are joined when
    they are opposite in a square of X (its edges ab and cd, or bc and da).
    """
    h, V, S = X.check_hyperplane(hid), X.vertices, X.squares
    side = X.sides[h][S]  # each square's corners' sides of h
    # the squares as rows (a, b, c, d) whose edges ab and cd cross h
    S = np.vstack((S[side[:, 0] != side[:, 1]], np.roll(S, -1, axis=1)[side[:, 1] != side[:, 2]]))
    edges = [(dual_edge_id((V[a], V[b])), dual_edge_id((V[c], V[d]))) for a, b, c, d in S.tolist()]
    return validate_complex(sorted(map(dual_edge_id, _dual_edges(X)[h])), edges)


@cache
def _pair_keys(dim):
    """The read-only (2^dim, T) uint16 table of _projection_closure, for the
    T coordinate pairs i <= j of dim bits: [x, t] is 4 t + 2 x_i + x_j, the
    pair t and the projection (x_i, x_j) of the code x, top bit first.
    Built on the first call for each dim, then read."""
    cube = np.arange(2 ** dim)[:, None] >> np.arange(dim)[::-1] & 1  # [x, i]: x_i
    i, j = np.triu_indices(dim)
    return _frozen((4 * np.arange(len(i)) + 2 * cube[:, i] + cube[:, j]).astype(np.uint16))


def _projection_closure(codes, dim):
    """The majority closure of distinct dim-bit codes: the sorted codes x
    with (x_i, x_j) in {(s_i, s_j) : s in codes} for all i, j (Baker and
    Pixley 1975; the bijunctive relations of Schaefer 1978).

    Proof.  A binary Boolean relation is majority-closed (the majority of
    three pairs agrees in each coordinate with two of them, and two such
    twos share a pair), so the closure C keeps the codes' projections.  If
    x has them, x agrees with a point of C on any k coordinates, by
    induction: for k >= 3 and three of them, i1, i2, i3, the majority of
    points of C agreeing with x on all k but i1, i2, i3 in turn agrees with
    x on all k.  The pairs i <= j suffice, as (x_j, x_i) mirrors (x_i, x_j).
    All 2^dim codes are tested at once against the seen projections, read
    through the table _pair_keys(dim).
    """
    keys = _pair_keys(dim)
    seen = np.zeros(4 * keys.shape[1], dtype=bool)
    seen[keys[codes]] = True
    return np.flatnonzero(seen[keys].all(axis=1))


def _component(start, index, bits):
    """The set of codes of index reached from the code start by flipping
    one of bits at a time, staying inside index: a BFS on the Hamming-1
    graph of the codes."""
    seen, front = {start}, [start]
    for c in front:
        for bit in bits:
            if (d := c ^ bit) in index and d not in seen:
                seen.add(d)
                front.append(d)
    return seen


def random_median_complex(ambient_dim, seed_count, rng_seed) -> CubeComplex:
    """Majority closure of random 0/1-vectors inside the hypercube.

    The codes close in one step (_projection_closure; the bound of 12 also
    bounds its 2^ambient_dim table), and are then held as sorted Python
    ints.  A BFS over bit flips inside the code set, from the first code
    (_component), decides whether their Hamming-1 graph is connected.  A
    closed set can still be disconnected (two antipodal seeds, say).  Then
    a second BFS, from the first code that the first one missed, gives a
    second component.  The closest pair (p, q), p in the first component
    and q in the second, first in string order, is bridged by a bit-flip
    path, and the codes are closed again.

    Certificate: the codes are closed (the projection theorem) and the BFS
    shows them connected, so by certified_complex's proof their Hamming-1
    graph is median with metric hamming_distances.  Its edges are the
    pairs (i, j), j > i, with codes[j] = codes[i] ^ bit, and the draw hands
    them to the constructor itself.  Deterministic per rng_seed: each
    point is ambient_dim rng.randint(0, 1) bits, top bit first.
    """
    if not 1 <= ambient_dim <= 12:
        raise ValueError(f"ambient_dim must be in 1..12, got {ambient_dim}")
    if seed_count < 1:
        raise ValueError("seed_count must be >= 1")
    cap = vertex_cap()
    rng = random.Random(rng_seed)
    points = set()
    while len(points) < min(seed_count, 2 ** ambient_dim):
        code = 0
        for _ in range(ambient_dim):
            code = 2 * code + rng.randint(0, 1)
        points.add(code)

    bits = [1 << k for k in reversed(range(ambient_dim))]  # top bit first
    codes = list(points)
    while True:
        codes = _projection_closure(codes, ambient_dim).tolist()
        if len(codes) > cap:
            raise SizeLimitExceeded(f"majority closure exceeds {cap} vertices")
        index = {c: i for i, c in enumerate(codes)}
        near = _component(codes[0], index, bits)
        if len(near) == len(codes):
            break
        far = _component(next(c for c in codes if c not in near), index, bits)
        a, b = np.array(sorted(near)), np.array(sorted(far))
        i, j = divmod(int(np.bitwise_count(a[:, None] ^ b).argmin()), len(b))
        p, q = int(a[i]), int(b[j])
        for bit in bits:  # flip the differing coordinates in ascending order, keeping each step
            if (p ^ q) & bit:
                p ^= bit
                codes.append(p)
    edges = [(i, j) for i, c in enumerate(codes) for bit in bits
             if (j := index.get(c ^ bit, -1)) > i]
    return CubeComplex([format(c, f"0{ambient_dim}b") for c in codes],
                       np.array(edges, dtype=np.intp).reshape(-1, 2),
                       hamming_distances(np.array(codes)[:, None]))


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
    """X as a document of lists: the vertex names in vertex order, and the
    edges as name pairs, each pair and the pairs in str order."""
    return {key: a.tolist() for key, a in _complex_arrays(X).items()}


def _complex_arrays(X: CubeComplex) -> dict:
    """complex_to_json's document, with object arrays of str for lists."""
    named, order = _sorted_names(X)
    return {"vertices": named[np.argsort(order)], "edges": _named_edges(X, named, order)}


def _sorted_names(X: CubeComplex):
    """(named, order): the str names of X's vertices in str order, as an
    object array, and the intp array order, named[k] = str(vertices[order[k]])."""
    names = [str(v) for v in X.vertices]
    order = sorted(range(len(names)), key=names.__getitem__)
    return np.array([names[i] for i in order], dtype=object), np.array(order, dtype=np.intp)


def _named_edges(X: CubeComplex, named, order, *keys):
    """X's edges as the (m, 2) rows of their ends' names from _sorted_names,
    each row in str order, and the rows sorted by keys (arrays over the
    edges, the last the most significant), then by their names."""
    rank = np.empty(len(order), dtype=np.intp)
    rank[order] = np.arange(len(order))
    ranked = np.sort(rank[X.edges], axis=1)
    return named[ranked[np.lexsort((ranked[:, 1], ranked[:, 0], *keys))]]


def _document_lists(doc):
    """The vertices and edges of a JSON document, which must be an object
    holding both as lists (else ValueError)."""
    if isinstance(doc, dict) and all(isinstance(doc.get(k), list) for k in ("vertices", "edges")):
        return doc["vertices"], doc["edges"]
    raise ValueError("the document must be an object with 'vertices' and 'edges' lists")


def _name_kind(v):
    """str or float for a vertex name that is a string or a number, else None;
    a bool is no name, since True == 1 would merge two vertices."""
    if isinstance(v, str):
        return str
    return float if isinstance(v, (int, float)) and not isinstance(v, bool) else None


def complex_from_json(doc) -> CubeComplex:
    """The complex of a document {"vertices": [...], "edges": [[u, v], ...]}.

    Raises ValueError unless the vertex names are all strings or all
    numbers, which sort, and each edge is a list of two such names."""
    vertices, edges = _document_lists(doc)
    kinds = set(map(_name_kind, vertices))
    if None in kinds or len(kinds) > 1:
        raise ValueError("the vertex names must be all strings or all numbers")
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2 and all(map(_name_kind, e))):
            raise ValueError(f"edge {e!r} is not a list of two vertex names")
    return validate_complex(vertices, edges)


def hyperplane_report(X: CubeComplex) -> list:
    """Each hyperplane's id, dual edges, sides and carrier, with the vertex
    names as object arrays of str in str order: "edges" is (k, 2), each row
    and the rows in str order, and "sideA", "sideB" and "carrier" are 1-d.

    The vertex names are sorted once; the edges are cut from one
    _named_edges, sorted by hyperplane first, and the sides and carriers
    from one gather each, with the matrices read in the names' order.
    """
    named, order = _sorted_names(X)
    (_, label), H = X.edge_labels, len(X.sides)
    A, K = X.sides[:, order], X.carriers[:, order]
    rows = zip(_runs(_named_edges(X, named, order, label), np.bincount(label, minlength=H)),
               *(_true_slices(M, named) for M in (A, ~A, K)))
    return [
        {"id": h, "edges": edges, "sideA": side_a, "sideB": side_b, "carrier": carrier}
        for h, (edges, side_a, side_b, carrier) in enumerate(rows)
    ]


def _dot_id(v):
    """v's name as a quoted DOT ID, with "\\" and '"' escaped."""
    return '"' + str(v).replace("\\", "\\\\").replace('"', '\\"') + '"'


def complex_to_dot(X: CubeComplex) -> str:
    (ends, label), ids = X.edge_labels, [_dot_id(v) for v in X.vertices]
    lines = ["graph skeleton {", *(f"  {v};" for v in ids)]
    lines += [f'  {ids[u]} -- {ids[v]} [label="{h}"];'
              for (u, v), h in zip(ends.tolist(), label.tolist())]
    return "\n".join(lines + ["}"]) + "\n"

