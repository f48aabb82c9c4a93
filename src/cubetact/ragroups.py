"""Balls in universal covers of Salvetti (RAAG) and Davis (RACG) complexes.

A defining graph picks a right-angled group; balls are generated by BFS over
normal forms, yielding a labelled median complex on which hyperplane labels,
star-inclusion structure, extension-graph truncations and the explicit exotic
automorphisms can be computed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import contact as _contact
from . import median as _median
from .errors import (
    BallTooSmall,
    GeneratorsAdjacent,
    NotACone,
    NotInterior,
    SizeLimitExceeded,
    StarNotContained,
    UnknownGenerator,
    UnknownVertex,
)

ARTIN = "artin"
COXETER = "coxeter"


class DefiningGraph:
    """A finite simple graph whose vertices are group generators; each edge
    is a list or tuple of two of them."""

    def __init__(self, vertices, edges):
        vertices = tuple(vertices)
        for g in vertices:  # format_word and parse_word read "1", "." and "^"
            if not isinstance(g, str) or g in ("", "1") or "." in g or "^" in g:
                raise ValueError(f"generator name {g!r} is not a non-empty string "
                                 'other than "1" and without "." or "^"')
        self.vertices = tuple(dict.fromkeys(vertices))
        self.order = {g: i for i, g in enumerate(self.vertices)}
        self.adj = {g: set() for g in self.vertices}
        for e in edges:
            if not (isinstance(e, (list, tuple)) and len(e) == 2
                    and all(isinstance(g, str) for g in e)):
                raise ValueError(f"edge {e!r} is not a list of two generator names")
            u, v = e
            for g in [g for g in e if g not in self.order][:1]:
                raise UnknownGenerator(f"edge {e!r} names the unknown generator {g!r}")
            if u == v:
                raise ValueError(f"self-loop at {u!r}")
            self.adj[u].add(v)
            self.adj[v].add(u)
        self.edges = frozenset(
            frozenset((u, v)) for u in self.adj for v in self.adj[u]
        )

    def check_generator(self, g):
        if g not in self.order:
            raise UnknownGenerator(g)

    def commute(self, g, h):
        return h in self.adj[g]

    def lk(self, g):
        self.check_generator(g)
        return set(self.adj[g])

    def st(self, g):
        return self.lk(g) | {g}

    def join_decomposition(self):
        """Split off the vertices adjacent to everything else.

        Returns (clique_part, rest); the rest is never a cone.
        """
        clique = tuple(_median._apexes(self.vertices, self.adj))
        rest = tuple(g for g in self.vertices if g not in clique)
        return clique, rest

    def is_cone(self):
        return bool(self.join_decomposition()[0])


def builtin_defining_graph(name) -> DefiningGraph:
    name = name.upper()
    if name == "P4":
        return DefiningGraph("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
    if name == "C5":
        return DefiningGraph(
            "abcde",
            [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")],
        )
    if name == "STAR_EQ5":
        # a-b joined to the non-adjacent pair c, d; e attached to c and d.
        # St a = St b = {a, b, c, d}.
        return DefiningGraph(
            "abcde",
            [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
             ("c", "e"), ("d", "e")],
        )
    if name == "F2":
        return DefiningGraph("xy", [])
    if name == "EDGE2":
        return DefiningGraph("xy", [("x", "y")])
    if name == "SINGLE":
        return DefiningGraph("x", [])
    raise KeyError(f"unknown builtin defining graph {name!r}")


BUILTIN_GRAPHS = ("P4", "C5", "STAR_EQ5", "F2", "EDGE2", "SINGLE")


def graph_from_json(doc) -> DefiningGraph:
    vertices, edges = _median._document_lists(doc)
    return DefiningGraph(vertices, edges)


def graph_to_json(gamma: DefiningGraph) -> dict:
    return {
        "vertices": list(gamma.vertices),
        "edges": sorted(sorted(e) for e in gamma.edges),
    }


# ---------------------------------------------------------------------------
# Normal forms
#
# Words are tuples of syllables (generator, exponent).  Coxeter exponents are
# always 1.  The normal form of an element is the ShortLex-least word for it
# under the defining graph's vertex order.  Reduction pushes one syllable at a
# time: it merges with the last same-generator syllable reachable across
# commuting syllables, or else goes in after the last syllable it does not
# commute with, before the first later one whose generator comes after its
# own, so that each product is built canonical.

def _push(gamma, kind, sylls, g, e):
    """Multiply the normal form sylls by g^e in place, keeping it normal.

    The scan from the right stops at j, one past the last syllable with
    generator g or not commuting with g.  With no merge, (g, e) goes in at
    the first place t >= j whose generator comes after g, or at the end.

    Lemma: the normal form is the greedy linearization of its syllables,
    which at each step takes the available syllable with the least
    generator.  The appended syllable x is maximal, and all its
    predecessors lie before j, so the greedy order repeats the old word
    until x is available and then takes x before the first later syllable
    with a larger generator.  A cancelled syllable was maximal too, so
    deleting it keeps the order; a merge keeps the generator.
    """
    if kind == COXETER:
        e = e % 2
    if e == 0:
        return
    j = len(sylls)
    while j > 0:
        h, f = sylls[j - 1]
        if h == g:
            merged = (f + e) % 2 if kind == COXETER else f + e
            if merged == 0:
                del sylls[j - 1]
            else:
                sylls[j - 1] = (g, merged)
            return
        if not gamma.commute(h, g):
            break
        j -= 1
    rank = gamma.order[g]
    while j < len(sylls) and gamma.order[sylls[j][0]] < rank:
        j += 1
    sylls.insert(j, (g, e))


def normal_form(gamma: DefiningGraph, kind, word):
    """Canonical form of a word given as (generator, exponent) pairs.

    Two words represent the same group element iff their normal forms agree.
    """
    return nf_mult(gamma, kind, (), word)


def _check_kind(kind):
    if kind not in (ARTIN, COXETER):
        raise ValueError(f"kind must be {ARTIN!r} or {COXETER!r}")


def nf_mult(gamma, kind, w1, w2):
    """Normal form of w1 times w2, for a normal form w1 and any word w2."""
    _check_kind(kind)
    sylls = list(w1)
    for g, e in w2:
        gamma.check_generator(g)
        if kind == COXETER:
            _push(gamma, kind, sylls, g, e)
        else:
            for _ in range(abs(e)):
                _push(gamma, kind, sylls, g, 1 if e > 0 else -1)
    return tuple(sylls)


def nf_inverse(kind, w):
    _check_kind(kind)
    if kind == COXETER:
        return tuple(reversed(w))
    return tuple((g, -e) for g, e in reversed(w))


def word_length(kind, w):
    _check_kind(kind)
    if kind == COXETER:
        return len(w)
    return sum(abs(e) for _, e in w)


def format_word(w):
    if not w:
        return "1"
    parts = []
    for g, e in w:
        parts.append(g if e == 1 else f"{g}^{e}")
    return ".".join(parts)


def parse_word(text):
    """Inverse of format_word: 'a.b^-2' -> ((a,1),(b,-2))."""
    if text in ("", "1"):
        return ()
    out = []
    for tok in text.split("."):
        if "^" in tok:
            g, e = tok.split("^")
            out.append((g, int(e)))
        else:
            out.append((tok, 1))
    return tuple(out)


def initial_letters(gamma, kind, w):
    """Letters that can start some word representing w."""
    _check_kind(kind)
    out = set()
    for i, (g, e) in enumerate(w):
        if all(h != g and gamma.commute(h, g) for h, _ in w[:i]):
            out.add((g, 1 if kind == COXETER else (1 if e > 0 else -1)))
    return out


def ambient_median(gamma, kind, x, y, z):
    """Median of three group elements in the Cayley graph.

    Equals x times the longest common prefix (under commutation moves) of
    x^-1 y and x^-1 z.
    """
    u = normal_form(gamma, kind, nf_inverse(kind, x) + y)
    v = normal_form(gamma, kind, nf_inverse(kind, x) + z)
    m = x
    while True:
        common = initial_letters(gamma, kind, u) & initial_letters(gamma, kind, v)
        if not common:
            return m
        g, s = min(common, key=lambda le: (gamma.order[le[0]], le[1]))
        step = ((g, s),)
        inv_step = ((g, -s),) if kind == ARTIN else step
        m = nf_mult(gamma, kind, m, step)
        u = nf_mult(gamma, kind, inv_step, u)
        v = nf_mult(gamma, kind, inv_step, v)


def _walls(gamma, kind, w):
    """Yield the keys of the walls that the normal-form path from 1 to w crosses.

    The edge from q to q.g (g positive in artin groups) is dual to the wall
    (g, shortest element of q<lk g>) (Davis, ch. 4; Charney).  A coxeter
    path only leaves q where q.g is longer, so q<lk g> there names the same
    wall as q<st g> would.  The shortest element drops from q, right to left,
    each syllable in lk g that commutes with every kept one after it; the
    key holds its normal form.
    """
    prefix = ()
    for g, e in w:
        lk = gamma.lk(g)
        for k in range(min(e, 0), max(e, 0)):  # the edge leaving q = prefix.g^k
            kept = []
            for h, f in reversed(prefix + ((g, k),) if k else prefix):
                if h not in lk or not all(gamma.commute(h, x) for x, _ in kept):
                    kept.append((h, f))
            yield g, normal_form(gamma, kind, kept[::-1])
        prefix += ((g, e),)


def median_closure(gamma, kind, elements, cap):
    """Close a set of group elements under triple medians.

    Word-metric balls need not be median-closed (commuting clusters push
    medians past the radius).  An element's row marks the walls separating
    it from 1, so ambient distance is Hamming distance and the median is
    majority.  median._repair_quadrangles closes the rows, connected in a
    ball, and ambient_median names each new row from its witness triple.
    Returns (elements, D, rows, walls): the closure in (length, format)
    order, its ambient distance matrix, its packed rows (as np.packbits
    gives) in the same order, and walls, the key of each row column, as
    _walls yields them.
    """
    def shortlex(w):
        return word_length(kind, w), format_word(w)

    elems = sorted(set(elements), key=shortlex)
    column = {}
    walls = [[column.setdefault(k, len(column)) for k in _walls(gamma, kind, w)]
             for w in elems]
    rows = np.zeros((len(elems), len(column)), dtype=bool)
    for i, cols in enumerate(walls):
        rows[i, cols] = True
    rows, D, witnesses = _median._repair_quadrangles(np.packbits(rows, axis=1), cap)
    for triple in witnesses:
        elems.append(ambient_median(gamma, kind, *(elems[i] for i in triple)))
    order = sorted(range(len(elems)), key=lambda i: shortlex(elems[i]))
    return [elems[i] for i in order], D[np.ix_(order, order)], rows[order], list(column)


# ---------------------------------------------------------------------------
# Balls

@dataclass(frozen=True)
class Ball:
    gamma: DefiningGraph
    kind: str
    radius: int
    complex: _median.CubeComplex
    words: dict  # vertex id -> normal form
    labels: dict  # hyperplane id -> generator, the label of each of its dual edges
    depth: dict  # vertex id -> radius - word length

    @property
    def basepoint(self):
        return "1"

    def word(self, vid):
        if vid not in self.words:
            raise UnknownVertex(vid)
        return self.words[vid]

    def vertex_of_word(self, w):
        vid = format_word(w)
        if vid not in self.words:
            raise UnknownVertex(vid)
        return vid

    def interior_vertices(self, margin):
        return {v for v, d in self.depth.items() if d >= margin}

    def interior_hyperplanes(self, margin):
        """Hyperplanes with a dual edge whose endpoints both sit at depth >= margin."""
        ends, label = self.complex.edge_labels
        deep = np.array([self.depth[v] >= margin for v in self.complex.vertices], dtype=bool)
        return set(label[deep[ends].all(axis=1)].tolist())


def _letters(gamma, kind):
    if kind == COXETER:
        return [(g, 1) for g in gamma.vertices]
    return [(g, e) for g in gamma.vertices for e in (1, -1)]


def build_ball(gamma: DefiningGraph, kind, radius) -> Ball:
    """BFS over normal forms up to the given word length, median-closed.

    median_closure adds the missing medians, and the complex is
    median.certified_complex on the closed wall rows: its edges are the
    pairs of rows at Hamming distance 1.  Each edge crosses the one wall in
    whose column its rows differ, and its generator is the wall's, so the
    label of hyperplane h is read off the column of its first dual edge.
    The ball holds at most vertex_cap() elements.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    cap = _median.vertex_cap()
    letters = _letters(gamma, kind)
    words, queue = {()}, deque([()])
    while queue:  # a letter moves a word one step, so one at the radius adds none
        w = queue.popleft()
        if word_length(kind, w) == radius:
            continue
        for letter in letters:
            w2 = nf_mult(gamma, kind, w, (letter,))
            if w2 not in words:
                if len(words) >= cap:
                    raise SizeLimitExceeded(f"ball exceeds {cap} vertices")
                words.add(w2)
                queue.append(w2)

    ids, ambient_dist, rows, walls = median_closure(gamma, kind, words, cap)
    vid_words = {format_word(w): w for w in ids}
    X = _median.certified_complex(list(vid_words), ambient_dist)
    ends, label = X.edge_labels
    a, b = ends[np.unique(label, return_index=True)[1]].T
    cols = np.nonzero(np.unpackbits(rows[a] ^ rows[b], axis=1))[1]
    labels = {h: walls[c][0] for h, c in enumerate(cols.tolist())}
    depth = {
        vid: radius - word_length(kind, w) for vid, w in vid_words.items()
    }
    return Ball(gamma, kind, radius, X, vid_words, labels, depth)


def ball_to_json(ball: Ball) -> dict:
    doc = _median.complex_to_json(ball.complex)
    doc["kind"] = ball.kind
    doc["radius"] = ball.radius
    doc["graph"] = graph_to_json(ball.gamma)
    doc["labels"] = {str(h): g for h, g in sorted(ball.labels.items())}
    doc["depth"] = {v: d for v, d in sorted(ball.depth.items())}
    return doc


# ---------------------------------------------------------------------------
# Star inclusions and interaction sets on Davis balls

def definitional_I(X, hid):
    """I(w): hyperplane ids adjacent to every carrier vertex of w."""
    return set(np.flatnonzero(_contact._relation(X).I[:, X.check_hyperplane(hid)]).tolist())


def star_inclusion_I_check(ball: Ball, margin=2) -> dict:
    """Compare I and I0 of deep hyperplanes against the star-containment formulas.

    For an interior hyperplane w, I(w) should equal the set of hyperplanes u
    whose carrier meets w's with St(label w) contained in St(label u) in the
    defining graph, and I0(w) the subset with equal stars.
    """
    if ball.kind != COXETER:
        raise ValueError("star-inclusion analysis applies to coxeter balls")
    X = ball.complex
    interior = ball.interior_hyperplanes(margin)
    report = {"margin": margin, "hyperplanes": {}, "mismatches": []}
    rel = _contact._relation(X)
    meets = rel.contact | np.eye(len(X.sides), dtype=bool)
    # column w of I is I(w), and of I & I.T, I0(w)
    I, I0 = _median._true_columns(rel.I.T), _median._true_columns(rel.I & rel.I.T)
    for w in sorted(interior):
        st_w = ball.gamma.st(ball.labels[w])
        formula_I = {
            u
            for u in np.flatnonzero(meets[w]).tolist()
            if st_w <= ball.gamma.st(ball.labels[u])
        }
        formula_I0 = {
            u for u in formula_I if st_w == ball.gamma.st(ball.labels[u])
        }
        entry = {
            "label": ball.labels[w],
            "I": I[w],
            "I0": I0[w],
            "formula_I": sorted(formula_I),
            "formula_I0": sorted(formula_I0),
        }
        report["hyperplanes"][w] = entry
        if entry["I"] != entry["formula_I"] or entry["I0"] != entry["formula_I0"]:
            report["mismatches"].append(w)
    return report


# ---------------------------------------------------------------------------
# Runs of same-label edges: the syllable metric and the extension graph
#
# The g-labelled edges of a ball are the pairs {v, v.g}, so at most two
# meet at v (to v.g and v.g^-1, consecutive on the line v<g>; one in a
# coxeter ball, where g^2 = 1).  A component of them is a run of ball
# vertices along one coset line: what a walk from v by powers of g reaches
# before it first leaves the ball.

def _components(pairs):
    """Classes, as lists, of the equivalence relation that the pairs
    generate on the elements they name; a pair (a, a) names a alone."""
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        parent[find(a)] = find(b)
    classes = {}
    for x in parent:
        classes.setdefault(find(x), []).append(x)
    return list(classes.values())


def _syllable_graph(ball: Ball):
    """The bool adjacency matrix of the syllable graph, indexed like
    ball.complex.vertices: each vertex is joined to the other vertices of
    the runs through it."""
    ends, label = ball.complex.edge_labels
    M = np.zeros((len(ball.complex.vertices),) * 2, dtype=bool)
    labels = [ball.labels[h] for h in label.tolist()]
    for run in _components(((u, g), (w, g)) for (u, w), g in zip(ends.tolist(), labels)):
        k = [v for v, _ in run]
        M[np.ix_(k, k)] = True
    np.fill_diagonal(M, False)
    return M


def syllable_distance(ball: Ball, x, y) -> int:
    """BFS distance in the syllable graph on ball vertices.

    Vertices are adjacent when they differ by a power of a single generator
    g and lie on one g-run inside the ball: every vertex between them on
    their coset line is a ball vertex too.  This is an upper bound for the
    true syllable metric: a shorter path through vertices outside the ball
    cannot be seen here.

    Every vertex is reached: each edge of the ball's skeleton lies on a run
    of its label, so the syllable graph holds the skeleton, which is
    connected.
    """
    x, y = (v if isinstance(v, str) else format_word(v) for v in (x, y))
    X = ball.complex  # its vertices are the ids of ball.words
    return int(_median._distances(_syllable_graph(ball), X.check_vertex(x))[X.check_vertex(y)])


def _segment_classes(ball: Ball):
    """Parallelism classes of standard segments in an artin ball.

    A standard segment is a maximal single-label geodesic piece of a coset
    g<x> inside the ball, that is, a run.  Two segments sharing a
    hyperplane are parallel (the dual edges of a hyperplane all bound
    parallel copies of the same coset line), so a class is a component of
    the hyperplanes under "dual to the two g-edges at one vertex", which
    chains the hyperplanes of each run.  Returns a sorted list of (label,
    frozenset of hyperplane ids).

    The classes partition the hyperplanes, and every hyperplane of a class
    is labelled g: a pair joins two g-edges, and an edge's generator is
    its hyperplane's label, that of the one wall the edge crosses.
    """
    at = {}  # (vertex index, label) -> hyperplanes of the edges with that label
    ends, label = ball.complex.edge_labels
    for (u, v), h in zip(ends.tolist(), label.tolist()):
        at.setdefault((u, ball.labels[h]), []).append(h)
        at.setdefault((v, ball.labels[h]), []).append(h)
    classes = _components((hs[0], hs[-1]) for hs in at.values())
    return sorted(((ball.labels[c[0]], frozenset(c)) for c in classes),
                  key=lambda it: (it[0], sorted(it[1])))


def interior_reduced_classes(ball: Ball, margin=2):
    """Reduced crossing classes computed on interior hyperplanes only.

    Neighborhoods are taken inside the interior crossing graph, excluding the
    compared pair, mirroring the self-exclusive reduction.
    """
    interior = sorted(ball.interior_hyperplanes(margin))
    T = _contact._relation(ball.complex).transverse[np.ix_(interior, interior)]
    return [frozenset(cls)
            for cls in _contact._reduced_classes(T, "self-exclusive", interior)]


def extension_graph_ball(ball: Ball, margin=None) -> dict:
    """Truncated extension graph of an artin ball, compared against the
    interior reduced crossing graph.

    Vertices are parallelism classes of standard segments; two classes are
    joined when every interior hyperplane of one is transverse to every
    interior hyperplane of the other inside the ball.  The comparison
    restricts both sides to interior hyperplanes and is skipped when two
    defining-graph vertices share a link (the lemma's precondition).

    Both graphs join two interior classes by that one predicate on the
    transverse relation, so when the interior cores of the segment classes
    are the reduced classes, the edges agree too: the graphs are isomorphic
    (by the identity on classes) exactly when the partitions are equal.
    """
    if ball.kind != ARTIN:
        raise ValueError("the extension graph lives on artin balls")
    if margin is None:
        margin = max(0, min(2, ball.radius - 1))
    equal_links = [
        (a, b)
        for a, b in combinations(ball.gamma.vertices, 2)
        if ball.gamma.lk(a) == ball.gamma.lk(b)
    ]
    T = _contact._relation(ball.complex).transverse
    interior = ball.interior_hyperplanes(margin)
    classes_seg = _segment_classes(ball)
    verts = [cls for _, cls in classes_seg]
    labels = {cls: g for g, cls in classes_seg}
    cores = {cls: sorted(cls & interior) for cls in verts}
    edges = {
        frozenset((c1, c2))
        for c1, c2 in combinations([cls for cls in verts if cores[cls]], 2)
        if T[np.ix_(cores[c1], cores[c2])].all()
    }

    out = {
        "margin": margin,
        "vertices": verts,
        "labels": labels,
        "edges": edges,
    }
    if equal_links:
        out["comparison"] = {
            "skipped": f"vertices with equal links: {equal_links}"
        }
        return out

    reduced_classes = interior_reduced_classes(ball, margin)
    same = sorted(filter(None, cores.values())) == sorted(map(sorted, reduced_classes))
    out["comparison"] = {
        "classes": reduced_classes,
        "same_partition": same,
        "isomorphic": same,
    }
    return out


# ---------------------------------------------------------------------------
# Exotic automorphisms

def _invert_generator(gamma, word, y):
    """The automorphism y -> y^-1 of the artin group, on normal forms."""
    return normal_form(
        gamma, ARTIN, [(g, -e if g == y else e) for g, e in word]
    )


@dataclass(frozen=True)
class HalfspaceTwist:
    perm: dict  # vertex id -> vertex id, an automorphism checked by the twist suite
    hyperplane: int  # the x-labeled hyperplane w at the identity
    side: str  # which side of w plays the role of h
    moved: tuple  # vertices with perm(v) != v


def halfspace_twist(ball: Ball, x, y, side="A") -> HalfspaceTwist:
    """Piecewise automorphism: identity beyond an x-hyperplane at the
    identity, generator inversion y -> y^-1 on the chosen side.

    The two pieces agree on the hyperplane's carrier (carrier words avoid y),
    so the result is an automorphism of the ball's skeleton that fixes the
    carrier pointwise; the twist suite of verify.py checks both.  Raises
    BallTooSmall when the result is the identity.

    Each image is a ball vertex: y -> y^-1 sends every generator to itself
    or its inverse, so it is an automorphism of the group that keeps the
    word length, and the ball is the set of words of length at most its
    radius.
    """
    if ball.kind != ARTIN:
        raise ValueError("the halfspace twist lives on artin balls")
    ball.gamma.check_generator(x)
    ball.gamma.check_generator(y)
    if x == y or ball.gamma.commute(x, y):
        raise GeneratorsAdjacent(f"{x!r} and {y!r} must be non-adjacent")
    if side not in ("A", "B"):
        raise ValueError("side must be 'A' or 'B'")
    if ball.radius < 2:
        raise BallTooSmall("radius >= 2 needed to witness a nontrivial twist")

    X = ball.complex
    h = X.hyperplane_of_edge("1", x)
    halfspace = X.sides[h] == (side == "A")

    perm = {}
    for v, w in ball.words.items():
        if halfspace[X.index[v]]:
            perm[v] = format_word(_invert_generator(ball.gamma, w, y))
        else:
            perm[v] = v
    moved = tuple(sorted(v for v in perm if perm[v] != v))
    if not moved:
        raise BallTooSmall("twist collapsed to the identity on this ball")
    return HalfspaceTwist(perm, h, side, moved)


def _translation(ball: Ball, word):
    """Left multiplication by the normal form word, as a vertex map: vertex
    id -> vertex id, for the vertices whose image lies in the ball."""
    gamma, kind = ball.gamma, ball.kind
    images = ((vid, format_word(nf_mult(gamma, kind, word, w))) for vid, w in ball.words.items())
    return {vid: image for vid, image in images if image in ball.words}


@dataclass(frozen=True)
class DavisPhi:
    phi: dict  # interior hyperplane id -> hyperplane id
    partition: dict  # hyperplane id -> 'A+', 'A-' or 'T'
    reflection: tuple  # normal form of the conjugate involution w b w^-1
    reflected: dict  # hyperplane id -> id: the hyperplane map of that translation
    rho_map: dict  # partial vertex map induced by phi
    witness_square: tuple  # a square crossed by both hyperplanes
    broken_edge: tuple  # an edge of that square with a non-edge rho-image, or None
    a_hyperplane: int
    b_hyperplane: int


def davis_phi(ball: Ball, a, b, base="1", margin=2) -> DavisPhi:
    """Contact automorphism that is the reflection in the b-hyperplane on one
    side of the a-hyperplane and the identity elsewhere.

    Needs St a contained in St b; the induced vertex map fixes one halfspace,
    reflects the other, and therefore breaks every square crossed by both
    hyperplanes.  phi is the hyperplane map (median._hyperplane_map) of the
    left multiplication by the reflection w b w^-1 on the A+ hyperplanes,
    and the identity on the others; reflected is that hyperplane map on
    every hyperplane it defines, and rho_map is that translation on the
    a-plus side of the a-hyperplane and the identity off it.  The davis
    suite of verify.py checks that the reflection fixes the transverse
    hyperplanes, that no contact edge joins the two halves, that phi
    preserves contact and that the square at base breaks.  BallTooSmall:
    no a,b square at base, or an A+ hyperplane has no reflection image.

    The carrier of a hyperplane h that is neither ha nor transverse to it
    lies on one side of ha, so its part is A+ or A-.  Proof: a dual edge of
    h crosses h alone, so both its ends lie on one side of ha.  The dual
    edges of h are joined by a chain of squares, each with two opposite
    dual edges of h (Mulder, The interval function of a graph, 1980).  If
    the chain changed sides of ha, one square would have its other two
    edges dual to ha; its four vertices lie in all four quadrants of h and
    ha, so h would be transverse to ha.
    """
    if ball.kind != COXETER:
        raise ValueError("the reflection construction lives on coxeter balls")
    ball.gamma.check_generator(a)
    ball.gamma.check_generator(b)
    if a == b or not ball.gamma.st(a) <= ball.gamma.st(b):
        raise StarNotContained(f"St {a!r} is not contained in St {b!r}")
    if base not in ball.words:
        raise UnknownVertex(base)

    X = ball.complex
    w = ball.words[base]
    gamma, kind = ball.gamma, ball.kind

    def vertex(word):
        vid = format_word(word)
        return vid if vid in ball.words else None

    va = vertex(nf_mult(gamma, kind, w, ((a, 1),)))
    vb = vertex(nf_mult(gamma, kind, w, ((b, 1),)))
    vab = vertex(nf_mult(gamma, kind, w, ((a, 1), (b, 1))))
    if va is None or vb is None or vab is None:
        raise BallTooSmall(f"no a,b square at base {base!r}")
    ha = X.hyperplane_of_edge(base, va)
    hb = X.hyperplane_of_edge(base, vb)
    interior = ball.interior_hyperplanes(margin)
    if ha not in interior:
        raise NotInterior(f"a-hyperplane {ha} not interior at margin {margin}")
    if hb not in interior:
        raise NotInterior(f"b-hyperplane {hb} not interior at margin {margin}")

    # the side of ha holding va, which the reflection acts on
    a_plus = X.sides[ha] == X.sides[ha, X.index[va]]
    K, transverse = X.carriers, _contact._relation(X).transverse
    partition = {
        h: "T" if h == ha or transverse[ha, h]
        else "A-" if (K[h] & ~a_plus).any() else "A+"
        for h in sorted(interior)
    }

    reflection = nf_mult(
        gamma, kind, nf_mult(gamma, kind, w, ((b, 1),)), nf_inverse(kind, w)
    )
    reflect = _translation(ball, reflection)
    reflected = _median._hyperplane_map(X, reflect)
    for h in [h for h, part in partition.items() if part == "A+" and h not in reflected][:1]:
        raise BallTooSmall(
            f"reflection image of hyperplane {h} ill-defined: no dual edge maps into the ball")
    phi = {h: reflected[h] if part == "A+" else h for h, part in partition.items()}
    plus = dict(zip(X.vertices, a_plus.tolist()))
    rho_map = {vid: reflect[vid] if plus[vid] else vid
               for vid in ball.words if vid in reflect or not plus[vid]}

    # a square crossed by both hyperplanes: one pair of opposite vertices is
    # fixed, the other is swapped, so one of its edges maps to a non-edge
    square, index = (base, va, vab, vb), X.index
    broken = next(((u, v) for u, v in zip(square, square[1:] + square[:1])
                   if u in rho_map and v in rho_map
                   and not X.adjacency[index[rho_map[u]], index[rho_map[v]]]), None)
    return DavisPhi(
        phi, partition, reflection, reflected, rho_map, square, broken, ha, hb
    )


def syllable_shuffle(ball: Ball, sigma, apex=None) -> dict:
    """Shuffle the central coordinate of a cone-graph artin ball.

    When the defining graph is a cone with apex z, the group splits as a
    direct product with the z-axis; any permutation of the axis induces a
    syllable-metric isometry.  Returns the apex, the partial vertex map perm
    (defined where the image stays in the ball), the moved vertices and
    sigma as a table on -R..R, with no certificate: the tests check that
    perm is injective and keeps the ball syllable distance of the pairs
    they try, while the word distance changes.
    """
    if ball.kind != ARTIN:
        raise ValueError("the shuffle lives on artin balls")
    gamma = ball.gamma
    apexes = gamma.join_decomposition()[0]
    if apex is None:
        if not apexes:
            raise NotACone("the defining graph has no apex vertex")
        apex = apexes[0]
    elif apex not in apexes:
        raise NotACone(f"{apex!r} is not adjacent to every other vertex")

    R = ball.radius
    table = {n: sigma.get(n, n) if isinstance(sigma, dict) else sigma(n)
             for n in range(-R, R + 1)}
    if sorted(table.values()) != list(range(-R, R + 1)):
        raise ValueError(f"sigma must permute -{R}..{R}")

    perm = {}
    for vid, w in ball.words.items():
        n = sum(e for g, e in w if g == apex)
        rest = normal_form(gamma, ARTIN, [(g, e) for g, e in w if g != apex])
        image = nf_mult(gamma, ARTIN, rest, ((apex, table[n]),) if table[n] else ())
        iid = format_word(image)
        if iid in ball.words:
            perm[vid] = iid

    moved = sorted(v for v, i in perm.items() if i != v)
    return {"apex": apex, "perm": perm, "moved": moved, "sigma": table}
