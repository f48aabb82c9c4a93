"""Vertices as maximal cliques of the contact graph, and the maps between
automorphisms of the complex and automorphisms of its contact graph.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations

from .contact import ContactFamily, all_interaction_sets, build_contact_family
from .errors import (
    AmbiguousClique,
    CliqueLimitExceeded,
    HyperplaneNotPreserved,
    NotAnAutomorphism,
    UnknownClique,
)
from .median import CubeComplex, extremality

DEFAULT_CLIQUE_CAP = 100_000


def verify_automorphism(adjacency, permutation):
    verts = set(adjacency)
    if set(permutation) != verts or set(permutation.values()) != verts:
        raise NotAnAutomorphism("not a bijection of the vertex set")
    for u in verts:
        if {permutation[w] for w in adjacency[u]} != adjacency[permutation[u]]:
            raise NotAnAutomorphism(f"adjacency broken at {u}")


def maximal_cliques(adjacency, cap=DEFAULT_CLIQUE_CAP):
    """All inclusion-maximal cliques, canonically sorted.

    Bron-Kerbosch with pivoting; isolated vertices yield singleton cliques.
    """
    out = []

    def expand(clique, cands, excluded):
        if not cands and not excluded:
            out.append(tuple(sorted(clique)))
            if len(out) > cap:
                raise CliqueLimitExceeded(f"more than {cap} maximal cliques")
            return
        pivot = max(cands | excluded, key=lambda v: len(adjacency[v] & cands))
        for v in sorted(cands - adjacency[pivot]):
            expand(clique | {v}, cands & adjacency[v], excluded & adjacency[v])
            cands = cands - {v}
            excluded = excluded | {v}

    adjacency = {v: set(nb) for v, nb in adjacency.items()}
    expand(set(), set(adjacency), set())
    return sorted(out)


@dataclass(frozen=True)
class CliqueAtlas:
    cliques: tuple  # maximal cliques of the contact graph, canonical order
    vertex_of: dict  # clique -> vertex id, only where uniquely attained
    clique_of: dict  # vertex id -> frozenset W_v
    attained_by: dict  # frozenset W -> the vertex ids v with W_v = W
    extremal: dict  # vertex id -> bool


def clique_atlas(X: CubeComplex, F: ContactFamily = None, cap=DEFAULT_CLIQUE_CAP):
    """Match maximal cliques of the contact graph with vertex hyperplane sets.

    A maximal clique is matched with v when it is W_v and no other vertex
    attains it.  The cliques suite of verify.py checks that every maximal
    clique is some W_v, and that v is matched iff its link is not a cone.
    """
    if F is None:
        F = build_contact_family(X)
    cliques = tuple(maximal_cliques(F.contact, cap=cap))
    clique_of = dict(zip(X.vertices, X.ids_at))
    attained_by = {}
    for v, s in clique_of.items():
        attained_by.setdefault(s, []).append(v)
    vertex_of = {
        cl: attained_by[frozenset(cl)][0]
        for cl in cliques
        if len(attained_by.get(frozenset(cl), ())) == 1
    }
    return CliqueAtlas(cliques, vertex_of, clique_of, attained_by, extremality(X))


def _joined(sets, i):
    """The j != i such that no k outside {i, j} has S_i ∩ S_j ⊆ S_k, in order.

    S_i ∩ S_j ⊆ S_k iff the cut S_i ∩ S_j lies in the cut S_i ∩ S_k, so j
    qualifies iff its cut occurs once among the cuts of the k != i and lies
    in no strictly larger one.  Symmetric: j qualifies for i iff i for j.
    """
    cuts = {k: sets[i] & s for k, s in enumerate(sets) if k != i}
    count = Counter(cuts.values())
    top = {c for c, t in count.items() if t == 1 and not any(c < d for d in count)}
    return [j for j, c in cuts.items() if c in top]


def adjacency_criterion(X: CubeComplex, v, w):
    """True iff no third vertex x has W_v ∩ W_w contained in W_v ∩ W_x.

    Matches actual adjacency when hyperplanes of X have no extremal vertices;
    the direction non-adjacent => False holds unconditionally.  Each call
    builds a whole _joined row, the cuts of v with all n vertices; a caller
    that needs all pairs reads the rows of _joined instead, as the
    criterion suite of verify.py does.
    """
    i, j = X.check_vertex(v), X.check_vertex(w)
    if v == w:
        raise ValueError("criterion needs two distinct vertices")
    return j in _joined(X.ids_at, i)


def reconstruct(cliques):
    """Candidate 1-skeleton from a contact graph alone, given as its maximal
    cliques in canonical order (maximal_cliques(contact), or a clique
    atlas's cliques).

    Vertices are maximal cliques; cliques C1, C2 are joined unless some third
    maximal clique C3 satisfies C1 ∩ C2 ⊆ C1 ∩ C3 (see _joined).  Sound only
    under the no-extremal-vertices hypotheses; always emitted, so callers can
    compare on interior regions or document failures.
    """
    cliques = list(cliques)
    sets = [frozenset(cl) for cl in cliques]
    adjacency = {cl: {cliques[j] for j in _joined(sets, i)}
                 for i, cl in enumerate(cliques)}
    edges = {frozenset((cl, other)) for cl, nb in adjacency.items() for other in nb}
    return {"vertices": cliques, "edges": edges, "adjacency": adjacency}


def induce_iota(X: CubeComplex, g):
    """Hyperplane permutation induced by an automorphism of the 1-skeleton.

    ``g`` may be a partial vertex map (a dict); the returned hyperplane map is
    defined on every hyperplane with at least one dual edge fully inside the
    domain, and consistency over all such edges is enforced.
    """
    g = dict(g)
    for u in g:
        X.check_vertex(u)
        X.check_vertex(g[u])
    images = {}  # hyperplane id -> ids of the images of its edges in the domain
    edges, label = X.edge_labels
    for (u, v), h in zip(edges, label.tolist()):
        if u in g and v in g:  # adjacency must be preserved there
            if frozenset((g[u], g[v])) not in X.edges:
                raise NotAnAutomorphism(f"edge {[u, v]} maps to a non-edge")
            images.setdefault(h, set()).add(X.hyperplane_of_edge(g[u], g[v]))
    phi = {}
    for h in sorted(images):
        if len(images[h]) > 1:
            raise HyperplaneNotPreserved(
                f"hyperplane {h} maps to several hyperplanes {sorted(images[h])}"
            )
        phi[h] = images[h].pop()

    if len(g) == len(X.vertices):  # total map: must induce a contact automorphism
        F = build_contact_family(X)
        verify_automorphism(F.contact, phi)
    return phi


def induce_rho(X: CubeComplex, phi, atlas: CliqueAtlas = None):
    """Partial vertex map induced by a contact-graph automorphism.

    v maps to the vertex whose hyperplane set is phi(W_v); undefined where the
    clique fails to resolve to a unique vertex.  Returns (mapping, issues);
    issues marks vertices as 'ambiguous' (extremal resolution) or 'unknown'
    (image set attained by no vertex, possible for partial phi).
    """
    if atlas is None:
        atlas = clique_atlas(X)
    mapping, issues = {}, {}
    for v in X.vertices:
        s = atlas.clique_of[v]
        if any(h not in phi for h in s):
            issues[v] = "unknown"
            continue
        image = frozenset(phi[h] for h in s)
        hits = atlas.attained_by.get(image, [])
        if not hits:
            issues[v] = "unknown"
        elif len(hits) > 1 or len(atlas.attained_by[s]) > 1:
            issues[v] = "ambiguous"
        else:
            mapping[v] = hits[0]
    return mapping, issues


def rho_vertex(X: CubeComplex, phi, v, atlas: CliqueAtlas = None):
    """Image of a single vertex under rho, raising on failure."""
    mapping, issues = induce_rho(X, phi, atlas)
    if v in mapping:
        return mapping[v]
    if issues.get(v) == "ambiguous":
        raise AmbiguousClique(v)
    raise UnknownClique(v)


def kernel_subgroup(X: CubeComplex):
    """Generators (transpositions inside non-singleton I0 classes) of the
    subgroup of contact automorphisms fixing every maximal clique setwise;
    the kernel suite of verify.py checks that they are such automorphisms.
    """
    classes = sorted({tuple(sorted(s.I0)) for s in all_interaction_sets(X).values()})
    generators = []
    for cls in classes:
        for u, w in combinations(cls, 2):
            perm = {h: h for h in range(len(X.sides))}
            perm[u], perm[w] = w, u
            generators.append(perm)
    return generators
