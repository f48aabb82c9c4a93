"""Vertices as maximal cliques of the contact graph, and the maps between
automorphisms of the complex and automorphisms of its contact graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import contact as _contact
from .errors import (
    AmbiguousClique,
    CliqueLimitExceeded,
    NotAnAutomorphism,
    UnknownClique,
)
from .median import CubeComplex, _hyperplane_map, extremality

DEFAULT_CLIQUE_CAP = 100_000


def verify_automorphism(M, permutation):
    """Raise NotAnAutomorphism unless the dict permutation is a bijection of
    range(len(M)) that preserves the bool adjacency matrix M; the witness
    is the first vertex u with M[u, w] != M[p(u), p(w)] for some w."""
    verts = set(range(len(M)))
    if set(permutation) != verts or set(permutation.values()) != verts:
        raise NotAnAutomorphism("not a bijection of the vertex set")
    p = [permutation[u] for u in range(len(M))]
    for u in np.flatnonzero((M[np.ix_(p, p)] != M).any(axis=1))[:1].tolist():
        raise NotAnAutomorphism(f"adjacency broken at {u}")


def _bits(x):
    """The positions of the set bits of the int x, lowest first."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def maximal_cliques(M, cap=DEFAULT_CLIQUE_CAP):
    """All inclusion-maximal cliques of the graph of the bool adjacency
    matrix M, as sorted tuples of row indices, canonically sorted.

    Bron-Kerbosch with Tomita pivoting (Tomita, Tanaka and Takahashi, The
    worst-case time complexity for generating all maximal cliques, TCS 363,
    2006) on int bitsets: vertex k is bit k, and nb[k] holds the bits of its
    neighbours, row k of M without the diagonal.  A state (clique, candidates P,
    excluded X) branches on the bits of P & ~nb[u], lowest first, where the
    pivot u of P | X has the most neighbours in P, or is the first with
    |P| - 1 of them, which leaves at most one branch (any pivot yields
    every maximal clique once); each branch moves its node from P to X for
    the branches after it.  A branch left with no candidates is a maximal
    clique if it has no excluded node either, and is dropped otherwise; the
    other branches wait on an explicit stack, so a large clique costs no
    recursion.  A clique's bits, lowest first, give
    its sorted tuple; isolated vertices yield singleton cliques.
    """
    rows = np.packbits(M, axis=1, bitorder="little")
    # without the diagonal: a self-loop would branch on its vertex forever
    nb = [int.from_bytes(row.tobytes(), "little") & ~(1 << k) for k, row in enumerate(rows)]
    out = []
    stack = [(0, (1 << len(M)) - 1, 0)]
    while stack:
        clique, cands, excluded = stack.pop()
        if not cands:  # only maximal cliques are pushed without candidates
            out.append(tuple(_bits(clique)))
            if len(out) > cap:
                raise CliqueLimitExceeded(f"more than {cap} maximal cliques")
            continue
        most, enough = -1, cands.bit_count() - 1
        for k in _bits(cands | excluded):
            count = (cands & nb[k]).bit_count()
            if count > most:
                pivot, most = k, count
                if most >= enough:  # at most one branch: no pivot does better
                    break
        for k in _bits(cands & ~nb[pivot]):
            if cands & nb[k] or not excluded & nb[k]:
                stack.append((clique | 1 << k, cands & nb[k], excluded & nb[k]))
            cands ^= 1 << k
            excluded |= 1 << k
    return sorted(out)


@dataclass(frozen=True)
class CliqueAtlas:
    cliques: tuple  # maximal cliques of the contact graph, canonical order
    vertex_of: dict  # clique -> vertex id, only where uniquely attained
    clique_of: dict  # vertex id -> frozenset W_v
    attained_by: dict  # frozenset W -> the vertex ids v with W_v = W
    extremal: dict  # vertex id -> bool


def clique_atlas(X: CubeComplex):
    """Match maximal cliques of the contact graph, the contact matrix of
    contact._relation, with vertex hyperplane sets.

    A maximal clique is matched with v when it is W_v and no other vertex
    attains it.  The cliques suite of verify.py checks that every maximal
    clique is some W_v, and that v is matched iff its link is not a cone.
    """
    cliques = tuple(maximal_cliques(_contact._relation(X).contact))
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


def _members(sets):
    """members[h]: the bitset of the indices k with h in sets[k]."""
    members = {}
    for k, s in enumerate(sets):
        for h in s:
            members[h] = members.get(h, 0) | 1 << k
    return members


def _joined(sets, i, members=None):
    """The j != i such that no k outside {i, j} has S_i ∩ S_j ⊆ S_k, in order.

    members is _members(sets), or at least its entries for the h in S_i;
    a caller that reads many rows builds it once.  meet[j] is the AND of
    members[h] over the h in S_i that S_j contains, that is over S_i ∩ S_j,
    so it is the set of k with S_i ∩ S_j ⊆ S_k, and it holds i and j.  So
    j qualifies iff meet[j] is exactly the bits i and j, which is the
    definition.  A j with no meet has an empty cut, which lies in any third
    set: with three or more sets it never qualifies, and with at most two
    every other set qualifies.  Symmetric: j qualifies for i iff i for j.
    """
    if len(sets) <= 2:
        return [j for j in range(len(sets)) if j != i]
    if members is None:
        members = _members(sets)
    meet = {}
    for h in sets[i]:
        row = members[h]
        for j in _bits(row):
            meet[j] = meet.get(j, row) & row
    return [j for j in sorted(meet) if j != i and meet[j] == 1 << i | 1 << j]


def adjacency_criterion(X: CubeComplex, v, w):
    """True iff no third vertex x has W_v ∩ W_w contained in W_v ∩ W_x.

    Matches actual adjacency when hyperplanes of X have no extremal vertices;
    the direction non-adjacent => False holds unconditionally.  One _joined
    row, with the members of the h at v read off the carrier rows, which
    are those members' bitsets.
    """
    i, j = X.check_vertex(v), X.check_vertex(w)
    if v == w:
        raise ValueError("criterion needs two distinct vertices")
    at = sorted(X.ids_at[i])
    bits = np.packbits(X.carriers[at], axis=1, bitorder="little")
    members = {h: int.from_bytes(row.tobytes(), "little") for h, row in zip(at, bits)}
    return j in _joined(X.ids_at, i, members)


def reconstruct(cliques):
    """Candidate 1-skeleton from a contact graph alone, given as its maximal
    cliques in canonical order (maximal_cliques(contact), or a clique
    atlas's cliques).

    Vertices are maximal cliques; cliques C1, C2 are joined unless some third
    maximal clique C3 satisfies C1 ∩ C2 ⊆ C1 ∩ C3 (see _joined).  Sound only
    under the no-extremal-vertices hypotheses; always emitted, so callers can
    compare on interior regions or document failures.  Returns the read-only
    (C, C) bool matrix of joined cliques, indexed like the cliques.
    """
    cliques = list(cliques)
    members = _members(cliques)
    R = np.zeros((len(cliques),) * 2, dtype=bool)
    for i in range(len(cliques)):
        R[i, _joined(cliques, i, members)] = True
    R.flags.writeable = False
    return R


def induce_iota(X: CubeComplex, g):
    """Hyperplane permutation induced by an automorphism of the 1-skeleton.

    ``g`` may be a partial vertex map (a dict); the returned hyperplane map is
    defined on every hyperplane with at least one dual edge fully inside the
    domain, and consistency over all such edges is enforced
    (median._hyperplane_map).
    """
    g = dict(g)
    for u in g:
        X.check_vertex(u)
        X.check_vertex(g[u])
    phi = _hyperplane_map(X, g)
    if len(g) == len(X.vertices):  # total map: must induce a contact automorphism
        verify_automorphism(_contact._relation(X).contact, phi)
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
    The I0 classes are the groups of equal carrier rows.
    """
    classes = sorted(map(tuple, _contact._twins(X.carriers)))
    generators = []
    for cls in classes:
        for u, w in combinations(cls, 2):
            perm = {h: h for h in range(len(X.sides))}
            perm[u], perm[w] = w, u
            generators.append(perm)
    return generators
