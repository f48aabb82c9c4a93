"""Maximal cliques, the clique atlas, reconstruction and iota/rho."""

from itertools import chain, combinations

import numpy as np
import pytest
from conftest import adjacency_of

from cubetact import contact as ct
from cubetact import median as md
from cubetact import reconstruction as rc
from cubetact import verify as vf
from cubetact.errors import (
    AmbiguousClique,
    CliqueLimitExceeded,
    HyperplaneNotPreserved,
    NotAnAutomorphism,
)


def brute_maximal_cliques(adjacency):
    """Oracle: filter all subsets for maximal cliques."""
    verts = sorted(adjacency)
    cliques = []
    for r in range(1, len(verts) + 1):
        for sub in combinations(verts, r):
            if all(w in adjacency[u] for u, w in combinations(sub, 2)):
                cliques.append(set(sub))
    maximal = [
        tuple(sorted(c))
        for c in cliques
        if not any(c < d for d in cliques)
    ]
    return sorted(set(maximal))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_maximal_cliques_oracle_random(seed):
    X = md.random_median_complex(5, 4, seed)
    F = ct.build_contact_family(X)
    assert rc.maximal_cliques(F.contact) == brute_maximal_cliques(adjacency_of(F.contact))


def test_maximal_cliques_isolated_vertex():
    # vertex 0 is isolated, 1 and 2 are joined
    M = np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=bool)
    assert rc.maximal_cliques(M) == [(0,), (1, 2)]


def test_clique_cap():
    # a big complete multipartite graph has exponentially many cliques: the
    # 14 parts are the vertex pairs {2i, 2i + 1}
    part = np.arange(28) // 2
    with pytest.raises(CliqueLimitExceeded):
        rc.maximal_cliques(part[:, None] != part[None, :], cap=1000)


def test_complete_graph_is_one_clique():
    """The contact graph of a star K_{1,k} is complete.  Its one clique has
    k vertices, and the enumeration keeps its states on a stack, so no
    recursion limit bounds k."""
    n = 1100
    assert rc.maximal_cliques(~np.eye(n, dtype=bool)) == [tuple(range(n))]


def test_verify_automorphism():
    path = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=bool)  # 0 - 1 - 2
    rc.verify_automorphism(path, {0: 2, 1: 1, 2: 0})
    with pytest.raises(NotAnAutomorphism, match="adjacency broken at 0"):
        rc.verify_automorphism(path, {0: 1, 1: 0, 2: 2})
    with pytest.raises(NotAnAutomorphism, match="not a bijection"):
        rc.verify_automorphism(path, {0: 0, 1: 1})
    with pytest.raises(NotAnAutomorphism, match="not a bijection"):
        rc.verify_automorphism(path, {0: 0, 1: 1, 2: -1})


def test_atlas_builtins():
    for name in md.BUILTIN_COMPLEXES:
        X = md.builtin_complex(name)
        atlas = rc.clique_atlas(X)
        # every non-extremal vertex resolves uniquely
        for v in X.vertices:
            if not atlas.extremal[v]:
                key = tuple(sorted(atlas.clique_of[v]))
                assert atlas.vertex_of[key] == v


def test_atlas_random():
    for seed in (5, 6):
        X = md.random_median_complex(6, 5, seed)
        assert vf.suite_cliques([(seed, X)])["violations"] == []


def test_adjacency_criterion_domino():
    X = md.builtin_complex("DOMINO")
    # middle column vertices are adjacent and satisfy the criterion
    assert rc.adjacency_criterion(X, "10", "11")
    # opposite corners are not adjacent and must fail it
    assert not rc.adjacency_criterion(X, "00", "21")
    assert not rc.adjacency_criterion(X, "00", "11")
    with pytest.raises(ValueError):
        rc.adjacency_criterion(X, "00", "00")


def test_reconstruct_collapses_tripod():
    # the tripod's contact graph is a triangle with a single maximal clique,
    # so clique-based reconstruction collapses it to one vertex: an expected
    # failure on complexes with extremal vertices
    X = md.builtin_complex("TRIPOD")
    F = ct.build_contact_family(X)
    R = rc.reconstruct(rc.maximal_cliques(F.contact))
    assert len(R) == 1
    assert not R.any()


def test_reconstruct_domino_failure_shape():
    # DOMINO's contact graph is also a triangle: reconstruction collapses all
    # six vertices to one, since every vertex of the domino is extremal
    X = md.builtin_complex("DOMINO")
    F = ct.build_contact_family(X)
    R = rc.reconstruct(rc.maximal_cliques(F.contact))
    assert len(R) == 1 != len(X.vertices)
    assert all(rc.clique_atlas(X).extremal[v] for v in X.vertices)


def test_iota_total_q3():
    X = md.builtin_complex("Q3")
    flip = {v: v[0] + v[1] + ("1" if v[2] == "0" else "0") for v in X.vertices}
    rc.verify_automorphism(X.adjacency,
                           {X.index[v]: X.index[w] for v, w in flip.items()})
    phi = rc.induce_iota(X, flip)
    # flipping the last coordinate fixes every hyperplane
    assert phi == {h: h for h in range(len(X.sides))}

    rotate = {v: v[2] + v[0] + v[1] for v in X.vertices}
    phi = rc.induce_iota(X, rotate)
    assert sorted(phi.values()) == sorted(phi)
    assert any(phi[h] != h for h in phi)


def test_iota_partial():
    X = md.builtin_complex("Q3")
    partial = {"000": "000", "001": "001", "010": "010", "100": "100"}
    phi = rc.induce_iota(X, partial)
    assert phi == {0: 0, 1: 1, 2: 2}


def test_iota_rejects_non_automorphism():
    X = md.builtin_complex("Q3")
    with pytest.raises(NotAnAutomorphism):
        rc.induce_iota(X, {"000": "000", "001": "110"})


def test_iota_rejects_hyperplane_scatter():
    # a map defined on two dual edges of one hyperplane sending them into
    # different hyperplanes must be refused
    X = md.builtin_complex("DOMINO")
    # edge-preserving on its domain, but the two dual edges of the long
    # horizontal hyperplane land in different hyperplanes
    bad = {"00": "00", "01": "01", "20": "20", "21": "10"}
    with pytest.raises((HyperplaneNotPreserved, NotAnAutomorphism)):
        rc.induce_iota(X, bad)


def test_rho_roundtrip_q3():
    X = md.builtin_complex("Q3")
    rotate = {v: v[2] + v[0] + v[1] for v in X.vertices}
    phi = rc.induce_iota(X, rotate)
    mapping, issues = rc.induce_rho(X, phi)
    # every Q3 vertex is extremal (corner), so rho cannot resolve anything
    assert mapping == {}
    assert set(issues.values()) == {"ambiguous"}
    with pytest.raises(AmbiguousClique):
        rc.rho_vertex(X, phi, "000")


def test_rho_on_interior(y_c5_r3):
    X = y_c5_r3.complex
    atlas = rc.clique_atlas(X)
    phi = {h: h for h in range(len(X.sides))}
    mapping, issues = rc.induce_rho(X, phi, atlas)
    interior = y_c5_r3.interior_vertices(2)
    for v in interior:
        assert mapping.get(v) == v


def test_kernel_square_is_s2():
    X = md.builtin_complex("SQUARE")
    gens = rc.kernel_subgroup(X)
    assert len(gens) == 1
    (g,) = gens
    assert {h for h in g if g[h] != h} == {0, 1}


def test_kernel_tripod_trivial():
    assert rc.kernel_subgroup(md.builtin_complex("TRIPOD")) == []


def test_kernel_star_eq5(y_st5_r3):
    gens = rc.kernel_subgroup(y_st5_r3.complex)
    assert gens, "equal stars must produce kernel generators"
    for g in gens:
        moved = [h for h in g if g[h] != h]
        assert len(moved) == 2  # transpositions
