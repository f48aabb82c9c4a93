"""Shared fixtures; the expensive balls are built once per session.  Also
the graph converters the tests share: the library's graphs are bool
adjacency matrices, and the references read dicts of sets; a complex's
edges are index pairs, and the references read names."""

import numpy as np
import pytest

from cubetact import ragroups as rg


def adjacency_of(M):
    """The dict of sets of a bool adjacency matrix: row index -> the set of
    the column indices marked in the row."""
    return {u: set(np.flatnonzero(row).tolist()) for u, row in enumerate(M)}


def skeleton_of(X, M=None):
    """The dict of sets of X.adjacency, or of another bool matrix M indexed
    like X.vertices, by name: vertex -> the set of its neighbours."""
    V = X.vertices
    M = X.adjacency if M is None else M
    return {V[u]: {V[w] for w in nb} for u, nb in adjacency_of(M).items()}


def edge_names(X):
    """The edges of X as name pairs (u, v), the rows of X.edges in order."""
    V = X.vertices
    return [(V[i], V[j]) for i, j in X.edges.tolist()]


def edge_set(X):
    """The edges of X as a frozenset of frozensets of names, for comparing
    the skeletons of complexes whose vertex orders may differ."""
    return frozenset(map(frozenset, edge_names(X)))


def has_edge(X, u, v):
    """Whether u and v are vertices of X joined by an edge."""
    return u in X.index and v in X.index and bool(X.adjacency[X.index[u], X.index[v]])


def index_pairs(vertices, edges):
    """The name pairs edges as index pairs into vertices, as CubeComplex
    and certified_complex take them."""
    index = {v: i for i, v in enumerate(vertices)}
    return [(index[u], index[v]) for u, v in edges]


def matrix_of(adjacency):
    """(nodes, M) for a dict-of-sets graph: its sorted nodes, and its bool
    adjacency matrix with nodes[k] at row and column k."""
    nodes = sorted(adjacency)
    index = {v: k for k, v in enumerate(nodes)}
    M = np.zeros((len(nodes),) * 2, dtype=bool)
    for v, nb in adjacency.items():
        M[index[v], [index[w] for w in nb]] = True
    return nodes, M

_criterion_lines = []


@pytest.fixture(scope="session")
def criterion_report():
    """Record a single pass/fail line per acceptance criterion; the lines
    are replayed in the terminal summary.
    """
    def record(number, ok, message):
        status = "PASS" if ok else "FAIL"
        _criterion_lines.append(f"[criterion {number}] {status}: {message}")
    return record


def pytest_terminal_summary(terminalreporter):
    if _criterion_lines:
        terminalreporter.section("acceptance criteria")
        def number(line):
            return int(line.split("]")[0].split()[-1])

        for line in sorted(_criterion_lines, key=number):
            terminalreporter.write_line(line)


def _ball(name, kind, radius):
    return rg.build_ball(rg.builtin_defining_graph(name), kind, radius)


@pytest.fixture(scope="session")
def y_c5_r3():
    return _ball("C5", rg.COXETER, 3)


@pytest.fixture(scope="session")
def y_p4_r4():
    return _ball("P4", rg.COXETER, 4)


@pytest.fixture(scope="session")
def y_st5_r3():
    return _ball("STAR_EQ5", rg.COXETER, 3)


@pytest.fixture(scope="session")
def y_st5_r4():
    return _ball("STAR_EQ5", rg.COXETER, 4)


@pytest.fixture(scope="session")
def x_c5_r2():
    return _ball("C5", rg.ARTIN, 2)


@pytest.fixture(scope="session")
def x_c5_r3():
    return _ball("C5", rg.ARTIN, 3)


@pytest.fixture(scope="session")
def x_f2_r3():
    return _ball("F2", rg.ARTIN, 3)


@pytest.fixture(scope="session")
def z2_r3():
    return _ball("EDGE2", rg.ARTIN, 3)
