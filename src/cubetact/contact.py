"""Contact, crossing and reduced crossing graphs over the hyperplanes of a complex.

Also computes the interaction sets I(w) (hyperplanes whose carrier contains
the carrier of w) and I0(w) (hyperplanes sharing w's carrier exactly).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .median import CubeComplex, _frozen

REDUCED_MODES = ("self-exclusive", "strict")


def _ids(row):
    """Hyperplane ids marked in a boolean row, as a set of ints."""
    return set(np.flatnonzero(row).tolist())


@dataclass(frozen=True)
class _Relation:
    """Every hyperplane-pair relation of a complex, as read-only (H, H)
    matrices: they are cached on the complex and shared by every reader."""

    transverse: np.ndarray  # bool: all four quadrants of the sides are non-empty
    contact: np.ndarray  # bool: carriers meet (u != w)
    I: np.ndarray  # bool: I[u, w] iff u is in I(w), as u's carrier contains w's


def _relation(X: CubeComplex) -> _Relation:
    """The relation of X, computed once and cached on X.

    The suites of verify.py check it against squares, separators and the
    transversality characterization of I(w).
    """
    if X._relation is not None:
        return X._relation
    H, n = X.sides.shape
    # float32 so products run in BLAS (exact below 2**24 vertices); one
    # product gives the side overlaps AA and the carrier overlaps KK
    M = np.concatenate([X.sides, X.carriers]).astype(np.float32)
    M = M @ M.T
    AA, G = M[:H, :H], M[H:, H:]
    na, nk = np.diag(AA), np.diag(G)  # side_a and carrier sizes
    quadrants = (AA, na[:, None] - AA, na[None, :] - AA,
                 n - na[:, None] - na[None, :] + AA)
    transverse = np.logical_and.reduce([q > 0 for q in quadrants])
    X._relation = _Relation(*map(
        _frozen, (transverse, (G > 0) & ~np.eye(H, dtype=bool), G == nk[None, :])
    ))
    return X._relation


def interaction(X: CubeComplex, u, w):
    """Classify a hyperplane pair: equal, transverse, contact_osculating, separated."""
    u, w = X.check_hyperplane(u), X.check_hyperplane(w)
    if u == w:
        return "equal"
    rel = _relation(X)
    if rel.transverse[u, w]:
        return "transverse"
    return "contact_osculating" if rel.contact[u, w] else "separated"


@dataclass(frozen=True)
class ContactFamily:
    """The three hyperplane graphs, as read-only bool adjacency matrices,
    plus the quotient onto reduced classes."""

    complex: CubeComplex
    contact: np.ndarray  # (H, H): carriers meet, u != w
    crossing: np.ndarray  # (H, H): transverse, a subgraph of contact
    classes: tuple  # tuple of sorted hid tuples
    class_of: np.ndarray  # (H,) intp: class_of[h] is the index of h's class
    reduced: np.ndarray  # (C, C): classes joined by a transverse pair
    mode: str


def _twins(rows):
    """Groups of row indices with identical boolean rows."""
    groups = {}
    for h, row in enumerate(rows):
        groups.setdefault(row.tobytes(), []).append(h)
    return list(groups.values())


def _reduced_classes(T, mode, ids):
    """Twin classes of a crossing matrix T whose rows are the hyperplanes ids,
    as a sorted list of sorted id tuples.

    Strict mode groups identical rows.  Self-exclusive mode leaves the
    compared pair out of both neighbourhoods: it groups identical open rows
    (open twins: T_u = T_w, so T[u, w] = T[w, w] = 0) or identical closed
    rows (closed twins: T_u | {u} = T_w | {w}, so T[u, w] = 1 and the rows
    differ in u and w only).  Either way the rows agree outside the compared
    pair, so each class is pairwise neighbourhood-equal by construction.  No
    row has twins of both kinds: if w is an open and x a closed twin of u,
    then x is in T_u = T_w, so w is in T_x, a subset of T_u | {u}, against
    T[u, w] = 0.  So the open groups and the remaining closed groups
    partition the rows.
    """
    if mode == "strict":
        groups = _twins(T)
    else:
        groups = [g for g in _twins(T) if len(g) > 1]
        paired = {h for g in groups for h in g}
        closed = _twins(T | np.eye(len(T), dtype=bool))
        groups += [g for g in closed if g[0] not in paired]
    return sorted(tuple(ids[i] for i in g) for g in groups)


def build_contact_family(X: CubeComplex, mode="self-exclusive") -> ContactFamily:
    if mode not in REDUCED_MODES:
        raise ValueError(f"mode must be one of {REDUCED_MODES}")
    rel = _relation(X)
    T = rel.transverse
    classes = tuple(_reduced_classes(T, mode, range(len(T))))
    class_of = {h: i for i, cls in enumerate(classes) for h in cls}
    label = np.array([class_of[h] for h in range(len(T))], dtype=np.intp)

    # two members of a class have equal rows outside the class, so T is
    # constant on the cross pairs of two classes: one transverse pair links
    linked = np.zeros((len(classes),) * 2, dtype=bool)
    iu, iw = np.nonzero(T)
    linked[label[iu], label[iw]] = True
    linked &= ~np.eye(len(classes), dtype=bool)
    return ContactFamily(X, rel.contact, T, classes, _frozen(label), _frozen(linked), mode)


@dataclass(frozen=True)
class InteractionSets:
    base: int
    I: frozenset
    I0: frozenset


def interaction_sets(X: CubeComplex, w) -> InteractionSets:
    """I(w), the hyperplanes whose carrier contains w's, and I0(w), those
    whose carrier equals w's.

    The iw suite of verify.py checks the characterization: u is in I(w) iff
    u equals w, or u is transverse to w and to every other hyperplane
    transverse to w.
    """
    w = X.check_hyperplane(w)
    I = _relation(X).I
    return InteractionSets(
        w, frozenset(_ids(I[:, w])), frozenset(_ids(I[:, w] & I[w]))
    )


def all_interaction_sets(X: CubeComplex):
    return {w: interaction_sets(X, w) for w in range(len(X.sides))}


def pushforward_reduced(F: ContactFamily, phi):
    """Map an automorphism phi of the crossing graph down to the reduced
    graph: class index -> the index of the class of phi's image of its
    first member.  Raises NotAnAutomorphism unless phi is one.

    The image class is the same for every member, and the map is a
    bijection that keeps class sizes.  Proof: phi and its inverse keep the
    crossing matrix T, so u, w are open twins (T_u = T_w) iff phi(u),
    phi(w) are, and closed twins (T_u | {u} = T_w | {w}) iff phi(u), phi(w)
    are.  The classes of either mode (_reduced_classes) are defined from
    these two relations alone: strict mode groups the open twins, and
    self-exclusive mode the open twins, then the closed twins of the rows
    with no open twin.  So phi maps each class onto a class, and the
    inverse maps that class back.
    """
    from .reconstruction import verify_automorphism

    verify_automorphism(F.crossing, phi)
    class_of = F.class_of.tolist()
    return {cid: class_of[phi[cls[0]]] for cid, cls in enumerate(F.classes)}


# ---------------------------------------------------------------------------
# Serialization

def _edges(M):
    """The pairs [u, w], u < w, marked in a bool adjacency matrix, as int
    lists in sorted order (np.argwhere reads row by row)."""
    return np.argwhere(np.triu(M, 1)).tolist()


def family_to_json(F: ContactFamily) -> dict:
    graphs = {
        name: {"vertices": list(range(len(M))), "edges": _edges(M)}
        for name, M in (("contact", F.contact), ("crossing", F.crossing))
    }
    return {
        "mode": F.mode,
        **graphs,
        "reduced": {
            "classes": [list(cls) for cls in F.classes],
            "edges": _edges(F.reduced),
        },
    }


def graph_to_dot(M, name="graph"):
    """The graph of the bool adjacency matrix M in DOT, vertices 0..len(M)-1."""
    lines = [f"graph {name} {{"]
    lines += [f'  "{v}";' for v in range(len(M))]
    lines += [f'  "{u}" -- "{w}";' for u, w in _edges(M)]
    lines.append("}")
    return "\n".join(lines) + "\n"
