"""Contact, crossing and reduced crossing graphs over the hyperplanes of a complex.

Also computes the interaction sets I(w) (hyperplanes whose carrier contains
the carrier of w) and I0(w) (hyperplanes sharing w's carrier exactly).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LemmaViolation, NotAnAutomorphism
from .median import CubeComplex

REDUCED_MODES = ("self-exclusive", "strict")


def _ids(row):
    """Hyperplane ids marked in a boolean row, as a set of ints."""
    return set(np.flatnonzero(row).tolist())


def _adjacency(M):
    """Row index -> set of the column indices marked in a boolean matrix."""
    out = {h: set() for h in range(len(M))}
    iu, iw = np.nonzero(M)
    for u, w in zip(iu.tolist(), iw.tolist()):
        out[u].add(w)
    return out


@dataclass(frozen=True)
class _Relation:
    """Every hyperplane-pair relation of a complex, as (H, H) matrices."""

    transverse: np.ndarray  # bool: all four quadrants of the sides are non-empty
    contact: np.ndarray  # bool: carriers meet (u != w)
    I: np.ndarray  # bool: I[u, w] iff u is in I(w), as u's carrier contains w's
    common: np.ndarray  # float32: hyperplanes transverse to both u and w


def _relation(X: CubeComplex) -> _Relation:
    """The cached relation of X, checked once on every pair.

    Raises LemmaViolation with a witness pair unless transversality is
    sharing a square of X.squares, disjoint carriers are separated by a third
    hyperplane, and I(w) matches its transversality characterization.
    """
    if X._relation is not None:
        return X._relation
    H, n = X.sides.shape
    eye = np.eye(H, dtype=bool)
    # float32 so products run in BLAS (exact below 2**24 vertices); one
    # product gives the side overlaps AA, carrier-side KA and carrier KK
    M = np.concatenate([X.sides, X.carriers]).astype(np.float32)
    M = M @ M.T
    AA, KA, G = M[:H, :H], M[H:, :H], M[H:, H:]
    na, nk = np.diag(AA), np.diag(G)  # side_a and carrier sizes
    quadrants = (AA, na[:, None] - AA, na[None, :] - AA,
                 n - na[:, None] - na[None, :] + AA)
    transverse = np.logical_and.reduce([q > 0 for q in quadrants])
    contact = (G > 0) & ~eye
    I = G == nk[None, :]

    shares_square = np.zeros((H, H), dtype=bool)
    for a, b, c, d in X.squares:
        h1 = X.hyperplane_of_edge(a, b).id
        h2 = X.hyperplane_of_edge(b, c).id
        shares_square[h1, h2] = shares_square[h2, h1] = True
    bad = transverse != shares_square
    if bad.any():
        u, w = np.argwhere(bad)[0].tolist()
        raise LemmaViolation(
            f"hyperplanes {u} and {w}: transverse={bool(transverse[u, w])} "
            f"but share a square={bool(shares_square[u, w])}"
        )

    # inside_a[u, h]: u's carrier lies in side_a of h; inside_b: in side_b
    inside_a = (KA == nk[:, None]).astype(np.float32)
    inside_b = (KA == 0).astype(np.float32)
    separated = inside_a @ inside_b.T
    bad = ~contact & ~eye & (separated + separated.T == 0)
    if bad.any():
        u, w = np.argwhere(bad)[0].tolist()
        raise LemmaViolation(
            f"hyperplanes {u} and {w} have disjoint carriers but no separator"
        )

    # u is in I(w) iff u = w, or u is transverse to w and to every other
    # hyperplane transverse to w
    T = transverse.astype(np.float32)
    common = T @ T
    covered = common + T == T.sum(axis=0)[None, :]
    characterized = eye | (transverse & covered)
    bad = (I != characterized).any(axis=0)
    if bad.any():
        w = int(np.argmax(bad))
        raise LemmaViolation(
            f"I({w}) definitional {sorted(_ids(I[:, w]))} != characterization "
            f"{sorted(_ids(characterized[:, w]))}"
        )
    X._relation = _Relation(transverse, contact, I, common)
    return X._relation


def interaction(X: CubeComplex, u, w):
    """Classify a hyperplane pair: equal, transverse, contact_osculating, separated."""
    u, w = X.hyperplane(u).id, X.hyperplane(w).id
    if u == w:
        return "equal"
    rel = _relation(X)
    if rel.transverse[u, w]:
        return "transverse"
    return "contact_osculating" if rel.contact[u, w] else "separated"


@dataclass(frozen=True)
class ContactFamily:
    """The three hyperplane graphs plus the quotient onto reduced classes."""

    complex: CubeComplex
    contact: dict  # hid -> set of hids
    crossing: dict  # hid -> set of hids, subgraph of contact
    classes: tuple  # tuple of sorted hid tuples
    class_of: dict  # hid -> class index
    reduced: dict  # class index -> set of class indices
    mode: str


def _twins(rows):
    """Groups of row indices with identical boolean rows."""
    groups = {}
    for h, row in enumerate(rows):
        groups.setdefault(row.tobytes(), []).append(h)
    return list(groups.values())


def _reduced_classes(T, common, mode, ids):
    """Twin classes of a crossing matrix T whose rows are the hyperplanes ids,
    as a sorted list of sorted id tuples; common is T @ T.

    Strict mode groups identical rows.  Self-exclusive mode leaves the
    compared pair out of both neighbourhoods: it groups identical open rows
    (a non-transverse pair) or identical closed rows (a transverse pair).  No
    row has twins of both kinds, so together these partition the rows.
    Raises LemmaViolation unless each class is pairwise neighbourhood-equal.
    """
    if mode == "strict":
        groups = _twins(T)
    else:
        groups = [g for g in _twins(T) if len(g) > 1]
        paired = {h for g in groups for h in g}
        closed = _twins(T | np.eye(len(T), dtype=bool))
        groups += [g for g in closed if g[0] not in paired]
    label = np.empty(len(T), dtype=np.intp)
    for i, g in enumerate(groups):
        label[g] = i

    t = T.sum(axis=1)
    differ = t[:, None] + t[None, :] - 2 * common  # |T_u xor T_w|
    if mode == "self-exclusive":
        differ -= 2 * T  # the compared pair leaves both neighbourhoods
    bad = (label[:, None] == label[None, :]) & (differ != 0)
    if bad.any():
        u, w = np.argwhere(bad)[0].tolist()
        raise LemmaViolation(
            f"reduced class {tuple(ids[i] for i in groups[label[u]])} is not "
            f"pairwise neighborhood-equal (witness {ids[u]}, {ids[w]}, "
            f"mode={mode})"
        )
    return sorted(tuple(ids[i] for i in g) for g in groups)


def build_contact_family(X: CubeComplex, mode="self-exclusive") -> ContactFamily:
    if mode not in REDUCED_MODES:
        raise ValueError(f"mode must be one of {REDUCED_MODES}")
    rel = _relation(X)
    T = rel.transverse
    contact, crossing = _adjacency(rel.contact), _adjacency(T)
    classes = tuple(_reduced_classes(T, rel.common, mode, range(len(T))))
    class_of = {h: i for i, cls in enumerate(classes) for h in cls}
    label = np.array([class_of[h] for h in range(len(T))], dtype=np.intp)

    # an edge between classes means every cross pair is transverse
    linked = np.zeros((len(classes),) * 2, dtype=bool)
    iu, iw = np.nonzero(T)
    linked[label[iu], label[iw]] = True
    linked &= ~np.eye(len(classes), dtype=bool)
    bad = linked[np.ix_(label, label)] & ~T & (label[:, None] != label[None, :])
    if bad.any():
        u, w = np.argwhere(bad)[0].tolist()
        raise LemmaViolation(
            f"classes {classes[label[u]]} and {classes[label[w]]} mix "
            f"transverse and non-transverse pairs"
        )
    reduced = _adjacency(linked)
    return ContactFamily(X, contact, crossing, classes, class_of, reduced, mode)


@dataclass(frozen=True)
class InteractionSets:
    base: int
    I: frozenset
    I0: frozenset


def interaction_sets(X: CubeComplex, w) -> InteractionSets:
    """I(w), the hyperplanes whose carrier contains w's, and I0(w), those
    whose carrier equals w's.

    The relation behind them checks the characterization: u is in I(w) iff u
    equals w, or u is transverse to w and to every other hyperplane
    transverse to w.
    """
    w = X.hyperplane(w).id
    I = _relation(X).I
    return InteractionSets(
        w, frozenset(_ids(I[:, w])), frozenset(_ids(I[:, w] & I[w]))
    )


def all_interaction_sets(X: CubeComplex):
    return {h.id: interaction_sets(X, h.id) for h in X.hyperplanes}


def check_crossing_automorphism(F: ContactFamily, phi):
    from .reconstruction import verify_automorphism

    verify_automorphism(F.crossing, phi)


def pushforward_reduced(F: ContactFamily, phi):
    """Map an automorphism of the crossing graph down to the reduced graph.

    Well-defined because crossing automorphisms preserve the equal-neighborhood
    relation; class sizes must be permuted consistently.
    """
    check_crossing_automorphism(F, phi)
    induced = {}
    for cid, cls in enumerate(F.classes):
        images = {F.class_of[phi[h]] for h in cls}
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


# ---------------------------------------------------------------------------
# Serialization

def _graph_json(adjacency):
    return {
        "vertices": sorted(adjacency),
        "edges": sorted(
            sorted((u, w)) for u in adjacency for w in adjacency[u] if u < w
        ),
    }


def family_to_json(F: ContactFamily) -> dict:
    return {
        "mode": F.mode,
        "contact": _graph_json(F.contact),
        "crossing": _graph_json(F.crossing),
        "reduced": {
            "classes": [list(cls) for cls in F.classes],
            "edges": _graph_json(F.reduced)["edges"],
        },
    }


def graph_to_dot(adjacency, name="graph"):
    lines = [f"graph {name} {{"]
    for v in sorted(adjacency):
        lines.append(f'  "{v}";')
    for u in sorted(adjacency):
        for w in sorted(adjacency[u]):
            if u < w:
                lines.append(f'  "{u}" -- "{w}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
