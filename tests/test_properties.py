"""Property-based invariants for normal forms, random instances and the
reduced (twin) classes; the closures' properties are in test_oracle.py."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubetact import contact as ct
from cubetact import median as md
from cubetact import ragroups as rg

C5 = rg.builtin_defining_graph("C5")
P4 = rg.builtin_defining_graph("P4")


def words(gamma, kind, max_len=6):
    if kind == rg.COXETER:
        letter = st.sampled_from([(g, 1) for g in gamma.vertices])
    else:
        letter = st.sampled_from(
            [(g, s) for g in gamma.vertices for s in (1, -1)]
        )
    return st.lists(letter, max_size=max_len)


@given(words(C5, rg.COXETER))
def test_normal_form_idempotent_coxeter(w):
    nf = rg.normal_form(C5, rg.COXETER, w)
    assert rg.normal_form(C5, rg.COXETER, nf) == nf


@given(words(P4, rg.ARTIN))
def test_normal_form_idempotent_artin(w):
    nf = rg.normal_form(P4, rg.ARTIN, w)
    assert rg.normal_form(P4, rg.ARTIN, nf) == nf


@given(words(C5, rg.COXETER))
def test_inverse_cancels_coxeter(w):
    nf = rg.normal_form(C5, rg.COXETER, w)
    inv = rg.nf_inverse(rg.COXETER, nf)
    assert rg.nf_mult(C5, rg.COXETER, nf, inv) == ()
    assert rg.nf_mult(C5, rg.COXETER, inv, nf) == ()


@given(words(P4, rg.ARTIN))
def test_inverse_cancels_artin(w):
    nf = rg.normal_form(P4, rg.ARTIN, w)
    inv = rg.nf_inverse(rg.ARTIN, nf)
    assert rg.nf_mult(P4, rg.ARTIN, nf, inv) == ()


def raw_words(gamma, max_len=5):
    """Words with any exponent in -3..3, zero and even ones included."""
    syllable = st.tuples(st.sampled_from(gamma.vertices), st.integers(-3, 3))
    return st.lists(syllable, max_size=max_len)


@given(st.sampled_from(rg.BUILTIN_GRAPHS), st.sampled_from([rg.COXETER, rg.ARTIN]),
       st.data())
def test_nf_mult_extends_normal_form(name, kind, data):
    """Multiplying a normal form by a raw word gives the normal form of the
    concatenated word."""
    gamma = rg.builtin_defining_graph(name)
    w1, w2 = data.draw(raw_words(gamma)), data.draw(raw_words(gamma))
    product = rg.nf_mult(gamma, kind, rg.normal_form(gamma, kind, w1), w2)
    assert product == rg.normal_form(gamma, kind, w1 + w2)


@given(words(P4, rg.ARTIN, 4), words(P4, rg.ARTIN, 4), words(P4, rg.ARTIN, 4))
def test_multiplication_associative(w1, w2, w3):
    a = rg.normal_form(P4, rg.ARTIN, w1)
    b = rg.normal_form(P4, rg.ARTIN, w2)
    c = rg.normal_form(P4, rg.ARTIN, w3)
    left = rg.nf_mult(P4, rg.ARTIN, rg.nf_mult(P4, rg.ARTIN, a, b), c)
    right = rg.nf_mult(P4, rg.ARTIN, a, rg.nf_mult(P4, rg.ARTIN, b, c))
    assert left == right


@given(words(C5, rg.COXETER, 5), words(C5, rg.COXETER, 5))
def test_length_subadditive(w1, w2):
    a = rg.normal_form(C5, rg.COXETER, w1)
    b = rg.normal_form(C5, rg.COXETER, w2)
    prod = rg.nf_mult(C5, rg.COXETER, a, b)
    la, lb = rg.word_length(rg.COXETER, a), rg.word_length(rg.COXETER, b)
    lp = rg.word_length(rg.COXETER, prod)
    assert lp <= la + lb
    assert (la + lb - lp) % 2 == 0


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=0, max_value=10_000),
)
def test_random_instances_are_median_and_convex(dim, seeds, seed):
    X = md.random_median_complex(dim, seeds, seed)
    # construction already validates; the hyperplane structure must be sound
    assert md.convexity_check(X) == []
    assert md.helly_check(X) == []
    for row in X.sides:
        assert md.is_convex_set(X, [v for v, a in zip(X.vertices, row) if a])
        assert md.is_convex_set(X, [v for v, a in zip(X.vertices, row) if not a])


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_instance_medians_unique(seed):
    X = md.random_median_complex(5, 4, seed)
    verts = list(X.vertices)
    # spot-check the median property on the first few triples
    for i in range(0, max(0, len(verts) - 2), 7):
        a, b, c = verts[i], verts[i + 1], verts[i + 2]
        count = sum(
            1
            for v in verts
            if X.d(a, v) + X.d(v, b) == X.d(a, b)
            and X.d(b, v) + X.d(v, c) == X.d(b, c)
            and X.d(a, v) + X.d(v, c) == X.d(a, c)
        )
        assert count == 1


@st.composite
def crossing_matrices(draw):
    """Symmetric zero-diagonal boolean matrices of 1-24 rows, rich in twins:
    a random graph on m groups (a looped group is a clique of closed twins,
    an unlooped one an independent set of open twins), blown up onto the
    rows, with up to three pairs toggled."""
    n = draw(st.integers(1, 24))
    m = draw(st.integers(1, n))
    group = np.array(draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n)))
    B = np.array(draw(st.lists(st.booleans(), min_size=m * m, max_size=m * m)))
    B = np.triu(B.reshape(m, m))
    T = (B | B.T)[np.ix_(group, group)]
    for u, w in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=3)):
        T[u, w] = T[w, u] = not T[u, w]
    np.fill_diagonal(T, False)
    return T


@pytest.mark.parametrize("mode", ct.REDUCED_MODES)
@settings(max_examples=200, deadline=None)
@given(crossing_matrices())
def test_reduced_classes_are_the_twin_classes(mode, T):
    """The classes partition the rows, two rows share a class iff their
    neighbourhoods are equal (leaving the compared pair out in self-exclusive
    mode), and T is constant on the cross pairs of any two classes."""
    n = len(T)
    classes = ct._reduced_classes(T, mode, range(n))
    assert sorted(h for cls in classes for h in cls) == list(range(n))
    label = np.empty(n, dtype=int)
    for i, cls in enumerate(classes):
        label[list(cls)] = i

    agree = T[:, None, :] == T[None, :, :]  # agree[u, w, k]: T[u, k] == T[w, k]
    if mode == "self-exclusive":
        idx = np.arange(n)
        agree[idx, :, idx] = agree[:, idx, idx] = True
    assert ((label[:, None] == label[None, :]) == agree.all(axis=2)).all()

    for A, B in combinations(classes, 2):
        block = T[np.ix_(A, B)]
        assert block.all() or not block.any()
