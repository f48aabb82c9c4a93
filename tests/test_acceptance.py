"""Acceptance suite: one test and one reported pass/fail line per criterion."""

import time
from itertools import combinations

import pytest
from conftest import has_edge

from cubetact import contact as ct
from cubetact import median as md
from cubetact import ragroups as rg
from cubetact import reconstruction as rc
from cubetact import verify as vf
from cubetact.errors import StarNotContained


@pytest.fixture(scope="module")
def random_instances():
    return [
        (f"random-{s}", md.random_median_complex(6, 5, s))
        for s in range(1, 101)
    ]


@pytest.fixture(scope="module")
def all_instances(random_instances):
    builtins = [(n, md.builtin_complex(n)) for n in md.BUILTIN_COMPLEXES]
    return random_instances + builtins


def test_criterion_1_median_helly(random_instances, criterion_report):
    t0 = time.monotonic()
    entry = vf.suite_helly(random_instances)
    elapsed = time.monotonic() - t0
    ok = entry["violations"] == [] and elapsed <= 60
    criterion_report(
        1, ok,
        f"convexity and 4-wise Helly on {len(random_instances)} random "
        f"instances, 0 violations, {elapsed:.1f}s",
    )
    assert entry["violations"] == []
    assert elapsed <= 60


def test_criterion_2_clique_correspondence(all_instances, criterion_report):
    cliques = vf.suite_cliques(all_instances)
    cones = vf.suite_cone_links(all_instances)
    ok = cliques["violations"] == [] and cones["violations"] == []
    criterion_report(
        2, ok,
        f"clique correspondence and cone links on {len(all_instances)} "
        "instances, 0 violations",
    )
    assert cliques["violations"] == []
    assert cones["violations"] == []


def test_criterion_3_interaction_sets(all_instances, criterion_report):
    entry = vf.suite_iw(all_instances)
    ok = entry["violations"] == []
    criterion_report(
        3, ok,
        "I characterization, I0 partition and dimension bound on "
        f"{len(all_instances)} instances, 0 violations",
    )
    assert entry["violations"] == []


def _fixes_maximal_cliques(contact, perm):
    cliques = set(rc.maximal_cliques(contact))
    mapped = {tuple(sorted(perm[h] for h in cl)) for cl in cliques}
    return mapped == cliques


def test_criterion_4_kernel(y_st5_r3, y_c5_r3, criterion_report):
    square = md.builtin_complex("SQUARE")
    Fs = ct.build_contact_family(square)
    gens_sq = rc.kernel_subgroup(square)
    ok = len(gens_sq) == 1
    for g in gens_sq:
        rc.verify_automorphism(Fs.contact, g)
        ok = ok and _fixes_maximal_cliques(Fs.contact, g)
        ok = ok and len([h for h in g if g[h] != h]) == 2

    Fe = ct.build_contact_family(y_st5_r3.complex)
    gens_eq = rc.kernel_subgroup(y_st5_r3.complex)
    ok = ok and bool(gens_eq)
    for g in gens_eq:
        rc.verify_automorphism(Fe.contact, g)
        ok = ok and _fixes_maximal_cliques(Fe.contact, g)
        ok = ok and len([h for h in g if g[h] != h]) == 2

    ok = ok and rc.kernel_subgroup(md.builtin_complex("TRIPOD")) == []
    interior = rg.star_inclusion_I_check(y_c5_r3)
    singleton = all(
        entry["I0"] == [hid]
        for hid, entry in interior["hyperplanes"].items()
    )
    ok = ok and singleton
    criterion_report(
        4, ok,
        f"SQUARE kernel has 1 transposition, STAR_EQ5 ball has "
        f"{len(gens_eq)}, TRIPOD and interior C5 have none",
    )
    assert ok


def test_criterion_5_roundtrip(y_c5_r3, x_c5_r2, criterion_report):
    results = []
    for name, ball in (("Y_C5 R3", y_c5_r3), ("X_C5 R2", x_c5_r2)):
        t0 = time.monotonic()
        violations = vf.interior_roundtrip(ball, margin=2)
        elapsed = time.monotonic() - t0
        results.append((name, violations, elapsed))
    ok = all(not v and t <= 120 for _, v, t in results)
    criterion_report(
        5, ok,
        "interior reconstruction roundtrip and rho o iota = id on "
        + ", ".join(f"{n} ({t:.1f}s)" for n, _, t in results),
    )
    for name, violations, elapsed in results:
        assert violations == [], name
        assert elapsed <= 120, name


def test_criterion_6_adjacency_criterion(all_instances, criterion_report):
    entry = vf.suite_criterion(all_instances)
    ok = entry["violations"] == []
    criterion_report(
        6, ok,
        "non-adjacent pairs always fail the unconditional adjacency "
        f"criterion on {len(all_instances)} instances",
    )
    assert entry["violations"] == []


def test_criterion_7_davis(y_p4_r4, y_c5_r3, criterion_report):
    out = rg.davis_phi(y_p4_r4, "a", "b")
    u, v = out.broken_edge
    X = y_p4_r4.complex
    broken = (
        has_edge(X, u, v)
        and not has_edge(X, out.rho_map[u], out.rho_map[v])
    )
    rejected = False
    try:
        rg.davis_phi(y_c5_r3, "a", "b")
    except StarNotContained:
        rejected = True
    checked = vf.suite_davis(y_p4_r4.gamma, 4, "a", "b")["violations"] == []
    ok = broken and rejected and checked
    criterion_report(
        7, ok,
        f"P4 reflection breaks square {out.witness_square} at edge "
        f"{out.broken_edge}, the davis suite finds no violation; C5 is "
        "rejected",
    )
    assert broken
    assert rejected
    assert checked


def test_criterion_8_star_inclusion(y_p4_r4, y_st5_r4, criterion_report):
    rep_p4 = rg.star_inclusion_I_check(y_p4_r4, margin=2)
    rep_st = rg.star_inclusion_I_check(y_st5_r4, margin=2)
    checked = len(rep_p4["hyperplanes"]) + len(rep_st["hyperplanes"])
    ok = (
        rep_p4["mismatches"] == []
        and rep_st["mismatches"] == []
        and checked > 0
    )
    criterion_report(
        8, ok,
        f"interior I and I0 match the star formulas on {checked} "
        "hyperplanes of the P4 and STAR_EQ5 balls, 0 mismatches",
    )
    assert rep_p4["mismatches"] == []
    assert rep_st["mismatches"] == []
    assert checked > 0


def _conjugates_fix_all_pairs(ball, tw, margin=2):
    """For every 2-set F of interior hyperplanes, find a ball element g
    moving F into the region the twist fixes pointwise; the conjugate
    g^-1 psi g then fixes F. Returns (pairs, successes).
    """
    dual = md._dual_edges(ball.complex)
    fixed = {v for v in tw.perm if tw.perm[v] == v}
    interior = sorted(ball.interior_hyperplanes(margin))
    words = sorted(
        ball.words, key=lambda v: rg.word_length(ball.kind, ball.words[v])
    )
    pairs = list(combinations(interior, 2))
    successes = 0
    for F in pairs:
        for g in words:
            gw = ball.words[g]
            if all(
                any(
                    ip in fixed and iq in fixed
                    for p, q in dual[u]
                    for ip in [rg.format_word(
                        rg.nf_mult(ball.gamma, ball.kind, gw, ball.words[p])
                    )]
                    if ip in ball.words
                    for iq in [rg.format_word(
                        rg.nf_mult(ball.gamma, ball.kind, gw, ball.words[q])
                    )]
                    if iq in ball.words
                )
                for u in F
            ):
                successes += 1
                break
    return len(pairs), successes


def test_criterion_9_halfspace_twist(x_f2_r3, x_c5_r3, criterion_report):
    parts = []
    ok = True
    for name, ball, x, y in (
        ("F2", x_f2_r3, "x", "y"),
        ("C5", x_c5_r3, "a", "c"),
    ):
        tw = rg.halfspace_twist(ball, x, y)
        X = ball.complex
        rc.verify_automorphism(X.adjacency,
                               {X.index[v]: X.index[w] for v, w in tw.perm.items()})
        carrier = [v for v, k in zip(X.vertices, X.carriers[tw.hyperplane]) if k]
        ok = ok and bool(tw.moved)
        ok = ok and all(tw.perm[v] == v for v in carrier)
        pairs, successes = _conjugates_fix_all_pairs(ball, tw)
        ok = ok and successes == pairs
        parts.append(f"{name} {successes}/{pairs} pairs")
    criterion_report(
        9, ok,
        "halfspace twists are nontrivial carrier-fixing automorphisms and "
        "conjugates fix every interior pair: " + ", ".join(parts),
    )
    assert ok


def test_criterion_10_extension_graph(x_c5_r3, z2_r3, criterion_report):
    out = rg.extension_graph_ball(x_c5_r3)
    iso = bool(out["comparison"] and out["comparison"].get("isomorphic"))

    shuffle = rg.syllable_shuffle(z2_r3, {1: 2, 2: 1}, apex="y")
    perm = shuffle["perm"]
    pair = ("1", "y")
    u, v = pair
    d_r_before = rg.syllable_distance(z2_r3, u, v)
    d_r_after = rg.syllable_distance(z2_r3, perm[u], perm[v])
    d_w_before = z2_r3.complex.d(u, v)
    d_w_after = z2_r3.complex.d(perm[u], perm[v])
    preserves_dr = d_r_before == d_r_after
    violates_dw = d_w_before != d_w_after
    ok = iso and preserves_dr and violates_dw
    criterion_report(
        10, ok,
        "C5 truncated extension graph is isomorphic to the interior "
        f"reduced crossing graph; shuffle keeps d_r({u},{v}) = "
        f"{d_r_before} while d_w goes {d_w_before} -> {d_w_after}",
    )
    assert iso
    assert preserves_dr
    assert violates_dw
